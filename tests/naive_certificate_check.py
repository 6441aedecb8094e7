"""A certificate checker that shares no code with elemop.

It reads an instance file and a certificate file as JSON and re-checks
the verdict with nothing but pairs (re, im) of `fractions.Fraction` and
plain loops, so a fault in elemop's kernels, map equality or verifier
cannot make it pass a wrong certificate:

- LQN: the representation (u_i, v_i) is the instance's map on every
  matrix unit, sum u_i E_kl v_i = sum a_i E_kl b_i for all k, l, and its
  block grid v_i u_j has the zero pattern or the exceptional grid that
  the certificate's form names, with that form's parameter conditions;
- NotLQN: phi(x)^d is not zero for the witness x, by plain products;
- Unknown: nothing is claimed, so nothing is checked.

The instance digest binds a certificate to its file and is `verify`'s
business; this checker reads the two files it is given.  `check` returns
None when every check holds, or the name of the first that fails.

`decide` answers the question itself, from the instance file alone: phi
is LQN iff phi(x) is nilpotent at every x in N^(d x d) whose entries sum
to d.  tr(phi(x)^p) is homogeneous of degree p <= d in the entries of x,
and a homogeneous polynomial of degree at most D that vanishes on the
simplex lattice {t in N^k : sum t = D} is zero (Chung and Yao, SIAM
J. Numer. Anal. 14, 1977).  The lattice has C(d^2 + d - 1, d) points,
165 at d = 3 and 3876 at d = 4; a NotLQN answer stops at its first
non-nilpotent point.
"""

import json
from fractions import Fraction
from itertools import combinations_with_replacement

ZERO = (Fraction(0), Fraction(0))


def _part(text):
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def _matrix(data):
    return [[(_part(re), _part(im)) for re, im in row] for row in data]


def _vector(data):
    """A list of entries, read as a column."""
    return [(_part(re), _part(im)) for re, im in data]


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _times(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _neg(p):
    return (-p[0], -p[1])


def _product(a, b):
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = ZERO
            for k, x in enumerate(row):
                acc = _add(acc, _times(x, b[k][j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def _is_zero(m):
    return all(e == ZERO for row in m for e in row)


def _outer(col, row):
    return [[_times(x, y) for y in row] for x in col]


def _square(m, d):
    return len(m) == d and all(len(row) == d for row in m)


def _on_unit(pairs, k, l, d):
    """sum_i a_i E_kl b_i: column k of a_i times row l of b_i."""
    out = [[ZERO] * d for _ in range(d)]
    for a, b in pairs:
        for p in range(d):
            x = a[p][k]
            for q in range(d):
                out[p][q] = _add(out[p][q], _times(x, b[l][q]))
    return out


def _independent(x, y):
    """Whether two vectors are linearly independent: some 2 x 2 minor of
    [x y] is not zero."""
    return any(
        _add(_times(x[p], y[q]), _neg(_times(x[q], y[p]))) != ZERO
        for p in range(len(x))
        for q in range(p + 1, len(x))
    )


def _check_lqn(pairs, verdict, d):
    rep = verdict.get("representation")
    if rep is None:
        return "representation missing"
    if len(rep["u"]) != len(rep["v"]):
        return "representation arity"
    u = [_matrix(m) for m in rep["u"]]
    v = [_matrix(m) for m in rep["v"]]
    if not all(_square(m, d) for m in u + v):
        return "representation shape"
    rep_pairs = list(zip(u, v))
    for k in range(d):
        for l in range(d):
            if _on_unit(rep_pairs, k, l, d) != _on_unit(pairs, k, l, d):
                return f"reconstruction at E_{k}{l}"
    n = len(u)
    grid = [[_product(v[i], u[j]) for j in range(n)] for i in range(n)]
    form = verdict.get("form")
    given = verdict.get("parameters", {})
    params = {key: _vector(value) for key, value in given.items() if key != "r"}
    if any(len(vec) != d for vec in params.values()):
        return "parameter length"
    if form in ("pattern-i", "length2-zeros"):
        for i in range(n):
            for j in range(i + 1):
                if not _is_zero(grid[i][j]):
                    return f"zero pattern at block ({i}, {j})"
        return None
    if form == "dimv1-block":
        r = given.get("r")
        if not isinstance(r, int) or not 1 <= r <= n:
            return "parameters missing"
        for i in range(n):
            for j in range(n):
                if (j >= r or j <= i < r) and not _is_zero(grid[i][j]):
                    return f"block ({i}, {j})"
        return None
    if form == "special-ii":
        if not {"zeta0", "zeta1", "f"} <= params.keys():
            return "parameters missing"
        if all(e == ZERO for e in params["f"]):
            return "functional is zero"
        if not _independent(params["zeta0"], params["zeta1"]):
            return "zeta independence"
        x = _outer(params["zeta1"], params["f"])
        y = _outer(params["zeta0"], params["f"])
    elif form == "special-iii":
        if not {"zeta0", "f", "g"} <= params.keys():
            return "parameters missing"
        if all(e == ZERO for e in params["zeta0"]):
            return "column is zero"
        if not _independent(params["f"], params["g"]):
            return "functional independence"
        x = _outer(params["zeta0"], params["g"])
        y = _outer(params["zeta0"], params["f"])
    else:
        return "form"
    if n != 3:
        return "representation arity"
    z = [[ZERO] * d for _ in range(d)]
    minus_y = [[_neg(e) for e in row] for row in y]
    expected = [[z, x, z], [y, z, x], [z, minus_y, z]]
    for i in range(3):
        for j in range(3):
            if grid[i][j] != expected[i][j]:
                return f"gram block ({i}, {j})"
    return None


def _is_nilpotent(m, d):
    """m^d = 0, by plain products."""
    power = m
    for _ in range(d - 1):
        power = _product(power, m)
    return _is_zero(power)


def _check_not_lqn(pairs, verdict, d):
    if "witness" not in verdict:
        return "witness missing"
    x = _matrix(verdict["witness"])
    if not _square(x, d):
        return "witness shape"
    image = [[ZERO] * d for _ in range(d)]
    for a, b in pairs:
        term = _product(_product(a, x), b)
        image = [[_add(s, t) for s, t in zip(rs, rt)] for rs, rt in zip(image, term)]
    if _is_nilpotent(image, d):
        return "witness image is nilpotent"
    return None


def _read_operator(instance_path):
    with open(instance_path, encoding="utf-8") as f:
        operator = json.load(f)["operator"]
    d = operator["dim"]
    return d, [(_matrix(p["a"]), _matrix(p["b"])) for p in operator["pairs"]]


def decide(instance_path):
    """The status of the instance, "LQN" or "NotLQN", by walking the
    simplex lattice: x = sum t_kl E_kl over the t in N^(d*d) with
    sum t = d, so phi(x) is the same combination of the images phi(E_kl),
    one image added per occurrence of its unit in the combination."""
    d, pairs = _read_operator(instance_path)
    units = [_on_unit(pairs, k, l, d) for k in range(d) for l in range(d)]
    for combo in combinations_with_replacement(range(d * d), d):
        image = [[ZERO] * d for _ in range(d)]
        for unit in combo:
            image = [[_add(s, t) for s, t in zip(rs, rt)] for rs, rt in zip(image, units[unit])]
        if not _is_nilpotent(image, d):
            return "NotLQN"
    return "LQN"


def check(instance_path, certificate_path):
    """None when the certificate's verdict holds for the instance, or
    the name of the first check that fails."""
    d, pairs = _read_operator(instance_path)
    with open(certificate_path, encoding="utf-8") as f:
        verdict = json.load(f)["verdict"]
    status = verdict["status"]
    if status == "LQN":
        return _check_lqn(pairs, verdict, d)
    if status == "NotLQN":
        return _check_not_lqn(pairs, verdict, d)
    if status == "Unknown":
        return None
    return "status"

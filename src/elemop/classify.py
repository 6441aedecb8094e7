"""Decision procedure for local nilpotency at every length.

`classify` is one ladder of the paper's tests, exact end to end.  From
length 3 on, the vanishing of sum b_i a_i is a trace obstruction with a
deterministic refuting argument when it fails.  At every length a block
flag on the coefficient products settles the fully triangular form
(v_i u_j = 0 for i >= j), and at length <= 2 it is the whole decision.
For length 3 the remaining structure lives in the scalar slice span of
the block grid: writing the grid as sum_w S_w (x) M_w with scalar 3x3
matrices S_w, a representation change by P conjugates every S_w by P,
so the classification reduces to the dichotomy for 2-dimensional
nilpotent planes in M_3 followed by rank-one matching of the two
surviving blocks.  Past length 3 a failed flag is not a proof, so it
goes to the witness search alone.

Every positive verdict is built by `_lqn`, which returns it only once
`verify_certificate` accepts it; that independent verifier, the trust
boundary in `certificate`, also re-validates certificates from the
serialized data alone.
"""

from __future__ import annotations

from typing import Sequence

from .certificate import (
    FORM_DIMV1,
    FORM_LENGTH2,
    FORM_PATTERN_I,
    FORM_SPECIAL_II,
    FORM_SPECIAL_III,
    ClassificationVerdict,
    FormParameters,
    _vectors_independent,
    refutes,
    verify_certificate,
)
from .errors import (
    ContractError,
    DimensionError,
    InconsistencyError,
    RankError,
)
from .exact import (
    Matrix,
    basis_vector,
    derive_seed,
    independent_subset,
    inverse,
    is_nilpotent_matrix,
    linear_combinations,
    random_invertible,
    random_matrix,
    random_nonzero_vector,
    rank,
    ratio,
    simplex_points,
    zero_vector,
)
from .nilpotency import (
    DEFAULT_TRIALS,
    slice_span,
    special_plane_form,
    strict_triangularize,
    subspace_all_nilpotent,
    trace_condition_witness,
    witness_search,
)
from .operators import (
    ElementaryOperator,
    apply,
    change_left_basis,
    gram,
    local_matrix,
    minimal_length,
    similarity_transform,
    sum_bi_ai,
    v_space,
    left_space,
)
from .spaces import (
    OperatorSpace,
    rank_one_factor,
    reduce_basis,
    simultaneous_separating_vector,
)

GENERATOR_HEIGHT = 3


def necessary_trace_condition(phi: ElementaryOperator) -> bool:
    """sum b_i a_i = 0; failing it refutes local nilpotency outright."""
    return sum_bi_ai(phi).is_zero


def _refutation(
    phi: ElementaryOperator, trials: int, seed: int, branch: str
) -> ClassificationVerdict:
    """NotLQN with a witness, or Unknown when none is found.  At d <= 2
    every caller has proven phi not locally nilpotent, so a search that
    misses falls back on the walk of the simplex lattice."""
    # tr phi(w) is the nonzero entry of sum b_i a_i that w was read from
    w = trace_condition_witness(phi)
    if w is not None:
        return ClassificationVerdict(
            "NotLQN", witness=w, evidence={"branch": branch, "trials": 0}
        )
    found = witness_search(phi, trials=trials, seed=seed)
    if found is not None:
        x, used = found
        return ClassificationVerdict(
            "NotLQN", witness=x, evidence={"branch": branch, "trials": used}
        )
    if phi.dim <= 2:
        return ClassificationVerdict(
            "NotLQN", witness=_grid_refutation(phi), evidence={"branch": branch, "trials": trials}
        )
    return ClassificationVerdict(
        "Unknown", evidence={"branch": branch, "trials": trials}
    )


def _grid_refutation(phi: ElementaryOperator) -> Matrix:
    """A non-negative integer witness on the simplex lattice Delta(d*d, d)
    for phi proven not locally nilpotent.

    tr(phi(x)^p) is homogeneous of degree p <= d in the entries of x, so
    if phi(x) were nilpotent at every point of the lattice the identities
    would vanish identically; finding no witness contradicts the proof.
    """
    d = phi.dim
    for point in simplex_points(d * d, d):
        x = Matrix.from_rows([point[i * d : (i + 1) * d] for i in range(d)])
        if refutes(phi, x):
            return x
    raise InconsistencyError("proven refutation but no lattice witness exists")


def _lqn(
    phi: ElementaryOperator,
    form: str,
    rep: ElementaryOperator,
    branch: str,
    parameters: FormParameters | None = None,
) -> ClassificationVerdict:
    """The one builder of LQN verdicts: the verdict leaves only once the
    independent verifier accepts it against phi."""
    verdict = ClassificationVerdict(
        "LQN", form, rep, parameters=parameters, evidence={"branch": branch}
    )
    check = verify_certificate(phi, verdict)
    if not check:
        raise InconsistencyError(f"classifier produced an invalid certificate: {check.failed}")
    return verdict


def _block_flag(
    phi: ElementaryOperator, reduced: ElementaryOperator, slices: OperatorSpace
) -> ClassificationVerdict | None:
    """The block-flag tier: the LQN verdict whose representation is the
    minimal one `reduced` conjugated by the strict flag of its slice span,
    or None when the span has no flag.  The verdict leaves through `_lqn`."""
    p = strict_triangularize(slices)
    if p is None:
        return None
    form = FORM_PATTERN_I if reduced.term_count >= 3 else FORM_LENGTH2
    return _lqn(phi, form, similarity_transform(reduced, p), "block flag")


def construct_triangular_rep(phi: ElementaryOperator) -> ElementaryOperator | None:
    """A representation with v_i u_j = 0 for all i >= j, or None.

    This is `classify`'s block-flag tier, so a representation is returned
    only once `verify_certificate` has accepted its zero pattern; the zero
    operator, with no pairs, is its own.  The pattern bounds V: it is
    spanned by the v_i u_j with i < j, so dim V <= n(n-1)/2.
    """
    n, reduced = minimal_length(phi)
    if n == 0:
        return ElementaryOperator.zero(phi.dim)
    verdict = _block_flag(phi, reduced, slice_span(gram(reduced)))
    return None if verdict is None else verdict.representation


def classify(
    phi: ElementaryOperator, trials: int = DEFAULT_TRIALS, seed: int = 0
) -> ClassificationVerdict:
    """Classification at every minimal length, as one ladder.

    Deterministic except for witness sampling on refutations.  From
    length 3 on the trace obstruction comes first.  At every length the
    block flag is the strict flag of the slice span, built and
    triangularized once; at length <= 2 it is the whole decision.  At
    length 3, failing the flag, the span is conjugated onto the
    exceptional plane of M_3 and the two surviving blocks are matched as
    rank-one factors.  So at length <= 3 every refutation is proven, and
    Unknown means that no witness was found for it; past length 3 a
    failed flag proves nothing, and Unknown means no flag and no witness.
    At d <= 2 every refutation is proven and carries a witness.
    """
    n, reduced = minimal_length(phi)
    if n == 0:
        return _lqn(phi, FORM_LENGTH2, ElementaryOperator.zero(phi.dim), "zero operator")
    if n >= 3 and not necessary_trace_condition(reduced):
        return _refutation(reduced, trials, seed, branch="trace condition")
    slices = slice_span(gram(reduced))
    verdict = _block_flag(phi, reduced, slices)
    if verdict is not None:
        return verdict
    if n < 3:
        return _refutation(reduced, trials, seed, branch="length2 block flag failed")
    if n > 3:
        return _refutation(reduced, trials, seed, branch="no block flag past length 3")
    if slices.dim != 2:
        return _refutation(
            reduced, trials, seed, branch=f"slice span has dimension {slices.dim}"
        )
    if not subspace_all_nilpotent(slices).all_nilpotent:
        return _refutation(reduced, trials, seed, branch="slice span not nilpotent")
    rep = similarity_transform(reduced, special_plane_form(slices).conjugator)
    # special_plane_form conjugates the slices exactly, which forces the
    # grid into [[0, X, 0], [Y, 0, X], [0, -Y, 0]]; _lqn re-checks it all
    g = gram(rep)
    x, y = g.block(0, 1), g.block(1, 0)
    try:
        fx, fy = rank_one_factor(x), rank_one_factor(y)
    except RankError:
        return _refutation(
            reduced, trials, seed, branch="pattern blocks are not rank one"
        )
    if fx.functional == fy.functional:
        params = FormParameters(zeta0=fy.column, zeta1=fx.column, f=fy.functional)
        return _lqn(phi, FORM_SPECIAL_II, rep, "shared functional", params)
    shared = ratio(fx.column, fy.column)
    if shared is not None:
        params = FormParameters(zeta0=fy.column, f=fy.functional, g=shared * fx.functional)
        return _lqn(phi, FORM_SPECIAL_III, rep, "shared column", params)
    return _refutation(
        reduced, trials, seed, branch="pattern blocks share no column or functional"
    )


def structure_dimv1(phi: ElementaryOperator) -> ClassificationVerdict:
    """Structure theory when the products span a single line.

    Builds a representation whose block grid is strictly upper in its
    leading r x r corner with vanishing right columns, where r is the
    local dimension of the left space; that shape certifies the power
    exponent r + 2 for every argument.  A non-nilpotent local matrix
    refutes instead, with the constructed argument as witness.
    """
    n, reduced = minimal_length(phi)
    if n == 0:
        raise ContractError("the zero operator has no product line")
    products = v_space(reduced)
    if products.dim != 1:
        raise ContractError(f"structure_dimv1 needs dim V = 1, got {products.dim}")
    w0 = products.basis[0]
    lspace = left_space(reduced)
    zeta = simultaneous_separating_vector([lspace, products])
    d = reduced.dim

    # Head indices: earliest a_i with independent images at zeta.  Each
    # tail a_t less its coordinates in the head images kills zeta; for
    # that left basis the right coefficients are unique.  Row t of the
    # transposed coordinates against the head gives those combinations.
    head, coords = independent_subset([a @ zeta for a, _ in reduced.pairs])
    r = len(head)
    left = [a for a, _ in reduced.pairs]
    head_left = [left[h] for h in head]
    in_head = linear_combinations(coords.transpose(), head_left)
    adjusted = change_left_basis(
        reduced, head_left + [left[t] - in_head[t] for t in range(n) if t not in head]
    )

    x = _map_onto(zeta, w0 @ zeta, d)

    head_op = ElementaryOperator(d, adjusted.pairs[:r])
    local = local_matrix(head_op, zeta, x)
    if not is_nilpotent_matrix(local):
        if not refutes(phi, x):  # pragma: no cover
            raise InconsistencyError("non-nilpotent local matrix but nilpotent image")
        return ClassificationVerdict(
            "NotLQN", witness=x, evidence={"branch": "dimv1 local matrix", "trials": 0}
        )
    flag = strict_triangularize(reduce_basis([local], ambient_dim=r))
    adjusted_left = [a for a, _ in adjusted.pairs]
    new_left = linear_combinations(flag.transpose(), adjusted_left[:r]) + adjusted_left[r:]
    rep = change_left_basis(adjusted, new_left)

    return _lqn(phi, FORM_DIMV1, rep, "dimv1 structure", FormParameters(r=r))


def _map_onto(target: Matrix, source: Matrix, d: int) -> Matrix:
    """A matrix sending source to target and a complement of source to 0."""
    candidates = [source] + [basis_vector(d, i) for i in range(d)]
    kept, _ = independent_subset(candidates)
    return _targets_to_map(inverse(Matrix.from_columns([candidates[i] for i in kept])), [target], d)


def dim_phi_x_squared_range(phi: ElementaryOperator, x: Matrix) -> int:
    """Rank of phi(x)^2; bounded by 3 for the exceptional length-3 forms."""
    y = apply(phi, x)
    return rank(y @ y)


# -- generators ---------------------------------------------------------


def _targets_to_map(q_inv: Matrix, images: Sequence[Matrix], d: int) -> Matrix:
    """Matrix sending column j of q to images[j] and later columns to 0,
    given q_inv, the inverse of q."""
    padded = list(images) + [zero_vector(d)] * (d - len(images))
    return Matrix.from_columns(padded) @ q_inv


def generate(form: str, n: int, d: int, seed: int) -> ElementaryOperator:
    """Seeded instance generators for every canonical shape.

    Every instance is scrambled by a random representation change so the
    generating pattern is not syntactically visible.  Construction is
    solve-based: left coefficients get prescribed low-rank structure and
    the right coefficients are read off a linear system that is solvable
    by construction.
    """
    if form == "i":
        return _generate_pattern_i(n, d, seed)
    if form == "ii":
        return _generate_special(n, d, seed, shared="functional")
    if form == "iii":
        return _generate_special(n, d, seed, shared="column")
    if form == "remark45":
        return _generate_near_miss(n, d, seed)
    if form == "random":
        return _generate_random(n, d, seed)
    raise ContractError(f"unknown form {form!r}")


def _scramble(phi: ElementaryOperator, seed: int) -> ElementaryOperator:
    n = phi.term_count
    if n <= 1:
        return phi
    p = random_invertible(n, seed, GENERATOR_HEIGHT)
    return similarity_transform(phi, p)


def _attempts(seed: int, draw, accept=None) -> ElementaryOperator:
    """The one attempt loop of the structured generators.  Attempt k runs
    on s = derive_seed(seed, k), and every draw inside it is keyed by its
    own derive_seed(s, .), so the order of the draws does not matter.
    draw(s) returns (u, table, q), or None to retry: v_i sends column j
    of the invertible q to table[i][j] and later columns to 0.  The first
    operator of minimal length len(u) that passes accept is scrambled."""
    for attempt in range(64):
        s = derive_seed(seed, attempt)
        drawn = draw(s)
        if drawn is None:
            continue
        u, table, q = drawn
        q_inv = inverse(q)
        v = [_targets_to_map(q_inv, row, q.rows) for row in table]
        phi = ElementaryOperator.from_pairs(q.rows, list(zip(u, v)))
        if minimal_length(phi)[0] == len(u) and (accept is None or accept(phi)):
            return _scramble(phi, derive_seed(s, 999))
    raise InconsistencyError("generator exhausted its attempts")  # pragma: no cover


def _generate_pattern_i(n: int, d: int, seed: int) -> ElementaryOperator:
    # The last right coefficient must kill every left column while staying
    # nonzero, so at least one spare dimension is needed.
    if n < 1 or d < n + 1:
        raise DimensionError(f"pattern i needs 1 <= n < d, got n={n}, d={d}")

    def draw(s):
        q = random_invertible(d, derive_seed(s, 1), GENERATOR_HEIGHT)
        eta = [random_nonzero_vector(d, derive_seed(s, 10 + j), GENERATOR_HEIGHT) for j in range(n)]
        u = [q.column(j) @ eta[j].transpose() for j in range(n)]
        # v_i kills the first i + 1 columns of q: v_i u_j = 0 for i >= j
        table = [
            [
                random_nonzero_vector(d, derive_seed(s, 100 + 31 * i + j), GENERATOR_HEIGHT)
                if j > i
                else zero_vector(d)
                for j in range(d)
            ]
            for i in range(n)
        ]
        return u, table, q

    return _attempts(seed, draw, lambda phi: v_space(phi).dim == n * (n - 1) // 2)


def _generate_special(n: int, d: int, seed: int, shared: str) -> ElementaryOperator:
    if n != 3:
        raise DimensionError("the exceptional forms exist at length 3 only")
    minimum = 3 if shared == "functional" else 4
    if d < minimum:
        raise DimensionError(f"this form needs dimension >= {minimum}, got {d}")
    zero = zero_vector(d)

    def draw(s):
        q = random_invertible(d, derive_seed(s, 1), GENERATOR_HEIGHT)
        f = random_nonzero_vector(d, derive_seed(s, 2), GENERATOR_HEIGHT)
        if shared == "functional":
            zeta0 = random_nonzero_vector(d, derive_seed(s, 3), GENERATOR_HEIGHT)
            zeta1 = random_nonzero_vector(d, derive_seed(s, 4), GENERATOR_HEIGHT)
            if not _vectors_independent(zeta0, zeta1):
                return None
            u = [q.column(j) @ f.transpose() for j in range(3)]
            return u, [[zero, zeta1, zero], [zeta0, zero, zeta1], [zero, -zeta0, zero]], q
        g_fun = random_nonzero_vector(d, derive_seed(s, 3), GENERATOR_HEIGHT)
        if not _vectors_independent(f, g_fun):
            return None
        zeta0 = random_nonzero_vector(d, derive_seed(s, 4), GENERATOR_HEIGHT)
        f_t, g_t = f.transpose(), g_fun.transpose()
        u = [q.column(0) @ f_t, q.column(1) @ g_t + q.column(2) @ f_t, q.column(3) @ g_t]
        table = [[zero, zeta0, zero, zero], [zeta0, zero, zero, zeta0], [zero, zero, -zeta0, zero]]
        return u, table, q

    return _attempts(seed, draw)


def _generate_near_miss(n: int, d: int, seed: int) -> ElementaryOperator:
    """The exceptional scalar shape with rank-two blocks: passes the trace
    obstruction yet is certifiably not locally nilpotent."""
    if n != 3:
        raise DimensionError("the near-miss family exists at length 3 only")
    if d < 4:
        raise DimensionError(f"the near-miss family needs dimension >= 4, got {d}")
    zero2 = [zero_vector(d)] * 2

    def draw(s):
        q = random_invertible(d, derive_seed(s, 1), GENERATOR_HEIGHT)
        r_src = random_invertible(d, derive_seed(s, 2), GENERATOR_HEIGHT)
        r_mat = Matrix(r_src.den, r_src.re[:2], r_src.im[:2])
        lam_x = random_invertible(2, derive_seed(s, 3), GENERATOR_HEIGHT)
        lam_y = random_invertible(2, derive_seed(s, 4), GENERATOR_HEIGHT)
        quotient = inverse(lam_y) @ lam_x
        if _is_scalar_matrix(quotient):
            return None
        basis_q = random_invertible(d, derive_seed(s, 5), GENERATOR_HEIGHT)
        s1 = Matrix.from_columns([basis_q.column(0), basis_q.column(1)])
        s2 = Matrix.from_columns([basis_q.column(2), basis_q.column(3)])
        u = [s1 @ r_mat, s2 @ r_mat, s1 @ quotient @ r_mat]
        c_mat = Matrix.from_columns([q.column(0), q.column(1)])
        cx, cy = c_mat @ lam_x, c_mat @ lam_y
        table = [
            zero2 + [cx.column(0), cx.column(1)],
            [cy.column(0), cy.column(1)] + zero2,
            zero2 + [-cy.column(0), -cy.column(1)],
        ]
        return u, table, basis_q

    return _attempts(seed, draw, lambda phi: sum_bi_ai(phi).is_zero)


def _is_scalar_matrix(m: Matrix) -> bool:
    """Whether m is its (0, 0) entry times I, compared on the grids."""
    c = (m.re[0][0], m.im[0][0])
    return all(
        (m.re[i][j], m.im[i][j]) == (c if i == j else (0, 0))
        for i in range(m.rows)
        for j in range(m.cols)
    )


def _generate_random(n: int, d: int, seed: int) -> ElementaryOperator:
    """n pairs of seeded random matrices.  The coefficient tensor of an
    operator on M_d is d^2 x d^2, so no operator has length above d^2,
    and a longer request is refused before any matrix is drawn."""
    if n < 1 or d < 1:
        raise DimensionError(f"random operators need n >= 1 and d >= 1, got n={n}, d={d}")
    if n > d * d:
        raise DimensionError(f"an operator on M_{d} has length at most {d * d}, got n={n}")
    pairs = []
    for i in range(n):
        a = random_matrix(d, derive_seed(seed, 2 * i), GENERATOR_HEIGHT)
        b = random_matrix(d, derive_seed(seed, 2 * i + 1), GENERATOR_HEIGHT)
        pairs.append((a, b))
    return ElementaryOperator.from_pairs(d, pairs)


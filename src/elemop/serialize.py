"""JSON formats shared by every module, plus content digests.

A scalar is a two-element array of reduced-fraction strings, real part
then imaginary part; a matrix is a row-major array of scalars, and a
vector, a d x 1 matrix, is the flat array of its d scalars.  The
boundary is strict on purpose: decimal literals are rejected rather than
converted, unknown keys are rejected rather than ignored, and everything
round-trips bit for bit.

Matrices cross the boundary on their Gaussian-integer grids: the reader
parses each part with `int` into a numerator and a denominator and
builds one `Matrix` over their least common denominator, and the writers
print each part x/den of the grids with `exact.fraction_text`.  Neither
direction builds a `Scalar` or a `Fraction`.

An operator is written as its pair list, and the representation in a
certificate, another `ElementaryOperator` for the same map, as the two
parallel arrays u and v of its pairs.  Both readers check every
coefficient against the instance's dim, and a u and v of different
lengths are rejected, so a malformed representation is a `FormatError`
that names the field.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd, lcm
from typing import Any

from .certificate import (
    FORM_DIMV1,
    FORM_LENGTH2,
    FORM_PATTERN_I,
    FORM_SPECIAL_II,
    FORM_SPECIAL_III,
    ClassificationVerdict,
    FormParameters,
)
from .errors import FormatError
from .exact import Matrix, fraction_text
from .operators import ElementaryOperator

SCHEMA_VERSION = "1"

#: The largest instance dim the reader accepts.  Every command finishes in
#: seconds on a pair-less instance of this size, while a dim with no bound
#: let `analyze` and `oracle` allocate dim x dim matrices until memory ran
#: out.
MAX_DIM = 32

_FRACTION_CHARS = "-/0123456789"


def _part(text: Any, index: int) -> tuple[int, int]:
    """(p, q) of the part `text` of a scalar, q >= 1, in the canonical
    spelling only ("p" or "p/q" with q > 1 and gcd(p, q) == 1), so one
    value has one spelling and one operator has one digest.

    A rejection is a FormatError whose message starts with "[index]", so
    the caller only puts the entry's location in front of it.
    """
    if not isinstance(text, str):
        raise FormatError(f"[{index}]: expected a fraction string, got {text!r}")
    # Sign, digits and slash spell every canonical value.  Filtering first
    # keeps int() from reading spaces, underscores, a plus sign or other
    # scripts' digits, and exponents such as "1e999999999" never reach it.
    if not text.strip(_FRACTION_CHARS):
        num, slash, den = text.partition("/")
        try:
            # ValueError: not an integer, or too many digits for int()
            p = int(num)
            q = int(den) if slash else 1
        except ValueError:
            pass
        else:
            if q == 0 and den.isdigit():
                raise FormatError(f"[{index}]: zero denominator in {text!r}")
            if str(p) == num and (
                not slash or (q > 1 and str(q) == den and gcd(p, q) == 1)
            ):
                return p, q
    raise FormatError(f"[{index}]: {text!r} is not a canonical integer or reduced fraction")


def _entry(data: Any) -> tuple[int, int, int, int]:
    """(p_re, q_re, p_im, q_im) of one [re, im] scalar; rejections as in
    `_part`, with a message that follows the entry's location."""
    if not isinstance(data, list) or len(data) != 2:
        raise FormatError(f": expected [re, im], got {data!r}")
    return (*_part(data[0], 0), *_part(data[1], 1))


def _matrix_over_entries(rows: list[list[tuple[int, int, int, int]]]) -> Matrix:
    """The matrix of parsed entries, its grids over the lcm of the part
    denominators, which is already the canonical one."""
    den = lcm(*(q for row in rows for _, q_re, _, q_im in row for q in (q_re, q_im)))
    return Matrix(
        den,
        [[p * (den // q) for p, q, _, _ in row] for row in rows],
        [[p * (den // q) for _, _, p, q in row] for row in rows],
    )


def _positive_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise FormatError(f"{where}: expected a positive integer")
    return value


def _require_keys(data: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(data, dict):
        raise FormatError(f"{where}: expected an object, got {type(data).__name__}")
    unknown = set(data) - allowed
    if unknown:
        raise FormatError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise FormatError(f"{where}: missing field(s) {sorted(missing)}")


def vector_to_json(v: Matrix) -> list:
    return [entry for (entry,) in matrix_to_json(v)]


def vector_from_json(data: Any, where: str) -> Matrix:
    if not isinstance(data, list) or not data:
        raise FormatError(f"{where}: expected a nonempty array")
    rows = []
    for i, e in enumerate(data):
        try:
            rows.append([_entry(e)])
        except FormatError as exc:
            raise FormatError(f"{where}[{i}]{exc}") from None
    return _matrix_over_entries(rows)


def matrix_to_json(m: Matrix) -> list:
    den = m.den
    return [
        [[fraction_text(x, den), fraction_text(y, den)] for x, y in zip(re, im)]
        for re, im in zip(m.re, m.im)
    ]


def matrix_from_json(data: Any, where: str) -> Matrix:
    if not isinstance(data, list) or not data:
        raise FormatError(f"{where}: expected a nonempty array of rows")
    rows = []
    width = None
    for i, row in enumerate(data):
        if not isinstance(row, list) or not row:
            raise FormatError(f"{where}[{i}]: expected a nonempty row")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise FormatError(f"{where}[{i}]: ragged row")
        parsed = []
        for j, e in enumerate(row):
            try:
                parsed.append(_entry(e))
            except FormatError as exc:
                raise FormatError(f"{where}[{i}][{j}]{exc}") from None
        rows.append(parsed)
    return _matrix_over_entries(rows)


def _coefficient(data: Any, dim: int, where: str) -> Matrix:
    m = matrix_from_json(data, where)
    if m.rows != dim or m.cols != dim:
        raise FormatError(f"{where}: coefficient shape differs from dim")
    return m


def operator_to_json(phi: ElementaryOperator) -> dict:
    return {
        "dim": phi.dim,
        "pairs": [
            {"a": matrix_to_json(a), "b": matrix_to_json(b)} for a, b in phi.pairs
        ],
    }


def operator_from_json(data: Any, where: str = "operator") -> ElementaryOperator:
    _require_keys(data, {"dim", "pairs"}, {"dim", "pairs"}, where)
    dim = _positive_int(data["dim"], f"{where}.dim")
    if dim > MAX_DIM:
        raise FormatError(f"{where}.dim: at most {MAX_DIM} is supported, got {dim}")
    if not isinstance(data["pairs"], list):
        raise FormatError(f"{where}.pairs: expected an array")
    pairs = []
    for i, item in enumerate(data["pairs"]):
        _require_keys(item, {"a", "b"}, {"a", "b"}, f"{where}.pairs[{i}]")
        a = _coefficient(item["a"], dim, f"{where}.pairs[{i}].a")
        b = _coefficient(item["b"], dim, f"{where}.pairs[{i}].b")
        pairs.append((a, b))
    return ElementaryOperator(dim, tuple(pairs))


def representation_to_json(rep: ElementaryOperator) -> dict:
    """The pairs of a representation as two parallel arrays u and v."""
    return {
        "u": [matrix_to_json(u) for u, _ in rep.pairs],
        "v": [matrix_to_json(v) for _, v in rep.pairs],
    }


def representation_from_json(data: Any, dim: int, where: str = "representation") -> ElementaryOperator:
    _require_keys(data, {"u", "v"}, {"u", "v"}, where)
    u, v = data["u"], data["v"]
    for key, value in (("u", u), ("v", v)):
        if not isinstance(value, list):
            raise FormatError(f"{where}.{key}: expected an array")
    if len(u) != len(v):
        raise FormatError(f"{where}.v: expected {len(u)} coefficients like u, got {len(v)}")
    return ElementaryOperator(
        dim,
        tuple(
            (_coefficient(a, dim, f"{where}.u[{i}]"), _coefficient(b, dim, f"{where}.v[{i}]"))
            for i, (a, b) in enumerate(zip(u, v))
        ),
    )


_PARAM_KEYS = {"zeta0", "zeta1", "f", "g", "r"}


def parameters_to_json(p: FormParameters) -> dict:
    out: dict = {}
    for key in ("zeta0", "zeta1", "f", "g"):
        value = getattr(p, key)
        if value is not None:
            out[key] = vector_to_json(value)
    if p.r is not None:
        out["r"] = p.r
    return out


def parameters_from_json(data: Any, dim: int, where: str = "parameters") -> FormParameters:
    _require_keys(data, _PARAM_KEYS, set(), where)
    vectors = {}
    for key in ("zeta0", "zeta1", "f", "g"):
        if key in data:
            vectors[key] = vector_from_json(data[key], f"{where}.{key}")
            if vectors[key].rows != dim:
                raise FormatError(f"{where}.{key}: expected {dim} entries")
    r = data.get("r")
    if r is not None:
        _positive_int(r, f"{where}.r")
    return FormParameters(
        zeta0=vectors.get("zeta0"),
        zeta1=vectors.get("zeta1"),
        f=vectors.get("f"),
        g=vectors.get("g"),
        r=r,
    )


_VERDICT_KEYS = {"status", "form", "representation", "witness", "parameters", "evidence"}
_STATUSES = {"LQN", "NotLQN", "Unknown"}
_FORMS = {FORM_PATTERN_I, FORM_SPECIAL_II, FORM_SPECIAL_III, FORM_LENGTH2, FORM_DIMV1}


def verdict_to_json(verdict: ClassificationVerdict, dim: int) -> dict:
    out: dict = {"status": verdict.status, "evidence": dict(verdict.evidence)}
    if verdict.form is not None:
        out["form"] = verdict.form
    if verdict.representation is not None:
        out["representation"] = representation_to_json(verdict.representation)
    if verdict.witness is not None:
        out["witness"] = matrix_to_json(verdict.witness)
    if verdict.parameters is not None:
        out["parameters"] = parameters_to_json(verdict.parameters)
    return out


def verdict_from_json(data: Any, dim: int, where: str = "verdict") -> ClassificationVerdict:
    _require_keys(data, _VERDICT_KEYS, {"status"}, where)
    status = data["status"]
    if not isinstance(status, str) or status not in _STATUSES:
        raise FormatError(f"{where}.status: unknown status {status!r}")
    form = data.get("form")
    if form is not None and (not isinstance(form, str) or form not in _FORMS):
        raise FormatError(f"{where}.form: unknown form {form!r}")
    rep = None
    if "representation" in data:
        rep = representation_from_json(data["representation"], dim, f"{where}.representation")
    witness = None
    if "witness" in data:
        witness = matrix_from_json(data["witness"], f"{where}.witness")
    params = None
    if "parameters" in data:
        params = parameters_from_json(data["parameters"], dim, f"{where}.parameters")
    evidence = data.get("evidence", {})
    if not isinstance(evidence, dict):
        raise FormatError(f"{where}.evidence: expected an object")
    return ClassificationVerdict(status, form, rep, witness, params, evidence)


# -- files --------------------------------------------------------------


def instance_to_json(phi: ElementaryOperator, metadata: dict | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "operator": operator_to_json(phi),
        "metadata": dict(metadata or {}),
    }


def instance_from_json(data: Any) -> tuple[ElementaryOperator, dict]:
    _require_keys(
        data, {"schema_version", "operator", "metadata"}, {"schema_version", "operator"}, "instance"
    )
    if data["schema_version"] != SCHEMA_VERSION:
        raise FormatError(
            f"instance.schema_version: only {SCHEMA_VERSION!r} is accepted, "
            f"got {data['schema_version']!r}"
        )
    phi = operator_from_json(data["operator"], "instance.operator")
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise FormatError("instance.metadata: expected an object")
    return phi, metadata


def canonical_dumps(obj: Any) -> str:
    """The one JSON layout of elemop's files and digests: sorted keys, no
    whitespace, ASCII only."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def instance_digest(instance_data: dict) -> str:
    """Content hash binding certificates to instances.

    Covers the schema version and the operator; the free-form metadata is
    provenance and deliberately excluded.
    """
    core = {
        "schema_version": instance_data["schema_version"],
        "operator": instance_data["operator"],
    }
    return hashlib.sha256(canonical_dumps(core).encode("utf-8")).hexdigest()


def certificate_to_json(digest: str, verdict_data: dict, toolchain: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "instance_digest": digest,
        "verdict": verdict_data,
        "toolchain": toolchain,
    }


def certificate_from_json(data: Any) -> tuple[str, dict, str]:
    _require_keys(
        data,
        {"schema_version", "instance_digest", "verdict", "toolchain"},
        {"schema_version", "instance_digest", "verdict"},
        "certificate",
    )
    if data["schema_version"] != SCHEMA_VERSION:
        raise FormatError("certificate.schema_version: unsupported version")
    digest = data["instance_digest"]
    if not isinstance(digest, str):
        raise FormatError("certificate.instance_digest: expected a string")
    return digest, data["verdict"], data.get("toolchain", "")

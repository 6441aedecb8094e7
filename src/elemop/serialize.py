"""JSON formats shared by every module, plus content digests.

A scalar is a two-element array of reduced-fraction strings, real part
then imaginary part; a matrix is a row-major array of scalars, and a
vector, a d x 1 matrix, is the flat array of its d scalars.  The
boundary is strict on purpose: decimal literals are rejected rather than
converted, unknown keys are rejected rather than ignored, and everything
round-trips bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

from .classify import (
    FORM_DIMV1,
    FORM_LENGTH2,
    FORM_PATTERN_I,
    FORM_SPECIAL_II,
    FORM_SPECIAL_III,
    ClassificationVerdict,
    FormParameters,
)
from .errors import FormatError
from .exact import Matrix, Scalar
from .operators import ElementaryOperator, Representation

SCHEMA_VERSION = "1"

_FRACTION_CHARS = frozenset("-/0123456789")


def _fraction_from_string(text: Any, where: str) -> Fraction:
    """Parse the canonical spelling only, so one value has one spelling
    and one operator has one digest."""
    if not isinstance(text, str):
        raise FormatError(f"{where}: expected a fraction string, got {text!r}")
    value = None
    # Sign, digits and slash spell every canonical value.  Filtering first
    # keeps Fraction from expanding an exponent such as "1e999999999".
    if set(text) <= _FRACTION_CHARS:
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise FormatError(f"{where}: zero denominator in {text!r}") from None
        except ValueError:
            pass
    if value is None or str(value) != text:
        raise FormatError(f"{where}: {text!r} is not a canonical integer or reduced fraction")
    return value


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


def scalar_to_json(s: Scalar) -> list[str]:
    return [str(s.re), str(s.im)]


def scalar_from_json(data: Any, where: str) -> Scalar:
    if not isinstance(data, list) or len(data) != 2:
        raise FormatError(f"{where}: expected [re, im], got {data!r}")
    return Scalar(
        _fraction_from_string(data[0], f"{where}[0]"),
        _fraction_from_string(data[1], f"{where}[1]"),
    )


def vector_to_json(v: Matrix) -> list:
    return [scalar_to_json(s) for (s,) in v.entries]


def vector_from_json(data: Any, where: str) -> Matrix:
    if not isinstance(data, list) or not data:
        raise FormatError(f"{where}: expected a nonempty array")
    return Matrix.from_rows([scalar_from_json(e, f"{where}[{i}]")] for i, e in enumerate(data))


def matrix_to_json(m: Matrix) -> list:
    return [[scalar_to_json(e) for e in row] for row in m.entries]


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
        rows.append(
            tuple(scalar_from_json(e, f"{where}[{i}][{j}]") for j, e in enumerate(row))
        )
    return Matrix.from_rows(rows)


def _matrices_from_json(data: Any, where: str) -> tuple[Matrix, ...]:
    if not isinstance(data, list):
        raise FormatError(f"{where}: expected an array")
    return tuple(matrix_from_json(m, f"{where}[{i}]") for i, m in enumerate(data))


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
    if not isinstance(data["pairs"], list):
        raise FormatError(f"{where}.pairs: expected an array")
    pairs = []
    for i, item in enumerate(data["pairs"]):
        _require_keys(item, {"a", "b"}, {"a", "b"}, f"{where}.pairs[{i}]")
        a = matrix_from_json(item["a"], f"{where}.pairs[{i}].a")
        b = matrix_from_json(item["b"], f"{where}.pairs[{i}].b")
        if a.rows != dim or a.cols != dim or b.rows != dim or b.cols != dim:
            raise FormatError(f"{where}.pairs[{i}]: coefficient shape differs from dim")
        pairs.append((a, b))
    return ElementaryOperator(dim, tuple(pairs))


def representation_to_json(rep: Representation) -> dict:
    """The pairs u, v only.  P ties a representation to one particular
    source pair list and is not re-checkable from the instance alone, so
    no writer emits it; the reader still accepts an optional "P"."""
    return {
        "u": [matrix_to_json(m) for m in rep.u],
        "v": [matrix_to_json(m) for m in rep.v],
    }


def representation_from_json(data: Any, dim: int, where: str = "representation") -> Representation:
    _require_keys(data, {"u", "v", "P"}, {"u", "v"}, where)
    u = _matrices_from_json(data["u"], f"{where}.u")
    v = _matrices_from_json(data["v"], f"{where}.v")
    p = matrix_from_json(data["P"], f"{where}.P") if "P" in data else None
    return Representation(dim, u, v, p)


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

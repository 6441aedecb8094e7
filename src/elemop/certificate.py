"""The trust boundary: verdict types and the independent verifier.

A verdict reaches users as a certificate: an LQN verdict carries a
representation, another `ElementaryOperator` (u_i, v_i) for the same
map, whose block grid has the triangular zero pattern (v_i u_j = 0 for
i >= j) or one of the exceptional length-3 shapes, and a NotLQN verdict
carries a witness x with phi(x) not nilpotent.  The operator type
guarantees square coefficients of one dimension, so the verifier checks
only that this dimension is phi's.
`verify_certificate` re-checks either from the operator and the verdict
alone.  This module imports only the arithmetic layer and the operator
layer, so no search code of the classifier or of the nilpotency
deciders can take part in a check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact import Matrix, independent_subset, is_nilpotent_matrix
from .operators import ElementaryOperator, GramMatrix, apply, gram, maps_equal

FORM_PATTERN_I = "pattern-i"
FORM_SPECIAL_II = "special-ii"
FORM_SPECIAL_III = "special-iii"
FORM_LENGTH2 = "length2-zeros"
FORM_DIMV1 = "dimv1-block"


@dataclass(frozen=True)
class FormParameters:
    """The columns zeta0, zeta1 and functionals f, g of the exceptional
    forms, each a d x 1 matrix, and the corner size r of dimv1-block."""

    zeta0: Matrix | None = None
    zeta1: Matrix | None = None
    f: Matrix | None = None
    g: Matrix | None = None
    r: int | None = None


@dataclass(frozen=True, eq=False)
class ClassificationVerdict:
    status: str  # "LQN" | "NotLQN" | "Unknown"
    form: str | None = None
    representation: ElementaryOperator | None = None
    witness: Matrix | None = None
    parameters: FormParameters | None = None
    evidence: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CertificateCheck:
    ok: bool
    failed: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def refutes(phi: ElementaryOperator, x: Matrix) -> bool:
    """Whether phi(x) is not nilpotent, by the one nilpotency predicate."""
    return not is_nilpotent_matrix(apply(phi, x))


def _vectors_independent(*vectors: Matrix) -> bool:
    return len(independent_subset(vectors)[0]) == len(vectors)


def verify_certificate(
    phi: ElementaryOperator, verdict: ClassificationVerdict
) -> CertificateCheck:
    """Re-validate every identity a verdict claims, from scratch.

    Uses only the arithmetic layer plus block products and map equality
    on the coefficient tensor sum vec(a_i) vec(b_i)^T, whose entries are
    the values on the matrix units; no search code is shared with the
    classifier.  Returns the first failed check by name.
    """
    if verdict.status == "Unknown":
        return CertificateCheck(True)
    if verdict.status == "NotLQN":
        if verdict.witness is None:
            return CertificateCheck(False, "witness missing")
        if verdict.witness.rows != phi.dim or verdict.witness.cols != phi.dim:
            return CertificateCheck(False, "witness shape")
        if not refutes(phi, verdict.witness):
            return CertificateCheck(False, "witness image is nilpotent")
        return CertificateCheck(True)
    if verdict.status != "LQN":
        return CertificateCheck(False, "status")
    p = verdict.parameters
    if p is not None and any(
        vec is not None and (vec.rows, vec.cols) != (phi.dim, 1)
        for vec in (p.zeta0, p.zeta1, p.f, p.g)
    ):
        return CertificateCheck(False, "parameter length")

    rep = verdict.representation
    if rep is None:
        return CertificateCheck(False, "representation missing")
    if rep.dim != phi.dim:
        return CertificateCheck(False, "representation shape")
    if not maps_equal(rep, phi):
        return CertificateCheck(False, "reconstruction")
    g = gram(rep)
    n = rep.term_count

    if verdict.form in (FORM_PATTERN_I, FORM_LENGTH2):
        for i in range(n):
            for j in range(i + 1):
                if not g.block(i, j).is_zero:
                    return CertificateCheck(False, f"zero pattern at block ({i}, {j})")
        return CertificateCheck(True)

    if verdict.form == FORM_SPECIAL_II:
        p = verdict.parameters
        if p is None or p.zeta0 is None or p.zeta1 is None or p.f is None:
            return CertificateCheck(False, "parameters missing")
        if n != 3:
            return CertificateCheck(False, "representation arity")
        if p.f.is_zero:
            return CertificateCheck(False, "functional is zero")
        if not _vectors_independent(p.zeta0, p.zeta1):
            return CertificateCheck(False, "zeta independence")
        f_t = p.f.transpose()
        x = p.zeta1 @ f_t
        y = p.zeta0 @ f_t
        return _check_exceptional_grid(g, x, y)

    if verdict.form == FORM_SPECIAL_III:
        p = verdict.parameters
        if p is None or p.zeta0 is None or p.f is None or p.g is None:
            return CertificateCheck(False, "parameters missing")
        if n != 3:
            return CertificateCheck(False, "representation arity")
        if p.zeta0.is_zero:
            return CertificateCheck(False, "column is zero")
        if not _vectors_independent(p.f, p.g):
            return CertificateCheck(False, "functional independence")
        x = p.zeta0 @ p.g.transpose()
        y = p.zeta0 @ p.f.transpose()
        return _check_exceptional_grid(g, x, y)

    if verdict.form == FORM_DIMV1:
        p = verdict.parameters
        if p is None or p.r is None or not (1 <= p.r <= n):
            return CertificateCheck(False, "parameters missing")
        r = p.r
        for i in range(n):
            for j in range(n):
                if j >= r and not g.block(i, j).is_zero:
                    return CertificateCheck(False, f"right column block ({i}, {j})")
                if j < r and i < r and i >= j and not g.block(i, j).is_zero:
                    return CertificateCheck(False, f"strict corner block ({i}, {j})")
        return CertificateCheck(True)

    return CertificateCheck(False, "form")


def _check_exceptional_grid(g: GramMatrix, x: Matrix, y: Matrix) -> CertificateCheck:
    """Whether the 3 x 3 block grid g is [[0, X, 0], [Y, 0, X], [0, -Y, 0]],
    the shape of both exceptional length-3 forms."""
    z = Matrix.zeros(g.ambient_dim)
    expected = [[z, x, z], [y, z, x], [z, -y, z]]
    for i in range(3):
        for j in range(3):
            if g.block(i, j) != expected[i][j]:
                return CertificateCheck(False, f"gram block ({i}, {j})")
    return CertificateCheck(True)

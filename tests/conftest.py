"""Shared builders for the test suite."""

import sys
from fractions import Fraction

import pytest

from elemop import exact
from elemop.exact import Matrix, basis_vector, zero_vector
from elemop.operators import ElementaryOperator

CRITERION_LINES = []


def record_criterion(line):
    """Collect acceptance one-liners; printed in the terminal summary."""
    CRITERION_LINES.append(line)


@pytest.fixture
def elimination_calls(monkeypatch):
    """The matrix counts of every `exact.independent_subset` call, the one
    elimination, made while the test runs, through whichever elemop module
    binds it."""
    calls = []
    real = exact.independent_subset

    def counting(mats):
        calls.append(len(mats))
        return real(mats)

    for name, module in list(sys.modules.items()):
        if name.startswith("elemop") and getattr(module, "independent_subset", None) is real:
            monkeypatch.setattr(module, "independent_subset", counting)
    return calls


def sympy_matrix(rows):
    """sympy's DomainMatrix of a nonempty list of Scalar rows, over QQ
    when every entry is real and over QQ_I otherwise: a reference whose
    elimination shares no code with elemop's."""
    pytest.importorskip("sympy")
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    rows = [list(row) for row in rows]
    real = all(not e.im for row in rows for e in row)

    def element(e):
        re = QQ(e.re.numerator, e.re.denominator)
        return re if real else QQ_I(re, QQ(e.im.numerator, e.im.denominator))

    return DomainMatrix(
        [[element(e) for e in row] for row in rows], (len(rows), len(rows[0])), QQ if real else QQ_I
    )


def reference_rank(rows):
    """The rank of a list of Scalar rows, 0 for no rows, by plain Gaussian
    elimination on pairs (re, im) of Fractions: a reference that shares no
    code with elemop's elimination and needs no optional package."""
    work = [[(e.re, e.im) for e in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != (0, 0)), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pr, pi = work[rank][col]
        norm = pr * pr + pi * pi
        for i in range(rank + 1, len(work)):
            ar, ai = work[i][col]
            # f = a / p = a * conj(p) / |p|^2
            fr, fi = (ar * pr + ai * pi) / norm, (ai * pr - ar * pi) / norm
            work[i] = [
                (xr - (fr * yr - fi * yi), xi - (fr * yi + fi * yr))
                for (xr, xi), (yr, yi) in zip(work[i], work[rank])
            ]
        rank += 1
    return rank


def pair(e):
    """An int, Fraction or Scalar as its pair (re, im) of Fractions, the
    form in which the references below compute without elemop."""
    if isinstance(e, (int, Fraction)):
        return (Fraction(e), Fraction(0))
    return (e.re, e.im)


def pair_sum(p, q):
    return (p[0] + q[0], p[1] + q[1])


def pair_difference(p, q):
    return (p[0] - q[0], p[1] - q[1])


def pair_product(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def pair_quotient(p, q):
    norm = q[0] * q[0] + q[1] * q[1]
    return ((p[0] * q[0] + p[1] * q[1]) / norm, (p[1] * q[0] - p[0] * q[1]) / norm)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


def unit(d, i, j):
    """Matrix unit, zero-indexed."""
    return Matrix.unit(d, i, j)


def specimen_form_ii():
    """The hand-checked dimension-3 operator whose block grid is
    [[0, E21, 0], [E11, 0, E21], [0, -E11, 0]]."""
    u = [unit(3, 0, 0), unit(3, 1, 0), unit(3, 2, 0)]
    v = [unit(3, 1, 1), unit(3, 0, 0) + unit(3, 1, 2), -1 * unit(3, 0, 1)]
    return ElementaryOperator.from_pairs(3, list(zip(u, v)))


def specimen_form_iii():
    """The hand-checked dimension-4 operator whose block grid is
    [[0, E12, 0], [E11, 0, E12], [0, -E11, 0]]."""
    u = [unit(4, 1, 0), unit(4, 2, 0) + unit(4, 3, 1), unit(4, 1, 1)]
    v = [unit(4, 0, 3), unit(4, 0, 1), -1 * unit(4, 0, 2)]
    return ElementaryOperator.from_pairs(4, list(zip(u, v)))


def single_pair(d, a, b):
    return ElementaryOperator.from_pairs(d, [(a, b)])


def strictly_upper_basis(m):
    """Full basis of the strictly upper triangular m x m matrices."""
    return [unit(m, i, j) for i in range(m) for j in range(i + 1, m)]


def dim_v1_operator(nilpotent_scalar_part=True):
    """Length-2 operator on 4x4 matrices whose coefficient products span a
    line; the scalar coefficient pattern is strictly upper (locally
    nilpotent) or has a diagonal entry (refutable)."""
    d = 4
    eta = basis_vector(d, 0)
    xi1, xi2 = basis_vector(d, 1), basis_vector(d, 2)
    rho = basis_vector(d, 3)
    a1, a2 = xi1 @ eta.transpose(), xi2 @ eta.transpose()
    if nilpotent_scalar_part:
        b1 = Matrix.from_columns(
            [zero_vector(d), zero_vector(d), rho, basis_vector(d, 1)]
        )
    else:
        b1 = Matrix.from_columns(
            [zero_vector(d), rho, zero_vector(d), basis_vector(d, 1)]
        )
    b2 = Matrix.from_columns(
        [zero_vector(d), zero_vector(d), zero_vector(d), basis_vector(d, 2)]
    )
    return ElementaryOperator.from_pairs(d, [(a1, b1), (a2, b2)])

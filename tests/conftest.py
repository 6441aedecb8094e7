"""Shared builders for the test suite."""

import sys

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

"""Operator spaces: reduction, evaluation, local dimension, factorization."""

import ast
import importlib
import inspect
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

from elemop import spaces
from elemop.errors import DomainError, InconsistencyError, RankError, ShapeError
from elemop.exact import (
    Matrix,
    basis_vector,
    derive_seed,
    random_matrix,
    solve,
    vector,
    zero_vector,
)
from elemop.spaces import (
    LocalDimResult,
    evaluate,
    hat_space,
    is_locally_linearly_dependent,
    local_dimension,
    rank_one_factor,
    reduce_basis,
    simultaneous_separating_vector,
)
from conftest import specimen_form_ii, strictly_upper_basis, unit

from elemop.classify import generate
from elemop.operators import left_space, minimal_length, right_space, v_space


def test_reduce_basis_drops_scalar_multiple():
    space = reduce_basis([unit(2, 0, 0), 2 * unit(2, 0, 0)])
    assert space.dim == 1
    assert space.basis[0] == unit(2, 0, 0)


def test_reduce_basis_keeps_earliest_independent():
    space = reduce_basis([unit(2, 0, 0), unit(2, 0, 1), unit(2, 0, 0) + unit(2, 0, 1)])
    assert space.dim == 2
    assert space.basis == (unit(2, 0, 0), unit(2, 0, 1))


def test_reduce_basis_empty_is_zero_space():
    space = reduce_basis([], ambient_dim=3)
    assert space.dim == 0 and space.ambient_dim == 3


def test_reduce_basis_idempotent_and_span_preserving():
    mats = [random_matrix(3, derive_seed(5, s), 4) for s in range(5)]
    mats.append(mats[0] + mats[1])
    space = reduce_basis(mats)
    again = reduce_basis(list(space.basis))
    assert again.basis == space.basis
    # every input is an exact combination of the output basis
    basis_matrix = Matrix.from_columns([_vec(b) for b in space.basis])
    for m in mats:
        assert solve(basis_matrix, _vec(m)) is not None


def _vec(m):
    """vec(m), row-major, as a column."""
    return vector(e for row in m.entries for e in row)


def test_evaluate_examples():
    space = reduce_basis([unit(2, 0, 0), unit(2, 1, 0)])
    images = evaluate(space, basis_vector(2, 0))
    assert len(images) == 2
    row_space = reduce_basis([unit(2, 0, 0), unit(2, 0, 1)])
    for s in range(5):
        zeta = vector([s + 1, 2 * s - 3])
        assert len(evaluate(row_space, zeta)) <= 1
    assert evaluate(space, zero_vector(2)) == []


def test_evaluate_shape_error():
    with pytest.raises(ShapeError):
        evaluate(reduce_basis([unit(2, 0, 0)]), vector([1, 0, 0]))


def test_evaluate_dimension_bound():
    for s in range(20):
        mats = [random_matrix(3, derive_seed(11, 10 * s + k), 4) for k in range(s % 5 + 1)]
        space = reduce_basis(mats)
        zeta = vector([s, 1, s - 2])
        assert len(evaluate(space, zeta)) <= min(space.dim, 3)


def test_local_dimension_row_space_exact():
    space = reduce_basis([unit(2, 0, 0), unit(2, 0, 1)])
    res = local_dimension(space)
    assert res.value == 1


def test_local_dimension_diagonal_witness_all_ones():
    space = reduce_basis([unit(3, 0, 0), unit(3, 1, 1), unit(3, 2, 2)])
    res = local_dimension(space)
    assert res.value == 3
    assert res.witness == vector([1, 1, 1])
    assert len(evaluate(space, res.witness)) == res.value


def test_local_dimension_zero_space():
    res = local_dimension(reduce_basis([], ambient_dim=2))
    assert res.value == 0 and res.witness == zero_vector(2)


def test_local_dimension_witness_reverifies():
    for s in range(10):
        mats = [random_matrix(4, derive_seed(21, 5 * s + k), 3) for k in range(3)]
        space = reduce_basis(mats)
        res = local_dimension(space)
        assert len(evaluate(space, res.witness)) == res.value
        assert res.value <= space.dim


def test_separating_vector_single_space():
    space = reduce_basis([unit(2, 0, 0)])
    zeta = simultaneous_separating_vector([space])
    assert not zeta.entry(0, 0).is_zero


def test_separating_vector_two_diagonal_spaces():
    s1 = reduce_basis([unit(2, 0, 0)])
    s2 = reduce_basis([unit(2, 1, 1)])
    zeta = simultaneous_separating_vector([s1, s2])
    assert zeta == vector([1, 1])


def test_separating_vector_for_specimen_spaces():
    # Derived example: the left space and product space of the exceptional
    # specimen admit a joint witness.
    phi = specimen_form_ii()
    lsp, vsp = left_space(phi), v_space(phi)
    zeta = simultaneous_separating_vector([lsp, vsp])
    assert len(evaluate(lsp, zeta)) == local_dimension(lsp).value
    assert len(evaluate(vsp, zeta)) == local_dimension(vsp).value


def test_an_unattainable_target_exhausts_the_separating_walk(monkeypatch):
    # a true local dimension is attained on Delta(d, sum r_i); a target
    # above it is not, and the exhausted walk is an internal fault
    space = reduce_basis([unit(2, 0, 0)])
    monkeypatch.setattr(spaces, "local_dimension", lambda s: LocalDimResult(2, vector([1, 1])))
    with pytest.raises(InconsistencyError):
        simultaneous_separating_vector([space])


def _counted_image_dim(monkeypatch, value):
    """Replace the rank at a point by a constant, counting the points."""
    visited = []

    def counting(space, zeta):
        visited.append(zeta)
        return value

    monkeypatch.setattr(spaces, "_image_dim", counting)
    return visited


def test_the_lattice_budget_admits_strictly_upper_m8(monkeypatch):
    # lDim = 7 < min(d, dim) = 8, so the walk visits all of Delta(8, 8),
    # each point charged dim * d^2 = 28 * 64; the rank at each point is
    # stubbed, as the full walk takes seconds
    visited = _counted_image_dim(monkeypatch, 7)
    assert local_dimension(reduce_basis(strictly_upper_basis(8))).value == 7
    assert len(visited) == comb(15, 8) == 6435
    assert 6435 * 28 * 8**2 <= spaces.LATTICE_WORK_BUDGET


def test_a_walk_past_the_lattice_budget_raises_at_once(monkeypatch):
    # strictly upper M_9 would walk all C(17, 9) = 24310 points of
    # Delta(9, 9) at 36 * 81 units each; the point that would pass the
    # budget raises before its rank is computed
    visited = _counted_image_dim(monkeypatch, 8)
    cost = 36 * 9**2
    allowed = spaces.LATTICE_WORK_BUDGET // cost
    message = f"local dimension walk .* \\({allowed} points visited, {allowed * cost} units spent\\)"
    with pytest.raises(DomainError, match=message):
        local_dimension(reduce_basis(strictly_upper_basis(9)))
    assert len(visited) == allowed < comb(17, 9)


def test_the_lattice_budget_is_exact_on_a_full_walk(monkeypatch):
    # strictly upper M_4 has lDim 3 < 4: its walk visits all 35 points,
    # at 6 * 16 = 96 units each
    space = reduce_basis(strictly_upper_basis(4))
    monkeypatch.setattr(spaces, "LATTICE_WORK_BUDGET", 35 * 96)
    assert local_dimension(space).value == 3
    monkeypatch.setattr(spaces, "LATTICE_WORK_BUDGET", 35 * 96 - 1)
    message = "local dimension walk of Delta\\(4, 4\\) .* \\(34 points visited, 3264 units spent\\)"
    with pytest.raises(DomainError, match=message):
        local_dimension(space)


def test_the_lattice_budget_counts_visited_points_not_the_lattice(monkeypatch):
    # both walks succeed at their first point, of 20-point lattices, so a
    # budget of one point's 3 * 16 units admits them
    space = reduce_basis([unit(4, 0, 0), unit(4, 1, 0), unit(4, 2, 0)])
    monkeypatch.setattr(spaces, "LATTICE_WORK_BUDGET", 3 * 16)
    assert local_dimension(space).value == 3
    assert simultaneous_separating_vector([space]) == vector([3, 0, 0, 0])


def test_the_separating_walk_names_its_stage_past_the_budget(monkeypatch):
    # (1, 1), point 2 of Delta(2, 2), is the first to separate both lines;
    # each point is charged (1 + 1) * 4 units for the two spaces
    s1, s2 = reduce_basis([unit(2, 0, 0)]), reduce_basis([unit(2, 0, 1)])
    assert simultaneous_separating_vector([s1, s2]) == vector([1, 1])
    monkeypatch.setattr(spaces, "LATTICE_WORK_BUDGET", 8)
    monkeypatch.setattr(spaces, "local_dimension", lambda s: LocalDimResult(1, vector([1, 1])))
    message = "separating vector walk of Delta\\(2, 2\\) .* \\(1 points visited, 8 units spent\\)"
    with pytest.raises(DomainError, match=message):
        simultaneous_separating_vector([s1, s2])


def test_strictly_upper_m32_is_refused_within_seconds():
    # one point of this walk costs about 0.3 s at z = 32 e_32; a budget
    # of points would let it run minutes before it refused, while the
    # budget in units stops it after 23 points of 496 * 32^2 units each
    basis = tuple(strictly_upper_basis(32))
    space = spaces.OperatorSpace(32, basis)  # independent matrix units
    start = perf_counter()
    with pytest.raises(DomainError, match="\\(23 points visited, 11681792 units spent\\)"):
        local_dimension(space)
    assert perf_counter() - start < 30


def test_locally_linearly_dependent_examples():
    assert is_locally_linearly_dependent(reduce_basis([unit(2, 0, 0), unit(2, 0, 1)]))
    assert not is_locally_linearly_dependent(reduce_basis([unit(2, 0, 0), unit(2, 1, 1)]))
    assert not is_locally_linearly_dependent(reduce_basis([Matrix.identity(2)]))


def test_rank_one_factor_matrix_unit():
    factored = rank_one_factor(unit(3, 1, 2))
    assert factored.column == basis_vector(3, 1)
    assert factored.functional == basis_vector(3, 2)


def test_rank_one_factor_derived_example():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    factored = rank_one_factor(m)
    assert factored.column == vector([2, 1])
    assert factored.functional == vector([1, 2])
    assert factored.column @ factored.functional.transpose() == m
    assert factored.reconstruct() == m


def test_rank_one_factor_rejects_other_ranks():
    with pytest.raises(RankError) as err:
        rank_one_factor(Matrix.identity(2))
    assert err.value.actual_rank == 2
    with pytest.raises(RankError):
        rank_one_factor(Matrix.zeros(2))


def test_rank_one_factor_names_the_rank_only_when_it_is_not_one(monkeypatch):
    # The reconstruction decides rank one, so `rank` runs only to fill in
    # the RankError of a matrix of another rank.
    asked = []
    real = spaces.rank
    monkeypatch.setattr(spaces, "rank", lambda m: asked.append(m) or real(m))
    rank_one_factor(Matrix.from_rows([[2, 4], [1, 2]]))
    rank_one_factor(unit(3, 1, 2))
    assert asked == []
    cases = [
        (Matrix.zeros(3), 0),
        (Matrix.identity(2), 2),
        (unit(3, 0, 0) + unit(3, 1, 2), 2),
        (Matrix.from_rows([[1, 2, 3], [0, 1, 4], [5, 6, 0]]), 3),
    ]
    for m, actual in cases:
        with pytest.raises(RankError) as err:
            rank_one_factor(m)
        assert err.value.actual_rank == actual


def test_rank_one_normalization_canonical():
    for s in range(10):
        col = vector([s + 1, 2 * s + 1, 3])
        fun = vector([0, s + 2, 5])
        factored = rank_one_factor(col @ fun.transpose())
        entries = [c for (c,) in factored.functional.entries]
        first = next(c for c in entries if not c.is_zero)
        assert first == entries[1] or not entries[1].is_zero


def test_hat_space_examples():
    space = reduce_basis([unit(2, 0, 0), unit(2, 0, 1)])
    probes = [basis_vector(2, 0), basis_vector(2, 1)]
    check = hat_space(space, probes)
    assert check.max_rank == 1 and check.local_dim == 1
    zero = reduce_basis([], ambient_dim=2)
    assert hat_space(zero, probes).max_rank == 0
    diag = reduce_basis([unit(3, 0, 0), unit(3, 1, 1), unit(3, 2, 2)])
    check = hat_space(diag, [vector([1, 1, 1])])
    assert check.max_rank == 3 and check.local_dim == 3


def test_hat_space_raises_on_a_probe_above_the_local_dimension(monkeypatch):
    space = reduce_basis([unit(2, 0, 0)])
    monkeypatch.setattr(spaces, "local_dimension", lambda s: LocalDimResult(0, zero_vector(2)))
    with pytest.raises(InconsistencyError):
        hat_space(space, [basis_vector(2, 0)])


def test_hat_space_rank_bound_property():
    for s in range(15):
        mats = [random_matrix(2, derive_seed(31, 3 * s + k), 3) for k in range(2)]
        space = reduce_basis(mats)
        probes = [vector([s + 1, s - 1]), vector([1, 0]), vector([0, 1])]
        check = hat_space(space, probes)
        assert check.max_rank <= check.local_dim == local_dimension(space).value



# -- local dimension against sympy's symbolic rank -------------------------


def _sympy_local_dimension(space):
    """The rank of [T_1 z ... T_k z] over the field of rational functions
    in the symbols z_1..z_d: the local dimension, with no lattice."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    d = space.ambient_dim
    z = sympy.symbols(f"z0:{d}")

    def entry(e):
        return sympy.Rational(str(e.re)) + sympy.I * sympy.Rational(str(e.im))

    columns = [
        [sum(entry(t.entry(i, j)) * z[j] for j in range(d)) for i in range(d)]
        for t in space.basis
    ]
    if not columns:
        return 0
    rows = [list(row) for row in zip(*columns)]
    return DomainMatrix.from_list_sympy(d, len(columns), rows).to_field().rank()


def _spaces_up_to_d4():
    """Named spaces at d <= 4, among them spaces with lDim < dim: the V of
    iii, strictly upper M_4, and the locally linearly dependent R of ii."""
    named = [
        ("row space", reduce_basis([unit(2, 0, 0), unit(2, 0, 1)])),
        ("diagonal", reduce_basis([unit(3, 0, 0), unit(3, 1, 1), unit(3, 2, 2)])),
        ("strictly upper M_3", reduce_basis(strictly_upper_basis(3))),
        ("strictly upper M_4", reduce_basis(strictly_upper_basis(4))),
        ("zero", reduce_basis([], ambient_dim=3)),
    ]
    for form, d in [("ii", 3), ("iii", 4), ("i", 4), ("remark45", 4), ("random", 3)]:
        _, reduced = minimal_length(generate(form, 3, d, seed=1))
        for label, of in [("L", left_space), ("R", right_space), ("V", v_space)]:
            named.append((f"{label} of {form} at d={d}", of(reduced)))
    return named


SYMBOLIC_CASES = _spaces_up_to_d4()


@pytest.mark.parametrize("name, space", SYMBOLIC_CASES, ids=[name for name, _ in SYMBOLIC_CASES])
def test_local_dimension_matches_the_symbolic_rank(name, space):
    res = local_dimension(space)
    assert res.value == _sympy_local_dimension(space)
    assert len(evaluate(space, res.witness)) == res.value


def test_the_symbolic_cases_include_locally_dependent_spaces():
    short = {name for name, space in SYMBOLIC_CASES if local_dimension(space).value < space.dim}
    assert {"V of iii at d=4", "strictly upper M_4", "R of ii at d=3"} <= short
    assert is_locally_linearly_dependent(right_space(minimal_length(generate("ii", 3, 3, seed=1))[1]))


# -- guards on the removed sampling ----------------------------------------


def test_no_public_function_of_spaces_takes_a_seed_or_trials():
    public = [
        f for name, f in inspect.getmembers(spaces, inspect.isfunction)
        if not name.startswith("_") and f.__module__ == spaces.__name__
    ]
    assert spaces.local_dimension in public
    for f in public:
        assert not {"seed", "trials"} & set(inspect.signature(f).parameters), f.__name__


@pytest.mark.parametrize("module", ["elemop.spaces", "elemop.classify"])
def test_spaces_and_classify_do_not_import_itertools_product(module):
    tree = ast.parse(Path(importlib.import_module(module).__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            assert "product" not in {alias.name for alias in node.names}
        if isinstance(node, ast.Import):
            assert "itertools" not in {alias.name for alias in node.names}

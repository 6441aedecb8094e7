"""Operator spaces: reduction, evaluation, local dimension, factorization."""

import pytest

from elemop.errors import RankError, SeparatingVectorError, ShapeError
from elemop.exact import (
    Matrix,
    basis_vector,
    derive_seed,
    random_matrix,
    random_vector,
    solve,
    vector,
    zero_vector,
)
from elemop.spaces import (
    evaluate,
    hat_space,
    is_locally_linearly_dependent,
    local_dimension,
    rank_one_factor,
    reduce_basis,
    simultaneous_separating_vector,
)
from conftest import specimen_form_ii, unit

from elemop.operators import left_space, v_space


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
    # d^2 * dim = 8 <= 16, exact enumeration applies
    space = reduce_basis([unit(2, 0, 0), unit(2, 0, 1)])
    res = local_dimension(space)
    assert res.value == 1 and res.exact


def test_local_dimension_diagonal_witness_all_ones():
    space = reduce_basis([unit(3, 0, 0), unit(3, 1, 1), unit(3, 2, 2)])
    res = local_dimension(space, seed=4)
    assert res.value == 3
    assert res.witness == vector([1, 1, 1])
    assert len(evaluate(space, res.witness)) == res.value


def test_local_dimension_zero_space():
    res = local_dimension(reduce_basis([], ambient_dim=2))
    assert res.value == 0 and res.exact


def test_local_dimension_witness_reverifies():
    for s in range(10):
        mats = [random_matrix(4, derive_seed(21, 5 * s + k), 3) for k in range(3)]
        space = reduce_basis(mats)
        res = local_dimension(space, seed=s)
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
    # specimen admit a joint witness within 10 trials at seed 7.
    phi = specimen_form_ii()
    lsp, vsp = left_space(phi), v_space(phi)
    zeta = simultaneous_separating_vector([lsp, vsp], seed=7, trials=10)
    assert len(evaluate(lsp, zeta)) == local_dimension(lsp, seed=7).value
    assert len(evaluate(vsp, zeta)) == local_dimension(vsp, seed=7).value


def test_separating_vector_exhaustion_reports_evidence():
    # dim V zeta is 0 at the zero vector only; an impossible target comes
    # from demanding a witness for two spaces with colliding constraints
    # under a tiny trial budget of deliberately bad candidates.
    space = reduce_basis([unit(2, 0, 0)])
    with pytest.raises(SeparatingVectorError) as err:
        # trials=0 exhausts immediately
        simultaneous_separating_vector([space], trials=0)
    assert err.value.trials == 0


def test_sampled_candidates_are_all_ones_then_salted_seeds():
    # both samplers try the all-ones column first; a space that kills it
    # shows the next draw: salt 0 for the local dimension, 7000 for the
    # separating vector
    killed = Matrix.from_rows([[1, -1, 0], [0, 0, 0], [0, 0, 0]])
    space = reduce_basis([killed, Matrix.from_rows([[0, 0, 0], [1, -1, 0], [0, 0, 0]])])
    res = local_dimension(space, seed=3)
    assert not res.exact and res.value == 2 and res.trials_used == 2
    assert res.witness == random_vector(3, derive_seed(3, 1), 100)
    line = reduce_basis([killed])
    zeta = simultaneous_separating_vector([line], seed=3)
    assert zeta == random_vector(3, derive_seed(3, 7_001), 100)


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
    assert check.within_bound and check.max_rank == 1
    zero = reduce_basis([], ambient_dim=2)
    assert hat_space(zero, probes).max_rank == 0
    diag = reduce_basis([unit(3, 0, 0), unit(3, 1, 1), unit(3, 2, 2)])
    check = hat_space(diag, [vector([1, 1, 1])])
    assert check.max_rank == 3 and check.within_bound


def test_hat_space_rank_bound_property():
    for s in range(15):
        mats = [random_matrix(2, derive_seed(31, 3 * s + k), 3) for k in range(2)]
        space = reduce_basis(mats)
        probes = [vector([s + 1, s - 1]), vector([1, 0]), vector([0, 1])]
        check = hat_space(space, probes)
        assert check.within_bound  # local dim exact at this size


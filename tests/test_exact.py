"""Exact arithmetic layer: scalars, matrices, polynomials, sampling."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemop.errors import DomainError, ShapeError
from elemop.exact import (
    Matrix,
    ONE,
    Polynomial,
    Scalar,
    ZERO,
    char_poly,
    distinct_eigenvalue_count,
    derive_seed,
    independent_subset,
    inverse,
    kernel_basis,
    lambda_power,
    poly_gcd,
    poly_mod,
    poly_mul,
    random_invertible,
    random_matrix,
    random_scalar,
    random_vector,
    rank,
    rref,
    solve,
    solve_vec,
    trace,
    vec_add,
    vec_scale,
    vector,
    zero_vector,
)
from conftest import unit, strictly_upper_basis


def test_scalar_reduction_and_exactness():
    s = Scalar(Fraction(2, 4), Fraction(-6, 9))
    assert s.re == Fraction(1, 2) and s.im == Fraction(-2, 3)
    assert s.re.denominator > 0
    t = s * s / s
    assert t == s


def test_scalar_rejects_floats():
    with pytest.raises(DomainError):
        Scalar(0.5)


def test_scalar_division_by_zero():
    with pytest.raises(DomainError):
        ONE / ZERO


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)
scalars = st.builds(Scalar, small_fractions, small_fractions)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_scalar_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    if not b.is_zero:
        assert (a / b) * b == a


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        Matrix.identity(2) + Matrix.identity(3)
    with pytest.raises(ShapeError):
        Matrix.identity(2) @ Matrix.identity(3)
    with pytest.raises(ShapeError):
        trace(Matrix.zeros(2, 3))
    with pytest.raises(ShapeError):
        char_poly(Matrix.zeros(2, 3))


# -- characteristic polynomials -----------------------------------------


def test_char_poly_nilpotent_jordan_block():
    m = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert char_poly(m) == lambda_power(3)


def test_char_poly_identity_two():
    # (t - 1)^2 = 1 - 2t + t^2
    assert char_poly(Matrix.identity(2)) == Polynomial.of([1, -2, 1])


def test_char_poly_cube_zero_matrix():
    # Oracle: the cube vanishes by direct multiplication, so the
    # characteristic polynomial must be t^3.
    m = Matrix.from_rows([[0, 1, 0], [1, 0, 1], [0, -1, 0]])
    assert (m @ m @ m).is_zero
    assert char_poly(m) == lambda_power(3)


def test_char_poly_similarity_invariant():
    for s in range(12):
        m = random_matrix(4, derive_seed(900, s), 6)
        p = random_invertible(4, derive_seed(901, s), 5)
        assert char_poly(inverse(p) @ m @ p) == char_poly(m)


# -- kernels and rank ----------------------------------------------------


def test_kernel_zero_matrix_is_standard_basis():
    basis = kernel_basis(Matrix.zeros(3))
    expected = [vector([1, 0, 0]), vector([0, 1, 0]), vector([0, 0, 1])]
    assert basis == expected


def test_kernel_matrix_unit():
    assert kernel_basis(unit(2, 0, 1)) == [vector([1, 0])]


def test_kernel_rank_one_all_ones():
    # Oracle: solving x + y = 0 by hand gives the line through (1, -1).
    m = Matrix.from_rows([[1, 1], [1, 1]])
    assert kernel_basis(m) == [vector([1, -1])]
    assert (m @ vector([1, -1])) == vector([0, 0])


def test_rank_examples():
    assert rank(unit(2, 0, 1)) == 1
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix.zeros(2)) == 0


def test_rank_nullity_on_seeded_matrices():
    for s in range(200):
        d = 2 + s % 4
        m = random_matrix(d, derive_seed(50, s), 8)
        assert rank(m) + len(kernel_basis(m)) == m.cols


def test_solve_round_trip():
    a = random_matrix(3, 7, 5)
    x = random_matrix(3, 8, 5)
    b = a @ x
    found = solve(a, b)
    assert found is not None and a @ found == b


def _incremental_subset(vectors):
    """Reference: grow the kept set one rref at a time, then solve for
    the coordinates of every dropped vector."""
    kept = []
    for idx, v in enumerate(vectors):
        if len(rref([vectors[i] for i in kept] + [v])[0]) == len(kept) + 1:
            kept.append(idx)
    coords = {}
    for idx, v in enumerate(vectors):
        if idx in kept:
            continue
        if not kept:
            coords[idx] = ()
            continue
        coords[idx] = solve_vec(Matrix.from_columns([vectors[i] for i in kept]), v)
    return kept, coords


def _mixed_vectors(seed):
    """Seeded Gaussian-rational vectors with zero, repeated and dependent
    members mixed in."""
    rng = random.Random(seed)
    length = rng.randint(1, 6)
    vectors = [
        random_vector(length, derive_seed(seed, i), 5) for i in range(rng.randint(0, 4))
    ]
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(["zero", "repeat", "combination"])
        if kind == "zero" or not vectors:
            extra = zero_vector(length)
        elif kind == "repeat":
            extra = rng.choice(vectors)
        else:
            extra = zero_vector(length)
            for v in rng.sample(vectors, rng.randint(1, len(vectors))):
                extra = vec_add(extra, vec_scale(random_scalar(rng, 4), v))
        vectors.insert(rng.randint(0, len(vectors)), extra)
    return vectors


def test_independent_subset_matches_incremental_reference():
    assert independent_subset([]) == ([], {})
    for seed in range(120):
        vectors = _mixed_vectors(derive_seed(90, seed))
        kept, coords = independent_subset(vectors)
        assert (kept, coords) == _incremental_subset(vectors)
        for idx, c in coords.items():
            total = zero_vector(len(vectors[idx]))
            for pos, k in enumerate(kept):
                total = vec_add(total, vec_scale(c[pos], vectors[k]))
            assert total == vectors[idx]


def test_independent_subset_rejects_ragged_vectors():
    with pytest.raises(ShapeError):
        independent_subset([vector([1, 2]), vector([1])])


# -- nilpotency characterization -----------------------------------------


def test_nilpotent_iff_char_poly_power():
    for s in range(25):
        d = 3 + s % 2
        upper = Matrix.zeros(d)
        for k, b in enumerate(strictly_upper_basis(d)):
            coeff = Scalar(Fraction((s + k) % 5 - 2))
            upper = upper + coeff * b
        p = random_invertible(d, derive_seed(60, s), 5)
        conj = inverse(p) @ upper @ p
        assert char_poly(conj) == lambda_power(d)
        assert conj.power(d).is_zero
    # converse: a matrix whose char poly is t^d must be nilpotent
    for s in range(25):
        d = 3
        m = random_matrix(d, derive_seed(61, s), 4)
        if char_poly(m) == lambda_power(d):  # pragma: no cover - generic
            assert m.power(d).is_zero
        else:
            assert not m.power(d).is_zero


def test_distinct_root_count_examples():
    assert distinct_eigenvalue_count(lambda_power(3)) == 1
    assert distinct_eigenvalue_count(Polynomial.of([1, -2, 1])) == 1
    # Oracle: p = t^2 (t - 1); gcd(p, p') = t, so 3 - 1 = 2 distinct roots.
    p = poly_mul(Polynomial.of([0, 0, 1]), Polynomial.of([-1, 1]))
    g = poly_gcd(p, p.derivative())
    assert g == Polynomial.of([0, 1])
    assert distinct_eigenvalue_count(p) == 2


def test_distinct_root_count_detects_nilpotency():
    for s in range(20):
        m = random_matrix(3, derive_seed(70, s), 5)
        p = char_poly(m)
        only_zero_root = distinct_eigenvalue_count(p) == 1 and p.coefficients[0].is_zero
        assert only_zero_root == (p == lambda_power(3))


def test_distinct_root_count_rejects_zero_polynomial():
    with pytest.raises(DomainError):
        distinct_eigenvalue_count(Polynomial(()))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=5),
       st.lists(st.integers(-3, 3), min_size=1, max_size=5))
def test_poly_gcd_divides_both(ca, cb):
    p, q = Polynomial.of(ca), Polynomial.of(cb)
    g = poly_gcd(p, q)
    if g.is_zero:
        assert p.is_zero and q.is_zero
    else:
        assert poly_mod(p, g).is_zero and poly_mod(q, g).is_zero


# -- trace and sampling ---------------------------------------------------


def test_trace_identity():
    assert trace(Matrix.identity(3)) == Scalar(3)


def test_random_matrix_determinism_and_bounds():
    a = random_matrix(2, 42, 10)
    b = random_matrix(2, 42, 10)
    assert a == b
    for row in a.entries:
        for s in row:
            assert abs(s.re.numerator) <= 10 and s.re.denominator <= 10
            assert s.im == 0


def test_random_matrix_zero_height_rejected():
    with pytest.raises(DomainError):
        random_matrix(2, 1, 0)

"""Exact arithmetic layer: scalars, matrices, polynomials, sampling."""

import random
from fractions import Fraction
from itertools import chain, combinations_with_replacement, product
from math import comb, gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemop import exact
from elemop.errors import DomainError, ShapeError
from elemop.exact import (
    Matrix,
    ONE,
    Polynomial,
    Scalar,
    ZERO,
    _char_coefficients,
    char_poly,
    coefficient_tensor_is_zero,
    derive_seed,
    divide_by_entry,
    fraction_text,
    gaussian_int_matmul,
    grid_columns,
    int_matmul,
    independent_subset,
    inverse,
    is_nilpotent_matrix,
    kernel_basis,
    lambda_power,
    linear_combination,
    linear_combinations,
    random_invertible,
    random_matrix,
    random_scalar,
    random_vector,
    rank,
    ratio,
    rref,
    simplex_points,
    solve,
    trace,
    vector,
    zero_vector,
)
from elemop.serialize import matrix_from_json, matrix_to_json
from conftest import (
    pair,
    pair_product,
    pair_quotient,
    pair_sum,
    reference_rank,
    strictly_upper_basis,
    sympy_matrix,
    unit,
)


def test_scalar_reduction_and_exactness():
    s = Scalar(Fraction(2, 4), Fraction(-6, 9))
    assert s.re == Fraction(1, 2) and s.im == Fraction(-2, 3)
    assert s.re.denominator > 0
    assert Matrix.from_rows([[s]]).entry(0, 0) == s


def test_scalar_rejects_floats():
    with pytest.raises(DomainError):
        Scalar(0.5)


def test_scalar_division_by_zero():
    with pytest.raises(DomainError):
        divide_by_entry(Matrix.identity(1), Matrix.zeros(1), 0, 0)


def test_oversized_numbers_are_a_domain_error_in_every_printer():
    # 5000 digits pass the interpreter's 4300-digit limit for int -> str
    big = 10**4999 + 1
    for printed in (
        lambda: fraction_text(big, 3),
        lambda: fraction_text(-big, 1),
        lambda: str(Scalar(1, Fraction(1, big))),
        lambda: str(Polynomial.of([0, big])),
        lambda: Matrix.from_rows([[1, big]]).to_text(),
        lambda: repr(Matrix.from_rows([[(0, big)]])),
    ):
        with pytest.raises(DomainError, match="digits"):
            printed()
    assert fraction_text(-(10**4299), 10**4299 + 1) == str(Fraction(-(10**4299), 10**4299 + 1))


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)
scalars = st.builds(Scalar, small_fractions, small_fractions)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_scalar_field_axioms(a, b, c):
    """The field axioms as the grids compute them: scalars as 1 x 1
    matrices, products by @ and quotients by divide_by_entry."""
    a, b, c = (Matrix.from_rows([[x]]) for x in (a, b, c))
    assert (a + b) @ c == a @ c + b @ c
    assert (a @ b) @ c == a @ (b @ c)
    assert a + b == b + a
    if not b.is_zero:
        assert divide_by_entry(a, b, 0, 0) @ b == a


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        Matrix.identity(2) + Matrix.identity(3)
    with pytest.raises(ShapeError):
        Matrix.identity(2) @ Matrix.identity(3)
    with pytest.raises(ShapeError):
        trace(Matrix.zeros(2, 3))
    with pytest.raises(ShapeError):
        char_poly(Matrix.zeros(2, 3))
    for ragged in ([[1, 2], [1]], [[1], [1, 2]]):
        with pytest.raises(ShapeError):
            Matrix.from_columns([vector(c) for c in ragged])
        with pytest.raises(ShapeError):
            Matrix.from_rows(ragged)
    with pytest.raises(ShapeError):
        Matrix.from_columns([Matrix.identity(2)])


def test_vectors_are_columns_and_tuples_do_not_multiply():
    v = vector([1, "1/2"])
    assert (v.rows, v.cols) == (2, 1)
    assert Matrix.from_rows([[1, 2], [3, 4]]) @ v == vector([2, 5])
    assert Matrix.from_columns([v, 2 * v]) == Matrix.from_rows([[1, 2], ["1/2", 1]])
    with pytest.raises(TypeError):
        Matrix.identity(2) @ (ONE, ZERO)


entry_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
gaussian_rows = st.integers(1, 4).flatmap(
    lambda cols: st.lists(
        st.lists(st.builds(Scalar, entry_fractions, entry_fractions), min_size=cols, max_size=cols),
        min_size=1,
        max_size=4,
    )
)


@settings(max_examples=80, deadline=None)
@given(gaussian_rows, gaussian_rows)
def test_matrix_storage_is_canonical(rows, other_rows):
    m = Matrix.from_rows(rows)
    assert m.entries == tuple(map(tuple, rows))
    assert m.den >= 1 and gcd(m.den, *chain(*m.re), *chain(*m.im)) == 1
    # one value reached by different routes: equal fields, equal hash
    for route in (
        (2 * m) * Scalar(Fraction(1, 2)),
        m @ Matrix.identity(m.cols),
        matrix_from_json(matrix_to_json(m), "m"),
    ):
        assert route == m and hash(route) == hash(m)
    other = Matrix.from_rows(other_rows)
    assert (other == m) == (other.entries == m.entries)
    bumped = [list(row) for row in rows]
    bumped[-1][-1] = pair_sum(pair(bumped[-1][-1]), (Fraction(0), Fraction(1, 7)))
    assert Matrix.from_rows(bumped) != m
    zero = m - m
    assert zero.is_zero and zero.den == 1 and zero == Matrix.zeros(m.rows, m.cols)


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


def _gaussian_matrix(rows, cols, seed, height=9, max_den=6):
    """Seeded Gaussian-rational matrix, denominators up to max_den."""
    rng = random.Random(seed)
    return Matrix.from_rows(tuple(
        tuple(
            Scalar(
                Fraction(rng.randint(-height, height), rng.randint(1, max_den)),
                Fraction(rng.randint(-height, height), rng.randint(1, max_den)),
            )
            for _ in range(cols)
        )
        for _ in range(rows)
    ))


def test_char_poly_matches_sympy_on_gaussian_rationals():
    sympy = pytest.importorskip("sympy")

    def to_sympy(c):
        return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator
        )

    t = sympy.Symbol("t")
    for d in range(1, 6):
        for s in range(3):
            m = _gaussian_matrix(d, d, derive_seed(940 + d, s))
            expected = sympy.Matrix([[to_sympy(c) for c in row] for row in m.entries]).charpoly(t)
            ours = [to_sympy(c) for c in reversed(char_poly(m).coefficients)]
            assert len(ours) == d + 1
            assert all(sympy.expand(a - b) == 0 for a, b in zip(ours, expected.all_coeffs()))


def _conjugated_strictly_upper(d, seed):
    """(P^-1 U P, P^-1, U, P) with U strictly upper and P, U Gaussian
    rationals; the factors build perturbations in the same basis."""
    for attempt in range(32):
        p = _gaussian_matrix(d, d, derive_seed(seed, attempt), height=4, max_den=3)
        if rank(p) == d:
            break
    u = _gaussian_matrix(d, d, derive_seed(seed, 99), height=5, max_den=4)
    u = Matrix.from_rows(tuple(
        tuple(c if j > i else ZERO for j, c in enumerate(row)) for i, row in enumerate(u.entries)
    ))
    p_inv = inverse(p)
    return p_inv @ u @ p, p_inv, u, p


def test_is_nilpotent_matrix_agrees_with_char_poly():
    seen = {True: 0, False: 0}
    for s in range(24):
        d = 1 + s % 6
        nil, p_inv, u, p = _conjugated_strictly_upper(d, derive_seed(950, s))
        c = Scalar(Fraction(s % 5 + 1, 3), Fraction(s % 3 - 1, 2))
        shifted = nil + c * Matrix.identity(d)
        # a nonzero corner closes the superdiagonal chain into a cycle
        cyclic = p_inv @ (u + c * Matrix.unit(d, d - 1, 0)) @ p if d > 1 else shifted
        for m, nilpotent in ((nil, True), (shifted, False), (cyclic, None)):
            verdict = is_nilpotent_matrix(m)
            assert verdict == (char_poly(m) == lambda_power(d))
            if nilpotent is not None:
                assert verdict is nilpotent
            seen[verdict] += 1
    assert seen[True] >= 24 and seen[False] >= 24
    # last powers with a zero real part: [i], and (1+i)^2 = 2i
    i = Scalar(0, 1)
    for m in (Matrix.diagonal([i]), Matrix.diagonal([(1, 1), 0])):
        assert not is_nilpotent_matrix(m)
        assert char_poly(m) != lambda_power(m.rows)


def test_nilpotency_and_char_poly_build_few_scalars(monkeypatch):
    built = []
    post_init = Scalar.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    for d in (2, 5):
        nil, _, _, _ = _conjugated_strictly_upper(d, derive_seed(960, d))
        for m in (nil, nil + Matrix.identity(d)):
            monkeypatch.setattr(Scalar, "__post_init__", counting)
            built.clear()
            is_nilpotent_matrix(m)
            assert built == []
            char_poly(m)
            assert len(built) <= d + 1
            monkeypatch.setattr(Scalar, "__post_init__", post_init)


@st.composite
def square_gaussian_matrices(draw):
    """(m, made_singular): a d x d Gaussian-rational matrix for d <= 6.
    Half of them are made singular, by a repeated row or as a product
    with a factor of rank below d; the others are drawn as they come."""
    d = draw(st.integers(1, 6))
    entries = st.builds(Scalar, entry_fractions, entry_fractions)

    def rows(count, cols):
        return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(count)]

    drawn = rows(d, d)
    made_singular = draw(st.booleans())
    if made_singular and d > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(d)))[:2]
        drawn[j] = drawn[i]
    elif made_singular:
        r = draw(st.integers(0, d - 1))
        factor = Matrix.from_rows(rows(d, r)) @ Matrix.from_rows(rows(r, d)) if r else Matrix.zeros(d)
        return Matrix.from_rows(drawn) @ factor, True
    return Matrix.from_rows(drawn), made_singular


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(square_gaussian_matrices())
def test_last_char_coefficient_decides_invertibility(case):
    sympy = pytest.importorskip("sympy")
    m, made_singular = case
    d = m.rows
    c_re, c_im = _char_coefficients(m)[-1]
    invertible = bool(c_re or c_im)
    assert invertible == (rank(m) == d)
    det = sympy.expand(sympy.Matrix([
        [sympy.Rational(str(e.re)) + sympy.I * sympy.Rational(str(e.im)) for e in row]
        for row in m.entries
    ]).det())
    assert invertible == (det != 0)
    # c_d = (-1)^d det(den*m), exactly
    assert sympy.expand(c_re + sympy.I * c_im - (-1) ** d * m.den**d * det) == 0
    if made_singular:
        assert not invertible


def test_invertibility_test_eliminates_nothing_and_builds_no_scalar(monkeypatch):
    built = []
    post_init = Scalar.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    for d in (1, 4, 7):
        m = _gaussian_matrix(d, d, derive_seed(970, d))
        monkeypatch.setattr(Scalar, "__post_init__", counting)
        assert any(_char_coefficients(m)[-1])
        monkeypatch.setattr(Scalar, "__post_init__", post_init)
    assert built == []

    def forbidden(*args):
        raise AssertionError("random_invertible eliminated")

    monkeypatch.setattr(exact, "independent_subset", forbidden)
    monkeypatch.setattr(exact, "rref", forbidden)
    drawn = [random_invertible(d, derive_seed(971, d), 1) for d in (1, 4, 7)]
    monkeypatch.undo()
    assert [rank(m) for m in drawn] == [1, 4, 7]


# -- the Gaussian-integer product kernel -----------------------------------


def _naive_product(a_re, a_im, b_re, b_im):
    rows, inner, cols = len(a_re), len(b_re), len(b_re[0])
    out_re = [[0] * cols for _ in range(rows)]
    out_im = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            for t in range(inner):
                x, y, u, v = a_re[i][t], a_im[i][t], b_re[t][j], b_im[t][j]
                out_re[i][j] += x * u - y * v
                out_im[i][j] += x * v + y * u
    return out_re, out_im


def _columns(grid):
    """A row grid's columns, the form the kernels take their right factor in."""
    return [list(c) for c in zip(*grid)]


def _int_grids(rows, cols, kind, rng, height):
    """(re, im) integer grids; kind is "real", "complex" or "mixed"
    (every other row has a zero imaginary part)."""
    re = [[rng.randint(-height, height) for _ in range(cols)] for _ in range(rows)]
    im = [
        [0 if kind == "real" or (kind == "mixed" and r % 2) else rng.randint(-height, height)
         for _ in range(cols)]
        for r in range(rows)
    ]
    return re, im


# Real products with at least 9 entries take the kernel's dot products,
# everything else its fused loop; both run on these shapes.
KERNEL_SHAPES = [
    (1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 2, 5),
    (3, 6, 3),  # m x mc by mc x m, as the expansion stacks two factors
    (4, 12, 4),  # three factors
    (1, 9, 1),  # vec(S) by vec(N^T), the expansion's last level
    (1, 32, 1),
]
KINDS = ["real", "complex", "mixed"]


@pytest.mark.parametrize("a_kind", KINDS)
@pytest.mark.parametrize("b_kind", KINDS)
def test_gaussian_int_matmul_matches_naive_product(a_kind, b_kind):
    rng = random.Random(f"{a_kind}-{b_kind}")
    for rows, inner, cols in KERNEL_SHAPES:
        for height in (3, 10**30):
            a = _int_grids(rows, inner, a_kind, rng, height)
            b = _int_grids(inner, cols, b_kind, rng, height)
            b_cols = [_columns(g) for g in b]
            before = repr((a, b_cols))
            out = gaussian_int_matmul(*a, *b_cols)
            assert out == _naive_product(*a, *b)
            assert repr((a, b_cols)) == before  # the inputs are only read
            # fresh output rows, never an input's
            ids = {id(row) for grid in (*a, *b_cols) for row in grid}
            assert not any(id(row) in ids for grid in out for row in grid)


def test_int_matmul_matches_naive_product():
    rng = random.Random("int_matmul")
    for rows, inner, cols in KERNEL_SHAPES:
        for height in (3, 10**30):
            a = _int_grids(rows, inner, "real", rng, height)[0]
            b = _int_grids(inner, cols, "real", rng, height)[0]
            zero_a = [[0] * inner for _ in range(rows)]
            zero_b = [[0] * cols for _ in range(inner)]
            b_cols = _columns(b)
            before = repr((a, b_cols))
            out = int_matmul(a, b_cols)
            assert out == _naive_product(a, zero_a, b, zero_b)[0]
            assert repr((a, b_cols)) == before  # the inputs are only read
            ids = {id(row) for grid in (a, b_cols) for row in grid}
            assert not any(id(row) in ids for row in out)


def test_gaussian_int_matmul_zero_and_unit_sides():
    zero = ([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    m = ([[1, -2], [3, 4]], [[0, 5], [-6, 0]])
    assert gaussian_int_matmul(*zero, *map(_columns, m)) == zero
    assert gaussian_int_matmul(*m, *map(_columns, zero)) == zero
    i_unit = ([[0, 0], [0, 0]], [[1, 0], [0, 1]])
    # i * (re + i im) = -im + i re
    assert gaussian_int_matmul(*i_unit, *map(_columns, m)) == (
        [[0, -5], [6, 0]],
        [[1, -2], [3, 4]],
    )


@pytest.mark.parametrize("a_kind", KINDS)
def test_real_right_factor_needs_no_imaginary_columns(a_kind):
    # grid_columns gives None for a real matrix, and the kernel reads it
    # as all-zero columns on both of its branches
    rng = random.Random(f"real-right-{a_kind}")
    for rows, inner, cols in KERNEL_SHAPES:
        a = _int_grids(rows, inner, a_kind, rng, 7)
        b = _int_grids(inner, cols, "real", rng, 7)
        b_cols = _columns(b[0])
        assert gaussian_int_matmul(*a, b_cols, None) == _naive_product(*a, *b)
        m = Matrix(1, b[0], b[1])
        assert grid_columns(m) == ([tuple(c) for c in b_cols], None)
    complex_m = Matrix(1, [[1, 2]], [[0, 3]])
    assert grid_columns(complex_m) == ([(1,), (2,)], [(0,), (3,)])


def test_kernels_take_one_column_for_the_trace_screen():
    # A 1 x L row times the one column of an L x 1 matrix, as the
    # expansion's last level and the witness-search screen pass them: the
    # right factor is [column], not L rows of one entry.
    assert int_matmul([[1, 2, 3]], [[4, 5, 6]]) == [[32]]
    assert int_matmul([[1, 0, 2]], [[-2, 7, 1]]) == [[0]]
    # (1, 2 + i) . (3 + i, 4) = 3 + i + 8 + 4i
    assert gaussian_int_matmul([[1, 2]], [[0, 1]], [[3, 4]], [[1, 0]]) == ([[11]], [[5]])
    # the real branch takes the dot product only from 9 entries on, so
    # this 1 x 1 real product runs the fused loop
    assert gaussian_int_matmul([[1, 2, 3]], [[0, 0, 0]], [[4, 5, 6]], [[0, 0, 0]]) == (
        [[32]],
        [[0]],
    )


# -- kernels and rank ----------------------------------------------------


# -- the linear-combination kernel -----------------------------------------


def _reference_combination(coeffs, mats):
    """sum c_k M_k entry by entry on (re, im) pairs of Fractions, the
    shape of the accumulation loops the kernel replaces."""
    out = [[(Fraction(0), Fraction(0))] * mats[0].cols for _ in range(mats[0].rows)]
    for c, m in zip(coeffs, mats):
        for i, row in enumerate(_fraction_pairs(m)):
            for j, e in enumerate(row):
                out[i][j] = pair_sum(out[i][j], pair_product(pair(c), e))
    return Matrix.from_rows(out)


def _coefficient(rng, kind, max_den=12):
    def part():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 40), rng.randint(1, max_den))

    return {
        "zero": lambda: ZERO,
        "real": lambda: Scalar(part()),
        "imaginary": lambda: Scalar(0, part()),
        "complex": lambda: Scalar(part(), part()),
    }[kind]()


def _real_matrix(rows, cols, seed):
    m = _gaussian_matrix(rows, cols, seed)
    return Matrix.from_rows(tuple(tuple(Scalar(e.re) for e in row) for row in m.entries))


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 4)])
@pytest.mark.parametrize("mat_kind", ["real", "complex", "mixed"])
def test_linear_combination_matches_scalar_reference(shape, mat_kind):
    rng = random.Random(f"{shape}-{mat_kind}")
    kinds = ["zero", "real", "imaginary", "complex"]
    for trial in range(12):
        k = rng.randint(1, 5)
        mats = []
        for idx in range(k):
            seed = derive_seed(970 + trial, idx)
            real = mat_kind == "real" or (mat_kind == "mixed" and idx % 2 == 0)
            make = _real_matrix if real else _gaussian_matrix
            mats.append(make(*shape, seed))
        coeffs = [_coefficient(rng, rng.choice(kinds)) for _ in range(k)]
        assert linear_combination(coeffs, mats) == _reference_combination(coeffs, mats)


def test_linear_combination_edge_coefficients():
    mats = [_gaussian_matrix(3, 2, derive_seed(980, i)) for i in range(3)]
    assert linear_combination([ZERO] * 3, mats) == Matrix.zeros(3, 2)
    assert linear_combination([0, 1, 0], mats) == mats[1]
    # purely imaginary coefficients: only the cross terms of i*M survive
    i_unit = Scalar(0, 1)
    coeffs = [i_unit, Scalar(0, Fraction(-5, 7)), ZERO]
    assert linear_combination(coeffs, mats) == _reference_combination(coeffs, mats)
    assert linear_combination([i_unit, i_unit], [mats[0], mats[0]]) == _reference_combination(
        [Scalar(0, 2)], [mats[0]]
    )
    # cancelling terms over different denominators leave exact zeros
    half = Scalar(Fraction(1, 2), Fraction(1, 3))
    minus_half = Scalar(Fraction(-1, 2), Fraction(-1, 3))
    assert linear_combination([half, minus_half], [mats[2], mats[2]]).is_zero
    # plain ints and Fractions are accepted as coefficients
    assert linear_combination([2, Fraction(1, 3)], mats[:2]) == _reference_combination(
        [Scalar(2), Scalar(Fraction(1, 3))], mats[:2]
    )


def test_linear_combination_skips_zero_coefficients():
    mats = [_gaussian_matrix(2, 2, derive_seed(985, i)) for i in range(3)]
    assert linear_combination([ZERO, ONE, ZERO], mats) == mats[1]


def test_linear_combination_rejects_bad_input():
    with pytest.raises(ShapeError):
        linear_combination([], [])
    with pytest.raises(ShapeError):
        linear_combination([ONE], [Matrix.identity(2), Matrix.identity(2)])
    with pytest.raises(ShapeError):
        linear_combination([ONE, ONE], [Matrix.identity(2), Matrix.zeros(2, 3)])


def test_matrix_arithmetic_matches_scalar_reference():
    rng = random.Random(990)
    for trial in range(20):
        shape = (rng.randint(1, 4), rng.randint(1, 4))
        a = _gaussian_matrix(*shape, derive_seed(991, trial), max_den=11)
        b = _real_matrix(*shape, derive_seed(992, trial)) if trial % 2 else _gaussian_matrix(
            *shape, derive_seed(992, trial), max_den=7
        )
        c = _coefficient(rng, ["zero", "real", "imaginary", "complex"][trial % 4])
        assert a + b == _reference_combination([1, 1], [a, b])
        assert a - b == _reference_combination([1, -1], [a, b])
        assert -a == _reference_combination([-1], [a])
        assert c * a == a * c == _reference_combination([c], [a])
        assert (a - a).is_zero and 0 * a == Matrix.zeros(*shape)
    assert 3 * Matrix.identity(2) == Matrix.diagonal([3, 3])


def test_ratio_reads_a_multiple_without_elimination(elimination_calls):
    v = vector([0, "2/3", (1, -1)])
    for c in (Scalar(Fraction(-5, 4)), Scalar(2, 3), ZERO):
        assert ratio(c * v, v) == c
    assert ratio(v + vector([0, 0, 1]), v) is None
    assert ratio(vector([1, 0, 0]), v) is None
    assert ratio(Scalar(0, 1) * v, Scalar(Fraction(1, 7)) * v) == Scalar(0, 7)
    assert elimination_calls == []
    with pytest.raises(DomainError):
        ratio(v, zero_vector(3))
    with pytest.raises(ShapeError):
        ratio(v, v.transpose())


# -- the grid sums against plain Fraction pairs ----------------------------
#
# gaussian_int_combination, coefficient_tensor_is_zero and ratio are each
# products of gaussian_int_matmul; these references compute the same sums
# entry by entry on (re, im) pairs of Fractions, sharing nothing with them.

SUM_SHAPES = [(1, 1), (2, 2), (3, 1), (3, 4), (4, 4)]


def _fraction_pairs(m):
    """m's entries as (re, im) pairs of Fractions, read off its grids."""
    return [
        [(Fraction(x, m.den), Fraction(y, m.den)) for x, y in zip(re, im)]
        for re, im in zip(m.re, m.im)
    ]


def _sum_matrix(rows, cols, kind, seed):
    """A seeded matrix with denominators up to 6; kind "real", "complex",
    or "mixed" for real at even seeds."""
    real = kind == "real" or (kind == "mixed" and seed % 2 == 0)
    return (_real_matrix if real else _gaussian_matrix)(rows, cols, seed)


def _sum_coefficient(rng, kind):
    """(x, y, q): the coefficient (x + iy)/q, real for kind "real"."""
    q = rng.randint(1, 9)
    y = 0 if kind == "real" else rng.randint(-20, 20)
    return rng.randint(-20, 20), y, q


@pytest.mark.parametrize("shape", SUM_SHAPES)
@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
def test_gaussian_int_combination_matches_fraction_pairs(shape, kind):
    rows, cols = shape
    rng = random.Random(f"combination-{shape}-{kind}")
    for trial in range(8):
        seeds = [derive_seed(1400 + trial, k) for k in range(trial % 4 + 1)]
        mats = [_sum_matrix(rows, cols, kind, seed) for seed in seeds]
        # one to three coefficient rows (x + iy) over each term's own q
        coeffs = [[_sum_coefficient(rng, kind) for _ in mats] for _ in range(trial % 3 + 1)]
        qs = [q for _, _, q in coeffs[0]]
        if trial == 3:
            coeffs = [[(0, 0, q) for _, _, q in row] for row in coeffs]  # every one zero
        if trial == 5:  # the first term's column is zero in every row
            coeffs = [[(0, 0, row[0][2]), *row[1:]] for row in coeffs]
        terms = [(q * m.den, m.re, m.im) for q, m in zip(qs, mats)]
        c_re = [[x for x, _, _ in row] for row in coeffs]
        c_im = [[y for _, y, _ in row] for row in coeffs]
        common, grids = exact.gaussian_int_combination(c_re, c_im, terms, rows, cols)
        live = [t[0] for j, t in enumerate(terms) if any(r[j] for r in c_re + c_im)]
        assert common == lcm(*live)
        assert len(grids) == len(coeffs)
        for row, (re, im) in zip(coeffs, grids):
            expected = [[(Fraction(0), Fraction(0))] * cols for _ in range(rows)]
            for (x, y, _), q, m in zip(row, qs, mats):
                c = (Fraction(x, q), Fraction(y, q))
                for i, entries in enumerate(_fraction_pairs(m)):
                    for j, e in enumerate(entries):
                        expected[i][j] = pair_sum(expected[i][j], pair_product(c, e))
            assert _fraction_pairs(Matrix(common, re, im)) == expected
    zero = [[0] * cols for _ in range(rows)]
    assert exact.gaussian_int_combination([[]], [[]], [], rows, cols) == (1, [(zero, zero)])


def test_linear_combinations_is_one_kernel_product_for_all_rows(monkeypatch):
    mats = [_gaussian_matrix(3, 3, derive_seed(1450, k)) for k in range(4)]
    coeffs = _gaussian_matrix(3, 4, 1451)
    calls = []
    real = exact.gaussian_int_matmul

    def counting(a_re, *rest):
        calls.append(len(a_re))
        return real(a_re, *rest)

    monkeypatch.setattr(exact, "gaussian_int_matmul", counting)
    combined = linear_combinations(coeffs, mats)
    monkeypatch.undo()
    assert calls == [3]
    assert combined == [
        _reference_combination([coeffs.entry(r, j) for j in range(4)], mats) for r in range(3)
    ]
    with pytest.raises(ShapeError):
        linear_combinations(coeffs, mats[:3])


@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
def test_divide_by_entry_matches_fraction_pairs(kind):
    for trial in range(12):
        m = _sum_matrix(2, 3, kind, derive_seed(1460, trial))
        v = _sum_matrix(3, 1, kind, derive_seed(1461, trial))
        for i in range(3):
            z = _fraction_pairs(v)[i][0]
            if z == (Fraction(0), Fraction(0)):
                continue
            expected = [[pair_quotient(e, z) for e in row] for row in _fraction_pairs(m)]
            assert _fraction_pairs(divide_by_entry(m, v, i, 0)) == expected


def _fraction_tensor_is_zero(pairs):
    """Whether every entry sum_i a_i[p][k] b_i[l][q] of the coefficient
    tensor is zero."""
    if not pairs:
        return True
    d = pairs[0][0].rows
    read = [(_fraction_pairs(a), _fraction_pairs(b)) for a, b in pairs]
    for p, k, l, q in product(range(d), repeat=4):
        total = (Fraction(0), Fraction(0))
        for a, b in read:
            total = pair_sum(total, pair_product(a[p][k], b[l][q]))
        if total != (Fraction(0), Fraction(0)):
            return False
    return True


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
def test_coefficient_tensor_is_zero_matches_fraction_pairs(d, kind):
    def mat(seed):
        return _sum_matrix(d, d, kind, seed)

    a1, b1, a2, b2 = (mat(derive_seed(1500 + d, i)) for i in range(4))
    # the map of (a1, b1), (a2, b2) rewritten as (a1 + a2, b1), (a2, b2 - b1)
    same_map = [(a1, b1), (a2, b2), (-(a1 + a2), b1), (-a2, b2 - b1)]
    # only the last tensor row block, p = d - 1, is nonzero
    last_row = same_map + [(Matrix.unit(d, d - 1, 0), Scalar(Fraction(1, 3), 1) * b1)]
    cases = [
        [],
        [(a1, b1)],
        [(a1, b1), (a2, b2)],
        [(a1, b1), (-1 * a1, b1)],
        [(a1, Scalar(Fraction(2, 5)) * b1), (Scalar(Fraction(-2, 5)) * a1, b1)],
        same_map,
        last_row,
        [(Matrix.zeros(d), b1), (a2, Matrix.zeros(d))],
    ]
    for pairs in cases:
        assert coefficient_tensor_is_zero(pairs) == _fraction_tensor_is_zero(pairs)
    assert [coefficient_tensor_is_zero(c) for c in cases] == [
        True, False, False, True, True, True, False, True
    ]


def test_the_tensor_check_stops_at_the_first_nonzero_row_block(monkeypatch):
    d = 3
    a, b = _gaussian_matrix(d, d, 1600), _gaussian_matrix(d, d, 1601)
    first_row = [(Matrix.unit(d, 0, 1), b)]
    cancelling = [(a, b), (-1 * a, b)]
    calls = []
    real = exact.gaussian_int_matmul

    def counting(a_re, *rest):
        calls.append(len(a_re))
        return real(a_re, *rest)

    monkeypatch.setattr(exact, "gaussian_int_matmul", counting)
    assert not coefficient_tensor_is_zero(first_row)
    assert calls == [d]  # one kernel call, for the d tensor rows of p = 0
    calls.clear()
    assert coefficient_tensor_is_zero(cancelling)
    assert calls == [d] * d


def _fraction_ratio(w, v):
    """The pair c with w = c v entrywise, or None, from the first nonzero
    entry of v."""
    w_entries = [e for row in _fraction_pairs(w) for e in row]
    v_entries = [e for row in _fraction_pairs(v) for e in row]
    pivot = next(i for i, e in enumerate(v_entries) if e != (Fraction(0), Fraction(0)))
    c = pair_quotient(w_entries[pivot], v_entries[pivot])
    if all(we == pair_product(c, ve) for we, ve in zip(w_entries, v_entries)):
        return c
    return None


@pytest.mark.parametrize("shape", SUM_SHAPES)
@pytest.mark.parametrize("kind", ["real", "complex", "mixed"])
def test_ratio_matches_fraction_pairs(shape, kind):
    rng = random.Random(f"ratio-{shape}-{kind}")
    for trial in range(6):
        v = _sum_matrix(*shape, kind, derive_seed(1700, trial))
        if trial % 3 == 0:  # a leading zero entry moves the pivot
            v = Matrix(v.den, [[0, *v.re[0][1:]], *v.re[1:]], [[0, *v.im[0][1:]], *v.im[1:]])
        if v.is_zero:
            continue
        x, y, q = _sum_coefficient(rng, kind)
        c = Scalar(Fraction(x, q), Fraction(y, q))
        other = _sum_matrix(*shape, kind, derive_seed(1701, trial))
        for w in (c * v, ZERO * v, c * v + other, other):
            expected = _fraction_ratio(w, v)
            got = ratio(w, v)
            assert (None if got is None else (got.re, got.im)) == expected
        assert (ratio(c * v, v).re, ratio(c * v, v).im) == (c.re, c.im)


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
    """Reference: grow the kept set one reference rank at a time, then solve
    for the coordinates of every vector, as the columns of one matrix."""
    kept = []
    for idx, v in enumerate(vectors):
        if reference_rank([_flat(vectors[i]) for i in kept] + [_flat(v)]) == len(kept) + 1:
            kept.append(idx)
    if not kept:
        return kept, None
    basis = Matrix.from_columns([vectors[i] for i in kept])
    return kept, Matrix.from_columns([solve(basis, v) for v in vectors])


def _flat(m):
    """The entries of m as Scalars, row-major."""
    return tuple(e for row in m.entries for e in row)


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
                extra = extra + random_scalar(rng, 4) * v
        vectors.insert(rng.randint(0, len(vectors)), extra)
    return vectors


def test_independent_subset_matches_incremental_reference():
    assert independent_subset([]) == ([], None)
    for seed in range(120):
        vectors = _mixed_vectors(derive_seed(90, seed))
        kept, coords = independent_subset(vectors)
        assert (kept, coords) == _incremental_subset(vectors)
        if coords is None:
            assert all(v.is_zero for v in vectors)
            continue
        assert (coords.rows, coords.cols) == (len(kept), len(vectors))
        for idx, v in enumerate(vectors):
            total = zero_vector(v.rows)
            for pos, k in enumerate(kept):
                total = total + coords.entry(pos, idx) * vectors[k]
            assert total == v


def test_independent_subset_rejects_ragged_vectors():
    with pytest.raises(ShapeError):
        independent_subset([vector([1, 2]), vector([1])])
    with pytest.raises(ShapeError):
        independent_subset([vector([1, 2, 3, 4]), Matrix.identity(2)])


# -- elimination against sympy's Gaussian-rational field ------------------


def _elimination_inputs(d):
    """Seeded d x d and d x (d+1) Gaussian-rational matrices with
    denominators: generic, rank-deficient, singular with a zero column,
    purely imaginary, and zero."""
    seed = derive_seed(1200, d)
    generic = _gaussian_matrix(d, d, derive_seed(seed, 0))
    r = d // 2
    deficient = (
        _gaussian_matrix(d, r, derive_seed(seed, 1)) @ _gaussian_matrix(r, d, derive_seed(seed, 2))
        if r else Matrix.zeros(d)
    )
    with_zero_column = Matrix.from_rows(
        [[ZERO if j == d - 1 else e for j, e in enumerate(row)] for row in generic.entries]
    )
    source = _gaussian_matrix(d, d, derive_seed(seed, 3))
    imaginary = Matrix.from_rows([[Scalar(0, e.re) for e in row] for row in source.entries])
    wide = _gaussian_matrix(d, d + 1, derive_seed(seed, 4))
    return [generic, deficient, with_zero_column, imaginary, wide, Matrix.zeros(d)]


def test_elimination_matches_sympy():
    pytest.importorskip("sympy")
    from sympy import I, QQ_I, Rational, im, re
    from sympy.polys.matrices import DomainMatrix

    def to_domain(m):
        rows = [[Rational(str(e.re)) + I * Rational(str(e.im)) for e in row] for row in m.entries]
        return DomainMatrix.from_list_sympy(m.rows, m.cols, rows).convert_to(QQ_I)

    def to_rows(dm):
        return [
            tuple(Scalar(Fraction(str(re(e))), Fraction(str(im(e)))) for e in row)
            for row in dm.to_Matrix().tolist()
        ]

    def check_subset(mats):
        # each matrix read as its row-major vec: kept = the pivots of the
        # matrix of those vecs as columns, coordinates = the reduced
        # form's non-pivot columns over the pivot rows
        reduced, pivots = to_domain(Matrix.from_rows(zip(*map(_flat, mats)))).rref()
        reduced_rows = to_rows(reduced)[:len(pivots)]
        kept, coords = independent_subset(mats)
        assert kept == list(pivots)
        assert coords == (Matrix.from_rows(reduced_rows) if pivots else None)
        return pivots

    for d in range(1, 7):
        inputs = _elimination_inputs(d)
        for m in inputs:
            dm = to_domain(m)
            assert rank(m) == dm.rank()
            expected_kernel = []
            for v in to_rows(dm.nullspace()):
                first = pair(next(x for x in v if not x.is_zero))
                expected_kernel.append(vector(pair_quotient(pair(x), first) for x in v))
            assert kernel_basis(m) == expected_kernel
            # the columns of m as d x 1 matrices
            pivots = check_subset([m.column(j) for j in range(m.cols)])
            # solve sets free variables to zero: with the pivots fixed, the
            # solution is unique, and b is consistent iff the ranks agree
            for b in (m @ _gaussian_matrix(m.cols, 2, derive_seed(1300, d)),
                      _gaussian_matrix(d, 2, derive_seed(1301, d))):
                x = solve(m, b)
                consistent = dm.rank() == to_domain(
                    Matrix.from_rows([r + s for r, s in zip(m.entries, b.entries)])
                ).rank()
                assert (x is not None) == consistent
                if x is not None:
                    assert m @ x == b
                    assert all(x.row(i) == (ZERO, ZERO) for i in range(m.cols) if i not in pivots)
            if m.is_square and dm.rank() == d:
                assert Matrix.from_rows(to_rows(dm.inv())) == inverse(m)
            elif m.is_square:
                with pytest.raises(DomainError):
                    inverse(m)
        # square matrices over different denominators, with a dependent
        # combination and a repeat among them
        square = [Scalar(Fraction(1, k + 2)) * m for k, m in enumerate(inputs) if m.is_square]
        check_subset(square + [square[0] - Scalar(Fraction(3, 7)) * square[1], square[0]])


# -- the fraction-free kernel against sympy's rref over QQ and QQ_I --------


def _sympy_subset(mats):
    """(pivots, coordinates) from sympy's rref of the matrix whose columns
    are the row-major vecs of mats, over QQ or QQ_I as `sympy_matrix`
    picks: the coordinates are the pivot rows, None when there are
    none."""
    from sympy import QQ

    columns = [_flat(m) for m in mats]
    reduced, pivots = sympy_matrix(zip(*columns)).rref()

    def to_scalar(x):
        parts = (x,) if reduced.domain == QQ else (x.x, x.y)
        return Scalar(*(Fraction(int(p.numerator), int(p.denominator)) for p in parts))

    rows = reduced.to_list()[: len(pivots)]
    coords = Matrix.from_rows([[to_scalar(x) for x in row] for row in rows]) if rows else None
    return list(pivots), coords


_DENOMINATORS = st.sampled_from([1, 1, 1, 2, 3, 6, 7])


@st.composite
def _subset_inputs(draw):
    """Same-shape matrices, tall, wide or square as vecs against their
    number, with entries over mixed denominators, real or Gaussian, and
    zero, repeated and dependent members mixed in; with Gaussian entries,
    sometimes all of them isotropic."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    real = draw(st.booleans())
    part = st.integers(-3, 3)

    def drawn_matrix():
        den = draw(_DENOMINATORS)
        return Matrix(
            den,
            [[draw(part) for _ in range(cols)] for _ in range(rows)],
            [[0 if real else draw(part) for _ in range(cols)] for _ in range(rows)],
        )

    # for Gaussian entries, sometimes every new member is isotropic, its
    # vec (w, i*w, 0) for one sign of i: then sum_k u_k v_k = 0 for any two
    # members and their combinations, so A^T A, which forgets the
    # conjugate, is zero, although A^H A is not
    turn = 0
    if not real and rows * cols > 1 and draw(st.booleans()):
        turn = draw(st.sampled_from([1, -1]))

    def isotropic_matrix():
        half = rows * cols // 2
        w = [Scalar(Fraction(draw(part), draw(_DENOMINATORS))) for _ in range(half)]
        flat = w + [Scalar(0, turn * x.re) for x in w] + [ZERO] * (rows * cols - 2 * half)
        return Matrix.from_rows(flat[r * cols : (r + 1) * cols] for r in range(rows))

    mats = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["new", "new", "zero", "repeat", "combination"]))
        if kind == "zero":
            mats.append(Matrix.zeros(rows, cols))
        elif kind == "new" or not mats:
            mats.append(isotropic_matrix() if turn else drawn_matrix())
        elif kind == "repeat":
            mats.append(draw(st.sampled_from(mats)))
        else:
            first, second = draw(st.sampled_from(mats)), draw(st.sampled_from(mats))
            c = Scalar(Fraction(draw(part), draw(_DENOMINATORS)), 0 if real else draw(part))
            mats.append(first + c * second)
    return mats


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_subset_inputs())
def test_independent_subset_matches_sympy_rref(mats):
    pytest.importorskip("sympy")
    assert independent_subset(mats) == _sympy_subset(mats)


def _columns_of(rows):
    """The columns of a Gaussian-rational row list, as d x 1 matrices."""
    m = Matrix.from_rows(rows)
    return [m.column(j) for j in range(m.cols)]


def test_rref_pivots_and_last_pivot_on_fixed_grids():
    # 1 then -2: the last pivot is negative
    pivots, re_rows, im_rows, last = rref([[1, 1, 3], [1, -1, 1]], [[0, 0, 0], [0, 0, 0]])
    assert (pivots, re_rows, last) == ([0, 1], [[-2, 0, -4], [0, -2, -2]], (-2, 0))
    assert im_rows == [[0, 0, 0], [0, 0, 0]]
    # Gaussian pivots 1+i, then a non-real one: the division by a non-real
    # previous pivot and the coordinates over a non-real D both run
    re = [[1, 1, 0, 2], [0, 1, 1, 0], [1, 0, 1, 1]]
    im = [[1, 0, 0, 0], [1, 0, 0, -1], [0, 0, -1, 0]]
    pivots, _, _, last = rref(re, im)
    assert pivots == [0, 1, 2] and last[1] != 0
    assert rref([[0, 0], [0, 0]], [[0, 0], [0, 0]]) == ([], [], [], (1, 0))
    pytest.importorskip("sympy")
    columns = [Matrix(1, [[row[j]] for row in re], [[row[j]] for row in im]) for j in range(4)]
    assert independent_subset(columns) == _sympy_subset(columns)


I = Scalar(0, 1)


@pytest.mark.parametrize(
    "mats",
    [
        # a negative last pivot, a dependent column and a zero column
        _columns_of([[1, 1, 3, 0], [1, -1, 1, 0]]),
        # Gaussian pivots 1+i and 2-i, a duplicate and a dependent column
        _columns_of(
            [
                [Scalar(1, 1), 1, Scalar(1, 1), Scalar(2, 1)],
                [1, Scalar(2, -1), 1, Scalar(3, -1)],
                [0, Scalar(0, 1), 0, Scalar(0, 1)],
            ]
        ),
        # tall, wide, over mixed denominators
        _columns_of([[Fraction(1, 2)], [Scalar(Fraction(1, 3), 1)], [0]]),
        _columns_of([[Fraction(1, 2), Fraction(2, 7), Scalar(1, Fraction(-1, 3)), 5, 0]]),
        # isotropic vecs (sum v_k^2 = 0), which only the conjugate in the
        # Gram matrix A^H A of a tall grid keeps nonzero
        _columns_of([[1], [I]]),
        _columns_of([[1, 0], [I, 0], [0, 1]]),
        _columns_of([[1, I], [I, -1]]),
        _columns_of([[1, I], [I, -1], [0, 0]]),
        [Matrix.from_rows([[1, I], [0, 0]]), Matrix.from_rows([[0, 0], [1, (0, -1)]])],
    ],
    ids=[
        "negative-last-pivot",
        "gaussian-pivots",
        "tall",
        "wide",
        "isotropic-column",
        "isotropic-tall-pair",
        "isotropic-dependent-pair",
        "isotropic-dependent-tall-pair",
        "isotropic-2x2-matrices",
    ],
)
def test_independent_subset_matches_sympy_on_fixed_cases(mats):
    pytest.importorskip("sympy")
    assert independent_subset(mats) == _sympy_subset(mats)


def test_a_nonzero_isotropic_vector_is_kept():
    # (1, i) has sum v_k^2 = 0 but |v|^2 = 2: independent, without sympy
    assert independent_subset(_columns_of([[1], [I]])) == ([0], Matrix.identity(1))


@pytest.mark.parametrize(
    "shape, count, grid",
    [
        # tall: n matrices of more than n entries eliminate the n x n Gram matrix
        ((3, 3), 2, (2, 2)),
        ((8, 8), 3, (3, 3)),
        ((4, 1), 3, (3, 3)),
        # square and wide: the grid of the vecs itself, entries by matrices
        ((2, 2), 4, (4, 4)),
        ((2, 1), 5, (2, 5)),
        ((1, 3), 4, (3, 4)),
    ],
    ids=["tall-3x3", "tall-8x8", "tall-column", "square", "wide-column", "wide-row"],
)
def test_elimination_runs_on_the_short_side(monkeypatch, shape, count, grid):
    shapes = []
    real = exact.rref

    def recording(re, im):
        shapes.append((len(re), len(re[0])))
        return real(re, im)

    monkeypatch.setattr(exact, "rref", recording)
    rng = random.Random(derive_seed(count, shape[0] * shape[1]))
    mats = [
        Matrix.from_rows(
            [
                [Scalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(shape[1])]
                for _ in range(shape[0])
            ]
        )
        for _ in range(count)
    ]
    kept, _ = independent_subset(mats)
    assert shapes == [grid]
    assert len(kept) == min(count, shape[0] * shape[1])


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


def _first_full_rank_draw(dim, seed, height):
    """The draw that `random_invertible` returned when it tested each
    draw by elimination: the first of full rank."""
    for attempt in range(64):
        m = random_matrix(dim, derive_seed(seed, attempt), height)
        if rank(m) == dim:
            return m
    raise AssertionError("no draw of full rank")


def test_random_invertible_returns_the_first_full_rank_draw():
    rejected = 0
    for dim in range(1, 9):
        for height in range(1, 5):
            for s in range(4):
                seed = derive_seed(7000 + 10 * dim + height, s)
                expected = _first_full_rank_draw(dim, seed, height)
                assert random_invertible(dim, seed, height) == expected, (dim, height, s)
                rejected += expected != random_matrix(dim, derive_seed(seed, 0), height)
    # singular first draws were met and skipped the same way
    assert rejected >= 5


# -- the simplex lattice against sympy -----------------------------------


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("D", range(0, 5))
def test_simplex_points_are_the_lattice_in_combination_order(k, D):
    points = list(simplex_points(k, D))
    assert len(points) == len(set(points)) == comb(k + D - 1, D)
    assert all(len(t) == k and min(t) >= 0 and sum(t) == D for t in points)
    assert points[0] == (D,) + (0,) * (k - 1)
    assert points == [
        tuple(combo.count(i) for i in range(k))
        for combo in combinations_with_replacement(range(k), D)
    ]


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("D", range(0, 5))
def test_no_nonzero_homogeneous_polynomial_vanishes_on_the_lattice(k, D):
    # The monomials of degree D, evaluated at the C(k+D-1, D) lattice
    # points, form a square matrix of full rank: a homogeneous f of degree
    # D vanishing on the lattice has zero coefficients.  Degree p < D
    # follows, as f * (t_1 + ... + t_k)^(D - p) has the same zeros there;
    # the evaluation matrix of the degree-p monomials has full column rank.
    sympy = pytest.importorskip("sympy")
    points = list(simplex_points(k, D))
    for p in range(D + 1):
        monomials = list(simplex_points(k, p))
        values = sympy.Matrix(
            [[prod(t**e for t, e in zip(point, m)) for m in monomials] for point in points]
        )
        assert values.rank() == len(monomials), (k, D, p)

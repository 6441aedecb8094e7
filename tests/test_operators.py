"""Elementary operators: application, length, grids, representation changes."""

import random
from fractions import Fraction

import pytest

from elemop import operators
from elemop.errors import BasisError, ContractError, DomainError, PreconditionError, ShapeError
from elemop.exact import (
    Matrix,
    Scalar,
    basis_vector,
    char_poly,
    derive_seed,
    inverse,
    kernel_basis,
    lambda_power,
    random_invertible,
    random_matrix,
    rank,
    rref,
    vector,
    zero_vector,
)
from elemop.operators import (
    ElementaryOperator,
    adjoint_flip,
    apply,
    change_left_basis,
    compose_is_zero,
    gram,
    left_space,
    local_matrix,
    maps_equal,
    minimal_length,
    right_space,
    similarity_transform,
    sum_bi_ai,
    v_space,
)
from elemop.spaces import reduce_basis
from conftest import specimen_form_ii, specimen_form_iii, single_pair, unit


def test_apply_identity_pair():
    phi = single_pair(2, Matrix.identity(2), Matrix.identity(2))
    x = random_matrix(2, 3, 5)
    assert apply(phi, x) == x


def test_apply_matrix_unit_pair():
    phi = single_pair(2, unit(2, 0, 1), unit(2, 0, 1))
    x = random_matrix(2, 9, 5)
    assert apply(phi, x) == x.entry(1, 0) * unit(2, 0, 1)


def test_apply_specimen_nilpotent_at_unit():
    phi = specimen_form_ii()
    y = apply(phi, unit(3, 0, 0))
    # direct multiplication oracle
    expected = Matrix.zeros(3)
    for a, b in phi.pairs:
        expected = expected + (a @ unit(3, 0, 0)) @ b
    assert y == expected
    assert char_poly(y) == lambda_power(3)


def _gaussian(d, seed, max_den):
    """Seeded d x d Gaussian-rational matrix with denominators up to max_den."""
    rng = random.Random(seed)
    return Matrix.from_rows(tuple(
        tuple(
            Scalar(Fraction(rng.randint(-7, 7), rng.randint(1, max_den)),
                   Fraction(rng.randint(-7, 7), rng.randint(1, max_den)))
            for _ in range(d)
        )
        for _ in range(d)
    ))


def _apply_reference(phi, x):
    total = Matrix.zeros(phi.dim)
    for a, b in phi.pairs:
        total = total + (a @ x) @ b
    return total


def test_apply_matches_reference_on_gaussian_pairs():
    for s in range(12):
        d = 1 + s % 4
        # each coefficient has its own range of denominators, so the terms
        # only meet over a common denominator
        pairs = [
            (_gaussian(d, derive_seed(970, 4 * s + i), 2 + i),
             _gaussian(d, derive_seed(971, 4 * s + i), 5 + 2 * i))
            for i in range(1 + s % 3)
        ]
        phi = ElementaryOperator.from_pairs(d, pairs)
        x = _gaussian(d, derive_seed(972, s), 4)
        assert apply(phi, x) == _apply_reference(phi, x)
        real_x = random_matrix(d, derive_seed(973, s), 9)
        assert apply(phi, real_x) == _apply_reference(phi, real_x)


def test_apply_cancelling_terms_and_zero_operator():
    a = Matrix.from_rows([[Fraction(1, 2), (0, Fraction(1, 3))], [1, Fraction(-1, 6)]])
    b = Matrix.from_rows([[(Fraction(2, 5), 1), 0], [0, Fraction(1, 7)]])
    x = Matrix.from_rows([[Fraction(3, 4), 1], [(0, -1), Fraction(5, 9)]])
    half = Scalar(Fraction(1, 2))
    # a x b - (a/2) x b - (a/2) x b = 0, over the denominators 2 * 35 and 4 * 35
    phi = ElementaryOperator.from_pairs(2, [(a, b), (-half * a, b), (-half * a, b)])
    assert apply(phi, x) == Matrix.zeros(2)
    assert apply(ElementaryOperator.zero(3), random_matrix(3, 5, 4)) == Matrix.zeros(3)


def test_apply_shape_error():
    phi = single_pair(2, Matrix.identity(2), Matrix.identity(2))
    with pytest.raises(ShapeError):
        apply(phi, Matrix.identity(3))


def test_minimal_length_factors_common_left():
    a = random_matrix(3, 1, 4)
    b = random_matrix(3, 2, 4)
    c = random_matrix(3, 3, 4)
    phi = ElementaryOperator.from_pairs(3, [(a, b), (a, c)])
    n, reduced = minimal_length(phi)
    assert n == 1
    assert maps_equal(reduced, phi)


def test_minimal_length_zero_operator():
    eye = Matrix.identity(2)
    phi = ElementaryOperator.from_pairs(2, [(eye, eye), (eye, -1 * eye)])
    n, reduced = minimal_length(phi)
    assert n == 0 and reduced.is_zero


def _flat(m):
    """The entries of m as Scalars, row-major."""
    return tuple(e for row in m.entries for e in row)


def _vec(m):
    """vec(m), row-major, as a column."""
    return vector(_flat(m))


def test_minimal_length_diagonal_three():
    pairs = [(unit(3, i, i), unit(3, i, i)) for i in range(3)]
    phi = ElementaryOperator.from_pairs(3, pairs)
    n, _ = minimal_length(phi)
    assert n == 3
    # oracle: rank of the 9x9 vectorized coefficient tensor
    tensor = Matrix.zeros(9)
    for a, b in pairs:
        tensor = tensor + _vec(a) @ _vec(b).transpose()
    assert rank(tensor) == 3


def test_minimal_length_matches_tensor_rank_generically():
    for s in range(8):
        d = 3
        pairs = [
            (random_matrix(d, derive_seed(80, 3 * s + k), 3),
             random_matrix(d, derive_seed(81, 3 * s + k), 3))
            for k in range(s % 3 + 1)
        ]
        phi = ElementaryOperator.from_pairs(d, pairs)
        n, reduced = minimal_length(phi)
        tensor = Matrix.zeros(d * d)
        for a, b in pairs:
            tensor = tensor + _vec(a) @ _vec(b).transpose()
        assert n == rank(tensor)
        assert maps_equal(reduced, phi)


def test_spaces_of_matrix_unit_pair():
    phi = single_pair(2, unit(2, 0, 1), unit(2, 0, 1))
    assert left_space(phi).dim == 1
    assert right_space(phi).dim == 1
    assert v_space(phi).dim == 0  # E12 E12 = 0


def test_spaces_of_specimen_form_iii():
    phi = specimen_form_iii()
    space = v_space(phi)
    assert space.dim == 2
    vecs = [_flat(m) for m in (unit(4, 0, 0), unit(4, 0, 1))]
    assert len(rref(vecs + [_flat(m) for m in space.basis])[0]) == 2


def test_spaces_of_zero_operator():
    phi = ElementaryOperator.zero(3)
    assert left_space(phi).dim == right_space(phi).dim == v_space(phi).dim == 0


@pytest.mark.parametrize("dependent", [False, True], ids=["minimal", "folded"])
def test_coefficient_spaces_of_a_known_minimal_form_eliminate_nothing(elimination_calls, dependent):
    # minimal_length leaves the memo saying that its result is its own
    # minimal form, so its coefficients are the two bases as they are; an
    # operator whose memo is unknown is reduced, and its memo left unknown.
    for seed in range(4):
        d = 2 + seed % 3
        pairs = [(random_matrix(d, derive_seed(seed, 2 * j), 4),
                  random_matrix(d, derive_seed(seed, 2 * j + 1), 4)) for j in range(3)]
        if dependent:
            pairs.append((pairs[0][0] + pairs[1][0], pairs[2][1]))
        fresh = ElementaryOperator.from_pairs(d, pairs)
        elimination_calls.clear()
        assert left_space(fresh) == reduce_basis([a for a, _ in pairs], ambient_dim=d)
        assert right_space(fresh) == reduce_basis([b for _, b in pairs], ambient_dim=d)
        assert elimination_calls and "_reduced" not in fresh.__dict__
        n, reduced = minimal_length(ElementaryOperator.from_pairs(d, pairs))
        elimination_calls.clear()
        spaces = left_space(reduced), right_space(reduced)
        assert elimination_calls == []
        assert spaces == (
            reduce_basis([a for a, _ in reduced.pairs], ambient_dim=d),
            reduce_basis([b for _, b in reduced.pairs], ambient_dim=d),
        )
        assert spaces[0].dim == spaces[1].dim == n == 3


def _v_space_reference(phi):
    """All n^2 products b_i a_j ranked in one elimination, i outer."""
    products = [b @ a for _, b in phi.pairs for a, _ in phi.pairs]
    return reduce_basis([p for p in products if not p.is_zero], ambient_dim=phi.dim)


def _sparse_operator(d, n, seed, upper=False):
    """n pairs of matrices with entries in {-1, 0, 1}, mostly 0, so that
    many products vanish or repeat; strictly upper ones with `upper`."""
    rng = random.Random(seed)

    def draw():
        return Matrix.from_rows([
            [rng.choice((-1, 0, 0, 0, 1)) if j > i or not upper else 0 for j in range(d)]
            for i in range(d)
        ])

    return ElementaryOperator.from_pairs(d, [(draw(), draw()) for _ in range(n)])


@pytest.mark.parametrize(
    "d, n, seed, upper",
    [(2, 6, 1, False), (3, 12, 2, False), (3, 15, 3, False), (4, 20, 4, False),
     (4, 10, 5, True), (5, 12, 6, True)],
)
def test_v_space_keeps_the_basis_of_all_products(d, n, seed, upper):
    # Long operators, n^2 above d^2: the lazy batches keep the basis that
    # ranking all n^2 products at once keeps.  Strictly upper pairs have
    # V inside the strictly upper matrices, a proper subspace of M_d, so
    # every product is read.
    phi = _sparse_operator(d, n, seed, upper)
    reference = _v_space_reference(phi)
    assert v_space(phi) == reference
    assert (reference.dim == d * d) is not upper


@pytest.mark.parametrize("d", [2, 3, 4])
def test_v_space_stops_once_it_spans_the_matrices(monkeypatch, d):
    # Dense random pairs, n = d^2: the first d^2 products b_0 a_j already
    # span M_d, so no other product is built.
    pairs = [
        (random_matrix(d, derive_seed(380 + d, 2 * i), 3),
         random_matrix(d, derive_seed(380 + d, 2 * i + 1), 3))
        for i in range(d * d)
    ]
    phi = ElementaryOperator.from_pairs(d, pairs)
    reference = _v_space_reference(phi)
    assert reference.dim == d * d
    built = []
    matmul = Matrix.__matmul__

    def counting(self, other):
        built.append(1)
        return matmul(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counting)
    assert v_space(phi) == reference
    assert len(built) == d * d


def test_gram_specimen_matches_hand_computation():
    phi = specimen_form_ii()
    g = gram(phi)
    z = Matrix.zeros(3)
    expected = [
        [z, unit(3, 1, 0), z],
        [unit(3, 0, 0), z, unit(3, 1, 0)],
        [z, -1 * unit(3, 0, 0), z],
    ]
    for i in range(3):
        for j in range(3):
            assert g.block(i, j) == expected[i][j]


def test_gram_trivial_cases():
    assert gram(single_pair(2, unit(2, 0, 1), unit(2, 0, 1))).block(0, 0).is_zero
    eye = Matrix.identity(2)
    assert gram(single_pair(2, eye, eye)).block(0, 0) == eye


def test_change_left_basis_identity():
    phi = specimen_form_ii()
    rep = change_left_basis(phi, [a for a, _ in phi.pairs])
    assert rep.pairs == phi.pairs


def test_change_left_basis_scaling():
    phi = specimen_form_ii()
    rep = change_left_basis(phi, [2 * a for a, _ in phi.pairs])
    half = Scalar("1/2")
    assert tuple(v for _, v in rep.pairs) == tuple(half * b for _, b in phi.pairs)


def test_change_left_basis_permutation():
    phi = specimen_form_ii()
    perm = [phi.pairs[2][0], phi.pairs[0][0], phi.pairs[1][0]]
    rep = change_left_basis(phi, perm)
    assert tuple(v for _, v in rep.pairs) == (phi.pairs[2][1], phi.pairs[0][1], phi.pairs[1][1])
    assert maps_equal(rep, phi)


def test_change_left_basis_rejects_non_basis():
    phi = specimen_form_ii()
    with pytest.raises(BasisError):
        change_left_basis(phi, [unit(3, 2, 2), phi.pairs[1][0], phi.pairs[2][0]])
    with pytest.raises(BasisError):
        change_left_basis(phi, [phi.pairs[0][0], phi.pairs[0][0], phi.pairs[1][0]])


def test_change_left_basis_eliminates_once_per_question(elimination_calls):
    phi = specimen_form_ii()
    assert minimal_length(phi)[0] == 3  # warm the minimal-form memo
    elimination_calls.clear()
    perm = [phi.pairs[2][0], phi.pairs[0][0], phi.pairs[1][0]]
    change_left_basis(phi, perm)
    # the solve for P, then P's inverse, which also decides independence
    assert len(elimination_calls) == 2
    elimination_calls.clear()
    with pytest.raises(BasisError, match="linearly dependent"):
        change_left_basis(phi, [phi.pairs[0][0], phi.pairs[0][0], phi.pairs[1][0]])
    assert len(elimination_calls) == 2


def test_similarity_transform_identity_and_diag():
    phi = specimen_form_ii()
    rep = similarity_transform(phi, Matrix.identity(3))
    assert tuple(u for u, _ in rep.pairs) == tuple(a for a, _ in phi.pairs)
    diag = Matrix.diagonal([2, 1, 1])
    rep = similarity_transform(phi, diag)
    g0 = gram(phi)
    g1 = gram(rep)
    for i in range(3):
        for j in range(3):
            scale = (Scalar(1) / diag.entry(i, i)) * diag.entry(j, j)
            assert g1.block(i, j) == scale * g0.block(i, j)


def _gram_conjugate(g, p):
    """Reference: the blockwise conjugate P^{-1} G P, whose block (i, j)
    is the sum over k, l of (P^{-1})_ik G_kl P_lj."""
    p_inv = inverse(p)
    blocks = []
    for i in range(g.n):
        row = []
        for j in range(g.n):
            acc = Matrix.zeros(g.ambient_dim)
            for k in range(g.n):
                for l in range(g.n):
                    acc = acc + (p_inv.entry(i, k) * p.entry(l, j)) * g.block(k, l)
            row.append(acc)
        blocks.append(tuple(row))
    return tuple(blocks)


def test_similarity_transform_gram_conjugation():
    phi = specimen_form_ii()
    p = random_invertible(3, 17, 5)
    rep = similarity_transform(phi, p)
    assert gram(rep).blocks == _gram_conjugate(gram(phi), p)
    assert maps_equal(rep, phi)


def test_similarity_transform_builds_one_matrix_per_coefficient(monkeypatch):
    n, d = 3, 4
    phi = ElementaryOperator.from_pairs(d, [
        (_gaussian(d, derive_seed(120, 2 * i), 5), _gaussian(d, derive_seed(120, 2 * i + 1), 5))
        for i in range(n)
    ])
    assert minimal_length(phi)[0] == n  # warm the minimal-form memo
    p = random_invertible(n, 121, 4)
    built = []
    post_init = Matrix.__post_init__

    def counting_init(self):
        if len(self.re) == d:
            built.append(1)
        post_init(self)

    monkeypatch.setattr(Matrix, "__post_init__", counting_init)
    rep = similarity_transform(phi, p)
    monkeypatch.undo()
    # u_j = sum_k P_kj a_k and v_i = sum_k (P^-1)_ik b_k: one matrix each
    assert len(built) == 2 * n
    assert maps_equal(rep, phi)
    assert gram(rep).blocks == _gram_conjugate(gram(phi), p)


def test_similarity_transform_rejects_singular():
    phi = specimen_form_ii()
    with pytest.raises(DomainError):
        similarity_transform(phi, Matrix.zeros(3))


def _unreduced_pair_lists():
    """Two-pair operators that are not minimal: dependent left
    coefficients, dependent right coefficients, a zero coefficient."""
    e11, e12, e21, e22 = unit(2, 0, 0), unit(2, 0, 1), unit(2, 1, 0), unit(2, 1, 1)
    zero = Matrix.zeros(2)
    return [
        ElementaryOperator.from_pairs(2, [(e11, e12), (2 * e11, e21)]),
        ElementaryOperator.from_pairs(2, [(e11, e12), (e22, -3 * e12)]),
        ElementaryOperator.from_pairs(2, [(e11, zero), (e22, e21)]),
        ElementaryOperator.from_pairs(2, [(zero, e11), (e22, e21)]),
    ]


def test_representation_changes_require_reduced_operators():
    for phi in _unreduced_pair_lists():
        assert minimal_length(phi)[0] < phi.term_count
        with pytest.raises(ContractError):
            similarity_transform(phi, Matrix.identity(2))
        with pytest.raises(ContractError):
            change_left_basis(phi, [a for a, _ in phi.pairs])


def test_minimal_form_is_computed_once_per_operator(monkeypatch):
    folds = []
    fold = operators._fold_left
    monkeypatch.setattr(operators, "_fold_left", lambda pairs: folds.append(1) or fold(pairs))
    operators_seen = [specimen_form_ii()] + _unreduced_pair_lists()
    for phi in operators_seen:
        n, reduced = minimal_length(phi)
        assert minimal_length(phi) == (n, reduced)
        assert minimal_length(reduced)[1] is reduced
        assert reduced._reduced is None and phi._reduced is not phi
    # one reduction is a left fold and a right fold
    assert len(folds) == 2 * len(operators_seen)


def test_representation_invariance_on_units():
    for s in range(12):
        phi = specimen_form_iii()
        p = random_invertible(3, derive_seed(90, s), 4)
        rep = similarity_transform(phi, p)
        assert maps_equal(rep, phi)


def test_minimal_length_representation_independent():
    # two reduced pair lists for one map must agree in length and their
    # block grids must be related by some invertible scalar conjugation
    phi = specimen_form_ii()
    p0 = random_invertible(3, 23, 4)
    other = similarity_transform(phi, p0)
    n1, red1 = minimal_length(phi)
    n2, red2 = minimal_length(other)
    assert n1 == n2 == 3
    g1, g2 = gram(red1), gram(red2)
    # solve the linear similarity system g1 P = P g2 blockwise over P
    rows = []
    for i in range(3):
        for j in range(3):
            for s in range(3):
                for t in range(3):
                    row = []
                    for k in range(3):
                        for l in range(3):
                            coeff = Scalar(0)
                            if l == j:
                                coeff = coeff + g1.block(i, k).entry(s, t)
                            if k == i:
                                coeff = coeff - g2.block(l, j).entry(s, t)
                            row.append(coeff)
                    rows.append(tuple(row))
    kernel = kernel_basis(Matrix.from_rows(tuple(rows)))
    assert kernel, "no similarity solution at all"
    found = False
    for cand in kernel:
        p = Matrix.from_rows([[cand.entry(3 * i + j, 0) for j in range(3)] for i in range(3)])
        if rank(p) == 3:
            found = True
            break
    assert found, "no invertible similarity in the solution space"


def test_adjoint_flip_involution():
    phi = specimen_form_ii()
    assert adjoint_flip(single_pair(2, unit(2, 0, 1), Matrix.identity(2))).pairs == (
        (Matrix.identity(2), unit(2, 0, 1)),
    )
    assert adjoint_flip(adjoint_flip(phi)).pairs == phi.pairs


def test_adjoint_flip_annihilates_specimen_images():
    phi = specimen_form_ii()
    flipped = adjoint_flip(phi)
    for s in range(50):
        x = random_matrix(3, derive_seed(95, s), 6)
        assert apply(flipped, apply(phi, x)).is_zero


def test_compose_is_zero_cases():
    zero = ElementaryOperator.zero(2)
    assert compose_is_zero(zero, zero)
    eye = Matrix.identity(2)
    ident_op = single_pair(2, eye, eye)
    assert not compose_is_zero(ident_op, ident_op)
    phi = specimen_form_iii()
    assert compose_is_zero(adjoint_flip(phi), phi)


def test_local_matrix_zero_argument():
    phi = specimen_form_ii()
    zeta = vector([1, 1, 1])
    assert local_matrix(phi, zeta, Matrix.zeros(3)) == Matrix.zeros(3)


def test_local_matrix_single_pair_with_vanishing_products():
    phi = single_pair(2, unit(2, 0, 1), unit(2, 0, 1))
    zeta = basis_vector(2, 1)  # a zeta = e1, nonzero
    x = random_matrix(2, 4, 5)
    assert local_matrix(phi, zeta, x) == Matrix.zeros(1)


def test_local_matrix_specimen_lands_in_exceptional_plane():
    # Derived: choose x mapping e1 -> g1 * zeta, e2 -> g2 * zeta, e3 -> 0
    # for zeta = (1,1,1); the restriction matrix is then the exceptional
    # pattern in the coefficients (g1, g2).
    phi = specimen_form_ii()
    zeta = vector([1, 1, 1])
    g1, g2 = Scalar(5), Scalar(-2)
    basis = Matrix.from_columns([basis_vector(3, 0), basis_vector(3, 1), basis_vector(3, 2)])
    images = Matrix.from_columns([vector([g1, g1, g1]), vector([g2, g2, g2]), zero_vector(3)])
    x = images @ inverse(basis)
    local = local_matrix(phi, zeta, x)
    expected = Matrix.from_rows(
        [[0, g2, 0], [g1, 0, g2], [0, -1 * g1, 0]]
    )
    assert local == expected
    # bridge property: the restriction is nilpotent because the operator
    # itself is certified locally nilpotent
    from elemop.classify import classify
    from elemop.exact import is_nilpotent_matrix

    verdict = classify(phi)
    assert verdict.status == "LQN" and verdict.form == "special-ii"
    assert is_nilpotent_matrix(local)
    # postcondition: the matrix represents phi(x) on span{a_i zeta}
    for j in range(3):
        a_j = phi.pairs[j][0]
        lhs = apply(phi, x) @ (a_j @ zeta)
        rhs = zero_vector(3)
        for i in range(3):
            a_i = phi.pairs[i][0]
            contrib = local.entry(i, j)
            rhs = rhs + contrib * (a_i @ zeta)
        assert lhs == rhs


def test_local_matrix_rejects_bad_preconditions():
    phi = specimen_form_ii()
    zeta = vector([1, 1, 1])
    with pytest.raises(PreconditionError):
        local_matrix(phi, zeta, Matrix.identity(3))  # x b_i a_j zeta leaves the line
    dependent = ElementaryOperator.from_pairs(
        3, [(unit(3, 0, 0), unit(3, 1, 1)), (unit(3, 0, 0) * 2, unit(3, 2, 2))]
    )
    with pytest.raises(PreconditionError):
        local_matrix(dependent, basis_vector(3, 0), Matrix.zeros(3))


def test_sum_bi_ai_examples():
    assert sum_bi_ai(single_pair(2, unit(2, 0, 1), unit(2, 0, 1))).is_zero
    eye = Matrix.identity(2)
    assert sum_bi_ai(single_pair(2, eye, eye)) == eye
    assert sum_bi_ai(specimen_form_iii()).is_zero

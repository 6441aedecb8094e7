"""Nilpotency deciders, flags, the plane dichotomy, block flags."""

import hashlib
import importlib
import inspect
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemop.errors import ContractError, DomainError, InconsistencyError
from elemop.exact import (
    Matrix,
    Scalar,
    basis_vector,
    char_poly,
    derive_seed,
    inverse,
    is_nilpotent_matrix,
    lambda_power,
    random_invertible,
    I_UNIT,
    ONE,
    ZERO,
    random_matrix,
    rank,
    trace,
)
from elemop import certificate, nilpotency
from elemop.classify import classify
from elemop.serialize import verdict_to_json
from elemop.nilpotency import (
    Flag,
    NotTriangularizable,
    SPECIAL_PLANE_FIRST,
    SPECIAL_PLANE_SECOND,
    SpecialForm,
    _first_nonzero_trace,
    all_x_nilpotent,
    block_strict_triangularize,
    classify_nilpotent_2dim_m3,
    gerstenhaber_check,
    refutes,
    strict_triangularize,
    subspace_all_nilpotent,
    special_plane_form,
    special_plane_member,
    witness_search,
)
from elemop.operators import (
    ElementaryOperator,
    apply,
    gram,
    maps_equal,
    minimal_length,
    sum_bi_ai,
)
from elemop.spaces import reduce_basis
from conftest import (
    pair,
    pair_sum,
    reference_rank,
    single_pair,
    specimen_form_ii,
    strictly_upper_basis,
    unit,
)


def special_plane_space():
    return reduce_basis([SPECIAL_PLANE_FIRST, SPECIAL_PLANE_SECOND])


def conjugated_space(space, q):
    q_inv = inverse(q)
    return reduce_basis([q_inv @ m @ q for m in space.basis])


def _rows(columns):
    """The d x 1 columns as Scalar rows, for `reference_rank`."""
    return [c.transpose().row(0) for c in columns]


def _traceless(x):
    """x less (tr x / d) I, the trace divided on its pair of Fractions."""
    t, d = pair(trace(x)), x.rows
    return x - Scalar(t[0] / d, t[1] / d) * Matrix.identity(d)


def test_is_nilpotent_examples():
    assert is_nilpotent_matrix(Matrix.from_rows([[0, 1], [0, 0]]))
    assert not is_nilpotent_matrix(Matrix.identity(2))
    m = Matrix.from_rows([[0, 1, 0], [1, 0, 1], [0, -1, 0]])
    assert (m @ m @ m).is_zero  # oracle
    assert is_nilpotent_matrix(m)


def test_subspace_strictly_upper_certified():
    space = reduce_basis(strictly_upper_basis(3))
    report = subspace_all_nilpotent(space)
    assert report.all_nilpotent and report.method == "exact-grid"


def test_subspace_single_projection_refuted():
    report = subspace_all_nilpotent(reduce_basis([unit(2, 0, 0)]))
    assert not report.all_nilpotent
    assert report.counterexample is not None
    assert char_poly(report.counterexample) != lambda_power(2)


def test_subspace_special_plane_certified():
    # Every member has vanishing trace powers; the certificate confirms it
    # and direct cubes give an independent oracle.
    for alpha, beta in [(1, 0), (0, 1), (2, 3), (-1, 5)]:
        member = special_plane_member(alpha, beta)
        assert member.power(3).is_zero
    report = subspace_all_nilpotent(special_plane_space())
    assert report.all_nilpotent and report.method == "exact-grid"


def test_counterexample_searches_the_support_of_the_first_nonzero_trace(monkeypatch):
    # E01 E12 E20 is the cycle 0 -> 1 -> 2 -> 0, so the first nonzero
    # trace is t0 t1 t2 at p = 3 and E13 stays out of the support: the
    # search tests points of {0..3}^3 only, at most 64 of them.
    space = reduce_basis([unit(4, 0, 1), unit(4, 1, 2), unit(4, 2, 0), unit(4, 1, 3)])
    assert _first_nonzero_trace(space) == (0, 1, 2)
    tested = []
    real = nilpotency.is_nilpotent_matrix

    def counting(m):
        tested.append(m)
        return real(m)

    monkeypatch.setattr(nilpotency, "is_nilpotent_matrix", counting)
    report = subspace_all_nilpotent(space)
    assert not report.all_nilpotent and report.method == "exact-grid"
    assert len(tested) <= 4**3
    assert report.counterexample == unit(4, 0, 1) + unit(4, 1, 2) + unit(4, 2, 0)
    assert char_poly(report.counterexample) != lambda_power(4)


def test_counterexample_is_the_first_basis_element_with_a_trace():
    space = reduce_basis([unit(3, 0, 1), unit(3, 2, 2) + unit(3, 0, 2), unit(3, 1, 1)])
    assert _first_nonzero_trace(space) == (1,)
    assert subspace_all_nilpotent(space).counterexample == space.basis[1]


@pytest.mark.parametrize("scale", [ONE, I_UNIT])
def test_a_basis_trace_is_read_before_any_column_is_built(monkeypatch, scale):
    # the swapped benchmark spaces exit here: level 1 is read off the
    # stored grids, so no row list, column, vec or product is made
    space = reduce_basis([scale * n for n in (unit(3, 0, 1), unit(3, 2, 2) + unit(3, 0, 2))])

    def forbidden(*args):
        raise AssertionError("built before the level-1 traces were read")

    for name in ("_rows", "_columns", "_vec", "int_matmul", "gaussian_int_matmul"):
        monkeypatch.setattr(nilpotency, name, forbidden)
    assert _first_nonzero_trace(space) == (1,)


def test_subspace_zero_space():
    report = subspace_all_nilpotent(reduce_basis([], ambient_dim=2))
    assert report.all_nilpotent and report.method == "exact-grid"


def test_subspace_conjugated_triangular_soundness():
    for s in range(30):
        m = 3 + s % 2
        q = random_invertible(m, derive_seed(200, s), 4)
        space = conjugated_space(reduce_basis(strictly_upper_basis(m)), q)
        tri = strict_triangularize(space)
        assert isinstance(tri, Flag)
        report = subspace_all_nilpotent(space)
        assert report.all_nilpotent and report.method == "exact-grid"


def test_gerstenhaber_examples():
    assert gerstenhaber_check(reduce_basis(strictly_upper_basis(3)))
    assert gerstenhaber_check(special_plane_space())


def test_gerstenhaber_rejects_non_nilpotent_input():
    with pytest.raises(ContractError):
        gerstenhaber_check(reduce_basis([unit(2, 0, 0)]))


def test_gerstenhaber_dim_four_candidates_always_refuted():
    # No 4-dimensional all-nilpotent space exists in M_3: every attempt to
    # extend the strictly uppers by an independent matrix is refuted.
    base = strictly_upper_basis(3)
    for s in range(10):
        extra = random_matrix(3, derive_seed(210, s), 4)
        space = reduce_basis(base + [extra])
        if space.dim != 4:
            continue
        report = subspace_all_nilpotent(space)
        assert not report.all_nilpotent
        assert char_poly(report.counterexample) != lambda_power(3)


def test_strict_triangularize_upper_space():
    space = reduce_basis(strictly_upper_basis(3))
    flag = strict_triangularize(space)
    assert isinstance(flag, Flag)
    assert flag.vectors == (basis_vector(3, 0), basis_vector(3, 1), basis_vector(3, 2))


def test_strict_triangularize_special_plane_fails_at_stage_one():
    # Oracle: ker(first) = span{e3}, ker(second) = span{e1}, intersection 0.
    from elemop.exact import kernel_basis

    k1 = kernel_basis(SPECIAL_PLANE_FIRST)
    k2 = kernel_basis(SPECIAL_PLANE_SECOND)
    assert k1 == [basis_vector(3, 2)] and k2 == [basis_vector(3, 0)]
    assert reference_rank(_rows(k1 + k2)) == 2  # no common direction
    result = strict_triangularize(special_plane_space())
    assert isinstance(result, NotTriangularizable) and result.stage == 1


def test_strict_triangularize_zero_space():
    flag = strict_triangularize(reduce_basis([], ambient_dim=2))
    assert isinstance(flag, Flag)
    assert flag.vectors == (basis_vector(2, 0), basis_vector(2, 1))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_strict_triangularize_gaussian_conjugated_upper(d):
    # Basis P U_k P^-1 with U_k strictly upper Gaussian rationals of
    # growing height, so the elements carry different denominators and
    # nonzero imaginary parts.  The space is all strictly uppers, whose
    # only invariant flag is spanned by the leading columns of P.
    p = _gaussian_invertible(d, derive_seed(280, d))
    p_inv = inverse(p)
    uppers = []
    for k in range(d * (d - 1) // 2):
        g = _gaussian_matrix(d, derive_seed(281, 10 * d + k), 3 + k)
        uppers.append(Matrix.from_rows(
            [[c if j > i else ZERO for j, c in enumerate(row)] for i, row in enumerate(g.entries)]
        ))
    space = reduce_basis([p @ u @ p_inv for u in uppers])
    assert space.dim == d * (d - 1) // 2
    assert len({t.den for t in space.basis}) > 1 or d == 2
    assert all(any(map(any, t.im)) for t in space.basis)
    flag = strict_triangularize(space)
    assert isinstance(flag, Flag)
    p_cols = [p.column(j) for j in range(d)]
    for j in range(1, d + 1):
        assert rank(Matrix.from_columns(list(flag.vectors[:j]) + p_cols[:j])) == j
    f = Matrix.from_columns(list(flag.vectors))
    f_inv = inverse(f)
    for t in space.basis:
        conj = f_inv @ t @ f
        assert all(conj.entry(i, j).is_zero for i in range(d) for j in range(i + 1))
    # one lower corner closes a cycle: no common kernel vector at stage 1
    corner = p @ Matrix.unit(d, d - 1, 0) @ p_inv
    result = strict_triangularize(reduce_basis(list(space.basis) + [corner]))
    assert isinstance(result, NotTriangularizable) and result.stage == 1


def test_flag_invariant_holds_on_output():
    for s in range(10):
        q = random_invertible(3, derive_seed(220, s), 4)
        space = conjugated_space(reduce_basis(strictly_upper_basis(3)), q)
        flag = strict_triangularize(space)
        assert isinstance(flag, Flag)
        prefix = []
        for k, v in enumerate(flag.vectors):
            lower_rank = reference_rank(_rows(prefix))
            for t in space.basis:
                image = t @ v
                assert reference_rank(_rows(prefix + [image])) == lower_rank
            prefix.append(v)


@pytest.mark.parametrize(
    "basis, order",
    [
        # a valid strictly-upper flag handed over in reverse order
        (strictly_upper_basis(3), [2, 1, 0]),
        # fails on the diagonal only: E_00 fixes e_0
        ([unit(2, 0, 0)], [0, 1]),
        # fails on the imaginary grid only: i E_10 sends e_0 to i e_1
        ([I_UNIT * unit(2, 1, 0)], [0, 1]),
    ],
    ids=["reversed", "diagonal", "imaginary"],
)
def test_check_flag_rejects_a_broken_flag(basis, order):
    space = reduce_basis(basis)
    flag = Flag(tuple(basis_vector(space.ambient_dim, i) for i in order))
    with pytest.raises(InconsistencyError, match="flag invariant failed"):
        nilpotency._check_flag(space, flag)


def test_classify_plane_triangularizable():
    space = reduce_basis([unit(3, 0, 1), unit(3, 0, 2)])
    outcome = classify_nilpotent_2dim_m3(space)
    assert isinstance(outcome, Flag)


def test_classify_plane_special_family_identity_conjugator():
    outcome = classify_nilpotent_2dim_m3(special_plane_space())
    assert isinstance(outcome, SpecialForm)
    assert outcome.conjugator == Matrix.identity(3)
    assert outcome.first == SPECIAL_PLANE_FIRST
    assert outcome.second == SPECIAL_PLANE_SECOND


def test_classify_plane_recovers_conjugates():
    for s in range(12):
        q = random_invertible(3, derive_seed(230, s), 4)
        space = conjugated_space(special_plane_space(), q)
        outcome = classify_nilpotent_2dim_m3(space)
        assert isinstance(outcome, SpecialForm)
        p, p_inv = outcome.conjugator, inverse(outcome.conjugator)
        assert p_inv @ outcome.first @ p == SPECIAL_PLANE_FIRST
        assert p_inv @ outcome.second @ p == SPECIAL_PLANE_SECOND
        # the certified basis spans the input space
        assert reduce_basis([outcome.first, outcome.second]).dim == 2


def test_classify_plane_contract_errors():
    with pytest.raises(ContractError):
        classify_nilpotent_2dim_m3(reduce_basis(strictly_upper_basis(3)))
    with pytest.raises(ContractError):
        classify_nilpotent_2dim_m3(reduce_basis([unit(3, 0, 0), unit(3, 1, 1)]))


def test_special_plane_form_eliminates_once_per_question(elimination_calls):
    space = conjugated_space(special_plane_space(), random_invertible(3, 231, 4))
    elimination_calls.clear()
    form = special_plane_form(space)
    # the kernel of the second generator, then the conjugator's inverse,
    # which also decides that the conjugator is nonsingular
    assert len(elimination_calls) == 2
    p_inv = inverse(form.conjugator)
    assert p_inv @ form.first @ form.conjugator == SPECIAL_PLANE_FIRST


@pytest.mark.parametrize(
    "basis",
    [
        [unit(3, 0, 1)],
        strictly_upper_basis(3),
        [unit(4, 0, 1), unit(4, 1, 2)],
    ],
    ids=["line-in-m3", "3-dim-in-m3", "plane-in-m4"],
)
def test_special_plane_form_rejects_a_space_that_is_no_plane_in_m3(basis):
    # bad input is a broken contract, as in classify_nilpotent_2dim_m3;
    # InconsistencyError is kept for faults of the dichotomy itself
    with pytest.raises(ContractError, match="2-dimensional space of 3x3 matrices"):
        special_plane_form(reduce_basis(basis))


def test_special_plane_form_rejects_a_singular_conjugator():
    # The kernel of E01 + E22 is the line through e0, and E10 sends it to
    # e1, which E01 + E22 returns to e0; but E10 kills e1, so the third
    # conjugator column is zero.
    space = reduce_basis([unit(3, 1, 0), unit(3, 0, 1) + unit(3, 2, 2)])
    with pytest.raises(InconsistencyError, match="singular conjugator"):
        special_plane_form(space)


def test_block_flag_on_already_patterned_grid():
    phi = single_pair(2, unit(2, 0, 1), unit(2, 0, 1))  # b a = 0
    p = block_strict_triangularize(gram(phi))
    assert p is not None


def test_block_flag_recovers_scrambled_pattern():
    from elemop.classify import generate
    from elemop.operators import similarity_transform

    cases = [(3, 4, s) for s in range(6)]
    cases += [(n, d, 6 + n) for n in range(1, 6) for d in range(n + 1, 8)]
    for length, d, s in cases:
        phi = generate("i", length, d, seed=derive_seed(240, s))
        n, reduced = minimal_length(phi)
        assert n == length
        p = block_strict_triangularize(gram(reduced))
        assert p is not None
        g2 = gram(similarity_transform(reduced, p))
        for i in range(n):
            for j in range(i + 1):
                assert g2.block(i, j).is_zero
        verdict = classify(phi)
        assert verdict.status == "LQN" and verdict.form == ("pattern-i" if n >= 3 else "length2-zeros")
        assert verdict.representation.term_count == n


# sha256 of the block flags below as chosen by a separate quotient-and-
# kernel recursion on the block grid itself, an independent reference
# for P at lengths 1..5, which the goldens do not pin.
BLOCK_FLAG_DIGEST = "53cd26a0ff9bad20b6428b4d88e0c41cf41ffa93ba7ab94df60e3addd6ff4510"


def test_block_flag_bytes_pinned_on_generated_instances():
    from elemop.classify import generate

    cases = [("i", n, d) for n in range(1, 6) for d in (n + 1, n + 2)]
    cases += [("ii", 3, 3), ("ii", 3, 4), ("iii", 3, 4), ("iii", 3, 5)]
    cases += [("remark45", 3, 4), ("remark45", 3, 5), ("random", 2, 3), ("random", 3, 3)]
    digest = hashlib.sha256()
    found = 0
    for form, n, d in cases:
        for s in range(2):
            phi = generate(form, n, d, seed=derive_seed(270, s))
            _, reduced = minimal_length(phi)
            p = block_strict_triangularize(gram(reduced))
            found += p is not None
            digest.update(f"{form} {n} {d} {s}: {p!r}\n".encode())
    assert found == 20  # every pattern-i instance, and no other
    assert digest.hexdigest() == BLOCK_FLAG_DIGEST


def test_block_flag_rejects_specimen_grid():
    # Oracle: stage one needs w with sum_l w_l b_k a_l = 0 for all k; the
    # stacked system for the specimen has trivial kernel.
    from elemop.exact import kernel_basis

    phi = specimen_form_ii()
    g = gram(phi)
    rows = []
    for k in range(3):
        for s in range(3):
            for t in range(3):
                rows.append(tuple(g.block(k, l).entry(s, t) for l in range(3)))
    assert kernel_basis(Matrix.from_rows(tuple(rows))) == []
    assert block_strict_triangularize(g) is None


def test_all_x_nilpotent_certifies_square_zero_pair():
    phi = single_pair(2, unit(2, 0, 1), unit(2, 0, 1))
    verdict = classify(phi)
    assert verdict.status == "LQN" and verdict.form == "length2-zeros"
    assert verdict.representation.term_count == 1
    for s in range(10):
        x = random_matrix(2, derive_seed(250, s), 8)
        assert apply(phi, x).power(2).is_zero


def test_all_x_nilpotent_refutes_identity_pair():
    eye = Matrix.identity(2)
    verdict = classify(single_pair(2, eye, eye))
    assert verdict.status == "NotLQN"
    assert char_poly(apply(single_pair(2, eye, eye), verdict.witness)) != lambda_power(2)


def test_all_x_nilpotent_refutes_near_miss_family():
    from elemop.classify import generate

    phi = generate("remark45", 3, 4, seed=2)
    verdict = classify(phi)
    assert verdict.status == "NotLQN"
    assert refutes(phi, verdict.witness)


def test_all_x_nilpotent_sampling_mode_is_pure():
    # the sampling oracle is `witness_search` alone
    phi = specimen_form_ii()
    assert witness_search(phi, trials=25) is None


def test_all_x_nilpotent_zero_operator_by_mode():
    zero = single_pair(2, Matrix.identity(2), Matrix.zeros(2))
    assert minimal_length(zero)[0] == 0
    verdict = classify(zero)
    assert verdict.status == "LQN" and verdict.form == "length2-zeros"
    assert verdict.representation.term_count == 0
    assert verdict.evidence == {"branch": "zero operator"}
    # the old name is only a delegate to the one ladder
    assert verdict_to_json(all_x_nilpotent(zero), 2) == verdict_to_json(verdict, 2)
    # the sampling oracle shares no shortcut with the classifier
    assert witness_search(zero, trials=7) is None


def test_all_x_nilpotent_grid_tier_witnesses_dimension_two():
    e00, e11 = unit(2, 0, 0), unit(2, 1, 1)
    cases = [
        # the anti-diagonal pair: with no sampling the classifier proves
        # NotLQN, and the integer grid attaches the witness
        ([(e00, e11), (e11, e00)], 0),
        # the transpose map sum E_ij x E_ij: length 4 = d^2, so bijective
        ([(unit(2, i, j), unit(2, i, j)) for i in range(2) for j in range(2)], 200),
        ([(unit(2, i, j), unit(2, i, j)) for i in range(2) for j in range(2)], 0),
    ]
    for pairs, trials in cases:
        phi = ElementaryOperator.from_pairs(2, pairs)
        verdict = classify(phi, trials=trials)
        assert verdict.status == "NotLQN"
        assert refutes(phi, verdict.witness)
        assert certificate.verify_certificate(phi, verdict)
        # grid witnesses are integer matrices on {0..d}
        for row in verdict.witness.entries:
            for c in row:
                assert c.re.denominator == 1 and c.im == 0 and 0 <= c.re <= 2


def test_all_x_nilpotent_past_the_block_flag_is_probably_nilpotent():
    # special-ii on the leading 3 x 3 corner of M_5 plus x -> E23 x E33:
    # locally nilpotent at length 4, where the block flag fails and only
    # sampling is left
    from elemop.classify import generate

    def pad(m):
        return Matrix.from_rows([[*row, ZERO, ZERO] for row in m.entries] + [[ZERO] * 5] * 2)

    psi = generate("ii", 3, 3, seed=5)
    pairs = [(pad(a), pad(b)) for a, b in psi.pairs] + [(unit(5, 2, 3), unit(5, 3, 3))]
    phi = ElementaryOperator.from_pairs(5, pairs)
    assert minimal_length(phi)[0] == 4
    verdict = classify(phi, trials=20)
    assert verdict.status == "Unknown"
    assert verdict.evidence == {"branch": "no block flag past length 3", "trials": 20}


def test_all_x_nilpotent_refutes_structurally_without_a_second_search(monkeypatch):
    # the classifier's Unknown on a length-3 operator is a proof of NotLQN
    # that lacks a witness, reached with one search
    from elemop.classify import generate

    classify_module = importlib.import_module("elemop.classify")

    phi = generate("remark45", 3, 5, seed=1)
    searches = []
    search = nilpotency.witness_search

    def counting_search(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(nilpotency, "witness_search", counting_search)
    monkeypatch.setattr(classify_module, "witness_search", counting_search)
    verdict = classify(phi, trials=0)
    assert verdict.status == "Unknown" and verdict.witness is None
    assert verdict.evidence == {"branch": "pattern blocks are not rank one", "trials": 0}
    assert len(searches) == 1


def test_witness_search_reverifies():
    eye = Matrix.identity(3)
    found = witness_search(single_pair(3, eye, eye), trials=20, seed=1)
    assert found is not None
    x, trial = found
    assert trial >= 1
    assert refutes(single_pair(3, eye, eye), x)


def test_witness_search_stops_at_the_power_test(monkeypatch):
    # phi(x) = E01 x E00 - E11 x E01 = x_10 (E00 - E11): sum b_i a_i = 0 and
    # every image is traceless, so the power test alone decides each trial
    # and its hit is returned without a second nilpotency check
    from elemop import exact

    phi = ElementaryOperator.from_pairs(
        2, [(unit(2, 0, 1), unit(2, 0, 0)), (-1 * unit(2, 1, 1), unit(2, 0, 1))]
    )
    assert sum_bi_ai(phi).is_zero
    applied = []
    char_polys = []
    apply_phi = certificate.apply
    monkeypatch.setattr(certificate, "apply", lambda f, x: applied.append(x) or apply_phi(f, x))
    for module in (exact, nilpotency, certificate):
        monkeypatch.setattr(module, "char_poly", lambda m: char_polys.append(m), raising=False)
    found = witness_search(phi, trials=10, seed=0)
    assert found is not None and found[1] == 1
    assert not is_nilpotent_matrix(apply_phi(phi, found[0]))
    assert len(applied) == 1
    assert char_polys == []


def test_graded_product_single_part_square_zero():
    # x -> E01 x E01: the one product v_0 u_0 = E01 E01 vanishes, so every
    # product of two values of phi vanishes
    from elemop.classify import classify, verify_certificate

    phi = single_pair(2, unit(2, 0, 1), unit(2, 0, 1))
    verdict = classify(phi)
    assert verdict.form == "length2-zeros" and verify_certificate(phi, verdict)
    assert gram(verdict.representation).block(0, 0).is_zero
    for s in range(5):
        x = random_matrix(2, derive_seed(260, 2 * s), 5)
        y = random_matrix(2, derive_seed(260, 2 * s + 1), 5)
        assert (apply(phi, x) @ apply(phi, y)).is_zero


def test_graded_product_pattern_parts():
    # v_i u_j = 0 for i >= j makes every product of n + 1 = 4 values of phi
    # vanish: the word u_i1 x v_i1 u_i2 y v_i2 ... needs i1 < i2 < i3 < i4
    from elemop.classify import construct_triangular_rep, generate

    phi = generate("i", 3, 4, seed=31)
    rep = construct_triangular_rep(phi)
    assert rep is not None
    assert maps_equal(rep, phi)
    g = gram(rep)
    for i in range(3):
        for j in range(i + 1):
            assert g.block(i, j).is_zero
    for s in range(20):
        acc = Matrix.identity(4)
        for k in range(4):
            acc = acc @ apply(phi, random_matrix(4, derive_seed(270, 4 * s + k), 4))
        assert acc.is_zero


def test_graded_product_rejects_identity():
    # x -> x has v_0 u_0 = I, so the boundary rejects it as a zero pattern
    from elemop.classify import ClassificationVerdict, verify_certificate

    eye = Matrix.identity(2)
    phi = single_pair(2, eye, eye)
    check = verify_certificate(phi, ClassificationVerdict("LQN", "length2-zeros", phi))
    assert not check and check.failed == "zero pattern at block (0, 0)"


# -- the trace-identity expansion ----------------------------------------


def _ordered_word_walk(space):
    """Reference: for every multiset of size at most m, the sum of
    tr(N_w1 ... N_wp) over the ordered words w with that multiset must be
    zero; the basis is scaled to its integer grids first."""
    m = space.ambient_dim
    k = space.dim
    cleared = []
    for n in space.basis:
        re_g, im_g = n.re, n.im
        cleared.append(Matrix.from_rows(
            [[(re_g[i][j], im_g[i][j]) for j in range(m)] for i in range(m)]
        ))
    coeff_sums = {}

    def walk(prefix, used, depth):
        for i in range(k):
            prod_matrix = cleared[i] if prefix is None else prefix @ cleared[i]
            key = tuple(sorted(used + (i,)))
            coeff_sums[key] = pair_sum(coeff_sums.get(key, (0, 0)), pair(trace(prod_matrix)))
            if depth + 1 < m:
                walk(prod_matrix, used + (i,), depth + 1)

    walk(None, (), 0)
    return all(v == (0, 0) for v in coeff_sums.values())


def _gaussian_matrix(m, seed, height):
    """Gaussian-rational entries whose parts have denominators up to height."""
    re = random_matrix(m, derive_seed(seed, 1), height)
    im = random_matrix(m, derive_seed(seed, 2), height)
    return re + I_UNIT * im


def _gaussian_invertible(m, seed):
    for attempt in range(64):
        x = _gaussian_matrix(m, derive_seed(seed, attempt), 3)
        if rank(x) == m:
            return x
    raise AssertionError("no invertible sample")


CYCLIC_3 = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
# Two 2 x 2 blocks [[0, t1], [t2, 0]] and [[0, t1], [-t2, 0]]: the traces
# vanish up to p = 3, and the t1^2 t2^2 coefficient of the fourth power
# is 4 tr(N1^2 N2^2) + 2 tr((N1 N2)^2) = 0 + 4.
FIRST_NONZERO_P4 = [unit(4, 0, 1) + unit(4, 2, 3), unit(4, 1, 0) - unit(4, 3, 2)]


def _late_trace_cases():
    """(name, space, False) with the first nonzero trace at p = 3 and 4:
    CYCLIC_3 and FIRST_NONZERO_P4, their i and (1 + i) multiples, and a
    seeded conjugate of each, so both kernels meet the late levels."""
    cases = []
    for j, (name, mats) in enumerate(
        [("first-nonzero-p3", [CYCLIC_3]), ("first-nonzero-p4-mixed", FIRST_NONZERO_P4)]
    ):
        m = mats[0].rows
        multiples = [("", ONE), ("-times-i", I_UNIT), ("-times-1+i", Scalar(1, 1))]
        for t, (tag, c) in enumerate(multiples):
            space = reduce_basis([c * n for n in mats])
            q = random_invertible(m, derive_seed(340, 3 * j + t), 3)
            cases.append((name + tag, space, False))
            cases.append((name + tag + "-conjugated", conjugated_space(space, q), False))
    return cases


def _kernel_cases():
    """(name, space, all_nilpotent) covering both verdicts, Gaussian
    denominators and a first nonzero trace at p = 1, 2 and 3."""
    upper3 = conjugated_space(reduce_basis(strictly_upper_basis(3)), random_invertible(3, 306, 4))
    return [
        ("zero", reduce_basis([], ambient_dim=3), True),
        ("gaussian-denominators",
         reduce_basis([_gaussian_matrix(3, 302, 5), _gaussian_matrix(3, 303, 5)]), False),
        ("conjugated-upper-m3",
         conjugated_space(reduce_basis(strictly_upper_basis(3)), random_invertible(3, 304, 4)),
         True),
        ("conjugated-upper-m4-gaussian",
         conjugated_space(reduce_basis(strictly_upper_basis(4)), _gaussian_invertible(4, 305)),
         True),
        ("special-plane", special_plane_space(), True),
        ("first-nonzero-p1", reduce_basis([unit(3, 0, 1), unit(3, 2, 2)]), False),
        # E12 and E21 are both nilpotent; the t1 t2 coefficient of the
        # square, E12 E21 + E21 E12 = I, is the first nonzero trace.
        ("first-nonzero-p2", reduce_basis([unit(2, 0, 1), unit(2, 1, 0)]), False),
        # tr P = tr P^2 = 0 and tr P^3 = 3 for the cyclic permutation,
        # and FIRST_NONZERO_P4 first traces at p = 4; with multiples and
        # conjugates of both.
        *_late_trace_cases(),
        # Several nonzero coefficients on the first nonzero level, so the
        # order of the multisets decides beta: t0 t1 and t1^2 at p = 2
        # (tr(E01 E10) = 1, tr N^2 = 2), t0 t1^2 and t1^3 at p = 3
        # (tr(E01 P^2) = 1, tr P^3 = 3).
        ("several-nonzero-p2",
         reduce_basis([unit(2, 0, 1), unit(2, 1, 0) + unit(2, 0, 0) - unit(2, 1, 1)]), False),
        ("several-nonzero-p3", reduce_basis([unit(3, 0, 1), CYCLIC_3]), False),
        ("several-nonzero-p3-times-1+i",
         reduce_basis([Scalar(1, 1) * unit(3, 0, 1), Scalar(1, 1) * CYCLIC_3]), False),
        # tr(N1 N2 + N2 N1) = 2i, a purely imaginary first nonzero trace.
        ("imaginary-trace-p2", reduce_basis([unit(3, 0, 1), I_UNIT * unit(3, 1, 0)]), False),
        # A real conjugated upper basis with one element made complex: the
        # whole space takes the Gaussian path and stays nilpotent.
        ("mixed-real-and-complex",
         reduce_basis([*upper3.basis[:-1], Scalar(1, 1) * upper3.basis[-1]]), True),
    ]


@pytest.mark.parametrize(
    "space, expected", [pytest.param(s, e, id=name) for name, s, e in _kernel_cases()]
)
def test_trace_identities_match_ordered_word_walk(space, expected):
    assert (_first_nonzero_trace(space) is None) is expected
    assert _ordered_word_walk(space) is expected


def test_trace_identities_match_walk_on_seeded_spaces():
    # Traceless and conjugated-nilpotent generators, so the decision often
    # rests on levels above 1; both verdicts must occur.
    seen = set()
    for s in range(60):
        m = 2 + s % 3
        seed = derive_seed(320, s)
        q = random_invertible(m, derive_seed(seed, 0), 3)
        upper = conjugated_space(reduce_basis(strictly_upper_basis(m)), q).basis
        mats = list(upper[: 1 + s % len(upper)])
        if s % 4:
            x = random_matrix(m, derive_seed(seed, 1), 3)
            mats.append(_traceless(x))
        if s % 5 == 0:
            mats.append(_gaussian_matrix(m, derive_seed(seed, 2), 4))
        space = reduce_basis(mats)
        verdict = _first_nonzero_trace(space) is None
        assert verdict == _ordered_word_walk(space), s
        seen.add(verdict)
    assert seen == {True, False}


def _count_products(monkeypatch, kernel):
    """Rows of the left factor of every call of the named kernel made by
    the expansion; the other kernel must not be called at all."""
    calls = []
    real = getattr(nilpotency, kernel)

    def counting(*grids):
        calls.append(len(grids[0]))
        return real(*grids)

    def forbidden(*grids):
        raise AssertionError(f"the expansion took the other kernel than {kernel}")

    other = "gaussian_int_matmul" if kernel == "int_matmul" else "int_matmul"
    monkeypatch.setattr(nilpotency, kernel, counting)
    monkeypatch.setattr(nilpotency, other, forbidden)
    return calls


def test_trace_identities_stop_at_first_nonzero_level(monkeypatch):
    calls = _count_products(monkeypatch, "int_matmul")
    # A nonzero trace among the generators decides before any product.
    assert _first_nonzero_trace(reduce_basis([unit(4, 0, 1), unit(4, 3, 3)])) is not None
    assert calls == []
    # The cyclic permutation passes levels 1 and 2 and fails at the last
    # level, whose one product is a 1 x 1 trace.
    assert _first_nonzero_trace(reduce_basis([CYCLIC_3])) is not None
    assert calls == [3, 1]


def test_trace_identities_stop_at_first_nonzero_level_on_gaussian_grids(monkeypatch):
    calls = _count_products(monkeypatch, "gaussian_int_matmul")
    # i P has tr (iP) = tr (iP)^2 = 0 and tr (iP)^3 = -3i: the same levels
    # as P, on the real and imaginary grids.
    assert _first_nonzero_trace(reduce_basis([I_UNIT * CYCLIC_3])) is not None
    assert calls == [3, 1]


@pytest.mark.parametrize("kernel, scale", [("int_matmul", ONE), ("gaussian_int_matmul", I_UNIT)])
def test_trace_identities_make_one_kernel_call_per_multiset(monkeypatch, kernel, scale):
    # Conjugated strictly uppers of M_4, k = 6, all nilpotent: levels 2 and
    # 3 take one 4-row product per multiset, C(7, 2) + C(8, 3) = 21 + 56,
    # and the last level one 1-row product per level-3 multiset alpha,
    # C(8, 3) = 56, whose entries are the traces of alpha + (i,).  That
    # row product follows the product of S_alpha at once.
    upper = conjugated_space(reduce_basis(strictly_upper_basis(4)), random_invertible(4, 330, 4))
    space = reduce_basis([scale * n for n in upper.basis])
    calls = _count_products(monkeypatch, kernel)
    assert _first_nonzero_trace(space) is None
    assert calls == [4] * 21 + [4, 1] * 56


def _full_sum_first_trace(space):
    """Reference: the first multiset beta with tr S_beta nonzero, levels in
    increasing order and multisets in combinations_with_replacement order,
    with every S_beta, the last level's included, the full sum over the
    distinct i in beta of S_(beta - e_i) N_i on `Matrix` arithmetic."""
    m, k, basis = space.ambient_dim, space.dim, space.basis
    level = {(i,): n for i, n in enumerate(basis)}
    for p in range(1, m + 1):
        if p > 1:
            level = {
                beta: sum(
                    (level[beta[:j] + beta[j + 1:]] @ basis[beta[j]]
                     for j in map(beta.index, dict.fromkeys(beta))),
                    Matrix.zeros(m),
                )
                for beta in combinations_with_replacement(range(k), p)
            }
        first = next((beta for beta, s in level.items() if not trace(s).is_zero), None)
        if first is not None:
            return first
    return None


def _split_cycle(m, groups):
    """The cyclic permutation e_j -> e_(j+1 mod m) split by edges: edge j
    goes to basis element groups[j].  sum t_g N_g is a weighted cycle, so
    every trace below level m vanishes and level m holds the one monomial
    whose multiset is the sorted groups."""
    mats = [Matrix.zeros(m) for _ in range(max(groups) + 1)]
    for j, g in enumerate(groups):
        mats[g] = mats[g] + unit(m, (j + 1) % m, j)
    return mats


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 5),
    k=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    swap=st.sampled_from(["none", "traceless", "cycle"]),
    edges=st.lists(st.integers(0, 3), min_size=5, max_size=5),
)
def test_top_level_traces_match_the_full_sum(m, k, seed, swap, edges):
    # The last level reads tr S_beta from one row vec(S_alpha) times the
    # columns vec(N_i^T); the reference sums every S_beta in full.  A
    # traceless element replaces the last basis element, so that the
    # decision rests on levels above 1, or a conjugated cycle split over k
    # elements replaces them all, so that it rests on the last level with
    # repeated indices; real spaces take `int_matmul`, i S and (1 + i) S
    # `gaussian_int_matmul`.
    q = random_invertible(m, derive_seed(seed, 0), 3)
    q_inv = inverse(q)
    mats = [q_inv @ n @ q for n in strictly_upper_basis(m)[:k]]  # none at m = 1
    if swap == "traceless":
        x = random_matrix(m, derive_seed(seed, 1), 3)
        mats[-1:] = [_traceless(x)]
    elif swap == "cycle":
        mats = [q_inv @ n @ q for n in _split_cycle(m, [g % k for g in edges[:m]])]
    for c in (ONE, I_UNIT, Scalar(1, 1)):
        # ambient_dim: a swap for the zero matrix leaves the zero space
        space = reduce_basis([c * n for n in mats], ambient_dim=m)
        assert _first_nonzero_trace(space) == _full_sum_first_trace(space)


@pytest.mark.parametrize(
    "mats, first",
    [
        pytest.param([CYCLIC_3], (0, 0, 0), id="cyclic-3"),
        pytest.param([I_UNIT * CYCLIC_3], (0, 0, 0), id="cyclic-3-times-i"),
        pytest.param(_split_cycle(4, [1, 0, 1, 1]), (0, 1, 1, 1), id="split-cycle-4"),
        pytest.param(FIRST_NONZERO_P4, (0, 0, 1, 1), id="first-nonzero-p4"),
        pytest.param([unit(3, 0, 1), CYCLIC_3], (0, 1, 1), id="several-nonzero-p3"),
        pytest.param([unit(3, 0, 1), Scalar(1, 1) * CYCLIC_3], (0, 1, 1),
                     id="several-nonzero-p3-times-1+i"),
    ],
)
def test_top_level_reads_repeated_indices(mats, first):
    # beta with a repeated largest index: alpha = beta[:-1] already holds
    # that index, and the row of alpha starts at it.
    space = reduce_basis(mats)
    assert _first_nonzero_trace(space) == first
    assert _full_sum_first_trace(space) == first


def _streamed_level_order_cases():
    """(name, mats, earlier, first): the first nonzero trace is at level
    m-1, on the multiset first, while the earlier level-(m-1) multiset
    earlier already has a nonzero trace at level m, of earlier + (i,)
    for some i."""
    # CYCLIC_3 P has tr P = tr P^2 = 0 and tr P^3 = 3, so alpha = (0, 0)
    # has the level-3 trace of (0, 0, 0).  D = E00 - E11 has tr D = 0,
    # tr(P D) = 0 and tr D^2 = 2, so level 2 first traces at (1, 1).
    diagonal = unit(3, 0, 0) - unit(3, 1, 1)
    # The 4-cycle C = E10 + E21 + E32 + E03 has tr C^p = 0 for p < 4 and
    # tr C^4 = 4, so alpha = (0, 0, 0) has the level-4 trace of
    # (0, 0, 0, 0).  The 3-cycle Q = E10 + E21 + E02 has
    # tr Q = tr(C Q) = tr Q^2 = tr C^3 = 0, so level 3 first traces at
    # (0, 0, 1), since tr(C^2 Q) = 1.
    cycle_4 = _split_cycle(4, [0, 0, 0, 0])[0]
    cycle_3 = unit(4, 1, 0) + unit(4, 2, 1) + unit(4, 0, 2)
    return [
        ("m3", [CYCLIC_3, diagonal], (0, 0), (1, 1)),
        ("m4", [cycle_4, cycle_3], (0, 0, 0), (0, 0, 1)),
    ]


@pytest.mark.parametrize("scale", [ONE, I_UNIT, Scalar(1, 1)], ids=["S", "iS", "(1+i)S"])
@pytest.mark.parametrize(
    "mats, earlier, first",
    [pytest.param(mats, e, f, id=name) for name, mats, e, f in _streamed_level_order_cases()],
)
def test_streamed_top_level_keeps_level_order(monkeypatch, scale, mats, earlier, first):
    # The top level streams off level m-1: the row product of S_earlier
    # finds a nonzero level-m trace before S_first is built, and the loop
    # must still return first, a multiset of the lower level.
    space = reduce_basis([scale * n for n in mats])
    m = space.ambient_dim
    assert earlier < first and len(first) == m - 1
    # tr S_(earlier + (0,)) = tr N_0^m, the first nonzero trace of N_0 alone
    alone = reduce_basis([scale * mats[0]])
    assert _full_sum_first_trace(alone) == earlier + (0,)
    kernel = "int_matmul" if scale == ONE else "gaussian_int_matmul"
    calls = _count_products(monkeypatch, kernel)
    assert _first_nonzero_trace(space) == first
    # a top-level row product came before the product of S_first, the last
    assert 1 in calls and calls[-1] == m
    assert _full_sum_first_trace(space) == first
    assert _ordered_word_walk(space) is False


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(2, 5),
    k=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    swap=st.booleans(),
)
def test_trace_identities_agree_on_one_grid_and_on_gaussian_grids(m, k, seed, swap):
    # A real space takes the one-grid path; i S and (1 + i) S are the
    # same space over the Gaussian rationals and take the Gaussian path.
    q = random_invertible(m, derive_seed(seed, 0), 3)
    mats = list(conjugated_space(reduce_basis(strictly_upper_basis(m)), q).basis[:k])
    if swap:
        # a traceless element, so the decision rests on levels above 1
        x = random_matrix(m, derive_seed(seed, 1), 3)
        mats[-1] = _traceless(x)
    space = reduce_basis(mats)
    verdict = _first_nonzero_trace(space) is None
    assert not any(any(map(any, n.im)) for n in space.basis)
    for c in (I_UNIT, Scalar(1, 1)):
        # ambient_dim: a swap for the zero matrix leaves the zero space
        multiple = reduce_basis([c * n for n in space.basis], ambient_dim=m)
        assert (_first_nonzero_trace(multiple) is None) is verdict
    if not swap:
        assert verdict is True


def test_trace_identities_against_sympy_expansion():
    sympy = pytest.importorskip("sympy")

    def to_sympy(x):
        return sympy.Matrix([
            [sympy.Rational(e.re.numerator, e.re.denominator)
             + sympy.I * sympy.Rational(e.im.numerator, e.im.denominator) for e in row]
            for row in x.entries
        ])

    for name, space, _ in _kernel_cases():
        if space.dim == 0 or space.dim * space.ambient_dim > 12:
            continue
        m = space.ambient_dim
        t = sympy.symbols(f"t0:{space.dim}")
        element = sympy.zeros(m, m)
        for ti, n in zip(t, space.basis):
            element += ti * to_sympy(n)
        power = sympy.eye(m)
        vanish = True
        first = None
        for p in range(1, m + 1):
            power = (power * element).expand()
            coefficients = sympy.Poly(power.trace(), *t).as_dict()
            if coefficients:
                vanish = False
                # lowest p first, then combinations_with_replacement order
                first = next(
                    beta
                    for beta in combinations_with_replacement(range(space.dim), p)
                    if coefficients.get(tuple(map(beta.count, range(space.dim))), 0) != 0
                )
                break
        assert (_first_nonzero_trace(space) is None) is vanish, name
        assert _first_nonzero_trace(space) == first, name


def _level_left_contents(monkeypatch, space):
    """For each level p = 2..m-1, the gcd of every entry of the joined
    left factors of the m-row products that build it, both grids of a
    Gaussian factor counted; the expansion must find the space nil."""
    m, k = space.ambient_dim, space.dim
    lefts = []
    for name, parts in (("int_matmul", 1), ("gaussian_int_matmul", 2)):
        real = getattr(nilpotency, name)

        def recording(*grids, real=real, parts=parts):
            lefts.append(grids[:parts])
            return real(*grids)

        monkeypatch.setattr(nilpotency, name, recording)
    assert _first_nonzero_trace(space) is None
    monkeypatch.undo()
    products = [left for left in lefts if len(left[0]) == m]
    contents = []
    for p in range(2, m):
        size = comb(k + p - 1, p)
        level, products = products[:size], products[size:]
        contents.append(gcd(*(x for left in level for grid in left for row in grid for x in row)))
    assert products == []
    return contents


@pytest.mark.parametrize("scale", [ONE, I_UNIT, Scalar(1, 1)], ids=["S", "iS", "(1+i)S"])
@pytest.mark.parametrize("m", [5, 6])
def test_stored_levels_are_divided_by_their_content(monkeypatch, scale, m):
    # Each stored level p = 2..m-2 is divided by the gcd of its entries,
    # so the left factors that build level p + 1 >= 3, which are that
    # level's S_alpha, have gcd 1 together.  Undivided, the conjugator's
    # determinant piles up there: tens of bits at M_5 and M_6.  Level 1,
    # the basis, is left as it is.
    q = random_invertible(m, derive_seed(360, m), 4)
    space = reduce_basis([scale * n for n in conjugated_space(
        reduce_basis(strictly_upper_basis(m)), q).basis])
    contents = _level_left_contents(monkeypatch, space)
    assert contents[1:] == [1] * (m - 3)


def test_level_content_is_common_to_both_gaussian_grids(monkeypatch):
    # (2 + i) S for a real nil space S of M_4: level 2 is (3 + 4i) times
    # that of S, so after the division by the gcd of both grids its real
    # grid keeps the factor 3 and its imaginary grid the factor 4.  The
    # real grid's gcd alone would not divide the imaginary grid.
    q = random_invertible(4, derive_seed(361, 0), 4)
    real = conjugated_space(reduce_basis(strictly_upper_basis(4)), q)
    space = reduce_basis([Scalar(2, 1) * n for n in real.basis])
    level_3 = []
    kernel = nilpotency.gaussian_int_matmul

    def recording(a_re, a_im, *columns):
        if len(a_re) == 4:
            level_3.append((a_re, a_im))
        return kernel(a_re, a_im, *columns)

    monkeypatch.setattr(nilpotency, "gaussian_int_matmul", recording)
    assert _first_nonzero_trace(space) is None
    monkeypatch.undo()
    level_3 = level_3[comb(6 + 1, 2):]
    assert len(level_3) == comb(6 + 2, 3)
    assert gcd(*(x for re, _ in level_3 for row in re for x in row)) == 3
    assert gcd(*(x for _, im in level_3 for row in im for x in row)) == 4
    assert _full_sum_first_trace(space) is None


@pytest.mark.parametrize("scale", [ONE, I_UNIT], ids=["S", "iS"])
@pytest.mark.parametrize("m", [4, 5])
def test_an_all_zero_stored_level_is_left_alone(monkeypatch, scale, m):
    # E01 and E23 have no nonzero product, so level 2 and every level
    # after it are zero: their gcd is 0 and nothing is divided.
    space = reduce_basis([scale * unit(m, 0, 1), scale * unit(m, 2, 3)])

    def forbidden(*args):
        raise AssertionError("an all-zero level was divided")

    monkeypatch.setattr(nilpotency, "_divide", forbidden)
    assert _first_nonzero_trace(space) is None
    assert _level_left_contents(monkeypatch, space)[1:] == [0] * (m - 3)
    assert _full_sum_first_trace(space) is None


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(4, 6),
    k=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    swap=st.sampled_from(["none", "traceless", "cycle"]),
    edges=st.lists(st.integers(0, 3), min_size=6, max_size=6),
)
def test_divided_levels_keep_the_first_nonzero_trace(m, k, seed, swap, edges):
    # Dividing a whole level by one positive integer divides every later
    # level by it too, so each later trace is a positive multiple of the
    # true one: the first nonzero beta is the reference's, on height-4
    # conjugators whose determinants leave a large content on every level.
    q = random_invertible(m, derive_seed(seed, 0), 4)
    q_inv = inverse(q)
    mats = [q_inv @ n @ q for n in strictly_upper_basis(m)[:k]]
    if swap == "traceless":
        x = random_matrix(m, derive_seed(seed, 1), 4)
        mats[-1:] = [_traceless(x)]
    elif swap == "cycle":
        mats = [q_inv @ n @ q for n in _split_cycle(m, [g % k for g in edges[:m]])]
    for c in (ONE, I_UNIT, Scalar(1, 1)):
        space = reduce_basis([c * n for n in mats], ambient_dim=m)
        assert _first_nonzero_trace(space) == _full_sum_first_trace(space)


@pytest.mark.parametrize("scale", [ONE, I_UNIT, Scalar(1, 1)], ids=["S", "iS", "(1+i)S"])
def test_trace_identities_build_no_scalar_or_fraction(monkeypatch, scale):
    # The whole expansion, divisions included, runs on integer grids: on
    # a nil space, and on one whose first nonzero trace is at level 5.
    q = random_invertible(5, derive_seed(362, 0), 4)
    q_inv = inverse(q)
    upper = [scale * (q_inv @ n @ q) for n in strictly_upper_basis(5)]
    cycle = [scale * (q_inv @ n @ q) for n in _split_cycle(5, [0, 1, 2, 1, 0])]
    spaces = [reduce_basis(upper), reduce_basis(cycle)]
    expected = [None, (0, 0, 1, 1, 2)]
    assert [_full_sum_first_trace(space) for space in spaces] == expected

    def forbidden(*args, **kwargs):
        raise AssertionError("the expansion built a Scalar or a Fraction")

    monkeypatch.setattr(Scalar, "__post_init__", forbidden)
    monkeypatch.setattr(Fraction, "__new__", forbidden)
    assert [_first_nonzero_trace(space) for space in spaces] == expected


def test_subspace_budget_counts_the_multiset_recursion(monkeypatch):
    # Conjugated strictly uppers of M_4: k = 6, so the gate counts the
    # expansion's work, 6 * C(6, 1) + 6 * C(7, 2) = 162 products S_alpha N_i
    # at levels 2 and 3 and C(9, 4) = 126 traces at level 4, 288 in all
    # (the full recursion's 6 * C(9, 3) = 504, the ordered words' 1554).
    space = conjugated_space(reduce_basis(strictly_upper_basis(4)), random_invertible(4, 330, 4))
    monkeypatch.setattr(nilpotency, "DEFAULT_SUBSPACE_BUDGET", 288)
    report = subspace_all_nilpotent(space)
    assert report.all_nilpotent and report.method == "exact-grid"
    monkeypatch.setattr(nilpotency, "DEFAULT_SUBSPACE_BUDGET", 287)
    with pytest.raises(DomainError, match=r"takes 288 products, above the budget of 287$"):
        subspace_all_nilpotent(space)


@pytest.mark.parametrize("kernel, scale", [("int_matmul", ONE), ("gaussian_int_matmul", I_UNIT)])
@pytest.mark.parametrize(
    "m, k", [(m, k) for m in range(2, 7) for k in range(1, 6) if k <= m * (m - 1) // 2]
)
def test_budget_gate_counts_the_work_of_the_expansion(monkeypatch, kernel, scale, m, k):
    # On a nil space every level is built and every top-level trace read,
    # so the gate's count is exactly the work done: a level product holds
    # one S_alpha N_i per block of m rows of its stacked right factor, and
    # a 1-row product one top-level trace per column.  (m, k) runs over
    # {2..6} x {1..5} up to the dimension m(m-1)/2 that a nil space can
    # have.
    q = random_invertible(m, derive_seed(350, 10 * m + k), 3)
    space = reduce_basis([scale * n for n in conjugated_space(
        reduce_basis(strictly_upper_basis(m)[:k]), q).basis])
    assert space.dim == k
    work = []
    real = getattr(nilpotency, kernel)

    def counting(left, *grids):
        columns = grids[-2] if kernel == "gaussian_int_matmul" else grids[-1]
        work.append(len(columns) if len(left) == 1 else len(columns[0]) // m)
        return real(left, *grids)

    monkeypatch.setattr(nilpotency, kernel, counting)
    report = subspace_all_nilpotent(space)
    assert report.all_nilpotent and report.method == "exact-grid"
    done = sum(work)
    assert done == sum(k * comb(k + p - 2, p - 1) for p in range(2, m)) + comb(k + m - 1, m)
    # the gate lets the expansion run exactly when its budget covers that work
    monkeypatch.setattr(nilpotency, "DEFAULT_SUBSPACE_BUDGET", done)
    assert subspace_all_nilpotent(space).method == "exact-grid"
    monkeypatch.setattr(nilpotency, "DEFAULT_SUBSPACE_BUDGET", done - 1)
    over = rf"takes {done} products, above the budget of {done - 1}$"
    with pytest.raises(DomainError, match=over):
        subspace_all_nilpotent(space)


def test_subspace_strictly_upper_m6_is_decided_exactly():
    # k = 15: the expansion's work is 225 + 1800 + 10200 + 45900 products
    # at levels 2..5 and C(20, 6) = 38760 traces at level 6, 96885 in all,
    # inside the default budget (the full recursion's count, 232560, is not)
    assert list(inspect.signature(subspace_all_nilpotent).parameters) == ["space"]
    space = reduce_basis(strictly_upper_basis(6))
    assert space.dim == 15
    report = subspace_all_nilpotent(space)
    assert report.all_nilpotent and report.method == "exact-grid"


# -- nil spaces with no strictly triangularizing flag --------------------


def _embedded(grid, m):
    """The 3 x 3 integer grid in the top-left corner of an m x m matrix."""
    return Matrix.from_rows([[*row, *[0] * (m - 3)] for row in grid.re] + [[0] * m] * (m - 3))


def _special_plane_embedded(m):
    return [_embedded(SPECIAL_PLANE_FIRST, m), _embedded(SPECIAL_PLANE_SECOND, m)]


def _special_plane_plus_upper(m):
    """The special plane in the top-left 3 x 3 block, direct sum with the
    strictly upper (m-3) x (m-3) matrices in the bottom-right block."""
    upper = [unit(m, 3 + i, 3 + j) for i in range(m - 3) for j in range(i + 1, m - 3)]
    return [*_special_plane_embedded(m), *upper]


def _flagless_nil_cases():
    """(name, mats): nil spaces that admit no strictly triangularizing
    flag, as they are and conjugated, at m = 4..6."""
    shapes = [
        ("special-plane-m4", _special_plane_embedded(4)),
        ("special-plane-m5", _special_plane_embedded(5)),
        ("special-plane-plus-upper-m5", _special_plane_plus_upper(5)),
        ("special-plane-plus-upper-m6", _special_plane_plus_upper(6)),
    ]
    cases = []
    for j, (name, mats) in enumerate(shapes):
        q = random_invertible(mats[0].rows, derive_seed(370, j), 3)
        q_inv = inverse(q)
        cases.append((name, mats))
        cases.append((name + "-conjugated", [q_inv @ n @ q for n in mats]))
    return cases


def _sympy_traces_vanish(space):
    """Whether tr((sum t_i N_i)^p) is the zero polynomial for every
    p = 1..m, expanded in a sympy polynomial ring over QQ_I."""
    sympy = pytest.importorskip("sympy")
    m = space.ambient_dim
    _, *t = sympy.ring(f"t0:{space.dim}", sympy.QQ_I)

    def entry(x):
        return sympy.QQ_I(
            sympy.Rational(x.re.numerator, x.re.denominator),
            sympy.Rational(x.im.numerator, x.im.denominator),
        )

    element = [[sum(ti * entry(n.entries[r][c]) for ti, n in zip(t, space.basis)) for c in range(m)]
               for r in range(m)]
    power = element
    for p in range(1, m + 1):
        if p > 1:
            power = [[sum(power[r][j] * element[j][c] for j in range(m)) for c in range(m)]
                     for r in range(m)]
        if sum(power[r][r] for r in range(m)) != 0:
            return False
    return True


FLAGLESS_NIL_CASES = [pytest.param(mats, id=name) for name, mats in _flagless_nil_cases()]


@pytest.mark.parametrize("scale", [ONE, Scalar(1, 1)], ids=["S", "(1+i)S"])
@pytest.mark.parametrize("mats", FLAGLESS_NIL_CASES)
def test_nil_spaces_without_a_flag_are_decided_nil(scale, mats):
    # Every nilspace input is triangularizable; these are nil but have no
    # strictly triangularizing flag, since the special plane has none and
    # a flag of the whole space would restrict to one of the invariant
    # top-left block.
    space = reduce_basis([scale * n for n in mats])
    report = subspace_all_nilpotent(space)
    assert report.all_nilpotent and report.method == "exact-grid"
    assert isinstance(strict_triangularize(space), NotTriangularizable)
    assert _first_nonzero_trace(space) is None
    assert _full_sum_first_trace(space) is None
    if space.ambient_dim <= 4:
        assert _sympy_traces_vanish(space)


@pytest.mark.parametrize("scale", [ONE, Scalar(1, 1)], ids=["S", "(1+i)S"])
@pytest.mark.parametrize("swap", ["diagonal", "cycle"])
@pytest.mark.parametrize("mats", FLAGLESS_NIL_CASES)
def test_flagless_nil_spaces_with_a_swap_are_not_nil(scale, swap, mats):
    # One element swapped for a traceless non-nilpotent one: E00 - E11,
    # whose square has a trace, or the m-cycle, whose first trace is at
    # level m.
    m = mats[0].rows
    other = unit(m, 0, 0) - unit(m, 1, 1) if swap == "diagonal" else _split_cycle(m, [0] * m)[0]
    space = reduce_basis([scale * n for n in [*mats[:-1], other]])
    report = subspace_all_nilpotent(space)
    assert not report.all_nilpotent and report.method == "exact-grid"
    assert not is_nilpotent_matrix(report.counterexample)
    assert _first_nonzero_trace(space) == _full_sum_first_trace(space) is not None
    if m <= 4:
        assert not _sympy_traces_vanish(space)


# -- the multiset schedule -----------------------------------------------


def _tuple_walk(k, p):
    """Reference: level p built forward as beta = alpha + (i,) for
    i >= max alpha, with the distinct indices of beta and its parents
    beta - e_x as tuples, (alpha - e_x) + (i,) for each x in alpha and
    alpha for a new i."""
    level = {(): ((), ())}
    for _ in range(p):
        following = {}
        for alpha, (indices, parents) in level.items():
            start = alpha[-1] if alpha else 0
            for i in range(start, k):
                beta_indices, beta_parents = indices, [gamma + (i,) for gamma in parents]
                if i != start or not alpha:
                    beta_indices, beta_parents = indices + (i,), [*beta_parents, alpha]
                following[alpha + (i,)] = (beta_indices, tuple(beta_parents))
        level = following
    return level


@pytest.mark.parametrize("k", range(1, 6))
def test_schedule_parents_match_the_tuple_walk(k):
    for p in range(1, 7):
        below = list(combinations_with_replacement(range(k), p - 1))
        walk = _tuple_walk(k, p)
        schedule = nilpotency._level_schedule(k, p)
        assert [beta for beta, *_ in schedule] == list(walk)
        for beta, parents, indices, i in schedule:
            assert (indices, tuple(below[a] for a in parents)) == walk[beta]
            assert i == beta[-1]


def test_schedule_cache_size_is_the_documented_constant():
    assert nilpotency._level_schedule.cache_info().maxsize == nilpotency.SCHEDULE_CACHE_LEVELS
    assert "SCHEDULE_CACHE_LEVELS" in _first_nonzero_trace.__doc__


def test_a_walk_builds_no_schedule_above_its_first_nonzero_level():
    schedule = nilpotency._level_schedule
    # tr(E01 E10 + E10 E01) = 2 at level 2 of M_4, which has levels 1..3
    schedule.cache_clear()
    assert _first_nonzero_trace(reduce_basis([unit(4, 0, 1), unit(4, 1, 0)])) == (0, 1)
    assert schedule.cache_info().misses == schedule.cache_info().currsize == 2
    # a basis trace returns before the walk
    schedule.cache_clear()
    assert _first_nonzero_trace(reduce_basis([unit(4, 0, 0)])) == (0,)
    assert schedule.cache_info().currsize == 0
    # a nil space walks every level below the streamed top, then reads
    # them all from the cache
    schedule.cache_clear()
    upper = reduce_basis(strictly_upper_basis(4)[:2])
    assert _first_nonzero_trace(upper) is None
    cold = schedule.cache_info()
    assert cold.misses == cold.currsize == 3
    assert _first_nonzero_trace(upper) is None
    assert schedule.cache_info().hits == cold.hits + 3 and schedule.cache_info().misses == 3


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(4, 6),
    k=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    swap=st.sampled_from(["none", "traceless", "cycle"]),
    edges=st.lists(st.integers(0, 3), min_size=6, max_size=6),
)
def test_a_warm_schedule_returns_the_cold_beta(m, k, seed, swap, edges):
    # The shapes of test_divided_levels_keep_the_first_nonzero_trace, each
    # decided with an empty cache and then again from the cache.
    q = random_invertible(m, derive_seed(seed, 0), 4)
    q_inv = inverse(q)
    mats = [q_inv @ n @ q for n in strictly_upper_basis(m)[:k]]
    if swap == "traceless":
        x = random_matrix(m, derive_seed(seed, 1), 4)
        mats[-1:] = [_traceless(x)]
    elif swap == "cycle":
        mats = [q_inv @ n @ q for n in _split_cycle(m, [g % k for g in edges[:m]])]
    for c in (ONE, I_UNIT, Scalar(1, 1)):
        space = reduce_basis([c * n for n in mats], ambient_dim=m)
        nilpotency._level_schedule.cache_clear()
        cold = _first_nonzero_trace(space)
        assert _first_nonzero_trace(space) == cold == _full_sum_first_trace(space)

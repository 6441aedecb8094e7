"""Classifier: trace condition, canonical forms, generators, verifier."""

import dataclasses
import importlib
import json

import pytest

from elemop.certificate import CertificateCheck
from elemop.classify import (
    ClassificationVerdict,
    FormParameters,
    classify,
    construct_triangular_rep,
    dim_phi_x_squared_range,
    generate,
    necessary_trace_condition,
    structure_dimv1,
    verify_certificate,
)
from elemop.cli import build_parser
from elemop.errors import (
    ContractError,
    DimensionError,
    InconsistencyError,
    ShapeError,
    UnsupportedLengthError,
)
from elemop.exact import (
    Matrix,
    basis_vector,
    char_poly,
    derive_seed,
    inverse,
    lambda_power,
    random_invertible,
    random_matrix,
    vector,
    zero_vector,
)
from elemop.nilpotency import refutes, witness_search
from elemop.operators import (
    ElementaryOperator,
    adjoint_flip,
    apply,
    compose_is_zero,
    gram,
    minimal_length,
    maps_equal,
    sum_bi_ai,
    v_space,
)
from elemop.serialize import instance_to_json
from elemop.spaces import local_dimension
from conftest import dim_v1_operator, single_pair, specimen_form_ii, specimen_form_iii, unit


def test_trace_condition_examples():
    eye = Matrix.identity(2)
    assert not necessary_trace_condition(single_pair(2, eye, eye))
    phi = generate("i", 3, 4, seed=1)
    assert necessary_trace_condition(phi)
    assert necessary_trace_condition(specimen_form_iii())


def test_classify_length2_square_zero_pair():
    phi = single_pair(2, unit(2, 0, 1), unit(2, 0, 1))
    verdict = classify(phi)
    assert verdict.status == "LQN" and verdict.form == "length2-zeros"
    assert verify_certificate(phi, verdict)


def test_classify_length2_swap_pair_refuted():
    phi = ElementaryOperator.from_pairs(
        2, [(unit(2, 0, 0), unit(2, 1, 1)), (unit(2, 1, 1), unit(2, 0, 0))]
    )
    # oracle for the block flag failure: the four products are
    # b1 a1 = 0, b1 a2 = E22, b2 a1 = E11, b2 a2 = 0
    g = gram(phi)
    assert g.block(0, 0).is_zero and g.block(1, 1).is_zero
    assert g.block(0, 1) == unit(2, 1, 1) and g.block(1, 0) == unit(2, 0, 0)
    verdict = classify(phi)
    assert verdict.status == "NotLQN"
    assert refutes(phi, verdict.witness)


def test_classify_length2_zero_operator():
    verdict = classify(ElementaryOperator.zero(2))
    assert verdict.status == "LQN"
    assert verify_certificate(ElementaryOperator.zero(2), verdict)


def test_classify_length2_certificate_has_cor35_zeros():
    # the two kept products on and below the diagonal vanish, as does the
    # off product in flag order
    phi = generate("i", 2, 3, seed=9)
    verdict = classify(phi)
    assert verdict.status == "LQN"
    g = gram(verdict.representation)
    assert g.block(0, 0).is_zero and g.block(1, 0).is_zero and g.block(1, 1).is_zero


def test_construct_triangular_rep_recovery():
    for s in range(8):
        phi = generate("i", 3, 4, seed=derive_seed(300, s))
        rep = construct_triangular_rep(phi)
        assert rep is not None
        assert maps_equal(rep, phi)
        g = gram(rep)
        for i in range(3):
            for j in range(i + 1):
                assert g.block(i, j).is_zero


def test_construct_triangular_rep_none_for_specimen():
    assert construct_triangular_rep(specimen_form_ii()) is None


def test_construct_triangular_rep_single_square_zero():
    rep = construct_triangular_rep(single_pair(2, unit(2, 0, 1), unit(2, 0, 1)))
    assert rep is not None and gram(rep).block(0, 0).is_zero


def test_classify_length3_specimen_ii():
    phi = specimen_form_ii()
    verdict = classify(phi)
    assert verdict.status == "LQN" and verdict.form == "special-ii"
    assert verdict.parameters.zeta0 == vector([1, 0, 0])
    assert verdict.parameters.zeta1 == vector([0, 1, 0])
    assert verdict.parameters.f == vector([1, 0, 0])
    assert verify_certificate(phi, verdict)


def test_classify_length3_specimen_iii():
    phi = specimen_form_iii()
    verdict = classify(phi)
    assert verdict.status == "LQN" and verdict.form == "special-iii"
    assert verdict.parameters.zeta0 == vector([1, 0, 0, 0])
    assert verdict.parameters.f == vector([1, 0, 0, 0])
    assert verdict.parameters.g == vector([0, 1, 0, 0])
    assert verify_certificate(phi, verdict)


def test_classify_length3_near_miss_refuted():
    phi = generate("remark45", 3, 4, seed=8)
    verdict = classify(phi)
    assert verdict.status == "NotLQN"
    assert refutes(phi, verdict.witness)


def test_classify_length3_builds_and_triangularizes_the_slice_span_once(monkeypatch):
    classify_module = importlib.import_module("elemop.classify")
    calls = []
    for name in ("slice_span", "strict_triangularize"):
        original = getattr(classify_module, name)
        monkeypatch.setattr(
            classify_module, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
        )
    swap = ElementaryOperator.from_pairs(
        2, [(unit(2, 0, 0), unit(2, 1, 1)), (unit(2, 1, 1), unit(2, 0, 0))]
    )
    cases = [
        (single_pair(2, unit(2, 0, 1), unit(2, 0, 1)), "length2-zeros"),
        (swap, None),
        (generate("i", 2, 3, seed=9), "length2-zeros"),
        (specimen_form_ii(), "special-ii"),
        (generate("i", 3, 4, seed=1), "pattern-i"),
        (generate("remark45", 3, 4, seed=8), None),
    ]
    for phi, form in cases:
        calls.clear()
        verdict = classify(phi)
        assert verdict.form == form
        assert calls == ["slice_span", "strict_triangularize"]


def test_classify_factors_each_pattern_block_with_one_elimination(elimination_calls):
    # rank_one_factor decides rank one by reconstruction, so the special
    # rung eliminates for neither rank-one block, and only once for a
    # block that is not rank one, to name its rank
    cases = [
        (specimen_form_ii(), "shared functional", 8),
        (specimen_form_iii(), "shared column", 8),
        (generate("ii", 3, 8, 5), "shared functional", 8),
        (generate("remark45", 3, 8, 8), "pattern blocks are not rank one", 8),
    ]
    for phi, branch, eliminations in cases:
        elimination_calls.clear()
        verdict = classify(phi)
        assert verdict.evidence["branch"] == branch
        assert len(elimination_calls) == eliminations


def test_classify_dispatcher_unsupported_length(tmp_path):
    # classify decides every length; the classify command keeps its
    # length bound at the input boundary
    phi = generate("i", 4, 6, seed=3)
    verdict = classify(phi)
    assert verdict.status == "LQN" and verdict.form == "pattern-i"
    assert verdict.representation.term_count == 4
    path = tmp_path / "long.json"
    path.write_text(json.dumps(instance_to_json(phi)))
    args = build_parser().parse_args(["classify", str(path), "--out", str(tmp_path / "c.json")])
    with pytest.raises(UnsupportedLengthError):
        args.func(args)
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("n", [4, 5, 6])
def test_classify_certifies_pattern_i_past_length_three(n):
    phi = generate("i", n, n + 2, seed=derive_seed(330, n))
    verdict = classify(phi)
    assert verdict.status == "LQN" and verdict.form == "pattern-i"
    assert verdict.evidence == {"branch": "block flag"}
    assert verdict.representation.term_count == n
    assert verify_certificate(phi, verdict)


def test_classify_past_length_three_goes_through_the_trust_boundary(monkeypatch):
    classify_module = importlib.import_module("elemop.classify")
    monkeypatch.setattr(
        classify_module, "verify_certificate", lambda phi, verdict: CertificateCheck(False, "rejected")
    )
    with pytest.raises(InconsistencyError, match="rejected"):
        classify(generate("i", 4, 6, seed=3))


def test_classify_past_length_three_refutes_the_trace_condition():
    # the transpose map on M_3 has length 9 and sum b_i a_i = 3 I
    phi = ElementaryOperator.from_pairs(
        3, [(unit(3, i, j), unit(3, i, j)) for i in range(3) for j in range(3)]
    )
    verdict = classify(phi, trials=0)
    assert verdict.status == "NotLQN"
    assert verdict.evidence == {"branch": "trace condition", "trials": 0}
    assert verify_certificate(phi, verdict)


def test_classify_at_dimension_two_is_never_unknown():
    # every refutation at d <= 2 is proven, so with no sampling the grid
    # still finds its witness.  The last pair is fitted to make
    # sum b_i a_i = 0, so no refutation comes from the trace witness;
    # lengths 0..4 and every refuting branch of the ladder occur.
    branches = set()
    for s in range(120):
        pairs = [
            (random_matrix(2, derive_seed(s, 2 * i), 1), random_matrix(2, derive_seed(s, 2 * i + 1), 1))
            for i in range(s % 4)
        ]
        a = random_invertible(2, derive_seed(s, 99), 1)
        products = [b @ c for c, b in pairs]
        pairs.append((a, -sum(products, Matrix.zeros(2)) @ inverse(a)))
        phi = ElementaryOperator.from_pairs(2, pairs)
        assert sum_bi_ai(phi).is_zero
        verdict = classify(phi, trials=0)
        assert verdict.status in ("LQN", "NotLQN")
        assert verify_certificate(phi, verdict)
        branches.add(verdict.evidence["branch"])
    assert {
        "length2 block flag failed",
        "slice span has dimension 4",
        "no block flag past length 3",
    } <= branches


def test_classified_lqn_satisfies_trace_condition():
    for form, d, seed in [("i", 4, 5), ("ii", 3, 6), ("ii", 5, 7), ("iii", 4, 8), ("iii", 6, 9)]:
        phi = generate(form, 3, d, seed=seed)
        verdict = classify(phi)
        assert verdict.status == "LQN"
        assert sum_bi_ai(phi).is_zero


def test_classified_lqn_flip_composition_vanishes():
    for form, d, seed in [("ii", 3, 21), ("iii", 4, 22), ("i", 4, 23)]:
        phi = generate(form, 3, d, seed=seed)
        verdict = classify(phi)
        assert verdict.status == "LQN"
        assert compose_is_zero(adjoint_flip(phi), phi)


def test_local_dim_bound_on_lqn_instances():
    # with a separating-vector witness for the left space, the measured
    # local dimension of the product space stays within n(n-1)/2
    for seed in (31, 32, 33):
        phi = generate("i", 3, 4, seed=seed)
        n, reduced = minimal_length(phi)
        products = v_space(reduced)
        measured = local_dimension(products).value
        assert measured <= n * (n - 1) // 2


def test_structure_dimv1_lqn_instance():
    phi = dim_v1_operator(nilpotent_scalar_part=True)
    assert v_space(phi).dim == 1
    verdict = structure_dimv1(phi)
    assert verdict.status == "LQN" and verdict.form == "dimv1-block"
    r = verdict.parameters.r
    assert r == 2
    assert verify_certificate(phi, verdict)
    # exponent r + 2 on seeded probes
    for s in range(10):
        x = random_matrix(4, derive_seed(310, s), 6)
        assert apply(phi, x).power(r + 2).is_zero
    assert compose_is_zero(adjoint_flip(phi), phi)


def test_structure_dimv1_folds_a_tail_pair():
    # a_1 zeta and a_3 zeta both lie on e_1, so the left space has local
    # dimension 2 < 3 and one pair is a tail; every b_i kills e_1 and
    # sends e_2 into span{e_3}, so the products span the line e_3 e_0^T
    e = [basis_vector(4, i) for i in range(4)]
    z = zero_vector(4)
    phi = ElementaryOperator.from_pairs(
        4,
        [
            (e[1] @ e[0].transpose(), Matrix.from_columns([e[2], z, e[3], e[0]])),
            (e[2] @ e[0].transpose(), Matrix.from_columns([e[0], z, z, e[2]])),
            (e[1] @ e[3].transpose(), Matrix.from_columns([e[3], z, 2 * e[3], e[1]])),
        ],
    )
    assert minimal_length(phi)[0] == 3 and v_space(phi).dim == 1
    verdict = structure_dimv1(phi)
    assert verdict.status == "LQN" and verdict.form == "dimv1-block"
    assert verdict.parameters.r == 2 and verdict.representation.term_count == 3
    assert verify_certificate(phi, verdict)
    for s in range(10):
        x = random_matrix(4, derive_seed(311, s), 6)
        assert apply(phi, x).power(4).is_zero


def test_structure_dimv1_contract_error_on_other_dims():
    with pytest.raises(ContractError):
        structure_dimv1(specimen_form_ii())  # dim V = 2
    with pytest.raises(ContractError):
        structure_dimv1(single_pair(2, unit(2, 0, 1), unit(2, 0, 1)))  # dim V = 0


def test_structure_dimv1_single_pair_consistency():
    # single pair with b a of rank one: never locally nilpotent, and the
    # refutation agrees with the argument-sampling decision
    phi = single_pair(2, unit(2, 0, 0), unit(2, 1, 0))  # b a = E10 != 0, (ba)^2 = 0
    assert v_space(phi).dim == 1
    verdict = structure_dimv1(phi)
    assert verdict.status == "NotLQN"
    assert refutes(phi, verdict.witness)
    verdict = classify(phi)
    assert verdict.status == "NotLQN"
    assert refutes(phi, verdict.witness)


def test_structure_dimv1_refutes_and_matches_oracle():
    phi = dim_v1_operator(nilpotent_scalar_part=False)
    verdict = structure_dimv1(phi)
    assert verdict.status == "NotLQN"
    assert refutes(phi, verdict.witness)


def test_generate_pattern_i_classifies():
    phi = generate("i", 3, 4, seed=77)
    assert construct_triangular_rep(phi) is not None


def test_generate_special_ii_at_minimal_dimension():
    phi = generate("ii", 3, 3, seed=5)
    verdict = classify(phi)
    assert verdict.status == "LQN" and verdict.form == "special-ii"


def test_generate_near_miss_is_refuted_by_sampling():
    phi = generate("remark45", 3, 4, seed=13)
    assert necessary_trace_condition(phi)
    found = witness_search(phi, trials=100, seed=4)
    assert found is not None
    assert char_poly(apply(phi, found[0])) != lambda_power(4)


def test_generate_infeasible_dimensions():
    with pytest.raises(DimensionError):
        generate("ii", 3, 2, seed=1)
    with pytest.raises(DimensionError):
        generate("iii", 3, 3, seed=1)
    with pytest.raises(DimensionError):
        generate("remark45", 3, 3, seed=1)
    with pytest.raises(DimensionError):
        generate("i", 3, 3, seed=1)


def test_verify_accepts_valid_and_names_tampering():
    phi = specimen_form_ii()
    verdict = classify(phi)
    assert verify_certificate(phi, verdict)
    bumped = vector([0, 1, 1])  # tampered zeta1
    tampered = ClassificationVerdict(
        verdict.status,
        verdict.form,
        verdict.representation,
        parameters=FormParameters(
            zeta0=verdict.parameters.zeta0, zeta1=bumped, f=verdict.parameters.f
        ),
        evidence=verdict.evidence,
    )
    check = verify_certificate(phi, tampered)
    assert not check.ok and "block" in check.failed


@pytest.mark.parametrize("specimen, field, value", [
    (specimen_form_ii, "zeta1", (1, 0)),
    (specimen_form_ii, "f", (1, 0, 0, 0)),
    (specimen_form_iii, "g", (0, 1, 0)),
    (specimen_form_iii, "zeta0", (1, 0, 0, 0, 0)),
])
def test_verify_rejects_parameter_vectors_of_wrong_length(specimen, field, value):
    phi = specimen()
    verdict = classify(phi)
    ragged = ClassificationVerdict(
        verdict.status,
        verdict.form,
        verdict.representation,
        parameters=dataclasses.replace(verdict.parameters, **{field: vector(value)}),
    )
    check = verify_certificate(phi, ragged)
    assert not check.ok and check.failed == "parameter length"


@pytest.mark.parametrize("specimen, field", [
    (specimen_form_ii, "zeta1"),
    (specimen_form_ii, "f"),
    (specimen_form_iii, "g"),
    (specimen_form_iii, "zeta0"),
])
def test_verify_rejects_parameters_that_are_not_columns(specimen, field):
    # the right entries laid out as a 1 x d row, or as a d x d matrix
    phi = specimen()
    verdict = classify(phi)
    column = getattr(verdict.parameters, field)
    for value in (column.transpose(), Matrix.from_columns([column] * phi.dim)):
        bad = dataclasses.replace(
            verdict, parameters=dataclasses.replace(verdict.parameters, **{field: value})
        )
        check = verify_certificate(phi, bad)
        assert not check.ok and check.failed == "parameter length"


def test_verify_rejects_wrong_shape_representation():
    phi = generate("ii", 3, 4, seed=7)
    verdict = classify(phi)
    assert verdict.status == "LQN" and verify_certificate(phi, verdict)
    (u, v), *rest = verdict.representation.pairs
    # a representation is an operator, so every coefficient has its
    # dimension and only the dimension as a whole can be wrong
    for pair in ((Matrix.identity(1), v), (u, Matrix.identity(1))):
        with pytest.raises(ShapeError):
            ElementaryOperator(phi.dim, (pair, *rest))
    for rep in (ElementaryOperator.zero(3), generate("ii", 3, 3, seed=7)):
        bad = dataclasses.replace(verdict, representation=rep)
        check = verify_certificate(phi, bad)
        assert not check.ok and check.failed == "representation shape"


def test_verify_rejects_nilpotent_witness():
    eye = Matrix.identity(2)
    phi = single_pair(2, eye, eye)
    verdict = classify(phi)
    assert verdict.status == "NotLQN"
    fake = ClassificationVerdict("NotLQN", witness=Matrix.zeros(2))
    check = verify_certificate(phi, fake)
    assert not check.ok and check.failed == "witness image is nilpotent"


def test_dim_phi_x_squared_range():
    phi = specimen_form_ii()
    assert dim_phi_x_squared_range(phi, Matrix.zeros(3)) == 0
    for s in range(20):
        x = random_matrix(3, derive_seed(330, s), 8)
        assert dim_phi_x_squared_range(phi, x) <= 3
    # no bound asserted for the triangular form, just well-defined
    tri = generate("i", 3, 4, seed=41)
    x = random_matrix(4, 9, 5)
    assert dim_phi_x_squared_range(tri, x) >= 0


def test_generated_forms_power_five():
    for form, d, seed in [("ii", 3, 51), ("iii", 4, 52)]:
        phi = generate(form, 3, d, seed=seed)
        for s in range(10):
            x = random_matrix(d, derive_seed(340, 10 * seed + s), 6)
            assert apply(phi, x).power(5).is_zero

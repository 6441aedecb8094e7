"""Certificates re-checked by a checker that shares no code with elemop.

`naive_certificate_check` reads the instance and certificate files with
`json` and `fractions.Fraction` alone.  Every certificate that `classify`
writes here must pass it: the golden specs, criterion 08's corpus, the
benchmark's `large` forms at d = 8, and each of them with every left
coefficient times 1 + i, which makes the operator (1 + i) phi and sends
the kernels down their complex branches.  That scaling is done on the
instance's JSON with Fractions, so a fault in elemop's arithmetic cannot
leave the complex instance real, and since (1 + i) phi(x) is nilpotent
exactly when phi(x) is, both variants must get one status.  Tampered
certificates must fail the check, so a pass is not vacuous.

Its `decide` answers LQN or NotLQN from the instance alone, by the
simplex lattice, and must agree with `classify` on pinned cases at
d <= 3, on a derandomized sample of generated instances at d <= 3 and on
remark45 at d = 4, where a NotLQN walk stops early.  An
LQN walk at d = 4 visits all 3876 points and takes seconds, so no such
case is pinned here.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemop.classify import classify, generate
from elemop.operators import ElementaryOperator
from elemop.cli import main
from elemop.serialize import instance_from_json, instance_to_json

import naive_certificate_check
from naive_certificate_check import check, decide
from test_acceptance import _corpus_instance
from conftest import unit
from test_golden import GOLDEN

LARGE = [("ii", 3, 8), ("iii", 3, 8), ("remark45", 3, 8), ("i", 3, 8)]


def _instance(phi, variant):
    """The instance JSON of phi, with every a_i times 1 + i for the
    complex variant: (1 + i)(x + iy) = (x - y) + i(x + y)."""
    data = instance_to_json(phi)
    if variant == "complex":
        for pair in data["operator"]["pairs"]:
            pair["a"] = [
                [[str(Fraction(x) - Fraction(y)), str(Fraction(x) + Fraction(y))] for x, y in row]
                for row in pair["a"]
            ]
    return data


def _classified(tmp_path, data, seed, name="instance"):
    """The instance file of this JSON and the certificate file that the
    `classify` command writes for it."""
    inst = tmp_path / f"{name}.json"
    cert = tmp_path / f"{name}.cert.json"
    inst.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    assert main(["classify", str(inst), "--out", str(cert), "--seed", str(seed)]) in (0, 1, 3)
    return inst, cert


def _status(cert):
    return json.loads(Path(cert).read_text())["verdict"]["status"]


@pytest.mark.parametrize("spec", sorted(GOLDEN), ids=lambda s: f"{s[0]}-n{s[1]}-d{s[2]}-s{s[3]}")
def test_golden_certificates_pass_the_naive_check(tmp_path, spec):
    form, n, dim, seed = spec
    inst = tmp_path / "instance.json"
    cert = tmp_path / "certificate.json"
    args = ["--form", form, "--n", str(n), "--dim", str(dim), "--seed", str(seed)]
    assert main(["generate", *args, str(inst)]) == 0
    assert main(["classify", str(inst), "--out", str(cert), "--seed", str(seed)]) in (0, 1)
    assert check(inst, cert) is None
    data = _instance(generate(form, n, dim, seed), "complex")
    complex_inst, complex_cert = _classified(tmp_path, data, seed, "complex")
    assert check(complex_inst, complex_cert) is None
    assert _status(complex_cert) == _status(cert)


def test_criterion_08_corpus_passes_the_naive_check(tmp_path):
    statuses = {"LQN": 0, "NotLQN": 0, "Unknown": 0}
    for seed in range(1, 201):
        phi, _ = _corpus_instance(seed)
        seen = []
        for variant in ("real", "complex"):
            inst, cert = _classified(tmp_path, _instance(phi, variant), seed, variant)
            assert check(inst, cert) is None, (seed, variant)
            seen.append(_status(cert))
        assert seen[0] == seen[1], seed
        statuses[seen[0]] += 1
    assert statuses["LQN"] and statuses["NotLQN"]


@pytest.mark.parametrize("variant", ["real", "complex"])
@pytest.mark.parametrize("spec", LARGE, ids=lambda s: f"{s[0]}-d{s[2]}")
def test_large_forms_pass_the_naive_check(tmp_path, spec, variant):
    inst, cert = _classified(tmp_path, _instance(generate(*spec, 1), variant), 1)
    assert _status(cert) == ("NotLQN" if spec[0] == "remark45" else "LQN")
    assert check(inst, cert) is None


def _tampered(cert, change):
    data = json.loads(Path(cert).read_text())
    change(data["verdict"])
    cert.write_text(json.dumps(data))


def _first_u_entry(verdict):
    verdict["representation"]["u"][0][0][0] = ["12345", "0"]


def _zeta1_as_zeta0(verdict):
    verdict["parameters"]["zeta1"] = verdict["parameters"]["zeta0"]


def _u_reversed(verdict):
    verdict["representation"]["u"].reverse()


def _zero_witness(verdict):
    verdict["witness"] = [[["0", "0"]] * 4] * 4


@pytest.mark.parametrize(
    "form, change, failed",
    [
        ("ii", _first_u_entry, "reconstruction"),
        ("ii", lambda v: v.update(form="special-iii"), "parameters missing"),
        ("ii", _zeta1_as_zeta0, "zeta independence"),
        ("iii", lambda v: v.update(form="pattern-i"), "zero pattern"),
        ("i", lambda v: v.update(form="special-ii"), "parameters missing"),
        ("i", _u_reversed, "reconstruction"),
        ("remark45", _zero_witness, "witness image is nilpotent"),
        ("remark45", lambda v: v.pop("witness"), "witness missing"),
    ],
)
def test_the_naive_check_rejects_tampered_certificates(tmp_path, form, change, failed):
    inst, cert = _classified(tmp_path, _instance(generate(form, 3, 4, 7), "real"), 7)
    assert check(inst, cert) is None
    _tampered(cert, change)
    assert check(inst, cert).startswith(failed)


#: (form, n, d, seed) for `generate`, each decided by the lattice walk.
DECIDED = [
    ("i", 1, 2, 3),
    ("i", 2, 3, 4),
    ("ii", 3, 3, 5),
    ("ii", 3, 3, 6),
    ("random", 1, 2, 7),
    ("random", 2, 2, 8),
    ("random", 2, 3, 9),
    ("random", 3, 3, 10),
    ("remark45", 3, 4, 11),
]


def _decided_operators():
    # x -> x_10 E_01 is nilpotent everywhere; x -> x_00 E_00 nowhere
    yield pytest.param(ElementaryOperator.from_pairs(2, []), id="zero-d2")
    yield pytest.param(
        ElementaryOperator.from_pairs(2, [(unit(2, 0, 1), unit(2, 0, 1))]), id="e01-x-e01"
    )
    yield pytest.param(
        ElementaryOperator.from_pairs(2, [(unit(2, 0, 0), unit(2, 0, 0))]), id="e00-x-e00"
    )
    for form, n, d, seed in DECIDED:
        yield pytest.param(generate(form, n, d, seed), id=f"{form}-n{n}-d{d}-s{seed}")


DECIDED_OPERATORS = list(_decided_operators())


@pytest.mark.parametrize("phi", DECIDED_OPERATORS)
def test_the_lattice_decider_agrees_with_classify(tmp_path, phi):
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(instance_to_json(phi)))
    assert decide(inst) == classify(phi).status


#: (form, n, d) that `generate` takes at d <= 3: forms i and ii, which
#: classify certifies through a representation change, and random
#: operators of 2 or 3 pairs.
CROSS_CHECKED = [
    ("i", 1, 2), ("i", 1, 3), ("i", 2, 3), ("ii", 3, 3),
    ("random", 2, 2), ("random", 3, 2), ("random", 2, 3), ("random", 3, 3),
]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    spec=st.sampled_from(CROSS_CHECKED),
    seed=st.integers(0, 2**31 - 1),
    variant=st.sampled_from(["real", "complex"]),
)
def test_the_lattice_decider_agrees_with_classify_on_generated_instances(
    tmp_path_factory, spec, seed, variant
):
    # every generated instance is scrambled by a random representation
    # change, and classify reduces and re-represents it; the decider reads
    # only the instance file, with no code in common, and the complex
    # variant sends classify down the Gaussian branches of the kernels
    form, n, d = spec
    data = _instance(generate(form, n, d, seed), variant)
    inst = tmp_path_factory.mktemp("generated") / "instance.json"
    inst.write_text(json.dumps(data))
    assert decide(inst) == classify(instance_from_json(data)[0]).status


def test_the_decider_cases_cover_both_answers():
    statuses = [classify(case.values[0]).status for case in DECIDED_OPERATORS]
    assert statuses.count("LQN") >= 5 and statuses.count("NotLQN") >= 5


def test_the_naive_check_imports_nothing_from_elemop():
    tree = ast.parse(Path(naive_certificate_check.__file__).read_text())
    # the checker and the decider share one module and its imports
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"check", "decide"} <= defined
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0
            imported.add(node.module)
    assert imported == {"json", "fractions", "itertools"}

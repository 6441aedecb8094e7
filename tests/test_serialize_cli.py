"""Round-trips, strict parsing, digests, CLI exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemop import operators, serialize, spaces
from elemop.classify import classify, generate
from elemop.cli import main
from elemop.errors import DomainError, FormatError
from elemop.exact import Matrix, fraction_text, scalar, vector
from elemop.operators import ElementaryOperator
from elemop.serialize import (
    instance_digest,
    instance_from_json,
    instance_to_json,
    matrix_from_json,
    matrix_to_json,
    operator_from_json,
    operator_to_json,
    vector_from_json,
    vector_to_json,
    verdict_from_json,
    verdict_to_json,
)
from conftest import specimen_form_ii


def _one_by_one(entry):
    """The JSON of a 1 x 1 matrix whose one entry is `entry`."""
    return [[entry]]


def test_scalar_round_trip():
    values = [scalar("2/3", "-1/7"), scalar(-5), scalar(0, "9/4"), scalar(0)]
    for s in values:
        data = matrix_to_json(Matrix.from_rows([[s]]))
        assert matrix_from_json(data, "t").entry(0, 0) == s


def test_scalar_rejects_decimals_and_numbers():
    with pytest.raises(FormatError) as err:
        matrix_from_json(_one_by_one(["0.5", "0"]), "entry")
    assert "0.5" in str(err.value)
    with pytest.raises(FormatError):
        matrix_from_json(_one_by_one([0.5, "0"]), "entry")
    with pytest.raises(FormatError):
        matrix_from_json(_one_by_one(["1/0", "0"]), "entry")
    # one value, one spelling: non-canonical forms would give one operator
    # several digests
    # exponents are never canonical, and must be refused before expansion
    for text in ("2/4", "+1/2", "01/02", "-0", "0/1", " 1", "1_0", "1e5000", "1E2"):
        with pytest.raises(FormatError) as err:
            matrix_from_json(_one_by_one([text, "0"]), "entry")
        assert repr(text) in str(err.value)
    assert matrix_from_json(_one_by_one(["1/2", "0"]), "entry").entry(0, 0) == scalar("1/2")


# -- the grid boundary against Fraction -------------------------------------

NON_CANONICAL = [
    "-0", "0/1", "1/1", "2/4", "01", "+1", "1/-2", "1//2", "/2", "1/", "", "1_0", " 1", "1e5000",
]


@pytest.mark.parametrize("text", NON_CANONICAL)
@pytest.mark.parametrize("part", [0, 1], ids=["re", "im"])
def test_non_canonical_spellings_are_rejected_by_name(text, part):
    entry = [text, "0"] if part == 0 else ["0", text]
    for read, data, where in (
        (matrix_from_json, [[["1", "0"], entry]], "m[0][1]"),
        (vector_from_json, [["1", "0"], entry], "v[1]"),
    ):
        with pytest.raises(FormatError) as err:
            read(data, where[0])
        message = str(err.value)
        assert message.startswith(f"{where}[{part}]: ") and repr(text) in message


def test_the_character_filter_runs_before_int(monkeypatch):
    # int() would read spaces, underscores, a plus sign and other scripts'
    # digits; none of these spellings may reach it
    seen = []
    monkeypatch.setattr(serialize, "int", lambda text: seen.append(text) or int(text), raising=False)
    for text in ("1e5000", "1_0", " 1", "+1", "\u0661", "1\n"):
        with pytest.raises(FormatError):
            matrix_from_json(_one_by_one([text, "0"]), "m")
    assert seen == []
    matrix_from_json(_one_by_one(["-3/4", "0"]), "m")
    assert seen == ["-3", "4", "0"]


def test_zero_denominators_are_named_as_such():
    for text in ("1/0", "-3/00", "0/0", "07/0"):
        with pytest.raises(FormatError) as err:
            matrix_from_json(_one_by_one(["1", text]), "m")
        assert str(err.value) == f"m[0][0][1]: zero denominator in {text!r}"
    # a signed denominator is no denominator at all
    with pytest.raises(FormatError) as err:
        matrix_from_json(_one_by_one(["1/-0", "0"]), "m")
    assert "not a canonical" in str(err.value)


@pytest.mark.parametrize(
    "text", ["1" * 4301, "-" + "7" * 5000, "1/" + "3" * 4301, "1/" + "0" * 4301], ids=len
)
def test_over_long_parts_are_format_errors(text):
    # past int()'s digit limit the part is rejected by name, not with a
    # ValueError
    with pytest.raises(FormatError) as err:
        matrix_from_json(_one_by_one([text, "0"]), "m")
    assert repr(text) in str(err.value)


def test_parts_up_to_the_digit_limit_are_read():
    big = "9" * 4300
    m = matrix_from_json(_one_by_one([big, f"-1/{big}"]), "m")
    assert m.entry(0, 0) == scalar(int(big), Fraction(-1, int(big)))
    assert matrix_to_json(m) == _one_by_one([big, f"-1/{big}"])


def _reference_text(x: Fraction, y: Fraction) -> str:
    """A Gaussian rational printed through Fraction's own str."""
    if not y:
        return str(x)
    if not x:
        return f"{y}i"
    return f"{x}{'+' if y > 0 else ''}{y}i"


_INTEGERS = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-30, 30),
    st.integers(-(2**200), 2**200),
)
_DENOMINATORS = st.one_of(
    st.integers(1, 12), st.integers(-12, -1), st.integers(-(2**200), 2**200).filter(bool)
)


@st.composite
def _grids(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    grid = st.lists(st.lists(_INTEGERS, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    return draw(_DENOMINATORS), draw(grid), draw(grid)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_grids())
def test_grid_printer_matches_fraction_and_round_trips(grids):
    den, re, im = grids
    for row_re, row_im in zip(re, im):
        for x, y in zip(row_re, row_im):
            assert fraction_text(x, abs(den)) == str(Fraction(x, abs(den)))
            assert fraction_text(y, abs(den)) == str(Fraction(y, abs(den)))
    # a negative denominator is normalized by the constructor
    m = Matrix(den, re, im)
    assert m.den >= 1
    data = matrix_to_json(m)
    values = [[(Fraction(x, den), Fraction(y, den)) for x, y in zip(*rows)] for rows in zip(re, im)]
    assert data == [[[str(x), str(y)] for x, y in row] for row in values]
    assert matrix_from_json(data, "m") == m
    text = [", ".join(_reference_text(x, y) for x, y in row) for row in values]
    assert m.to_text() == "\n".join(f"[{t}]" for t in text)
    assert repr(m) == "Matrix(" + "; ".join(f"[{t}]" for t in text) + ")"
    column = m.column(0)
    assert vector_to_json(column) == [row[0] for row in data]
    assert vector_from_json(vector_to_json(column), "v") == column


def test_a_zero_denominator_is_no_matrix():
    with pytest.raises(DomainError):
        Matrix(0, [[1]], [[0]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet="-/0123456789 _+e", max_size=7))
def test_part_reader_accepts_exactly_the_canonical_fraction_spellings(text):
    expected = None
    zero_denominator = False
    if set(text) <= set("-/0123456789"):
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            zero_denominator = True
        except ValueError:
            pass
        else:
            if str(value) == text:
                expected = value
    try:
        got = matrix_from_json(_one_by_one(["0", text]), "m")
    except FormatError as err:
        assert expected is None and repr(text) in str(err)
        assert ("zero denominator" in str(err)) == zero_denominator
    else:
        assert got.entry(0, 0) == scalar(0, expected)


def test_matrix_round_trip_preserves_fractions():
    m = Matrix.from_rows([["1/3", ("2/5", "-7/11")], [0, 100]])
    data = matrix_to_json(m)
    assert matrix_from_json(data, "m") == m
    assert data[0][0] == ["1/3", "0"]


def test_vector_round_trip():
    v = vector(["1/2", -3, 0])
    assert vector_from_json(vector_to_json(v), "v") == v


def test_operator_round_trip():
    phi = specimen_form_ii()
    assert operator_from_json(operator_to_json(phi)) == phi


def test_verdict_round_trip():
    phi = specimen_form_ii()
    verdict = classify(phi)
    data = verdict_to_json(verdict, phi.dim)
    back = verdict_from_json(data, phi.dim)
    assert back.status == verdict.status and back.form == verdict.form
    assert back.representation.pairs == verdict.representation.pairs
    assert back.parameters == verdict.parameters
    assert back.evidence == verdict.evidence


def test_instance_round_trip_and_zero_operator():
    phi = specimen_form_ii()
    data = instance_to_json(phi, {"note": "x"})
    back, metadata = instance_from_json(data)
    assert back == phi and metadata == {"note": "x"}
    zero_data = {"schema_version": "1", "operator": {"dim": 3, "pairs": []}}
    zero_phi, _ = instance_from_json(zero_data)
    assert zero_phi.is_zero and zero_phi.dim == 3


def test_instance_rejects_unknown_fields_and_versions():
    phi = specimen_form_ii()
    data = instance_to_json(phi)
    data["extra"] = 1
    with pytest.raises(FormatError):
        instance_from_json(data)
    data = instance_to_json(phi)
    data["schema_version"] = "2"
    with pytest.raises(FormatError):
        instance_from_json(data)
    # JSON true is a bool, not a dimension, also for the zero operator
    for pairs in (operator_to_json(phi)["pairs"], []):
        data = {"schema_version": "1", "operator": {"dim": True, "pairs": pairs}}
        with pytest.raises(FormatError) as err:
            instance_from_json(data)
        assert "instance.operator.dim" in str(err.value)
    with pytest.raises(FormatError) as err:
        verdict_from_json({"status": "LQN", "parameters": {"r": True}}, 3)
    assert "parameters.r" in str(err.value)


def test_digest_ignores_metadata_but_not_operator():
    phi = specimen_form_ii()
    d1 = instance_digest(instance_to_json(phi, {"a": 1}))
    d2 = instance_digest(instance_to_json(phi, {"b": 2}))
    assert d1 == d2
    other = ElementaryOperator.from_pairs(3, [(Matrix.identity(3), Matrix.identity(3))])
    assert instance_digest(instance_to_json(other)) != d1


# -- CLI ------------------------------------------------------------------


def _generate_file(tmp_path, form, dim, seed=1, n=3):
    path = tmp_path / f"{form}_{dim}_{seed}.json"
    code = main(
        ["generate", "--form", form, "--n", str(n), "--dim", str(dim), "--seed", str(seed), str(path)]
    )
    assert code == 0
    return path


def test_cli_generate_deterministic_bytes(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    for p in (p1, p2):
        assert main(["generate", "--form", "ii", "--n", "3", "--dim", "4", "--seed", "9", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_generate_infeasible(tmp_path):
    code = main(["generate", "--form", "ii", "--dim", "2", str(tmp_path / "x.json")])
    assert code == 2


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cli_generate_random_length_is_bounded_by_the_tensor(tmp_path, capsys, dim):
    # the coefficient tensor is d^2 x d^2, so no operator on M_d is longer
    # than d^2 pairs, and a longer request is refused before any draw
    at_bound = tmp_path / "at.json"
    argv = ["generate", "--form", "random", "--dim", str(dim), "--seed", "3"]
    assert main(argv + ["--n", str(dim * dim), str(at_bound)]) == 0
    assert len(json.loads(at_bound.read_text())["operator"]["pairs"]) == dim * dim
    past = tmp_path / "past.json"
    capsys.readouterr()
    assert main(argv + ["--n", str(dim * dim + 1), str(past)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not past.exists()
    assert captured.err == (
        f"infeasible parameters: an operator on M_{dim} has length at most {dim * dim}, "
        f"got n={dim * dim + 1}\n"
    )


def test_cli_analyze_specimen(tmp_path, capsys):
    path = tmp_path / "specimen.json"
    path.write_text(json.dumps(instance_to_json(specimen_form_ii())))
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "length: 3" in out
    assert "L(phi): dim 3, local dim 3" in out
    assert "V(phi): dim 2" in out
    assert "sum b_i a_i: zero" in out


def test_cli_analyze_json_mode(tmp_path, capsys):
    path = _generate_file(tmp_path, "ii", 3)
    capsys.readouterr()
    assert main(["analyze", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["length"] == 3
    assert report["spaces"]["L"]["dim"] == 3


def test_cli_analyze_reports_every_local_dimension_as_proven(tmp_path, capsys):
    path = _generate_file(tmp_path, "iii", 4)
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if "local dim" in line]
    assert len(rows) == 3 and all("(exact)" in row for row in rows)
    assert main(["analyze", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [report["spaces"][label]["exact"] for label in "LRV"] == [True] * 3


def test_cli_analyze_stops_at_the_lattice_budget(tmp_path, capsys, monkeypatch):
    # a 3-dimensional coefficient space of this form iii instance walks
    # Delta(4, 3) past its first point; a budget of one point of it, 3 * 16
    # units, stops the command at the second
    path = _generate_file(tmp_path, "iii", 4)
    capsys.readouterr()
    monkeypatch.setattr(spaces, "LATTICE_WORK_BUDGET", 3 * 16)
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the local dimension walk of Delta(4, 3) ")
    assert "budget of 48 units at its next point (1 points visited, 48 units spent)" in captured.err


def test_cli_analyze_takes_no_seed(tmp_path, capsys):
    path = _generate_file(tmp_path, "ii", 3)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["analyze", str(path), "--seed", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --seed 1" in captured.err and captured.out == ""


def test_cli_analyze_zero_operator(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"schema_version": "1", "operator": {"dim": 2, "pairs": []}}))
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "length: 0" in out


ZERO_PAIR = [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]
ZERO_GRID = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]


@pytest.mark.parametrize("pairs", [[], [{"a": ZERO_PAIR, "b": ZERO_GRID}]], ids=["empty", "a-0"])
@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_cli_oracle_zero_operator_finds_no_witness(tmp_path, capsys, pairs, as_json):
    # phi = 0 is nilpotent everywhere: the sampling oracle runs its trials
    # and reports no witness, exit 0, for either spelling of zero
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"schema_version": "1", "operator": {"dim": 2, "pairs": pairs}}))
    args = ["oracle", str(path), "--trials", "7"] + (["--json"] if as_json else [])
    assert main(args) == 0
    out = capsys.readouterr().out
    if as_json:
        assert json.loads(out) == {"witness": None, "trials": 7}
    else:
        assert out == "no witness found in 7 trials\n"


def test_cli_analyze_rejects_decimal_entry(tmp_path, capsys):
    data = instance_to_json(specimen_form_ii())
    data["operator"]["pairs"][0]["a"][0][0] = ["0.5", "0"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "0.5" in err and "pairs[0].a[0][0]" in err


def _oversized_instance(tmp_path):
    """A d=2 instance whose entries have 3000 digits: it reads, but its
    products pass the interpreter's 4300-digit limit for printing."""
    big = str(10**2999 + 7)
    eye = [[[big, "0"], ["0", "0"]], [["0", "0"], [big, "0"]]]
    path = tmp_path / "oversized.json"
    path.write_text(
        json.dumps({"schema_version": "1", "operator": {"dim": 2, "pairs": [{"a": eye, "b": eye}]}})
    )
    return path


@pytest.mark.parametrize(
    "args", [["analyze"], ["analyze", "--json"], ["oracle", "--trials", "3"]], ids=" ".join
)
def test_cli_oversized_numbers_are_bad_input(tmp_path, capsys, args):
    path = _oversized_instance(tmp_path)
    assert main([args[0], str(path), *args[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "digits" in err and "Traceback" not in err


#: Files the JSON reader cannot turn into a document: bytes that are not
#: UTF-8, nesting past the parser's depth, and an integer past the
#: interpreter's 4300-digit limit.
_UNPARSABLE = {
    "utf16-bom": b"\xff\xfe{}",
    "deep-nesting": b"[" * 200_000,
    "5000-digit-dim": b'{"schema_version": "1", "operator": {"dim": '
    + b"9" * 5000
    + b', "pairs": []}}',
}


@pytest.mark.parametrize("name", sorted(_UNPARSABLE))
def test_cli_unparsable_file_is_bad_input(tmp_path, capsys, name):
    bad = tmp_path / f"{name}.json"
    bad.write_bytes(_UNPARSABLE[name])
    inst = _generate_file(tmp_path, "ii", 3, seed=3)
    cert = tmp_path / "cert.json"
    assert main(["classify", str(inst), "--out", str(cert)]) == 0
    for argv in (["classify", str(bad)], ["verify", str(bad), str(cert)], ["verify", str(inst), str(bad)]):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse ") and str(bad) in err


@pytest.mark.parametrize("command", ["generate", "classify"])
def test_cli_unwritable_output_is_bad_input(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.json"
    if command == "generate":
        argv = ["generate", "--form", "ii", "--dim", "3", str(out)]
    else:
        argv = ["classify", str(_generate_file(tmp_path, "ii", 3, seed=3)), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_cli_classify_exit_codes(tmp_path):
    lqn = _generate_file(tmp_path, "ii", 3, seed=3)
    assert main(["classify", str(lqn), "--out", str(tmp_path / "c1.json")]) == 0
    bad = tmp_path / "identity.json"
    eye_op = ElementaryOperator.from_pairs(2, [(Matrix.identity(2), Matrix.identity(2))])
    bad.write_text(json.dumps(instance_to_json(eye_op)))
    assert main(["classify", str(bad), "--out", str(tmp_path / "c2.json")]) == 1
    # no length bound: a length-4 pattern-i instance is certified
    long_op = generate("i", 4, 6, seed=2)
    longer = tmp_path / "long.json"
    longer.write_text(json.dumps(instance_to_json(long_op)))
    assert main(["classify", str(longer), "--out", str(tmp_path / "c3.json")]) == 0
    assert main(["verify", str(longer), str(tmp_path / "c3.json")]) == 0
    assert main(["classify", str(tmp_path / "missing.json")]) == 2


def test_cli_generated_near_miss_classifies_refuted(tmp_path):
    inst = _generate_file(tmp_path, "remark45", 4, seed=1)
    assert main(["classify", str(inst), "--out", str(tmp_path / "c.json")]) == 1


def test_cli_classify_unknown_exit_code(tmp_path):
    # a refutable instance with the witness search budget forced to zero
    # cannot conclude either way: exit 3
    inst = _generate_file(tmp_path, "remark45", 4, seed=2)
    code = main(["classify", str(inst), "--out", str(tmp_path / "c.json"), "--trials", "0"])
    assert code == 3


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("oracle", "--trials", "-3"),
        ("oracle", "--trials", "0"),
        ("oracle", "--height", "0"),
        ("classify", "--trials", "-1"),
    ],
)
def test_cli_rejects_out_of_range_counts(tmp_path, capsys, command, option, value):
    inst = _generate_file(tmp_path, "i", 4, seed=11)
    capsys.readouterr()
    out = tmp_path / "cert.json"
    extra = ["--out", str(out)] if command == "classify" else []
    with pytest.raises(SystemExit) as exc:
        main([command, str(inst), option, value, *extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {option}: must be at least" in captured.err
    assert captured.out == "" and not out.exists()


def test_cli_classify_verify_round_trip(tmp_path):
    inst = _generate_file(tmp_path, "iii", 4, seed=6)
    cert = tmp_path / "cert.json"
    assert main(["classify", str(inst), "--out", str(cert)]) == 0
    assert main(["verify", str(inst), str(cert)]) == 0


def test_cli_verify_rejects_tampered_witness(tmp_path, capsys):
    bad = tmp_path / "identity.json"
    eye_op = ElementaryOperator.from_pairs(2, [(Matrix.identity(2), Matrix.identity(2))])
    bad.write_text(json.dumps(instance_to_json(eye_op)))
    cert = tmp_path / "cert.json"
    assert main(["classify", str(bad), "--out", str(cert)]) == 1
    data = json.loads(cert.read_text())
    data["verdict"]["witness"] = matrix_to_json(Matrix.zeros(2))
    cert.write_text(json.dumps(data))
    assert main(["verify", str(bad), str(cert)]) == 1
    assert "witness" in capsys.readouterr().err


def test_cli_verify_rejects_wrong_shape_representation(tmp_path, capsys):
    inst = _generate_file(tmp_path, "ii", 4, seed=7)
    cert = tmp_path / "cert.json"
    assert main(["classify", str(inst), "--out", str(cert)]) == 0
    data = json.loads(cert.read_text())
    data["verdict"]["representation"]["u"][0] = matrix_to_json(Matrix.identity(1))
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    # a malformed certificate is bad input, not a failed identity
    assert main(["verify", str(inst), str(cert)]) == 2
    err = capsys.readouterr().err
    assert "error: verdict.representation.u[0]: coefficient shape differs from dim" in err


def test_cli_verify_rejects_digest_mismatch(tmp_path, capsys):
    inst = _generate_file(tmp_path, "ii", 3, seed=4)
    cert = tmp_path / "cert.json"
    assert main(["classify", str(inst), "--out", str(cert)]) == 0
    other = _generate_file(tmp_path, "ii", 3, seed=5)
    assert main(["verify", str(other), str(cert)]) == 1
    assert "digest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value",
    [
        (("status",), ["LQN"]),
        (("status",), {"LQN": 1}),
        (("form",), ["special-ii"]),
        (("form",), {"special-ii": 1}),
        (("representation", "u"), 7),
        (("representation", "v"), 7),
        (("parameters", "zeta1"), [["1", "0"], ["0", "0"]]),
    ],
)
def test_cli_verify_malformed_certificate_is_bad_input(tmp_path, capsys, path, value):
    inst = _generate_file(tmp_path, "ii", 3, seed=3)
    cert = tmp_path / "cert.json"
    assert main(["classify", str(inst), "--out", str(cert)]) == 0
    data = json.loads(cert.read_text())
    target = data["verdict"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cert.write_text(json.dumps(data))
    assert main(["verify", str(inst), str(cert)]) == 2
    assert path[-1] in capsys.readouterr().err


def test_cli_classify_reduces_the_operator_once(tmp_path, monkeypatch):
    inst = _generate_file(tmp_path, "ii", 4, seed=2)
    folds = []
    fold = operators._fold_left
    monkeypatch.setattr(operators, "_fold_left", lambda pairs: folds.append(1) or fold(pairs))
    assert main(["classify", str(inst), "--out", str(tmp_path / "cert.json")]) == 0
    # one reduction is a left fold and a right fold
    assert len(folds) == 2


def test_cli_oracle_identity_pair(tmp_path, capsys):
    bad = tmp_path / "identity.json"
    eye_op = ElementaryOperator.from_pairs(2, [(Matrix.identity(2), Matrix.identity(2))])
    bad.write_text(json.dumps(instance_to_json(eye_op)))
    assert main(["oracle", str(bad), "--trials", "20"]) == 1
    out = capsys.readouterr().out
    assert "witness found at trial 1" in out


def test_cli_oracle_pattern_instance_finds_nothing(tmp_path, capsys):
    inst = _generate_file(tmp_path, "i", 4, seed=11)
    assert main(["oracle", str(inst), "--trials", "40"]) == 0
    assert "no witness" in capsys.readouterr().out


def test_cli_oracle_near_miss_reports_char_poly(tmp_path, capsys):
    inst = _generate_file(tmp_path, "remark45", 4, seed=12)
    capsys.readouterr()
    assert main(["oracle", str(inst), "--trials", "100", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["witness"] is not None
    assert data["char_poly"]


def test_python_dash_m_runs_the_cli_from_a_source_checkout(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = tmp_path / "module.json"
    args = ["generate", "--form", "ii", "--n", "3", "--dim", "3", "--seed", "2"]
    run = subprocess.run(
        [sys.executable, "-m", "elemop", *args, str(out)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    direct = _generate_file(tmp_path, "ii", 3, seed=2)
    assert out.read_bytes() == direct.read_bytes()


def _pairless_instance(path, dim):
    path.write_text(json.dumps({"schema_version": "1", "operator": {"dim": dim, "pairs": []}}))
    return path


def test_cli_takes_a_pairless_instance_at_the_dim_bound(tmp_path):
    inst = _pairless_instance(tmp_path / "zero.json", serialize.MAX_DIM)
    cert = tmp_path / "zero.cert.json"
    assert main(["analyze", str(inst)]) == 0
    assert main(["classify", str(inst), "--out", str(cert)]) == 0
    assert main(["verify", str(inst), str(cert)]) == 0
    assert main(["oracle", str(inst), "--trials", "1"]) == 0


@pytest.mark.parametrize("command", ["analyze", "oracle", "classify", "verify"])
def test_cli_rejects_an_instance_dim_past_the_bound(tmp_path, capsys, command):
    # {"dim": 100000, "pairs": []} once passed the reader, and `analyze`
    # and `oracle` then ran out of memory
    at_bound = _pairless_instance(tmp_path / "zero.json", serialize.MAX_DIM)
    cert = tmp_path / "zero.cert.json"
    assert main(["classify", str(at_bound), "--out", str(cert)]) == 0
    past = _pairless_instance(tmp_path / "past.json", serialize.MAX_DIM + 1)
    argv = {
        "analyze": ["analyze", str(past)],
        "oracle": ["oracle", str(past)],
        "classify": ["classify", str(past), "--out", str(tmp_path / "past.cert.json")],
        "verify": ["verify", str(past), str(cert)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "past.cert.json").exists()
    assert captured.err == (
        f"error: instance.operator.dim: at most {serialize.MAX_DIM} is supported, "
        f"got {serialize.MAX_DIM + 1}\n"
    )


def test_cli_generate_rejects_a_dim_past_the_bound(tmp_path, capsys):
    out = tmp_path / "past.json"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--form", "random", "--n", "1", "--dim", str(serialize.MAX_DIM + 1), str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"argument --dim: must be at most {serialize.MAX_DIM}, got {serialize.MAX_DIM + 1}" in captured.err
    assert captured.out == "" and not out.exists()


def test_cli_exits_quietly_when_stdout_closes_early(tmp_path):
    # `analyze --json` of a random length-3 operator at d = 16 prints about
    # 160 KB, more than a pipe and the output buffer hold, so the command
    # is still writing when the reader goes away after one line.
    inst = _generate_file(tmp_path, "random", 16, seed=1)
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "elemop", "analyze", "--json", str(inst)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""

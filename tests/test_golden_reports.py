"""Golden bytes of the reports: `analyze` and `oracle` output on fixed seeds.

These commands print block grids, `sum b_i a_i`, witnesses and
characteristic polynomials, all of which come out of the exact core.
Pins the sha256 of their standard output, both `--json` and text, for
generated instances at small dimension.  A change to any of them is a
deliberate format change and has to be listed in CHANGES.md together
with the new hashes.
"""

import hashlib

import pytest

from elemop.cli import main

# (command, --json, form, n, dim, seed) -> (exit code, stdout sha256)
REPORTS = {
    ("analyze", True, "i", 2, 3, 101): (
        0, "bf3fc2391dc36d90310529af26512a4c47452a1c64dad82ebfe88e9a119ecdcc"
    ),
    ("analyze", True, "i", 3, 4, 102): (
        0, "0dcf21575331d0867f02235f8468e9aed4971eb8fbc0b856220beafd9c936cf7"
    ),
    ("analyze", True, "ii", 3, 3, 103): (
        0, "de7fb11257c0606f4bd4c6f68978951a6485c035601d31a0eef5d6665c8b0221"
    ),
    ("analyze", True, "iii", 3, 4, 104): (
        0, "6fcddb4882a1d8ce94aa702659d6ea8a760b4a0a3c4d69d47f689be73751f15d"
    ),
    ("analyze", True, "remark45", 3, 4, 105): (
        0, "c373d663d32fbcb95d6e71da899b215f2116569aa455827a4aee61fda17db543"
    ),
    ("analyze", True, "random", 3, 3, 106): (
        0, "aa93be0ca94d19d21cc984c7ae2960c2120ee1753c8cc917cd5eabf5d00a415e"
    ),
    ("analyze", False, "i", 3, 4, 102): (
        0, "0bd7ba65ae6296b3b4bbbea72443631df8f3eaf72fbe441cdb6b55ab77409f63"
    ),
    ("analyze", False, "remark45", 3, 4, 105): (
        0, "79859978deee277338896f51cce3354ed283a7e02db2be2cad706f15224424c4"
    ),
    ("oracle", True, "ii", 3, 3, 103): (
        0, "af5cf673523f4c908a51d45f7e28f8426a005bfdb493336545291515f39267ce"
    ),
    ("oracle", True, "remark45", 3, 4, 105): (
        1, "96bd686cfb16b55732006f564458344a1481e288f125962f0d8307e2b97c3fb0"
    ),
    ("oracle", True, "remark45", 3, 5, 107): (
        1, "fcf282125d6f95692d907490e23402e3ab49affacd48f85a57260adc86279074"
    ),
    ("oracle", True, "random", 3, 3, 106): (
        1, "b6b085be5053e745b41433fd6433d3980be698630a1663deb60d7f30538bc8ac"
    ),
    ("oracle", True, "random", 2, 2, 108): (
        1, "efd9b92f02ca6cf0794e31163fde6d226d097837c3e62ba1b081728229f1ca07"
    ),
    ("oracle", False, "remark45", 3, 5, 107): (
        1, "1a2f1a5bbd3e756bb20c88e5bf58210ecc5517672b03e3179cd9d87e980cdb5f"
    ),
}


def _spec_id(spec):
    command, json_mode, form, n, dim, seed = spec
    return f"{command}{'-json' if json_mode else ''}-{form}-n{n}-d{dim}-s{seed}"


@pytest.mark.parametrize("spec", sorted(REPORTS), ids=_spec_id)
def test_report_bytes_are_pinned(tmp_path, capsys, spec):
    command, json_mode, form, n, dim, seed = spec
    inst = tmp_path / "instance.json"
    args = ["--form", form, "--n", str(n), "--dim", str(dim), "--seed", str(seed)]
    assert main(["generate", *args, str(inst)]) == 0
    capsys.readouterr()
    seeded = ["--seed", str(seed)] if command == "oracle" else []
    code = main([command, str(inst), *(["--json"] if json_mode else []), *seeded])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == REPORTS[spec]

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
        0, "6451677b98dd10412237a44e64b221778e748d486bb48f3be1a57fffb3f8024f"
    ),
    ("analyze", True, "i", 3, 4, 102): (
        0, "5c031aa5b454657888f87ed2c82017a25c0cf02240fec297bff492dfe6939bd7"
    ),
    ("analyze", True, "ii", 3, 3, 103): (
        0, "321b1e59eddb0f2c61b6373a477ff0112079ce1a54310ee736b44ef45f764948"
    ),
    ("analyze", True, "iii", 3, 4, 104): (
        0, "0f264540d382dc14728b593a3a4b499b6a2315df11c1d6b34e84f282978a68c8"
    ),
    ("analyze", True, "remark45", 3, 4, 105): (
        0, "57d2d5431886981bc6ff8438f07f572237c5ca0a107ead0f1c9ed18a065c401d"
    ),
    ("analyze", True, "random", 3, 3, 106): (
        0, "86235f37a1ffd5fa542ca685577683d928ec8bd08e79b7bd75af8be61f15934f"
    ),
    ("analyze", False, "i", 3, 4, 102): (
        0, "da2cd0b7ada7ec33d339cf9e551a0ec344bfe20f51e14c3b22c831503c6224d4"
    ),
    ("analyze", False, "remark45", 3, 4, 105): (
        0, "b26a4b031613fde3507313a5202bdf4e9da896d7a6e1a0125177475786724979"
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
    code = main([command, str(inst), *(["--json"] if json_mode else []), "--seed", str(seed)])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == REPORTS[spec]

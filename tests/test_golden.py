"""Golden bytes: fixed seeds must keep producing byte-identical files.

Pins the sha256 of the instance file written by `generate` and of the
certificate written by `classify`, one fixed seed per form at small
dimension, in the compact canonical layout the files are written in and
re-rendered in the indented layout written before it.  A refactor that
changes either is a deliberate format change and has to be listed in
CHANGES.md together with the new hashes.
"""

import hashlib
import json

import pytest

from elemop.cli import main
from elemop.serialize import canonical_dumps

# (form, n, dim, seed) -> (instance sha256, certificate sha256), of the
# files as written: the compact canonical layout
GOLDEN = {
    ("i", 2, 3, 101): (
        "30b7cd2b4004ecc9391619e67935a6cc11383cf56cf84a2e192e114714abf8cf",
        "7fa948a6358813bd2f3dc989f04e7c30efeb27aef7ba712461f4289cadd0c5f3",
    ),
    ("i", 3, 4, 102): (
        "50c0c0eb5300dd1ffa4f4afc27fc76d897d6f5f73e71723e8ca260f088f23c93",
        "c223e4963d80b3e0fa62b9ca29c95e2b73b5f26ba6bd3f5f79c5544b5ab07deb",
    ),
    ("ii", 3, 3, 103): (
        "22d2e1e24bf402c429e933e935dae17f037632b7543e1daf3a95bf9ba99342aa",
        "77f52430f41f05b3b76715414cbc771a31eae7cadfb0ad9ff13d267f08bcaf57",
    ),
    ("iii", 3, 4, 104): (
        "1d4672a8bc1e03485a7e9b6ea3c8859edc9854e171d44c6d6fa22763b3c5ac91",
        "a3dc85c28670fd3234c7b69e56a9d9a094cf21af23cad33f2753352b2bf2d064",
    ),
    ("remark45", 3, 4, 105): (
        "43765e8b84ff4284ec21a235ef0984a93e22f41de5119208ae1cb043dc903a0c",
        "318344b2d49344bccb864cb3b02bff45ec1445b5733e403de7518aaecea94592",
    ),
    ("random", 3, 3, 106): (
        "3a1e235fafaa158dc6dbe0bc246a6fd6847d0a644acf606703dd6b91715e9a71",
        "341b8b342b35650b78a9e48bca493d12b757a9ca450fe7ca51c885a62ff3058d",
    ),
}

# The same files re-rendered by `_reindented`, in the indented layout
# elemop wrote before the compact one: these are the pins of that layout,
# so the layout is all that moved.
REINDENTED = {
    ("i", 2, 3, 101): (
        "bc00f3303e2c848e64d720da07e43ebcaa6e052b81c93e739544fe4668d009b8",
        "5f5ad51b033ad54cd9781d660ae5b4dcabd18387d2c2b981b01a946c03f37469",
    ),
    ("i", 3, 4, 102): (
        "938cf495966eb0a8a03547875ce8ce3c7526bc7f0aaa3ff7cb3f9fcb79d97f1d",
        "2428276e4f9c91f3c5274bbdb1037ac29703ff12cf8d5862364012338a01f849",
    ),
    ("ii", 3, 3, 103): (
        "45dfc7ff74dab38ce9e2da3c036ea9c8f15b203911f6ae5b80a0dd38da811b09",
        "03bf4d11e5ea57925108e61764cac3cbbf389d15b83ddd58f672899478d2fcd6",
    ),
    ("iii", 3, 4, 104): (
        "3cccad2a1ab12b9654458f01270f7ced13d9336215f9c034112f438c88738f2a",
        "45d35cf15bdf5e1ab6b10711a7243a5816bebffc7e5fb14694d30ed702126b0f",
    ),
    ("remark45", 3, 4, 105): (
        "999672112ba6bb89abfd246eb8fa8a6259e4883572dc5322da390c8d6a1d26fe",
        "7eedd0ee3856aa21191997d7f8b395ebde45df046c1253a3ab6edd90f2d300ea",
    ),
    ("random", 3, 3, 106): (
        "33d8549809cdf9c7315cbff2ab5f00a9fe444459de40451e678b06eb1d6b7a18",
        "b27858e1dcd5c5528ca1fb1ef48b44fb8c3e9aa6be7afebbf6bda91c90c0b83b",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reindented(path) -> bytes:
    """The file re-rendered in the indented layout, two-space indent and
    sorted keys."""
    return (json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True) + "\n").encode()


def _write(tmp_path, spec):
    """The instance and certificate files of one pinned spec."""
    form, n, dim, seed = spec
    inst = tmp_path / "instance.json"
    cert = tmp_path / "certificate.json"
    args = ["--form", form, "--n", str(n), "--dim", str(dim), "--seed", str(seed)]
    assert main(["generate", *args, str(inst)]) == 0
    assert main(["classify", str(inst), "--out", str(cert), "--seed", str(seed)]) in (0, 1)
    return inst, cert


@pytest.mark.parametrize("spec", sorted(GOLDEN), ids=lambda s: f"{s[0]}-n{s[1]}-d{s[2]}-s{s[3]}")
def test_generate_and_classify_bytes_are_pinned(tmp_path, spec):
    inst, cert = _write(tmp_path, spec)
    assert (_sha256(inst.read_bytes()), _sha256(cert.read_bytes())) == GOLDEN[spec]
    assert (_sha256(_reindented(inst)), _sha256(_reindented(cert))) == REINDENTED[spec]


@pytest.mark.parametrize("spec", [("ii", 3, 3, 103), ("remark45", 3, 4, 105)], ids=str)
def test_files_in_the_indented_layout_still_verify(tmp_path, spec):
    """A certificate and its instance written in the indented layout that
    elemop wrote before the compact one still verify: the readers take
    any JSON layout, and the instance digest hashes the content."""
    inst, cert = _write(tmp_path, spec)
    assert inst.read_bytes() == (canonical_dumps(json.loads(inst.read_text())) + "\n").encode()
    for path in (inst, cert):
        path.write_bytes(_reindented(path))
    assert _sha256(cert.read_bytes()) == REINDENTED[spec][1]
    assert main(["verify", str(inst), str(cert)]) == 0

"""Golden bytes: fixed seeds must keep producing byte-identical files.

Pins the sha256 of the instance file written by `generate` and of the
certificate written by `classify`, one fixed seed per form at small
dimension.  A refactor that changes either is a deliberate format change
and has to be listed in CHANGES.md together with the new hashes.
"""

import hashlib

import pytest

from elemop.cli import main

# (form, n, dim, seed) -> (instance sha256, certificate sha256)
GOLDEN = {
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


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("spec", sorted(GOLDEN), ids=lambda s: f"{s[0]}-n{s[1]}-d{s[2]}-s{s[3]}")
def test_generate_and_classify_bytes_are_pinned(tmp_path, spec):
    form, n, dim, seed = spec
    inst = tmp_path / "instance.json"
    cert = tmp_path / "certificate.json"
    args = ["--form", form, "--n", str(n), "--dim", str(dim), "--seed", str(seed)]
    assert main(["generate", *args, str(inst)]) == 0
    assert main(["classify", str(inst), "--out", str(cert), "--seed", str(seed)]) in (0, 1)
    assert (_sha256(inst), _sha256(cert)) == GOLDEN[spec]

"""The benchmark's first-round outputs are pinned.

Every run of `perfbench/run.py` reports `output_digest`, the sha256 of
the bytes that the first schedule round of its workload emitted: the
instance and certificate files of `corpus` and `large`, and the verdict
lines of `nilspace`.  A speed change must leave those bytes alone, so
this runs one round of each of these workloads at two seeds through
`setup`, `run_item` and `record`, as the harness does, and compares the
digest.  The `corpus` and `large` files are also re-rendered in the
indented layout of earlier releases and compared with that layout's pins.
It loads `perfbench/workloads.py` and edits nothing under perfbench/.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

DIGESTS = {
    ("corpus", 11): "227a7c0bde2f4481541afc8613263c51261b753f415799c8463359a826a29437",
    ("corpus", 9173): "e3562614b74b07d964b1790f6e33a164565b508160a7a150733851e8d3ae79eb",
    ("large", 11): "b65af6ca75ecca985a871be1726e31755b85344a5d5940c8d2bb5b4b165560e7",
    ("large", 9173): "97d58e196b29a9b917d18ee95b979dc2509292e153ea3acf866354cc2dd4043f",
    ("nilspace", 11): "377ebaf9252a66ef467b26323147cf4400d682ba65971625a5e85024ecb2a3eb",
    ("nilspace", 9173): "567600c68a0c5f6092d642885fdc2df9f36e3c716e23a9f652e804b07865e300",
}

# The digests of the same corpus and large files re-rendered in the
# indented layout that elemop wrote before the compact one: these were the
# pins of that layout, so the layout is all that moved.
REINDENTED = {
    ("corpus", 11): "635f5229617852c9bb96863d1309cc8480ba49f5a380af5896461b1c6bf49bf0",
    ("corpus", 9173): "461868a92ed2e1780ffbcb7f5e4351cfdf544822ccb6aabe0a47e4544598a2e4",
    ("large", 11): "f45a54ea001118919b97d894906c87714c54605fec4454b7ca65d3246658ac22",
    ("large", 9173): "39b6aab0a73004a8d507bc8eb1c2187fd1c41d90787665572b741704980f425c",
}


def _reindented(emitted: bytes) -> bytes:
    """An item's compact files, one JSON document a line, re-rendered in
    the indented layout."""
    return b"".join(
        (json.dumps(json.loads(line), indent=2, sort_keys=True) + "\n").encode()
        for line in emitted.splitlines()
    )


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name, seed", sorted(DIGESTS))
def test_first_round_output_digest_is_pinned(tmp_path, monkeypatch, name, seed):
    workload = _workloads(monkeypatch).WORKLOADS[name](seed, tmp_path / "work")
    reindented = hashlib.sha256()
    try:
        workload.setup()
        for index in range(workload.round_items):
            result = workload.run_item(index)
            assert not result.failures and not result.soundness, (index, result)
            workload.record(result)
            if (name, seed) in REINDENTED:
                reindented.update(_reindented(result.emitted))
    finally:
        workload.close()
    assert workload.digest_items == workload.round_items
    assert workload.emitted.hexdigest() == DIGESTS[name, seed]
    if (name, seed) in REINDENTED:
        assert reindented.hexdigest() == REINDENTED[name, seed]

"""The benchmark's traced layers name functions that exist in elemop.

`perfbench/spans.py` wraps each `module.function` of its LAYERS table by
looking it up on `elemop.<module>`; a renamed or removed function would
break only traced benchmark runs.  This reads that table and edits
nothing under perfbench/.
"""

import importlib
import importlib.util
from pathlib import Path

import elemop.exact

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_layer_resolves_on_its_module():
    layers = _layers()
    assert layers
    missing = []
    for mod, fns in layers.items():
        owner = importlib.import_module(f"elemop.{mod}")
        for fn in fns:
            if (mod, fn) == ("exact", "matmul"):
                target = elemop.exact.Matrix.__matmul__  # traced on the class
            else:
                target = getattr(owner, fn, None)
            if not callable(target):
                missing.append(f"{mod}.{fn}")
    assert missing == []

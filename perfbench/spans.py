"""Span tracing of elemop's public functions, installed from outside the
package.

Callers inside elemop bind functions by name (`from .exact import rref`),
so a wrapper replaces the function on every elemop module global that
binds it; calls made inside the program are then seen too.  Matrix
products go through `Matrix.__matmul__`, which is wrapped on the class
and reported as `exact.matmul`.

Spans stay in memory as tuples and are written out once, at the end.
"""

from __future__ import annotations

import gzip
import sys
from contextlib import contextmanager
from time import perf_counter

import elemop.exact
import elemop.nilpotency

# module -> public functions wrapped in that module
LAYERS = {
    "exact": ["matmul", "rref", "char_poly", "is_nilpotent_matrix", "inverse"],
    "operators": [
        "apply",
        "maps_equal",
        "minimal_length",
        "gram",
        "similarity_transform",
        "v_space",
    ],
    "spaces": ["reduce_basis", "rank_one_factor", "simultaneous_separating_vector"],
    "nilpotency": [
        "block_strict_triangularize",
        "classify_nilpotent_2dim_m3",
        "refutes",
        "all_x_nilpotent",
        "subspace_all_nilpotent",
        "witness_search",
    ],
    "classify": ["classify", "verify_certificate", "generate"],
    "serialize": ["instance_from_json", "instance_digest", "verdict_to_json", "verdict_from_json"],
    "cli": ["main"],
}

SPAN_FIELDS = ("name", "start", "end", "parent", "instance")


def layer_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


def count_names() -> list[str]:
    """Computed work counts reported beside calls/total_s/self_s."""
    return [
        "exact.matmul.mults",
        "exact.rref.cells",
        "nilpotency.subspace_all_nilpotent.products",
        "nilpotency.witness_search.trials",
        "nilpotency.witness_search.hits",
        "classify.classify.lqn",
        "classify.classify.notlqn",
        "classify.classify.unknown",
    ]


def _matmul_mults(args) -> int:
    a, b = args
    if isinstance(b, tuple):  # matrix @ vector
        return a.rows * a.cols
    return a.rows * a.cols * b.cols


def _rref_cells(args) -> int:
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


def _products(args, kwargs, default_budget) -> int:
    space = args[0]
    m, k = space.ambient_dim, space.dim
    cost = sum(k**p for p in range(1, m + 1))
    budget = kwargs.get("budget", args[1] if len(args) > 1 else default_budget)
    return cost if k and cost <= budget else 0


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = layer_names()
        self._index = {name: i for i, name in enumerate(self.names)}
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.counts = {name: 0 for name in count_names()}
        self.instance = -1
        self.paused = False
        self._stack: list[int] = []  # open span ids
        self._open = [0] * len(self.names)  # open spans per name
        self._outer_s = [0.0] * len(self.names)  # outermost spans only
        self._saved: list[tuple[object, str, object]] = []
        self._default_budget = elemop.nilpotency.DEFAULT_SUBSPACE_BUDGET
        self._default_trials = elemop.nilpotency.DEFAULT_TRIALS

    # -- installation --------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "elemop" or name.startswith("elemop.")]
        for mod, fns in LAYERS.items():
            owner = sys.modules[f"elemop.{mod}"]
            for fn in fns:
                if mod == "exact" and fn == "matmul":
                    cls = elemop.exact.Matrix
                    original = cls.__matmul__
                    self._patch(cls, "__matmul__", self._wrap("exact.matmul", original))
                    continue
                original = getattr(owner, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    @contextmanager
    def pause(self):
        """No spans or counts inside; for the benchmark's own checks."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def uninstall(self):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _patch(self, target, attr, wrapper):
        self._saved.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrapper)

    def _wrap(self, name: str, original):
        index = self._index[name]
        spans = self.spans
        stack = self._stack
        open_count = self._open
        outer_s = self._outer_s
        counter = self._counter(name)

        def traced(*args, **kwargs):
            if self.paused:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span_id = len(spans)
            spans.append(None)  # reserve the id; filled on exit
            stack.append(span_id)
            open_count[index] += 1
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_count[index] -= 1
                if not open_count[index]:
                    outer_s[index] += end - start
                spans[span_id] = (index, start, end, parent, self.instance)
            if counter is not None:
                counter(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def _counter(self, name: str):
        counts = self.counts
        if name == "exact.matmul":
            def count(args, kwargs, result):
                counts["exact.matmul.mults"] += _matmul_mults(args)
        elif name == "exact.rref":
            def count(args, kwargs, result):
                counts["exact.rref.cells"] += _rref_cells(args)
        elif name == "nilpotency.subspace_all_nilpotent":
            def count(args, kwargs, result):
                counts["nilpotency.subspace_all_nilpotent.products"] += _products(
                    args, kwargs, self._default_budget
                )
        elif name == "nilpotency.witness_search":
            def count(args, kwargs, result):
                if result is None:
                    counts["nilpotency.witness_search.trials"] += kwargs.get(
                        "trials", args[1] if len(args) > 1 else self._default_trials
                    )
                else:
                    counts["nilpotency.witness_search.trials"] += result[1]
                    counts["nilpotency.witness_search.hits"] += 1
        elif name == "classify.classify":
            def count(args, kwargs, result):
                counts[f"classify.classify.{result.status.lower()}"] += 1
        else:
            return None
        return count

    # -- results -------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per wrapped function.

        total_s counts only the outermost span of a name, so recursion is
        not counted twice; self_s is a span's duration minus the part its
        children cover.
        """
        n = len(self.names)
        calls = [0] * n
        self_time = [0.0] * n
        child_time = [0.0] * len(self.spans)
        # a child's id is always above its parent's
        for span_id in range(len(self.spans) - 1, -1, -1):
            index, start, end, parent, _ = self.spans[span_id]
            duration = end - start
            calls[index] += 1
            self_time[index] += duration - child_time[span_id]
            if parent >= 0:
                child_time[parent] += duration
        return {
            name: {"calls": calls[i], "total_s": self._outer_s[i], "self_s": self_time[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, path):
        """One CSV line per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(",".join(SPAN_FIELDS) + "\n")
            for index, start, end, parent, instance in self.spans:
                out.write(f"{self.names[index]},{start:.9f},{end:.9f},{parent},{instance}\n")

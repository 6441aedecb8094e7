"""elemop benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports elemop from its
`src/`; it fails (exit 2, no result) where `src/elemop` is missing.
Set-up (import, input construction, one warm-up item) is repeated
SETUP_REPEATS times and reported as its median.  The workload then runs
as a closed loop for --seconds, single-threaded, with a fixed reference
unit (reference.py) run between items; item time is reported in units of
that reference, which cancels most of a shared host's speed drift.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same loop
untraced, then again with every public elemop function wrapped
(spans.py), then untraced once more, and prints the per-layer metrics
and the tracing overhead (mean untraced rate minus traced rate); its
spans are written to perfbench/out/.  The line before the result holds provenance, per-step
statistics, the failure list and the output digest.

Exit status: 0 with a result; 1 with a result when a soundness check
failed (a witness against an LQN certificate, or a subspace verdict
contradicting its construction); 2 without a result on bad usage or a
missing source tree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# Item time between two runs of the reference unit (reference.py).
REF_EVERY_S = 0.2
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["corpus", "large", "oracle", "nilspace"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def tail(samples: list[float]) -> dict | None:
    """Highest ladder percentile with at least 10 samples beyond it,
    nearest-rank; only for steps with at least 20 samples."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    for p in TAIL_LADDER:
        rank = math.ceil(p * n)
        if n - rank >= 10:
            return {"percentile": p * 100, "value": ordered[rank - 1], "unit": "s", "samples": n}
    return None


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop: items back to back until `seconds` have passed.  Between
    items the reference unit runs once for every REF_EVERY_S of item time, and
    once before the first item, so its mean time follows the host's speed
    through the run, weighted as the item time is."""
    records, item_s, ref_s = [], [], [reference.unit()]
    owed = 0.0
    start = perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        if tracer is not None:
            tracer.instance = index
        began = perf_counter()
        try:
            result = workload.run_item(index)
        except Exception:  # a crash in the program counts as a failed item
            from workloads import ItemResult

            traceback.print_exc(file=sys.stderr)
            result = ItemResult({}, [f"item {index} raised"])
        item_s.append(perf_counter() - began)
        records.append(result)
        workload.record(result)
        owed += item_s[-1]
        with tracer.pause() if tracer is not None else nullcontext():
            while owed >= REF_EVERY_S:
                ref_s.append(reference.unit())
                owed -= REF_EVERY_S
        index += 1
        if perf_counter() >= deadline:
            break
    return {"records": records, "item_s": item_s, "ref_s": ref_s, "busy": sum(item_s)}


def instance_cost(workload, phase) -> float:
    """Mean item time in reference units.  The mean is taken per schedule
    slot and then over slots, so a run cut inside a round keeps the
    round's mix; the reference time is the run's mean, weighted by item
    time."""
    slots: dict[int, list[float]] = {}
    for index, seconds in enumerate(phase["item_s"]):
        slots.setdefault(index % workload.round_items, []).append(seconds)
    mean_item = statistics.fmean(statistics.fmean(times) for times in slots.values())
    return mean_item / statistics.fmean(phase["ref_s"])


def whole_rounds(workload, records) -> list:
    """The items of complete schedule rounds, so that the mix behind a
    median is the same in every run; all items if no round completed."""
    n = len(records) // workload.round_items * workload.round_items
    return records[:n] or records


def step_stats(workload, records) -> dict:
    stats = {}
    for step in workload.steps:
        samples = [r.steps[step] for r in records if step in r.steps]
        if samples:
            stats[f"{step}_p50_s"] = {
                "value": statistics.median(samples), "unit": "s", "samples": len(samples)
            }
        t = tail(samples)
        if t is not None:
            stats[f"{step}_tail_s"] = t
    return stats


def provenance(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_revision() -> str:
    """HEAD read from .git without running git; "unknown" outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_metrics(tracer, untraced_rate: float, traced_rate: float) -> dict:
    metrics = {}
    for name, values in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = {"value": values["calls"], "unit": "count"}
        metrics[f"{name}.total_s"] = {"value": values["total_s"], "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": values["self_s"], "unit": "s"}
    counts = tracer.counts
    for name, value in counts.items():
        if name != "nilpotency.witness_search.hits":
            metrics[name] = {"value": value, "unit": "count"}
    trials = counts["nilpotency.witness_search.trials"]
    metrics["nilpotency.witness_search.hit_ratio"] = {
        "value": counts["nilpotency.witness_search.hits"] / trials if trials else 0.0,
        "unit": "ratio",
    }
    metrics["bench.untraced_instances_per_s"] = {"value": untraced_rate, "unit": "1/s"}
    metrics["bench.traced_instances_per_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["bench.trace_overhead_instances_per_s"] = {
        "value": untraced_rate - traced_rate, "unit": "1/s"
    }
    return metrics


def run(args) -> tuple[dict, dict, bool]:
    """(result, details, sound) for one workload run."""
    start = perf_counter()
    import workloads
    from spans import Tracer

    import_s = perf_counter() - start

    cls = workloads.WORKLOADS[args.workload]
    setups = []
    workload = None
    for repeat in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        workload = cls(args.seed, OUT / f"work-{os.getpid()}-{repeat}")
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    try:
        phase = measure(workload, args.seconds)
        traced = tracer = after = None
        if args.trace:
            tracer = Tracer()
            workload.checking = tracer.pause
            tracer.install()
            try:
                traced = measure(workload, args.seconds, tracer)
            finally:
                tracer.uninstall()
            # untraced again, so the overhead is not confounded with
            # whatever changes between the first and second phase
            after = measure(workload, args.seconds)
    finally:
        workload.close()

    rate = len(phase["records"]) / phase["busy"]
    rounds = whole_rounds(workload, phase["records"])
    records = phase["records"] + (traced["records"] + after["records"] if traced else [])
    failed = sum(1 for r in records if r.failures or r.soundness)
    sound = not any(r.soundness for r in records)
    details = {
        "provenance": provenance(args),
        "import_s": import_s,
        "setup_runs_s": setups,
        "steps": step_stats(workload, rounds),
        "failed_ratio": failed / len(records),
        "failures": [f for r in records for f in r.failures + r.soundness][:20],
        "output_digest": {"sha256": workload.emitted.hexdigest(), "items": workload.digest_items},
        "instances_per_s": {"value": rate, "unit": "1/s", "samples": len(phase["records"])},
        "ref_unit_s": {"value": statistics.fmean(phase["ref_s"]), "unit": "s", "samples": len(phase["ref_s"])},
    }
    if tracer is None:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "instance_cost_ref": {"value": instance_cost(workload, phase), "unit": "ref_units"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
            },
        }
    else:
        traced_rate = len(traced["records"]) / traced["busy"]
        untraced_rate = (rate + len(after["records"]) / after["busy"]) / 2
        metrics = layer_metrics(tracer, untraced_rate, traced_rate)
        details["traced_wall_s"] = traced["busy"]
        details["spans"] = len(tracer.spans)
        OUT.mkdir(parents=True, exist_ok=True)
        span_file = OUT / f"spans-{args.workload}-{args.seed}.csv.gz"
        tracer.write(span_file)
        details["span_file"] = str(span_file.relative_to(ROOT))
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    return result, details, sound


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "elemop" / "__init__.py").is_file():
        print(f"error: no elemop source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, details, sound = run(args)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if sound else 1


if __name__ == "__main__":
    sys.exit(main())

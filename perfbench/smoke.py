"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke.py

Runs every workload on tiny inputs, untraced and traced, and checks that
- every metric BENCHMARK.json names is printed, with its unit;
- per-layer self times sum to no more than the traced wall time;
- a deliberately corrupted certificate is counted as failed, so the
  output checks are live.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import run

SECONDS = 0.1


def tiny_workloads(workloads):
    """Shrink every workload's inputs to the smallest sizes its
    generators accept."""
    workloads.Large.schedule = (("ii", 3, 3),)
    workloads.Oracle.pool_specs = (("i", 3, 4), ("remark45", 3, 4))
    workloads.NilSpace.schedule = ((3, 2, False), (3, 2, True))
    workloads.NilSpace.inputs_built = 2
    workloads.Corpus.spec = lambda self, index: ("ii", 3, 3)


def corrupt(cert: Path):
    """Add 1 to one entry of the representation (or zero the witness),
    leaving the digest intact, so only verify_certificate can catch it."""
    data = json.loads(cert.read_text())
    verdict = data["verdict"]
    if "representation" in verdict:
        entry = verdict["representation"]["u"][0][0][0]
        entry[0] = str(Fraction(entry[0]) + 1)
    else:
        verdict["witness"] = [[["0", "0"]] * len(row) for row in verdict["witness"]]
    cert.write_text(json.dumps(data))


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(run.SRC))
    import workloads

    tiny_workloads(workloads)
    problems = []
    for name in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = run.parse_args(
                ["--workload", name, "--seed", "1", "--seconds", str(SECONDS), "--trace", str(trace)]
            )
            result, details, sound = run.run(args)
            metrics = result["metrics"]
            if not sound or not result["correct"]:
                problems.append(f"{name} trace={trace}: failures {details['failures']}")
            for metric in declared:
                got = metrics.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name} trace={trace}: {metric['name']} missing or wrong unit")
            if set(metrics) != {m["name"] for m in declared}:
                problems.append(f"{name} trace={trace}: undeclared metrics printed")
            if trace:
                self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
                if self_sum > details["traced_wall_s"]:
                    problems.append(
                        f"{name}: self times {self_sum:.4f} s exceed wall {details['traced_wall_s']:.4f} s"
                    )

    class Corrupted(workloads.Corpus):
        """Corrupts the first measured certificate; the warm-up stays clean."""

        def setup(self):
            super().setup()
            self.tamper = self.corrupt_first

        def corrupt_first(self, cert):
            corrupt(cert)
            self.tamper = None

    workloads.WORKLOADS["corpus"] = Corrupted
    args = run.parse_args(["--workload", "corpus", "--seed", "1", "--seconds", str(SECONDS), "--trace", "0"])
    result, details, _ = run.run(args)
    if result["failed"] < 1 or details["failed_ratio"] <= 0:
        problems.append("a corrupted certificate was not counted as failed")
    elif not any("verify" in f for f in details["failures"]):
        problems.append(f"the corrupted certificate failed for another reason: {details['failures']}")

    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads, their inputs and their output checks.

Every workload is a closed loop: one caller starts the next item only
after the previous one has finished and been checked.  Inputs depend only
on the workload seed.  The operators are driven through elemop's public
entry points: `elemop.cli.main` in-process for generate / classify /
verify / oracle, and `subspace_all_nilpotent` for the subspace decision.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import elemop.cli
import elemop.nilpotency
from elemop.exact import (
    Matrix,
    char_poly,
    inverse,
    lambda_power,
    random_invertible,
    random_matrix,
    scalar,
    trace,
)
from elemop.nilpotency import refutes
from elemop.serialize import instance_from_json, matrix_from_json
from elemop.spaces import reduce_basis

# Status and form each generator family must come back with.  Pattern i at
# length 2 is the all-zero block grid, which the classifier names
# "length2-zeros"; at length 3 it is "pattern-i".
EXPECTED = {
    ("i", 2): ("LQN", "length2-zeros"),
    ("i", 3): ("LQN", "pattern-i"),
    ("ii", 3): ("LQN", "special-ii"),
    ("iii", 3): ("LQN", "special-iii"),
    ("remark45", 3): ("NotLQN", None),
}


def item_seed(seed: int, workload: str, index: int) -> int:
    """Seed of item `index`; a function of the workload seed alone."""
    text = f"{workload}/{seed}/{index}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def corpus_spec(slot: int) -> tuple[str, int, int]:
    """(form, n, dim) of the criterion-08 corpus mix; 30 slots repeat."""
    kind = slot % 10
    if kind in (0, 1):
        n = 2 + slot % 2
        return "i", n, n + 2 + slot % 2
    if kind in (2, 3):
        return "ii", 3, 3 + slot % 3
    if kind in (4, 5):
        return "iii", 3, 4 + slot % 2
    if kind in (6, 7):
        return "remark45", 3, 4 + slot % 2
    return "random", 1 + slot % 3, 2 + slot % 3


@dataclass
class ItemResult:
    steps: dict[str, float]  # step name -> seconds
    failures: list[str] = field(default_factory=list)
    soundness: list[str] = field(default_factory=list)
    emitted: bytes = b""


def run_cli(*argv) -> tuple[int, str]:
    """elemop's CLI in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = elemop.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def timed_cli(steps: dict, step: str, *argv) -> tuple[int, str]:
    start = perf_counter()
    result = run_cli(*argv)
    steps[step] = perf_counter() - start
    return result


class Workload:
    """Base: `setup` builds the inputs and runs one warm-up item;
    `run_item(i)` runs and checks item i."""

    name = ""
    steps: tuple[str, ...] = ()
    # Items in one round of the input schedule.  Medians are taken over
    # whole rounds, so every run's median comes from the same mix; the
    # output digest covers the first round, a prefix that does not depend
    # on how many items fit in the run.
    round_items = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.emitted = hashlib.sha256()
        self.digest_items = 0
        # Called on a certificate file between classify and verify; the
        # smoke test uses it to corrupt one certificate.
        self.tamper = None
        # Context the output checks run in; a traced run pauses tracing
        # there, so the per-layer figures hold only the workload's calls.
        self.checking = nullcontext

    def setup(self):
        raise NotImplementedError

    def run_item(self, index: int) -> ItemResult:
        raise NotImplementedError

    def record(self, result: ItemResult):
        if self.digest_items < self.round_items:
            self.emitted.update(result.emitted)
            self.digest_items += 1

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class CliPipeline(Workload):
    """generate -> classify -> verify through the CLI, with files in the
    work directory, then the output checks."""

    steps = ("generate", "classify", "verify")

    def spec(self, index: int) -> tuple[str, int, int]:
        raise NotImplementedError

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        # The warm-up is one item of the schedule's first kind on an input
        # that no seed changes, so set-up time does not vary with the seed.
        self.pipeline(self.spec(0), item_seed(0, self.name, -1), "warmup")

    def run_item(self, index: int) -> ItemResult:
        return self.pipeline(self.spec(index), item_seed(self.seed, self.name, index), str(index))

    def pipeline(self, spec, seed: int, tag: str) -> ItemResult:
        form, n, d = spec
        instance = self.workdir / f"{tag}.json"
        cert = self.workdir / f"{tag}.cert.json"
        steps: dict[str, float] = {}
        result = ItemResult(steps)
        code, _ = timed_cli(
            steps, "generate", "generate", "--form", form, "--n", n, "--dim", d, "--seed", seed, instance
        )
        if code != 0:
            result.failures.append(f"generate {spec} exited {code}")
            return result
        code, _ = timed_cli(steps, "classify", "classify", instance, "--out", cert, "--seed", seed)
        if code not in (0, 1, 3):
            result.failures.append(f"classify {spec} exited {code}")
            return result
        if self.tamper is not None:
            self.tamper(cert)
        code, _ = timed_cli(steps, "verify", "verify", instance, cert)
        if code != 0:
            result.failures.append(f"verify {spec} exited {code}")
        instance_bytes, cert_bytes = instance.read_bytes(), cert.read_bytes()
        result.emitted = instance_bytes + cert_bytes
        with self.checking():
            check_verdict(form, n, instance_bytes, cert_bytes, result)
        instance.unlink()
        cert.unlink()
        return result


def check_verdict(form: str, n: int, instance_bytes: bytes, cert_bytes: bytes, result: ItemResult):
    """Expected status and form per family; every classifier witness is
    re-checked with `refutes`."""
    verdict = json.loads(cert_bytes)["verdict"]
    status, got_form = verdict["status"], verdict.get("form")
    expected = EXPECTED.get((form, n))
    if expected is not None and (status, got_form) != expected:
        result.failures.append(f"{form} n={n}: got {status}/{got_form}, expected {expected}")
    if status == "NotLQN":
        phi, _ = instance_from_json(json.loads(instance_bytes))
        witness = matrix_from_json(verdict.get("witness"), "witness")
        if not refutes(phi, witness):
            result.failures.append(f"{form}: classifier witness does not refute")


class Corpus(CliPipeline):
    """The criterion-08 family mix: forms i, ii, iii, remark45 and random
    at d = 2..6."""

    name = "corpus"
    round_items = 30

    def spec(self, index: int):
        return corpus_spec(index % self.round_items + 1)


class Large(CliPipeline):
    """LQN forms ii, iii and i (n=3) at d=8, where map equality on matrix
    units dominates, and the remark45 near-miss at d=8, which takes the
    refutation path (witness search, `refutes`)."""

    name = "large"
    schedule = (("ii", 3, 8), ("iii", 3, 8), ("remark45", 3, 8), ("i", 3, 8))

    @property
    def round_items(self):
        return len(self.schedule)

    def spec(self, index: int):
        return self.schedule[index % self.round_items]


class Oracle(Workload):
    """`elemop oracle` at its defaults (200 trials, height 100) on a pool
    of certified instances generated in set-up; the oracle seed changes
    with every item."""

    name = "oracle"
    steps = ("oracle",)
    # Interleaved so that a run cut after any item keeps the mix; the
    # remark45 near-miss is refuted within a few trials, the LQN ones use
    # the whole budget.
    pool_specs = (("i", 3, 5), ("ii", 3, 6), ("remark45", 3, 5), ("iii", 3, 6), ("ii", 3, 7))

    @property
    def round_items(self):
        return len(self.pool_specs)

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.pool = []
        for k, (form, n, d) in enumerate(self.pool_specs):
            seed = item_seed(self.seed, self.name, -1 - k)
            instance = self.workdir / f"pool{k}.json"
            cert = self.workdir / f"pool{k}.cert.json"
            code, _ = run_cli("generate", "--form", form, "--n", n, "--dim", d, "--seed", seed, instance)
            if code != 0:
                raise RuntimeError(f"set-up: generate {form} d={d} exited {code}")
            code, _ = run_cli("classify", instance, "--out", cert, "--seed", seed)
            instance_bytes, cert_bytes = instance.read_bytes(), cert.read_bytes()
            check = ItemResult({})
            check_verdict(form, n, instance_bytes, cert_bytes, check)
            if check.failures or code not in (0, 1):
                raise RuntimeError(f"set-up: pool instance {form} d={d}: {check.failures or code}")
            self.emitted.update(instance_bytes + cert_bytes)
            phi, _ = instance_from_json(json.loads(instance_bytes))
            status = json.loads(cert_bytes)["verdict"]["status"]
            self.pool.append((form, d, instance, phi, status))
        # the warm-up oracle call is a near-miss, refuted in a few trials
        self.run_item(next(k for k, spec in enumerate(self.pool_specs) if spec[0] == "remark45"))

    def run_item(self, index: int) -> ItemResult:
        form, d, instance, phi, status = self.pool[index % len(self.pool)]
        steps: dict[str, float] = {}
        result = ItemResult(steps)
        seed = item_seed(self.seed, self.name, index)
        code, out = timed_cli(steps, "oracle", "oracle", instance, "--seed", seed, "--json")
        result.emitted = out.encode()
        if code not in (0, 1):
            result.failures.append(f"oracle {form} d={d} exited {code}")
            return result
        witness = json.loads(out)["witness"]
        if witness is None:
            if status == "NotLQN":
                result.failures.append(f"oracle missed the {form} d={d} refutation")
            return result
        with self.checking():
            refuted = refutes(phi, matrix_from_json(witness, "witness"))
        if not refuted:
            result.failures.append(f"oracle witness on {form} d={d} does not refute")
        elif status == "LQN":
            result.soundness.append(f"oracle witness against the LQN certificate of {form} d={d}")
        return result


def _strictly_upper(m: int) -> list[Matrix]:
    return [Matrix.unit(m, i, j) for i in range(m) for j in range(i + 1, m)]


def nil_space(m: int, k: int, seed: int, swap: bool):
    """k random combinations of strictly-upper units of M_m, conjugated by
    a random invertible matrix; with `swap`, the first element is replaced
    by a matrix of nonzero trace (the criterion-05 construction)."""
    rng = random.Random(seed)
    units = _strictly_upper(m)
    mats = []
    while reduce_basis(mats, m).dim < k:  # redraw until independent
        mats = []
        for _ in range(k):
            acc = Matrix.zeros(m)
            for unit in units:
                c = rng.randint(-2, 2)
                if c:
                    acc = acc + scalar(c) * unit
            mats.append(acc)
    q = random_invertible(m, rng.randrange(2**31), 4)
    q_inv = inverse(q)
    mats = [q_inv @ b @ q for b in mats]
    if swap:
        bad = random_matrix(m, rng.randrange(2**31), 4)
        if trace(bad).is_zero:
            bad = bad + Matrix.identity(m)
        mats[0] = bad
    return reduce_basis(mats)


class NilSpace(Workload):
    """subspace_all_nilpotent on conjugated strictly-upper subspaces and
    on the same subspaces with one element swapped for a non-nilpotent
    one.  k stays inside the default budget, so every decision is the
    exact trace-identity expansion."""

    name = "nilspace"
    steps = ("decide",)
    # (m, k, swapped); interleaved so that any prefix keeps the mix.  Plain
    # (5, 5) subspaces are the middle of the cost range and three of every
    # eight items, so the median decision time is one of theirs.
    schedule = (
        (4, 6, False), (5, 5, False), (6, 4, False), (5, 5, True),
        (4, 6, True), (5, 5, False), (6, 4, True), (5, 5, False),
    )
    # Inputs are built in set-up and cycled; one round is all of them, so
    # every run's median is over the same subspaces.
    inputs_built = 16

    @property
    def round_items(self):
        return self.inputs_built

    def setup(self):
        self.inputs = []
        for index in range(self.inputs_built):
            m, k, swap = self.schedule[index % len(self.schedule)]
            space = nil_space(m, k, item_seed(self.seed, self.name, index), swap)
            self.inputs.append((m, k, swap, space))
        self.run_item(0)

    def run_item(self, index: int) -> ItemResult:
        m, k, swap, space = self.inputs[index % len(self.inputs)]
        steps: dict[str, float] = {}
        result = ItemResult(steps)
        start = perf_counter()
        report = elemop.nilpotency.subspace_all_nilpotent(space)
        steps["decide"] = perf_counter() - start
        x = report.counterexample
        result.emitted = f"{report.all_nilpotent} {report.method} {x!r}\n".encode()
        if report.all_nilpotent == swap:
            result.soundness.append(
                f"m={m} k={k}: all_nilpotent={report.all_nilpotent} contradicts the construction"
            )
        elif swap:
            with self.checking():
                nilpotent = x is None or char_poly(x) == lambda_power(m)
            if nilpotent:
                result.failures.append(f"m={m} k={k}: counterexample is nilpotent or missing")
        return result


WORKLOADS = {w.name: w for w in (Corpus, Large, Oracle, NilSpace)}

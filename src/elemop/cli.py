"""Command-line surface: analyze, classify, generate, verify, oracle.

Exit codes: 0 success or locally-nilpotent, 1 refuted or invalid
certificate, 2 bad input (a malformed file, an instance dim above
`serialize.MAX_DIM`, or a file that cannot be read or written), 3 unknown
verdict, and 141 when standard output closes before a command has written
it all.  `classify` takes an operator of any length.
Identical flags and seed produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import __version__
from .certificate import verify_certificate
from .classify import classify, generate
from .errors import DimensionError, ElemopError, FormatError
from .exact import char_poly
from .nilpotency import DEFAULT_TRIALS, DEFAULT_WITNESS_HEIGHT, witness_search
from .operators import apply, gram, left_space, minimal_length, right_space, sum_bi_ai, v_space
from .serialize import (
    MAX_DIM,
    canonical_dumps,
    certificate_from_json,
    certificate_to_json,
    instance_digest,
    instance_from_json,
    instance_to_json,
    matrix_to_json,
    vector_to_json,
    verdict_from_json,
    verdict_to_json,
)
from .spaces import local_dimension

TOOLCHAIN = f"elemop {__version__}"

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_BAD_INPUT = 2
EXIT_UNKNOWN = 3


def _read_json(path: str, what: str):
    """The JSON document in the file at path.  Failing to read or to
    parse it is a FormatError (exit 2) that names the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError: bytes that are not UTF-8, text that is not JSON, or
        # an integer past the interpreter's digit limit; RecursionError:
        # arrays or objects nested past the parser's depth
        raise FormatError(f"cannot parse {what} {path}: {exc}") from None


def _load_instance(path: str):
    data = _read_json(path, "instance")
    phi, metadata = instance_from_json(data)
    return phi, metadata, data


def _write_json(path: str, data: dict):
    """Write data in the canonical compact layout that digests hash, one
    line and a newline."""
    try:
        Path(path).write_text(canonical_dumps(data) + "\n", encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from None


def _int_within(minimum: int | None = None, maximum: int | None = None):
    """An argparse type for integer options with bounds; a value outside
    them is a usage error (exit 2) that names the option."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


def _cmd_analyze(args) -> int:
    phi, metadata, _ = _load_instance(args.path)
    n, reduced = minimal_length(phi)
    named = [("L", left_space(reduced)), ("R", right_space(reduced)), ("V", v_space(reduced))]
    spaces = [(label, space, local_dimension(space)) for label, space in named]
    s = sum_bi_ai(reduced)
    g = gram(reduced)
    if args.json:
        report = {
            "length": n,
            "spaces": {
                label: {
                    "dim": space.dim,
                    "local_dim": ldim.value,
                    "witness": vector_to_json(ldim.witness),
                    # every value is proven; the field stays for readers
                    "exact": True,
                }
                for label, space, ldim in spaces
            },
            "sum_bi_ai": matrix_to_json(s),
            "gram": [[matrix_to_json(g.block(i, j)) for j in range(g.n)] for i in range(g.n)],
            "metadata": metadata,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"length: {n}")
    for label, space, ldim in spaces:
        witness = ldim.witness.transpose().to_text()
        print(f"{label}(phi): dim {space.dim}, local dim {ldim.value} (exact), witness {witness}")
    print("sum b_i a_i:" + (" zero" if s.is_zero else ""))
    if not s.is_zero:
        print(s.to_text())
    print("gram blocks:")
    for i in range(g.n):
        for j in range(g.n):
            print(f"({i},{j}):")
            print(g.block(i, j).to_text())
    return EXIT_OK


def _cmd_classify(args) -> int:
    phi, _, data = _load_instance(args.path)
    verdict = classify(phi, trials=args.trials, seed=args.seed)
    digest = instance_digest(data)
    certificate = certificate_to_json(digest, verdict_to_json(verdict, phi.dim), TOOLCHAIN)
    out = args.out or (args.path + ".cert.json")
    _write_json(out, certificate)
    print(f"{verdict.status}" + (f" ({verdict.form})" if verdict.form else ""))
    print(f"certificate written to {out}")
    if verdict.status == "LQN":
        return EXIT_OK
    if verdict.status == "NotLQN":
        return EXIT_REFUTED
    return EXIT_UNKNOWN


def _cmd_generate(args) -> int:
    try:
        phi = generate(args.form, args.n, args.dim, args.seed)
    except DimensionError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    metadata = {
        "form": args.form,
        "n": args.n,
        "dim": args.dim,
        "seed": args.seed,
        "generator": TOOLCHAIN,
    }
    _write_json(args.out, instance_to_json(phi, metadata))
    print(f"instance written to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    phi, _, instance_data = _load_instance(args.instance)
    digest, verdict_data, _ = certificate_from_json(_read_json(args.certificate, "certificate"))
    actual = instance_digest(instance_data)
    if digest != actual:
        print("verification failed: digest does not match the instance", file=sys.stderr)
        return EXIT_REFUTED
    verdict = verdict_from_json(verdict_data, phi.dim)
    check = verify_certificate(phi, verdict)
    if not check:
        print(f"verification failed: {check.failed}", file=sys.stderr)
        return EXIT_REFUTED
    print("certificate verified")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    phi, _, _ = _load_instance(args.path)
    found = witness_search(phi, trials=args.trials, seed=args.seed, height=args.height)
    if found is not None:
        witness, trial = found
        poly = char_poly(apply(phi, witness))
        if args.json:
            print(
                json.dumps(
                    {
                        "witness": matrix_to_json(witness),
                        "trial": trial,
                        "char_poly": [str(c) for c in poly.coefficients],
                    },
                    sort_keys=True,
                )
            )
        else:
            print(f"witness found at trial {trial}:")
            print(witness.to_text())
            print(f"char poly of phi(witness): {poly}")
        return EXIT_REFUTED
    if args.json:
        print(json.dumps({"witness": None, "trials": args.trials}, sort_keys=True))
    else:
        print(f"no witness found in {args.trials} trials")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by
    every later one; parsing does not modify it."""
    parser = argparse.ArgumentParser(
        prog="elemop",
        description="Exact analysis and certification of elementary operators "
        "x -> sum a_i x b_i on square matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report length, coefficient spaces and block grid")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify", help="classify and write a certificate")
    p.add_argument("path")
    p.add_argument("--out")
    # 0 skips the witness search: a verdict the structural tiers cannot
    # reach is then Unknown (exit 3), never a pass; at dim <= 2 the
    # simplex lattice still attaches a witness
    p.add_argument("--trials", type=_int_within(0), default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("generate", help="write a seeded instance file")
    p.add_argument("--form", required=True, choices=["i", "ii", "iii", "remark45", "random"])
    p.add_argument("--n", type=int, default=3)
    # the instance reader's bound; a smaller dim that no form admits is
    # reported by the generator
    p.add_argument("--dim", type=_int_within(maximum=MAX_DIM), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="check a certificate against its instance")
    p.add_argument("instance")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="pure sampling search for a refuting argument")
    p.add_argument("path")
    # with no trial, "no witness found" would read as a clean sampling pass
    p.add_argument("--trials", type=_int_within(1), default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=_int_within(1), default=DEFAULT_WITNESS_HEIGHT)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ElemopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


#: The exit status of a command whose standard output closed before it
#: had written it all: 128 + SIGPIPE, as a shell reports a process that
#: the signal ended.
EXIT_BROKEN_PIPE = 141


def entry_point():
    """`main` as a program.  When the reader of standard output closes it
    early (`elemop analyze x.json | head -3`), the command stops quietly:
    it keeps its own exit code if it had finished, and exits with
    EXIT_BROKEN_PIPE otherwise."""
    code = EXIT_BROKEN_PIPE
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more on exit; let that flush
        # go nowhere rather than raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)

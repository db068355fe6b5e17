"""Command-line front end: ``afmat solve | gen | verify``.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 internal
invariant failure (including a main-vs-reference mismatch in
``verify``).

``solve`` output is line oriented and deterministic:

* EE prints one ``[a,b,c]`` line per extension, ordered by cardinality
  and then lexicographically; an empty family prints nothing.
* SE prints one extension or ``NO``.
* DC / DS / AC / AS print ``YES`` or ``NO``; the universally quantified
  tasks (DS, AS) are vacuously ``YES`` when no extension exists.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import semantics
from .core import InternalInvariantError
from .formats import ParseError, detect_format, format_apx, format_tgf, parse, render_argset
from .generator import GeneratorConfig, generate
from .oracle import ORACLE_BOUND, oracle_family, oracle_grounded_fixpoint
from .semantics import Semantics

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

_TAGS = [tag.value for tag in Semantics]
_TASKS = ("EE", "SE", "DC", "DS", "AC", "AS")
_LOCAL_TASKS = ("DC", "DS", "AC", "AS")

_DEFAULT_SWEEP_N = range(1, 7)
_DEFAULT_SWEEP_P = (0.1, 0.3, 0.5)
_DEFAULT_SWEEP_SEEDS = range(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afmat",
        description="compute extensions of argumentation frameworks via attack matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute extensions or acceptance answers for a file")
    solve.add_argument("path", help="framework file (TGF or APX)")
    solve.add_argument("--format", choices=("tgf", "apx"), help="input format (default: by file extension)")
    solve.add_argument("--semantics", required=True, choices=_TAGS)
    solve.add_argument("--task", required=True, choices=_TASKS)
    solve.add_argument("--arg", help="argument name for DC/DS/AC/AS")
    solve.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("gen", help="emit a reproducible random framework")
    gen.add_argument("--n", type=int, required=True, help="number of arguments")
    gen.add_argument("--p", type=float, required=True, help="attack probability per ordered pair")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=("tgf", "apx"), default="tgf")
    gen.set_defaults(func=_cmd_gen)

    verify = sub.add_parser(
        "verify",
        help="differentially check the matrix path against the brute-force reference",
    )
    verify.add_argument("path", nargs="?", help="framework file; omit to use generated input")
    verify.add_argument("--format", choices=("tgf", "apx"))
    verify.add_argument("--n", type=int, help="generate a single framework of this size instead")
    verify.add_argument("--p", type=float, default=0.3)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--oracle-bound", type=int, default=ORACLE_BOUND,
                        help=f"refuse frameworks larger than this (default {ORACLE_BOUND})")
    verify.set_defaults(func=_cmd_verify)
    return parser


def _read_framework(args) -> tuple:
    fmt = args.format or detect_format(args.path)
    if fmt is None:
        raise ValueError(f"cannot infer format of {args.path!r}; pass --format")
    try:
        text = Path(args.path).read_text(encoding="utf-8-sig")  # drop a byte-order mark
    except OSError as exc:
        raise ValueError(f"cannot read {args.path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.path!r} is not UTF-8 text: {exc}") from exc
    return parse(text, fmt)


def _cmd_solve(args) -> int:
    f, names = _read_framework(args)
    target = None
    if args.task in _LOCAL_TASKS:
        if args.arg is None:
            raise ValueError(f"task {args.task} needs --arg")
        target = names.id_of(args.arg)
    answer = semantics.query(f, args.task, args.semantics, target)
    if args.task == "EE":
        for ext in answer:
            print(render_argset(ext, names))
    elif args.task == "SE":
        print("NO" if answer is None else render_argset(answer, names))
    else:
        print("YES" if answer else "NO")
    return EXIT_OK


def _cmd_gen(args) -> int:
    f = generate(GeneratorConfig(n=args.n, p=args.p, seed=args.seed))
    text = format_tgf(f) if args.format == "tgf" else format_apx(f)
    sys.stdout.write(text)
    return EXIT_OK


def _verify_one(f, label: str, bound: int) -> bool:
    ok = True
    for tag in Semantics:
        main = semantics.extensions(f, tag).sets
        reference = oracle_family(f, tag, bound=bound).sets
        if main == reference:
            print(f"{label}: {tag.value:3s} OK ({len(main)} sets)")
        else:
            ok = False
            extra = sorted(main - reference)
            missing = sorted(reference - main)
            print(f"{label}: {tag.value:3s} MISMATCH extra={extra} missing={missing}")
    fixpoint = oracle_grounded_fixpoint(f)
    grounded = semantics.extensions(f, Semantics.GROUNDED).ordered()[0]
    if fixpoint == grounded:
        print(f"{label}: gr fixpoint OK")
    else:
        ok = False
        print(f"{label}: gr fixpoint MISMATCH {grounded} vs {fixpoint}")
    return ok


def _cmd_verify(args) -> int:
    bound = args.oracle_bound
    jobs = []
    if args.path is not None:
        f, _ = _read_framework(args)
        jobs.append((f, args.path))
    elif args.n is not None:
        cfg = GeneratorConfig(n=args.n, p=args.p, seed=args.seed)
        jobs.append((generate(cfg), f"gen(n={cfg.n},p={cfg.p},seed={cfg.seed})"))
    else:
        for n in _DEFAULT_SWEEP_N:
            for p in _DEFAULT_SWEEP_P:
                for seed in _DEFAULT_SWEEP_SEEDS:
                    cfg = GeneratorConfig(n=n, p=p, seed=seed)
                    jobs.append((generate(cfg), f"gen(n={n},p={p},seed={seed})"))

    for f, _ in jobs:
        if f.n > bound:
            raise ValueError(
                f"framework has {f.n} arguments, above the oracle bound {bound}"
            )

    all_ok = all([_verify_one(f, label, bound) for f, label in jobs])
    print(f"verification {'passed' if all_ok else 'FAILED'} on {len(jobs)} framework(s)")
    return EXIT_OK if all_ok else EXIT_INTERNAL


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Run the command line tool; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # defensive: anything else is an internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.stdout.reconfigure(encoding="utf-8")  # answers are UTF-8 whatever the locale
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()

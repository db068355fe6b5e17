"""Command-line front end: ``afmat solve | gen | verify``.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 internal
invariant failure (including a main-vs-reference mismatch in
``verify``). A reader that closes stdout early (``afmat solve ... |
head``) has all it wants: the run stops quietly with exit 0.

``solve`` output is line oriented and deterministic:

* EE prints one ``[a,b,c]`` line per extension, ordered by cardinality
  and then lexicographically; an empty family prints nothing.
* SE prints one extension or ``NO``.
* DC / DS / AC / AS print ``YES`` or ``NO``; the universally quantified
  tasks (DS, AS) are vacuously ``YES`` when no extension exists.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Sequence

from . import semantics
from .core import InternalInvariantError
from .formats import ParseError, format_apx, format_tgf, parse_apx, parse_tgf, render_argset
from .generator import GeneratorConfig, generate
from .oracle import oracle_family, oracle_grounded_fixpoint
from .semantics import Semantics

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

_TAGS = [tag.value for tag in Semantics]
_TASKS = ("EE", "SE", "DC", "DS", "AC", "AS")
_LOCAL_TASKS = ("DC", "DS", "AC", "AS")
_FORMATS = {"tgf": (parse_tgf, format_tgf), "apx": (parse_apx, format_apx)}  # reader, writer

_DEFAULT_SWEEP_N = range(1, 7)
_DEFAULT_SWEEP_P = (0.1, 0.3, 0.5)
_DEFAULT_SWEEP_SEEDS = range(2)


@functools.cache  # built on the first run_cli call; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afmat",
        description="compute extensions of argumentation frameworks via attack matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute extensions or acceptance answers for a file")
    solve.add_argument("path", help="framework file (TGF or APX)")
    solve.add_argument("--format", choices=_FORMATS, help="input format (default: by file extension)")
    solve.add_argument("--semantics", required=True, choices=_TAGS)
    solve.add_argument("--task", required=True, choices=_TASKS)
    solve.add_argument("--arg", help="argument name for DC/DS/AC/AS")
    solve.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("gen", help="emit a reproducible random framework")
    gen.add_argument("--n", type=int, required=True, help="number of arguments")
    gen.add_argument("--p", type=float, required=True, help="attack probability per ordered pair")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=_FORMATS, default="tgf")
    gen.set_defaults(func=_cmd_gen)

    verify = sub.add_parser(
        "verify",
        help="differentially check the matrix path against the brute-force reference",
    )
    verify.add_argument("path", nargs="?", help="framework file; omit for the seeded default sweep")
    verify.add_argument("--format", choices=_FORMATS)
    verify.set_defaults(func=_cmd_verify)
    return parser


def _read_framework(args) -> tuple:
    _, dot, extension = args.path.rpartition(".")
    fmt = args.format or (extension.lower() if dot else None)
    if fmt not in _FORMATS:
        raise ValueError(f"cannot infer format of {args.path!r}; pass --format")
    try:
        text = Path(args.path).read_text(encoding="utf-8-sig")  # drop a byte-order mark
    except OSError as exc:
        raise ValueError(f"cannot read {args.path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{args.path!r} is not UTF-8 text: {exc}") from exc
    return _FORMATS[fmt][0](text)


def _cmd_solve(args) -> int:
    f, names = _read_framework(args)
    if args.task in _LOCAL_TASKS and args.arg is None:
        raise ValueError(f"task {args.task} needs --arg")
    target = None if args.arg is None else names.id_of(args.arg)
    answer = semantics.query(f, args.task, args.semantics, target)
    if args.task == "EE":
        sys.stdout.writelines(render_argset(ext, names) + "\n" for ext in answer)
    elif args.task == "SE":
        print("NO" if answer is None else render_argset(answer, names))
    else:
        print("YES" if answer else "NO")
    return EXIT_OK


def _cmd_gen(args) -> int:
    f = generate(GeneratorConfig(n=args.n, p=args.p, seed=args.seed))
    sys.stdout.write(_FORMATS[args.format][1](f))
    return EXIT_OK


def _verify_one(f, label: str) -> bool:
    # Every reference first: the oracle refuses an oversized framework
    # before the matrix path does any work.
    references = [(tag.value, tag, oracle_family(f, tag).sets) for tag in Semantics]
    references.append(
        ("gr fixpoint", Semantics.GROUNDED, frozenset({oracle_grounded_fixpoint(f)}))
    )
    ok = True
    for name, tag, reference in references:
        main = semantics.extensions(f, tag).sets
        if main == reference:
            print(f"{label}: {name:3s} OK ({len(main)} sets)")
        else:
            ok = False
            extra = sorted(main - reference)
            missing = sorted(reference - main)
            print(f"{label}: {name:3s} MISMATCH extra={extra} missing={missing}")
    return ok


def _cmd_verify(args) -> int:
    jobs = []
    if args.path is not None:
        f, _ = _read_framework(args)
        jobs.append((f, args.path))
    elif args.format is not None:
        raise ValueError("--format applies to a framework file; the default sweep reads none")
    else:
        for n in _DEFAULT_SWEEP_N:
            for p in _DEFAULT_SWEEP_P:
                for seed in _DEFAULT_SWEEP_SEEDS:
                    cfg = GeneratorConfig(n=n, p=p, seed=seed)
                    jobs.append((generate(cfg), f"gen(n={n},p={p},seed={seed})"))

    all_ok = all([_verify_one(f, label) for f, label in jobs])
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
    except BrokenPipeError:  # the reader closed stdout: it has all it wants
        return EXIT_OK
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
    code = run_cli()
    try:
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush finds no pipe (the recipe in the signal module's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    raise SystemExit(code)


if __name__ == "__main__":
    main()

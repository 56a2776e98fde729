"""ICCMA-style command line front end.

Supports the probo flag convention: ``--formats`` and ``--problems`` print the
capability lists, and ``-p TASK -f FILE -fo apx [-a ARG]`` solves one task.
Results are printed in the bracketed format, one line, no spaces; acceptance
verdicts print YES or NO.  ``--oracle`` switches to the brute-force reference
backend (diagnostic use only, small frameworks).
"""

import argparse
import sys

from .framework import ApxError, ArgumentationFramework, parse_apx
from .oracle import TooLargeError
from .tasks import (
    PROBLEMS,
    SolveResult,
    Task,
    TaskSpec,
    UnknownArgumentError,
    UnsupportedTaskError,
    solve,
    solve_by_oracle,
)

FORMATS = ("apx",)


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # one-line diagnostics instead of argparse's usage dump
    def error(self, message):
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="afsolve", add_help=True)
    parser.add_argument("--formats", action="store_true", help="print supported input formats and exit")
    parser.add_argument("--problems", action="store_true", help="print supported task strings and exit")
    parser.add_argument("-p", metavar="TASK", help="task string, e.g. EE-CO")
    parser.add_argument("-f", metavar="FILE", help="path to the framework instance")
    parser.add_argument("-fo", metavar="FORMAT", help="input format (apx)")
    parser.add_argument("-a", metavar="ARG", help="query argument (DC/DS tasks only)")
    parser.add_argument("--oracle", action="store_true", help="solve with the brute-force reference backend")
    return parser


def format_extension(af: ArgumentationFramework, mask: int) -> str:
    return "[" + ",".join(af.names_of(mask)) + "]"


def format_output(result: SolveResult, af: ArgumentationFramework) -> str:
    """Render a result as the single output line (no trailing newline)."""
    if result.task in (Task.DC, Task.DS):
        return "YES" if result.verdict else "NO"
    if result.task is Task.CE:
        return str(result.count)
    if result.task is Task.SE:
        if result.extension is None:
            return "NO"
        return format_extension(af, result.extension)
    return "[" + ",".join(format_extension(af, e) for e in result.extensions) + "]"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.formats:
            print("[%s]" % ",".join(FORMATS))
            return 0
        if args.problems:
            print("[%s]" % ",".join(sorted(PROBLEMS)))
            return 0
        if args.p is None:
            raise _CliError("no task given (-p)")
        if args.f is None:
            raise _CliError("no instance file given (-f)")
        if args.fo is None:
            raise _CliError("no input format given (-fo)")
        if args.fo not in FORMATS:
            raise _CliError(f"unsupported format {args.fo!r}")
        spec = TaskSpec.from_problem(args.p, args.a)  # task errors come before any I/O
        try:
            with open(args.f, "r", encoding="utf-8", newline="") as handle:
                text = handle.read()  # line ends as they are: only \n ends a comment
        except OSError as exc:
            raise _CliError(f"cannot read {args.f}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise _CliError(f"cannot read {args.f}: not UTF-8 text") from None
        af = parse_apx(text)
        result = solve_by_oracle(af, spec) if args.oracle else solve(af, spec)
        print(format_output(result, af))
        return 0
    except (_CliError, ApxError, UnknownArgumentError, UnsupportedTaskError, TooLargeError) as exc:
        print(f"afsolve: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())

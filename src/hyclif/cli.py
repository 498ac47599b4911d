"""Command line interface: eval, repl, check, table.

Exit codes: 0 success / all identities pass, 1 evaluation or parse error,
2 suite failure, 3 invalid arguments.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Sequence, TextIO

from .exprparse import GENERATOR, RESERVED, eval_source
from .multivector import MAX_DIM, AlgebraContext, Multivector

EXIT_OK = 0
EXIT_EVAL = 1
EXIT_SUITE = 2
EXIT_USAGE = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="hyclif", description=__doc__)
    parser.add_argument("--dim", type=int, required=True, metavar="N",
                        help=f"dimension n of the base space (1..{MAX_DIM})")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one expression")
    p_eval.add_argument("expr", help="expression source text")
    p_eval.add_argument("--json", action="store_true", help="emit the JSON value schema")

    sub.add_parser("repl", help="interactive loop (:dim, :let name = expr, :quit)")

    p_check = sub.add_parser("check", help="run a randomized identity suite")
    # suite, product and format names are checked where they are defined, so
    # that eval and repl load neither the suites nor the table module
    p_check.add_argument("--suite", required=True, help="identity suite name, or all")
    p_check.add_argument("--trials", type=int, default=200)
    p_check.add_argument("--seed", type=int, default=0)

    p_table = sub.add_parser("table", help="emit a full blade multiplication table")
    p_table.add_argument("--product", required=True, help="blade product name")
    p_table.add_argument("--format", default="text", help="output format (default text)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 1 <= args.dim <= MAX_DIM:
        parser.error(f"--dim must be in 1..{MAX_DIM}")
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "repl":
        return _cmd_repl(args)
    if args.command == "check":
        return _cmd_check(args, parser)
    return _cmd_table(args, parser)


def _cmd_eval(args) -> int:
    ctx = AlgebraContext(args.dim)
    try:
        value = eval_source(args.expr, ctx)
    except (ValueError, ZeroDivisionError) as exc:  # a ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    if args.json:
        import json

        print(json.dumps(value.to_json()))
    else:
        print(value)
    return EXIT_OK


def _cmd_check(args, parser) -> int:
    from .suites import run_suite

    try:
        report = run_suite(args.suite, args.dim, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    print(report.render())
    return EXIT_OK if report.passed else EXIT_SUITE


def _cmd_table(args, parser) -> int:
    from .tables import emit_table

    try:
        sys.stdout.write(emit_table(args.dim, args.product, args.format))
    except ValueError as exc:
        parser.error(str(exc))
    return EXIT_OK


_LET = re.compile(r":let\s+([A-Za-z][A-Za-z0-9]*)\s*=\s*(.+)\Z", re.DOTALL)


def _cmd_repl(args, stdin: TextIO | None = None, stdout: TextIO | None = None) -> int:
    return repl(AlgebraContext(args.dim), stdin or sys.stdin, stdout or sys.stdout)


def repl(ctx: AlgebraContext, stdin: TextIO, stdout: TextIO) -> int:
    """Line loop; bindings made with :let persist for later expressions."""
    env: dict[str, Multivector] = {}
    interactive = stdin.isatty() if hasattr(stdin, "isatty") else False
    while True:
        if interactive:
            stdout.write("hyclif> ")
            stdout.flush()
        line = stdin.readline()
        if not line:
            return EXIT_OK
        line = line.strip()
        if not line:
            continue
        if line == ":quit":
            return EXIT_OK
        if line == ":dim":
            print(ctx.dim_n, file=stdout)
            continue
        if line.startswith(":let"):
            m = _LET.match(line)
            if not m:
                print("error: usage :let name = expr", file=stdout)
                continue
            name, src = m.group(1), m.group(2)
            if name in RESERVED or GENERATOR.match(name):
                print(f"error: {name!r} is reserved", file=stdout)
                continue
            try:
                env[name] = eval_source(src, ctx, env)
            except (ValueError, ZeroDivisionError) as exc:
                print(f"error: {exc}", file=stdout)
            continue
        if line.startswith(":"):
            print(f"error: unknown command {line.split()[0]!r}", file=stdout)
            continue
        try:
            print(eval_source(line, ctx, env), file=stdout)
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: {exc}", file=stdout)


if __name__ == "__main__":
    sys.exit(main())

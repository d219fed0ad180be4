"""omega-calc: command table, dispatch and formatting.

Exit codes: 0 success, 1 parse error (and nothing else), 2 math error
or bad argument, 3 comparison or floor undecidable at the working
truncation order.  Every error is one ``error: ...`` line on stderr,
never a traceback, and no partial result is printed: ``eval -``
evaluates every stdin line before it prints any.  A closed stdout, or
a pipe whose reader has gone, drops the result and keeps the exit code;
so does a gone stderr for its ``error:`` lines.
The working order is the per-call ``--order`` flag (default 8), capped
by the OMEGA_MAX_ORDER environment variable (default 32).

``-i`` evaluates one stdin line at a time (blank and ``#`` lines skipped),
reports a failed line on stderr as ``error: ...`` and goes on; it exits 0
when stdin ends, even after failed lines.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import re
import sys
from collections.abc import Callable, Iterable
from fractions import Fraction

from . import aleph as aleph_mod
from . import calculus, functions, parser, rational
from .errors import DomainError, IndistinguishableAtTruncation, OmegaError
from .expr import difference, evaluate, evaluate_rational, number, summation
from .omega import (
    DEFAULT_ORDER,
    ExtendedOmega,
    OmegaNumber,
    compare_extended,
    render_plain,
    to_json_dict,
)
from .parser import ParseError

_ORDERING_WORDS = {-1: "Less", 0: "Equal", 1: "Greater"}


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def format_value(value, mode: str, order: int) -> str:
    """A command's value as printed text; a ``str`` is printed as it is."""
    if isinstance(value, str):
        return value
    if isinstance(value, (OmegaNumber, ExtendedOmega)):
        if mode != "json":
            return render_plain(value)
        payload = to_json_dict(value)
    elif isinstance(value, aleph_mod.AlephInt):
        return format_value(value.to_omega(), mode, order)
    elif isinstance(value, functions.RegularFunction):
        top = value.degree if value.degree is not None else order
        if mode != "json":
            return "\n".join(f"a_{n} = {render_plain(value.coeff(n))}" for n in range(top + 1))
        payload = {
            "base_point": [value.base_point.numerator, value.base_point.denominator],
            "degree": value.degree,
            "coefficients": [to_json_dict(value.coeff(n)) for n in range(top + 1)],
        }
    else:
        raise OmegaError(f"cannot format {value!r}")
    import json  # only json requests pay for the import

    return json.dumps(payload)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def _aligned(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows
    )


def _grid(corner: str, rows: Iterable, cols: Iterable, row: Callable) -> str:
    """The table with header ``corner, *cols`` and, for each r in rows, the
    row ``r, *row(r)``."""
    return _aligned([[corner] + [str(c) for c in cols]]
                    + [[str(r)] + [str(cell) for cell in row(r)] for r in rows])


def table_text(name: str, max_order: int, p: int = 1) -> str:
    M = max_order
    if M < 1:
        raise OmegaError("--max must be at least 1")
    span = range(1, M + 1)
    if name == "bernoulli":
        return _grid("p", range(M + 1), ["B_p"], lambda i: [calculus.bernoulli(i)])
    if name in ("dtoD", "Dtod"):
        # Row r holds its entries from column r on.
        table = calculus.d_to_D if name == "dtoD" else calculus.D_to_d
        return _grid("p\\n" if name == "dtoD" else "n\\p", span, span,
                     lambda r: [0] * (r - 1) + table(r, M))
    if name == "X":
        return _grid("p\\n", span, span, lambda pp: [calculus.x_coeff(pp, n) for n in span])
    if name == "K":
        return _grid("p\\n", span, span, lambda pp: [
            calculus.k_coeff(pp - 1, pp - n) for n in range(1, pp + 1)] + ["."] * (M - pp))
    if name in ("a", "ap"):
        p = 1 if name == "a" else p
        return _grid("m\\l", range(M + 1), range(1, M + p + 1), lambda m: [
            calculus.a_coeff_p(p, m, l) for l in range(1, m + p + 1)] + ["."] * (M - m))
    raise OmegaError(f"unknown table {name!r}")


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _parse_func_arg(text: str, order: int) -> functions.RegularFunction:
    node = parser.parse(text)
    value = evaluate(node, order)
    if not isinstance(value, functions.RegularFunction):
        raise OmegaError("argument must name a function (builtin, poly[...] or int[...])")
    return value


def _int_arg(text: str) -> int:
    """An integer flag's value: the grammar's [ "-" ] INT."""
    try:
        return parser.read_int(text)
    except ParseError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _rational_arg(text: str, flag: str) -> Fraction:
    """A rational flag's value: the grammar's signed_rational."""
    try:
        return parser.read_rational(text)
    except ParseError:
        raise DomainError(f"{flag} must be a rational number, got {text!r}") from None


def _cmd_eval(args, order) -> Iterable:
    if args.expr != "-":
        return [evaluate(parser.parse(args.expr), order)]
    # A generator: reading stdin stops at the first line that fails.
    return (evaluate(parser.parse(line.strip()), order) for line in sys.stdin if line.strip())


def _cmd_cmp(args, order) -> list[str]:
    lhs = evaluate(parser.parse(args.left), order)
    rhs = evaluate(parser.parse(args.right), order)
    for v in (lhs, rhs):
        if not isinstance(v, (OmegaNumber, ExtendedOmega)):
            raise OmegaError("cmp takes two numbers")
    return [_ORDERING_WORDS[compare_extended(lhs, rhs)]]


def _cmd_table(args, order) -> list[str]:
    return [table_text(args.name, args.max, args.p)]


def _cmd_diff(args, order) -> list:
    F = _parse_func_arg(args.func, order)
    at = number(parser.parse(args.at), order)
    return [difference("d" if args.leibniz else "D", F, at, args.p, order)]


def _cmd_sum(args, order) -> list:
    F = _parse_func_arg(args.func, order)
    return [summation(F, 1, [number(parser.parse(args.a0), order)], order)]


def _cmd_bsum(args, order) -> list:
    F = _parse_func_arg(args.func, order)
    t = _rational_arg(getattr(args, "from"), "--from")
    return [calculus.brute_sum(F, t, args.steps, order=order)]


def _cmd_ode(args, order) -> list:
    F = _parse_func_arg(args.func, order)
    inits = [number(parser.parse(text), order) for text in args.init or []]
    return [summation(F, args.p, inits, order)]


def _cmd_lift(args, order) -> list:
    F = _parse_func_arg(args.func, order)
    y = number(parser.parse(args.target), order)
    return [functions.solve_lift(F, y, _rational_arg(args.seed, "--seed"), order=order)]


def _cmd_expand(args, order) -> list:
    return [rational.expand(evaluate_rational(parser.parse(args.expr)), order=order)]


def _cmd_aleph(args, order) -> list:
    op, texts = args.op, args.args
    arity = 2 if op in ("add", "mul", "div") else 1
    if len(texts) != arity:
        raise OmegaError(f"aleph {op} takes {arity} argument(s), got {len(texts)}")
    if op == "div":
        b, a = (number(parser.parse(text), order) for text in texts)
        return [aleph_mod.archimedean_division(a, b, order=order)]
    L = [aleph_mod.aleph_from_omega(number(parser.parse(text), order)) for text in texts]
    if op == "member":
        return ["true" if L[0].in_aleph_plus() else "false"]
    return [{"succ": aleph_mod.successor, "pred": aleph_mod.predecessor,
             "add": aleph_mod.oplus, "mul": aleph_mod.odiamond}[op](*L)]


def _cmd_demo(args, order) -> list[str]:
    if args.name != "leibniz-pi":
        raise OmegaError(f"unknown demo {args.name!r}")
    if args.terms < 0:
        raise DomainError("--terms must be nonnegative")
    total, lines = Fraction(0), []
    for k in range(args.terms):
        total += Fraction((-1) ** k, 2 * k + 1)
        lines.append(str(total))
    return lines


# Each command: its handler, its help line, and its positionals and flags
# with their argparse keywords, added in this order.
_COMMANDS = {
    "eval": {"run": _cmd_eval, "help": "evaluate an expression ('-' reads stdin)",
             "args": {"expr": {}}},
    "cmp": {"run": _cmd_cmp, "help": "compare two values: Less/Equal/Greater",
            "args": {"left": {}, "right": {}}},
    "table": {"run": _cmd_table, "help": "dump an exact coefficient table",
              "args": {"name": {"choices": ("dtoD", "Dtod", "X", "K", "a", "ap", "bernoulli")},
                       "--max": {"type": _int_arg, "default": 4},
                       "--p": {"type": _int_arg, "default": 1}}},
    "diff": {"run": _cmd_diff, "help": "step-o difference D^p f at a point",
             "args": {"func": {}, "--p": {"type": _int_arg, "default": 1},
                      "--at": {"default": "0"},
                      "--leibniz": {"action": "store_true",
                                    "help": "use the derivative differential d^p instead"}}},
    "sum": {"run": _cmd_sum, "help": "antidifference G with DG = F*o",
            "args": {"func": {}, "--a0": {"default": "0"}}},
    "bsum": {"run": _cmd_bsum, "help": "literal grid sum over [[t, t+k*o[[",
             "args": {"func": {}, "--from": {"default": "0"},
                      "--steps": {"type": _int_arg, "required": True}}},
    "ode": {"run": _cmd_ode, "help": "order-p difference system",
            "args": {"func": {}, "--p": {"type": _int_arg, "required": True},
                     "--init": {"action": "append"}}},
    "lift": {"run": _cmd_lift, "help": "solve F(x) = target moment by moment",
             "args": {"func": {}, "--target": {"required": True}, "--seed": {"required": True}}},
    "expand": {"run": _cmd_expand, "help": "Laurent expansion of P(o)/Q(o)",
               "args": {"expr": {}}},
    "aleph": {"run": _cmd_aleph, "help": "nonstandard integer operations",
              "args": {"op": {"choices": ("succ", "pred", "add", "mul", "div", "member")},
                       "args": {"nargs": "+"}}},
    "demo": {"run": _cmd_demo, "help": "worked demonstrations",
             "args": {"name": {}, "--terms": {"type": _int_arg, "default": 8}}},
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser whose own help, usage and error text, written to a
    pipe whose reader has gone, is dropped as Python 3.11's argparse drops
    it (3.10's lets the error through): a usage error still exits 2."""

    def _print_message(self, message, file=None):
        try:
            super()._print_message(message, file)
        except BrokenPipeError:
            _drop_output(file or sys.stderr)


class _CommandParser:
    """One command's ArgumentParser, built on first use and then kept, so
    that a request builds the parser of its own command only.

    argparse draws the top-level help, the command list and its
    ``invalid choice`` errors from ``add_parser``'s keywords, not from
    this parser.
    """

    def __init__(self, flags, **keywords):
        self._flags, self._keywords = flags, keywords

    @functools.cached_property
    def _parser(self) -> argparse.ArgumentParser:
        p = _ArgumentParser(**self._keywords)
        # argparse's own pattern plus -INT/INT, so that a negative rational
        # such as `--seed -1/2` or `eval -1/2` is read as a value.
        p._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")
        for flag, keywords in self._flags.items():
            p.add_argument(flag, **keywords)
        # SUPPRESS: an absent subcommand flag must not overwrite the top-level one.
        p.add_argument("--order", type=_int_arg, default=argparse.SUPPRESS)
        p.add_argument("--format", choices=("plain", "json"), default=argparse.SUPPRESS)
        return p

    def __getattr__(self, name):
        return getattr(self._parser, name)


def _build_argparser() -> argparse.ArgumentParser:
    top = _ArgumentParser(
        prog="omega-calc",
        description="exact calculator for series in the infinitesimal o",
    )
    top.add_argument("-i", "--interactive", action="store_true",
                     help="read expressions from stdin, one per line")
    top.add_argument("--order", type=_int_arg, default=DEFAULT_ORDER,
                     help=f"working truncation order (default {DEFAULT_ORDER})")
    top.add_argument("--format", choices=("plain", "json"), default="plain")
    sub = top.add_subparsers(dest="command", parser_class=_CommandParser)
    for name, command in _COMMANDS.items():
        sub.add_parser(name, help=command["help"], flags=command["args"])
    return top


def _max_order() -> int | None:
    """The OMEGA_MAX_ORDER cap (default 32), or None when it is malformed."""
    try:
        cap = parser.read_int(os.getenv("OMEGA_MAX_ORDER", "32"))
    except ParseError:
        return None
    return cap if cap >= 0 else None


def _print(text: str, stream):
    """Print a line on ``stream``; once its reader has gone, drop it and every later one."""
    try:
        print(text, file=stream)
    except BrokenPipeError:
        _drop_output(stream)


def _drop_output(stream):
    """Point ``stream``'s file at the null device: later writes and the flush at exit succeed."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _report(run, mode: str, order: int, out) -> int:
    """Call run() for a command's values and print them on ``out``.

    Every value is rendered by format_value before any line is printed,
    so a failure prints nothing on ``out``: it prints one ``error:`` line
    on stderr and gives the failure's exit code.
    """
    try:
        lines = [format_value(value, mode, order) for value in run()]
    except ParseError as exc:
        code, message = 1, str(exc)
    except IndistinguishableAtTruncation as exc:
        code, message = 3, f"undecidable at this order: {exc}"
    except OmegaError as exc:
        code, message = 2, str(exc)
    except RecursionError:
        code, message = 2, "expression nested too deeply"
    else:
        for line in lines:
            _print(line, out)
        return 0
    _print(f"error: {message}", sys.stderr)
    return code


def _repl(order: int, mode: str, out) -> int:
    for line in sys.stdin:
        line = line.strip()
        if line and not line.startswith("#"):
            _report(lambda: [evaluate(parser.parse(line), order)], mode, order, out)
    return 0


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    if hasattr(sys, "set_int_max_str_digits"):  # exact integers print in full
        sys.set_int_max_str_digits(0)
    top = _build_argparser()
    args = top.parse_args(argv)

    cap = _max_order()
    if cap is None:
        _print("error: OMEGA_MAX_ORDER must be a nonnegative integer", sys.stderr)
        return 2
    if args.order < 0 or args.order > cap:
        _print(f"error: --order must be between 0 and {cap} (cap set by OMEGA_MAX_ORDER)",
               sys.stderr)
        return 2

    if args.interactive:
        return _repl(args.order, args.format, out)
    if args.command is None:
        top.print_usage(sys.stderr)
        return 2
    run = _COMMANDS[args.command]["run"]
    return _report(lambda: run(args, args.order), args.format, args.order, out)


def entrypoint():  # console-script shim
    # What start-up and the imports built lives until exit: frozen, it is
    # walked by no collection, the interpreter's final ones included.
    gc.freeze()
    try:
        code = main()
    finally:  # --help and argparse's usage errors exit through here too
        for stream in (sys.stdout, sys.stderr):  # a gone reader drops what is buffered
            if stream is not None:
                try:
                    stream.flush()
                except BrokenPipeError:
                    _drop_output(stream)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()

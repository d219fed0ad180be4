"""The CLI's command table against the hand-written argument parser it replaced.

``oracle_argparser`` is the parser as it stood before ``cli._COMMANDS``
declared every command: one subparser block per command, and ``None``
defaults for the top-level ``--order`` and ``--format`` that ``main``
resolved to 8 and "plain".  The table-built parser must print the same
help and give the same namespace or the same usage error for every argv.
"""

import argparse
import contextlib
import io

import pytest

from omegacalc import cli
from omegacalc.omega import DEFAULT_ORDER


def oracle_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="omega-calc",
        description="exact calculator for series in the infinitesimal o",
    )
    top.add_argument("-i", "--interactive", action="store_true",
                     help="read expressions from stdin, one per line")
    top.add_argument("--order", type=int, default=None,
                     help=f"working truncation order (default {DEFAULT_ORDER})")
    top.add_argument("--format", choices=("plain", "json"), default=None)

    sub = top.add_subparsers(dest="command")

    def common(p):
        # SUPPRESS: an absent subcommand flag must not overwrite the top-level one.
        p.add_argument("--order", type=int, default=argparse.SUPPRESS)
        p.add_argument("--format", choices=("plain", "json"), default=argparse.SUPPRESS)

    p = sub.add_parser("eval", help="evaluate an expression ('-' reads stdin)")
    p.add_argument("expr")
    common(p)

    p = sub.add_parser("cmp", help="compare two values: Less/Equal/Greater")
    p.add_argument("left")
    p.add_argument("right")
    common(p)

    p = sub.add_parser("table", help="dump an exact coefficient table")
    p.add_argument("name", choices=("dtoD", "Dtod", "X", "K", "a", "ap", "bernoulli"))
    p.add_argument("--max", type=int, default=4)
    p.add_argument("--p", type=int, default=1)
    common(p)

    p = sub.add_parser("diff", help="step-o difference D^p f at a point")
    p.add_argument("func")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--at", default="0")
    p.add_argument("--leibniz", action="store_true",
                   help="use the derivative differential d^p instead")
    common(p)

    p = sub.add_parser("sum", help="antidifference G with DG = F*o")
    p.add_argument("func")
    p.add_argument("--a0", default="0")
    common(p)

    p = sub.add_parser("bsum", help="literal grid sum over [[t, t+k*o[[")
    p.add_argument("func")
    p.add_argument("--from", default="0")
    p.add_argument("--steps", type=int, required=True)
    common(p)

    p = sub.add_parser("ode", help="order-p difference system")
    p.add_argument("func")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--init", action="append")
    common(p)

    p = sub.add_parser("lift", help="solve F(x) = target moment by moment")
    p.add_argument("func")
    p.add_argument("--target", required=True)
    p.add_argument("--seed", required=True)
    common(p)

    p = sub.add_parser("expand", help="Laurent expansion of P(o)/Q(o)")
    p.add_argument("expr")
    common(p)

    p = sub.add_parser("aleph", help="nonstandard integer operations")
    p.add_argument("op", choices=("succ", "pred", "add", "mul", "div", "member"))
    p.add_argument("args", nargs="+")
    common(p)

    p = sub.add_parser("demo", help="worked demonstrations")
    p.add_argument("name")
    p.add_argument("--terms", type=int, default=8)
    common(p)

    return top


COMMANDS = ["eval", "cmp", "table", "diff", "sum", "bsum", "ode", "lift", "expand",
            "aleph", "demo"]


def _subparsers(top: argparse.ArgumentParser) -> dict:
    [action] = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _parse(top: argparse.ArgumentParser, argv: list[str]):
    """The namespace as a dict, or the exit code; with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(top.parse_args(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _resolved(result):
    """The oracle's None defaults as main resolved them."""
    if isinstance(result, dict):
        if result["order"] is None:
            result["order"] = DEFAULT_ORDER
        if result["format"] is None:
            result["format"] = "plain"
    return result


ARGV_CORPUS = [
    [],
    ["-i"],
    ["--interactive", "--order", "2", "--format", "json"],
    ["--order", "4", "eval", "sqrt(1+o)"],
    ["eval", "sqrt(1+o)", "--order", "4"],
    ["--format", "json", "eval", "o"],
    ["eval", "o", "--format", "json"],
    ["--order", "3", "--format", "json", "eval", "o", "--order", "5", "--format", "plain"],
    ["--order", "x", "eval", "o"],
    ["eval", "o", "--order", "1.5"],
    ["--format", "xml", "eval", "o"],
    ["eval", "o", "--format", "xml"],
    ["eval", "-"],
    ["eval"],
    ["eval", "o", "extra"],
    ["eval", "o", "--bogus"],
    ["--bogus", "eval", "o"],
    ["nosuch", "o"],
    ["cmp", "1+eps", "1+o"],
    ["cmp", "1"],
    ["table", "a"],
    ["table", "ap", "--max", "6", "--p", "3", "--order", "2"],
    ["--format", "json", "table", "K", "--max", "3"],
    ["table", "Q"],
    ["table", "a", "--max", "x"],
    ["table"],
    ["diff", "exp", "--p", "2", "--at", "o", "--leibniz"],
    ["--order", "3", "diff", "exp", "--format", "json"],
    ["diff", "exp", "--leibniz", "yes"],
    ["sum", "exp", "--a0", "1"],
    ["sum", "--a0", "1"],
    ["bsum", "exp", "--from", "1/2", "--steps", "3"],
    ["bsum", "exp", "--from", "1/2"],
    ["bsum", "exp", "--steps", "two"],
    ["ode", "exp", "--p", "2", "--init", "1", "--init", "o"],
    ["ode", "exp", "--init", "1"],
    ["ode", "exp", "--p"],
    ["lift", "exp", "--target", "1+o", "--seed", "0", "--order", "4"],
    ["lift", "exp", "--target", "1+o"],
    ["lift", "exp", "--seed", "0"],
    ["lift", "exp"],
    ["expand", "1/(1-o)", "--order", "4"],
    ["expand", "1/(1-o)", "--expand", "40"],
    ["aleph", "add", "S", "1"],
    ["aleph", "member", "S", "--format", "json"],
    ["aleph", "bogus", "1"],
    ["aleph", "succ"],
    ["demo", "leibniz-pi", "--terms", "3"],
    ["demo", "leibniz-pi", "--terms", "-1"],
    ["demo"],
    ["-h"],
    ["--order", "4", "--help"],
] + [[command, "--help"] for command in COMMANDS]


class TestCommandTable:
    def test_top_level_help_is_identical(self):
        assert cli._build_argparser().format_help() == oracle_argparser().format_help()
        assert cli._build_argparser().format_usage() == oracle_argparser().format_usage()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_is_identical(self, command):
        new = _subparsers(cli._build_argparser())[command]
        old = _subparsers(oracle_argparser())[command]
        assert new.format_help() == old.format_help()
        assert new.format_usage() == old.format_usage()

    @pytest.mark.parametrize("argv", ARGV_CORPUS, ids=lambda argv: " ".join(argv) or "(none)")
    def test_same_namespace_or_same_error(self, argv):
        new = _parse(cli._build_argparser(), argv)
        old = _parse(oracle_argparser(), argv)
        assert new == (_resolved(old[0]), *old[1:])

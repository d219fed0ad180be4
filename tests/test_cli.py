"""Grammar, round-trip stability, and golden CLI transcripts.

The transcript table pins exact stdout bytes for a spread of commands;
every command is run twice and must agree byte-for-byte with itself and
with the frozen text.
"""

import argparse
import hashlib
import io
import json
from fractions import Fraction as F

import pytest

from omegacalc import calculus, cli, functions, parser
from omegacalc.omega import OmegaNumber, from_json_dict
from omegacalc.parser import (
    Apply,
    BinOp,
    DiffForm,
    FuncRef,
    Lit,
    ParseError,
    Pow,
    Sym,
    parse,
    unparse,
)

from test_calculus import oracle_a


class TestParser:
    def test_sqrt_is_power_sugar(self):
        node = parse("sqrt(1+o)")
        assert node == Pow(BinOp("+", Lit(F(1)), Sym("o")), F(1, 2))

    def test_unparenthesized_negative_exponent(self):
        with pytest.raises(ParseError) as err:
            parse("(2+3*o)^-1")
        assert err.value.offset == 8
        assert "integer" in err.value.expected
        assert "'('" in err.value.expected

    def test_operator_form_roundtrip(self):
        node = parse("D^2[exp](o)")
        assert node == Apply(DiffForm("D", 2, FuncRef("exp")), Sym("o"))
        assert parse(unparse(node)) == node

    def test_precedence(self):
        assert parse("1+2*o") == BinOp("+", Lit(F(1)), BinOp("*", Lit(F(2)), Sym("o")))
        # unary minus binds looser than ^
        assert parse("-o^2") == parser.Neg(Pow(Sym("o"), F(2)))

    def test_left_associativity(self):
        assert parse("1-2-3") == BinOp("-", BinOp("-", Lit(F(1)), Lit(F(2))), Lit(F(3)))

    def test_offsets_are_stable(self):
        cases = {
            "1+": 2,
            "(1+o": 4,
            "poly[1,]": 7,
            "o^^2": 2,
        }
        for text, offset in cases.items():
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.offset == offset, text

    def test_roundtrip_corpus(self):
        corpus = [
            "sqrt(1+o)",
            "o*S",
            "(2+3*o)^(-1)",
            "D^2[exp](o)",
            "d^3[poly[0, 1, 5]](o)",
            "int[exp](o)",
            "int^2[poly[0, 1]; 0, 3](2*o)",
            "solve[poly[0, 0, 1] = 1 + o; 1]",
            "1 - 2 - 3",
            "-o^2 + 1/2",
            "2*S + 1 - 1/2*o",
            "geometric(o + o^2)",
            "eps - 3*o",
            "1/(1 - o)",
            "poly[1, -2, 3/4](o)",
            "sin(o)*cos(o)",
            "int[geometric; 5](o)",
            "(1 + o)^(3/2)",
            "S^2 - S + 1",
            "solve[exp = 1 + o; 0]",
        ]
        for text in corpus:
            first = parse(text)
            assert parse(unparse(first)) == first, text


GOLDEN = [
    # (argv, expected stdout, expected exit code)
    (["eval", "sqrt(1+o)", "--order", "4"],
     "1 + 1/2*o - 1/8*o^2 + 1/16*o^3 - 5/128*o^4 + O(o^5)\n", 0),
    (["eval", "o*S"], "1\n", 0),
    (["eval", "0"], "0\n", 0),
    (["eval", "(1+o) - (1+o)"], "0\n", 0),
    (["eval", "(2+3*o)^(-1)", "--order", "3"],
     "1/2 - 3/4*o + 9/8*o^2 - 27/16*o^3 + O(o^4)\n", 0),
    (["eval", "D^2[exp](o)", "--order", "5"],
     "o^2 + 2*o^3 + 25/12*o^4 + 3/2*o^5 + O(o^6)\n", 0),
    (["eval", "d^2[exp](o)", "--order", "3"],
     "o^2 + o^3 + 1/2*o^4 + 1/6*o^5 + O(o^6)\n", 0),
    (["eval", "exp(o)", "--order", "3"],
     "1 + o + 1/2*o^2 + 1/6*o^3 + O(o^4)\n", 0),
    (["eval", "log(1+o)", "--order", "4"],
     "o - 1/2*o^2 + 1/3*o^3 - 1/4*o^4 + O(o^5)\n", 0),
    (["eval", "geometric(o+o^2)", "--order", "4"],
     "1 + o + 2*o^2 + 3*o^3 + 5*o^4 + O(o^5)\n", 0),
    (["eval", "sin(o)+cos(o)", "--order", "4"],
     "1 + o - 1/2*o^2 - 1/6*o^3 + 1/24*o^4 + O(o^5)\n", 0),
    (["eval", "solve[poly[0,0,1] = 1+o; 1]", "--order", "4"],
     "1 + 1/2*o - 1/8*o^2 + 1/16*o^3 - 5/128*o^4 + O(o^5)\n", 0),
    (["eval", "int[poly[0,1]](5*o)"], "10*o^2\n", 0),
    (["eval", "2*S + 1 - 1/2*o"], "2*S + 1 - 1/2*o\n", 0),
    (["eval", "(2*S+1-1/2*o)/(1+o)", "--order", "2"],
     "2*S - 1 + 1/2*o + O(o^2)\n", 0),
    (["eval", "int^2[poly[0,1]; 0, 3](2*o)"], "6*o\n", 0),
    (["cmp", "o", "1"], "Less\n", 0),
    (["cmp", "S", "1000000"], "Greater\n", 0),
    (["cmp", "eps", "1/1000000000"], "Less\n", 0),
    (["cmp", "eps", "1000000000*o"], "Greater\n", 0),
    (["cmp", "3-eps", "3-o"], "Less\n", 0),
    (["cmp", "0-eps", "0"], "Less\n", 0),
    (["eval", "0-eps"], "-inf*o\n", 0),
    (["eval", "eps*o"], "inf*o^2\n", 0),
    (["cmp", "1/(1-o)", "1+o", "--order", "4"], "Greater\n", 0),
    (["eval", "sqrt(1+o)", "--order", "2", "--format", "json"],
     '{"valuation": 0, "coefficients": [[1, 1], [1, 2], [-1, 8]], '
     '"known_order": 2, "infinite_moment": null}\n', 0),
    (["eval", "eps", "--format", "json"],
     '{"valuation": null, "coefficients": [], "known_order": null, '
     '"infinite_moment": {"position": 1, "sign": 1}}\n', 0),
    (["table", "dtoD", "--max", "4"],
     "p\\n  1    2    3     4\n"
     "  1  1  1/2  1/6  1/24\n"
     "  2  0    1    1  7/12\n"
     "  3  0    0    1   3/2\n"
     "  4  0    0    0     1\n", 0),
    (["table", "Dtod", "--max", "4"],
     "n\\p  1     2    3      4\n"
     "  1  1  -1/2  1/3   -1/4\n"
     "  2  0     1   -1  11/12\n"
     "  3  0     0    1   -3/2\n"
     "  4  0     0    0      1\n", 0),
    (["table", "a", "--max", "4"],
     "m\\l      1     2     3     4    5\n"
     "  0      1     .     .     .    .\n"
     "  1   -1/2   1/2     .     .    .\n"
     "  2    1/6  -1/2   1/3     .    .\n"
     "  3      0   1/4  -1/2   1/4    .\n"
     "  4  -1/30     0   1/3  -1/2  1/5\n", 0),
    (["table", "bernoulli", "--max", "6"],
     "p    B_p\n0      1\n1   -1/2\n2    1/6\n3      0\n4  -1/30\n5      0\n6   1/42\n", 0),
    (["table", "X", "--max", "5"],
     "p\\n  1  2  3   4    5\n"
     "  1  1  1  1   1    1\n"
     "  2  0  2  6  14   30\n"
     "  3  0  0  6  36  150\n"
     "  4  0  0  0  24  240\n"
     "  5  0  0  0   0  120\n", 0),
    (["table", "K", "--max", "5"],
     "p\\n   1   2   3   4  5\n"
     "  1   1   .   .   .  .\n"
     "  2   1   1   .   .  .\n"
     "  3   2   3   1   .  .\n"
     "  4   6  11   6   1  .\n"
     "  5  24  50  35  10  1\n", 0),
    (["aleph", "succ", "S^2+3"], "S^2 + 4\n", 0),
    (["aleph", "member", "S-5"], "true\n", 0),
    (["aleph", "member", "0-S"], "false\n", 0),
    (["aleph", "mul", "S+1", "S-1"], "S^2 - 1\n", 0),
    (["aleph", "div", "S", "2"], "1/2*S\n", 0),
    (["demo", "leibniz-pi", "--terms", "5"],
     "1\n2/3\n13/15\n76/105\n263/315\n", 0),
    (["expand", "(1+o)/(o^2*(1-o))", "--order", "3"],
     "S^2 + 2*S + 2 + 2*o + 2*o^2 + 2*o^3 + O(o^4)\n", 0),
    (["expand", "1/o"], "S\n", 0),
    (["bsum", "poly[0,0,1]", "--steps", "5"], "30*o^3\n", 0),
    (["diff", "poly[0,0,0,1]", "--p", "3"], "6*o^3\n", 0),
    (["ode", "poly[0,1]", "--p", "2"],
     "a_0 = 0\na_1 = 1/3*o^2\na_2 = -1/2*o\na_3 = 1/6\n", 0),
    (["lift", "poly[0,0,0,1]", "--target", "8+o", "--seed", "2", "--order", "3"],
     "2 + 1/12*o - 1/288*o^2 + 5/20736*o^3 + O(o^4)\n", 0),
    (["sum", "exp", "--order", "3"],
     "a_0 = 0\n"
     "a_1 = 1 - 1/2*o + 1/12*o^2 + O(o^4)\n"
     "a_2 = 1/2 - 1/4*o + 1/24*o^2 + O(o^4)\n"
     "a_3 = 1/6 - 1/12*o + 1/72*o^2 + O(o^4)\n", 0),
]

ERROR_GOLDEN = [
    # (argv, expected stderr, exit code)
    (["eval", "(2+3*o)^-1"],
     "error: parse error at offset 8: expected integer or '('; found '-'\n", 1),
    (["eval", "sqrt(2+o)"],
     "error: 2^1/2 is irrational\n", 2),
    (["eval", "o^(1/2)"],
     "error: fractional powers need a standard leading term (valuation 0)\n", 2),
    (["cmp", "1/(1-o)", "1/(1-o)", "--order", "3"], None, 3),
    (["eval", "nosuch(o)"], None, 2),
    (["eval", "eps+eps"], None, 2),
    (["eval", "exp(1)"], None, 2),
    (["eval", "(1+o)^(1/0)"],
     "error: parse error at offset 9: expected nonzero integer; found '0'\n", 1),
    (["eval", "solve[exp=1;1/0]"],
     "error: parse error at offset 14: expected nonzero integer; found '0'\n", 1),
]


def run_cli(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


class TestGoldenTranscripts:
    @pytest.mark.parametrize("argv,expected,code", GOLDEN,
                             ids=[" ".join(g[0]) for g in GOLDEN])
    def test_transcript(self, argv, expected, code):
        got_code, got = run_cli(argv)
        assert got == expected
        assert got_code == code

    def test_byte_identical_across_runs(self):
        for argv, _, _ in GOLDEN:
            first = run_cli(argv)
            second = run_cli(argv)
            assert first == second

    @pytest.mark.parametrize("argv,message,code", ERROR_GOLDEN,
                             ids=[" ".join(g[0]) for g in ERROR_GOLDEN])
    def test_errors(self, argv, message, code, capsys):
        got_code, got_out = run_cli(argv)
        err = capsys.readouterr().err
        assert got_code == code
        assert got_out == ""  # no partial results
        if message is not None:
            assert err == message

    def test_transcript_count_is_at_least_thirty(self):
        assert len(GOLDEN) >= 30

    def test_golden_expressions_roundtrip(self):
        # parse(unparse(parse(e))) == parse(e) over the transcript corpus
        for argv, _, _ in GOLDEN:
            exprs = []
            if argv[0] in ("eval", "expand"):
                exprs = [argv[1]]
            elif argv[0] == "cmp":
                exprs = argv[1:3]
            elif argv[0] == "aleph":
                exprs = [a for a in argv[2:] if not a.startswith("-")]
            for text in exprs:
                node = parse(text)
                assert parse(unparse(node)) == node, text


class TestJsonReparse:
    def test_json_output_reparses_identically(self):
        _, text = run_cli(["eval", "sqrt(1+o)", "--order", "4", "--format", "json"])
        value = from_json_dict(json.loads(text))
        direct = cli.evaluate(parse("sqrt(1+o)"), 4)
        assert value == direct

    def test_negative_valuation_roundtrip(self):
        _, text = run_cli(["eval", "S^2 - 1/2", "--format", "json"])
        value = from_json_dict(json.loads(text))
        assert value == OmegaNumber.from_terms({-2: 1, 0: F(-1, 2)})


JSON_GOLDEN = [
    # (argv, expected stdout) under --format json, one case per command;
    # cmp, aleph member, table and demo print their plain text.
    (["eval", "1+o"],
     '{"valuation": 0, "coefficients": [[1, 1], [1, 1]], "known_order": null, '
     '"infinite_moment": null}\n'),
    (["cmp", "1", "o"], "Greater\n"),
    (["table", "bernoulli", "--max", "2"], "p   B_p\n0     1\n1  -1/2\n2   1/6\n"),
    (["diff", "poly[0,0,0,1]", "--p", "3"],
     '{"valuation": 3, "coefficients": [[6, 1]], "known_order": null, '
     '"infinite_moment": null}\n'),
    (["sum", "exp", "--order", "1"],
     '{"base_point": [0, 1], "degree": null, "coefficients": ['
     '{"valuation": null, "coefficients": [], "known_order": null, "infinite_moment": null}, '
     '{"valuation": 0, "coefficients": [[1, 1], [-1, 2]], "known_order": 1, '
     '"infinite_moment": null}]}\n'),
    (["bsum", "poly[0,0,1]", "--steps", "5"],
     '{"valuation": 3, "coefficients": [[30, 1]], "known_order": null, '
     '"infinite_moment": null}\n'),
    (["ode", "poly[0,1]", "--p", "2", "--order", "2"],
     '{"base_point": [0, 1], "degree": 3, "coefficients": ['
     '{"valuation": null, "coefficients": [], "known_order": null, "infinite_moment": null}, '
     '{"valuation": 2, "coefficients": [[1, 3]], "known_order": null, "infinite_moment": null}, '
     '{"valuation": 1, "coefficients": [[-1, 2]], "known_order": null, "infinite_moment": null}, '
     '{"valuation": 0, "coefficients": [[1, 6]], "known_order": null, '
     '"infinite_moment": null}]}\n'),
    (["lift", "poly[0,0,0,1]", "--target", "8+o", "--seed", "2", "--order", "2"],
     '{"valuation": 0, "coefficients": [[2, 1], [1, 12], [-1, 288]], "known_order": 2, '
     '"infinite_moment": null}\n'),
    (["expand", "1/o"],
     '{"valuation": -1, "coefficients": [[1, 1]], "known_order": null, '
     '"infinite_moment": null}\n'),
    (["aleph", "succ", "S^2+3"],
     '{"valuation": -2, "coefficients": [[1, 1], [0, 1], [4, 1]], "known_order": null, '
     '"infinite_moment": null}\n'),
    (["aleph", "member", "S"], "true\n"),
    (["aleph", "div", "S", "2"],
     '{"valuation": -1, "coefficients": [[1, 2]], "known_order": null, '
     '"infinite_moment": null}\n'),
    (["demo", "leibniz-pi", "--terms", "2"], "1\n2/3\n"),
]


class TestJsonEveryCommand:
    @pytest.mark.parametrize("argv,expected", JSON_GOLDEN,
                             ids=[" ".join(g[0]) for g in JSON_GOLDEN])
    def test_json_output(self, argv, expected):
        assert run_cli(["--format", "json", *argv]) == (0, expected)

    def test_every_command_is_pinned(self):
        assert {argv[0] for argv, _ in JSON_GOLDEN} == set(cli._COMMANDS)


class TestRepl:
    def test_reads_lines_from_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("o*S\n\n1+1\n"))
        code, out = run_cli(["-i"])
        assert code == 0
        assert out == "1\n2\n"

    def test_eval_dash_reads_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("sqrt(1+o)\n"))
        code, out = run_cli(["eval", "-", "--order", "2"])
        assert code == 0
        assert out == "1 + 1/2*o - 1/8*o^2 + O(o^3)\n"

    def test_repl_continues_after_errors(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("1+\n2+2\n"))
        code, out = run_cli(["-i"])
        assert code == 0
        assert out == "4\n"
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad,code,err", [
        ("1/0", 2, "inverse of zero"),
        ("1+", 1, "parse error at offset 2: expected integer or name or '(' or '-'; "
                  "found end of input"),
    ], ids=["math error", "parse error"])
    def test_eval_dash_prints_nothing_before_a_failing_line(self, bad, code, err,
                                                            monkeypatch, capsys):
        stdin = io.StringIO(f"1+o\n{bad}\n2\n")
        monkeypatch.setattr("sys.stdin", stdin)
        assert run_cli(["eval", "-"]) == (code, "")
        assert capsys.readouterr().err == f"error: {err}\n"
        assert stdin.readline() == "2\n"  # stops at the failing line

    def test_eval_dash_prints_every_line(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1+o\n\n2*o\n"))
        assert run_cli(["eval", "-"]) == (0, "1 + o\n2*o\n")

    def test_repl_continues_after_a_domain_error(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("int^0[exp](o)\n1+o\n"))
        code, out = run_cli(["-i"])
        assert code == 0
        assert out == "1 + o\n"
        assert capsys.readouterr().err == "error: the system order must be at least 1\n"


NO_TRACEBACK = [
    # (argv, the one stderr line without its "error: " prefix)
    (["ode", "log", "--p", "2"], "order-p systems are posed at base point 0"),
    (["eval", "int^2[log](1+o)"], "order-p systems are posed at base point 0"),
    (["ode", "exp", "--p", "0"], "the system order must be at least 1"),
    (["eval", "int^0[exp](o)"], "the system order must be at least 1"),
    (["diff", "exp", "--p", "-1"], "the difference order must be nonnegative"),
    (["diff", "exp", "--p", "-1", "--leibniz"], "the difference order must be nonnegative"),
    (["lift", "exp", "--target", "1+o", "--seed", "1/0"],
     "--seed must be a rational number, got '1/0'"),
    (["lift", "exp", "--target", "1+o", "--seed", "abc"],
     "--seed must be a rational number, got 'abc'"),
    (["bsum", "exp", "--from", "x", "--steps", "2"],
     "--from must be a rational number, got 'x'"),
    (["aleph", "add", "S"], "aleph add takes 2 argument(s), got 1"),
    (["eval", "(" * 3000 + "1" + ")" * 3000], "expression nested too deeply"),
    (["expand", "eps"], "eps is not a rational function"),
    (["expand", "o^(1/2)"], "rational functions support integer powers only"),
    (["expand", "exp"], "not a rational-function expression"),
    (["ode", "exp", "--p", "1", "--init", "1", "--init", "2"],
     "more initial conditions than the system order"),
    (["demo", "leibniz-pi", "--terms", "-1"], "--terms must be nonnegative"),
    (["eval", "exp + 1"], "a function value appears where a number is needed"),
    (["eval", "exp(eps)"], "extended numbers support comparison only"),
    (["cmp", "exp", "1"], "cmp takes two numbers"),
    (["table", "a", "--max", "0"], "--max must be at least 1"),
    (["demo", "foo"], "unknown demo 'foo'"),
    (["sum", "1"], "argument must name a function (builtin, poly[...] or int[...])"),
    (["aleph", "div", "1", "-1"], "divisor must be strictly positive"),
    (["aleph", "div", "-1", "1"], "dividend must be nonnegative"),
]


class TestNoTraceback:
    """Bad arguments print one error line and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv,message", NO_TRACEBACK,
                             ids=[" ".join(argv)[:40] for argv, _ in NO_TRACEBACK])
    def test_one_error_line(self, argv, message, capsys):
        code, out = run_cli(argv)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    # Left-nested chains far past the recursion limit.
    @pytest.mark.parametrize("expr,expected", [
        ("1" + "+1" * 3000, "3001\n"),
        ("1-1*2+3/4" + "-o" * 700, "-1/4 - 700*o\n"),
    ], ids=["3001-term sum", "703-term mixed chain"])
    def test_long_chain_evaluates(self, expr, expected):
        assert run_cli(["eval", expr]) == (0, expected)

    def test_memory_error_is_one_error_line(self, monkeypatch, capsys):
        # `eval "d^100000[exp](o)"` ends in a MemoryError under a 2 GiB
        # address-space limit; any run that raises one exits 2 the same way.
        def exhausted(node, order):
            raise MemoryError

        monkeypatch.setattr(cli, "evaluate", exhausted)
        assert run_cli(["eval", "d^100000[exp](o)"]) == (2, "")
        assert capsys.readouterr().err == "error: out of memory\n"

    def test_long_expand_chain_evaluates(self):
        assert run_cli(["expand", "1" + "+1" * 3000]) == (0, "3001\n")


class TestExtendedSugar:
    def test_cmp_names_the_first_unknown_coefficient(self, capsys):
        assert run_cli(["cmp", "sqrt(1+o)", "1+eps*o", "--order", "0"]) == (3, "")
        assert capsys.readouterr().err == (
            "error: undecidable at this order: coefficient of o^1 is unknown on one side\n")

    @pytest.mark.parametrize("expr,expected", [
        ("1+eps", "1 + inf*o"), ("eps-1", "-1 + inf*o"),
        ("o*eps", "inf*o^2"), ("S*eps", "inf"), ("(-2)*eps", "-inf*o"),
    ])
    def test_sugar_builds_the_extended_value(self, expr, expected):
        assert run_cli(["eval", expr]) == (0, expected + "\n")

    @pytest.mark.parametrize("expr,message", [
        ("eps/2", "extended numbers support comparison only"),
        ("eps-exp", "extended numbers support comparison only"),
        ("eps*eps", "extended numbers support comparison only"),
        ("eps*(1+o)", "an infinite moment can only be scaled by a monomial"),
        ("eps+o", "finite coefficients may not sit at or beyond the infinite moment"),
    ])
    def test_sugar_errors(self, expr, message, capsys):
        assert run_cli(["eval", expr]) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


LIBRARY_MESSAGES = [
    (["eval", "pow(o)"], "pow needs an exponent"),
    (["eval", "nosuch(o)"], "unknown function 'nosuch'"),
    (["eval", "D^1[exp]"], "an operator form must be applied to a point"),
    (["eval", "D^1[nosuch]"], "unknown function 'nosuch'"),
    (["eval", "D^1[exp]+1"], "an operator form must be applied to a point"),
    (["cmp", "D^1[exp]", "1"], "an operator form must be applied to a point"),
    (["sum", "D^1[exp]"], "an operator form must be applied to a point"),
]


class TestLibraryMessages:
    """Argument rules are the library's; the CLI prints its messages."""

    @pytest.mark.parametrize("argv,message", LIBRARY_MESSAGES,
                             ids=[" ".join(argv) for argv, _ in LIBRARY_MESSAGES])
    def test_message(self, argv, message, capsys):
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


class TestOneSummation:
    """``ode F --p 1`` and ``sum F`` are the same first-order summation."""

    @pytest.mark.parametrize("func,c", [("exp", "2"), ("log", "1/3"),
                                        ("poly[1, -2, 1/2]", "S + o")])
    @pytest.mark.parametrize("flags", [[], ["--order", "5", "--format", "json"]])
    def test_ode_p1_prints_sum(self, func, c, flags):
        ode = run_cli(["ode", func, "--p", "1", "--init", c] + flags)
        assert ode == run_cli(["sum", func, "--a0", c] + flags)
        assert ode[0] == 0


class TestOrderCap:
    def test_env_cap_enforced(self, monkeypatch, capsys):
        monkeypatch.setenv("OMEGA_MAX_ORDER", "5")
        code, out = run_cli(["eval", "o", "--order", "6"])
        assert code == 2
        assert out == ""
        assert "OMEGA_MAX_ORDER" in capsys.readouterr().err

    def test_default_cap_allows_32(self):
        code, _ = run_cli(["eval", "o", "--order", "32"])
        assert code == 0

    @pytest.mark.parametrize("raw", ["abc", "-3", "1.5", ""])
    def test_malformed_cap_is_refused(self, monkeypatch, capsys, raw):
        monkeypatch.setenv("OMEGA_MAX_ORDER", raw)
        code, out = run_cli(["--order", "20", "eval", "o"])
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == (
            "error: OMEGA_MAX_ORDER must be a nonnegative integer\n"
        )


class TestFlagPlacement:
    @pytest.mark.parametrize("flags", [["--order", "4"], ["--format", "json"],
                                       ["--order", "3", "--format", "json"]])
    def test_flags_before_and_after_command_agree(self, flags):
        before = run_cli(flags + ["eval", "sqrt(1+o)"])
        after = run_cli(["eval", "sqrt(1+o)"] + flags)
        assert before == after


class TestExpandOrder:
    def test_order_above_cap_is_refused(self, capsys):
        code, out = run_cli(["expand", "1/(1-o)", "--order", "33"])
        assert code == 2
        assert out == ""
        assert "OMEGA_MAX_ORDER" in capsys.readouterr().err

    @pytest.mark.parametrize("expr,expected", [
        ("S", "S"),
        ("(-o)", "-o"),
        ("((1+2*o-o^3)/(1-2*o+3*o^2+o^3))^40",
         "1 + 160*o + 12680*o^2 + 663360*o^3 + 25760500*o^4 + O(o^5)"),
        ("(2+3*o+o^2)/(2-o-o^2) + 1/(1-o)",  # common factor 2 + o
         "2 + 3*o + 3*o^2 + 3*o^3 + 3*o^4 + O(o^5)"),
    ])
    def test_expand_prints(self, expr, expected):
        assert run_cli(["expand", expr, "--order", "4"]) == (0, expected + "\n")

    def test_uncapped_alias_is_gone(self):
        out = io.StringIO()
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "1/(1-o)", "--expand", "40"], out=out)
        assert exc.value.code == 2
        assert out.getvalue() == ""


class TestTablesBeyondOrder32:
    """Antidifference tables grow on demand up to the order cap and past it."""

    def test_sum_at_order_17(self):
        code, out = run_cli(["sum", "exp", "--order", "17"])
        G = calculus.integrate(functions.builtin("exp"), 0, order=17)
        assert code == 0
        assert out == cli.format_value(G, "plain", 17) + "\n"

    def test_ode_at_order_20(self):
        code, out = run_cli(["ode", "exp", "--p", "3", "--order", "20"])
        zero = OmegaNumber.zero()
        G = calculus.solve_ode(functions.builtin("exp"), 3, [zero] * 3, order=20)
        assert code == 0
        assert out == cli.format_value(G, "plain", 20) + "\n"

    def test_table_a_to_40_matches_matrix_inverse(self):
        code, out = run_cli(["table", "a", "--max", "40"])
        assert code == 0
        header, *rows = out.splitlines()
        assert header.split() == ["m\\l"] + [str(l) for l in range(1, 42)]
        assert len(rows) == 41
        for m, row in enumerate(rows):
            label, *cells = row.split()
            assert label == str(m)
            assert cells[m + 1:] == ["."] * (40 - m)
            for l, cell in enumerate(cells[:m + 1], start=1):
                assert F(cell) == oracle_a(m, l)


# sha256 of `omega-calc table NAME --max 40` stdout, taken before the
# tables were rebuilt on the Stirling triangles.
TABLE_DIGESTS = {
    "bernoulli": "3dbc23def0ecfaf053475fec63350d98172e08661223185acfed950821e98b4e",
    "dtoD": "27389411a9a875092ac5f7ebe8515eb5b0bbae54fb6998892ea7f9a65078992f",
    "Dtod": "666763dbd9bbf1d95b813295319fd30355374ee0804123acdee236ec230f1642",
    "X": "53c5b1d82d5f188313c6a3921d5a03b41cf95756b5ba92813041754f7d4de103",
    "K": "529b8a3a2368a67ea930338d78d371e67446045fa4d9bea97f6aa98f6f29676d",
    "a": "3450b0572758b32d07665b0ed5000f6da74b0cf38f8e67ee4d95ad78c43f373c",
    "ap --p 2": "a5b8d6796706d1760f323346ec0cf26fffc9f71cf25956e3b79bf8863f29c27a",
    "ap --p 3": "718475cf1e9be693b0c49859cf3c64cc8733ddcc2700cb66ac0d8fc9f9d460c9",
}

#: ``table … --max 1``: the smallest grid, where header and padding meet.
TABLE_DIGESTS_MAX_1 = {
    "bernoulli": "3f8a99bfb1f946d271a3ef19ad4d318058d6579240cae748c77000c5c0b9ed76",
    "dtoD": "0f183b26977fcd66075fada221dc06422949497d9951b27e3c4cbe8fdd223d9b",
    "Dtod": "e7a5c30b0c2930b352ef9aeb16dc168dec3b9054a1efbee1e98b43662136d67e",
    "X": "0f183b26977fcd66075fada221dc06422949497d9951b27e3c4cbe8fdd223d9b",
    "K": "0f183b26977fcd66075fada221dc06422949497d9951b27e3c4cbe8fdd223d9b",
    "a": "a4f572bf077a7e2877c6a559daa3780cf3db358e5c4c51dd90206ee1e00ae66c",
    "ap --p 2": "fe68a3beafd8195b3971b6a49030c52a912893883097d738a1819ddc5d99aa86",
    "ap --p 3": "c4690dafe46c4c2b5e318ba8081048b79157ce56072cd105401df83a43980d47",
}


class TestTableDigests:
    @pytest.mark.parametrize("table", TABLE_DIGESTS)
    def test_table_max_40_is_byte_identical(self, table):
        name, *rest = table.split()
        code, out = run_cli(["table", name, "--max", "40", *rest])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[table]

    @pytest.mark.parametrize("table", TABLE_DIGESTS)
    def test_table_max_1_is_byte_identical(self, table):
        name, *rest = table.split()
        code, out = run_cli(["table", name, "--max", "1", *rest])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS_MAX_1[table]


class TestTargetKnownBelowTheOrder:
    """A solve or lift whose target or function is known only below
    --order is solved at that order, not refused with an internal
    truncation error."""

    @pytest.mark.parametrize("argv,expected", [
        (["--order", "4", "eval", "solve[poly[0,1] = S*(exp(o) - 1) - 1; 0]"],
         "1/2*o + 1/6*o^2 + 1/24*o^3 + O(o^4)"),
        (["--order", "4", "lift", "exp", "--target", "1 + S*(exp(o) - 1 - o)", "--seed", "0"],
         "1/2*o + 1/24*o^2 + O(o^4)"),
        # the function's constant coefficient is known to o^(N-1)
        (["--order", "2", "eval", "solve[poly[S*(exp(o)-1) - 1, 1] = o; 0]"],
         "1/2*o + O(o^2)"),
        (["--order", "3", "eval", "solve[poly[S*(exp(o)-1) - 1, 1] = o; 0]"],
         "1/2*o - 1/6*o^2 + O(o^3)"),
        (["--order", "4", "eval", "solve[poly[S*(exp(o)-1) - 1, 1] = o; 0]"],
         "1/2*o - 1/6*o^2 - 1/24*o^3 + O(o^4)"),
        (["--order", "6", "eval", "solve[poly[S*(exp(o)-1) - 1, 1] = o; 0]"],
         "1/2*o - 1/6*o^2 - 1/24*o^3 - 1/120*o^4 - 1/720*o^5 + O(o^6)"),
    ])
    def test_prints(self, argv, expected):
        assert run_cli(argv) == (0, expected + "\n")

    def test_unknown_constant_stays_undecidable(self, capsys):
        argv = ["--order", "0", "lift", "exp", "--target", "1 + S*(exp(o) - 1 - o)", "--seed", "0"]
        assert run_cli(argv) == (3, "")
        assert "constant coefficient is unknown" in capsys.readouterr().err


class TestAsciiIntegers:
    """INT is a run of ASCII digits: other Unicode digits are no token,
    though they may continue a name."""

    @pytest.mark.parametrize("text,ch", [("²", "²"), ("٣+1", "٣")])
    def test_unicode_digit_is_not_an_integer(self, text, ch, capsys):
        assert run_cli(["eval", text]) == (1, "")
        assert capsys.readouterr().err == (
            f"error: parse error at offset 0: expected a token; found '{ch}'\n"
        )
        assert run_cli(["eval", f"x{ch}"]) == (2, "")
        assert capsys.readouterr().err == f"error: unknown function 'x{ch}'\n"


class TestFlagsFollowTheGrammar:
    """Integer flags and OMEGA_MAX_ORDER read the grammar's [ "-" ] INT,
    --seed and --from its signed_rational; Python's wider int() and
    Fraction() syntax is refused."""

    @pytest.mark.parametrize("argv,message", [
        (["--order", "٣", "eval", "1+o"], "argument --order: invalid int value: '٣'"),
        (["--order", "1_0", "eval", "1+o"], "argument --order: invalid int value: '1_0'"),
        (["--order", "+3", "eval", "1+o"], "argument --order: invalid int value: '+3'"),
        (["eval", "1+o", "--order", "٣"], "argument --order: invalid int value: '٣'"),
        (["table", "a", "--max", "٢"], "argument --max: invalid int value: '٢'"),
        (["ode", "exp", "--p", "1_0"], "argument --p: invalid int value: '1_0'"),
        (["bsum", "exp", "--steps", "+2"], "argument --steps: invalid int value: '+2'"),
        (["demo", "leibniz-pi", "--terms", "3.0"], "argument --terms: invalid int value: '3.0'"),
    ])
    def test_integer_flag_refuses_what_int_accepts(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_:
            run_cli(argv)
        assert exit_.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {message}")

    @pytest.mark.parametrize("seed", ["1e0", "1.0", "١", "1_0"])
    def test_seed_refuses_what_fraction_accepts(self, seed, capsys):
        argv = ["lift", "poly[-1,1]", "--target", "0", "--seed", seed]
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == (
            f"error: --seed must be a rational number, got '{seed}'\n")

    def test_from_refuses_a_decimal(self, capsys):
        assert run_cli(["bsum", "poly[1]", "--from", "0.5", "--steps", "2"]) == (2, "")
        assert capsys.readouterr().err == (
            "error: --from must be a rational number, got '0.5'\n")

    def test_cap_refuses_a_unicode_digit(self, monkeypatch, capsys):
        monkeypatch.setenv("OMEGA_MAX_ORDER", "٣")
        assert run_cli(["--order", "2", "eval", "1+o"]) == (2, "")
        assert capsys.readouterr().err == (
            "error: OMEGA_MAX_ORDER must be a nonnegative integer\n")

    @pytest.mark.parametrize("argv,expected", [
        (["--order", "3", "eval", "1/(1-o)"], (0, "1 + o + o^2 + o^3 + O(o^4)\n")),
        (["lift", "poly[1,2]", "--target", "0", "--seed=-1/2"], (0, "-1/2\n")),
        (["lift", "poly[-1,1]", "--target", "0", "--seed", "1"], (0, "1\n")),
        (["bsum", "poly[1]", "--from", "1/2", "--steps", "2"], (0, "2*o\n")),
        (["bsum", "poly[0,1]", "--from=-1/2", "--steps", "2"], (0, "-o + o^2\n")),
        (["demo", "leibniz-pi", "--terms", "2"], (0, "1\n2/3\n")),
    ])
    def test_ascii_forms_run(self, argv, expected):
        assert run_cli(argv) == expected

    def test_negative_p_reaches_the_domain_rule(self, capsys):
        assert run_cli(["diff", "exp", "--p", "-1"]) == (2, "")
        assert capsys.readouterr().err == (
            "error: the difference order must be nonnegative\n")

    def test_ascii_cap_is_read(self, monkeypatch, capsys):
        monkeypatch.setenv("OMEGA_MAX_ORDER", "4")
        assert run_cli(["--order", "4", "eval", "1/(1-o)"]) == (
            0, "1 + o + o^2 + o^3 + o^4 + O(o^5)\n")
        assert run_cli(["--order", "5", "eval", "o"]) == (2, "")
        assert capsys.readouterr().err == (
            "error: --order must be between 0 and 4 (cap set by OMEGA_MAX_ORDER)\n")


class TestNegativeRationalArguments:
    """A negative rational is a value, after a flag or as a positional;
    any other argument that starts with '-' still follows '--'."""

    CASES = [
        (["lift", "poly[1,2]", "--target", "0", "--seed", "-1/2"], "-1/2\n"),
        (["bsum", "poly[0,1]", "--from", "-1/2", "--steps", "2"], "-o + o^2\n"),
        (["eval", "-1/2"], "-1/2\n"),
        (["cmp", "-1/2", "-1/3"], "Less\n"),
        (["eval", "--", "-o"], "-o\n"),
    ]

    @pytest.mark.parametrize("argv,expected", CASES, ids=[" ".join(a) for a, _ in CASES])
    def test_runs(self, argv, expected):
        assert run_cli(argv) == (0, expected)

    def test_other_leading_minus_is_an_option(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run_cli(["eval", "-o"])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: the following arguments are required: expr\n")

    def test_argparse_pattern_is_the_one_widened(self):
        """The command parsers extend argparse's own negative-number
        pattern; a change to it in argparse must be looked at."""
        assert argparse.ArgumentParser()._negative_number_matcher.pattern == (
            r"^-\d+$|^-\d*\.\d+$")
        command = cli._build_argparser()._subparsers._group_actions[0].choices["eval"]
        assert command._negative_number_matcher.pattern == (
            r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")


class TestLongIntegers:
    """Integers past Python's default 4300-digit string limit print in full."""

    @pytest.mark.parametrize("argv,digits", [
        (["eval", "10^5000"], "1" + "0" * 5000),
        (["eval", "1" * 5001], "1" * 5001),
        (["aleph", "mul", "10^3000", "10^3000"], "1" + "0" * 6000),
    ], ids=["10^5000", "5001-digit literal", "aleph mul 10^3000 10^3000"])
    def test_prints_every_digit(self, argv, digits):
        assert run_cli(argv) == (0, digits + "\n")

    def test_json_carries_every_digit(self):
        code, out = run_cli(["eval", "10^5000", "--format", "json"])
        assert code == 0
        assert from_json_dict(json.loads(out)) == OmegaNumber.from_rational(10**5000)


class TestLiftZeroResidual:
    """A lift whose residual is zero only as far as it is known returns
    that tail; an exact zero residual returns an exact root."""

    @pytest.mark.parametrize("argv,expected", [
        (["--order", "1", "eval", "solve[poly[0,1] = o^5; 0]"], "O(o^2)"),
        (["--order", "1", "eval", "solve[poly[S*(exp(o)-1) - 1, 1] = o; 0]"], "O(o^1)"),
        (["eval", "solve[exp = 1; 0]"], "O(o^9)"),  # exp(0) is 1 + O(o^9)
    ])
    def test_inexact_zero_residual_keeps_its_tail(self, argv, expected):
        assert run_cli(argv) == (0, expected + "\n")

    @pytest.mark.parametrize("poly,target,seed,root", [
        ("poly[-1,1]", "0", "1", "1"),
        ("poly[0,0,1]", "4", "2", "2"),
    ])
    def test_exact_root_stays_exact(self, poly, target, seed, root):
        assert run_cli(["eval", f"solve[{poly} = {target}; {seed}]"]) == (0, root + "\n")
        # the same seed under a target moved past the order is a root known to o^1
        moved = f"solve[{poly} = {target} + o^5; {seed}]"
        assert run_cli(["--order", "1", "eval", moved]) == (0, f"{root} + O(o^2)\n")

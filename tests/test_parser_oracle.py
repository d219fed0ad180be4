"""The parser against the one it replaced, and the number readers.

``OracleParser`` is ``parser._Parser`` as it stood before one
``parse_int`` read every INT token and one loop served ``expr`` and
``term``.  Over strings built from the grammar's own tokens (and a few
that are no token), both parsers must give equal ASTs or parse errors
with equal offset, expected tokens and found text.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegacalc.parser import (
    Apply,
    BinOp,
    DiffForm,
    FuncRef,
    IntForm,
    Lit,
    Neg,
    ParseError,
    PolyFunc,
    Pow,
    SolveForm,
    Sym,
    _Token,
    _tokenize,
    parse,
    read_int,
    read_rational,
)


class OracleParser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def fail(self, *expected: str):
        t = self.peek()
        found = f"'{t.text}'" if t.kind != "end" else "end of input"
        raise ParseError(t.offset, expected, found)

    def expect(self, text: str) -> _Token:
        t = self.peek()
        if t.kind == "punct" and t.text == text:
            return self.next()
        self.fail(f"'{text}'")

    def accept(self, text: str) -> bool:
        t = self.peek()
        if t.kind == "punct" and t.text == text:
            self.next()
            return True
        return False

    # grammar rules ---------------------------------------------------

    def parse_expr(self):
        node = self.parse_term()
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text in "+-":
                self.next()
                node = BinOp(t.text, node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_unary()
        while True:
            t = self.peek()
            if t.kind == "punct" and t.text in "*/":
                self.next()
                node = BinOp(t.text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self):
        if self.accept("-"):
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_postfix()
        if self.accept("^"):
            return Pow(node, self.parse_exponent())
        return node

    def parse_exponent(self) -> Fraction:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Fraction(int(t.text))
        if t.kind == "punct" and t.text == "(":
            self.next()
            value = self.parse_signed_rational()
            self.expect(")")
            return value
        self.fail("integer", "'('")

    def parse_signed_rational(self) -> Fraction:
        negative = self.accept("-")
        t = self.peek()
        if t.kind != "int":
            self.fail("integer")
        self.next()
        num = int(t.text)
        den = 1
        if self.accept("/"):
            d = self.peek()
            if d.kind != "int":
                self.fail("integer")
            if int(d.text) == 0:
                self.fail("nonzero integer")
            self.next()
            den = int(d.text)
        value = Fraction(num, den)
        return -value if negative else value

    def parse_postfix(self):
        node = self.parse_primary()
        if isinstance(node, (FuncRef, PolyFunc, DiffForm, IntForm)) and self.accept("("):
            arg = self.parse_expr()
            self.expect(")")
            return Apply(node, arg)
        return node

    def parse_primary(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Lit(Fraction(int(t.text)))
        if t.kind == "punct" and t.text == "(":
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if t.kind == "name":
            return self.parse_name()
        self.fail("integer", "name", "'('", "'-'")

    def parse_name(self):
        t = self.next()
        name = t.text
        if name in ("o", "S", "eps"):
            return Sym(name)
        if name == "sqrt":
            self.expect("(")
            node = self.parse_expr()
            self.expect(")")
            return Pow(node, Fraction(1, 2))
        if name in ("D", "d"):
            self.expect("^")
            p = self.parse_int()
            self.expect("[")
            func = self.parse_func()
            self.expect("]")
            return DiffForm(name, p, func)
        if name == "int":
            p = 1
            if self.accept("^"):
                p = self.parse_int()
            self.expect("[")
            func = self.parse_func()
            inits: list = []
            if self.accept(";"):
                inits.append(self.parse_expr())
                while self.accept(","):
                    inits.append(self.parse_expr())
            self.expect("]")
            return IntForm(p, func, tuple(inits))
        if name == "solve":
            self.expect("[")
            func = self.parse_func()
            self.expect("=")
            target = self.parse_expr()
            self.expect(";")
            seed = self.parse_signed_rational()
            self.expect("]")
            return SolveForm(func, target, seed)
        if name == "poly":
            return self.parse_poly()
        return FuncRef(name)

    def parse_int(self) -> int:
        t = self.peek()
        if t.kind != "int":
            self.fail("integer")
        self.next()
        return int(t.text)

    def parse_poly(self):
        self.expect("[")
        coeffs = [self.parse_expr()]
        while self.accept(","):
            coeffs.append(self.parse_expr())
        self.expect("]")
        return PolyFunc(tuple(coeffs))

    def parse_func(self):
        t = self.peek()
        if t.kind != "name":
            self.fail("function name")
        if t.text in ("o", "S", "eps", "D", "d", "solve", "sqrt"):
            self.fail("function name")
        node = self.parse_name()
        if not isinstance(node, (FuncRef, PolyFunc, IntForm)):
            self.fail("function name")
        return node


def oracle_parse(text: str):
    """Parse one expression; trailing input is an error."""
    p = OracleParser(text)
    node = p.parse_expr()
    if p.peek().kind != "end":
        p.fail("end of input")
    return node


def oracle_read(text: str, rule):
    p = OracleParser(text)
    value = rule(p)
    if p.peek().kind != "end":
        p.fail("end of input")
    return value


def oracle_signed_int(p: OracleParser) -> int:
    negative = p.accept("-")
    value = p.parse_int()
    return -value if negative else value


def outcome(read, *args):
    """The value read, or the parse error's offset, expected tokens and found text."""
    try:
        return ("value", read(*args))
    except ParseError as exc:
        return ("error", exc.offset, exc.expected, exc.found)


TOKENS = ["o", "S", "eps", "sqrt", "D", "d", "int", "solve", "poly", "exp", "x",
          "0", "00", "1", "7", "12", "1/0", *"+-*/^()[];,=", " ", "٣", "²"]

texts = st.lists(st.sampled_from(TOKENS), max_size=14).map("".join)


@settings(max_examples=3000, deadline=None)
@given(texts)
@example("int^2[poly[0, 1]; 0, 3](2*o)")
@example("solve[exp = 1 + o; -1/00]")
@example("(2+3*o)^-1")
@example("D^2[sqrt](o)")
@example("1-2*3/o+S^(-3/12)")
def test_same_ast_or_same_error(text):
    assert outcome(parse, text) == outcome(oracle_parse, text)


@settings(max_examples=1000, deadline=None)
@given(texts)
@example("-1/2")
@example("3/0")
@example("- 12 / 7 ")
def test_read_rational_is_the_old_signed_rational(text):
    assert outcome(read_rational, text) == outcome(
        oracle_read, text, OracleParser.parse_signed_rational)


@settings(max_examples=1000, deadline=None)
@given(texts)
@example("-00")
@example("1/1")
def test_read_int_is_minus_int(text):
    assert outcome(read_int, text) == outcome(oracle_read, text, oracle_signed_int)


@given(st.integers())
def test_read_int_reads_every_decimal_integer(n):
    assert read_int(str(n)) == n


@given(st.fractions())
def test_read_rational_reads_every_fraction(q):
    assert read_rational(str(q)) == q


@pytest.mark.parametrize("text", ["٣", "1_0", "+3", "1.0", "1e0", "0x10", "", " ", "3 4"])
def test_read_int_refuses_what_the_grammar_refuses(text):
    with pytest.raises(ParseError):
        read_int(text)


@pytest.mark.parametrize("text", ["١", "1_0", "+1/2", "1.0", "1e0", "0.5", "1/0", "1/-2",
                                  "1//2", "inf", "nan"])
def test_read_rational_refuses_what_the_grammar_refuses(text):
    with pytest.raises(ParseError):
        read_rational(text)


def test_zero_denominator_names_the_zero():
    with pytest.raises(ParseError) as err:
        read_rational("-3/000")
    assert (err.value.offset, err.value.expected, err.value.found) == (
        3, ("nonzero integer",), "'000'")

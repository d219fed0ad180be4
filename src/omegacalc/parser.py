"""Tokenizer, AST, recursive-descent parser and unparser for the CLI grammar.

Grammar (EBNF, whitespace-insensitive):

    expr      = term { ("+" | "-") term } ;
    term      = unary { ("*" | "/") unary } ;
    unary     = "-" unary | power ;
    power     = postfix [ "^" exponent ] ;
    exponent  = INT | "(" signed_rational ")" ;
    signed_rational = [ "-" ] INT [ "/" INT ] ;
    postfix   = primary [ "(" expr ")" ] ;
    primary   = INT | "o" | "S" | "eps" | "sqrt" "(" expr ")"
              | opform | funcref | "(" expr ")" ;
    funcref   = NAME | "poly" "[" expr { "," expr } "]" ;
    opform    = ("D" | "d") "^" INT "[" func "]"
              | "int" [ "^" INT ] "[" func [ ";" expr { "," expr } ] "]"
              | "solve" "[" func "=" expr ";" signed_rational "]" ;
    func      = funcref | "int" ... ;

Precedence: ^  >  unary -  >  * /  >  + -, all left-associative except
^, whose exponent must be an integer or a parenthesized rational
literal.  INT is a run of ASCII digits, and a signed_rational's
denominator is nonzero.  Offsets in errors are 0-based character offsets
into the input string.  ``read_int`` and ``read_rational`` read a whole
input as ``[ "-" ] INT`` and as ``signed_rational``.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record


class ParseError(Exception):
    def __init__(self, offset: int, expected: tuple[str, ...], found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"parse error at offset {offset}: expected "
            f"{' or '.join(expected)}; found {found}"
        )


# -- AST --------------------------------------------------------------------


class Lit(Record):
    __slots__ = ("value",)  # a Fraction


class Sym(Record):
    __slots__ = ("name",)  # "o", "S" or "eps"


class FuncRef(Record):
    __slots__ = ("name",)


class PolyFunc(Record):
    __slots__ = ("coeffs",)  # a tuple of nodes


class Neg(Record):
    __slots__ = ("operand",)


class BinOp(Record):
    __slots__ = ("op", "left", "right")


class Pow(Record):
    __slots__ = ("base", "exponent")  # the exponent is a Fraction


class Apply(Record):
    __slots__ = ("func", "arg")


class DiffForm(Record):
    # kind: "D" (finite difference) or "d" (derivative differential)
    __slots__ = ("kind", "order", "func")


class IntForm(Record):
    __slots__ = ("order", "func", "inits")  # inits: a tuple of nodes


class SolveForm(Record):
    __slots__ = ("func", "target", "seed")  # the seed is a Fraction


# -- tokens -----------------------------------------------------------------

_PUNCT = "+-*/^()[];,="


class _Token(Record):
    __slots__ = ("kind", "text", "offset")  # kind: "int", "name", "punct" or "end"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: str.isdigit() also holds for '²'
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, i))
            i += 1
            continue
        raise ParseError(i, ("a token",), repr(ch))
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
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

    def parse_expr(self, ops: str = "+-"):
        """expr (ops "+-") or term (ops "*/"): operands joined left to right."""
        node, op = None, None
        while True:
            right = self.parse_expr("*/") if ops == "+-" else self.parse_unary()
            node = BinOp(op, node, right) if op else right
            t = self.peek()
            if t.kind != "punct" or t.text not in ops:
                return node
            op = self.next().text

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
        if self.accept("("):
            value = self.parse_signed_rational()
            self.expect(")")
            return value
        return Fraction(self.parse_int("integer", "'('"))

    def parse_int(self, *expected: str) -> int:
        """One INT token as an int; ``expected`` names what may stand here."""
        t = self.peek()
        if t.kind != "int":
            self.fail(*expected or ("integer",))
        self.next()
        return int(t.text)

    def parse_signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * self.parse_int()

    def parse_signed_rational(self) -> Fraction:
        value = Fraction(self.parse_signed_int())
        if self.accept("/"):
            den = self.parse_int()
            if den == 0:
                self.pos -= 1  # the error names the zero token
                self.fail("nonzero integer")
            value /= den
        return value

    def parse_postfix(self):
        node = self.parse_primary()
        if isinstance(node, (FuncRef, PolyFunc, DiffForm, IntForm)) and self.accept("("):
            arg = self.parse_expr()
            self.expect(")")
            return Apply(node, arg)
        return node

    def parse_primary(self):
        if self.peek().kind == "name":
            return self.parse_name()
        if self.accept("("):
            node = self.parse_expr()
            self.expect(")")
            return node
        return Lit(Fraction(self.parse_int("integer", "name", "'('", "'-'")))

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
            p = self.parse_int() if self.accept("^") else 1
            self.expect("[")
            func = self.parse_func()
            inits = self.parse_exprs() if self.accept(";") else ()
            self.expect("]")
            return IntForm(p, func, inits)
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
            self.expect("[")
            coeffs = self.parse_exprs()
            self.expect("]")
            return PolyFunc(coeffs)
        return FuncRef(name)

    def parse_exprs(self) -> tuple:
        """expr { "," expr }"""
        exprs = [self.parse_expr()]
        while self.accept(","):
            exprs.append(self.parse_expr())
        return tuple(exprs)

    def parse_func(self):
        """funcref or int form: every name but the other keywords."""
        t = self.peek()
        if t.kind != "name" or t.text in ("o", "S", "eps", "D", "d", "solve", "sqrt"):
            self.fail("function name")
        return self.parse_name()


def _read(text: str, rule):
    """The whole of ``text`` by one grammar rule; trailing input is an error."""
    p = _Parser(text)
    value = rule(p)
    if p.peek().kind != "end":
        p.fail("end of input")
    return value


def parse(text: str):
    """Parse one expression."""
    return _read(text, _Parser.parse_expr)


def read_int(text: str) -> int:
    """The whole of ``text`` as [ "-" ] INT."""
    return _read(text, _Parser.parse_signed_int)


def read_rational(text: str) -> Fraction:
    """The whole of ``text`` as a signed_rational."""
    return _read(text, _Parser.parse_signed_rational)


# -- unparser ---------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _format_exponent(value: Fraction) -> str:
    if value.denominator == 1 and value >= 0:
        return f"^{value.numerator}"
    return f"^({value})"


def unparse(node) -> str:
    """Canonical text whose parse equals the original AST."""
    return _unparse(node, 0)


def _unparse(node, level: int) -> str:
    text, own = _render(node)
    if own < level:
        return f"({text})"
    return text


def _render(node) -> tuple[str, int]:
    if isinstance(node, Lit):
        return str(node.value), _LEVEL_ATOM
    if isinstance(node, Sym):
        return node.name, _LEVEL_ATOM
    if isinstance(node, FuncRef):
        return node.name, _LEVEL_ATOM
    if isinstance(node, PolyFunc):
        inner = ", ".join(_unparse(c, 0) for c in node.coeffs)
        return f"poly[{inner}]", _LEVEL_ATOM
    if isinstance(node, Neg):
        return f"-{_unparse(node.operand, _LEVEL_UNARY)}", _LEVEL_UNARY
    if isinstance(node, BinOp):
        if node.op in "+-":
            lhs = _unparse(node.left, _LEVEL_ADD)
            rhs = _unparse(node.right, _LEVEL_MUL)
            return f"{lhs} {node.op} {rhs}", _LEVEL_ADD
        lhs = _unparse(node.left, _LEVEL_MUL)
        rhs = _unparse(node.right, _LEVEL_UNARY)
        return f"{lhs}{node.op}{rhs}", _LEVEL_MUL
    if isinstance(node, Pow):
        base = _unparse(node.base, _LEVEL_ATOM)
        return f"{base}{_format_exponent(node.exponent)}", _LEVEL_POW
    if isinstance(node, Apply):
        return f"{_unparse(node.func, _LEVEL_ATOM)}({_unparse(node.arg, 0)})", _LEVEL_ATOM
    if isinstance(node, DiffForm):
        return f"{node.kind}^{node.order}[{unparse(node.func)}]", _LEVEL_ATOM
    if isinstance(node, IntForm):
        head = "int" if node.order == 1 else f"int^{node.order}"
        if node.inits:
            inner = "; " + ", ".join(_unparse(c, 0) for c in node.inits)
        else:
            inner = ""
        return f"{head}[{unparse(node.func)}{inner}]", _LEVEL_ATOM
    if isinstance(node, SolveForm):
        return (
            f"solve[{unparse(node.func)} = {unparse(node.target)}; {node.seed}]",
            _LEVEL_ATOM,
        )
    raise TypeError(f"not an expression node: {node!r}")

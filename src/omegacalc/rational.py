"""Rational functions P(o)/Q(o) and their Laurent expansions.

This is the field generated over the rationals by ``o`` alone (with
``S = 1/o``).  Every element expands into a unique series: when the
denominator has a zero at ``o = 0`` its o-power factors out as S-powers,
and the rest is omega's series division.  ``from_polys`` reduces P/Q,
and the operators keep that reduced form from their reduced operands by
Henrici's gcds (Knuth, TAOCP vol. 2, 4.5.1): a product divides out only
the cross gcds gcd(P1, Q2) and gcd(P2, Q1), a sum only gcd(Q1, Q2) and
then what the new numerator shares with it.  So every value built by
``from_polys``, ``from_rational``, ``o``, ``sigma`` and the operators is
reduced, and an expansion is finite exactly when Q is a monomial.  A
``RationalFunction(num, den)`` written by hand from unreduced tuples is
outside that contract: only ``**`` reduces such an operand first.
The expansion is a field embedding, and the order it induces is read off
P/Q itself: the leading coefficient of the expansion is the ratio of the
lowest coefficients of P and Q, so no comparison expands anything.

Polynomials use omega's kernel: ``_mul_trunc`` multiplies, and a
quotient is ``_div_series`` on reversed coefficients (series division in
S); Euclid's remainder is the part of ``a - b*q`` below deg b.  Most
gcds are 1, and Brown's modular certificate (JACM 1971) proves that from
one image modulo the prime p = 2^61 - 1, with no coefficient growth;
Euclid over Q runs only when the images share a factor (a real common
factor, an o-power, or an unlucky p) or when a denominator or a leading
coefficient vanishes modulo p.

The truncation sequence of any finite value is a Cauchy sequence of
polynomials converging to it, which `completion_demo` materializes
through the known order.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import DivisionByZero, NotInRo
from .omega import DEFAULT_ORDER, OmegaNumber, Rational
from .omega import _canonical, _div_series, _frac, _mul_trunc

Poly = tuple[Fraction, ...]


def _poly(coeffs) -> Poly:
    out = [_frac(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _poly(
        [
            (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)
        ]
    )


def _poly_neg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def _poly_mul(a: Poly, b: Poly) -> Poly:
    return _poly(_mul_trunc(a, b))


def _poly_of(x: OmegaNumber) -> Poly:
    """Coefficients of a value with no S-powers, from o^0 up."""
    return (Fraction(0),) * (x.valuation or 0) + x.coeffs


def _poly_pow(a: Poly, n: int) -> Poly:
    return _poly_of(_canonical(0, a, None) ** n)  # the kernel's exact binary powering


def _poly_quo(a: Poly, b: Poly) -> list:
    """Quotient of polynomial division: series division of the reversed
    coefficients, through the quotient's degree (empty when deg a < deg b)."""
    return _div_series(a[::-1], b[::-1], len(a) - len(b))[::-1]


def _poly_exquo(a: Poly, g: Poly) -> Poly:
    """The exact quotient a / g for a monic divisor g of a (a itself when g is 1)."""
    return a if len(g) == 1 else tuple(_poly_quo(a, g))


_P = 2**61 - 1  # the prime of the coprimality certificate


def _image_mod_p(a: Poly) -> list | None:
    """a's coefficients in Z/p, or None when a denominator or the leading
    coefficient vanishes modulo p."""
    out = []
    for c in a:
        d = c.denominator % _P
        if not d:
            return None
        out.append(c.numerator * pow(d, -1, _P) % _P if d != 1 else c.numerator % _P)
    return out if out[-1] else None


def _coprime_mod_p(a: Poly, b: Poly) -> bool:
    """Brown's certificate: True only when gcd(a, b) over Q is 1.

    For nonzero a and b whose denominators and leading coefficients do
    not vanish mod p, a common factor over Q, taken primitive in Z[o],
    divides the leading coefficient of each integer-scaled operand, so it
    keeps its degree mod p and divides both images.  A constant nonzero
    gcd of the images therefore proves coprimality.  False means only
    "not certified": a real common factor, or an unlucky p.
    """
    if not (a and b):
        return False
    x, y = _image_mod_p(a), _image_mod_p(b)
    if x is None or y is None:
        return False
    while len(y) > 1:  # Euclid over Z/p: x <- x mod y, then swap
        inv, m = pow(y[-1], -1, _P), len(y) - 1
        while len(x) > m:
            q = x.pop() * inv % _P  # the top term cancels against q*y
            shift = len(x) - m
            for i in range(m):
                x[shift + i] = (x[shift + i] - q * y[i]) % _P
            while x and not x[-1]:
                x.pop()
        if not x:  # y divides x: a gcd of positive degree
            return False
        x, y = y, x
    return True


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q (1 for coprime operands, b made monic when a is 0).

    A constant operand, or coprimality certified modulo p by
    ``_coprime_mod_p``, gives 1 at once.  Euclid over Q runs for a real
    common factor, an o-power factor or an unlucky p, and when a
    denominator or a leading coefficient vanishes modulo p.
    """
    if len(a) == 1 or len(b) == 1 or _coprime_mod_p(a, b):
        return (Fraction(1),)
    while b:
        m = len(b)  # Euclid: the remainder a - b*q lies below o^(m-1)
        a, b = b, _poly_add(a[:m - 1], _poly_neg(_mul_trunc(b, _poly_quo(a, b), m - 2)))
    if a and a[-1] != 1:
        a = tuple(c / a[-1] for c in a)
    return a if a else (Fraction(1),)


class RationalFunction(Record):
    """Reduced fraction of o-polynomials with a monic-lead denominator.

    Build values with ``from_polys`` (or ``from_rational``, ``o``,
    ``sigma``) and the operators: ``+ - * /`` and ``invert`` keep the
    normal form only from reduced operands, so ``==`` and ``hash`` agree
    with ``from_polys`` only for such values.  ``**`` reduces its operand
    first.
    """

    __slots__ = ("num", "den")  # two Polys

    @staticmethod
    def from_polys(num, den) -> "RationalFunction":
        n, d = _poly(num), _poly(den)
        if not d:
            raise DivisionByZero("zero denominator")
        if n:
            g = _poly_gcd(n, d)
            n, d = _poly_exquo(n, g), _poly_exquo(d, g)
        else:
            d = (Fraction(1),)
        lead = d[-1]
        n = tuple(c / lead for c in n)
        d = tuple(c / lead for c in d)
        return RationalFunction(n, d)

    @staticmethod
    def from_rational(value: Rational) -> "RationalFunction":
        return RationalFunction.from_polys([_frac(value)], [1])

    @staticmethod
    def o() -> "RationalFunction":
        return RationalFunction.from_polys([0, 1], [1])

    @staticmethod
    def sigma() -> "RationalFunction":
        return RationalFunction.from_polys([1], [0, 1])

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        # Henrici: with g = gcd(Q1, Q2), t = P1*(Q2/g) + P2*(Q1/g) over
        # (Q1/g)*Q2, and only gcd(t, g) can divide out.
        (p1, q1), (p2, q2) = (self.num, self.den), (other.num, other.den)
        g = _poly_gcd(q1, q2)
        q1g, q2g = _poly_exquo(q1, g), _poly_exquo(q2, g)
        t = _poly_add(_poly_mul(p1, q2g), _poly_mul(p2, q1g))
        if not t:
            return _ZERO
        h = _poly_gcd(t, g)
        return RationalFunction(_poly_exquo(t, h), _poly_mul(q1g, _poly_exquo(q2, h)))

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(_poly_neg(self.num), self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        # Henrici: both operands are reduced, so only the cross gcds
        # gcd(P1, Q2) and gcd(P2, Q1) can divide out.
        (p1, q1), (p2, q2) = (self.num, self.den), (other.num, other.den)
        if not (p1 and p2):
            return _ZERO
        g1, g2 = _poly_gcd(p1, q2), _poly_gcd(p2, q1)
        return RationalFunction(_poly_mul(_poly_exquo(p1, g1), _poly_exquo(p2, g2)),
                                _poly_mul(_poly_exquo(q1, g2), _poly_exquo(q2, g1)))

    def invert(self) -> "RationalFunction":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        lead = self.num[-1]  # P/Q reduced => Q/P reduced; make P monic
        return RationalFunction(tuple([c / lead for c in self.den]),
                                tuple([c / lead for c in self.num]))

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return self * other.invert()

    def __pow__(self, n: int) -> "RationalFunction":
        # One gcd, on the operand: P/Q reduced, Q monic => P^n/Q^n too.
        base = RationalFunction.from_polys(self.num, self.den)
        if n < 0:
            base = base.invert()
        return RationalFunction(_poly_pow(base.num, abs(n)), _poly_pow(base.den, abs(n)))


_ZERO = RationalFunction((), (Fraction(1),))


def expand(rf: RationalFunction, order: int | None = None) -> OmegaNumber:
    """Laurent expansion of P/Q to the requested order.

    Factors the denominator's o-power o^v into S-powers and divides by
    omega's series-division recurrence.  P/Q is reduced, so the expansion
    terminates only when Q is a monomial; it is exact when, besides, all
    of P lies within the order, and otherwise it carries its truncation
    order.
    """
    target = order if order is not None else DEFAULT_ORDER
    if rf.is_zero():
        return OmegaNumber.zero()
    v = next(i for i, c in enumerate(rf.den) if c != 0)
    den, limit = rf.den[v:], target + v
    if len(den) == 1 and len(rf.num) <= limit + 1:
        return _canonical(-v, [c / den[0] for c in rf.num], None)
    return _canonical(-v, _div_series(rf.num, den, limit), target)


def rf_compare(a: RationalFunction, b: RationalFunction) -> int:
    """The expansion order, exactly: the sign of the leading coefficient of
    a - b = P/Q, the ratio of the lowest coefficients of P and Q (0 when P
    is zero, that is only when a == b)."""
    d = a - b
    lead = next((c for c in d.num if c), 0) / next(c for c in d.den if c)
    return (lead > 0) - (lead < 0)


def completion_demo(target: OmegaNumber, upto: int | None = None) -> list[RationalFunction]:
    """Successive truncations of a finite value, as polynomials.

    The returned sequence is Cauchy and converges to the value; it
    stabilizes immediately when the value is already a polynomial.  An
    ``upto`` past the known order raises OrderExceedsKnown.
    """
    if target.valuation is not None and target.valuation < 0:
        raise NotInRo("completion demo is for finite values")
    if upto is None:
        upto = target.known_order if target.known_order is not None else DEFAULT_ORDER
    return [RationalFunction.from_polys(_poly_of(target.truncate(n)), [1])
            for n in range(upto + 1)]

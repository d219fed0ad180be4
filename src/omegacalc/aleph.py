"""Nonstandard integers: polynomials in the infinite unit S.

An ``AlephInt`` is ``a_0 + a_1*S + ... + a_N*S^N`` with an integer
constant term and rational higher coefficients.  These are the "infinite
but defined to a unit" integers: the successor ``L + 1`` never equals
``L``.  The nonnegative cone (``a_N > 0``, or a plain natural number) is
a nonstandard model of the usual induction structure, and the maps
``phi``/``psi`` identify it with the grid ``t + k*o`` of step-``o``
points.

An ``AlephInt`` is a view of one exact ``OmegaNumber``: its ring laws and
its order are those of the Omega numbers, restricted to values with no
o-part.  Addition and multiplication are plain polynomial laws in S; they
agree with the inductive defining equations (``L + S(M) = L + M + 1``,
``L * S(M) = L*M + L``) on every finite unrolling, which the test suite
checks directly.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import (
    IndistinguishableAtTruncation,
    OutOfDomain,
    PredecessorOfZero,
)
from .omega import DEFAULT_ORDER, OmegaNumber, Rational, _frac, compare, render_plain


class AlephInt(Record):
    """An exact ``OmegaNumber`` with no o-part and an integer constant term.

    ``coeffs[k]`` is the coefficient of S^k (``o^-k``); zero is ``(0,)``.
    """

    __slots__ = ("value",)

    def __init__(self, value: OmegaNumber):
        super().__init__(value)
        if not value.is_exact():
            raise OutOfDomain("nonstandard integers are exact values")
        if value.coeffs and value.valuation + len(value.coeffs) > 1:
            raise OutOfDomain("value has a nonzero o-part")
        if value.coefficient(0).denominator != 1:
            raise OutOfDomain("constant term is not an integer")

    @staticmethod
    def from_coeffs(values) -> "AlephInt":
        return AlephInt(OmegaNumber.from_terms([(-k, c) for k, c in enumerate(values)]))

    @staticmethod
    def from_int(n: int) -> "AlephInt":
        return AlephInt.from_coeffs([n])

    @staticmethod
    def sigma() -> "AlephInt":
        return AlephInt.from_coeffs([0, 1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        v = self.value
        if not v.coeffs:
            return (Fraction(0),)
        top = v.valuation + len(v.coeffs) - 1  # <= 0: the S^-top coefficient
        return (Fraction(0),) * -top + v.coeffs[::-1]

    @property
    def degree(self) -> int:
        return -self.value.valuation if self.value.coeffs else 0

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def in_aleph_plus(self) -> bool:
        """Membership in the nonnegative cone: infinite with positive lead,
        or a standard natural number."""
        return self.is_zero() or self.value.coeffs[0] > 0

    def to_omega(self) -> OmegaNumber:
        return self.value

    # -- ring structure (full ring: negatives included) ---------------

    def __add__(self, other) -> "AlephInt":
        return AlephInt(self.value + _as_aleph(other).value)

    def __neg__(self) -> "AlephInt":
        return AlephInt(-self.value)

    def __sub__(self, other) -> "AlephInt":
        return AlephInt(self.value - _as_aleph(other).value)

    def __mul__(self, other) -> "AlephInt":
        return AlephInt(self.value * _as_aleph(other).value)

    def __str__(self) -> str:
        return render_plain(self.value)

    def __repr__(self) -> str:
        return f"AlephInt({str(self)!r})"


def _as_aleph(value) -> AlephInt:
    if isinstance(value, AlephInt):
        return value
    if isinstance(value, int):
        return AlephInt.from_int(value)
    raise TypeError(f"not a nonstandard integer: {value!r}")


def aleph_from_omega(x: OmegaNumber) -> AlephInt:
    """Reinterpret an exact value with no o-part as a nonstandard integer."""
    return AlephInt(x)


# ---------------------------------------------------------------------------
# Successor structure
# ---------------------------------------------------------------------------


def successor(L: AlephInt) -> AlephInt:
    return L + AlephInt.from_int(1)


def predecessor(L: AlephInt) -> AlephInt:
    if L.is_zero():
        raise PredecessorOfZero("0 has no predecessor")
    return L - AlephInt.from_int(1)


def oplus(L: AlephInt, M: AlephInt) -> AlephInt:
    """Generalized sum (polynomial addition in S)."""
    return L + M


def odiamond(L: AlephInt, M: AlephInt) -> AlephInt:
    """Generalized product (polynomial multiplication in S)."""
    return L * M


def compare_aleph(L: AlephInt, M: AlephInt) -> int:
    """Total order with S-powers dominating: 1 << S << S^2 ..."""
    return compare(L.value, M.value)


# ---------------------------------------------------------------------------
# The grid R_o^1 and its identification with the integers
# ---------------------------------------------------------------------------


class GridPoint(Record):
    """A step-o grid point ``t + k*o`` (standard part t, step count k)."""

    __slots__ = ("t", "k")  # a Fraction and an int

    @staticmethod
    def of(t: Rational, k: int) -> "GridPoint":
        return GridPoint(_frac(t), k)

    def to_omega(self) -> OmegaNumber:
        return OmegaNumber.from_terms({0: self.t, 1: self.k})

    def __str__(self) -> str:
        return render_plain(self.to_omega())


def phi(x1: GridPoint) -> AlephInt:
    """Count of o-steps in [o, x1]: ``t + k*o -> t*S + k``.

    Defined on the nonnegative grid (t > 0, or t = 0 with k >= 0).
    """
    if not (x1.t > 0 or (x1.t == 0 and x1.k >= 0)):
        raise OutOfDomain("phi needs a nonnegative grid point")
    return AlephInt.from_coeffs([x1.k, x1.t])

def psi(L: AlephInt) -> GridPoint:
    """Inverse of phi: ``a_1*S + a_0 -> a_1 + a_0*o``."""
    if L.degree > 1 or not L.in_aleph_plus():
        raise OutOfDomain("psi needs a nonnegative integer of degree <= 1")
    return GridPoint(L.value.coefficient(-1), int(L.value.coefficient(0)))


# ---------------------------------------------------------------------------
# Integer truncature and the Archimedean property
# ---------------------------------------------------------------------------


def integer_truncature(x: OmegaNumber) -> AlephInt:
    """Greatest nonstandard integer L with L <= x < L + 1.

    S-power coefficients are kept, the constant term is floored, and the
    o-part is dropped.  When the constant term is already an integer the
    sign of the o-part decides between it and its predecessor; if that
    sign is hidden past the known order the floor is undecidable.
    """
    if x.known_order is not None and x.known_order < 0:
        raise IndistinguishableAtTruncation(
            "constant coefficient is unknown", known_through=x.known_order
        )
    c0 = x.coefficient(0)
    if c0.denominator == 1:
        d0 = c0 + _sign_of_tail(x)  # -1 when the o-part is negative
    else:
        d0 = c0.numerator // c0.denominator
    sigma_part = [(e, c) for e, c in x.terms() if e < 0]
    return AlephInt(OmegaNumber.from_terms(sigma_part + [(0, d0)]))


def _sign_of_tail(x: OmegaNumber) -> int:
    """0 if the o-part is >= 0, -1 if negative; raises when unknown."""
    for e, c in x.terms():
        if e >= 1:
            return -1 if c < 0 else 0
    if x.is_exact():
        return 0
    raise IndistinguishableAtTruncation(
        "fractional part undecidable: o-part vanishes to the known order",
        known_through=x.known_order,
    )


def archimedean_division(
    a: OmegaNumber, b: OmegaNumber, order: int | None = None
) -> AlephInt:
    """The integer L with L*a <= b < (L+1)*a, for a > 0, b >= 0.

    L is the integer truncature of the quotient ``b * a.invert(order)``
    (``order`` defaults to DEFAULT_ORDER), which reads its S-part, its
    constant and, when the constant is an integer, the sign of its first
    nonzero o-term.  So a is inverted first at the order
    t0 = max(0, -val a, -val b), capped at ``order``, the least at which
    the quotient knows o^0.  If the floor is still open there (an integer
    constant and no nonzero o-term known yet), a is inverted again at
    2*t0 + 1, and if it is open there too, at ``order``.  So a floor
    decided late, or undecidable, costs at most two inversions below
    ``order`` on top of the one at ``order``.  At ``order`` the quotient
    is the one above, so an undecidable floor raises as it does there.
    """
    zero = OmegaNumber.zero()
    if compare(a, zero) <= 0:
        raise OutOfDomain("divisor must be strictly positive")
    if not b.is_zero() and compare(b, zero) < 0:
        raise OutOfDomain("dividend must be nonnegative")
    if order is None:
        order = DEFAULT_ORDER
    t0 = min(order, max(0, -a.valuation, -(b.valuation or 0)))
    for t in (t0, min(order, 2 * t0 + 1), order):
        quotient = b * a.invert(order=t)
        if t == order or _floor_is_known(quotient):
            return integer_truncature(quotient)


def _floor_is_known(x: OmegaNumber) -> bool:
    """Whether ``integer_truncature(x)`` is decided by x's known terms:
    its constant is known and is not an integer, or x knows a nonzero
    o-term (its top stored term, nonzero, lies past o^0)."""
    if x.known_order is None:
        return True
    if x.known_order < 0:
        return False
    return x.coefficient(0).denominator != 1 or (
        bool(x.coeffs) and x.valuation + len(x.coeffs) > 1)

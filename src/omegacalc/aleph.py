"""Nonstandard integers: polynomials in the infinite unit S.

An ``AlephInt`` is ``a_0 + a_1*S + ... + a_N*S^N`` with an integer
constant term and rational higher coefficients.  These are the "infinite
but defined to a unit" integers: the successor ``L + 1`` never equals
``L``.  The nonnegative cone (``a_N > 0``, or a plain natural number) is
a nonstandard model of the usual induction structure, and the maps
``phi``/``psi`` identify it with the grid ``t + k*o`` of step-``o``
points.

Addition and multiplication are plain polynomial laws in S; they agree
with the inductive defining equations (``L + S(M) = L + M + 1``,
``L * S(M) = L*M + L``) on every finite unrolling, which the test suite
checks directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    IndistinguishableAtTruncation,
    OutOfDomain,
    PredecessorOfZero,
)
from .omega import (
    DEFAULT_ORDER, OmegaNumber, Rational, _frac, _mul_trunc, compare, render_plain,
)


@dataclass(frozen=True)
class AlephInt:
    """coeffs[k] is the coefficient of S^k; trailing zeros are stripped."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("use from_coeffs; zero is stored as (0,)")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        if self.coeffs[0].denominator != 1:
            raise ValueError("constant term must be an integer")

    @staticmethod
    def from_coeffs(values) -> "AlephInt":
        coeffs = [_frac(v) for v in values]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [Fraction(0)]
        return AlephInt(tuple(coeffs))

    @staticmethod
    def from_int(n: int) -> "AlephInt":
        return AlephInt.from_coeffs([n])

    @staticmethod
    def sigma() -> "AlephInt":
        return AlephInt.from_coeffs([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (Fraction(0),)

    def in_aleph_plus(self) -> bool:
        """Membership in the nonnegative cone: infinite with positive lead,
        or a standard natural number."""
        if self.degree >= 1:
            return self.coeffs[-1] > 0
        return self.coeffs[0] >= 0

    def to_omega(self) -> OmegaNumber:
        return OmegaNumber.from_terms({-k: c for k, c in enumerate(self.coeffs)})

    # -- ring structure (full ring: negatives included) ---------------

    def __add__(self, other) -> "AlephInt":
        other = _as_aleph(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return AlephInt.from_coeffs(
            [
                (self.coeffs[k] if k < len(self.coeffs) else 0)
                + (other.coeffs[k] if k < len(other.coeffs) else 0)
                for k in range(n)
            ]
        )

    def __neg__(self) -> "AlephInt":
        return AlephInt.from_coeffs([-c for c in self.coeffs])

    def __sub__(self, other) -> "AlephInt":
        return self + (-_as_aleph(other))

    def __mul__(self, other) -> "AlephInt":
        return AlephInt.from_coeffs(_mul_trunc(self.coeffs, _as_aleph(other).coeffs))

    def __str__(self) -> str:
        return render_plain(self.to_omega())

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
    if not x.is_exact():
        raise OutOfDomain("nonstandard integers are exact values")
    coeffs: dict[int, Fraction] = {}
    for e, c in x.terms():
        if e > 0:
            raise OutOfDomain("value has a nonzero o-part")
        coeffs[-e] = c
    n = max(coeffs) if coeffs else 0
    row = [coeffs.get(k, Fraction(0)) for k in range(n + 1)]
    if row[0].denominator != 1:
        raise OutOfDomain("constant term is not an integer")
    return AlephInt.from_coeffs(row)


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
    n = max(len(L.coeffs), len(M.coeffs))
    for k in range(n - 1, -1, -1):
        a = L.coeffs[k] if k < len(L.coeffs) else Fraction(0)
        b = M.coeffs[k] if k < len(M.coeffs) else Fraction(0)
        if a != b:
            return 1 if a > b else -1
    return 0


# ---------------------------------------------------------------------------
# The grid R_o^1 and its identification with the integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridPoint:
    """A step-o grid point ``t + k*o`` (standard part t, step count k)."""

    t: Fraction
    k: int

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
    k = L.coeffs[0]
    t = L.coeffs[1] if L.degree == 1 else Fraction(0)
    return GridPoint(t, int(k))


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
        raise IndistinguishableAtTruncation("constant coefficient is unknown")
    sigma_part = {k: c for k, c in x.terms() if k < 0}
    c0 = x.coefficient(0)
    if c0.denominator == 1:
        d0 = c0 + _sign_of_tail(x)  # -1 when the o-part is negative
    else:
        d0 = Fraction(c0.numerator // c0.denominator)
    coeffs: dict[int, Fraction] = {-k: c for k, c in sigma_part.items()}
    n = max(coeffs) if coeffs else 0
    return AlephInt.from_coeffs(
        [d0 if k == 0 else coeffs.get(k, Fraction(0)) for k in range(n + 1)]
    )


def _sign_of_tail(x: OmegaNumber) -> int:
    """0 if the o-part is >= 0, -1 if negative; raises when unknown."""
    for e, c in x.terms():
        if e >= 1:
            return -1 if c < 0 else 0
    if x.is_exact():
        return 0
    raise IndistinguishableAtTruncation(
        "fractional part undecidable: o-part vanishes to the known order"
    )


def archimedean_division(
    a: OmegaNumber, b: OmegaNumber, order: int | None = None
) -> AlephInt:
    """The integer L with L*a <= b < (L+1)*a, for a > 0, b >= 0."""
    zero = OmegaNumber.zero()
    if compare(a, zero) <= 0:
        raise OutOfDomain("divisor must be strictly positive")
    if not b.is_zero() and compare(b, zero) < 0:
        raise OutOfDomain("dividend must be nonnegative")
    quotient = b * a.invert(order=order if order is not None else DEFAULT_ORDER)
    return integer_truncature(quotient)

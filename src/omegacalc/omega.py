"""Exact truncated Laurent series in the infinitesimal ``o``.

``OmegaNumber`` is the single numeric type of the library.  A value is a
finite window of exactly-known rational coefficients of powers of ``o``
(negative powers are powers of the infinite unit ``S = 1/o``), plus a
``known_order`` marking where exact knowledge stops.  ``known_order is
None`` means the value is exact to every order (a Laurent polynomial);
``known_order == N`` means every coefficient of ``o^k`` with ``k <= N``
is exact and nothing is known beyond, written ``+ O(o^(N+1))``.

The total order is lexicographic by increasing o-exponent, so S-powers
dominate constants dominate o-powers: ``0 < o << 1 << S``.  Comparison
never guesses across an unknown tail; it raises
``IndistinguishableAtTruncation`` instead.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction

from ._record import Record
from .errors import (
    DivisionByZero,
    DomainError,
    IndistinguishableAtTruncation,
    NoStabilization,
    NonRepresentableBase,
    NotInRo,
    OrderExceedsKnown,
    TruncationUnderflow,
)

#: Working order used when an operation must truncate an infinite series
#: and the caller did not say how far to go.
DEFAULT_ORDER = 8

Rational = int | Fraction | str

LESS, EQUAL, GREATER = -1, 0, 1


#: ``ord(0)``: greater than every integer.
INFINITE_ORDER = math.inf


def _frac(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _min_order(*orders: int | None) -> int | None:
    finite = [k for k in orders if k is not None]
    return min(finite) if finite else None


class OmegaNumber(Record):
    """Canonical truncated Laurent series.

    ``coeffs[i]`` is the coefficient of ``o**(valuation + i)``.  The
    first and last stored coefficients are nonzero; the canonical zero
    stores nothing and carries ``valuation is None``.  Structural
    equality (``==``) is representation equality; use :func:`compare`
    for the numeric order.
    """

    __slots__ = ("valuation", "coeffs", "known_order")

    def __init__(
        self, valuation: int | None, coeffs: tuple[Fraction, ...], known_order: int | None
    ):
        # Built on every kernel call: no loop over the fields.
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "known_order", known_order)
        if coeffs:
            if valuation is None:
                raise ValueError("nonzero value needs a valuation")
            if coeffs[0] == 0 or coeffs[-1] == 0:
                raise ValueError("stored window must start and end nonzero")
            top = valuation + len(coeffs) - 1
            if known_order is not None and top > known_order:
                raise ValueError("stored terms extend past the known order")
        elif valuation is not None:
            raise ValueError("zero carries no valuation")

    # -- construction ------------------------------------------------

    @staticmethod
    def from_terms(
        terms: Mapping[int, Rational] | Iterable[tuple[int, Rational]],
        known_order: int | None = None,
    ) -> "OmegaNumber":
        """Build a canonical value from sparse exponent -> coefficient data.

        Coefficients are reduced, zeros dropped, and any term beyond
        ``known_order`` is discarded (it would sit inside the unknown
        tail).
        """
        items = terms.items() if isinstance(terms, Mapping) else terms
        sparse: dict[int, Fraction] = {}
        for exponent, coefficient in items:
            c = _frac(coefficient)
            if c and (known_order is None or exponent <= known_order):
                # Values are held by the thousands: store the caller's
                # immutable Fraction itself and add only on a repeat.
                sparse[exponent] = sparse[exponent] + c if exponent in sparse else c
        if not sparse:
            return OmegaNumber(None, (), known_order)
        lo = min(sparse)
        dense = [0] * (max(sparse) - lo + 1)
        for exponent, c in sparse.items():
            dense[exponent - lo] = c
        return _canonical(lo, dense, known_order)

    @staticmethod
    def from_rational(value: Rational) -> "OmegaNumber":
        return OmegaNumber.from_terms({0: _frac(value)})

    @staticmethod
    def zero() -> "OmegaNumber":
        return OmegaNumber(None, (), None)

    @staticmethod
    def one() -> "OmegaNumber":
        return OmegaNumber.from_rational(1)

    @staticmethod
    def o(exponent: int = 1) -> "OmegaNumber":
        """The monomial ``o**exponent`` (use a negative exponent for S-powers)."""
        return OmegaNumber.from_terms({exponent: 1})

    @staticmethod
    def sigma(power: int = 1) -> "OmegaNumber":
        """The infinite unit ``S**power = o**(-power)``."""
        return OmegaNumber.from_terms({-power: 1})

    # -- basic queries -----------------------------------------------

    def is_zero(self) -> bool:
        """True when no nonzero coefficient is known (exact zero or O(...))."""
        return not self.coeffs

    def is_exact(self) -> bool:
        return self.known_order is None

    def is_infinitesimal(self) -> bool:
        """True when the value is known to have no coefficient at or below o^0."""
        if self.is_zero():
            return self.known_order is None or self.known_order >= 0
        return self.valuation >= 1

    def coefficient(self, exponent: int) -> Fraction:
        """Exact coefficient of ``o**exponent``; raises if it is unknown."""
        if self.known_order is not None and exponent > self.known_order:
            raise IndistinguishableAtTruncation(
                f"coefficient of o^{exponent} is beyond known order {self.known_order}",
                known_through=self.known_order,
            )
        if self.valuation is None:
            return Fraction(0)
        i = exponent - self.valuation
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        """Stored nonzero terms as (exponent, coefficient), ascending."""
        if self.valuation is None:
            return
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield self.valuation + i, c

    def ord(self):
        """Valuation: least o-exponent with a nonzero coefficient.

        Returns :data:`INFINITE_ORDER` for the exact zero.  For an
        inexact zero the valuation is not determined by the known
        window, so this raises.
        """
        if self.coeffs:
            return self.valuation
        if self.is_exact():
            return INFINITE_ORDER
        raise IndistinguishableAtTruncation(
            "ord is undetermined: all known coefficients vanish but the tail is unknown",
            known_through=self.known_order,
        )

    def standard_part(self) -> Fraction:
        """The o^0 coefficient of a finite value."""
        if self.valuation is not None and self.valuation < 0:
            raise NotInRo("infinite value has no standard part")
        if self.is_zero() and not self.is_exact() and self.known_order < 0:
            raise IndistinguishableAtTruncation(
                "constant coefficient is unknown", known_through=self.known_order
            )
        return self.coefficient(0)

    def infinitesimal_part(self) -> "OmegaNumber":
        return self - OmegaNumber.from_rational(self.standard_part())

    def truncate(self, order: int) -> "OmegaNumber":
        """Drop all terms above ``o**order`` and forget the tail."""
        if self.known_order is not None and order > self.known_order:
            raise OrderExceedsKnown(
                f"cannot truncate at {order}: known only to {self.known_order}"
            )
        return _canonical(self.valuation, self.coeffs, order)

    # -- ring operations ---------------------------------------------

    def _coerced(self, other) -> "OmegaNumber | None":
        if isinstance(other, OmegaNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return OmegaNumber.from_rational(other)
        return None

    def __add__(self, other) -> "OmegaNumber":
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        ko = _min_order(self.known_order, rhs.known_order)
        if not (self.coeffs and rhs.coeffs):
            x = self if self.coeffs else rhs
            return _canonical(x.valuation, x.coeffs, ko)
        lo = min(self.valuation, rhs.valuation)
        dense = [0] * (max(self.valuation + len(self.coeffs),
                           rhs.valuation + len(rhs.coeffs)) - lo)
        start = self.valuation - lo
        dense[start:start + len(self.coeffs)] = self.coeffs
        for i, c in enumerate(rhs.coeffs, rhs.valuation - lo):
            dense[i] += c
        return _canonical(lo, dense, ko)

    __radd__ = __add__

    def __neg__(self) -> "OmegaNumber":
        # a list, not a generator (see _canonical)
        return OmegaNumber(self.valuation, tuple([-c for c in self.coeffs]), self.known_order)

    def __sub__(self, other) -> "OmegaNumber":
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "OmegaNumber":
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "OmegaNumber":
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        if (self.is_zero() and self.is_exact()) or (rhs.is_zero() and rhs.is_exact()):
            return OmegaNumber.zero()
        if self.is_zero() or rhs.is_zero():
            # O(o^(k+1)) scaled by a value of valuation v is O(o^(k+1+v)).
            def effective_valuation(x: OmegaNumber) -> int:
                return x.valuation if x.coeffs else x.known_order + 1

            ko = effective_valuation(self) + effective_valuation(rhs) - 1
            return OmegaNumber(None, (), ko)
        ko = _min_order(
            None if self.known_order is None else self.known_order + rhs.valuation,
            None if rhs.known_order is None else rhs.known_order + self.valuation,
        )
        v = self.valuation + rhs.valuation
        limit = None if ko is None else ko - v
        return _canonical(v, _mul_trunc(self.coeffs, rhs.coeffs, limit), ko)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "OmegaNumber":
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.invert()

    def __rtruediv__(self, other) -> "OmegaNumber":
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.invert()

    def __pow__(self, exponent: int) -> "OmegaNumber":
        if not isinstance(exponent, int):
            return NotImplemented
        return self.pow_rational(exponent)

    def invert(self, order: int | None = None) -> "OmegaNumber":
        """Multiplicative inverse, truncated at ``order`` when infinite.

        The propagated knowledge never exceeds ``known_order - 2*valuation``;
        ``order`` can only lower it further.
        """
        if self.is_zero():
            if self.is_exact():
                raise DivisionByZero("inverse of zero")
            raise TruncationUnderflow("no known leading coefficient to invert")
        v = self.valuation
        if len(self.coeffs) == 1 and self.is_exact():
            # The inverse of an exact monomial is exact; `order` only caps
            # series expansion, it never discards finite knowledge.
            return OmegaNumber.from_terms({-v: 1 / self.coeffs[0]})
        propagated = None if self.known_order is None else self.known_order - 2 * v
        target = _min_order(order, propagated)
        if target is None:
            target = DEFAULT_ORDER
        rel = target + v
        if rel < 0:
            raise TruncationUnderflow("requested order is below the inverse's valuation")
        return _canonical(-v, _div_series([1], self.coeffs, rel), target)

    def pow_rational(self, alpha: Rational, order: int | None = None) -> "OmegaNumber":
        """``self**alpha`` for a rational exponent.

        Integer exponents work for any invertible value.  Fractional
        exponents require a positive standard leading coefficient whose
        alpha-th power is rational (otherwise the result has no exact
        representation here).
        """
        alpha = _frac(alpha)
        if alpha.denominator == 1:
            n = alpha.numerator
            base = self if n >= 0 else self.invert(order)
            return _pow_by_squaring(base, abs(n), OmegaNumber.one())
        if self.is_zero():
            raise DomainError("fractional power of zero")
        if self.valuation != 0:
            raise DomainError(
                "fractional powers need a standard leading term (valuation 0)"
            )
        t = self.coeffs[0]
        if t <= 0:
            raise DomainError("fractional powers need a positive leading coefficient")
        t_alpha = rational_root_power(t, alpha)
        target = _min_order(order, self.known_order)
        if target is None:
            target = DEFAULT_ORDER
        u = [c / t for c in self.coeffs[:target + 1]]
        return _canonical(0, _ode_series(1, ((alpha,),), [[t_alpha]], u, target)[0], target)

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        return render_plain(self)

    def __repr__(self) -> str:
        return f"OmegaNumber({render_plain(self)!r})"


def _mul_trunc(a: Sequence, b: Sequence, limit: int | None = None) -> list:
    """Dense product of two coefficient sequences: ``out[k] = sum a[i]*b[k-i]``.

    Kronecker substitution (Schoenhage, EUROCAM 1982; Harvey, JSC 2009):
    each operand is put over the lcm of its denominators, ``a = A/da`` and
    ``b = B/db`` with integer vectors A and B, and each integer vector is
    evaluated at ``x = 2**w``.  One big-integer product of the two values
    holds every convolution sum ``C[k] = sum A[i]*B[k-i]`` in its slot k of
    w bits.  ``|C[k]| <= M = max|A| * max|B| * min(len A, len B)``, so
    ``w = M.bit_length() + 1``, the least width that always does, keeps
    each C[k] in ``[-2**(w-1), 2**(w-1))`` as a signed digit.  Reading
    from the bottom, a slot holding at least ``2**(w-1)`` is the negative
    digit ``slot - 2**w``, and its ``2**w`` is borrowed from the slot
    above.  Then ``out[k] = C[k] / (da*db)``.

    Only ``a[:n]`` and ``b[:n]`` are packed and n slots read, n the full
    length cut to ``limit + 1``, so no index past ``limit`` is formed and a
    negative limit gives the empty product.  A zero slot holds the int 0.
    """
    n = len(a) + len(b) - 1 if a and b else 0
    if limit is not None:
        n = max(min(n, limit + 1), 0)
    if not n:
        return []
    A, da = _over_lcm(a[:n])
    B, db = _over_lcm(b[:n])
    w = (max(map(abs, A)) * max(map(abs, B)) * min(len(A), len(B))).bit_length() + 1
    product = _pack(A, w) * _pack(B, w)
    mask, half, d = (1 << w) - 1, 1 << (w - 1), da * db
    out = []
    for _ in range(n):
        c = product & mask
        product >>= w
        if c >= half:
            c -= mask + 1
            product += 1  # the borrow
        out.append(Fraction(c, d) if c else 0)
    return out


def _over_lcm(v: Sequence) -> tuple[list, int]:
    """Integer numerators of the rationals ``v`` over their least common denominator."""
    d = math.lcm(*[x.denominator for x in v])
    return [x.numerator * (d // x.denominator) for x in v], d


def _pack(v: Sequence, w: int) -> int:
    """``sum v[i] * 2**(w*i)`` for integer digits of either sign."""
    x = 0
    for c in reversed(v):
        x = (x << w) + c
    return x


def _div_series(a: Sequence, b: Sequence, limit: int) -> list:
    """Coefficients 0..limit of the power series ``a / b``, for ``b[0] != 0``.

    The division recurrence (Knuth, TAOCP vol. 2, 4.7):
    ``q[k] = (a[k] - sum_{j=1..k} b[j] * q[k-j]) / b[0]``.  Entries past
    the end of ``a`` or ``b`` are zero.  A negative limit gives the empty
    list.
    """
    b0 = _frac(b[0])
    nonzero_b = [(j, c) for j, c in enumerate(b[1:limit + 1], 1) if c]
    q = []
    for k in range(limit + 1):
        total = a[k] if k < len(a) else 0
        for j, c in nonzero_b:
            if j > k:
                break
            total -= c * q[k - j]
        q.append(total / b0)
    return q


def _ode_series(a: Rational, B: Sequence, prefix: Sequence, u: Sequence, limit: int) -> list:
    """Columns 0..limit of each component of ``Y(u)``, where
    ``(1 + a*x)*Y' = B*Y``, continued on fresh lists from the equal-length
    ``Fraction`` columns ``prefix`` (at least Y(0)).  ``u[0]`` counts as 0,
    entries past its end as zero; a negative limit gives empty columns.

    By the o^(k-1) coefficient of ``(1 + a*u)*Y(u)' = u'*B*Y(u)``,
    ``k*Y[k] = sum_{j=1..k} ((B + d)*j - d*k) * u[j] * Y[k-j]`` with d = a
    on the diagonal and 0 off it; for ``(1+x)*P' = alpha*P`` it is Miller's
    power recurrence (Knuth, TAOCP vol. 2, 4.7).
    """
    columns = [list(col[:max(limit + 1, 0)]) for col in prefix]
    nonzero_u = [(j, c) for j, c in enumerate(u[1:limit + 1], 1) if c]
    # Per component, the columns it reads with their (B + d, d).
    rows = [[(columns[l], b + (a if i == l else 0), a if i == l else 0)
             for l, b in enumerate(row) if b or (i == l and a)]
            for i, row in enumerate(B)]
    for k in range(len(columns[0]), limit + 1):
        for col, row in zip(columns, rows):
            # Fraction(0), not 0: an int 0 / k would be the float 0.0.
            total = Fraction(0)
            for y, scale, d in row:
                dk = d * k
                for j, c in nonzero_u:
                    if j > k:
                        break
                    total += (scale * j - dk) * c * y[k - j]
            col.append(total / k)
    return columns


def _pow_by_squaring(base, n: int, one):
    """``one * base**n`` (``n >= 0``) by binary powering: at most 2*bit_length(n) products."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _canonical(valuation: int | None, dense: Sequence, known_order: int | None) -> OmegaNumber:
    """The value sum ``dense[i] * o**(valuation + i)`` with tail ``known_order``.

    Drops the coefficients past ``known_order``, strips zeros from both
    ends and stores ``Fraction`` coefficients.  ``valuation`` may be None
    when ``dense`` is empty.
    """
    lo, hi = 0, len(dense)
    if known_order is not None and dense:
        hi = min(hi, known_order - valuation + 1)
    while lo < hi and not dense[lo]:
        lo += 1
    while hi > lo and not dense[hi - 1]:
        hi -= 1
    if lo >= hi:
        return OmegaNumber(None, (), known_order)
    # From a list, not a generator: tuple(generator) guesses a size and then
    # resizes, so the freed tuples pile up in CPython's per-size free lists.
    return OmegaNumber(valuation + lo, tuple([_frac(c) for c in dense[lo:hi]]), known_order)


def _integer_root(value: int, degree: int) -> int | None:
    """Exact nonnegative degree-th root of a nonnegative int, else None."""
    if value < 0:
        return None
    if value in (0, 1) or degree == 1:
        return value
    if degree >= value.bit_length():  # a root r >= 2 has r**degree >= 2**degree > value
        return None
    lo, hi = 0, 1 << (value.bit_length() // degree + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**degree <= value:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**degree == value else None


def rational_root_power(t: Fraction, alpha: Fraction) -> Fraction:
    """Exact value of t**alpha, or NonRepresentableBase if irrational."""
    t = _frac(t)
    alpha = _frac(alpha)
    if t <= 0:
        raise DomainError("base must be positive")
    num_root = _integer_root(t.numerator, alpha.denominator)
    den_root = _integer_root(t.denominator, alpha.denominator)
    if num_root is None or den_root is None:
        raise NonRepresentableBase(f"{t}^{alpha} is irrational")
    return Fraction(num_root, den_root) ** alpha.numerator


# ---------------------------------------------------------------------------
# Module-level operation surface
# ---------------------------------------------------------------------------


def normalize(
    terms: Mapping[int, Rational] | Iterable[tuple[int, Rational]],
    known_order: int | None = None,
) -> OmegaNumber:
    """Canonicalize sparse exponent -> rational data (see OmegaNumber.from_terms)."""
    return OmegaNumber.from_terms(terms, known_order)


def _first_difference(x: OmegaNumber, y: OmegaNumber) -> tuple[int, int] | None:
    """The first exponent, from the lowest up, at which x and y have
    different coefficients that both know, with GREATER when x's is the
    larger there and LESS when it is the smaller; None when they agree
    through their joint known order.

    A stored window starts nonzero, so unequal valuations differ at the
    lower one.  Equal valuations walk the two windows side by side, and
    the longer one goes on alone to its next nonzero coefficient.  The
    walk reads coefficients with ``!=`` and ``>`` only and builds no
    value.
    """
    a, b = x.coeffs, y.coeffs
    if a and b and x.valuation == y.valuation:
        for i, (p, q) in enumerate(zip(a, b)):
            if p != q:
                return x.valuation + i, (GREATER if p > q else LESS)
        if len(a) == len(b):
            return None
        start = min(len(a), len(b))
        rest, v, sign = (a, x.valuation, GREATER) if len(a) > len(b) else (b, y.valuation, LESS)
    elif a and (not b or x.valuation < y.valuation):
        rest, v, sign, start = a, x.valuation, GREATER, 0
    elif b:
        rest, v, sign, start = b, y.valuation, LESS, 0
    else:
        return None
    while not rest[start]:  # the last stored coefficient is nonzero
        start += 1
    e = v + start
    if (x.known_order is not None and e > x.known_order) or (
        y.known_order is not None and e > y.known_order
    ):
        return None
    return e, (sign if rest[start] > 0 else -sign)


def compare(x: OmegaNumber, y: OmegaNumber) -> int:
    """Three-way lexicographic comparison: -1, 0 or +1.

    The first coefficient, from the lowest exponent up, at which x and y
    differ and that both know decides.  0 is returned only when both
    sides are exact and identical; if all known coefficients agree while
    an unknown tail remains, the order is genuinely undetermined and
    IndistinguishableAtTruncation is raised.
    """
    first = _first_difference(x, y)
    if first is not None:
        return first[1]
    known = _min_order(x.known_order, y.known_order)
    if known is None:
        return EQUAL
    raise IndistinguishableAtTruncation(
        f"values agree through o^{known} and differ only in unknown tails",
        known_through=known,
    )


def much_less(x: OmegaNumber, y: OmegaNumber) -> bool:
    """``x << y``: every standard multiple of |x| stays below |y|.

    Equivalent to ord(x) > ord(y) for nonzero arguments.
    """
    if y.is_zero():
        if y.is_exact():
            return False
        raise IndistinguishableAtTruncation(
            "ord of the right side is unknown", known_through=y.known_order
        )
    if x.is_zero():
        if x.is_exact():
            return True
        # |x| < o^k for the known k, but y's valuation may be even deeper.
        if x.known_order >= y.valuation:
            return True
        raise IndistinguishableAtTruncation(
            "ord of the left side is unknown", known_through=x.known_order
        )
    return x.valuation > y.valuation


def pow_rational(x: OmegaNumber, alpha: Rational, order: int | None = None) -> OmegaNumber:
    return x.pow_rational(alpha, order)


# ---------------------------------------------------------------------------
# Extended values: one +/-infinite moment closes an infinitesimal cut
# ---------------------------------------------------------------------------


class ExtendedOmega(Record):
    """An exact prefix terminated by a ``+inf`` or ``-inf`` moment.

    These points (``eps = +inf*o`` and friends) close the infinitesimal
    cuts of the plain numbers.  They support comparison only; they have
    no arithmetic.
    """

    __slots__ = ("prefix", "position", "sign")

    def __init__(self, prefix: OmegaNumber, position: int | None = None, sign: int = 0):
        super().__init__(prefix, position, sign)
        if position is not None:
            if sign not in (-1, 1):
                raise DomainError("infinite moment sign must be +1 or -1")
            if not prefix.is_exact():
                raise DomainError("prefix of an extended value must be exact")
            for e, _ in prefix.terms():
                if e >= position:
                    raise DomainError(
                        "finite coefficients may not sit at or beyond the infinite moment"
                    )

    @staticmethod
    def epsilon(position: int = 1, sign: int = 1) -> "ExtendedOmega":
        """``+inf * o**position`` (the default is eps = +inf*o)."""
        return ExtendedOmega(OmegaNumber.zero(), position, sign)

    @staticmethod
    def wrap(value: "OmegaNumber | ExtendedOmega") -> "ExtendedOmega":
        if isinstance(value, ExtendedOmega):
            return value
        return ExtendedOmega(value)

    def __neg__(self) -> "ExtendedOmega":
        return ExtendedOmega(-self.prefix, self.position, -self.sign)

    def __str__(self) -> str:
        return render_plain(self)


def compare_extended(
    x: OmegaNumber | ExtendedOmega, y: OmegaNumber | ExtendedOmega
) -> int:
    """Lexicographic order on extended values.

    A moment is a +/-inf coefficient at its position: it beats every
    finite coefficient there but is dominated by everything at lower
    exponents.  y's moment enters with its sign negated, and equal
    moments cancel.  With no moment left the prefixes are compared.
    Otherwise, at the lowest moment left p: the prefixes' first known
    difference decides if it lies below p; if their joint known order
    lies below p the order is undecidable; else the moment decides.
    """
    ex, ey = ExtendedOmega.wrap(x), ExtendedOmega.wrap(y)
    moments: dict[int, int] = {}
    for position, sign in ((ex.position, ex.sign), (ey.position, -ey.sign)):
        if position is not None:
            moments[position] = moments.get(position, 0) + sign
    left = [position for position, sign in moments.items() if sign]
    if not left:
        return compare(ex.prefix, ey.prefix)
    p = min(left)
    first = _first_difference(ex.prefix, ey.prefix)
    if first is not None and first[0] < p:
        return first[1]
    known = _min_order(ex.prefix.known_order, ey.prefix.known_order)
    if known is not None and known < p:
        raise IndistinguishableAtTruncation(
            f"coefficient of o^{known + 1} is unknown on one side",
            known_through=known,
        )
    return GREATER if moments[p] > 0 else LESS


def sup_finite(
    values: Sequence[OmegaNumber | ExtendedOmega],
) -> OmegaNumber | ExtendedOmega:
    """Supremum of a nonempty finite set: its maximum, since the order is total."""
    if not values:
        raise DomainError("sup of an empty set")
    best = values[0]
    for v in values[1:]:
        if compare_extended(v, best) > 0:
            best = v
    return best


# ---------------------------------------------------------------------------
# Completeness: limits of sequences whose moments stabilize
# ---------------------------------------------------------------------------


def cauchy_limit(
    sequence: Iterable[OmegaNumber],
    order: int,
    max_steps: int = 200,
    window: int = 3,
) -> OmegaNumber:
    """Limit of a sequence whose moments 0..order eventually stabilize.

    The sequence is inspected until ``window`` consecutive elements share
    the same truncation at ``order``; that truncation is the limit to the
    requested order.  The step budget is an artifact contract: genuine
    Cauchy-ness cannot be decided from finitely many terms.
    """
    streak: OmegaNumber | None = None
    count = 0
    seen = 0
    for element in itertools.islice(sequence, max_steps):
        seen += 1
        t = element.truncate(order)
        if streak is not None and t == streak:
            count += 1
        else:
            streak, count = t, 1
        if count >= window:
            return streak
    if streak is not None and count == seen:
        return streak  # sequence exhausted while constant throughout
    raise NoStabilization(
        f"moments 0..{order} did not stabilize within {max_steps} steps"
    )


# ---------------------------------------------------------------------------
# Canonical rendering and JSON encoding
# ---------------------------------------------------------------------------


def _symbol(exponent: int) -> str | None:
    if exponent == 0:
        return None
    if exponent == 1:
        return "o"
    if exponent > 1:
        return f"o^{exponent}"
    if exponent == -1:
        return "S"
    return f"S^{-exponent}"


def _term_body(coefficient: Fraction, exponent: int) -> str:
    sym = _symbol(exponent)
    magnitude = abs(coefficient)
    if sym is None:
        return str(magnitude)
    if magnitude == 1:
        return sym
    return f"{magnitude}*{sym}"


def _moment_body(position: int) -> str:
    sym = _symbol(position)
    return "inf" if sym is None else f"inf*{sym}"


def render_plain(value: OmegaNumber | ExtendedOmega) -> str:
    """Canonical text form: terms by increasing o-exponent, exact fractions."""
    if isinstance(value, ExtendedOmega):
        number, position, sign = value.prefix, value.position, value.sign
    else:
        number, position, sign = value, None, 0
    pieces: list[tuple[int, str]] = [(1 if c > 0 else -1, _term_body(c, e))
                                     for e, c in number.terms()]
    if position is not None:
        pieces.append((sign, _moment_body(position)))
    if not pieces:
        if number.known_order is None:
            return "0"
        return f"O(o^{number.known_order + 1})"
    out = []
    for i, (sgn, body) in enumerate(pieces):
        if i == 0:
            out.append(f"-{body}" if sgn < 0 else body)
        else:
            out.append(f" - {body}" if sgn < 0 else f" + {body}")
    if position is None and number.known_order is not None:
        out.append(f" + O(o^{number.known_order + 1})")
    return "".join(out)


def to_json_dict(value: OmegaNumber | ExtendedOmega) -> dict:
    """Bit-exact JSON encoding shared by the CLI."""
    if isinstance(value, ExtendedOmega):
        number = value.prefix
        moment = (
            None
            if value.position is None
            else {"position": value.position, "sign": value.sign}
        )
    else:
        number, moment = value, None
    return {
        "valuation": number.valuation,
        "coefficients": [[c.numerator, c.denominator] for c in number.coeffs],
        "known_order": number.known_order,
        "infinite_moment": moment,
    }


def from_json_dict(data: Mapping) -> OmegaNumber | ExtendedOmega:
    coeffs = [Fraction(n, d) for n, d in data["coefficients"]]
    valuation = data["valuation"]
    terms = {} if valuation is None else {valuation + i: c for i, c in enumerate(coeffs)}
    number = OmegaNumber.from_terms(terms, known_order=data["known_order"])
    moment = data.get("infinite_moment")
    if moment is None:
        return number
    return ExtendedOmega(number, moment["position"], moment["sign"])

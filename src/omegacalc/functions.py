"""Regular functions: exact coefficient streams around a standard base point.

A ``RegularFunction`` is determined by a rational base point and a total
map ``n -> coeff(n)`` of series coefficients, which may themselves carry
infinitesimal parts.  Every value of a regular function comes from
``RegularFunction.eval``: polynomials (finite ``degree``) evaluate exactly
anywhere; genuinely infinite streams evaluate at infinitesimal
displacements from the base point, truncated at a working order, which
is enough because ``u**k`` only contributes from ``o**k`` upward.  A
Taylor shift reads its coefficients as values of derivatives.

Derivatives act on the standard part of the argument: the stream of the
q-th derivative is ``(n+q)!/n! * coeff(n+q)``.

Every built-in (exp, sin, cos, log, the geometric series, x**alpha) is a
row of a linear system ``(1 + a*x)*Y' = B*Y`` with rational a and B, and
``omega._ode_series`` computes its coefficients.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from fractions import Fraction

from ._record import Record
from .errors import (
    DomainError,
    NotInfinitesimal,
    OmegaError,
    SeedMismatch,
    SingularDerivative,
    UnsupportedBasePoint,
)
from .omega import (
    DEFAULT_ORDER,
    OmegaNumber,
    Rational,
    _frac,
    _min_order,
    _ode_series,
    rational_root_power,
)


def _as_omega(value) -> OmegaNumber:
    if isinstance(value, OmegaNumber):
        return value
    return OmegaNumber.from_rational(value)


def _power_sum(c: Callable, v: OmegaNumber, target: int) -> OmegaNumber:
    """``c(0) + c(1)*v + ... + c(target)*v**target``, stopping at the first
    power of v that is exactly zero.  The powers and the sum are truncated
    at ``target``: an infinitesimal v puts ``v**k`` at o^k or beyond."""
    total = c(0)
    v_pow = OmegaNumber.one()
    for k in range(1, target + 1):
        v_pow = v_pow * v
        if v_pow.is_zero() and v_pow.is_exact():
            break
        v_pow = v_pow.truncate(_min_order(target, v_pow.known_order))
        total = total + c(k) * v_pow
    return total.truncate(_min_order(target, total.known_order))


def _horner(c: Callable, v: OmegaNumber, top: int) -> OmegaNumber:
    """``c(0) + c(1)*v + ... + c(top)*v**top`` by Horner's rule, exactly:
    the working order never discards a polynomial's finite knowledge."""
    total = OmegaNumber.zero()
    for n in range(top, -1, -1):
        total = total * v + c(n)
    return total


class RegularFunction:
    """Coefficient stream with a memoized cache.

    ``degree`` is None for an infinite stream; a finite degree promises
    coeff(n) == 0 for n > degree and unlocks exact evaluation at
    arbitrary displacements.
    """

    def __init__(
        self,
        coeff_fn: Callable[[int], OmegaNumber],
        base_point: Rational = 0,
        name: str = "f",
        degree: int | None = None,
    ):
        self._coeff_fn = coeff_fn
        self.base_point = _frac(base_point)
        self.name = name
        self.degree = degree
        self._cache: dict[int, OmegaNumber] = {}

    @staticmethod
    def polynomial(
        coeffs: Sequence[OmegaNumber | Rational],
        base_point: Rational = 0,
        name: str | None = None,
    ) -> "RegularFunction":
        fixed = [_as_omega(c) for c in coeffs]
        if name is None:
            name = "poly"
        return RegularFunction(
            lambda n: fixed[n] if n < len(fixed) else OmegaNumber.zero(),
            base_point=base_point,
            name=name,
            degree=max(len(fixed) - 1, 0),
        )

    @staticmethod
    def monomial(m: int) -> "RegularFunction":
        """x**m at base point 0."""
        return RegularFunction.polynomial([0] * m + [1], name=f"p_{m}")

    @staticmethod
    def constant(value: OmegaNumber | Rational) -> "RegularFunction":
        return RegularFunction.polynomial([value], name="const")

    def coeff(self, n: int) -> OmegaNumber:
        if n < 0:
            raise DomainError("coefficient index must be nonnegative")
        if self.degree is not None and n > self.degree:
            return OmegaNumber.zero()
        # No lock: a stream may read its own earlier coefficients, and
        # threads racing on one index compute equal values.
        value = self._cache.get(n)
        if value is None:
            value = self._cache.setdefault(n, _as_omega(self._coeff_fn(n)))
        return value

    # -- evaluation ----------------------------------------------------

    def eval(self, u: OmegaNumber | Rational, order: int | None = None) -> OmegaNumber:
        """Value at the point base_point + u."""
        u = _as_omega(u)
        if self.degree is not None:
            return _horner(self.coeff, u, self.degree)
        if not u.is_infinitesimal():
            raise NotInfinitesimal(
                "infinite coefficient streams evaluate only inside the "
                "infinitesimal cut of their base point"
            )
        target = order
        if target is None:
            target = u.known_order if u.known_order is not None else DEFAULT_ORDER
        return _power_sum(self.coeff, u, target)

    # -- pointwise algebra ---------------------------------------------

    def _require_same_base(self, other: "RegularFunction"):
        if self.base_point != other.base_point:
            raise DomainError("functions have different base points")

    def __add__(self, other: "RegularFunction") -> "RegularFunction":
        self._require_same_base(other)
        degree = None
        if self.degree is not None and other.degree is not None:
            degree = max(self.degree, other.degree)
        return RegularFunction(
            lambda n: self.coeff(n) + other.coeff(n),
            base_point=self.base_point,
            name=f"({self.name}+{other.name})",
            degree=degree,
        )

    def __mul__(self, other: "RegularFunction") -> "RegularFunction":
        self._require_same_base(other)
        degree = None
        if self.degree is not None and other.degree is not None:
            degree = self.degree + other.degree
        return RegularFunction(
            lambda n: sum(
                (self.coeff(i) * other.coeff(n - i) for i in range(n + 1)),
                OmegaNumber.zero(),
            ),
            base_point=self.base_point,
            name=f"({self.name}*{other.name})",
            degree=degree,
        )

    def scale(self, factor: OmegaNumber | Rational) -> "RegularFunction":
        factor = _as_omega(factor)
        return RegularFunction(
            lambda n: self.coeff(n) * factor,
            base_point=self.base_point,
            name=self.name,
            degree=self.degree,
        )

    def __repr__(self) -> str:
        return f"RegularFunction({self.name!r} at {self.base_point})"


def derivative(F: RegularFunction, q: int = 1) -> RegularFunction:
    """q-th derivative with respect to the standard part of the argument."""
    if q < 0:
        raise DomainError("derivative order must be nonnegative")
    if q == 0:
        return F
    degree = None if F.degree is None else max(F.degree - q, 0)

    def coeff(n: int) -> OmegaNumber:
        factor = math.prod(range(n + 1, n + q + 1))
        return F.coeff(n + q) * factor

    return RegularFunction(
        coeff, base_point=F.base_point, name=f"{F.name}^({q})", degree=degree
    )


def taylor_shift(
    F: RegularFunction, v: OmegaNumber | Rational, order: int | None = None
) -> RegularFunction:
    """The function u -> F(u + v) for an infinitesimal shift v.

    Coefficient n is ``b_n = F^(n)(v) / n!``, the n-th derivative's value
    at v: exact for a polynomial, otherwise truncated at the working order.
    """
    v = _as_omega(v)
    if not v.is_infinitesimal():
        raise NotInfinitesimal("shift must be infinitesimal")
    if v.is_zero() and v.is_exact():
        return F
    target = order if order is not None else DEFAULT_ORDER

    def coeff(n: int) -> OmegaNumber:
        return derivative(F, n).eval(v, order=target) * Fraction(1, math.factorial(n))

    return RegularFunction(
        coeff, base_point=F.base_point, name=f"{F.name}@shift", degree=F.degree
    )


# ---------------------------------------------------------------------------
# Named coefficient streams
# ---------------------------------------------------------------------------


#: name -> (base point, a, B, y0); the built-in is Y[0] of (1 + a*x)*Y' = B*Y.
_SYSTEMS = {
    "exp": (0, 0, ((1,),), (1,)),
    "sin": (0, 0, ((0, 1), (-1, 0)), (0, 1)),  # Y = (sin, cos)
    "cos": (0, 0, ((0, -1), (1, 0)), (1, 0)),  # Y = (cos, sin)
    "log": (1, 1, ((0, 1), (0, 0)), (0, 1)),  # Y = (L, 1): (1+x)*L' = 1
    "geometric": (0, -1, ((1,),), (1,)),  # (1-x)*G' = G
}


def builtin(
    name: str, base_point: Rational | None = None, alpha: Rational | None = None
) -> RegularFunction:
    """Exact rational coefficient streams for the supported functions.

    exp/sin/cos at 0, log at 1, the geometric series 1/(1-x) at 0, and
    ``pow`` (x**alpha) at any positive rational base whose alpha-th power
    is rational.  Each is a row of a linear system ``(1 + a*x)*Y' = B*Y``
    (``pow`` at t: ``(t + x)*P' = alpha*P``), and ``_ode_series`` computes
    its coefficients.
    """
    base = None if base_point is None else _frac(base_point)
    if name == "pow":
        if alpha is None:
            raise UnsupportedBasePoint("pow needs an exponent")
        alpha = _frac(alpha)
        t = Fraction(1) if base is None else base
        if t <= 0:
            raise UnsupportedBasePoint("pow needs a positive base point")
        system = (t, 1 / t, ((alpha / t,),), (rational_root_power(t, alpha),))
        name = f"pow_{alpha}"
    elif name in _SYSTEMS:
        system = _SYSTEMS[name]
        if base not in (None, system[0]):
            raise UnsupportedBasePoint(
                "the geometric series is taken at 0" if name == "geometric"
                else f"{name} has rational coefficients only at {system[0]}"
            )
    else:
        raise UnsupportedBasePoint(f"unknown function {name!r}")
    base, a, B, y0 = system
    columns = [[_frac(y)] for y in y0]

    def coeff(n: int) -> OmegaNumber:
        # A miss continues a copy of the columns to n or to twice their length
        # and republishes it whole: racing threads never see a half-built one.
        nonlocal columns
        prefix = columns
        if n >= len(prefix[0]):
            limit = max(n, 2 * len(prefix[0]) - 1)
            prefix = columns = _ode_series(a, B, prefix, (0, 1), limit)
        return OmegaNumber.from_rational(prefix[0][n])

    return RegularFunction(coeff, base_point=base, name=name)


# ---------------------------------------------------------------------------
# Never-amplifying maps (the NS* condition)
# ---------------------------------------------------------------------------


class NsStarReport(Record):
    """Result of sampling the never-amplifies condition on point pairs."""

    # passed: bool; checked: the pairs sampled; first_violation: the
    # pair (x1, x2) that failed, or None
    __slots__ = ("passed", "checked", "first_violation")


def ns_star_check(
    mapping: Callable[[OmegaNumber], OmegaNumber],
    samples: Sequence[tuple[OmegaNumber, OmegaNumber]],
) -> NsStarReport:
    """Check that |x2 - x1| << |F(x2) - F(x1)| never holds on the samples.

    A map passing this cannot turn an order-k infinitesimal difference
    into a lower-order one.
    """
    from .omega import much_less

    for i, (x1, x2) in enumerate(samples):
        dx = x2 - x1
        df = mapping(x2) - mapping(x1)
        if much_less(dx, df):
            return NsStarReport(False, i + 1, (x1, x2))
    return NsStarReport(True, len(samples), None)


# ---------------------------------------------------------------------------
# Coefficientwise equation solving
# ---------------------------------------------------------------------------


def solve_lift(
    F: RegularFunction,
    y: OmegaNumber | Rational,
    x_seed: Rational,
    order: int | None = None,
) -> OmegaNumber:
    """Solve F(x) = y moment by moment from a standard seed.

    Each new moment of x is forced by the previous ones as long as the
    standard derivative at the seed is nonzero.
    """
    y = _as_omega(y)
    seed = _frac(x_seed)
    d0 = OmegaNumber.from_rational(seed - F.base_point)
    if F.degree is None and not d0.is_zero():
        raise NotInfinitesimal("seed must equal the base point of an infinite stream")
    # A target known below the order bounds what can be solved for.
    target = _min_order(order if order is not None else DEFAULT_ORDER, y.known_order)
    if F.eval(d0, order=0).standard_part() != y.standard_part():
        raise SeedMismatch("F(seed) and y have different standard parts")
    Fp = derivative(F, 1)
    if Fp.eval(d0, order=0).standard_part() == 0:
        raise SingularDerivative("standard derivative vanishes at the seed")

    u = OmegaNumber.zero()
    for _ in range(target + 2):
        value = F.eval(d0 + u, order=target)
        residual = y - value
        if not (residual.is_exact() and residual.is_zero()):  # an exact root stays exact
            residual = residual.truncate(
                _min_order(target, _min_order(y.known_order, value.known_order))
            )
        if residual.is_zero():
            # A residual known to be zero only so far leaves the root known as far.
            return OmegaNumber.from_rational(seed) + u + residual
        slope = Fp.eval(d0 + u, order=target)
        step = u + residual * slope.invert(order=target)
        # An F known below the target leaves each step known only as far.
        u = step.truncate(_min_order(target, step.known_order))
    raise OmegaError("moment iteration failed to close")  # pragma: no cover


def lift_poly_root(
    poly: Sequence[OmegaNumber | Rational],
    x_seed: Rational,
    order: int | None = None,
) -> OmegaNumber:
    """Root of sum(poly[i] * z^i) = 0 lifted moment by moment from a
    standard simple root of the standard-part polynomial (solve_lift on
    the polynomial with target 0)."""
    return solve_lift(RegularFunction.polynomial(poly), 0, x_seed, order=order)

"""The two differential calculi, their conversion tables, and summation.

``finite_difference`` is the step-o difference operator ``Df(x) =
f(x+o) - f(x)`` iterated; ``leibniz_differential`` is ``f^(n)(x)*o^n``.
The lower-triangular tables X and K convert one family into the other.

``integrate``/``S_op`` build the unique regular antidifference through
exact coefficient tables: ``a(m, l)`` are the coefficients of the
discrete antiderivative of x^m (Faulhaber's Bernoulli-number closed
form, computed entry by entry on demand), and ``a_p(p, m, l)`` their
order-p analogue.  ``brute_sum`` is the literal grid sum kept as
a finite-step oracle for all of the above.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .errors import IndexOutOfRange, NotInfinitesimal
from .functions import RegularFunction, _as_omega, derivative
from .omega import DEFAULT_ORDER, OmegaNumber, Rational, _frac, _min_order


def _check_range(condition: bool, message: str):
    if not condition:
        raise IndexOutOfRange(message)


# ---------------------------------------------------------------------------
# Exact coefficient tables
# ---------------------------------------------------------------------------


@functools.cache
def bernoulli(p: int) -> Fraction:
    """Bernoulli number B_p in the convention with B_1 = -1/2.

    The convention is not an axiom here: it is the one that makes
    Faulhaber's formula in ``a_coeff_bernoulli`` sum k^m over k < n.
    """
    _check_range(p >= 0, "Bernoulli index must be nonnegative")
    if p == 0:
        return Fraction(1)
    return -Fraction(
        sum(math.comb(p + 1, j) * bernoulli(j) for j in range(p)), p + 1
    )


@functools.cache
def x_coeff(p: int, n: int) -> int:
    """X_p^n = sum_k (-1)^(p-k) C(p,k) k^n: weight of d^n/n! inside D^p."""
    _check_range(p >= 0 and n >= 0, "X indices must be nonnegative")
    return sum((-1) ** (p - k) * math.comb(p, k) * k**n for k in range(p + 1))


@functools.cache
def k_coeff(top: int, size: int) -> int:
    """Sum of all products of `size` distinct factors from {1..top}."""
    _check_range(size >= 0 and top >= 0, "K indices must be nonnegative")
    if size == 0:
        return 1
    if size > top:
        return 0
    # e_j(1..n) = e_j(1..n-1) + n*e_{j-1}(1..n-1)
    return k_coeff(top - 1, size) + top * k_coeff(top - 1, size - 1)


def d_to_D(p: int, n_max: int) -> list[Fraction]:
    """Weights of d^p..d^n_max in the expansion of D^p."""
    _check_range(1 <= p <= n_max, "d_to_D order out of range")
    return [Fraction(x_coeff(p, n), math.factorial(n)) for n in range(p, n_max + 1)]


def D_to_d(n: int, p_max: int) -> list[Fraction]:
    """Weights of D^n..D^p_max in the expansion of d^n."""
    _check_range(1 <= n <= p_max, "D_to_d order out of range")
    n_fact = math.factorial(n)
    return [
        Fraction((-1) ** (p - n) * k_coeff(p - 1, p - n) * n_fact, math.factorial(p))
        for p in range(n, p_max + 1)
    ]


def a_coeff_bernoulli(m: int, l: int) -> Fraction:
    """Closed form of a(m, l): Faulhaber's C(m+1, l) * B_(m+1-l) / (m+1)."""
    _check_range(m >= 0, "m must be nonnegative")
    _check_range(1 <= l <= m + 1, "l must be in 1..m+1")
    return math.comb(m + 1, l) * bernoulli(m + 1 - l) / (m + 1)


@functools.cache
def a_coeff(m: int, l: int) -> Fraction:
    """Coefficient of x^l * o^(m+1-l) in the step-o antiderivative of x^m."""
    return a_coeff_bernoulli(m, l)


@functools.cache
def _iterated_antidifference(p: int, m: int) -> tuple[Fraction, ...]:
    """Coefficients (index = power) of the p-fold antidifference of x^m
    whose first p differences all vanish at 0."""
    poly = [Fraction(0)] * m + [Fraction(1)]
    for _ in range(p):
        out = [Fraction(0)] * (len(poly) + 1)
        for l, c in enumerate(poly):
            if c == 0:
                continue
            for j in range(1, l + 2):
                out[j] += c * a_coeff(l, j)
        poly = out
    return tuple(poly)


def a_coeff_p(p: int, m: int, l: int) -> Fraction:
    """Coefficient of x^l * o^(m+p-l) in the order-p antiderivative of x^m."""
    _check_range(p >= 1, "p must be >= 1")
    _check_range(m >= 0, "m must be nonnegative")
    _check_range(1 <= l <= m + p, "l must be in 1..m+p")
    return _iterated_antidifference(p, m)[l]


# ---------------------------------------------------------------------------
# Differentials
# ---------------------------------------------------------------------------


def finite_difference(
    F: RegularFunction,
    x: OmegaNumber | Rational,
    p: int = 1,
    order: int | None = None,
) -> OmegaNumber:
    """p-th step-o difference at base_point + x (alternating-sum form)."""
    if p < 0:
        raise ValueError("difference order must be nonnegative")
    x = _as_omega(x)
    o = OmegaNumber.o()
    total = OmegaNumber.zero()
    for k in range(p + 1):
        term = F.eval(x + o * k, order=order)
        total = total + term * ((-1) ** (p - k) * math.comb(p, k))
    return total


def leibniz_differential(
    F: RegularFunction,
    x: OmegaNumber | Rational,
    n: int = 1,
    order: int | None = None,
) -> OmegaNumber:
    """F^(n)(base_point + x) * o^n."""
    if n < 0:
        raise ValueError("differential order must be nonnegative")
    return derivative(F, n).eval(x, order=order) * OmegaNumber.o(n)


# ---------------------------------------------------------------------------
# Antiderivatives and the summation operator
# ---------------------------------------------------------------------------


def monomial_primitive(m: int, p: int = 1) -> RegularFunction:
    """q_m^(p): the order-p antiderivative of x^m with vanishing initial
    differences, as an exact o-weighted polynomial."""
    coeffs = [OmegaNumber.zero()]
    for l in range(1, m + p + 1):
        coeffs.append(
            OmegaNumber.from_terms({m + p - l: a_coeff_p(p, m, l)})
        )
    name = f"q_{m}" if p == 1 else f"q_{m}^({p})"
    return RegularFunction.polynomial(coeffs, name=name)


def integrate(
    F: RegularFunction,
    a0: OmegaNumber | Rational = 0,
    order: int | None = None,
) -> RegularFunction:
    """The regular antidifference G with DG = F*o and G(base_point) = a0.

    Coefficient l collects a(m, l) * coeff_F(m) * o^(m+1-l); rising
    o-powers make the sum finite at any truncation order.
    """
    a0 = _as_omega(a0)
    target = order if order is not None else DEFAULT_ORDER

    def coeff(l: int) -> OmegaNumber:
        if l == 0:
            return a0
        m_top = F.degree if F.degree is not None else l - 1 + target
        total = OmegaNumber.zero()
        for m in range(l - 1, m_top + 1):
            total = total + F.coeff(m) * OmegaNumber.from_terms(
                {m + 1 - l: a_coeff(m, l)}
            )
        if F.degree is None:
            total = total.truncate(_min_order(target, total.known_order))
        return total

    degree = None if F.degree is None else F.degree + 1
    return RegularFunction(
        coeff, base_point=F.base_point, radius=F.radius,
        name=f"int[{F.name}]", degree=degree,
    )


def S_op(F: RegularFunction, order: int | None = None) -> RegularFunction:
    """Summation operator: the antidifference pinned by G(base) = 0."""
    return integrate(F, 0, order=order)


def D_op(G: RegularFunction, order: int | None = None) -> RegularFunction:
    """The function F with F*o = DG, i.e. F = G' + G''o/2 + G'''o^2/6 + ..."""
    target = order if order is not None else DEFAULT_ORDER

    def coeff(l: int) -> OmegaNumber:
        q_top = G.degree - l if G.degree is not None else target + 1
        total = OmegaNumber.zero()
        for q in range(1, q_top + 1):
            factor = Fraction(
                math.factorial(l + q), math.factorial(l) * math.factorial(q)
            )
            total = total + G.coeff(l + q) * OmegaNumber.from_terms({q - 1: factor})
        if G.degree is None:
            total = total.truncate(_min_order(target, total.known_order))
        return total

    degree = None if G.degree is None else max(G.degree - 1, 0)
    return RegularFunction(
        coeff, base_point=G.base_point, radius=G.radius,
        name=f"Dq[{G.name}]", degree=degree,
    )


def brute_sum(
    F: RegularFunction,
    t: Rational,
    k: int,
    order: int | None = None,
) -> OmegaNumber:
    """Literal grid sum of F over [[t, t + k*o[[ times o.

    The finite-k oracle validating `integrate`: k >= 0 sums forward,
    k < 0 mirrors through the negative branch.
    """
    t = _frac(t)
    d0 = OmegaNumber.from_rational(t - F.base_point)
    if F.degree is None and not d0.is_zero():
        raise NotInfinitesimal("grid sums of infinite streams start at the base point")
    o = OmegaNumber.o()
    total = OmegaNumber.zero()
    if k >= 0:
        for n in range(k):
            total = total + F.eval(d0 + o * n, order=order) * o
        return total
    for j in range(1, -k + 1):
        total = total + F.eval(d0 - o * j, order=order) * o
    return -total


def brute_sum_iterated(
    F: RegularFunction,
    k: int,
    p: int,
    order: int | None = None,
) -> OmegaNumber:
    """p-fold nested grid sum of F * o^p evaluated at k*o (k >= 0).

    Computed as p rounds of prefix sums, which is the nested sum with
    the additions merely reassociated.
    """
    if k < 0:
        raise ValueError("iterated grid sums are taken on the forward grid")
    if p < 1:
        raise ValueError("nesting depth must be >= 1")
    o = OmegaNumber.o()
    values = [F.eval(o * n, order=order) for n in range(k)]
    for _ in range(p):
        prefix = []
        total = OmegaNumber.zero()
        for v in values:
            prefix.append(total)
            total = total + v * o
        values, last = prefix, total
    return last if k > 0 else OmegaNumber.zero()


def grid_binomial(k: int) -> RegularFunction:
    """B^k(x) = x(x-o)...(x-(k-1)o)/k!, the grid binomial polynomial."""
    result = [OmegaNumber.one()]
    for j in range(k):
        shifted = [OmegaNumber.zero()] * (len(result) + 1)
        step = OmegaNumber.from_terms({1: -j})
        for i, c in enumerate(result):
            shifted[i + 1] = shifted[i + 1] + c
            shifted[i] = shifted[i] + c * step
        result = shifted
    inv_fact = Fraction(1, math.factorial(k))
    return RegularFunction.polynomial(
        [c * inv_fact for c in result], name=f"B^{k}"
    )


def solve_ode(
    F: RegularFunction,
    p: int,
    C: Sequence[OmegaNumber | Rational],
    order: int | None = None,
) -> RegularFunction:
    """Solve the order-p system D^k G(0) = C_k * o^k (k < p),
    D^p G = F * o^p.

    G is the p-fold summation of F plus the grid-binomial combination of
    the initial conditions.
    """
    if p < 1:
        raise ValueError("system order must be >= 1")
    if len(C) != p:
        raise ValueError(f"need exactly {p} initial conditions")
    if F.base_point != 0:
        raise ValueError("order-p systems are posed at base point 0")
    target = order if order is not None else DEFAULT_ORDER

    def sp_coeff(l: int) -> OmegaNumber:
        if l == 0:
            return OmegaNumber.zero()
        m_top = F.degree if F.degree is not None else l - p + target
        total = OmegaNumber.zero()
        for m in range(max(l - p, 0), m_top + 1):
            total = total + F.coeff(m) * OmegaNumber.from_terms(
                {m + p - l: a_coeff_p(p, m, l)}
            )
        if F.degree is None:
            total = total.truncate(_min_order(target, total.known_order))
        return total

    sp_degree = None if F.degree is None else F.degree + p
    sp_part = RegularFunction(sp_coeff, name=f"S^{p}[{F.name}]", degree=sp_degree)

    combo = RegularFunction.constant(_as_omega(C[0]))
    for k in range(1, p):
        combo = combo + grid_binomial(k).scale(_as_omega(C[k]))
    G = sp_part + combo
    return RegularFunction(G.coeff, name=f"ode{p}[{F.name}]", degree=G.degree)

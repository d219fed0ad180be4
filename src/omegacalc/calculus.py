"""The two differential calculi, their conversion tables, and summation.

``finite_difference`` iterates the step-o difference ``Df(x) = f(x+o) -
f(x)``; ``leibniz_differential`` is ``f^(n)(x)*o^n``.  Every table reads
two memoized Stirling triangles, s(n, k) of the first kind and S(n, k)
of the second (Concrete Mathematics, 6.1): X_p^n = p!*S(n, p) and K =
|s| convert one calculus into the other, the grid binomials are
s(k, l)/k!, and the p-fold antidifference a_p(p, m, l) for p >= 2 is a
closed form in both.  ``integrate``/``S_op`` (p = 1) read a(m, l),
Faulhaber's Bernoulli-number closed form, which is cheaper per row.
``brute_sum`` is the literal grid sum, an oracle for all of the above.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from fractions import Fraction

from .errors import DomainError, IndexOutOfRange, NotInfinitesimal
from .functions import RegularFunction, _as_omega, derivative
from .omega import DEFAULT_ORDER, OmegaNumber, Rational, _frac, _min_order


def _check_range(condition: bool, message: str):
    if not condition:
        raise IndexOutOfRange(message)


# ---------------------------------------------------------------------------
# Exact coefficient tables
# ---------------------------------------------------------------------------


_STIRLING_ROWS = {1: ((1,),), 2: ((1,),)}


def _stirling(kind: int, n: int, k: int) -> int:
    """s(n, k) for kind 1, with x(x-1)...(x-n+1) = sum_k s(n, k) x^k, or
    S(n, k) for kind 2, with x^n = sum_k S(n, k) x(x-1)...(x-k+1).

    Rows are filled in order by s(j+1, i) = s(j, i-1) - j*s(j, i) and
    S(j+1, i) = S(j, i-1) + i*S(j, i), then republished as one tuple:
    threads filling at once may redo a row but never see a half-built one.
    """
    rows = _STIRLING_ROWS[kind]
    if n >= len(rows):
        grown = list(rows)
        for j in range(len(rows) - 1, n):
            prev = grown[j] + (0,)
            grown.append((0,) + tuple(
                prev[i - 1] + (-j if kind == 1 else i) * prev[i] for i in range(1, j + 2)
            ))
        rows = _STIRLING_ROWS[kind] = tuple(grown)
    return rows[n][k] if 0 <= k <= n else 0


@functools.cache
def bernoulli(p: int) -> Fraction:
    """Bernoulli number B_p in the convention with B_1 = -1/2, by
    Worpitzky's sum_k (-1)^k k! S(p, k)/(k+1), taken over (p+1)!.

    The convention is not an axiom here: it is the one that makes
    Faulhaber's formula in ``a_coeff_bernoulli`` sum k^m over k < n.
    """
    _check_range(p >= 0, "Bernoulli index must be nonnegative")
    top = math.factorial(p + 1)
    return Fraction(sum((-1) ** k * math.factorial(k) * (top // (k + 1)) * _stirling(2, p, k)
                        for k in range(p + 1)), top)


def x_coeff(p: int, n: int) -> int:
    """X_p^n = p!*S(n, p): weight of d^n/n! inside D^p."""
    _check_range(p >= 0 and n >= 0, "X indices must be nonnegative")
    return math.factorial(p) * _stirling(2, n, p)


def k_coeff(top: int, size: int) -> int:
    """Sum of all products of `size` distinct factors from {1..top}:
    the unsigned first-kind number |s(top+1, top+1-size)|."""
    _check_range(size >= 0 and top >= 0, "K indices must be nonnegative")
    return abs(_stirling(1, top + 1, top + 1 - size))


def d_to_D(p: int, n_max: int) -> list[Fraction]:
    """Weights of d^p..d^n_max in the expansion of D^p."""
    _check_range(1 <= p <= n_max, "d_to_D order out of range")
    return [Fraction(x_coeff(p, n), math.factorial(n)) for n in range(p, n_max + 1)]


def D_to_d(n: int, p_max: int) -> list[Fraction]:
    """Weights of D^n..D^p_max in the expansion of d^n: s(p, n)*n!/p!."""
    _check_range(1 <= n <= p_max, "D_to_d order out of range")
    n_fact = math.factorial(n)
    return [Fraction(_stirling(1, p, n) * n_fact, math.factorial(p))
            for p in range(n, p_max + 1)]


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
def _stirling_antidifference(p: int, m: int) -> tuple[Fraction, ...]:
    """Coefficients (index = power) of the p-fold antidifference of x^m
    whose first p differences all vanish at 0.

    x^m = sum_k S(m, k) x^(k falling), and Delta x^(j falling) = j*x^(j-1
    falling), so the antidifference is sum_k S(m, k) k!/(k+p)! x^(k+p
    falling); expand by s(k+p, l) and sum in integers over (m+p)!.
    """
    top = math.factorial(m + p)
    weights = [_stirling(2, m, k) * math.factorial(k) * (top // math.factorial(k + p))
               for k in range(m + 1)]
    return tuple(
        Fraction(sum(w * _stirling(1, k + p, l) for k, w in enumerate(weights) if w), top)
        for l in range(m + p + 1)
    )


def a_coeff_p(p: int, m: int, l: int) -> Fraction:
    """Coefficient of x^l * o^(m+p-l) in the order-p antiderivative of x^m.

    p = 1 reads Faulhaber's a(m, l), which costs O(m) per row; p >= 2 is
    the Stirling closed form, O(m^2) per row.
    """
    _check_range(p >= 1, "p must be >= 1")
    _check_range(m >= 0, "m must be nonnegative")
    _check_range(1 <= l <= m + p, "l must be in 1..m+p")
    return a_coeff(m, l) if p == 1 else _stirling_antidifference(p, m)[l]


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
        raise DomainError("the difference order must be nonnegative")
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
        raise DomainError("the difference order must be nonnegative")
    return derivative(F, n).eval(x, order=order) * OmegaNumber.o(n)


# ---------------------------------------------------------------------------
# Antiderivatives and the summation operator
# ---------------------------------------------------------------------------


def monomial_primitive(m: int, p: int = 1) -> RegularFunction:
    """q_m^(p): the order-p antiderivative of x^m with vanishing initial
    differences, as an exact o-weighted polynomial."""
    _check_range(p >= 1, "p must be >= 1")
    _check_range(m >= 0, "m must be nonnegative")
    coeffs = [OmegaNumber.zero()] + [
        OmegaNumber.from_terms({m + p - l: a_coeff_p(p, m, l)}) for l in range(1, m + p + 1)
    ]
    name = f"q_{m}" if p == 1 else f"q_{m}^({p})"
    return RegularFunction.polynomial(coeffs, name=name)


def _moment_sum(G: RegularFunction, m_lo: int, shift: int, weight: Callable, target: int):
    """sum_{m >= m_lo} weight(m) * G(m) * o^(m + shift).

    A polynomial G sums through its degree, exactly.  A stream sums
    through o^target and is cut at min(target, known order).  The cut
    assumes that the coefficients past it have valuation >= 0, so that
    their terms all lie above o^target; a stream whose coefficients
    carry S-powers breaks this and over-claims its tail.
    """
    m_top = G.degree if G.degree is not None else target - shift
    total = OmegaNumber.zero()
    for m in range(m_lo, m_top + 1):
        total = total + G.coeff(m) * OmegaNumber.from_terms({m + shift: weight(m)})
    if G.degree is None:
        total = total.truncate(_min_order(target, total.known_order))
    return total


def _p_fold_sum(F: RegularFunction, p: int, order: int | None, init: Sequence[OmegaNumber]):
    """Coefficients of the p-fold summation of F plus the polynomial
    with coefficients ``init``.

    Coefficient l >= 1 collects a_p(p, m, l) * coeff_F(m) * o^(m+p-l)
    over m; rising o-powers make the sum finite at any truncation order.
    ``init[l]`` is added after the cut, so its terms above the order stay.
    """
    target = order if order is not None else DEFAULT_ORDER

    def coeff(l: int) -> OmegaNumber:
        total = OmegaNumber.zero()
        if l:
            total = _moment_sum(F, max(l - p, 0), p - l, lambda m: a_coeff_p(p, m, l), target)
        return total + init[l] if l < len(init) else total

    return coeff


def integrate(
    F: RegularFunction,
    a0: OmegaNumber | Rational = 0,
    order: int | None = None,
) -> RegularFunction:
    """The regular antidifference G with DG = F*o and G(base_point) = a0:
    the p = 1 summation plus a0."""
    return RegularFunction(
        _p_fold_sum(F, 1, order, [_as_omega(a0)]), base_point=F.base_point,
        name=f"int[{F.name}]", degree=None if F.degree is None else F.degree + 1,
    )


def S_op(F: RegularFunction, order: int | None = None) -> RegularFunction:
    """Summation operator: the antidifference pinned by G(base) = 0."""
    return integrate(F, 0, order=order)


def D_op(G: RegularFunction, order: int | None = None) -> RegularFunction:
    """The function F with F*o = DG, i.e. F = G' + G''o/2 + G'''o^2/6 + ..."""
    target = order if order is not None else DEFAULT_ORDER

    def coeff(l: int) -> OmegaNumber:
        return _moment_sum(G, l + 1, -l - 1, lambda m: math.comb(m, l), target)

    degree = None if G.degree is None else max(G.degree - 1, 0)
    return RegularFunction(
        coeff, base_point=G.base_point, name=f"Dq[{G.name}]", degree=degree
    )


def brute_sum(
    F: RegularFunction,
    t: Rational,
    k: int,
    order: int | None = None,
) -> OmegaNumber:
    """Literal grid sum of F over [[t, t + k*o[[ times o.

    The finite-k oracle validating `integrate`: k >= 0 sums forward,
    k < 0 sums the mirrored grid [[t + k*o, t[[ and negates.
    """
    t = _frac(t)
    d0 = OmegaNumber.from_rational(t - F.base_point)
    if F.degree is None and not d0.is_zero():
        raise NotInfinitesimal("grid sums of infinite streams start at the base point")
    o = OmegaNumber.o()
    total = OmegaNumber.zero()
    for n in range(min(k, 0), max(k, 0)):
        total = total + F.eval(d0 + o * n, order=order) * o
    return total if k >= 0 else -total


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
        raise DomainError("iterated grid sums are taken on the forward grid")
    if p < 1:
        raise DomainError("nesting depth must be >= 1")
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
    """B^k(x) = x(x-o)...(x-(k-1)o)/k!, the grid binomial polynomial:
    coefficient l is s(k, l)/k! * o^(k-l)."""
    _check_range(k >= 0, "grid binomial index must be nonnegative")
    k_fact = math.factorial(k)
    return RegularFunction.polynomial(
        [OmegaNumber.from_terms({k - l: Fraction(_stirling(1, k, l), k_fact)})
         for l in range(k + 1)],
        name=f"B^{k}",
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
        raise DomainError("the system order must be at least 1")
    if len(C) != p:
        raise DomainError(f"need exactly {p} initial conditions")
    if F.base_point != 0:
        raise DomainError("order-p systems are posed at base point 0")

    C = [_as_omega(c) for c in C]
    init = [C[0]] + [OmegaNumber.zero()] * (p - 1)
    for k in range(1, p):
        B = grid_binomial(k)
        for l in range(k + 1):
            init[l] = init[l] + B.coeff(l) * C[k]
    return RegularFunction(
        _p_fold_sum(F, p, order, init), name=f"ode{p}[{F.name}]",
        degree=None if F.degree is None else F.degree + p,
    )

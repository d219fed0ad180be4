"""Core number type: canonical form, ring laws, order, inversion, powers."""

import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegacalc.errors import (
    DivisionByZero,
    DomainError,
    IndistinguishableAtTruncation,
    NoStabilization,
    NonRepresentableBase,
    NotInRo,
    OrderExceedsKnown,
    TruncationUnderflow,
)
from omegacalc.aleph import AlephInt, integer_truncature
from omegacalc.omega import (
    DEFAULT_ORDER,
    EQUAL,
    GREATER,
    INFINITE_ORDER,
    LESS,
    ExtendedOmega,
    OmegaNumber,
    cauchy_limit,
    compare,
    compare_extended,
    from_json_dict,
    much_less,
    normalize,
    pow_rational,
    rational_root_power,
    render_plain,
    sup_finite,
    to_json_dict,
    _integer_root,
    _mul_trunc,
    _ode_series,
)
from omegacalc.rational import RationalFunction

from conftest import random_omega

ONE = OmegaNumber.one()
ZERO = OmegaNumber.zero()
O = OmegaNumber.o()
SIGMA = OmegaNumber.sigma()


def omega_terms():
    return st.dictionaries(
        st.integers(-3, 5),
        st.fractions(min_value=-10, max_value=10, max_denominator=6),
        max_size=5,
    )


def omegas():
    return omega_terms().map(OmegaNumber.from_terms)


class TestNormalize:
    def test_identity_terms(self):
        x = normalize({0: 1, 1: 0}, known_order=3)
        assert x == OmegaNumber.from_terms({0: 1}, known_order=3)
        assert render_plain(x) == "1 + O(o^4)"

    def test_empty_is_zero(self):
        x = normalize({}, known_order=5)
        assert x.is_zero()
        assert x.valuation is None

    def test_reduces_and_strips(self):
        x = normalize({-1: 2, 0: 0, 2: F(3, 6)}, known_order=2)
        assert x.valuation == -1
        assert x.coeffs == (F(2), F(0), F(0), F(1, 2))
        assert render_plain(x) == "2*S + 1/2*o^2 + O(o^3)"

    def test_terms_beyond_known_order_are_dropped(self):
        x = normalize({0: 1, 7: 3}, known_order=4)
        assert dict(x.terms()) == {0: F(1)}


class TestAddSub:
    def test_cancellation(self):
        assert (ONE + O) + (ONE - O) == OmegaNumber.from_rational(2)

    def test_sparse_merge_across_valuations(self):
        x = O + SIGMA
        assert dict(x.terms()) == {-1: F(1), 1: F(1)}

    def test_additive_inverse(self, rng):
        for _ in range(50):
            x = random_omega(rng)
            assert (x + (-x)).is_zero()

    def test_known_order_is_min(self):
        x = OmegaNumber.from_terms({0: 1}, known_order=2)
        y = OmegaNumber.from_terms({1: 1}, known_order=5)
        assert (x + y).known_order == 2


class TestMul:
    def test_sigma_times_o_is_exactly_one(self):
        assert O * SIGMA == ONE
        assert (O * SIGMA).is_exact()

    def test_binomial_square(self):
        assert (ONE + O) * (ONE + O) == OmegaNumber.from_terms({0: 1, 1: 2, 2: 1})

    def test_ord_is_additive(self, rng):
        for _ in range(200):
            x = random_omega(rng, nonzero=True)
            y = random_omega(rng, nonzero=True)
            assert (x * y).ord() == x.ord() + y.ord()

    def test_known_order_rule(self):
        x = OmegaNumber.from_terms({0: 1, 1: -1}, known_order=3)
        y = OmegaNumber.from_terms({-1: 1}, known_order=None)
        assert (x * y).known_order == 3 + (-1)

    def test_integral_domain(self, rng):
        for _ in range(100):
            x = random_omega(rng, nonzero=True)
            y = random_omega(rng, nonzero=True)
            assert not (x * y).is_zero()


@settings(max_examples=60)
@given(omegas(), omegas(), omegas())
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=80)
@given(omegas(), omegas())
def test_trichotomy_property(x, y):
    assert {compare(x, y), compare(y, x)} in ({EQUAL}, {LESS, GREATER})


@settings(max_examples=80)
@given(omegas(), omegas())
def test_much_less_iff_order_gap(x, y):
    if x.is_zero() or y.is_zero():
        return
    assert much_less(x, y) == (x.ord() > y.ord())
    if much_less(x, y):
        # the defining quantifier, sampled at large standard multipliers
        for k in (1, 1000, 10**6):
            ax = x if compare(x, ZERO) >= 0 else -x
            ay = y if compare(y, ZERO) >= 0 else -y
            assert compare(ax * k, ay) == LESS


# ---------------------------------------------------------------------------
# The sparse dict multiply that the dense kernel replaced, kept as an oracle
# ---------------------------------------------------------------------------


def oracle_from_terms(terms, known_order):
    """Canonical (valuation, coeffs, known_order) of sparse exponent data."""
    dense = {}
    for e, c in terms:
        if c != 0 and (known_order is None or e <= known_order):
            dense[e] = dense.get(e, F(0)) + c
    dense = {e: c for e, c in dense.items() if c != 0}
    if not dense:
        return (None, (), known_order)
    lo, hi = min(dense), max(dense)
    return (lo, tuple(dense.get(e, F(0)) for e in range(lo, hi + 1)), known_order)


def oracle_min(*orders):
    finite = [k for k in orders if k is not None]
    return min(finite) if finite else None


def oracle_add(x, y):
    merged = dict(x.terms())
    for e, c in y.terms():
        merged[e] = merged.get(e, F(0)) + c
    return oracle_from_terms(merged.items(), oracle_min(x.known_order, y.known_order))


def oracle_mul(x, y):
    if (x.is_zero() and x.is_exact()) or (y.is_zero() and y.is_exact()):
        return (None, (), None)
    if x.is_zero() or y.is_zero():
        def effective_valuation(v):
            return v.valuation if v.coeffs else v.known_order + 1

        return (None, (), effective_valuation(x) + effective_valuation(y) - 1)
    ko = oracle_min(
        None if x.known_order is None else x.known_order + y.valuation,
        None if y.known_order is None else y.known_order + x.valuation,
    )
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(x.terms(), y.terms()):
        if ko is None or e1 + e2 <= ko:
            out[e1 + e2] = out.get(e1 + e2, F(0)) + c1 * c2
    return oracle_from_terms(out.items(), ko)


def naive_convolution(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def key(x):
    return (x.valuation, x.coeffs, x.known_order)


def small_fractions():
    return st.fractions(min_value=-10, max_value=10, max_denominator=6)


def known_orders():
    # down to -4: below every valuation omega_terms() draws
    return st.none() | st.integers(-4, 6)


def inexact_omegas():
    """Exact or truncated values with S-powers; includes inexact zeros."""
    return st.builds(OmegaNumber.from_terms, omega_terms(), known_orders())


@settings(max_examples=100)
@given(omega_terms(), known_orders())
def test_from_terms_matches_oracle(terms, ko):
    assert key(OmegaNumber.from_terms(terms, ko)) == oracle_from_terms(terms.items(), ko)


def test_from_terms_shares_coefficients():
    c = F(2, 3)
    assert OmegaNumber.from_terms({0: c, 2: F(1, 5)}).coeffs[0] is c
    (total,) = OmegaNumber.from_terms([(0, c), (0, c)]).coeffs
    assert type(total) is F and total == 2 * c


@settings(max_examples=200)
@given(inexact_omegas(), inexact_omegas())
def test_mul_add_sub_match_oracle(x, y):
    assert key(x * y) == oracle_mul(x, y)
    assert key(x + y) == oracle_add(x, y)
    assert key(x - y) == oracle_add(x, -y)


@settings(max_examples=100)
@given(inexact_omegas(), st.integers(-5, 7))
def test_truncate_matches_oracle(x, order):
    if x.known_order is not None and order > x.known_order:
        return
    assert key(x.truncate(order)) == oracle_from_terms(x.terms(), order)


def test_known_order_below_product_valuation_is_inexact_zero():
    tail = OmegaNumber.from_terms({}, known_order=-3)
    assert key(tail * SIGMA**2) == oracle_mul(tail, SIGMA**2) == (None, (), -5)


@settings(max_examples=100)
@given(st.lists(small_fractions(), max_size=6), st.lists(small_fractions(), max_size=6),
       st.none() | st.integers(-3, 12))
def test_mul_trunc_matches_naive_convolution(a, b, limit):
    full = naive_convolution(a, b) if a and b else []
    expected = full if limit is None else full[:max(limit + 1, 0)]
    assert _mul_trunc(a, b, limit) == expected


# ---------------------------------------------------------------------------
# The schoolbook loop that Kronecker substitution replaced, kept as an oracle
# ---------------------------------------------------------------------------


def oracle_mul_trunc(a, b, limit=None):
    n = len(a) + len(b) - 1 if a and b else 0
    if limit is not None:
        n = max(min(n, limit + 1), 0)
    out = [0] * n
    nonzero_b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a[:n]):
        if not x:
            continue
        for j, y in nonzero_b:
            if i + j >= n:
                break
            out[i + j] += x * y
    return out


# Pairwise coprime, up to 127 bits: their lcm swells the packed slots.
COPRIME_DENOMINATORS = (3, 5, 7, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


def kernel_vectors():
    """Dense vectors of ints and Fractions, with zero runs inside and at the
    ends, up to 70 entries; numerators reach 2**400."""
    entry = (st.integers(-3, 3) | small_fractions()
             | st.builds(F, st.integers(-2**400, 2**400), st.sampled_from(COPRIME_DENOMINATORS)))
    negative = (st.integers(-2**64, -1)
                | st.builds(F, st.integers(-2**400, -1), st.sampled_from(COPRIME_DENOMINATORS)))
    body = st.lists(entry, max_size=70) | st.lists(negative, min_size=1, max_size=70)
    return st.builds(lambda lead, v, trail: [0] * lead + v + [0] * trail,
                     st.integers(0, 3), body, st.integers(0, 3)).map(lambda v: v[:70])


@settings(max_examples=200, deadline=None)
@given(kernel_vectors(), kernel_vectors(),
       st.none() | st.sampled_from([-1, 0]) | st.integers(-1, 150))
@example([F(-5, 3)], [-2], None)
@example([7], [F(2**400, 2**127 - 1), 0, -1], 0)
@example([0, 1, 0], [0, 0, 0, -4], 200)
@example([F(-1, 2)] * 70, [F(-3, 5)] * 70, -1)
def test_mul_trunc_matches_schoolbook(a, b, limit):
    assert [F(c) for c in _mul_trunc(a, b, limit)] == oracle_mul_trunc(a, b, limit)


@pytest.mark.parametrize("M", [1, 3, 255, 2**64 - 1, F(2**100 + 1, 2**61 - 1)])
@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_mul_trunc_slot_boundaries(M, n):
    # Each convolution sum reaches +-min(len)*M**2, the largest value a
    # slot must hold: all-equal vectors fill the middle slot with it, and
    # alternating signs put it there negated, below slots that borrow.
    for a in ([M] * n, [-M] * n, [M, -M] * n, [-M, M] * n):
        assert _mul_trunc(a, a) == oracle_mul_trunc(a, a)
        assert _mul_trunc(a, [M] * n) == oracle_mul_trunc(a, [M] * n)


def test_binomial_row_2000():
    row = ((1 + O) ** 2000).coeffs
    assert list(row) == [math.comb(2000, k) for k in range(2001)]


def alephs():
    return st.builds(lambda c0, rest: AlephInt.from_coeffs([c0, *rest]),
                     st.integers(-20, 20), st.lists(small_fractions(), max_size=4))


@settings(max_examples=60)
@given(alephs(), alephs())
def test_aleph_product_is_naive_convolution(L, M):
    assert L * M == AlephInt.from_coeffs(naive_convolution(L.coeffs, M.coeffs))


def rational_functions():
    polys = st.lists(st.integers(-6, 6), min_size=1, max_size=4)
    return st.builds(RationalFunction.from_polys, polys,
                     polys.filter(lambda c: any(c)))


@settings(max_examples=60)
@given(rational_functions(), rational_functions())
def test_rational_product_is_naive_convolution(a, b):
    num = naive_convolution(a.num, b.num) if a.num else []
    assert a * b == RationalFunction.from_polys(num, naive_convolution(a.den, b.den))


@settings(max_examples=60)
@given(rational_functions(), st.integers(-4, 7))
def test_rational_power_is_n_fold_product(a, n):
    if a.is_zero() and n < 0:
        with pytest.raises(DivisionByZero):
            a ** n
        return
    base = a if n >= 0 else a.invert()
    expected = RationalFunction.from_rational(1)
    for _ in range(abs(n)):
        expected = expected * base
    assert a ** n == expected


def test_rational_first_power_reduces_its_operand():
    unreduced = RationalFunction((F(2), F(2)), (F(2),))
    assert unreduced ** 1 == RationalFunction.from_polys([1, 1], [1])
    # invert does not reduce: a negative power reduces the raw operand first
    assert unreduced ** -1 == RationalFunction.from_polys([1], [1, 1])
    assert unreduced ** -2 == RationalFunction.from_polys([1], [1, 2, 1])
    shared = RationalFunction((F(1), F(0), F(-1)), (F(1), F(1)))  # (1 - o^2)/(1 + o)
    assert shared ** -1 == RationalFunction.from_polys([1], [1, -1])
    assert shared ** -2 == RationalFunction.from_polys([1], [1, -2, 1])


@settings(max_examples=60, deadline=None)
@given(rational_functions(), st.integers(-12, 12))
def test_rational_power_is_reduced_naive_power(a, n):
    if a.is_zero() and n < 0:
        with pytest.raises(DivisionByZero):
            a ** n
        return
    base = a if n >= 0 else a.invert()
    num, den = [F(1)], [F(1)]
    for _ in range(abs(n)):
        num, den = naive_convolution(num, base.num), naive_convolution(den, base.den)
    assert a ** n == RationalFunction.from_polys(num, den)


def test_rational_power_reduces_only_its_operand(monkeypatch):
    from omegacalc import rational

    calls = []
    gcd = rational._poly_gcd

    def counting(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(rational, "_poly_gcd", counting)
    a = RationalFunction.from_polys([1, 2, 0, -1], [1, -2, 3, 1])
    for n in (20, -20):
        calls.clear()
        a ** n
        assert len(calls) <= 2


# ---------------------------------------------------------------------------
# The N-fold loops that Miller's recurrence and binary powering replaced,
# kept as oracles
# ---------------------------------------------------------------------------


def oracle_leading_split(x):
    """Factor a nonzero value as a*o^v*(1+u) with u infinitesimal."""
    a, v = x.coeffs[0], x.valuation
    rel_ko = None if x.known_order is None else x.known_order - v
    u = OmegaNumber.from_terms({1 + i: c / a for i, c in enumerate(x.coeffs[1:])}, rel_ko)
    return a, v, u


def oracle_geometric_sum(r, relative_order):
    """1 + r + r^2 + ... truncated at o^relative_order (ord(r) >= 1)."""
    total = OmegaNumber.one()
    power = OmegaNumber.one()
    for _ in range(relative_order):
        power = power * r
        if power.is_zero() and power.is_exact():
            break
        power = power.truncate(oracle_min(relative_order, power.known_order))
        total = total + power
    return total


def oracle_invert(x, order=None):
    if x.is_zero():
        if x.is_exact():
            raise DivisionByZero("inverse of zero")
        raise TruncationUnderflow("no known leading coefficient to invert")
    a, v, u = oracle_leading_split(x)
    propagated = None if x.known_order is None else x.known_order - 2 * v
    target = oracle_min(order, propagated)
    monomial = OmegaNumber.from_terms({-v: 1 / a})
    if u.is_zero() and u.is_exact():
        return monomial if propagated is None else monomial.truncate(propagated)
    if target is None:
        target = DEFAULT_ORDER
    rel = target + v
    if rel < 0:
        raise TruncationUnderflow("requested order is below the inverse's valuation")
    return (monomial * oracle_geometric_sum(-u, rel)).truncate(target)


def oracle_int_pow(x, n, order=None):
    """n-fold product: |n| multiplications."""
    if n == 0:
        return OmegaNumber.one()
    base = x if n > 0 else oracle_invert(x, order)
    result = OmegaNumber.one()
    for _ in range(abs(n)):
        result = result * base
    return result


def oracle_pow_rational(x, alpha, order=None):
    """Binomial series sum_k C(alpha, k) u^k with one product per term."""
    alpha = F(alpha)
    if alpha.denominator == 1:
        return oracle_int_pow(x, alpha.numerator, order)
    if x.is_zero():
        raise DomainError("fractional power of zero")
    if x.valuation != 0:
        raise DomainError("fractional powers need a standard leading term (valuation 0)")
    t = x.coeffs[0]
    if t <= 0:
        raise DomainError("fractional powers need a positive leading coefficient")
    t_alpha = rational_root_power(t, alpha)
    _, _, u = oracle_leading_split(x)
    target = oracle_min(order, x.known_order)
    if target is None:
        target = DEFAULT_ORDER
    total = OmegaNumber.zero()
    u_pow = OmegaNumber.one()
    binom = F(1)
    for k in range(target + 1):
        if k > 0:
            binom *= (alpha - (k - 1)) / k
            u_pow = u_pow * u
            if u_pow.is_zero() and u_pow.is_exact():
                break
            u_pow = u_pow.truncate(oracle_min(target, u_pow.known_order))
        total = total + u_pow * binom
    total = total * t_alpha
    return total.truncate(oracle_min(target, total.known_order))


def outcome(fn, *args):
    """The structural key of the result, or the type of the error raised."""
    try:
        return key(fn(*args))
    except Exception as exc:  # compared by type against the oracle's
        return type(exc)


def series_orders():
    return st.none() | st.integers(-6, 10)


def standard_leads():
    """Positive leading coefficients with rational square and cube roots."""
    return st.sampled_from([F(1), F(4), F(9, 4), F(8), F(1, 27), F(64), F(1, 4)])


def power_series_operands():
    """Values a*(1 + u): exact or truncated, dense or with an inexact zero u."""
    tails = st.dictionaries(st.integers(1, 6), small_fractions(), max_size=5)
    return st.builds(lambda a, tail, ko: OmegaNumber.from_terms({0: a, **tail}, ko),
                     standard_leads(), tails, st.none() | st.integers(0, 8))


FRACTIONAL_EXPONENTS = [F(1, 2), F(-1, 2), F(3, 2), F(-3, 2), F(1, 3), F(-2, 3), F(5, 4)]


def oracle_pow_series(u, alpha, limit):
    """Coefficients 0..limit of ``(1 + u[1]*o + u[2]*o**2 + ...)**alpha`` by
    J.C.P. Miller's recurrence ``k*p[k] = sum_{j=1..k} ((alpha+1)*j - k) *
    u[j] * p[k-j]``, as the kernel ran it before its linear-system routine."""
    if limit < 0:
        return []
    nonzero_u = [(j, c) for j, c in enumerate(u[1:limit + 1], 1) if c]
    scale = alpha + 1
    p = [F(1)]
    for k in range(1, limit + 1):
        total = F(0)
        for j, c in nonzero_u:
            if j > k:
                break
            total += (scale * j - k) * c * p[k - j]
        p.append(total / k)
    return p


@settings(max_examples=200, deadline=None)
@given(st.lists(st.just(F(0)) | small_fractions(), max_size=12),
       st.sampled_from(FRACTIONAL_EXPONENTS + [F(0), F(2), F(-1)]), st.integers(-1, 10))
@example([], F(1, 2), -1)
@example([F(1)], F(1, 2), 0)
@example([F(1), F(0), F(0), F(3)], F(-2, 3), 9)  # zeros in u, u shorter than the limit
@example([F(1), F(2), F(0), F(4), F(5)], F(1, 3), 2)  # u longer than the limit
def test_ode_series_is_millers_power_recurrence(u, alpha, limit):
    got = _ode_series(1, ((alpha,),), [[F(1)]], u, limit)
    assert len(got) == 1
    assert [(type(c), c) for c in got[0]] == [(F, c) for c in oracle_pow_series(u, alpha, limit)]


@settings(max_examples=200)
@given(inexact_omegas() | power_series_operands(), series_orders())
@example(OmegaNumber.from_terms({-1: 2, 0: 1}), -3)  # TruncationUnderflow
@example(OmegaNumber.from_terms({}, known_order=2), None)  # inexact zero
@example(OmegaNumber.from_terms({0: 4}, known_order=3), 0)  # inexact zero u
def test_invert_matches_geometric_oracle(x, order):
    assert outcome(x.invert, order) == outcome(oracle_invert, x, order)


@settings(max_examples=200)
@given(power_series_operands() | inexact_omegas(), st.sampled_from(FRACTIONAL_EXPONENTS),
       series_orders())
@example(OmegaNumber.from_terms({0: 4}, known_order=3), F(1, 2), None)  # inexact zero u
@example(OmegaNumber.from_terms({0: 4}), F(1, 2), 0)  # exact root, order 0
@example(OmegaNumber.from_terms({0: 2, 1: 1}), F(1, 2), None)  # irrational root
def test_pow_rational_matches_binomial_oracle(x, alpha, order):
    assert outcome(x.pow_rational, alpha, order) == outcome(oracle_pow_rational, x, alpha, order)


@settings(max_examples=200)
@given(inexact_omegas() | power_series_operands(), st.integers(-6, 12), series_orders())
def test_integer_powers_match_n_fold_oracle(x, n, order):
    assert outcome(x.__pow__, n) == outcome(oracle_int_pow, x, n)
    assert outcome(x.pow_rational, n, order) == outcome(oracle_int_pow, x, n, order)


def test_integer_power_multiplies_by_squaring(monkeypatch):
    calls = []
    multiply = OmegaNumber.__mul__

    def counting(self, other):
        calls.append(1)
        return multiply(self, other)

    x = OmegaNumber.from_terms({0: 1, 1: 1})
    expected = oracle_int_pow(x, 64)
    monkeypatch.setattr(OmegaNumber, "__mul__", counting)
    assert x ** 64 == expected
    assert len(calls) <= 12


@pytest.mark.parametrize("order", [0, 1, 5, 12])
@pytest.mark.parametrize("case", ["1/(2+o+o^2)", "sqrt(4+o)", "(1+o)^(-3/2)"])
def test_series_match_sympy(case, order):
    sympy = pytest.importorskip("sympy")
    o = sympy.symbols("o")
    expr, got = {
        "1/(2+o+o^2)": (1 / (2 + o + o**2),
                        OmegaNumber.from_terms({0: 2, 1: 1, 2: 1}).invert(order)),
        "sqrt(4+o)": (sympy.sqrt(4 + o),
                      OmegaNumber.from_terms({0: 4, 1: 1}).pow_rational(F(1, 2), order)),
        "(1+o)^(-3/2)": ((1 + o) ** sympy.Rational(-3, 2),
                         (ONE + O).pow_rational(F(-3, 2), order)),
    }[case]
    poly = sympy.Poly(sympy.series(expr, o, 0, order + 1).removeO(), o)
    want = {k: F(int(c.p), int(c.q)) for (k,), c in poly.terms()}
    assert got == OmegaNumber.from_terms(want, known_order=order)


class TestInvert:
    def test_geometric_series(self):
        inv = (ONE + O).invert(order=4)
        assert inv == OmegaNumber.from_terms(
            {0: 1, 1: -1, 2: 1, 3: -1, 4: 1}, known_order=4
        )

    def test_monomial(self):
        assert O.invert() == SIGMA
        assert SIGMA.invert() == O

    def test_multiply_back(self):
        x = OmegaNumber.from_terms({0: 2, 1: 3})
        inv = x.invert(order=5)
        back = x * inv
        assert back.coefficient(0) == 1
        assert all(back.coefficient(k) == 0 for k in range(1, 6))

    def test_zero_raises(self):
        with pytest.raises(DivisionByZero):
            ZERO.invert()

    def test_unknown_leading_coefficient_underflows(self):
        with pytest.raises(TruncationUnderflow):
            OmegaNumber.from_terms({}, known_order=2).invert()

    def test_order_below_result_valuation_underflows(self):
        x = OmegaNumber.from_terms({-1: 2, 0: 1})
        with pytest.raises(TruncationUnderflow):
            x.invert(order=-3)

    def test_two_sided_up_to_truncation(self, rng):
        for _ in range(60):
            x = random_omega(rng, nonzero=True)
            inv = x.invert(order=6)
            for prod in (x * inv, inv * x):
                assert prod.coefficient(0) == 1
                top = prod.known_order if prod.known_order is not None else 6
                assert all(prod.coefficient(k) == 0 for k in range(1, top + 1))


class TestCompare:
    def test_zero_below_o_below_one(self):
        assert compare(ZERO, O) == LESS
        for k in (1, 10, 1000, 10**6):
            assert compare(O * k, ONE) == LESS

    def test_million_below_sigma(self):
        assert compare(OmegaNumber.from_rational(10**6), SIGMA) == LESS

    def test_lexicographic_on_moments(self):
        assert compare(
            OmegaNumber.from_terms({0: 1, 1: 2}),
            OmegaNumber.from_terms({0: 1, 1: 3}),
        ) == LESS

    def test_equal_only_when_exact(self):
        assert compare(ONE + O, ONE + O) == EQUAL
        t = (ONE + O).truncate(3)
        with pytest.raises(IndistinguishableAtTruncation):
            compare(t, t)

    def test_trichotomy_and_transitivity(self, rng):
        for _ in range(200):
            x, y, z = (random_omega(rng) for _ in range(3))
            results = {compare(x, y), compare(y, x)}
            assert results in ({EQUAL}, {LESS, GREATER})
            if compare(x, y) <= 0 and compare(y, z) <= 0:
                assert compare(x, z) <= 0

    def test_order_compatible_with_add_and_positive_mul(self, rng):
        for _ in range(200):
            x, y, z = (random_omega(rng) for _ in range(3))
            if compare(x, y) == LESS:
                assert compare(x + z, y + z) == LESS
                p = random_omega(rng, nonzero=True)
                if compare(p, ZERO) == GREATER:
                    assert compare(x * p, y * p) == LESS


class TestMuchLess:
    def test_o_much_less_than_one(self):
        assert much_less(O, ONE)
        assert much_less(ONE, SIGMA)

    def test_same_order_is_not_much_less(self):
        assert not much_less(O * 2, O * 3)

    def test_zero_much_less_than_anything_nonzero(self):
        assert much_less(ZERO, O)
        assert not much_less(ZERO, ZERO)

    def test_inexact_zero_decides_only_below_its_tail(self):
        assert much_less(OmegaNumber.from_terms({}, known_order=3), O * O)
        with pytest.raises(IndistinguishableAtTruncation):
            much_less(OmegaNumber.from_terms({}, known_order=1), O * O)

    def test_equivalence_with_ord(self, rng):
        for _ in range(200):
            x = random_omega(rng, nonzero=True)
            y = random_omega(rng, nonzero=True)
            assert much_less(x, y) == (x.ord() > y.ord())


class TestOrdStdTrunc:
    def test_ord_zero_is_distinguished(self):
        assert ZERO.ord() is INFINITE_ORDER
        assert ZERO.ord() > 10**9

    def test_standard_part(self):
        x = OmegaNumber.from_terms({0: 3, 1: 5, 2: -1})
        assert x.standard_part() == 3
        with pytest.raises(NotInRo):
            SIGMA.standard_part()

    def test_truncate(self):
        x = OmegaNumber.from_terms({0: 1, 1: 1, 2: 1, 3: 1})
        t = x.truncate(2)
        assert t == OmegaNumber.from_terms({0: 1, 1: 1, 2: 1}, known_order=2)
        assert t.truncate(2) == t
        with pytest.raises(OrderExceedsKnown):
            t.truncate(3)

    def test_standard_plus_infinitesimal_reconstructs(self, rng):
        for _ in range(100):
            x = random_omega(rng, min_exp=0)
            assert OmegaNumber.from_rational(x.standard_part()) + x.infinitesimal_part() == x


class TestPowRational:
    def test_square_root_series(self):
        got = (ONE + O).pow_rational(F(1, 2), order=4)
        want = OmegaNumber.from_terms(
            {0: 1, 1: F(1, 2), 2: F(-1, 8), 3: F(1, 16), 4: F(-5, 128)},
            known_order=4,
        )
        assert got == want

    def test_power_zero(self):
        assert OmegaNumber.from_terms({0: 7, 2: 1}).pow_rational(0) == ONE

    def test_scaled_square_root_squares_back(self):
        x = OmegaNumber.from_terms({0: 4, 1: 4})
        r = x.pow_rational(F(1, 2), order=6)
        sq = r * r
        for e, c in x.terms():
            assert sq.coefficient(e) == c
        assert all(
            sq.coefficient(k) == 0
            for k in range(sq.valuation, sq.known_order + 1)
            if k not in (0, 1)
        )

    def test_irrational_base_rejected(self):
        with pytest.raises(NonRepresentableBase):
            OmegaNumber.from_terms({0: 2, 1: 1}).pow_rational(F(1, 2))

    def test_fractional_power_of_infinitesimal_rejected(self):
        with pytest.raises(DomainError):
            O.pow_rational(F(1, 2))
        with pytest.raises(DomainError):
            O.pow_rational(F(-1, 2))

    def test_integer_negative_power(self):
        assert O.pow_rational(-1) == SIGMA


class TestExtended:
    def test_epsilon_sits_between_scales(self):
        eps = ExtendedOmega.epsilon()
        assert compare_extended(eps, O * (10**9)) == GREATER
        assert compare_extended(eps, OmegaNumber.from_rational(F(1, 10**9))) == LESS

    def test_sup_of_finite_chain(self):
        assert sup_finite([ONE, ONE + O, ONE - O]) == ONE + O

    def test_cut_bracketing(self):
        t = OmegaNumber.from_rational(3)
        lo = ExtendedOmega(t, 1, -1)   # t - eps
        hi = ExtendedOmega(t, 1, 1)    # t + eps
        inside = [t, t + O, t - O, t + O * 17 - OmegaNumber.o(2)]
        for x in inside:
            assert compare_extended(lo, x) == LESS
            assert compare_extended(x, hi) == LESS
        outside_low = t - OmegaNumber.from_rational(F(1, 10**6))
        outside_high = t + OmegaNumber.from_rational(F(1, 10**6))
        assert compare_extended(outside_low, lo) == LESS
        assert compare_extended(hi, outside_high) == LESS

    def test_no_finite_coeff_at_moment(self):
        with pytest.raises(DomainError):
            ExtendedOmega(OmegaNumber.from_terms({1: 2}), 1, 1)

    def test_negation_mirrors_the_cut(self):
        t = OmegaNumber.from_rational(3)
        assert -ExtendedOmega(t, 1, 1) == ExtendedOmega(-t, 1, -1)
        assert -ExtendedOmega(t) == ExtendedOmega(-t)
        for x in (t - O, t, t + O):
            assert compare_extended(-ExtendedOmega(t, 1, -1), -x) == GREATER


# ---------------------------------------------------------------------------
# The exponent walk with string tags that the moment rule replaced, kept as
# an oracle
# ---------------------------------------------------------------------------


def oracle_extended_value_at(x, exponent):
    if x.position is not None and exponent == x.position:
        return ("+inf", None) if x.sign > 0 else ("-inf", None)
    if x.position is not None and exponent > x.position:
        return ("fin", F(0))
    if x.prefix.known_order is not None and exponent > x.prefix.known_order:
        return None
    return ("fin", x.prefix.coefficient(exponent))


def oracle_compare_extended(x, y):
    ex, ey = ExtendedOmega.wrap(x), ExtendedOmega.wrap(y)
    if ex.position is None and ey.position is None:
        return compare(ex.prefix, ey.prefix)
    exponents = {e for e, _ in ex.prefix.terms()} | {e for e, _ in ey.prefix.terms()}
    for p in (ex.position, ey.position):
        if p is not None:
            exponents.add(p)
    for e in sorted(exponents):
        vx = oracle_extended_value_at(ex, e)
        vy = oracle_extended_value_at(ey, e)
        if vx is None or vy is None:
            raise IndistinguishableAtTruncation(f"coefficient of o^{e} is unknown on one side")
        if vx == vy:
            continue
        order = {"-inf": 0, "fin": 1, "+inf": 2}
        kx, ky = vx[0], vy[0]
        if kx == ky == "fin":
            return GREATER if vx[1] > vy[1] else LESS
        return GREATER if order[kx] > order[ky] else LESS
    if ex.prefix.is_exact() and ey.prefix.is_exact():
        return EQUAL
    raise IndistinguishableAtTruncation("extended values agree on all known moments")


def outcome_of(fn, *args):
    """The value returned, or the type of the error raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by type against the oracle's
        return type(exc)


def extended_values():
    """A moment at -1..2 of either sign over an exact prefix below it."""
    def build(terms, position, sign):
        below = {e: c for e, c in terms.items() if e < position}
        return ExtendedOmega(OmegaNumber.from_terms(below), position, sign)

    return st.builds(build, omega_terms(), st.integers(-1, 2), st.sampled_from([-1, 1]))


def extended_operands():
    return extended_values() | inexact_omegas()


THREE = OmegaNumber.from_rational(3)


@settings(max_examples=300, deadline=None)
@given(extended_operands(), extended_operands())
@example(ExtendedOmega(THREE, 1, 1), ExtendedOmega(THREE, 1, 1))  # equal moments
@example(ExtendedOmega(THREE, 1, 1), ExtendedOmega(THREE, 1, -1))  # opposite signs
@example(ExtendedOmega(THREE, 1, 1), ExtendedOmega(THREE, 2, -1))  # different positions
@example(ExtendedOmega.epsilon(), OmegaNumber.from_terms({}, known_order=-2))  # inexact zero
@example(OmegaNumber.from_terms({0: 3, 1: 1}, known_order=1), ExtendedOmega(THREE, 2, 1))
@example(OmegaNumber.from_terms({0: 3}, known_order=0), ExtendedOmega(THREE, 1, -1))  # o^1 unknown
def test_compare_extended_matches_walk_oracle(x, y):
    assert outcome_of(compare_extended, x, y) == outcome_of(oracle_compare_extended, x, y)


class TestExtendedOrderRule:
    def test_equal_extended_values_are_equal(self):
        for position, sign in ((1, 1), (1, -1), (-2, 1), (3, -1)):
            prefix = OmegaNumber.from_terms({-4: 2, -3: 3})
            assert compare_extended(ExtendedOmega(prefix, position, sign),
                                    ExtendedOmega(prefix, position, sign)) == EQUAL

    def test_equal_moments_leave_the_prefixes_to_decide(self):
        assert compare_extended(ExtendedOmega(THREE, 1, 1),
                                ExtendedOmega(THREE + ONE, 1, 1)) == LESS

    def test_undecidable_names_the_first_unknown_coefficient(self):
        root = (ONE + O).pow_rational(F(1, 2), order=0)  # 1 + O(o)
        with pytest.raises(IndistinguishableAtTruncation,
                           match=r"^coefficient of o\^1 is unknown on one side$"):
            compare_extended(root, ExtendedOmega(ONE, 2, 1))


# ---------------------------------------------------------------------------
# The order read off the whole difference x - y, which the coefficient walk
# replaced, kept as oracles
# ---------------------------------------------------------------------------


def difference_compare(x, y):
    d = x - y
    if not d.is_zero():
        return GREATER if d.coeffs[0] > 0 else LESS
    if d.is_exact():
        return EQUAL
    raise IndistinguishableAtTruncation(
        f"values agree through o^{d.known_order} and differ only in unknown tails",
        known_through=d.known_order,
    )


def difference_compare_extended(x, y):
    ex, ey = ExtendedOmega.wrap(x), ExtendedOmega.wrap(y)
    moments = {}
    for position, sign in ((ex.position, ex.sign), (ey.position, -ey.sign)):
        if position is not None:
            moments[position] = moments.get(position, 0) + sign
    left = [position for position, sign in moments.items() if sign]
    if not left:
        return difference_compare(ex.prefix, ey.prefix)
    p = min(left)
    d = ex.prefix - ey.prefix
    if d.coeffs and d.valuation < p:
        return GREATER if d.coeffs[0] > 0 else LESS
    if d.known_order is not None and d.known_order < p:
        raise IndistinguishableAtTruncation(
            f"coefficient of o^{d.known_order + 1} is unknown on one side",
            known_through=d.known_order,
        )
    return GREATER if moments[p] > 0 else LESS


def order_outcome(fn, *args):
    """The order returned, or the type, message and known_through raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by type, message and order with the oracle's
        return type(exc), str(exc), getattr(exc, "known_through", None)


def fresh_copy(x, known_order):
    """x's terms in new Fraction objects, known to ``known_order``."""
    return OmegaNumber.from_terms(
        [(e, F(c.numerator, c.denominator)) for e, c in x.terms()], known_order
    )


@st.composite
def order_pairs(draw):
    """(x, y) over S-powers, with exact, inexact and inexact-zero sides:
    unrelated values, equal values (sharing their coefficients or not, as
    exact or inexact), values that differ at one exponent, and values that
    differ only past one side's known order."""
    x = draw(inexact_omegas())
    shape = draw(st.sampled_from(("unrelated", "equal", "one term", "past known")))
    if shape == "unrelated":
        y = draw(inexact_omegas())
    elif shape == "equal":
        known = draw(st.sampled_from((x.known_order, None)))
        y = fresh_copy(x, known) if draw(st.booleans()) else OmegaNumber(
            x.valuation, x.coeffs, known)
    elif shape == "one term":
        terms = dict(x.terms())
        e = draw(st.integers(-4, 7))
        terms[e] = terms.get(e, F(0)) + draw(small_fractions())
        y = OmegaNumber.from_terms(terms, draw(st.sampled_from((x.known_order, None))))
    else:
        k = draw(st.integers(-4, 6))
        x = OmegaNumber.from_terms(x.terms(), k)
        extra = draw(st.dictionaries(st.integers(k + 1, k + 4), small_fractions(),
                                     min_size=1, max_size=3))
        y = OmegaNumber.from_terms(list(x.terms()) + list(extra.items()),
                                   draw(st.none() | st.integers(k, k + 5)))
    return (y, x) if draw(st.booleans()) else (x, y)


@st.composite
def extended_order_pairs(draw):
    """order_pairs() with a +inf or -inf moment on either side or both, at,
    just below or just above the pair's joint known order."""
    x, y = draw(order_pairs())
    known = oracle_min(x.known_order, y.known_order)
    base = known if known is not None else draw(st.integers(-3, 5))

    def with_moment(v):
        if draw(st.booleans()):
            return v
        position = base + draw(st.sampled_from((-1, 0, 1)))
        prefix = OmegaNumber.from_terms([(e, c) for e, c in v.terms() if e < position])
        return ExtendedOmega(prefix, position, draw(st.sampled_from((-1, 1))))

    return with_moment(x), with_moment(y)


SHARED = OmegaNumber.from_terms({-1: 2, 0: F(1, 3), 2: 5})


@settings(max_examples=500, deadline=None)
@given(order_pairs())
@example((SHARED, SHARED))  # one object
@example((SHARED, fresh_copy(SHARED, None)))  # equal, exact
@example((SHARED.truncate(2), fresh_copy(SHARED, 5)))  # equal, inexact
@example((SHARED.truncate(0), SHARED))  # differ only past the left's known order
@example((OmegaNumber.from_terms({}, 1), OmegaNumber.from_terms({3: 1})))  # inexact zero
@example((OmegaNumber.from_terms({0: 1, 3: 1}), ONE.truncate(2)))  # gap past a window
def test_compare_matches_difference_oracle(pair):
    x, y = pair
    for a, b in ((x, y), (y, x)):
        assert order_outcome(compare, a, b) == order_outcome(difference_compare, a, b)


@settings(max_examples=500, deadline=None)
@given(extended_order_pairs())
@example((ExtendedOmega(OmegaNumber.from_terms({-1: 2, 0: F(1, 3)}), 1, 1), SHARED))  # moment decides
@example((ExtendedOmega.epsilon(3), ONE.truncate(1)))  # known order below the moment
@example((ExtendedOmega(ONE, 1, -1), fresh_copy(ONE, 2)))  # moment within the known order
def test_compare_extended_matches_difference_oracle(pair):
    x, y = pair
    for a, b in ((x, y), (y, x)):
        assert (order_outcome(compare_extended, a, b)
                == order_outcome(difference_compare_extended, a, b))


def test_compare_builds_no_value(monkeypatch):
    """An order decision walks the stored coefficients: no OmegaNumber is made."""
    x = OmegaNumber.from_terms({e: F(e + 2, 3) for e in range(-2, 33)}, 32)
    y = fresh_copy(x, None)
    z = OmegaNumber.from_terms(list(x.terms()) + [(20, 1)], 40)
    built = []
    init = OmegaNumber.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(OmegaNumber, "__init__", counting_init)
    assert compare(x, z) == LESS and compare(z, y) == GREATER
    assert compare_extended(ExtendedOmega(ONE, 1, 1), x) == LESS
    with pytest.raises(IndistinguishableAtTruncation):
        compare(x, y)
    assert built == []


class TestCauchyLimit:
    def test_constant_sequence(self):
        x = OmegaNumber.from_terms({0: 2, 1: 1, 5: 3, 6: 9})
        assert cauchy_limit(iter([x] * 10), 5) == x.truncate(5)

    def test_vanishing_powers(self):
        limit = cauchy_limit((OmegaNumber.o(p) for p in range(1, 40)), 4)
        assert limit.is_zero()
        assert limit.known_order == 4

    def test_sqrt_truncations_converge(self):
        series = (ONE + O).pow_rational(F(1, 2), order=10)
        # exact polynomial prefixes, as the truncation sequence of the value
        prefixes = (
            OmegaNumber.from_terms({e: c for e, c in series.terms() if e <= n})
            for n in range(11)
        )
        assert cauchy_limit(prefixes, 4) == series.truncate(4)

    def test_no_stabilization(self):
        with pytest.raises(NoStabilization):
            cauchy_limit(
                (OmegaNumber.from_rational(n) for n in range(100)), 2, max_steps=50
            )


class TestRendering:
    def test_canonical_example(self):
        x = OmegaNumber.from_terms({-1: 2, 0: 1, 1: F(-1, 2)})
        assert render_plain(x) == "2*S + 1 - 1/2*o"
        assert render_plain(x.truncate(2)) == "2*S + 1 - 1/2*o + O(o^3)"

    def test_zero_forms(self):
        assert render_plain(ZERO) == "0"
        assert render_plain(OmegaNumber.from_terms({}, known_order=4)) == "O(o^5)"

    def test_unit_coefficients(self):
        assert render_plain(O + SIGMA) == "S + o"
        assert render_plain(-O) == "-o"

    def test_epsilon(self):
        assert render_plain(ExtendedOmega.epsilon()) == "inf*o"
        t = OmegaNumber.from_rational(3)
        assert render_plain(ExtendedOmega(t, 1, -1)) == "3 - inf*o"


class TestJson:
    def test_roundtrip(self, rng):
        for _ in range(50):
            x = random_omega(rng)
            assert from_json_dict(to_json_dict(x)) == x

    def test_epsilon_encoding(self):
        d = to_json_dict(ExtendedOmega.epsilon())
        assert d["infinite_moment"] == {"position": 1, "sign": 1}
        assert d["coefficients"] == []


def _tail(known_order, terms=None):
    """``sum terms + O(o^(known_order+1))``."""
    return OmegaNumber.from_terms(terms or {}, known_order=known_order)


class TestKnownThrough:
    """Every undecidable verdict says how far both sides were known."""

    @pytest.mark.parametrize(
        "call, message, known_through",
        [
            (
                lambda: _tail(3, {0: 1}).coefficient(5),
                "coefficient of o^5 is beyond known order 3",
                3,
            ),
            (
                lambda: _tail(4).ord(),
                "ord is undetermined: all known coefficients vanish but the tail is unknown",
                4,
            ),
            (lambda: _tail(-2).standard_part(), "constant coefficient is unknown", -2),
            (
                lambda: compare(_tail(3, {0: 1}), _tail(5, {0: 1})),
                "values agree through o^3 and differ only in unknown tails",
                3,
            ),
            (lambda: much_less(O, _tail(4)), "ord of the right side is unknown", 4),
            (lambda: much_less(_tail(2), O ** 3), "ord of the left side is unknown", 2),
            (
                lambda: compare_extended(ExtendedOmega.epsilon(3), _tail(1)),
                "coefficient of o^2 is unknown on one side",
                1,
            ),
            (lambda: integer_truncature(_tail(-1)), "constant coefficient is unknown", -1),
            (
                lambda: integer_truncature(_tail(3, {0: 2})),
                "fractional part undecidable: o-part vanishes to the known order",
                3,
            ),
        ],
        ids=[
            "coefficient",
            "ord",
            "standard_part",
            "compare",
            "much_less_right",
            "much_less_left",
            "compare_extended",
            "integer_truncature",
            "sign_of_tail",
        ],
    )
    def test_raise_sites(self, call, message, known_through):
        with pytest.raises(IndistinguishableAtTruncation) as info:
            call()
        assert str(info.value) == message
        assert info.value.known_through == known_through

    def test_a_higher_order_decides(self):
        x = OmegaNumber.from_terms({0: 1, 4: 1})
        with pytest.raises(IndistinguishableAtTruncation) as info:
            compare(x.truncate(3), OmegaNumber.one().truncate(3))
        k = info.value.known_through
        assert compare(x.truncate(k + 1), OmegaNumber.one().truncate(k + 1)) == GREATER

    def test_defaults_to_none_and_is_keyword_only(self):
        assert IndistinguishableAtTruncation("m").known_through is None
        with pytest.raises(TypeError):
            IndistinguishableAtTruncation("m", 3)


class TestOperatorForms:
    """The reflected and division operators are the ring operations they
    spell, and the module-level pow_rational is the method."""

    @settings(max_examples=100, deadline=None)
    @given(omega_terms().map(OmegaNumber.from_terms),
           omega_terms().map(OmegaNumber.from_terms).filter(lambda y: not y.is_zero()),
           st.fractions(min_value=-5, max_value=5, max_denominator=4))
    def test_division_and_reflected_forms(self, x, y, r):
        assert x / y == x * y.invert()
        assert r / y == OmegaNumber.from_rational(r) * y.invert()
        assert 3 / y == y.invert() * 3
        assert r - x == OmegaNumber.from_rational(r) + (-x)
        assert 2 - x == -(x - 2)

    def test_small_cases(self):
        assert 1 / O == SIGMA
        assert ONE / (ONE - O) == (ONE - O).invert()
        assert 1 - O == OmegaNumber.from_terms({0: 1, 1: -1})
        assert F(1, 2) - SIGMA == OmegaNumber.from_terms({-1: -1, 0: F(1, 2)})
        with pytest.raises(DivisionByZero):
            1 / ZERO

    def test_unsupported_operands(self):
        with pytest.raises(TypeError):
            "1" - O
        with pytest.raises(TypeError):
            "1" / O

    @pytest.mark.parametrize("alpha,order", [(3, None), (-2, 4), (F(1, 2), None), (F(-1, 3), 5)])
    def test_module_pow_rational_is_the_method(self, alpha, order):
        x = OmegaNumber.from_terms({0: 64, 1: 1, 3: F(-2, 3)})
        got = pow_rational(x, alpha, order)
        assert got == x.pow_rational(alpha, order)
        if F(alpha).denominator == 1 and alpha > 0:
            assert got == x * x * x


class TestIntegerRoot:
    def test_exact_roots_and_their_neighbours(self):
        for d in range(1, 12):
            for k in range(40):
                assert _integer_root(k**d, d) == k
                if k and d > 1:
                    assert _integer_root(k**d + 1, d) is None

    def test_degree_past_the_bit_length_is_refused_at_once(self):
        # no root r >= 2 can have r**degree <= 2 < 2**degree
        assert _integer_root(2, 10**12) is None
        assert _integer_root(2**64 - 1, 64) is None
        assert _integer_root(2**64, 64) == 2

"""Core number type: canonical form, ring laws, order, inversion, powers."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
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
from omegacalc.aleph import AlephInt
from omegacalc.omega import (
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
    render_plain,
    sup_finite,
    to_json_dict,
    _mul_trunc,
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

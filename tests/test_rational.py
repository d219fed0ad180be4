"""Rational functions of o: expansion, field laws, density, completion."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegacalc.errors import (
    DivisionByZero,
    IndistinguishableAtTruncation,
    NotInRo,
    OrderExceedsKnown,
)
from omegacalc.omega import (
    DEFAULT_ORDER,
    OmegaNumber,
    _div_series,
    _mul_trunc,
    cauchy_limit,
    compare,
)
from omegacalc.rational import (
    RationalFunction,
    _coprime_mod_p,
    _poly,
    _poly_add,
    _poly_gcd,
    _poly_mul,
    _poly_quo,
    completion_demo,
    expand,
    rf_compare,
)

ONE = RationalFunction.from_rational(1)
RO = RationalFunction.o()
SIG = RationalFunction.sigma()


def random_rf(rng) -> RationalFunction:
    def poly():
        return [F(rng.randint(-6, 6)) for _ in range(rng.randint(1, 4))]

    den = poly()
    while all(c == 0 for c in den):
        den = poly()
    return RationalFunction.from_polys(poly(), den)


def rf_values():
    coeffs = st.lists(st.integers(-6, 6), min_size=1, max_size=4)
    return st.builds(
        lambda n, d: RationalFunction.from_polys(n, d),
        coeffs,
        coeffs.filter(lambda c: any(x != 0 for x in c)),
    )


@settings(max_examples=60)
@given(rf_values(), rf_values(), rf_values())
def test_field_laws_property(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.invert() == ONE


class TestExpand:
    def test_geometric(self):
        got = expand(ONE / (ONE - RO), 5)
        assert got == OmegaNumber.from_terms(
            {k: 1 for k in range(6)}, known_order=5
        )

    def test_pole_gives_sigma(self):
        assert expand(SIG, 5) == OmegaNumber.sigma()
        assert expand(SIG, 5).is_exact()

    def test_double_pole_example(self):
        rf = (ONE + RO) / (RO * RO * (ONE - RO))
        got = expand(rf, 3)
        # multiply-back: expansion times o^2(1-o) returns 1 + o
        q = OmegaNumber.from_terms({2: 1, 3: -1})
        back = got * q
        assert back.coefficient(0) == 1
        assert back.coefficient(1) == 1
        assert all(
            back.coefficient(k) == 0 for k in range(2, back.known_order + 1)
        )
        assert got == OmegaNumber.from_terms(
            {-2: 1, -1: 2, 0: 2, 1: 2, 2: 2, 3: 2}, known_order=3
        )

    def test_multiply_back_randomized(self, rng):
        for _ in range(40):
            rf = random_rf(rng)
            if rf.is_zero():
                continue
            got = expand(rf, 8)
            num = OmegaNumber.from_terms(dict(enumerate(rf.num)))
            den = OmegaNumber.from_terms(dict(enumerate(rf.den)))
            back = got * den
            top = back.known_order if back.known_order is not None else 8
            for k in range(min(back.valuation, 0), top + 1):
                assert back.coefficient(k) == num.coefficient(k)

    def test_exact_termination(self):
        got = expand((ONE + RO) * (ONE + RO), 9)
        assert got.is_exact()
        assert got == OmegaNumber.from_terms({0: 1, 1: 2, 2: 1})


# ---------------------------------------------------------------------------
# The remainder-dict long division that the series recurrence replaced,
# kept as an oracle
# ---------------------------------------------------------------------------


def oracle_expand(rf, order=None):
    target = order if order is not None else DEFAULT_ORDER
    if rf.is_zero():
        return OmegaNumber.zero()
    den_val = next(i for i, c in enumerate(rf.den) if c != 0)
    den = list(rf.den[den_val:])
    steps = target + den_val
    if steps < 0:
        return OmegaNumber.from_terms({}, known_order=target)
    remainder = {i: c for i, c in enumerate(rf.num) if c != 0}
    series = []
    for j in range(steps + 1):
        c = remainder.pop(j, F(0)) / den[0]
        series.append(c)
        if c != 0:
            for i, d in enumerate(den[1:], start=1):
                v = remainder.get(j + i, F(0)) - c * d
                if v == 0:
                    remainder.pop(j + i, None)
                else:
                    remainder[j + i] = v
        if not remainder:
            break
    terms = {j - den_val: c for j, c in enumerate(series)}
    return OmegaNumber.from_terms(terms, known_order=None if not remainder else target)


def naive_series_division(a, b, limit):
    """Long division of power series: subtract q[k]*b from the remainder."""
    remainder = [F(c) for c in a] + [F(0)] * max(limit + 1 - len(a), 0)
    q = []
    for k in range(limit + 1):
        q.append(remainder[k] / b[0])
        for j, c in enumerate(b):
            if k + j <= limit:
                remainder[k + j] -= q[k] * c
    return q


def reduced_rational_functions():
    """Reduced P/Q whose Q, before reduction, has valuation 0..3."""
    polys = st.lists(st.integers(-6, 6), min_size=1, max_size=4)
    units = polys.filter(lambda c: c[0] != 0)
    return st.builds(lambda n, v, d: RationalFunction.from_polys(n, [0] * v + d),
                     polys, st.integers(0, 3), units)


@settings(max_examples=200, deadline=None)
@given(reduced_rational_functions(), st.none() | st.integers(-3, 24))
@example(RationalFunction.from_polys([1, 0, 0, 0, 1], [1]), 2)  # polynomial cut short
@example(RationalFunction.from_polys([1], [0, 0, 0, 1]), -3)  # order below the pole
@example(RationalFunction.from_polys([1], [0, 0, 1, 1]), -3)  # target + v < 0
def test_expand_matches_long_division_oracle(rf, order):
    got, want = expand(rf, order), oracle_expand(rf, order)
    assert (got.valuation, got.coeffs, got.known_order) == (
        want.valuation, want.coeffs, want.known_order)


@settings(max_examples=200)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5), max_size=6),
       st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool),
       st.lists(st.sampled_from([F(0), F(0), F(1), F(-2), F(1, 3)]), max_size=5),
       st.integers(-1, 9))
@example([F(1)], F(2), [], 4)  # one-element b
@example([F(1), F(2)], F(1), [F(0), F(0), F(1)], 0)  # zeros in b, limit 0
@example([], F(1), [F(1)], -1)  # negative limit
def test_div_series_matches_naive_long_division(a, b0, rest, limit):
    b = [b0] + rest
    assert _div_series(a, b, limit) == naive_series_division(a, b, limit)
    assert len(_div_series(a, b, limit)) == max(limit + 1, 0)


class TestFieldLaws:
    def test_unit_cancellation(self):
        assert expand(SIG * RO, 4) == OmegaNumber.one()

    def test_common_denominator_sum(self):
        got = ONE / (ONE + RO) + RO / (ONE + RO)
        assert got == ONE

    def test_compare_through_expansion(self):
        assert rf_compare(ONE / (ONE - RO), ONE + RO) == 1

    def test_compare_decides_past_the_order(self):
        a = ONE / (ONE - RO)
        b = ONE + RO + (RO * RO) / (ONE - RO)
        assert a == b  # same canonical reduction
        assert rf_compare(a, b) == 0
        c = ONE + RO + RO * RO
        assert rf_compare(a, c) == 1  # a - c = o^3/(1-o); the old rule raised at order 1
        assert rf_compare(c, a) == -1

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZero):
            RationalFunction.from_polys([1], [0])

    def test_field_identities_sampled(self, rng):
        for _ in range(40):
            a, b, c = (random_rf(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            if not a.is_zero():
                assert a * a.invert() == ONE

    def test_expand_is_a_homomorphism(self, rng):
        for _ in range(30):
            a, b = random_rf(rng), random_rf(rng)
            ea, eb = expand(a, 6), expand(b, 6)
            sum_direct = expand(a + b, 6)
            prod_direct = expand(a * b, 6)
            es = ea + eb
            ep = ea * eb
            top = es.known_order if es.known_order is not None else 6
            for k in range(-6, min(top, 6) + 1):
                assert sum_direct.coefficient(k) == es.coefficient(k)
            topp = ep.known_order if ep.known_order is not None else 0
            for k in range(min(ep.valuation or 0, 0), min(topp, 6) + 1):
                if prod_direct.known_order is None or k <= prod_direct.known_order:
                    assert prod_direct.coefficient(k) == ep.coefficient(k)


class TestDensity:
    def test_between_witness(self, rng):
        # for exact S < T the truncated midpoint sits strictly between
        for _ in range(60):
            terms = {
                e: F(rng.randint(-5, 5), rng.randint(1, 3))
                for e in range(-2, 5)
                if rng.random() < 0.5
            }
            s = OmegaNumber.from_terms(terms)
            gap_exp = rng.randint(-2, 5)
            t = s + OmegaNumber.from_terms({gap_exp: F(rng.randint(1, 7), 2)})
            n = (t - s).ord()
            midpoint = (s + t) * F(1, 2)
            witness = OmegaNumber.from_terms(
                {e: c for e, c in midpoint.terms() if e <= n}
            )
            assert compare(s, witness) == -1
            assert compare(witness, t) == -1

    def test_square_cut_classification(self):
        # polynomial prefixes of the square root of 1+o land alternately
        # below and above it, decided by squaring
        target = OmegaNumber.from_terms({0: 1, 1: 1})  # 1 + o
        series = (OmegaNumber.one() + OmegaNumber.o()).pow_rational(F(1, 2), order=8)
        for k in range(7):
            prefix = OmegaNumber.from_terms(
                {e: c for e, c in series.terms() if e <= k}
            )
            side = compare(prefix * prefix, target)
            assert side == (1 if k % 2 == 1 else -1)


class TestCompletion:
    def test_polynomial_stabilizes_immediately(self):
        target = OmegaNumber.from_terms({0: 3, 1: 1})
        seq = completion_demo(target, upto=6)
        assert all(seq[i] == seq[1] for i in range(1, 7))

    def test_sqrt_truncations(self):
        series = (OmegaNumber.one() + OmegaNumber.o()).pow_rational(F(1, 2), order=4)
        seq = completion_demo(series)
        # the last truncation is the exact degree-4 prefix of the root
        assert expand(seq[-1], 8) == OmegaNumber.from_terms(
            {0: 1, 1: F(1, 2), 2: F(-1, 8), 3: F(1, 16), 4: F(-5, 128)}
        )

    def test_limit_recovers_target(self):
        target = OmegaNumber.from_terms({k: 1 for k in range(9)}, known_order=8)
        seq = completion_demo(target)
        limit = cauchy_limit((expand(r, 4) for r in seq), 4)
        assert limit == target.truncate(4)

    def test_infinite_values_rejected(self):
        with pytest.raises(NotInRo):
            completion_demo(OmegaNumber.sigma())


# ---------------------------------------------------------------------------
# The polynomial long division and the truncation loop that the kernel's
# series division and `truncate` replaced, kept as oracles
# ---------------------------------------------------------------------------


def poly_divmod_oracle(a, b):
    """Schoolbook long division: cancel the remainder's top term by a
    multiple of b until it is shorter than b."""
    q = [F(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b) and any(c != 0 for c in r):
        shift = len(r) - len(b)
        factor = r[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            r[i + shift] -= factor * c
        while r and r[-1] == 0:
            r.pop()
    return _poly(q), _poly(r)


def poly_gcd_oracle(a, b):
    while b:
        a, b = b, poly_divmod_oracle(a, b)[1]
    if a and a[-1] != 1:
        a = tuple(c / a[-1] for c in a)
    return a if a else (F(1),)


def from_polys_oracle(num, den):
    n, d = _poly(num), _poly(den)
    if n:
        g = poly_gcd_oracle(n, d)
        n, d = poly_divmod_oracle(n, g)[0], poly_divmod_oracle(d, g)[0]
    else:
        d = (F(1),)
    return tuple(c / d[-1] for c in n), tuple(c / d[-1] for c in d)


def completion_demo_oracle(target, upto):
    out = []
    for n in range(upto + 1):
        coeffs = [F(0)] * (n + 1)
        for e, c in target.terms():
            if 0 <= e <= n:
                coeffs[e] = c
        out.append(RationalFunction.from_polys(coeffs, [1]))
    return out


def poly_key(p):
    return tuple(p), [type(c) for c in p]


def small_polys(min_size=0):
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    return st.lists(coeff, min_size=min_size, max_size=5).map(_poly)


def polys_with_common_factor():
    """(a, b) = (p*g, q*g): shared factors, o-powers among them."""
    nonzero = small_polys(min_size=1).filter(bool)
    factor = st.one_of(nonzero, st.integers(1, 3).map(lambda k: _poly([0] * k + [1])))
    return st.builds(lambda p, q, g: (_poly(_mul_trunc(p, g)), _poly(_mul_trunc(q, g))),
                     small_polys(), nonzero, factor)


class TestKernelDivision:
    """Polynomial quotient, gcd and reduction go through the kernel's series
    division; each is structurally what the former long division gave."""

    @settings(max_examples=150, deadline=None)
    @given(small_polys(), small_polys(min_size=1).filter(bool))
    @example((F(1),), (F(1), F(1)))  # deg a < deg b: empty quotient
    @example((), (F(2),))  # zero dividend
    @example((F(0), F(0), F(3)), (F(0), F(1)))  # o-power divisor
    def test_quotient_and_gcd_match_long_division(self, a, b):
        assert poly_key(_poly_quo(a, b)) == poly_key(poly_divmod_oracle(a, b)[0])
        assert poly_key(_poly_gcd(a, b)) == poly_key(poly_gcd_oracle(a, b))
        assert poly_key(_poly_gcd(b, a)) == poly_key(poly_gcd_oracle(b, a))

    @settings(max_examples=150, deadline=None)
    @given(polys_with_common_factor())
    @example(((F(2), F(3), F(1)), (F(2), F(-1), F(-1))))  # shared 2 + o
    def test_from_polys_matches_long_division(self, pair):
        num, den = pair
        got = RationalFunction.from_polys(num, den)
        want = from_polys_oracle(num, den)
        assert (poly_key(got.num), poly_key(got.den)) == (poly_key(want[0]), poly_key(want[1]))

    def test_shared_factor_cancels(self):
        # (2+3o+o^2)/(2-o-o^2) = (1+o)/(1-o) after the common 2+o
        got = RationalFunction.from_polys([2, 3, 1], [2, -1, -1])
        assert (got.num, got.den) == ((F(-1), F(-1)), (F(-1), F(1)))
        assert expand(got + ONE / (ONE - RO), 3) == OmegaNumber.from_terms(
            {0: 2, 1: 3, 2: 3, 3: 3}, known_order=3)


P = 2**61 - 1  # the certificate's prime


def times(*factors):
    out = (F(1),)
    for f in factors:
        out = _poly_mul(out, _poly(f))
    return out


class TestCoprimeCertificate:
    """`_coprime_mod_p` answers "coprime" only when the gcd over Q is 1;
    `poly_gcd_oracle` is the reference, and `_poly_gcd` still matches it
    on every pair, certified or not."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.tuples(small_polys(), small_polys()), polys_with_common_factor()))
    @example((times([1, P], [2, 1]), times([1, P], [3, 1])))  # shared factor, lead P
    @example((times([1, 1], [F(1, P), 1]), times([1, 1], [2, 1])))  # denominator P
    @example(((F(1), F(P)), (F(2), F(1))))  # leading coefficient P, coprime
    @example(((F(2**62 + 3), F(2**61 + 5)), (F(7), F(2**64 + 1), F(1))))  # past 2^61
    @example(((F(0), F(0), F(1), F(2)), (F(0), F(0), F(3))))  # shared o^2
    @example(((F(2), F(3), F(1)), (F(2), F(-1), F(-1))))  # shared 2 + o
    @example(((), (F(1), F(1))))  # zero operand
    @example(((F(3),), (F(1), F(1))))  # constant operand
    @example(((), ()))
    def test_certified_pairs_have_gcd_one(self, pair):
        for a, b in (pair, pair[::-1]):
            if _coprime_mod_p(a, b):
                assert poly_gcd_oracle(a, b) == (F(1),)
            assert poly_key(_poly_gcd(a, b)) == poly_key(poly_gcd_oracle(a, b))

    @pytest.mark.parametrize("a,b,certified", [
        (times([1, P], [2, 1]), times([1, P], [3, 1]), False),  # lead vanishes mod P
        (times([1, 1], [F(1, P), 1]), times([1, 1], [2, 1]), False),  # denominator P
        ((F(1), F(P)), (F(2), F(1)), False),  # coprime, but lead vanishes mod P
        ((F(0), F(0), F(1), F(2)), (F(0), F(0), F(3)), False),  # shared o^2
        ((F(2), F(3), F(1)), (F(2), F(-1), F(-1)), False),  # shared 2 + o
        ((), (F(1), F(1)), False),  # zero operand
        ((F(2**62 + 3), F(2**61 + 5)), (F(7), F(2**64 + 1), F(1)), True),
        ((F(1, 3), F(2), F(1)), (F(1), F(0), F(-5, 7)), True),
        ((F(3),), (F(1), F(1)), True),
    ])
    def test_certificate_answers(self, a, b, certified):
        assert _coprime_mod_p(a, b) is certified
        assert poly_key(_poly_gcd(a, b)) == poly_key(poly_gcd_oracle(a, b))


def completion_targets():
    terms = st.dictionaries(st.integers(0, 6),
                            st.fractions(min_value=-5, max_value=5, max_denominator=4),
                            max_size=5)
    return st.builds(OmegaNumber.from_terms, terms, st.none() | st.integers(-1, 8))


class TestCompletionTruncates:
    @settings(max_examples=200, deadline=None)
    @given(completion_targets(), st.integers(0, 9))
    def test_matches_former_loop_within_the_known_order(self, target, upto):
        if target.known_order is not None:
            upto = min(upto, target.known_order)
        got = completion_demo(target, upto=upto)
        want = completion_demo_oracle(target, upto)
        assert [(poly_key(r.num), poly_key(r.den)) for r in got] == [
            (poly_key(r.num), poly_key(r.den)) for r in want]

    def test_default_length_follows_the_known_order(self):
        target = OmegaNumber.from_terms({0: 1, 3: F(1, 2)}, known_order=5)
        assert completion_demo(target) == completion_demo_oracle(target, 5)
        exact = OmegaNumber.from_terms({1: 2})
        assert completion_demo(exact) == completion_demo_oracle(exact, DEFAULT_ORDER)

    def test_no_truncation_past_the_known_order(self):
        # 1 + 2o + O(o^2) says nothing about o^2: no polynomial may claim it is 0
        with pytest.raises(OrderExceedsKnown):
            completion_demo(OmegaNumber.from_terms({0: 1, 1: 2}, known_order=1), upto=4)


def oracle_rf_compare(a, b, order=None):
    """rf_compare as it was: the order of the two expansions at ``order``,
    which raises when they agree through it."""
    if a == b:
        return 0
    return compare(expand(a, order), expand(b, order))


class TestExactCompare:
    """rf_compare reads the sign off P/Q; the expansion order is its oracle."""

    def test_agrees_with_the_expansion_wherever_it_decides(self, rng):
        decided = 0
        for _ in range(1000):
            a, b = random_rf(rng), random_rf(rng)
            got = rf_compare(a, b)  # never raises
            assert got == -rf_compare(b, a)
            assert (got == 0) == (a == b)
            try:
                want = oracle_rf_compare(a, b, rng.randint(0, 4))
            except IndistinguishableAtTruncation:
                continue
            decided += 1
            assert got == want
        assert decided > 500  # the oracle decides most pairs

    def test_decides_past_every_order(self):
        a = ONE / (ONE - RO)
        tail = RO ** 20
        with pytest.raises(IndistinguishableAtTruncation):
            oracle_rf_compare(a + tail, a)
        assert rf_compare(a + tail, a) == 1
        assert rf_compare(a - tail, a) == -1

    def test_negative_lowest_denominator_coefficient(self):
        # 1/(o-1): the monic denominator's lowest coefficient is -1,
        # and the value is -1 - o - ... < 0.
        x = ONE / (RO - ONE)
        assert x.den == (F(-1), F(1))
        assert rf_compare(x, RationalFunction.from_rational(0)) == -1
        assert rf_compare(-x, RationalFunction.from_rational(0)) == 1

    def test_poles_and_infinitesimals(self):
        zero = RationalFunction.from_rational(0)
        assert rf_compare(SIG, RationalFunction.from_rational(10 ** 9)) == 1
        assert rf_compare(RO, zero) == 1
        assert rf_compare(-RO / (ONE + RO), zero) == -1


# ---------------------------------------------------------------------------
# The operators as they were: multiply out, then reduce by `from_polys`.
# Kept as oracles for Henrici's gcds.
# ---------------------------------------------------------------------------


def add_oracle(a, b):
    num = _poly_add(_poly_mul(a.num, b.den), _poly_mul(b.num, a.den))
    return RationalFunction.from_polys(num, _poly_mul(a.den, b.den))


def mul_oracle(a, b):
    return RationalFunction.from_polys(_poly_mul(a.num, b.num), _poly_mul(a.den, b.den))


def invert_oracle(a):
    if a.is_zero():
        raise DivisionByZero("inverse of zero")
    return RationalFunction.from_polys(a.den, a.num)


def rf_compare_oracle(a, b):
    """rf_compare on the multiplied-out a - b, reduced by `from_polys`."""
    d = add_oracle(a, -b)
    lead = next((c for c in d.num if c), 0) / next(c for c in d.den if c)
    return (lead > 0) - (lead < 0)


def rf_key(r):
    return poly_key(r.num), poly_key(r.den)


def henrici_operands():
    """Two reduced operands whose gcds are often not 1: a common factor in
    both denominators, or one numerator sharing a factor with the other's
    denominator.  Zero and constant operands are among them."""
    nonzero = small_polys(min_size=1).filter(bool)
    factor = st.one_of(nonzero, st.integers(1, 2).map(lambda k: _poly([0] * k + [1])))

    def build(p1, q1, p2, q2, f, shared):
        if shared == "denominators":
            q1, q2 = _poly_mul(q1, f), _poly_mul(q2, f)
        elif shared == "p1 q2":
            p1, q2 = _poly_mul(p1, f), _poly_mul(q2, f)
        elif shared == "p2 q1":
            p2, q1 = _poly_mul(p2, f), _poly_mul(q1, f)
        return RationalFunction.from_polys(p1, q1), RationalFunction.from_polys(p2, q2)

    return st.builds(build, small_polys(), nonzero, small_polys(), nonzero, factor,
                     st.sampled_from(["none", "denominators", "p1 q2", "p2 q1"]))


class TestHenriciOperators:
    """`+ - * /` and `invert` on reduced operands give structurally what
    multiplying out and reducing by `from_polys` gave."""

    @settings(max_examples=200, deadline=None)
    @given(henrici_operands())
    @example((RationalFunction.from_rational(0), RationalFunction.from_rational(F(-3, 2))))
    @example((RationalFunction.from_rational(F(2, 3)), RationalFunction.from_rational(0)))
    @example((ONE / (ONE - RO), RO / (ONE - RO)))  # the sum cancels the denominator
    @example(((ONE + RO) / (ONE - RO), (ONE - RO) / (ONE + RO)))  # both cross gcds
    @example((RO / (ONE + RO), (ONE + RO) / RO))  # o-power cross gcd
    @example(((ONE + RO) / (ONE - RO * RO) * (ONE - RO) / (ONE + RO) ** 2,
              ONE / (ONE + RO) ** 2))  # equal values: a - b is zero
    def test_operators_match_the_from_polys_route(self, pair):
        a, b = pair
        assert rf_key(a + b) == rf_key(add_oracle(a, b))
        assert rf_key(a - b) == rf_key(add_oracle(a, -b))
        assert rf_key(a * b) == rf_key(mul_oracle(a, b))
        assert rf_compare(a, b) == rf_compare_oracle(a, b)
        if b.is_zero():
            for call in (b.invert, lambda: a / b):
                with pytest.raises(DivisionByZero, match="inverse of zero"):
                    call()
        else:
            assert rf_key(b.invert()) == rf_key(invert_oracle(b))
            assert rf_key(a / b) == rf_key(mul_oracle(a, invert_oracle(b)))

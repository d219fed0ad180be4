"""Nonstandard integers: successor structure, grid maps, truncature."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegacalc.aleph import (
    AlephInt,
    GridPoint,
    _sign_of_tail,
    aleph_from_omega,
    archimedean_division,
    compare_aleph,
    integer_truncature,
    odiamond,
    oplus,
    phi,
    predecessor,
    psi,
    successor,
)
from omegacalc.errors import (
    IndistinguishableAtTruncation,
    OmegaError,
    OutOfDomain,
    PredecessorOfZero,
)
from omegacalc.omega import DEFAULT_ORDER, OmegaNumber, compare, much_less

from conftest import random_omega

ZERO = AlephInt.from_int(0)
ONE = AlephInt.from_int(1)
SIGMA = AlephInt.sigma()


def random_aleph(rng, max_degree=3) -> AlephInt:
    coeffs = [rng.randint(-20, 20)]
    for _ in range(rng.randint(0, max_degree)):
        coeffs.append(F(rng.randint(-9, 9), rng.randint(1, 4)))
    return AlephInt.from_coeffs(coeffs)


class TestSuccessor:
    def test_successor_of_zero(self):
        assert successor(ZERO) == ONE

    def test_sigma_plus_one_differs(self):
        assert successor(SIGMA) != SIGMA
        assert compare_aleph(successor(SIGMA), SIGMA) == 1

    def test_predecessor_inverts(self, rng):
        for _ in range(100):
            L = random_aleph(rng)
            assert predecessor(successor(L)) == L

    def test_predecessor_of_zero(self):
        with pytest.raises(PredecessorOfZero):
            predecessor(ZERO)

    def test_zero_is_not_a_successor(self, rng):
        for _ in range(100):
            L = random_aleph(rng)
            if L.in_aleph_plus():
                assert successor(L) != ZERO

    def test_successor_injective_and_increasing(self, rng):
        seen = {}
        for _ in range(200):
            L = random_aleph(rng)
            s = successor(L)
            assert compare_aleph(s, L) == 1
            if s in seen:
                assert seen[s] == L
            seen[s] = L


class TestArithmetic:
    def test_sigma_sums_and_products(self):
        assert oplus(SIGMA, SIGMA) == AlephInt.from_coeffs([0, 2])
        assert odiamond(SIGMA, SIGMA) == AlephInt.from_coeffs([0, 0, 1])

    def test_additive_identity(self, rng):
        for _ in range(50):
            L = random_aleph(rng)
            assert oplus(L, ZERO) == L

    def test_inductive_equations_unrolled(self, rng):
        # L + S(M) = L + M + 1 and L * S(M) = L*M + L for standard M <= 50,
        # where the right-hand sides are built purely by iterated successor.
        for _ in range(20):
            L = random_aleph(rng)
            add_by_induction = L
            mul_by_induction = L  # value of L * 1
            for m in range(51):
                M = AlephInt.from_int(m)
                assert oplus(L, M) == add_by_induction
                if m >= 1:
                    assert odiamond(L, M) == mul_by_induction
                add_by_induction = successor(add_by_induction)
                if m >= 1:
                    mul_by_induction = oplus(mul_by_induction, L)

    def test_semiring_laws_sampled(self, rng):
        for _ in range(60):
            a, b, c = (random_aleph(rng) for _ in range(3))
            assert oplus(a, b) == oplus(b, a)
            assert odiamond(a, b) == odiamond(b, a)
            assert odiamond(a, oplus(b, c)) == oplus(odiamond(a, b), odiamond(a, c))

    def test_order_compatibility(self, rng):
        for _ in range(100):
            a, b, c = (random_aleph(rng) for _ in range(3))
            if compare_aleph(a, b) == -1:
                assert compare_aleph(oplus(a, c), oplus(b, c)) == -1
                if c.in_aleph_plus() and not c.is_zero():
                    assert compare_aleph(odiamond(a, c), odiamond(b, c)) == -1

    def test_infinite_elements_exceed_standard_integers(self):
        for L in (SIGMA, AlephInt.from_coeffs([-100, F(1, 2)]),
                  AlephInt.from_coeffs([0, 0, 1])):
            for n in (0, 1, 17, 10**6):
                assert compare_aleph(L, AlephInt.from_int(n)) == 1


class TestGridMaps:
    def test_phi_of_unit_interval(self):
        assert phi(GridPoint.of(1, 0)) == SIGMA

    def test_phi_of_pure_steps(self):
        assert phi(GridPoint.of(0, 7)) == AlephInt.from_int(7)

    def test_psi_example(self):
        assert psi(oplus(SIGMA, AlephInt.from_int(3))) == GridPoint.of(1, 3)

    def test_mutual_inverses(self, rng):
        for _ in range(100):
            t = F(rng.randint(0, 30), rng.randint(1, 5))
            k = rng.randint(-40, 40)
            if t == 0 and k < 0:
                k = -k
            x1 = GridPoint.of(t, k)
            assert psi(phi(x1)) == x1
        for _ in range(100):
            L = AlephInt.from_coeffs([rng.randint(0, 50), F(rng.randint(1, 9))])
            assert phi(psi(L)) == L

    def test_domain_checks(self):
        with pytest.raises(OutOfDomain):
            phi(GridPoint.of(-1, 0))
        with pytest.raises(OutOfDomain):
            psi(AlephInt.from_coeffs([0, 0, 1]))

    def test_order_transfer(self, rng):
        for _ in range(100):
            a = GridPoint.of(F(rng.randint(0, 8), 1), rng.randint(0, 30))
            b = GridPoint.of(F(rng.randint(0, 8), 1), rng.randint(0, 30))
            lhs = compare(a.to_omega(), b.to_omega())
            assert compare_aleph(phi(a), phi(b)) == lhs


class TestIntegerTruncature:
    def test_plain_floor(self):
        assert integer_truncature(OmegaNumber.from_terms({0: F(3, 2), 1: 1})) == ONE

    def test_sigma_part_kept(self):
        x = OmegaNumber.from_terms({-1: F(1, 2), 0: F(7, 3)})
        assert integer_truncature(x) == AlephInt.from_coeffs([2, F(1, 2)])

    def test_negative_tail_at_integer(self):
        x = OmegaNumber.from_terms({0: 2, 1: -1})
        assert integer_truncature(x) == ONE

    def test_bracketing_invariant(self, rng):
        for _ in range(200):
            x = random_omega(rng)
            L = integer_truncature(x)
            Lx = L.to_omega()
            assert compare(Lx, x) <= 0
            assert compare(x, Lx + OmegaNumber.one()) < 0

    def test_undecidable_fraction(self):
        x = OmegaNumber.from_terms({0: 2}, known_order=3)
        with pytest.raises(IndistinguishableAtTruncation):
            integer_truncature(x)


class TestArchimedeanDivision:
    def test_half_sigma(self):
        L = archimedean_division(OmegaNumber.from_rational(2), OmegaNumber.sigma())
        assert L == AlephInt.from_coeffs([0, F(1, 2)])

    def test_unit_divisor(self):
        b = OmegaNumber.from_terms({0: 5, 1: 1})
        assert archimedean_division(OmegaNumber.one(), b) == AlephInt.from_int(5)

    def test_infinitesimal_divisor(self):
        assert archimedean_division(OmegaNumber.o(), OmegaNumber.one()) == SIGMA

    def test_witness_inequalities(self, rng):
        zero = OmegaNumber.zero()
        checked = 0
        while checked < 120:
            a = random_omega(rng, nonzero=True)
            b = random_omega(rng, nonzero=True)
            if compare(a, zero) <= 0 or compare(b, zero) < 0:
                continue
            try:
                L = archimedean_division(a, b, order=10)
            except IndistinguishableAtTruncation:
                continue
            Lx = L.to_omega()
            assert compare(Lx * a, b) <= 0
            assert compare(b, (Lx + OmegaNumber.one()) * a) < 0
            checked += 1

    def test_much_less_pairs_have_witness(self, rng):
        # a << b: the quotient is infinite, the witness still brackets.
        for _ in range(40):
            a = OmegaNumber.from_terms({2: rng.randint(1, 5)})
            b = OmegaNumber.from_terms({0: rng.randint(1, 9)})
            assert much_less(a, b)
            L = archimedean_division(a, b, order=8)
            assert compare(L.to_omega() * a, b) <= 0
            assert compare(b, (L.to_omega() + OmegaNumber.one()) * a) < 0


def archimedean_division_oracle(a, b, order=None):
    """archimedean_division as it was: the truncature of the quotient with
    a inverted at the full order."""
    zero = OmegaNumber.zero()
    if compare(a, zero) <= 0:
        raise OutOfDomain("divisor must be strictly positive")
    if not b.is_zero() and compare(b, zero) < 0:
        raise OutOfDomain("dividend must be nonnegative")
    return integer_truncature(b * a.invert(order if order is not None else DEFAULT_ORDER))


def _outcome(divide, a, b, order):
    try:
        L = divide(a, b, order)
    except OmegaError as err:
        return type(err), str(err), getattr(err, "known_through", None)
    return L, [type(c) for c in L.value.coeffs]


def _lead_positive(x: OmegaNumber) -> OmegaNumber:
    return -x if x.coeffs and x.coeffs[0] < 0 else x


def division_cases():
    """(a, b, order) with a > 0 and b >= 0 as far as they are known:
    S-powers, inexact values and exact zeros among them, orders None and
    0-16; and integer-constant quotients n/(1 + c*o^k) whose first nonzero
    o-term lies at k."""
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=3)
    value = st.builds(lambda terms, known: _lead_positive(OmegaNumber.from_terms(terms, known)),
                      st.dictionaries(st.integers(-2, 18), coeff, max_size=5),
                      st.none() | st.integers(-2, 16))
    orders = st.none() | st.integers(0, 16)
    deep = st.builds(
        lambda k, c, n, s, known: (OmegaNumber.from_terms({0: 1, k: c}, known),
                                   OmegaNumber.from_terms({0: n, -2: s}), None),
        st.integers(1, 20), st.sampled_from([1, -1, F(1, 2)]), st.integers(0, 9),
        st.integers(0, 3), st.none() | st.integers(0, 20))
    return st.one_of(st.tuples(value, value, orders),
                     st.builds(lambda case, order: case[:2] + (order,), deep, orders))


class TestDivisionAgainstFullOrder:
    """archimedean_division reads the quotient at the least order that
    decides the floor; the quotient at the full order is its oracle."""

    @settings(max_examples=400, deadline=None)
    @given(division_cases())
    @example((OmegaNumber.from_terms({0: 1, 1: 1}), OmegaNumber.from_rational(2), None))
    @example((OmegaNumber.from_terms({0: 1, 5: 1}), OmegaNumber.from_rational(2), None))
    @example((OmegaNumber.from_terms({0: 1, 5: -1}), OmegaNumber.from_rational(2), 5))
    @example((OmegaNumber.from_terms({0: 1, 5: 1}), OmegaNumber.from_rational(2), 4))
    @example((OmegaNumber.from_terms({0: 1, 5: 1}, 5), OmegaNumber.from_rational(2), 16))
    @example((OmegaNumber.from_terms({-1: 1, 3: 1}), OmegaNumber.from_terms({-2: 1}), 0))
    @example((OmegaNumber.o(2), OmegaNumber.zero(), 0))
    @example((OmegaNumber.one(), OmegaNumber.from_terms({}, 3), 6))
    @example((OmegaNumber.from_terms({0: 1}, 5), OmegaNumber.from_rational(2), 32))  # a caps
    @example((OmegaNumber.from_terms({0: 1, 5: 1}), OmegaNumber.from_terms({0: 2}, 3), 16))  # b caps
    @example((OmegaNumber.one(), OmegaNumber.from_terms({0: 2}, 10), 16))  # monomial a
    @example((OmegaNumber.from_terms({0: 1, 9: -1}, 9), OmegaNumber.from_rational(2), 16))  # o^9 known
    # The calculus shape a = S + ..., b = k*S + ...: the constant k is an
    # integer, and the o-term decides at t1, at 2*t1 + 1, or never.
    @example((OmegaNumber.from_terms({-1: 1, 0: F(1, 3), 1: 2}),
              OmegaNumber.from_terms({-1: 5, 0: F(1, 2), 1: 1}), None))  # 5 - 7/6*o
    @example((OmegaNumber.from_terms({-1: 1, 0: F(1, 2)}),
              OmegaNumber.from_terms({-1: 3, 0: F(3, 2), 2: 1}), 8))  # 3 + o^3 - ...
    @example((OmegaNumber.from_terms({-1: 1, 0: 1}),
              OmegaNumber.from_terms({-1: 2, 0: 2, 2: -1}), 8))  # 2 - o^3 + ...
    @example((OmegaNumber.from_terms({-1: 1, 0: F(1, 2)}),
              OmegaNumber.from_terms({-1: 2, 0: 1}), 8))  # exactly 2: undecidable
    @example((OmegaNumber.from_terms({0: 1, 1: F(1, 2)}),
              OmegaNumber.from_terms({-1: 2, 0: F(1, 2)}), 4))  # 2*S - 1/2 + ...
    def test_same_value_or_same_error(self, case):
        a, b, order = case
        assert _outcome(archimedean_division, a, b, order) == _outcome(
            archimedean_division_oracle, a, b, order)

    @pytest.mark.parametrize("a,b,order,expected", [
        ({0: 1, 1: 1}, {0: 2}, None, "1"),  # first o-term at 1
        ({0: 1, 5: 1}, {0: 2}, None, "1"),  # at 5
        ({0: 1, 5: -1}, {0: 2}, None, "2"),
        ({0: 1, 8: 1}, {0: 2}, None, "1"),  # at the default order
        ({0: 1, 5: 1}, {0: 2}, 5, "1"),  # at the order
        ({0: 1, 5: 1}, {0: 2}, 4, None),  # past it
        ({0: 1, 30: 1}, {-2: 3, 0: 2}, 32, "3*S^2 + 1"),
    ])
    def test_first_o_term_at_and_past_the_order(self, a, b, order, expected):
        a, b = OmegaNumber.from_terms(a), OmegaNumber.from_terms(b)
        want = _outcome(archimedean_division_oracle, a, b, order)
        assert _outcome(archimedean_division, a, b, order) == want
        if expected is None:
            assert want[0] is IndistinguishableAtTruncation
        else:
            assert str(want[0]) == expected

    @pytest.mark.parametrize("a,b,order,inverted_at", [
        ({0: 1, 40: 1}, {0: 2}, 32, [1, 3, 32]),  # undecidable at the order
        ({0: 1, 30: 1}, {-2: 3, 0: 2}, 32, [3, 7, 32]),  # first o-term at 30
        ({0: 1, 1: 1}, {-1: 1, 0: 2}, 32, [2]),  # S + 1 - o + ...: o^1 at t1
        ({0: 1, 1: 1}, {-1: 1, 0: F(1, 2)}, 32, [2]),  # S - 1/2 + ...: at t1
        ({0: 1, 40: 1}, {-31: 1}, 32, [32]),  # t1 = t0 + 1 capped at the order
    ])
    def test_at_most_two_inversions_below_the_order(self, a, b, order, inverted_at,
                                                     monkeypatch):
        """a is inverted at t1 = t0 + 1, 2*t1 + 1 and the order, and no more:
        a late or undecidable floor costs two inversions on top of the
        former one."""
        orders, invert = [], OmegaNumber.invert

        def recording_invert(self, order=None):
            orders.append(order)
            return invert(self, order)

        monkeypatch.setattr(OmegaNumber, "invert", recording_invert)
        a, b = OmegaNumber.from_terms(a), OmegaNumber.from_terms(b)
        want = _outcome(archimedean_division_oracle, a, b, order)
        orders.clear()
        assert _outcome(archimedean_division, a, b, order) == want
        assert orders == inverted_at


class TestConversions:
    def test_aleph_from_omega_roundtrip(self, rng):
        for _ in range(50):
            L = random_aleph(rng)
            assert aleph_from_omega(L.to_omega()) == L

    def test_rejects_o_part(self):
        with pytest.raises(OutOfDomain):
            aleph_from_omega(OmegaNumber.from_terms({-1: 1, 1: 1}))

    def test_rejects_fractional_constant(self):
        with pytest.raises(OutOfDomain):
            aleph_from_omega(OmegaNumber.from_terms({0: F(1, 2)}))

    def test_membership_predicate(self):
        assert SIGMA.in_aleph_plus()
        assert AlephInt.from_coeffs([-5, 0, F(1, 3)]).in_aleph_plus()
        assert not AlephInt.from_coeffs([0, -1]).in_aleph_plus()
        assert not AlephInt.from_int(-1).in_aleph_plus()
        assert ZERO.in_aleph_plus()


# ---------------------------------------------------------------------------
# Oracles: the coefficient-row arithmetic AlephInt had before it became a
# view of one exact OmegaNumber.  A row's entry k is the S^k coefficient.
# ---------------------------------------------------------------------------


def _strip(row) -> tuple:
    row = [F(c) for c in row]
    while len(row) > 1 and row[-1] == 0:
        row.pop()
    return tuple(row) or (F(0),)


def oracle_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return _strip([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                   for k in range(n)])


def oracle_neg(a) -> tuple:
    return _strip([-c for c in a])


def oracle_mul(a, b) -> tuple:
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(out)


def oracle_compare(a, b) -> int:
    n = max(len(a), len(b))
    for k in range(n - 1, -1, -1):
        x = a[k] if k < len(a) else F(0)
        y = b[k] if k < len(b) else F(0)
        if x != y:
            return 1 if x > y else -1
    return 0


def oracle_in_aleph_plus(a) -> bool:
    return a[-1] > 0 if len(a) > 1 else a[0] >= 0


def oracle_integer_truncature(x: OmegaNumber) -> tuple:
    if x.known_order is not None and x.known_order < 0:
        raise IndistinguishableAtTruncation("constant coefficient is unknown")
    c0 = x.coefficient(0)
    if c0.denominator == 1:
        d0 = c0 + _sign_of_tail(x)
    else:
        d0 = F(c0.numerator // c0.denominator)
    coeffs = {-e: c for e, c in x.terms() if e < 0}
    n = max(coeffs) if coeffs else 0
    return _strip([d0 if k == 0 else coeffs.get(k, F(0)) for k in range(n + 1)])


def s_rows():
    """Rows of S-polynomials of degree 0 to 5; zeros, negatives and trailing
    zeros included."""
    return st.builds(
        lambda c0, rest: (F(c0), *rest),
        st.integers(-20, 20),
        st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=6), max_size=5),
    )


class TestAgainstRowOracles:
    @settings(max_examples=200)
    @given(s_rows(), s_rows())
    @example((F(0),), (F(0),))
    @example((F(3), F(0), F(-1, 2)), (F(-3), F(0), F(1, 2)))
    def test_ring_order_and_shape(self, a, b):
        L, M = AlephInt.from_coeffs(a), AlephInt.from_coeffs(b)
        ra, rb = _strip(a), _strip(b)
        assert L.coeffs == ra
        assert all(type(c) is F for c in L.coeffs)
        assert L.degree == len(ra) - 1
        assert L.in_aleph_plus() == oracle_in_aleph_plus(ra)
        assert (L + M).coeffs == oracle_add(ra, rb)
        assert (L - M).coeffs == oracle_add(ra, oracle_neg(rb))
        assert (-L).coeffs == oracle_neg(ra)
        assert (L * M).coeffs == oracle_mul(ra, rb)
        assert (L + 3).coeffs == oracle_add(ra, (F(3),))
        assert compare_aleph(L, M) == oracle_compare(ra, rb)

    @settings(max_examples=200)
    @given(
        st.dictionaries(st.integers(-3, 5),
                        st.fractions(min_value=-10, max_value=10, max_denominator=3),
                        max_size=6),
        st.none() | st.integers(-2, 6),
    )
    @example({0: F(2)}, 3)
    @example({-1: F(1, 2), 0: F(2), 2: F(-1)}, None)
    def test_integer_truncature(self, terms, known_order):
        x = OmegaNumber.from_terms(terms, known_order)
        try:
            expected = oracle_integer_truncature(x)
        except IndistinguishableAtTruncation:
            with pytest.raises(IndistinguishableAtTruncation):
                integer_truncature(x)
            return
        got = integer_truncature(x)
        assert got.coeffs == expected
        assert got.value.is_exact()


class TestValidation:
    @pytest.mark.parametrize("x,message", [
        (OmegaNumber.from_terms({0: 1}, known_order=3), "nonstandard integers are exact values"),
        (OmegaNumber.from_terms({-1: 1, 1: 1}), "value has a nonzero o-part"),
        (OmegaNumber.from_terms({0: F(1, 2)}), "constant term is not an integer"),
    ])
    def test_aleph_from_omega_messages(self, x, message):
        with pytest.raises(OutOfDomain) as err:
            aleph_from_omega(x)
        assert str(err.value) == message

    def test_fractional_constant_from_coeffs(self):
        # One validation point: the constructor raises what aleph_from_omega does.
        with pytest.raises(OutOfDomain, match="constant term is not an integer"):
            AlephInt.from_coeffs([F(1, 2)])

    def test_value_is_the_exact_omega_number(self):
        L = AlephInt.from_coeffs([3, 0, F(1, 2)])
        assert L.value == OmegaNumber.from_terms({0: 3, -2: F(1, 2)})
        assert L.to_omega() is L.value
        assert aleph_from_omega(L.value) == L

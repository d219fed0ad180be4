"""Regular functions: evaluation, derivatives, shifts, lifting."""

import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegacalc.errors import (
    DomainError,
    NonRepresentableBase,
    NotInfinitesimal,
    SeedMismatch,
    SingularDerivative,
    UnsupportedBasePoint,
)
from omegacalc.functions import (
    RegularFunction,
    _as_omega,
    builtin,
    derivative,
    lift_poly_root,
    ns_star_check,
    solve_lift,
    taylor_shift,
)
from omegacalc.omega import (
    DEFAULT_ORDER,
    OmegaNumber,
    _min_order,
    much_less,
    rational_root_power,
)

from conftest import random_omega
from test_calculus import key

O = OmegaNumber.o()
ONE = OmegaNumber.one()


def random_polynomial(rng, degree=4) -> RegularFunction:
    return RegularFunction.polynomial(
        [F(rng.randint(-10, 10)) for _ in range(degree + 1)]
    )


class TestEval:
    def test_exp_at_o(self):
        got = builtin("exp").eval(O, order=3)
        assert got == OmegaNumber.from_terms(
            {0: 1, 1: 1, 2: F(1, 2), 3: F(1, 6)}, known_order=3
        )

    def test_zero_displacement_gives_constant_coefficient(self):
        assert builtin("exp").eval(OmegaNumber.zero(), order=5).coefficient(0) == 1
        F5 = RegularFunction.polynomial([7, 3, 1])
        assert F5.eval(OmegaNumber.zero()) == OmegaNumber.from_rational(7)

    def test_square_multiplies_back(self):
        # x -> x^2 written around 1: coefficients of (1+u)^2
        sq = RegularFunction.polynomial([1, 2, 1], base_point=1)
        u = O + OmegaNumber.o(2)
        got = sq.eval(u)
        assert got == OmegaNumber.from_terms({0: 1, 1: 2, 2: 3, 3: 2, 4: 1})
        assert got == (ONE + u) * (ONE + u)

    def test_polynomial_eval_is_exact_anywhere(self):
        p = RegularFunction.polynomial([1, 2, 3])
        x = OmegaNumber.from_terms({-1: 1})  # an infinite point
        assert p.eval(x) == 3 * x * x + 2 * x + 1

    def test_infinite_stream_needs_infinitesimal(self):
        with pytest.raises(NotInfinitesimal):
            builtin("exp").eval(ONE)

    def test_linearity_and_multiplicativity(self, rng):
        for _ in range(30):
            f = random_polynomial(rng)
            g = random_polynomial(rng)
            u = random_omega(rng, min_exp=1, max_exp=4)
            assert (f + g).eval(u) == f.eval(u) + g.eval(u)
            assert (f * g).eval(u) == f.eval(u) * g.eval(u)


class TestDerivative:
    def test_exp_is_fixed_point(self):
        d = derivative(builtin("exp"), 1)
        assert all(d.coeff(n) == builtin("exp").coeff(n) for n in range(10))

    def test_monomial_rule(self):
        d = derivative(RegularFunction.monomial(3), 1)
        expected = [0, 0, 3, 0, 0]
        assert [d.coeff(n).coefficient(0) for n in range(5)] == expected

    def test_iterated_equals_higher_order(self, rng):
        for _ in range(20):
            f = random_polynomial(rng, degree=6)
            twice = derivative(derivative(f, 1), 1)
            once = derivative(f, 2)
            assert all(twice.coeff(n) == once.coeff(n) for n in range(8))

    def test_negative_order_is_a_domain_error(self):
        with pytest.raises(DomainError, match="derivative order must be nonnegative"):
            derivative(builtin("exp"), -1)

    def test_log_coefficients_via_derivative(self):
        # log'(x) at 1 is the alternating geometric series 1 - u + u^2 - ...
        d = derivative(builtin("log"), 1)
        for n in range(8):
            assert d.coeff(n).coefficient(0) == (-1) ** n


class TestBuiltins:
    def test_geometric_coefficients(self):
        g = builtin("geometric")
        assert all(g.coeff(n) == ONE for n in range(10))

    def test_pow_half_at_one_gives_generalized_binomials(self):
        p = builtin("pow", base_point=1, alpha=F(1, 2))
        expected = [F(1), F(1, 2), F(-1, 8), F(1, 16), F(-5, 128)]
        assert [p.coeff(n).coefficient(0) for n in range(5)] == expected

    def test_log_series(self):
        log = builtin("log")
        assert log.coeff(0).is_zero()
        assert [log.coeff(n).coefficient(0) for n in range(1, 5)] == [
            F(1), F(-1, 2), F(1, 3), F(-1, 4)
        ]

    def test_unsupported_base_points(self):
        with pytest.raises(UnsupportedBasePoint):
            builtin("exp", base_point=1)
        with pytest.raises(UnsupportedBasePoint, match="^unknown function 'nosuch'$"):
            builtin("nosuch")

    def test_negative_coefficient_index_is_a_domain_error(self):
        with pytest.raises(DomainError, match="coefficient index must be nonnegative"):
            builtin("exp").coeff(-1)

    def test_mixed_base_points_are_a_domain_error(self):
        with pytest.raises(DomainError, match="functions have different base points"):
            builtin("exp") + builtin("log")

    def test_sin_cos_low_terms(self):
        assert builtin("sin").eval(O, order=4) == OmegaNumber.from_terms(
            {1: 1, 3: F(-1, 6)}, known_order=4
        )
        assert builtin("cos").eval(O, order=4) == OmegaNumber.from_terms(
            {0: 1, 2: F(-1, 2), 4: F(1, 24)}, known_order=4
        )


# The closed forms `builtin` computed before every built-in became a row of
# one linear system, kept as oracles.
CLOSED_FORMS = {
    "exp": lambda n: F(1, math.factorial(n)),
    "sin": lambda n: F((-1) ** ((n - 1) // 2), math.factorial(n)) if n % 2 else F(0),
    "cos": lambda n: F((-1) ** (n // 2), math.factorial(n)) if n % 2 == 0 else F(0),
    "log": lambda n: F(0) if n == 0 else F((-1) ** (n + 1), n),
    "geometric": lambda n: F(1),
}


def closed_form_pow(t, a):
    t_alpha = rational_root_power(t, a)

    def coeff(n):
        binom = F(1)
        for i in range(n):
            binom *= (a - i) / (i + 1)
        return binom * t_alpha / t**n

    return coeff


POW_CASES = [(F(4), F(1, 2)), (F(8), F(2, 3)), (F(1), F(-1, 3)), (F(1, 4), F(3, 2)),
             (F(9), F(0)), (F(2), F(3)), (F(5), F(-2))]

# (name, base point, alpha) -> (stream name, base point, closed form)
BUILTIN_CONTRACT = [
    (("exp", None, None), ("exp", 0, CLOSED_FORMS["exp"])),
    (("sin", None, None), ("sin", 0, CLOSED_FORMS["sin"])),
    (("cos", 0, None), ("cos", 0, CLOSED_FORMS["cos"])),
    (("log", None, None), ("log", 1, CLOSED_FORMS["log"])),
    (("geometric", None, None), ("geometric", 0, CLOSED_FORMS["geometric"])),
] + [(("pow", t, a), (f"pow_{a}", t, closed_form_pow(t, a))) for t, a in POW_CASES]


class TestBuiltinContract:
    @pytest.mark.parametrize("args,expected", BUILTIN_CONTRACT,
                             ids=[f"{n}@{t}^{a}" for (n, t, a), _ in BUILTIN_CONTRACT])
    def test_coefficients_match_closed_form(self, args, expected):
        name, base_point, alpha = args
        f = builtin(name, base_point=base_point, alpha=alpha)
        stream_name, base, closed_form = expected
        assert (f.name, f.base_point, f.degree) == (stream_name, base, None)
        order = list(range(301))
        random.Random(name).shuffle(order)  # out-of-order reads continue the prefix
        for n in order:
            assert f.coeff(n) == OmegaNumber.from_rational(closed_form(n))

    @pytest.mark.parametrize("args,message", [
        (("exp", 1, None), "exp has rational coefficients only at 0"),
        (("sin", F(1, 2), None), "sin has rational coefficients only at 0"),
        (("cos", -1, None), "cos has rational coefficients only at 0"),
        (("log", 0, None), "log has rational coefficients only at 1"),
        (("geometric", 1, None), "the geometric series is taken at 0"),
        (("pow", 4, None), "pow needs an exponent"),
        (("pow", 0, F(1, 2)), "pow needs a positive base point"),
        (("pow", -4, 2), "pow needs a positive base point"),
        (("nosuch", None, None), "unknown function 'nosuch'"),
    ])
    def test_messages(self, args, message):
        name, base_point, alpha = args
        with pytest.raises(UnsupportedBasePoint, match=f"^{re.escape(message)}$"):
            builtin(name, base_point=base_point, alpha=alpha)

    def test_irrational_base_power(self):
        with pytest.raises(NonRepresentableBase):
            builtin("pow", base_point=2, alpha=F(1, 2))

    def test_cold_far_coefficient_does_not_recurse(self):
        assert builtin("exp").coeff(3000) == OmegaNumber.from_rational(
            F(1, math.factorial(3000)))


class TestTaylorShift:
    def test_zero_shift_is_identity(self):
        f = builtin("exp")
        assert taylor_shift(f, OmegaNumber.zero()) is f

    def test_shift_then_eval_equals_eval_at_sum(self):
        f = builtin("exp")
        shifted = taylor_shift(f, O, order=6)
        assert shifted.eval(O, order=6) == f.eval(O * 2, order=6)

    def test_consistency_on_random_displacements(self, rng):
        for _ in range(25):
            f = random_polynomial(rng, degree=5)
            u = random_omega(rng, min_exp=1, max_exp=3)
            v = random_omega(rng, min_exp=1, max_exp=3)
            assert taylor_shift(f, v).eval(u) == f.eval(u + v)

    def test_negative_order_keeps_the_known_s_term(self):
        # b_0 = sum_q a_q o^q with a_q = (q+1)*S + 1: only q = 0 reaches o^-1,
        # so its coefficient S is known exactly at order -1, as eval finds.
        S = OmegaNumber.sigma()
        f = RegularFunction(lambda n: S * (n + 1) + 1)
        want = OmegaNumber.from_terms({-1: 1}, known_order=-1)
        assert taylor_shift(f, O, order=-1).coeff(0) == want
        assert f.eval(O, order=-1) == want

    def test_shift_rejects_standard_offsets(self):
        with pytest.raises(NotInfinitesimal):
            taylor_shift(builtin("exp"), ONE)

    def test_sqrt_of_square_difference(self):
        # value of sqrt(25 - x^2) one step right of 3: composition through
        # the square-root stream at 16
        root = builtin("pow", base_point=16, alpha=F(1, 2))
        inner_shift = -(O * 6) - OmegaNumber.o(2)  # (25 - (3+o)^2) - 16
        got = root.eval(inner_shift, order=3)
        want = OmegaNumber.from_terms(
            {0: 4, 1: F(-3, 4), 2: F(-25, 128), 3: F(-75, 2048)}, known_order=3
        )
        assert got == want
        # back-substitution: squaring returns 16 - 6o - o^2 to the known order
        sq = got * got
        assert sq.coefficient(0) == 16
        assert sq.coefficient(1) == -6
        assert sq.coefficient(2) == -1
        assert sq.coefficient(3) == 0


class TestNsStar:
    def _pairs(self, rng, n=40):
        pairs = []
        for _ in range(n):
            x = random_omega(rng, min_exp=0, max_exp=4)
            gap = random_omega(rng, min_exp=1, max_exp=5)
            pairs.append((x, x + gap))
        return pairs

    def test_square_passes(self, rng):
        square = RegularFunction.polynomial([0, 0, 1])
        report = ns_star_check(lambda x: square.eval(x), self._pairs(rng))
        assert report.passed

    def test_identity_passes(self, rng):
        report = ns_star_check(lambda x: x, self._pairs(rng))
        assert report.passed

    def test_moment_shift_fails(self):
        def shift_down(x: OmegaNumber) -> OmegaNumber:
            return OmegaNumber.from_terms({e - 1: c for e, c in x.terms() if e >= 1})

        x1 = OmegaNumber.zero()
        x2 = OmegaNumber.o(2)
        report = ns_star_check(shift_down, [(x1, x2)])
        assert not report.passed
        assert report.first_violation == (x1, x2)


class TestSolveLift:
    def test_sqrt_series(self):
        got = solve_lift(
            RegularFunction.polynomial([0, 0, 1]), ONE + O, 1, order=4
        )
        assert got == OmegaNumber.from_terms(
            {0: 1, 1: F(1, 2), 2: F(-1, 8), 3: F(1, 16), 4: F(-5, 128)},
            known_order=4,
        )

    def test_identity_returns_target(self, rng):
        ident = RegularFunction.polynomial([0, 1])
        for _ in range(20):
            y = random_omega(rng, min_exp=0, max_exp=4)
            if y.standard_part().denominator != 1:
                continue
            got = solve_lift(ident, y, int(y.standard_part()), order=6)
            assert got.truncate(6) == y.truncate(6)

    def test_seed_and_slope_guards(self):
        square = RegularFunction.polynomial([0, 0, 1])
        with pytest.raises(SeedMismatch):
            solve_lift(square, ONE + O, 2)
        with pytest.raises(SingularDerivative):
            solve_lift(square, OmegaNumber.zero() + O - O, 0)
        with pytest.raises(NotInfinitesimal):
            solve_lift(builtin("exp"), 1, 1)

    def test_each_moment_is_forced(self, rng):
        # uniqueness: solving again from the same seed gives the same value
        for _ in range(10):
            f = random_polynomial(rng, degree=3)
            seed = rng.randint(1, 4)
            slope = derivative(f, 1).eval(OmegaNumber.from_rational(seed), order=0)
            if slope.standard_part() == 0:
                continue
            u = random_omega(rng, min_exp=1, max_exp=4)
            y = f.eval(OmegaNumber.from_rational(seed) + u, order=8)
            a = solve_lift(f, y, seed, order=8)
            b = solve_lift(f, y, seed, order=8)
            assert a == b
            assert f.eval(a, order=8).truncate(8) == y.truncate(8)

    def test_back_substitution(self, rng):
        f = RegularFunction.polynomial([1, 3, 0, 2])
        y = f.eval(ONE * 2 + O * 5, order=7)
        x = solve_lift(f, y, 2, order=7)
        assert f.eval(x, order=7).truncate(7) == y.truncate(7)


class TestLiftPolyRoot:
    def test_fluxion_equation_back_substitutes_to_zero(self):
        # z^3 + z + x*z - 2 - x^3 = 0 solved for z as a series in x (= o)
        coeffs = [
            OmegaNumber.from_terms({0: -2, 3: -1}),
            OmegaNumber.from_terms({0: 1, 1: 1}),
            OmegaNumber.zero(),
            OmegaNumber.one(),
        ]
        z = lift_poly_root(coeffs, 1, order=4)
        residual = OmegaNumber.zero()
        for i, c in enumerate(coeffs):
            residual = residual + c * z.pow_rational(i)
        assert residual.is_zero()
        assert residual.known_order >= 4
        # first corrections printed by the historical computation: the
        # slope of the series is -1/4 at the origin
        assert z.coefficient(0) == 1
        assert z.coefficient(1) == F(-1, 4)

    def test_singular_seed_rejected(self):
        with pytest.raises(SingularDerivative):
            lift_poly_root([OmegaNumber.zero(), OmegaNumber.zero(), ONE], 0)

    def test_seed_off_the_root_rejected(self):
        with pytest.raises(SeedMismatch):
            lift_poly_root([-2, 0, 1], 1)


class TestConcurrentReads:
    def test_memoized_stream_is_consistent_across_threads(self):
        import threading

        F = builtin("exp")
        results = []

        def reader():
            results.append([F.coeff(n) for n in range(40)])

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)

    def test_racing_prefix_extensions_stay_exact(self):
        # Threads that extend the cached columns at once publish whole
        # prefixes; every read must still see the exact coefficient.
        import sys
        import threading

        f = builtin("sin")
        wrong = []

        def reader(seed):
            order = list(range(200))
            random.Random(seed).shuffle(order)
            for n in order:
                if f.coeff(n) != OmegaNumber.from_rational(CLOSED_FORMS["sin"](n)):
                    wrong.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(s,), daemon=True)
                       for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestSelfReferentialStream:
    def test_coefficient_reading_earlier_coefficients_returns(self):
        # A lock held while computing would deadlock here; the thread keeps
        # a regression from hanging the suite.
        import threading

        G = RegularFunction(
            lambda n: ONE if n == 0 else G.coeff(n - 1) * F(1, n)
        )
        results = []
        worker = threading.Thread(target=lambda: results.append(G.coeff(5)),
                                  daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert results == [OmegaNumber.from_rational(F(1, 120))]


class TestDifferentiabilityWitnesses:
    def test_polynomial_witnesses_match_derivatives(self, rng):
        # The p+1 numbers H_i witnessing p-fold differentiability are the
        # scaled derivatives: remainder after subtracting them is of
        # strictly higher order than |x - x0|^p.
        p = 3
        for _ in range(20):
            f = random_polynomial(rng, degree=6)
            x0 = random_omega(rng, min_exp=1, max_exp=2)
            dx = random_omega(rng, min_exp=1, max_exp=2, nonzero=True)
            H = [
                derivative(f, i).eval(x0) * F(1, math.factorial(i))
                for i in range(p + 1)
            ]
            x = x0 + dx
            remainder = f.eval(x)
            for i in range(p + 1):
                remainder = remainder - H[i] * dx.pow_rational(i)
            power = dx.pow_rational(p)
            if remainder.is_zero():
                continue
            assert much_less(remainder, power) or remainder.ord() > power.ord()


# ---------------------------------------------------------------------------
# The exact power sum that Horner's rule replaced for polynomials, kept as
# an oracle
# ---------------------------------------------------------------------------


def exact_power_sum(c, v, top):
    """c(0) + c(1)*v + ... + c(top)*v**top, powers formed one by one."""
    total = c(0)
    v_pow = OmegaNumber.one()
    for k in range(1, top + 1):
        v_pow = v_pow * v
        if v_pow.is_zero() and v_pow.is_exact():
            break
        total = total + c(k) * v_pow
    return total


def polynomial_shift_oracle(f, v, n):
    return exact_power_sum(lambda q: f.coeff(n + q) * math.comb(n + q, q), v, f.degree - n)


def omega_values(min_exp, max_exp):
    """Exact and inexact values, S-powers included when min_exp < 0."""
    terms = st.dictionaries(st.integers(min_exp, max_exp),
                            st.fractions(min_value=-5, max_value=5, max_denominator=3),
                            max_size=4)
    return st.builds(OmegaNumber.from_terms, terms, st.none() | st.integers(min_exp, 6))


class TestHornerShift:
    """A polynomial's shifted coefficients are Horner sums; each is
    structurally the exact power sum they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(omega_values(-2, 4), min_size=1, max_size=5),
           omega_values(1, 4).filter(lambda v: not (v.is_zero() and v.is_exact())))
    @example([ONE, OmegaNumber.from_terms({0: -2}), ONE], O)  # (x - 1)^2 shifted by o
    @example([OmegaNumber.from_terms({-1: 1}), OmegaNumber.from_terms({0: 3}, known_order=1)],
             OmegaNumber.from_terms({}, known_order=2))  # inexact zero shift
    def test_matches_exact_power_sum(self, coeffs, v):
        f = RegularFunction.polynomial(coeffs)
        shifted = taylor_shift(f, v)
        for n in range(f.degree + 2):
            want = polynomial_shift_oracle(f, v, n) if n <= f.degree else OmegaNumber.zero()
            assert key(shifted.coeff(n)) == key(want)

    def test_leading_terms_cancel(self):
        # (x - o)^2 shifted by o is x^2: its lower coefficients cancel exactly
        f = RegularFunction.polynomial([OmegaNumber.o(2), -(O * 2), 1])
        shifted = taylor_shift(f, O)
        assert [shifted.coeff(n) for n in range(3)] == [OmegaNumber.zero(), OmegaNumber.zero(), ONE]


class TestEvalDefaultOrder:
    def test_exact_displacement_works_at_the_default_order(self):
        f = builtin("exp")
        got = f.eval(O)
        assert got == f.eval(O, order=DEFAULT_ORDER)
        assert got == OmegaNumber.from_terms(
            {k: F(1, math.factorial(k)) for k in range(DEFAULT_ORDER + 1)},
            known_order=DEFAULT_ORDER)

    def test_inexact_displacement_works_at_its_known_order(self):
        f = builtin("geometric")
        u = OmegaNumber.from_terms({1: 1}, known_order=3)
        assert f.eval(u) == f.eval(u, order=3) == OmegaNumber.from_terms(
            {k: 1 for k in range(4)}, known_order=3)


class TestLiftBelowTheOrder:
    """A target or function known below the working order is solved at
    that order."""

    def test_identity_returns_the_inexact_target(self):
        y = OmegaNumber.from_terms({1: F(1, 2), 2: F(1, 6), 3: F(1, 24)}, known_order=3)
        got = solve_lift(RegularFunction.polynomial([0, 1]), y, 0, order=4)
        assert got == y

    def test_exp_lift_inverts_the_target(self):
        # 1 + S*(exp(o) - 1 - o) at order 4
        y = OmegaNumber.from_terms({0: 1, 1: F(1, 2), 2: F(1, 6), 3: F(1, 24)}, known_order=3)
        got = solve_lift(builtin("exp"), y, 0, order=4)
        assert got == OmegaNumber.from_terms({1: F(1, 2), 2: F(1, 24)}, known_order=3)
        assert builtin("exp").eval(got, order=4) == y

    @pytest.mark.parametrize("n", range(2, 9))
    def test_function_known_below_the_order(self, n):
        # x + S*(exp(o) - 1) - 1 = o: the constant coefficient is known to
        # o^(n-1), and so is x = o - sum o^k/(k+1)!
        c0 = OmegaNumber.sigma() * (builtin("exp").eval(O, order=n) - 1) - 1
        f = RegularFunction.polynomial([c0, 1])
        got = solve_lift(f, O, 0, order=n)
        terms = {k: -F(1, math.factorial(k + 1)) for k in range(2, n)}
        assert key(got) == key(OmegaNumber.from_terms({1: F(1, 2), **terms}, known_order=n - 1))
        assert f.eval(got) == OmegaNumber.from_terms({1: 1}, known_order=n - 1)


# ---------------------------------------------------------------------------
# The former Taylor-shift loop, kept as an oracle: its own power sum for a
# stream, its own Horner loop for a polynomial
# ---------------------------------------------------------------------------


def oracle_taylor_shift(f, v, order=None) -> RegularFunction:
    """b_n = sum_q C(n+q, q) a_{n+q} v^q, summed term by term."""
    v = _as_omega(v)
    if not v.is_infinitesimal():
        raise NotInfinitesimal("shift must be infinitesimal")
    if v.is_zero() and v.is_exact():
        return f
    target = order if order is not None else DEFAULT_ORDER

    def coeff(n):
        def term(q):
            return f.coeff(n + q) * math.comb(n + q, q)

        if f.degree is None:
            total = term(0)
            v_pow = ONE
            for q in range(1, target + 1):
                v_pow = v_pow * v
                if v_pow.is_zero() and v_pow.is_exact():
                    break
                v_pow = v_pow.truncate(_min_order(target, v_pow.known_order))
                total = total + term(q) * v_pow
            return total.truncate(_min_order(target, total.known_order))
        total = OmegaNumber.zero()
        for q in range(f.degree - n, -1, -1):
            total = total * v + term(q)
        return total

    return RegularFunction(coeff, base_point=f.base_point, name=f"{f.name}@shift",
                           degree=f.degree)


SHIFT_STREAMS = [
    lambda: builtin("exp"), lambda: builtin("sin"), lambda: builtin("log"),
    lambda: builtin("geometric"), lambda: builtin("pow", base_point=4, alpha=F(1, 2)),
    lambda: builtin("pow", base_point=8, alpha=F(-2, 3)),
    lambda: RegularFunction(lambda n: OmegaNumber.sigma() * (n + 1) + 1),  # S-carrying
]


def outcome(read):
    """The structure of a value, or the type of the exception raised instead."""
    try:
        return key(read())
    except Exception as exc:
        return type(exc)


class TestShiftThroughEval:
    """Coefficient n of the shift is the n-th derivative's value at v over
    n!; it is structurally the former term-by-term sum."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(SHIFT_STREAMS).map(lambda make: make())
           | st.lists(omega_values(-2, 4), min_size=1, max_size=5).map(RegularFunction.polynomial),
           omega_values(1, 4), st.integers(-1, 20))
    @example(builtin("exp"), O, 20)
    @example(builtin("sin"), OmegaNumber.from_terms({1: 1, 2: 3}, known_order=2), 9)
    @example(builtin("geometric"), OmegaNumber.from_terms({}, known_order=2), 5)  # inexact zero
    @example(RegularFunction.polynomial([OmegaNumber.from_terms({-1: 1}, known_order=0), 2, 1]),
             OmegaNumber.from_terms({1: 1}, known_order=3), 6)
    def test_matches_the_former_loop(self, f, v, order):
        got, want = taylor_shift(f, v, order=order), oracle_taylor_shift(f, v, order=order)
        assert (got.degree, got.base_point) == (want.degree, want.base_point)
        for n in range(6):
            assert outcome(lambda: got.coeff(n)) == outcome(lambda: want.coeff(n))


"""Acceptance suite: one test per criterion, exact checks only.

Every expected value is either verified against an independent oracle
inside the test (grid sums, recurrences, back-substitution) or is an
exact identity.  No tolerances anywhere: all arithmetic is rational.

Run with ``pytest -v tests/test_acceptance.py`` for one line per
criterion (add ``-s`` to see the explicit PASS lines too).
"""

import math
import random
from fractions import Fraction as F

from omegacalc.aleph import (
    AlephInt,
    GridPoint,
    archimedean_division,
    compare_aleph,
    odiamond,
    oplus,
    phi,
    psi,
    successor,
)
from omegacalc.calculus import (
    D_op,
    D_to_d,
    S_op,
    a_coeff,
    a_coeff_bernoulli,
    brute_sum_iterated,
    d_to_D,
    finite_difference,
    monomial_primitive,
    solve_ode,
    x_coeff,
)
from omegacalc.errors import IndistinguishableAtTruncation
from omegacalc.functions import (
    RegularFunction,
    builtin,
    derivative,
    lift_poly_root,
    ns_star_check,
    solve_lift,
)
from omegacalc.omega import OmegaNumber, compare, much_less

from test_calculus import oracle_a
from test_cli import GOLDEN, run_cli

O = OmegaNumber.o()
ONE = OmegaNumber.one()
SIGMA = OmegaNumber.sigma()

SQRT_SERIES = {0: 1, 1: F(1, 2), 2: F(-1, 8), 3: F(1, 16), 4: F(-5, 128)}


def _passed(n: int, label: str):
    print(f"criterion {n:02d} PASS - {label}")


def test_c01_square_root_two_independent_paths():
    want = OmegaNumber.from_terms(SQRT_SERIES, known_order=4)
    via_power = (ONE + O).pow_rational(F(1, 2), order=4)
    via_lift = solve_lift(RegularFunction.polynomial([0, 0, 1]), ONE + O, 1, order=4)
    assert via_power == want
    assert via_lift == want
    _passed(1, "sqrt(1+o) series agrees exactly via powers and via lifting")


def test_c02_conversion_tables_and_inverse_composition():
    assert d_to_D(1, 4) == [F(1), F(1, 2), F(1, 6), F(1, 24)]
    assert d_to_D(2, 4) == [F(1), F(1), F(7, 12)]
    assert d_to_D(3, 4) == [F(1), F(3, 2)]
    assert D_to_d(1, 4) == [F(1), F(-1, 2), F(1, 3), F(-1, 4)]
    assert D_to_d(2, 4) == [F(1), F(-1), F(11, 12)]
    assert D_to_d(3, 4) == [F(1), F(-3, 2)]
    N = 12
    for n in range(1, N + 1):
        row = D_to_d(n, N)
        for m in range(1, N + 1):
            total = F(0)
            for p in range(n, N + 1):
                if m >= p:
                    total += row[p - n] * d_to_D(p, N)[m - p]
            assert total == (1 if n == m else 0)
    _passed(2, "printed conversion rows and 12x12 inverse composition")


def test_c03_alternating_sums_match_partition_recurrence():
    table = {(0, 0): 1}

    def oracle(n, p):
        if (n, p) in table:
            return table[n, p]
        if n == 0 or p == 0:
            value = 0
        else:
            value = p * oracle(n - 1, p) + oracle(n - 1, p - 1)
        table[n, p] = value
        return value

    for p in range(1, 13):
        for n in range(13):
            if n < p:
                assert x_coeff(p, n) == 0
            if n == p:
                assert x_coeff(p, p) == math.factorial(p)
            assert x_coeff(p, n) == math.factorial(p) * oracle(n, p)
    _passed(3, "X table: zeros below diagonal, p! on it, matches recurrence")


def test_c04_monomial_primitives_and_bernoulli_closed_form():
    printed = {
        0: {1: F(1)},
        1: {2: F(1, 2), 1: F(-1, 2)},
        2: {3: F(1, 3), 2: F(-1, 2), 1: F(1, 6)},
        3: {4: F(1, 4), 3: F(-1, 2), 2: F(1, 4)},
        4: {5: F(1, 5), 4: F(-1, 2), 3: F(1, 3), 1: F(-1, 30)},
    }
    for m, row in printed.items():
        q = monomial_primitive(m)
        for l in range(1, m + 2):
            weight = row.get(l, F(0))
            assert q.coeff(l) == OmegaNumber.from_terms({m + 1 - l: weight})
    for m in range(13):
        for l in range(1, m + 2):
            assert a_coeff(m, l) == a_coeff_bernoulli(m, l) == oracle_a(m, l)
    _passed(4, "q_0..q_4 verbatim; a(m,l) inversion == Bernoulli form, m <= 12")


def test_c05_faulhaber_grid_oracle():
    for m in range(9):
        q = monomial_primitive(m)
        p_m = RegularFunction.monomial(m)
        running = OmegaNumber.zero()
        for k in range(1, 201):
            running = running + p_m.eval(O * (k - 1)) * O
            assert q.eval(O * k) == running
    _passed(5, "q_m(k*o) equals the literal grid sum for m <= 8, k <= 200")


def test_c06_fundamental_theorem_on_random_polynomials():
    rng = random.Random(6)
    for _ in range(100):
        degree = rng.randint(0, 6)
        coeffs = [F(rng.randint(-10, 10)) for _ in range(degree + 1)]
        Fn = RegularFunction.polynomial(coeffs)
        G = S_op(Fn)
        back = D_op(G)
        for l in range(11):
            assert back.coeff(l) == Fn.coeff(l)
        assert G.coeff(0).is_zero()
        # DG = F*o on sampled grid points
        for k in (0, 1, 4):
            x = O * k
            assert finite_difference(G, x, 1) == Fn.eval(x) * O
        # S(D(H)) = H - H(0)
        H = RegularFunction.polynomial(
            [F(rng.randint(-10, 10)) for _ in range(rng.randint(1, 7))]
        )
        restored = S_op(D_op(H))
        assert restored.coeff(0).is_zero()
        for l in range(1, 11):
            assert restored.coeff(l) == H.coeff(l)
        # G' expands term by term in the antidifference weights:
        # a(0,1) = 1, |a(1,1)| = 1/2, a(2,1)/2! = 1/12 (sign pinned by the
        # grid oracle of criterion 5 through the same table)
        Gp = derivative(G, 1)
        for l in range(8):
            expected = OmegaNumber.zero()
            for m in range(7):
                expected = expected + derivative(Fn, m).coeff(l) * OmegaNumber.from_terms(
                    {m: a_coeff(m, 1) / math.factorial(m)}
                )
            assert Gp.coeff(l) == expected
    assert a_coeff(0, 1) == 1
    assert abs(a_coeff(1, 1)) == F(1, 2)
    assert a_coeff(2, 1) / 2 == F(1, 12)
    _passed(6, "D(S(F)) = F, S(D(G)) = G - G(0), derivative series, 100 samples")


def test_c07_order_axioms():
    rng = random.Random(7)

    def sample():
        terms = {}
        for e in range(-3, 6):
            if rng.random() < 0.4:
                terms[e] = F(rng.randint(-9, 9), rng.randint(1, 4))
        return OmegaNumber.from_terms(terms)

    zero = OmegaNumber.zero()
    for _ in range(1000):
        x, y, z = sample(), sample(), sample()
        signs = (compare(x, y), compare(y, x))
        assert signs in ((0, 0), (-1, 1), (1, -1))
        if compare(x, y) <= 0 and compare(y, z) <= 0:
            assert compare(x, z) <= 0
        if compare(x, y) == -1:
            assert compare(x + z, y + z) == -1
            p = sample()
            if compare(p, zero) == 1:
                assert compare(x * p, y * p) == -1
    for k in (1, 1000, 10**6):
        assert compare(O * k, ONE) == -1
        assert compare(OmegaNumber.from_rational(k), SIGMA) == -1
    assert compare(zero, O) == -1
    assert much_less(O, ONE) and much_less(ONE, SIGMA)
    assert SIGMA * O == ONE
    _passed(7, "1000-sample order axioms; 0 < o << 1 << S; S*o = 1")


def test_c08_field_inverses_and_archimedean_witnesses():
    rng = random.Random(8)
    count = 0
    while count < 500:
        terms = {}
        for e in range(-3, 6):
            if rng.random() < 0.4:
                terms[e] = F(rng.randint(-9, 9), rng.randint(1, 4))
        x = OmegaNumber.from_terms(terms)
        if x.is_zero():
            continue
        inv = x.invert(order=6)
        prod = x * inv
        assert prod.coefficient(0) == 1
        top = prod.known_order if prod.known_order is not None else 6
        assert all(prod.coefficient(k) == 0 for k in range(1, top + 1))
        count += 1

    zero = OmegaNumber.zero()
    checked = 0
    while checked < 200:
        a = OmegaNumber.from_terms(
            {rng.randint(-2, 3): F(rng.randint(1, 9), rng.randint(1, 3))}
        )
        if checked % 4 == 0:
            # force a << b
            b = a * OmegaNumber.from_terms({-rng.randint(1, 3): rng.randint(1, 5)})
        else:
            b = OmegaNumber.from_terms(
                {
                    e: F(rng.randint(0, 9), rng.randint(1, 3))
                    for e in range(-2, 4)
                    if rng.random() < 0.4
                }
            )
        if b.is_zero() or compare(b, zero) < 0:
            continue
        try:
            L = archimedean_division(a, b, order=10)
        except IndistinguishableAtTruncation:
            continue
        La = L.to_omega() * a
        assert compare(La, b) <= 0
        assert compare(b, La + a) < 0
        checked += 1
    _passed(8, "500 two-sided inverses; 200 archimedean witnesses incl. a << b")


def test_c09_peano_structure():
    rng = random.Random(9)

    def sample_aleph():
        coeffs = [rng.randint(-20, 20)]
        for _ in range(rng.randint(0, 3)):
            coeffs.append(F(rng.randint(-9, 9), rng.randint(1, 4)))
        return AlephInt.from_coeffs(coeffs)

    zero = AlephInt.from_int(0)
    seen = {}
    for _ in range(200):
        L = sample_aleph()
        s = successor(L)
        assert s != L
        assert compare_aleph(s, L) == 1
        if L.in_aleph_plus():
            assert s != zero
        if s in seen:
            assert seen[s] == L
        seen[s] = L

        # inductive defining equations, unrolled for standard M <= 50
        add_acc, mul_acc = L, L
        for m in range(51):
            assert oplus(L, AlephInt.from_int(m)) == add_acc
            if m >= 1:
                assert odiamond(L, AlephInt.from_int(m)) == mul_acc
            add_acc = successor(add_acc)
            if m >= 1:
                mul_acc = oplus(mul_acc, L)

    for _ in range(200):
        t = F(rng.randint(0, 20), rng.randint(1, 4))
        k = rng.randint(0, 60) if t == 0 else rng.randint(-60, 60)
        x1 = GridPoint.of(t, k)
        assert psi(phi(x1)) == x1
        L = AlephInt.from_coeffs([rng.randint(0, 60), F(rng.randint(1, 20))])
        assert phi(psi(L)) == L
        y1 = GridPoint.of(F(rng.randint(0, 20)), rng.randint(0, 60))
        assert compare_aleph(phi(x1), phi(y1)) == compare(x1.to_omega(), y1.to_omega())
    _passed(9, "successor/induction/grid-map identities on 200 samples")


def test_c10_order_p_systems_against_grid_sums():
    rng = random.Random(10)
    functions = [
        RegularFunction.monomial(0),
        RegularFunction.monomial(1),
        RegularFunction.monomial(3),
        RegularFunction.polynomial([F(rng.randint(-9, 9)) for _ in range(4)]),
        RegularFunction.polynomial([F(rng.randint(-9, 9)) for _ in range(3)]),
    ]
    for p in (1, 2, 3):
        for Fn in functions:
            g0 = solve_ode(Fn, p, [OmegaNumber.zero()] * p)
            for k in range(51):
                assert g0.eval(O * k) == brute_sum_iterated(Fn, k, p)
            C = [OmegaNumber.from_rational(rng.randint(-5, 5)) for _ in range(p)]
            g = solve_ode(Fn, p, C)
            for k in range(p):
                assert finite_difference(g, OmegaNumber.zero(), k) == C[k] * OmegaNumber.o(k)
            for k in (0, 2, 9):
                x = O * k
                assert finite_difference(g, x, p) == Fn.eval(x) * OmegaNumber.o(p)
    _passed(10, "order-p systems match p-fold grid sums, p <= 3, k <= 50")


def test_c11_historical_vectors_by_back_substitution():
    # hypotenuse-slice expansion at n = 5, a = 3: value of sqrt(25 - x^2)
    # one o-step right of 3, against both the closed coefficients and the
    # squared-back oracle
    root16 = builtin("pow", base_point=16, alpha=F(1, 2))
    di = root16.eval(-(O * 6) - OmegaNumber.o(2), order=3)
    n, a, e = 5, 3, 4
    want = OmegaNumber.from_terms(
        {
            0: e,
            1: -F(a, e),
            2: -F(n**2, 2 * e**3),
            3: -F(a * n**2, 2 * e**5),
        },
        known_order=3,
    )
    assert di == want
    squared = di * di
    assert squared.coefficient(0) == 16
    assert squared.coefficient(1) == -6
    assert squared.coefficient(2) == -1
    assert all(squared.coefficient(k) == 0 for k in range(3, squared.known_order + 1))

    # fluxion equation z^3 + z + x*z - 2 - x^3 = 0 (unit parameter),
    # solved as a series in x; only the residual is trusted
    coeffs = [
        OmegaNumber.from_terms({0: -2, 3: -1}),
        OmegaNumber.from_terms({0: 1, 1: 1}),
        OmegaNumber.zero(),
        ONE,
    ]
    z = lift_poly_root(coeffs, 1, order=4)
    residual = OmegaNumber.zero()
    for i, c in enumerate(coeffs):
        residual = residual + c * z.pow_rational(i)
    assert residual.is_zero()
    assert residual.known_order >= 4
    _passed(11, "slice expansion at (5,3) and fluxion residual exactly 0")


def test_c12_never_amplifying_condition():
    square = RegularFunction.polynomial([0, 0, 1])
    samples = []
    for k in range(1, 6):
        base = OmegaNumber.from_terms({0: k, 1: 1})
        samples.append((base, base + OmegaNumber.o(k)))
    samples.append((OmegaNumber.zero(), O))
    report = ns_star_check(lambda x: square.eval(x), samples)
    assert report.passed

    def moment_shift(x: OmegaNumber) -> OmegaNumber:
        return OmegaNumber.from_terms({e - 1: c for e, c in x.terms() if e >= 1})

    shifted = ns_star_check(moment_shift, [(OmegaNumber.zero(), OmegaNumber.o(2))])
    assert not shifted.passed
    assert shifted.first_violation is not None
    _passed(12, "x^2 passes, the moment-shift map fails, on canonical samples")


def test_c13_cli_transcripts_are_stable(capsys):
    assert len(GOLDEN) >= 30
    for argv, expected, code in GOLDEN:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second == (code, expected)
    messages = []
    for _ in range(2):
        got_code, _ = run_cli(["eval", "(2+3*o)^-1"])
        assert got_code == 1
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert "offset 8" in messages[0]
    _passed(13, f"{len(GOLDEN)} transcripts byte-identical; error offsets stable")

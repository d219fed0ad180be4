"""Workload ``calculus``: difference calculus, tables, AlephInt and RationalFunction.

In-process with warm tables, at orders 4, 8, 12 and 16 (the summation
tables stop at index 32, so ``integrate``/``solve_ode`` fail above 16;
that defect is probed by ``cli-oneshot``).  The kernel sees many small
values here, so per-call overhead dominates.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import ref as R
from harness import Op, interleave
from wl_series import PALETTE, warmup_ops  # noqa: F401  (series' warm-up pass serves here too)

ORDERS = (4, 8, 12, 16)
COEFFS = 5  # coefficients read from each function an op builds
INFINITE = ("exp", "sin", "cos", "geometric")

# kind -> ops per order per pass
PLAN = {
    "integrate": 4, "S_op": 2, "D_op": 3, "solve_ode": 4, "finite_difference": 4,
    "leibniz_differential": 3, "brute_sum": 2, "grid_binomial": 2, "tables": 4,
    "aleph": 6, "archimedean_division": 4, "ratfunc": 6,
}
BRUTE_STEPS = (10, 20, 30)
TABLES = ("a_coeff", "a_coeff_p", "x_coeff", "k_coeff", "bernoulli", "d_to_D", "D_to_d")
ALEPH_OPS = ("successor", "predecessor", "oplus", "odiamond", "integer_truncature", "phi", "psi")
RF_OPS = ("add", "sub", "mul", "div")


def _func(rng, i):
    """A function spec: a builtin name or (coefficients,) of a polynomial."""
    if i % 3 == 2:
        return ("poly", _coeffs(rng, 3 + i % 4))
    return (INFINITE[i % len(INFINITE)], None)


def _coeffs(rng, n):
    return tuple(rng.choice(PALETTE) for _ in range(n))


def _small(rng, lo, hi):
    return dict(zip(range(lo, hi + 1), _coeffs(rng, hi - lo + 1)))


def generate(seed: int) -> list[tuple]:
    rng = random.Random(f"calculus:{seed}")
    groups = [[_spec(rng, kind, N, i) for i in range(count)]
              for kind, count in PLAN.items() for N in ORDERS]
    return interleave(rng, groups)


def _spec(rng, kind, N, i):
    if kind in ("integrate", "S_op", "D_op"):
        return (kind, N, _func(rng, i), rng.choice(PALETTE) if kind == "integrate" else 0)
    if kind == "solve_ode":
        p = i % 3 + 1
        return (kind, N, _func(rng, i + 1), p, tuple(rng.choice(PALETTE) for _ in range(p)))
    if kind in ("finite_difference", "leibniz_differential"):
        p = i % 4 + 1
        return (kind, N, _func(rng, i), p, {1: rng.choice(PALETTE), 2: rng.choice(PALETTE)})
    if kind == "brute_sum":
        return (kind, N, _func(rng, i + 2 * (N % 3)), BRUTE_STEPS[(i + N) % 3])
    if kind == "grid_binomial":
        return (kind, N, 3 + (i + N) % 6)
    if kind == "tables":
        lookups = []
        for j in range(8):
            name = TABLES[(i + j) % len(TABLES)]
            m = rng.randint(1, 16)
            args = {"a_coeff": (m, rng.randint(1, m + 1)),
                    "a_coeff_p": (rng.randint(1, 3), m, 1 + rng.randint(0, m)),
                    "x_coeff": (rng.randint(1, 12), m), "k_coeff": (m, rng.randint(0, m)),
                    "bernoulli": (rng.randint(0, 16),), "d_to_D": (min(m, 8), 16),
                    "D_to_d": (min(m, 8), 16)}[name]
            lookups.append((name, args))
        return (kind, N, tuple(lookups))
    if kind == "aleph":
        op = ALEPH_OPS[(i + N) % len(ALEPH_OPS)]
        a = (rng.randint(1, 9), *_coeffs(rng, i % 4), 1)
        b = (rng.randint(-9, 9), *_coeffs(rng, (i + 1) % 3), 2)
        x = {**_small(rng, -2, -1), 0: Fraction(rng.randint(-20, 20), rng.choice([1, 3])),
             **_small(rng, 1, 3)}
        grid = (Fraction(rng.randint(1, 9), rng.choice([1, 2])), rng.randint(-5, 30))
        return (kind, N, op, a, b, x, grid)
    if kind == "archimedean_division":
        a = {**{i % 2 - 1: 1}, **_small(rng, i % 2, 3)}
        b = {-1: rng.randint(1, 5), **_small(rng, 0, 4), 0: Fraction(rng.randint(1, 9), 2)}
        return (kind, N, a, b)
    if kind == "ratfunc":
        n = 1 + i % 3
        return (kind, N, RF_OPS[(i + N) % 4], (_coeffs(rng, n), _coeffs(rng, 4 - n) + (1,)),
                (_coeffs(rng, 4 - n), (1,) + _coeffs(rng, n)))
    raise KeyError(kind)


class Program:
    """Shared program objects: builtin streams and polynomials are built once."""

    def __init__(self):
        import omegacalc.aleph as aleph
        import omegacalc.calculus as calculus
        import omegacalc.functions as functions
        import omegacalc.omega as omega
        import omegacalc.rational as rational
        self.aleph, self.calculus, self.functions = aleph, calculus, functions
        self.omega, self.rational = omega, rational
        self._funcs = {}

    def func(self, spec):
        if spec not in self._funcs:
            name, coeffs = spec
            fn = self.functions
            self._funcs[spec] = (fn.RegularFunction.polynomial(list(coeffs)) if name == "poly"
                                 else fn.builtin(name))
        return self._funcs[spec]

    def num(self, terms, known=None):
        return self.omega.OmegaNumber.from_terms(terms, known)


def ref_func(spec, need: int):
    """(coefficients, degree) of a function spec for the reference."""
    name, coeffs = spec
    if name == "poly":
        c = list(coeffs)
        return c + [Fraction(0)] * max(need + 1 - len(c), 0), len(coeffs) - 1
    return R.builtin_coeffs(name, need), None


def bind(specs, prog: Program, with_expect: bool = True) -> list[Op]:
    return [_bind(s, prog, with_expect) for s in specs]


def _coeffs_of(build):
    def run():
        G = build()
        return [G.coeff(l) for l in range(COEFFS)]
    return run


def _bind(spec, P: Program, with_expect: bool) -> Op:
    kind, N = spec[0], spec[1]
    ca, al = P.calculus, P.aleph
    expect = None
    need = N + COEFFS + 4
    if kind in ("integrate", "S_op"):
        F, a0 = P.func(spec[2]), spec[3]
        run = _coeffs_of((lambda: ca.integrate(F, a0, N)) if kind == "integrate"
                         else (lambda: ca.S_op(F, N)))
        if with_expect:
            c, deg = ref_func(spec[2], need)
            expect = tuple(R.integrate_coeff(c, deg, R.const(a0), N, l).canon()
                           for l in range(COEFFS))
            _check_integrate_identity(c, deg, a0, N)
    elif kind == "D_op":
        G = P.func(spec[2])
        run = _coeffs_of(lambda: ca.D_op(G, N))
        if with_expect:
            c, deg = ref_func(spec[2], need)
            expect = tuple(R.D_op_coeff(c, deg, N, l).canon() for l in range(COEFFS))
    elif kind == "solve_ode":
        F, p, C = P.func(spec[2]), spec[3], spec[4]
        run = _coeffs_of(lambda: ca.solve_ode(F, p, list(C), N))
        if with_expect:
            c, deg = ref_func(spec[2], need)
            expect = tuple(R.solve_ode_coeff(c, deg, p, [R.const(x) for x in C], N, l).canon()
                           for l in range(COEFFS))
    elif kind in ("finite_difference", "leibniz_differential"):
        F, p, x_terms = P.func(spec[2]), spec[3], spec[4]
        x = P.num(x_terms)
        run = lambda: getattr(ca, kind)(F, x, p, N)
        if with_expect:
            c, deg = ref_func(spec[2], need)
            u = R.L(x_terms)
            if kind == "finite_difference":
                total = R.L()
                for k in range(p + 1):
                    term = R.stream_eval(c, R.add(u, R.L({1: k})), N, deg)
                    total = R.add(total, R.mul(term, R.const((-1) ** (p - k) * math.comb(p, k))))
            else:
                dc = R.deriv_coeffs(c, p)
                total = R.mul(R.stream_eval(dc, u, N, None if deg is None else max(deg - p, 0)),
                              R.L({p: 1}))
            expect = total.canon()
    elif kind == "brute_sum":
        F, k = P.func(spec[2]), spec[3]
        run = lambda: ca.brute_sum(F, 0, k, N)
        if with_expect:
            c, deg = ref_func(spec[2], need)
            total = R.L()
            for n in range(k):
                total = R.add(total, R.mul(R.stream_eval(c, R.L({1: n}), N, deg), R.L({1: 1})))
            expect = total.canon()
    elif kind == "grid_binomial":
        k = spec[2]

        def run():
            B = ca.grid_binomial(k)
            return [B.coeff(i) for i in range(k + 1)]
        if with_expect:
            expect = tuple(c.canon() for c in R.grid_binomial(k))
    elif kind == "tables":
        lookups = spec[2]
        run = lambda: [getattr(ca, name)(*args) for name, args in lookups]
        if with_expect:
            expect = tuple(_table_ref(name, args) for name, args in lookups)
    elif kind == "aleph":
        op, a, b, x_terms, grid = spec[2], spec[3], spec[4], spec[5], spec[6]
        A, B = al.AlephInt.from_coeffs(a), al.AlephInt.from_coeffs(b)
        run = {"successor": lambda: al.successor(A), "predecessor": lambda: al.predecessor(A),
               "oplus": lambda: al.oplus(A, B), "odiamond": lambda: al.odiamond(A, B),
               "integer_truncature": (lambda x=P.num(x_terms): al.integer_truncature(x)),
               "phi": (lambda g=al.GridPoint.of(*grid): al.phi(g)),
               "psi": (lambda c=al.AlephInt.from_coeffs([grid[1], grid[0]]): al.psi(c))}[op]
        if with_expect:
            ra, rb = R.aleph(a), R.aleph(b)
            if op == "integer_truncature":
                got = R.floor_aleph(R.L(x_terms))
                expect = got if got == R.INDISTINGUISHABLE else ("aleph", got)
            elif op == "psi":
                expect = ("grid", Fraction(grid[0]), grid[1])
            else:
                expect = ("aleph", {"successor": lambda: R.aleph_add(ra, (1,)),
                                    "predecessor": lambda: R.aleph_add(ra, (-1,)),
                                    "oplus": lambda: R.aleph_add(ra, rb),
                                    "odiamond": lambda: R.aleph_mul(ra, rb),
                                    "phi": lambda: R.aleph([grid[1], grid[0]])}[op]())
    elif kind == "archimedean_division":
        a, b = P.num(spec[2]), P.num(spec[3])
        run = lambda: al.archimedean_division(a, b, N)
        if with_expect:
            q = R.mul(R.L(spec[3]), R.invert(R.L(spec[2]), N))
            got = R.floor_aleph(q)
            expect = got if got == R.INDISTINGUISHABLE else ("aleph", got)
    elif kind == "ratfunc":
        op, (n1, d1), (n2, d2) = spec[2], spec[3], spec[4]
        RF = P.rational.RationalFunction
        x, y = RF.from_polys(n1, d1), RF.from_polys(n2, d2)
        run = {"add": lambda: x + y, "sub": lambda: x - y, "mul": lambda: x * y,
               "div": lambda: x / y}[op]
        if with_expect:
            rx, ry = R.ratfunc(n1, d1), R.ratfunc(n2, d2)
            expect = {"add": R.rf_add, "sub": lambda p, q: R.rf_add(p, R.rf_neg(q)),
                      "mul": R.rf_mul, "div": R.rf_div}[op](rx, ry)
    else:
        raise KeyError(kind)
    return Op(kind, N, run, expect, label=repr(spec)[:120])


def _table_ref(name, args):
    value = getattr(R, name)(*args)
    return tuple(Fraction(v) for v in value) if isinstance(value, list) else Fraction(value)


def _check_integrate_identity(c, deg, a0, N):
    """G(k*o) - G(0) = brute_sum of F over k grid steps, for polynomial F."""
    if deg is None:
        return
    G = [R.integrate_coeff(c, deg, R.const(a0), N, l) for l in range(deg + 2)]
    for k in (1, 3, 7):
        lhs = R.sub(R.horner(G, R.L({1: k}), None), G[0])
        rhs = R.L()
        for n in range(k):
            rhs = R.add(rhs, R.mul(R.stream_eval(c, R.L({1: n}), N, deg), R.L({1: 1})))
        if lhs != rhs:
            raise AssertionError("reference self-check failed: G(k*o) - G(0) = brute_sum")

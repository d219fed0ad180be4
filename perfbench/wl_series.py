"""Workload ``series``: the coefficient kernel and coefficient streams.

In-process with warm caches, at orders 16, 32 and 64.  Dense exact and
truncated values with S-powers and o-powers go through mul, add/sub,
compare, invert/div, fractional and integer powers, builtin stream
evaluation, taylor_shift, solve_lift/lift_poly_root and rational.expand.

``generate(seed)`` returns plain data (the inputs); ``bind`` turns it into
ops that call the program and carry their reference outcome.  The mix of
op kinds, orders and exponents is fixed; the seed draws the coefficients.
"""

from __future__ import annotations

import math
import random
import statistics
from fractions import Fraction

import ref as R
from harness import Op, closed_loop, first_of_each, interleave

PALETTE = tuple(Fraction(n, d) for n, d in
                [(1, 1), (-1, 1), (2, 1), (-2, 1), (1, 2), (-1, 2), (3, 1), (-1, 3), (2, 3)])

# (lead, alpha) pairs whose power is rational
ROOTS = [(Fraction(4), Fraction(1, 2)), (Fraction(9), Fraction(-1, 2)),
         (Fraction(1, 4), Fraction(3, 2)), (Fraction(8), Fraction(1, 3)),
         (Fraction(27), Fraction(2, 3)), (Fraction(1), Fraction(-1, 3))]
STREAMS = [("exp", None, None), ("sin", None, None), ("cos", None, None),
           ("log", None, None), ("geometric", None, None),
           ("pow", Fraction(4), Fraction(1, 2)), ("pow", Fraction(8), Fraction(2, 3))]

# kind -> {order: ops per pass}.  The counts follow from a target share of
# the pass's op time for each (kind, order) cell, given in the comments as
# % at N=16/32/64, and from each cell's measured median op time (2-CPU
# x86_64, Python 3.11; see the README for target and measured shares).
# The ops ROADMAP items 2-3 rewrite (mul, invert/div, fractional and
# integer powers, eval, the lifts) carry about 85% of the time, most of it
# at N=32/64; the cheap kernel ops (add/sub, compare, expand) carry about
# 10% and make up most of the count.
PLAN = {
    "mul": {16: 220, 32: 67, 64: 40},            # 4 / 4 / 10
    "add": {16: 140, 32: 83, 64: 85},            # 0.5 / 0.5 / 1
    "sub": {16: 117, 32: 72, 64: 74},            # 0.5 / 0.5 / 1
    "compare": {16: 192, 32: 107, 64: 125},      # 0.5 / 0.5 / 1
    "expand": {16: 140, 32: 67, 64: 70},         # 1 / 1 / 2
    "invert": {16: 13, 32: 3, 64: 1},            # 2 / 3 / 7
    "div": {16: 7, 32: 3},                       # 1 / 2
    "pow_frac": {16: 12, 32: 4, 64: 1},          # 3 / 4 / 8
    "pow_int": {16: 3, 32: 7, 64: 9},            # 3 / 3 / 4
    "eval": {16: 25, 32: 6, 64: 1},              # 3 / 5 / 8
    "taylor_shift": {16: 8, 32: 4},              # 2 / 3
    "solve_lift": {16: 2},                       # 2
    "lift_poly_root": {16: 2, 32: 1},            # 1 / 7
}
INT_EXPONENTS = {16: [25, 50, 75, 100], 32: [6, 12], 64: [3]}


def terms(rng, lo: int, hi: int, lead=None) -> dict:
    """Dense terms lo..hi: a seeded arrangement of a fixed multiset of
    coefficients, so that every seed gives values of the same size."""
    n = hi - lo + 1
    coeffs = [PALETTE[i % len(PALETTE)] * rng.choice((1, -1)) for i in range(n)]
    rng.shuffle(coeffs)
    t = dict(zip(range(lo, hi + 1), coeffs))
    if lead is not None:
        t[lo] = Fraction(lead)
    return t


# Exponents of the sparse infinitesimals: fixed, so that an op's cost does
# not depend on the seed (which only draws the coefficients).
SPARSE_EXPONENTS = {2: (1, 3), 3: (1, 2, 4)}


def sparse_infinitesimal(rng, count: int = 2) -> dict:
    return {e: rng.choice(PALETTE) for e in SPARSE_EXPONENTS[count]}


def _value_spec(rng, N, kind):
    """(terms, known) for the operand of a kernel op."""
    v = rng.choice([0, 0, 0, -2, -1, 1]) if kind in ("mul", "add", "sub", "compare") else 0
    exact = rng.random() < 0.25
    return terms(rng, v, N, lead=rng.choice([1, 2, -1])), None if exact else N


def generate(seed: int) -> list[tuple]:
    rng = random.Random(f"series:{seed}")
    groups = [[_spec(rng, kind, N, i) for i in range(count)]
              for kind, per_order in PLAN.items() for N, count in per_order.items()]
    return interleave(rng, groups)


def _spec(rng, kind, N, i):
    if kind in ("mul", "add", "sub"):
        return (kind, N, _value_spec(rng, N, kind), _value_spec(rng, N, kind))
    if kind == "compare":
        a = _value_spec(rng, N, kind)
        b = dict(a[0])
        mode = i % 3
        if mode == 0:  # differ at a known moment
            e = rng.randint(min(b), N)
            b[e] = b.get(e, 0) + rng.choice([1, -1, Fraction(1, 2)])
            return (kind, N, a, (b, a[1]))
        if mode == 1:  # agree on every known moment: undecidable
            return (kind, N, (a[0], N), (b, N))
        return (kind, N, (a[0], None), (b, None))  # exact and equal
    if kind in ("invert", "div"):
        v = [0, -1, 1][i % 3] if kind == "invert" else 0
        return (kind, N, (terms(rng, v, N, lead=rng.choice([1, 2, -3])), N),
                _value_spec(rng, N, kind))
    if kind == "pow_frac":
        lead, alpha = ROOTS[(i + N) % len(ROOTS)]
        return (kind, N, (terms(rng, 0, N, lead=lead), N if i % 2 == 0 else None), alpha)
    if kind == "pow_int":
        if N == 16 and i == 0:
            return (kind, N, ({0: 1, 2: rng.choice(PALETTE)}, None), 100)
        exps = INT_EXPONENTS[N]
        return (kind, N, (terms(rng, 0, N, lead=1), N), exps[i % len(exps)])
    if kind == "eval":
        name, t, alpha = STREAMS[(i + N) % len(STREAMS)]
        u = terms(rng, 1, N) if i % 2 == 0 else sparse_infinitesimal(rng)
        return (kind, N, (name, t, alpha), (u, N if i % 2 == 0 else None))
    if kind == "taylor_shift":
        name = ["exp", "sin", "geometric"][i % 3]
        return (kind, N, name, sparse_infinitesimal(rng), 4)
    if kind == "solve_lift":
        w = sparse_infinitesimal(rng)
        if i % 2 == 0:
            s = rng.choice([1, 2, 3])
            return (kind, N, "square", s, w)
        return (kind, N, "exp", 0, w)
    if kind == "lift_poly_root":
        degree, s = [(2, 3), (3, 2)][i % 2]
        y = {0: Fraction(s**degree), **sparse_infinitesimal(rng, 3)}
        return (kind, N, degree, s, y)
    if kind == "expand":
        den_val = i % 3
        num = [rng.choice(PALETTE) for _ in range(rng.randint(2, 4))]
        den = [0] * den_val + [1] + [rng.choice(PALETTE) for _ in range(rng.randint(1, 3))]
        return (kind, N, num, den)
    raise KeyError(kind)


# -- binding to the program and the reference ---------------------------------------


class Program:
    """Shared program objects; builtin streams are created once (warm caches)."""

    def __init__(self):
        import omegacalc.functions as functions
        import omegacalc.omega as omega
        import omegacalc.rational as rational
        self.omega, self.functions, self.rational = omega, functions, rational
        self._streams = {}

    def num(self, spec):
        t, k = spec
        return self.omega.OmegaNumber.from_terms(t, k)

    def stream(self, name, t=None, alpha=None):
        key = (name, t, alpha)
        if key not in self._streams:
            self._streams[key] = self.functions.builtin(name, t, alpha)
        return self._streams[key]


def bind(specs, prog: Program, with_expect: bool = True) -> list[Op]:
    return [_bind(s, prog, with_expect) for s in specs]


def _bind(spec, P: Program, with_expect: bool) -> Op:
    kind, N = spec[0], spec[1]
    fn, om = P.functions, P.omega
    expect = None
    if kind in ("mul", "add", "sub", "compare", "div"):
        a, b = P.num(spec[2]), P.num(spec[3])
        run = {"mul": lambda: a * b, "add": lambda: a + b, "sub": lambda: a - b,
               "compare": lambda: om.compare(a, b), "div": lambda: a / b}[kind]
        if with_expect:
            ra, rb = R.L(*spec[2]), R.L(*spec[3])
            if kind == "compare":
                expect = R.compare(ra, rb)
                expect = expect if isinstance(expect, tuple) else Fraction(expect)
            else:
                expect = {"mul": R.mul, "add": R.add, "sub": R.sub,
                          "div": lambda x, y: R.mul(x, R.invert(y))}[kind](ra, rb).canon()
    elif kind == "invert":
        a = P.num(spec[2])
        run = lambda: a.invert(N)
        if with_expect:
            x, r = R.L(*spec[2]), R.invert(R.L(*spec[2]), N)
            _require(R.trunc(R.mul(x, r), r.k + x.v) == R.L({0: 1}, r.k + x.v), "x*inv(x) = 1")
            expect = r.canon()
    elif kind == "pow_frac":
        a, alpha = P.num(spec[2]), spec[3]
        run = lambda: a.pow_rational(alpha, N)
        if with_expect:
            x, s = R.L(*spec[2]), R.powq(R.L(*spec[2]), alpha, N)
            if alpha == Fraction(1, 2):
                _require(R.mul(s, s) == R.trunc(x, s.k), "s*s = x")
            expect = s.canon()
    elif kind == "pow_int":
        a, e = P.num(spec[2]), spec[3]
        run = lambda: a ** e
        if with_expect:
            expect = R.powi(R.L(*spec[2]), e).canon()
    elif kind == "eval":
        (name, t, alpha), u = spec[2], P.num(spec[3])
        F = P.stream(name, t, alpha)
        run = lambda: F.eval(u, N)
        if with_expect:
            ru = R.L(*spec[3])
            value = R.series_eval(name, ru, N, t, alpha)
            _require(value == R.stream_eval(R.builtin_coeffs(name, N, t, alpha), ru, N),
                     "stream evaluation term by term")
            expect = value.canon()
    elif kind == "taylor_shift":
        name, v_terms, count = spec[2], spec[3], spec[4]
        F, v = P.stream(name), om.OmegaNumber.from_terms(v_terms)

        def run():
            G = fn.taylor_shift(F, v, N)
            return [G.coeff(n) for n in range(count)]
        if with_expect:
            expect = tuple(_shift_coeff(name, R.L(v_terms), N, n).canon() for n in range(count))
    elif kind == "solve_lift":
        shape, s, w = spec[2], spec[3], spec[4]
        F = (fn.RegularFunction.polynomial([0, 0, 1]) if shape == "square" else P.stream("exp"))
        y = om.OmegaNumber.from_terms({0: s * s if shape == "square" else 1, **w})
        run = lambda: fn.solve_lift(F, y, s, N)
        if with_expect:
            ry = R.L({0: s * s if shape == "square" else 1, **w})
            if shape == "square":
                x = R.powq(ry, Fraction(1, 2), N)
                _require(R.mul(x, x) == R.trunc(ry, N), "F(solve_lift(y)) = y")
            else:
                x = R.series_eval("log", R.L(w), N)
                _require(R.series_eval("exp", x, N) == R.trunc(ry, N), "F(solve_lift(y)) = y")
            expect = x.canon()
    elif kind == "lift_poly_root":
        degree, s, y_terms = spec[2], spec[3], spec[4]
        y = om.OmegaNumber.from_terms(y_terms)
        poly = [-y] + [0] * (degree - 1) + [1]
        run = lambda: fn.lift_poly_root(poly, s, N)
        if with_expect:
            ry = R.L(y_terms)
            x = R.powq(ry, Fraction(1, degree), N)
            _require(R.powi(x, degree) == R.trunc(ry, N), "root**degree = y")
            expect = x.canon()
    elif kind == "expand":
        rf = P.rational.RationalFunction.from_polys(spec[2], spec[3])
        run = lambda: P.rational.expand(rf, N)
        if with_expect:
            num, den = R.ratfunc(spec[2], spec[3])
            e = R.expand(num, den, N)
            product = R.mul(e, R.L(dict(enumerate(den))))
            _require(product == R.L(dict(enumerate(num)), product.k), "expand(P/Q) * Q = P")
            expect = e.canon()
    else:
        raise KeyError(kind)
    return Op(kind, N, run, expect, label=repr(spec)[:120])


def _shift_coeff(name, v: R.L, N: int, n: int) -> R.L:
    a = R.builtin_coeffs(name, n + N)
    total, v_pow = R.L(), R.const(1)
    for q in range(N + 1):
        if q:
            v_pow = R.trunc(R.mul(v_pow, v), N)
        total = R.add(total, R.mul(R.const(a[n + q] * math.comb(n + q, q)), v_pow))
    return R.trunc(total, N)


def _require(condition: bool, identity: str):
    if not condition:
        raise AssertionError(f"reference self-check failed: {identity}")


def warmup_ops(ops: list[Op]) -> list[Op]:
    """The warm-up pass: one op of each (kind, order), which fills the
    streams' coefficient caches and the calculus tables."""
    return first_of_each(ops, lambda op: (op.kind, op.n))


SWEEP_REPEATS = {8: 21, 16: 11, 32: 7, 64: 5}


def order_sweep(seed: int) -> tuple[dict, bool]:
    """p50 of single kernel calls at N = 8..64, in reference microseconds:
    the ROADMAP's order-sweep rows.

    Returns the metrics and whether every result matched the reference.
    """
    P = Program()
    rng = random.Random(f"sweep:{seed}")
    exp = P.stream("exp")
    out, ok = {}, True
    half = Fraction(1, 2)
    for N, repeats in SWEEP_REPEATS.items():
        xs, ys = (terms(rng, 0, N, lead=1), N), (terms(rng, 0, N, lead=2), N)
        us = (terms(rng, 1, N), N)
        a, b, u = P.num(xs), P.num(ys), P.num(us)
        x, y, w = R.L(*xs), R.L(*ys), R.L(*us)
        cases = {
            "omega.mul": (lambda: a * b, lambda: R.mul(x, y)),
            "omega.invert": (lambda: a.invert(N), lambda: R.invert(x, N)),
            "omega.pow": (lambda: a.pow_rational(half, N), lambda: R.powq(x, half, N)),
            "functions.eval": (lambda: exp.eval(u, N), lambda: R.series_eval("exp", w, N)),
        }
        for name, (call, reference) in cases.items():
            op = Op(name, N, call, expect=reference().canon())
            loop = closed_loop([op] * repeats, float("inf"), limit=repeats, cal_interval=0)
            out[f"{name}.n{N}.p50_us"] = statistics.median(loop.latencies) * 1e6
            ok = ok and loop.failed == 0
    return out, ok

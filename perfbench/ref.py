"""Independent reference arithmetic for checking omega-calc results.

Nothing here imports ``omegacalc``.  A value is an ``L``: a map from
o-exponent to nonzero ``Fraction`` plus a known order (``None`` means
exact).  Coefficients are computed with algorithms other than the
program's (reciprocal and J.C.P. Miller recurrences, ODE recurrences
for exp/sin/cos/log, Faulhaber's formula, Stirling numbers), while the
known orders follow the program's documented truncation contract:

* ``x + y``: ``min(kx, ky)``;  ``x * y``: ``min(kx + vy, ky + vx)``;
* ``invert(x, N)``: ``min(N, kx - 2 vx)``, default 8 when both are open;
* ``x ** (p/q)`` at order N: ``min(N, kx)``, default 8;
* a coefficient stream evaluated at ``u`` with order N: ``min(N, ku)``;
* a truncating stream operator at order N (taylor_shift, integrate,
  D_op, solve_ode on infinite streams): N.

``canon`` gives the comparison key shared with the program's values:
``(valuation, coefficients, known_order)``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

DEFAULT_ORDER = 8
INDISTINGUISHABLE = ("raise", "IndistinguishableAtTruncation")


def _min(*orders):
    finite = [k for k in orders if k is not None]
    return min(finite) if finite else None


class L:
    """Truncated Laurent series in o (see module docstring)."""

    __slots__ = ("t", "k")

    def __init__(self, terms=(), known=None):
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[int, Fraction] = {}
        for e, c in items:
            if known is None or e <= known:
                acc[e] = acc.get(e, 0) + Fraction(c)
        self.t = {e: c for e, c in acc.items() if c}
        self.k = known

    @property
    def v(self):
        return min(self.t) if self.t else None

    def c(self, e) -> Fraction:
        return self.t.get(e, Fraction(0))

    def canon(self):
        if not self.t:
            return (None, (), self.k)
        lo, hi = min(self.t), max(self.t)
        return (lo, tuple(self.c(e) for e in range(lo, hi + 1)), self.k)

    def __eq__(self, other):
        return isinstance(other, L) and self.canon() == other.canon()

    def __repr__(self):
        return f"L({render(self)!r})"


def const(q) -> L:
    return L({0: q})


def add(a: L, b: L) -> L:
    terms = dict(a.t)
    for e, c in b.t.items():
        terms[e] = terms.get(e, 0) + c
    return L(terms, _min(a.k, b.k))


def neg(a: L) -> L:
    return L({e: -c for e, c in a.t.items()}, a.k)


def sub(a: L, b: L) -> L:
    return add(a, neg(b))


def mul(a: L, b: L) -> L:
    if (not a.t and a.k is None) or (not b.t and b.k is None):
        return L()
    if not a.t or not b.t:
        def eff(x):
            return x.v if x.t else x.k + 1
        return L({}, eff(a) + eff(b) - 1)
    k = _min(None if a.k is None else a.k + b.v, None if b.k is None else b.k + a.v)
    out: dict[int, Fraction] = {}
    for e1, c1 in a.t.items():
        for e2, c2 in b.t.items():
            e = e1 + e2
            if k is None or e <= k:
                out[e] = out.get(e, 0) + c1 * c2
    return L(out, k)


def trunc(a: L, order: int) -> L:
    if a.k is not None and order > a.k:
        raise ValueError("cannot truncate beyond the known order")
    return L(a.t, order)


def _dense(a: L, lo: int, n: int) -> list[Fraction]:
    return [a.c(lo + i) for i in range(n + 1)]


def _recip(u: list[Fraction]) -> list[Fraction]:
    """Coefficients of 1/(1+u) from u[1..n] (u[0] ignored)."""
    b = [Fraction(1)]
    for n in range(1, len(u)):
        b.append(-sum(u[j] * b[n - j] for j in range(1, n + 1)))
    return b


def invert(a: L, order=None) -> L:
    v = a.v
    if v is None:
        raise ZeroDivisionError("inverse of a zero value")
    a0 = a.t[v]
    propagated = None if a.k is None else a.k - 2 * v
    if len(a.t) == 1 and a.k is None:
        return L({-v: 1 / a0})
    target = _min(order, propagated)
    if target is None:
        target = DEFAULT_ORDER
    rel = target + v
    u = [c / a0 for c in _dense(a, v, rel)]
    b = _recip(u)
    return L({n - v: b[n] / a0 for n in range(rel + 1)}, target)


def _int_root(n: int, q: int) -> int:
    if n < 2:
        return n
    r = int(round(n ** (1.0 / q)))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**q == n:
            return cand
    raise ValueError(f"{n} is not a perfect {q}-th power")


def rational_power(t: Fraction, alpha: Fraction) -> Fraction:
    t, alpha = Fraction(t), Fraction(alpha)
    q = alpha.denominator
    root = Fraction(_int_root(t.numerator, q), _int_root(t.denominator, q))
    return root**alpha.numerator


def _miller(u: list[Fraction], alpha: Fraction) -> list[Fraction]:
    """Coefficients of (1+u)^alpha (J.C.P. Miller's recurrence)."""
    c = [Fraction(1)]
    for n in range(1, len(u)):
        c.append(sum(((alpha + 1) * j - n) * u[j] * c[n - j] for j in range(1, n + 1)) / n)
    return c


def powq(a: L, alpha, order=None) -> L:
    """a ** alpha for a fractional alpha (valuation 0, positive lead)."""
    alpha = Fraction(alpha)
    t0 = a.t[0]
    target = _min(order, a.k)
    if target is None:
        target = DEFAULT_ORDER
    u = [c / t0 for c in _dense(a, 0, target)]
    c = _miller(u, alpha)
    scale = rational_power(t0, alpha)
    return L({n: scale * c[n] for n in range(target + 1)}, target)


def powi(a: L, n: int, order=None) -> L:
    if n == 0:
        return const(1)
    base = a if n > 0 else invert(a, order)
    result, n = const(1), abs(n)
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def compare(a: L, b: L):
    d = sub(a, b)
    if d.t:
        return 1 if d.t[d.v] > 0 else -1
    if d.k is None:
        return 0
    return INDISTINGUISHABLE


# -- coefficient streams ------------------------------------------------------


def series_eval(name: str, u: L, order: int, t=None, alpha=None) -> L:
    """A named function at base point + u (u infinitesimal), to ``order``."""
    K = _min(order, u.k)
    ud = _dense(u, 0, K)
    if name == "exp":
        e = [Fraction(1)]
        for n in range(1, K + 1):
            e.append(sum(j * ud[j] * e[n - j] for j in range(1, n + 1)) / n)
        out = e
    elif name in ("sin", "cos"):
        s, c = [Fraction(0)], [Fraction(1)]
        for n in range(1, K + 1):
            s.append(sum(j * ud[j] * c[n - j] for j in range(1, n + 1)) / n)
            c.append(-sum(j * ud[j] * s[n - j] for j in range(1, n + 1)) / n)
        out = s if name == "sin" else c
    elif name == "log":
        lg = [Fraction(0)]
        for n in range(1, K + 1):
            lg.append(ud[n] - sum((j * lg[j] * ud[n - j] for j in range(1, n)), Fraction(0)) / n)
        out = lg
    elif name == "geometric":
        out = _recip([-c for c in ud])
    elif name == "pow":
        t, alpha = Fraction(t), Fraction(alpha)
        scale = rational_power(t, alpha)
        out = [scale * c for c in _miller([c / t for c in ud], alpha)]
    else:
        raise KeyError(name)
    return L(dict(enumerate(out)), K)


def builtin_coeffs(name: str, n: int, t=None, alpha=None) -> list[Fraction]:
    """First n+1 Taylor coefficients of a named function at its base point."""
    if name == "exp":
        return [Fraction(1, math.factorial(k)) for k in range(n + 1)]
    if name == "sin":
        return [Fraction((-1) ** (k // 2), math.factorial(k)) if k % 2 else Fraction(0)
                for k in range(n + 1)]
    if name == "cos":
        return [Fraction((-1) ** (k // 2), math.factorial(k)) if k % 2 == 0 else Fraction(0)
                for k in range(n + 1)]
    if name == "log":
        return [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, n + 1)]
    if name == "geometric":
        return [Fraction(1)] * (n + 1)
    if name == "pow":
        t, alpha = Fraction(t), Fraction(alpha)
        scale = rational_power(t, alpha)
        out, binom = [], Fraction(1)
        for k in range(n + 1):
            out.append(binom * scale / t**k)
            binom = binom * (alpha - k) / (k + 1)
        return out
    raise KeyError(name)


def horner(coeffs: list[L], u: L, K) -> L:
    """sum_k coeffs[k] * u^k, every partial result truncated at K (None: exact)."""
    total = L()
    for c in reversed(coeffs):
        total = add(mul(total, u), c)
        if K is not None:
            total = trunc(total, _min(K, total.k))
    return total


def stream_eval(coeffs: list[Fraction], u: L, order, degree=None) -> L:
    """Evaluate an exact coefficient stream at u: exactly for a polynomial
    (``degree`` given), otherwise truncated at min(order, ku)."""
    if degree is not None:
        return horner([const(c) for c in coeffs[: degree + 1]], u, None)
    K = _min(order, u.k)
    return horner([const(c) for c in coeffs[: K + 1]], u, K)


def deriv_coeffs(coeffs: list[Fraction], q: int) -> list[Fraction]:
    return [coeffs[n + q] * math.prod(range(n + 1, n + q + 1))
            for n in range(len(coeffs) - q)]


# -- calculus tables ------------------------------------------------------------


_BERN = [Fraction(1)]


def bernoulli(p: int) -> Fraction:
    """B_p with B_1 = -1/2 (Akiyama-Tanigawa, then the sign of B_1 flipped)."""
    while len(_BERN) <= p:
        m = len(_BERN)
        a = [Fraction(1, j + 1) for j in range(m + 1)]
        for i in range(m, 0, -1):
            for j in range(i):
                a[j] = (j + 1) * (a[j] - a[j + 1])
        _BERN.append(-a[0] if m == 1 else a[0])
    return _BERN[p]


def a_coeff(m: int, l: int) -> Fraction:
    """Faulhaber: sum_{n<k} (n o)^m o = sum_l a(m, l) x^l o^(m+1-l), x = k o."""
    j = m + 1 - l
    return math.comb(m + 1, j) * bernoulli(j) / (m + 1)


def antidiff(poly: list[Fraction], p: int = 1) -> list[Fraction]:
    """p-fold step-o antidifference (o-weights dropped) of sum poly[m] x^m."""
    for _ in range(p):
        out = [Fraction(0)] * (len(poly) + 1)
        for m, c in enumerate(poly):
            if c:
                for l in range(1, m + 2):
                    out[l] += c * a_coeff(m, l)
        poly = out
    return poly


_APCACHE: dict = {}


def a_coeff_p(p: int, m: int, l: int) -> Fraction:
    key = (p, m)
    if key not in _APCACHE:
        _APCACHE[key] = antidiff([Fraction(0)] * m + [Fraction(1)], p)
    return _APCACHE[key][l]


def _stirling2(n: int, k: int) -> int:
    row = [1] + [0] * k
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


def x_coeff(p: int, n: int) -> int:
    """X_p^n = p! * S2(n, p)."""
    return math.factorial(p) * _stirling2(n, p)


def _stirling1(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind."""
    row = [1]
    for i in range(n):
        row = [(i * (row[j] if j < len(row) else 0)) + (row[j - 1] if j >= 1 else 0)
               for j in range(len(row) + 1)]
    return row[k] if k < len(row) else 0


def k_coeff(top: int, size: int) -> int:
    """e_size(1..top) = c(top+1, top+1-size)."""
    if size > top:
        return 0
    return _stirling1(top + 1, top + 1 - size)


def d_to_D(p: int, n_max: int) -> list[Fraction]:
    return [Fraction(x_coeff(p, n), math.factorial(n)) for n in range(p, n_max + 1)]


def D_to_d(n: int, p_max: int) -> list[Fraction]:
    return [Fraction((-1) ** (p - n) * k_coeff(p - 1, p - n) * math.factorial(n),
                     math.factorial(p)) for p in range(n, p_max + 1)]


def grid_binomial(k: int) -> list[L]:
    """Coefficients of x(x-o)...(x-(k-1)o)/k! as a polynomial in x."""
    poly = [const(1)]
    for j in range(k):
        shifted = [L() for _ in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            shifted[i + 1] = add(shifted[i + 1], c)
            shifted[i] = add(shifted[i], mul(c, L({1: -j})))
        poly = shifted
    inv = const(Fraction(1, math.factorial(k)))
    return [mul(c, inv) for c in poly]


def integrate_coeff(F: list[Fraction], degree, a0: L, order: int, l: int) -> L:
    if l == 0:
        return a0
    m_top = degree if degree is not None else l - 1 + order
    total = L({m + 1 - l: F[m] * a_coeff(m, l) for m in range(l - 1, m_top + 1)})
    return total if degree is not None else trunc(total, order)


def D_op_coeff(G: list[Fraction], degree, order: int, l: int) -> L:
    q_top = degree - l if degree is not None else order + 1
    total = L({q - 1: G[l + q] * math.comb(l + q, q) for q in range(1, q_top + 1)})
    return total if degree is not None else trunc(total, order)


def solve_ode_coeff(F, degree, p: int, C: list[L], order: int, l: int) -> L:
    if l == 0:
        sp = L()
    else:
        m_top = degree if degree is not None else l - p + order
        sp = L({m + p - l: F[m] * a_coeff_p(p, m, l) for m in range(max(l - p, 0), m_top + 1)})
        if degree is None:
            sp = trunc(sp, order)
    combo = C[0] if l == 0 else L()
    for k in range(1, p):
        gb = grid_binomial(k)
        if l < len(gb):
            combo = add(combo, mul(gb[l], C[k]))
    return add(sp, combo)


# -- nonstandard integers and rational functions ---------------------------------


def aleph(coeffs) -> tuple:
    out = [Fraction(c) for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out or [Fraction(0)])


def aleph_add(a, b) -> tuple:
    n = max(len(a), len(b))
    return aleph([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def aleph_mul(a, b) -> tuple:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return aleph(out)


def floor_aleph(x: L):
    """Greatest nonstandard integer <= x, or INDISTINGUISHABLE."""
    c0 = x.c(0)
    if c0.denominator == 1:
        tail = [c for e, c in sorted(x.t.items()) if e >= 1]
        if tail:
            c0 = c0 - (1 if tail[0] < 0 else 0)
        elif x.k is not None:
            return INDISTINGUISHABLE
    else:
        c0 = Fraction(math.floor(c0))
    top = max([-e for e in x.t if e < 0], default=0)
    return aleph([c0] + [x.c(-k) for k in range(1, top + 1)])


def _ptrim(p):
    p = [Fraction(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def padd(a, b):
    n = max(len(a), len(b))
    return _ptrim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _pdivmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        f = a[-1] / b[-1]
        s = len(a) - len(b)
        q[s] = f
        for i, c in enumerate(b):
            a[i + s] -= f * c
        a = _ptrim(a)
    return _ptrim(q), a


def ratfunc(num, den) -> tuple:
    """Canonical (num, den): coprime, denominator monic, zero as (() , (1,))."""
    num, den = _ptrim(num), _ptrim(den)
    if not num:
        return ((), (Fraction(1),))
    g, r = den, num
    while r:
        g, r = r, _pdivmod(g, r)[1]
    num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
    lead = den[-1]
    return (tuple(c / lead for c in num), tuple(c / lead for c in den))


def rf_add(a, b):
    return ratfunc(padd(pmul(a[0], b[1]), pmul(b[0], a[1])), pmul(a[1], b[1]))


def rf_mul(a, b):
    return ratfunc(pmul(a[0], b[0]), pmul(a[1], b[1]))


def rf_neg(a):
    return (tuple(-c for c in a[0]), a[1])


def rf_div(a, b):
    return ratfunc(pmul(a[0], b[1]), pmul(a[1], b[0]))


def expand(num, den, order=None) -> L:
    """Laurent expansion of num(o)/den(o): exact when the division ends."""
    target = DEFAULT_ORDER if order is None else order
    num, den = _ptrim(num), _ptrim(den)
    if not num:
        return L()
    dv = next(i for i, c in enumerate(den) if c)
    den = den[dv:]
    steps = target + dv
    rem = list(num) + [Fraction(0)] * (steps + len(den) + 1)
    series = {}
    for j in range(steps + 1):
        c = rem[j] / den[0]
        if c:
            series[j - dv] = c
            for i, d in enumerate(den):
                rem[j + i] -= c * d
        if not any(rem):
            return L(series)
    return L(series, target)


# -- canonical rendering (the CLI output format) ----------------------------------


def _symbol(e: int):
    if e == 0:
        return None
    if e == 1:
        return "o"
    if e > 1:
        return f"o^{e}"
    return "S" if e == -1 else f"S^{-e}"


def render(x: L, moment=None) -> str:
    pieces = []
    for e in sorted(x.t):
        c = x.t[e]
        sym, mag = _symbol(e), abs(c)
        body = str(mag) if sym is None else (sym if mag == 1 else f"{mag}*{sym}")
        pieces.append((c > 0, body))
    if moment is not None:
        pos, sign = moment
        sym = _symbol(pos)
        pieces.append((sign > 0, "inf" if sym is None else f"inf*{sym}"))
    if not pieces:
        return "0" if x.k is None else f"O(o^{x.k + 1})"
    out = []
    for i, (positive, body) in enumerate(pieces):
        if i == 0:
            out.append(body if positive else f"-{body}")
        else:
            out.append(f" + {body}" if positive else f" - {body}")
    if moment is None and x.k is not None:
        out.append(f" + O(o^{x.k + 1})")
    return "".join(out)


def json_dict(x: L) -> dict:
    v, coeffs, k = x.canon()
    return {"valuation": v, "coefficients": [[c.numerator, c.denominator] for c in coeffs],
            "known_order": k, "infinite_moment": None}


def render_value(x: L, fmt: str) -> str:
    return json.dumps(json_dict(x)) if fmt == "json" else render(x)


def render_function(coeffs: list[L], base_point, degree, fmt: str) -> str:
    if fmt == "json":
        b = Fraction(base_point)
        return json.dumps({"base_point": [b.numerator, b.denominator], "degree": degree,
                           "coefficients": [json_dict(c) for c in coeffs]})
    return "\n".join(f"a_{n} = {render(c)}" for n, c in enumerate(coeffs))


def aligned(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
                     for row in rows)


def table_text(name: str, M: int, p: int = 1) -> str:
    cols = [str(n) for n in range(1, M + 1)]
    if name == "bernoulli":
        return aligned([["p", "B_p"]] + [[str(i), str(bernoulli(i))] for i in range(M + 1)])
    if name == "dtoD":
        return aligned([["p\\n"] + cols] + [
            [str(q)] + ["0"] * (q - 1) + [str(c) for c in d_to_D(q, M)] for q in range(1, M + 1)])
    if name == "Dtod":
        return aligned([["n\\p"] + cols] + [
            [str(n)] + ["0"] * (n - 1) + [str(c) for c in D_to_d(n, M)] for n in range(1, M + 1)])
    if name == "X":
        return aligned([["p\\n"] + cols] + [
            [str(q)] + [str(x_coeff(q, n)) for n in range(1, M + 1)] for q in range(1, M + 1)])
    if name == "K":
        return aligned([["p\\n"] + cols] + [
            [str(q)] + [str(k_coeff(q - 1, q - n)) if n <= q else "." for n in range(1, M + 1)]
            for q in range(1, M + 1)])
    if name == "a":
        return aligned([["m\\l"] + [str(l) for l in range(1, M + 2)]] + [
            [str(m)] + [str(a_coeff(m, l)) if l <= m + 1 else "." for l in range(1, M + 2)]
            for m in range(M + 1)])
    if name == "ap":
        return aligned([["m\\l"] + [str(l) for l in range(1, M + p + 1)]] + [
            [str(m)] + [str(a_coeff_p(p, m, l)) if l <= m + p else "." for l in range(1, M + p + 1)]
            for m in range(M + 1)])
    raise KeyError(name)

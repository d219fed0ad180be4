"""Workload ``cli-oneshot``: one fresh ``python -m omegacalc.cli`` per request.

The same code path as the ``omega-calc`` script, with every cache cold:
interpreter start, import, argparse, parse, evaluate and format.  The
corpus is the frozen GOLDEN/ERROR_GOLDEN transcripts plus seeded
requests over all 11 commands (plain and json, orders <= 32; ``sum``,
``ode`` and ``table a`` at orders <= 16) whose expected bytes come from
the reference in ``ref.py``.

The terminating defect repros (``_known_defects``) are run after the
measurement, once per run, against their correct output.  They are not
timed ops because the benchmark's workloads must be ones on which no
operation fails; their outcome is reported on its own.  Two more defects
are left out because they never return and so cannot be timed:
``eval "(1+o)^1000000000"`` and a self-referential coefficient stream.
"""

from __future__ import annotations

import json
import math
import os
import random
from collections import Counter
from fractions import Fraction

import cli_golden
import harness as H
import ref as R
from harness import Op
from wl_calculus import ref_func

HERE = H.ROOT / "perfbench"
TRACE_DIR = H.BUILD / "trace"
STREAM_NAMES = ("exp", "sin", "cos", "log", "geometric")


def _text(terms) -> str:
    return R.render(R.L(terms))


def _ftext(spec) -> str:
    name, coeffs = spec
    if name != "poly":
        return name
    return "poly[" + ", ".join(str(c) for c in coeffs) + "]"


def _poly(rng, lo, hi, lead=None):
    """Exact terms lo..hi with a positive lowest term (so no argument starts with '-')."""
    choices = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 3), 3]
    t = {e: rng.choice(choices) for e in range(lo, hi + 1)}
    t[lo] = Fraction(lead) if lead is not None else abs(t[lo])
    return t


# Orders, formats and sizes follow the request index, so that every seed
# gives the same mix of costs; the seed draws the coefficients.
def _order(i, top=32):
    orders = [n for n in (4, 8, 12, 16, 24, 32) if n <= top]
    return orders[i % len(orders)]


def _fmt(i):
    return "json" if i % 3 == 2 else "plain"


def _value_out(x: R.L, fmt: str) -> str:
    return R.render_value(x, fmt) + "\n"


def _func_out(coeffs, degree, fmt, base=0) -> str:
    return R.render_function(coeffs, base, degree, fmt) + "\n"


def _eval_request(rng, i, N):
    """(expression, expected value) for an eval line at order N."""
    kind = i % 3
    if kind == 0:
        lead, alpha = [(4, "1/2"), (9, "-1/2"), (8, "1/3"), (1, "3/2")][i // 3 % 4]
        p = _poly(rng, 0, 2 + i % 3, lead)
        return f"({_text(p)})^({alpha})", R.powq(R.L(p), Fraction(alpha), N)
    if kind == 1:
        p, q = _poly(rng, i % 2 - 1, 3), _poly(rng, 0, 3, rng.choice([1, 2, -3]))
        return f"({_text(p)})/({_text(q)})", R.mul(R.L(p), R.invert(R.L(q), N))
    name = STREAM_NAMES[i // 3 % len(STREAM_NAMES)]
    u = _poly(rng, 1, 2 + i % 2)
    arg = f"1 + {_text(u)}" if name == "log" else _text(u)
    return f"{name}({arg})", R.series_eval(name, R.L(u), N)


def generate(seed: int) -> list[tuple]:
    """Requests: (label, argv, stdin, stdout, exit code, stderr or None)."""
    rng = random.Random(f"cli:{seed}")
    specs = [("golden", list(argv), None, out, code, None) for argv, out, code in cli_golden.GOLDEN]
    specs += [("error", list(argv), None, "", code, err)
              for argv, err, code in cli_golden.ERROR_GOLDEN]
    for maker in SEEDED:
        specs += maker(rng)
    groups: dict[str, list] = {}
    for spec in specs:
        groups.setdefault(spec[1][0], []).append(spec)
    return H.interleave(rng, list(groups.values()))


def _evals(rng):
    out = []
    for i in range(12):
        N, fmt = _order(i), _fmt(i)
        expr, value = _eval_request(rng, i, N)
        out.append(("eval", ["eval", expr, "--order", str(N), "--format", fmt], None,
                    _value_out(value, fmt), 0, None))
    return out


def _stdin_batches(rng):
    out = []
    for j in range(2):
        lines, expected = [], []
        N = _order(j + 2, 16)
        for i in range(4):
            expr, value = _eval_request(rng, i, N)
            lines.append(expr)
            expected.append(R.render(value))
        out.append(("eval-", ["eval", "-", "--order", str(N)], "\n".join(lines) + "\n",
                    "\n".join(expected) + "\n", 0, None))
    return out


def _cmps(rng):
    out = []
    for i in range(3):
        a = _poly(rng, -1, 3)
        b = dict(a)
        e = rng.randint(0, 3)
        b[e] = b.get(e, 0) + [1, -1, 0][i]
        word = {-1: "Less", 0: "Equal", 1: "Greater"}[R.compare(R.L(a), R.L(b))]
        out.append(("cmp", ["cmp", _text(a), _text(b)], None, word + "\n", 0, None))
    return out


def _tables(rng):
    out = []
    for name in ("bernoulli", "dtoD", "Dtod", "X", "K", "a", "ap"):
        M = {"bernoulli": 16, "a": 12, "ap": 10}.get(name, 8)
        p = 2
        argv = ["table", name, "--max", str(M)] + (["--p", str(p)] if name == "ap" else [])
        out.append(("table", argv, None, R.table_text(name, M, p) + "\n", 0, None))
    return out


def _func_spec(rng, i):
    if i % 2:
        return ("poly", tuple(rng.choice([1, -1, 2, Fraction(1, 2), 3]) for _ in range(2 + i % 4)))
    return (("exp", "sin", "cos", "geometric")[i // 2 % 4], None)


def _diffs(rng):
    out = []
    for i in range(4):
        F, p, N, fmt = _func_spec(rng, i), 1 + i % 4, _order(i, 24), _fmt(i)
        at = {1: rng.choice([1, 2, 3])}
        c, deg = ref_func(F, N + p + 8)
        leibniz = i >= 2
        if leibniz:
            value = R.mul(R.stream_eval(R.deriv_coeffs(c, p), R.L(at), N,
                                        None if deg is None else max(deg - p, 0)), R.L({p: 1}))
        else:
            value = R.L()
            for k in range(p + 1):
                term = R.stream_eval(c, R.add(R.L(at), R.L({1: k})), N, deg)
                value = R.add(value, R.mul(term, R.const((-1) ** (p - k) * math.comb(p, k))))
        argv = ["diff", _ftext(F), "--p", str(p), "--at", _text(at), "--order", str(N),
                "--format", fmt] + (["--leibniz"] if leibniz else [])
        out.append(("diff", argv, None, _value_out(value, fmt), 0, None))
    return out


def _sums(rng):
    out = []
    for i in range(4):
        F, N, fmt = _func_spec(rng, i), _order(i, 16), _fmt(i)
        a0 = rng.choice([0, 1, Fraction(1, 2)])
        c, deg = ref_func(F, 2 * N + 4)
        top = deg + 1 if deg is not None else N
        coeffs = [R.integrate_coeff(c, deg, R.const(a0), N, l) for l in range(top + 1)]
        argv = ["sum", _ftext(F), "--a0", str(a0), "--order", str(N), "--format", fmt]
        degree = None if deg is None else top
        out.append(("sum", argv, None, _func_out(coeffs, degree, fmt), 0, None))
    return out


def _bsums(rng):
    out = []
    for i in range(3):
        F, N, k = _func_spec(rng, i), _order(i + 1, 16), 4 + 3 * i
        start = Fraction(rng.randint(0, 3)) if F[0] == "poly" else Fraction(0)
        c, deg = ref_func(F, N + 4)
        value = R.L()
        for n in range(k):
            term = R.stream_eval(c, R.L({0: start, 1: n}), N, deg)
            value = R.add(value, R.mul(term, R.L({1: 1})))
        argv = ["bsum", _ftext(F), "--steps", str(k), "--from", str(start), "--order", str(N)]
        out.append(("bsum", argv, None, _value_out(value, "plain"), 0, None))
    return out


def _odes(rng):
    out = []
    for i in range(4):
        F, p, N, fmt = _func_spec(rng, i), i % 3 + 1, _order(i, 16), _fmt(i)
        C = [rng.choice([0, 1, -1, Fraction(1, 2)]) for _ in range(p)]
        c, deg = ref_func(F, 2 * N + p + 4)
        top = deg + p if deg is not None else N
        inits = [R.const(x) for x in C]
        coeffs = [R.solve_ode_coeff(c, deg, p, inits, N, l) for l in range(top + 1)]
        argv = ["ode", _ftext(F), "--p", str(p), "--order", str(N), "--format", fmt]
        for x in C:
            argv += ["--init", str(x)]
        degree = None if deg is None else top
        out.append(("ode", argv, None, _func_out(coeffs, degree, fmt), 0, None))
    return out


def _lifts(rng):
    out = []
    for i in range(3):
        N, w = _order(i + 2, 24), _poly(rng, 1, 2)
        if i == 0:
            F, seed, y = "exp", 0, {0: 1, **w}
            value = R.series_eval("log", R.L(w), N)
        else:
            degree, seed = (2, 3) if i == 1 else (3, 2)
            F, y = "poly[" + ", ".join(["0"] * degree + ["1"]) + "]", {0: seed**degree, **w}
            value = R.powq(R.L(y), Fraction(1, degree), N)
        argv = ["lift", F, "--target", _text(y), "--seed", str(seed), "--order", str(N)]
        out.append(("lift", argv, None, _value_out(value, "plain"), 0, None))
    return out


def _expands(rng):
    out = []
    for i in range(3):
        N, fmt = _order(2 * i + 1), _fmt(i)
        num = _poly(rng, 0, 1 + i % 3)
        den = _poly(rng, i % 3, i % 3 + 1 + i % 2, 1)
        n_list = [num.get(e, 0) for e in range(max(num) + 1)]
        d_list = [den.get(e, 0) for e in range(max(den) + 1)]
        value = R.expand(*R.ratfunc(n_list, d_list), N)
        argv = ["expand", f"({_text(num)})/({_text(den)})", "--order", str(N), "--format", fmt]
        out.append(("expand", argv, None, _value_out(value, fmt), 0, None))
    return out


def _alephs(rng):
    out = []
    for op in ("succ", "pred", "add", "mul", "div", "member"):
        a = {0: rng.randint(-5, 9), -1: rng.randint(1, 4), -2: rng.choice([0, 1, Fraction(1, 2)])}
        b = {0: rng.randint(-5, 9), -1: rng.choice([1, 2, Fraction(1, 3)])}
        ra, rb = R.aleph([a[0], a[-1], a[-2]]), R.aleph([b[0], b[-1]])
        if op == "member":
            expected = "true\n"
            args = [_text(a)]
        elif op == "div":
            q = R.INDISTINGUISHABLE
            while q == R.INDISTINGUISHABLE:
                d = {0: rng.randint(1, 5), 1: rng.choice([1, -1])}
                q = R.floor_aleph(R.mul(R.L(a), R.invert(R.L(d), 8)))
            expected = _text({-k: c for k, c in enumerate(q)}) + "\n"
            args = [_text(a), _text(d)]
        else:
            value = {"succ": lambda: R.aleph_add(ra, (1,)), "pred": lambda: R.aleph_add(ra, (-1,)),
                     "add": lambda: R.aleph_add(ra, rb), "mul": lambda: R.aleph_mul(ra, rb)}[op]()
            expected = _text({-k: c for k, c in enumerate(value)}) + "\n"
            args = [_text(a)] + ([_text(b)] if op in ("add", "mul") else [])
        out.append(("aleph", ["aleph", op, *args], None, expected, 0, None))
    return out


def _demos(rng):
    terms = 16
    total, lines = Fraction(0), []
    for k in range(terms):
        total += Fraction((-1) ** k, 2 * k + 1)
        lines.append(str(total))
    return [("demo", ["demo", "leibniz-pi", "--terms", str(terms)], None,
             "\n".join(lines) + "\n", 0, None)]


SEEDED = (_evals, _stdin_batches, _cmps, _tables, _diffs, _sums, _bsums, _odes, _lifts,
          _expands, _alephs, _demos)


def _known_defects() -> dict:
    exp = R.builtin_coeffs("exp", 64)
    sum17 = [R.integrate_coeff(exp, None, R.L(), 17, l) for l in range(18)]
    ode20 = [R.solve_ode_coeff(exp, None, 3, [R.L()] * 3, 20, l) for l in range(21)]
    sqrt4 = R.powq(R.L({0: 1, 1: 1}), Fraction(1, 2), 4)
    return {
        "sum exp --order 17": (["sum", "exp", "--order", "17"], _func_out(sum17, None, "plain")),
        "ode exp --p 3 --order 20": (["ode", "exp", "--p", "3", "--order", "20"],
                                     _func_out(ode20, None, "plain")),
        "table a --max 40": (["table", "a", "--max", "40"], R.table_text("a", 40) + "\n"),
        "--order 4 eval sqrt(1+o)": (["--order", "4", "eval", "sqrt(1+o)"],
                                     _value_out(sqrt4, "plain")),
    }


# -- running requests -----------------------------------------------------------------


class Program:
    """Spawns one CLI process per request; in traced mode through tracechild.py."""

    def __init__(self):
        self.stats = None

    def set_tracing(self, on: bool):
        self.stats = ChildStats() if on else None
        return self.stats

    def request(self, argv, stdin):
        if self.stats is None:
            proc = H.run_child(["-m", "omegacalc.cli", *argv], stdin)
            return proc.returncode, proc.stdout, proc.stderr
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"{os.getpid()}.json"
        proc = H.run_child([str(HERE / "tracechild.py"), str(path), *argv], stdin)
        self.stats.add(json.loads(path.read_text()))
        path.unlink()
        return proc.returncode, proc.stdout, proc.stderr


class ChildStats:
    """Span totals summed over traced child processes."""

    def __init__(self):
        self.calls, self.self_ns = Counter(), Counter()
        self.balanced = True
        self.missing: set = set()

    def add(self, snap: dict):
        self.calls.update(snap["calls"])
        self.self_ns.update(snap["self_ns"])
        self.self_ns["cli.import"] += snap["import_ns"]
        self.balanced = self.balanced and snap["balanced"]
        self.missing.update(snap["missing"])

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "missing": sorted(self.missing)}


def _checker(stdout, code, stderr):
    def check(value):
        if isinstance(value, BaseException):
            return False
        got_code, got_out, got_err = value
        return got_code == code and got_out == stdout and (stderr is None or got_err == stderr)
    return check


def bind(specs, prog: Program, with_expect: bool = True) -> list[Op]:
    ops = []
    for label, argv, stdin, stdout, code, stderr in specs:
        order = int(argv[argv.index("--order") + 1]) if "--order" in argv else 0
        ops.append(Op(argv[0], order, (lambda a=argv, s=stdin: prog.request(a, s)),
                      check=_checker(stdout, code, stderr), label=f"{label}: {' '.join(argv)}"))
    return ops


def warmup_ops(ops: list[Op]) -> list[Op]:
    """The warm-up pass: one request per command."""
    return H.first_of_each(ops, lambda op: op.kind)


def probe_known_defects(prog: Program) -> dict:
    out = {}
    for name, (argv, stdout) in _known_defects().items():
        code, got, err = prog.request(argv, None)
        out[name] = {"ok": code == 0 and got == stdout, "exit": code,
                     "stderr": err.strip().splitlines()[-1:] if err else []}
    return out

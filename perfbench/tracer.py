"""Span tracer that wraps omega-calc's public functions from outside.

Each layer is a set of functions and methods of one ``omegacalc`` module.
``Tracer.install`` replaces them, in every module namespace that holds
them, by wrappers that record a span per call.  A span's self time is its
duration minus the time covered by its child spans, so the self times of
all layers plus the root span's own self time add up exactly (in integer
nanoseconds) to the root spans' total duration.  Nothing in ``src/`` is
edited; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

ROOT = "bench.op"

# layer -> functions ("module:name") and methods ("module:Class.name")
LAYERS = {
    "omega.mul": ["omega:OmegaNumber.__mul__", "omega:OmegaNumber.__rmul__"],
    "omega.add": ["omega:OmegaNumber.__add__", "omega:OmegaNumber.__radd__",
                  "omega:OmegaNumber.__sub__", "omega:OmegaNumber.__rsub__",
                  "omega:OmegaNumber.__neg__"],
    "omega.truncate": ["omega:OmegaNumber.truncate"],
    "omega.from_terms": ["omega:OmegaNumber.from_terms", "omega:normalize"],
    "omega.compare": ["omega:compare", "omega:compare_extended", "omega:much_less"],
    "omega.invert": ["omega:OmegaNumber.invert", "omega:OmegaNumber.__truediv__",
                     "omega:OmegaNumber.__rtruediv__"],
    "omega.pow": ["omega:OmegaNumber.pow_rational", "omega:OmegaNumber.__pow__",
                  "omega:pow_rational"],
    "omega.render": ["omega:render_plain", "omega:to_json_dict"],
    "functions.eval": ["functions:RegularFunction.eval"],
    "functions.coeff": ["functions:RegularFunction.coeff"],
    "functions.taylor_shift": ["functions:taylor_shift"],
    "functions.solve_lift": ["functions:solve_lift", "functions:lift_poly_root"],
    "calculus.integrate": ["calculus:integrate", "calculus:S_op"],
    "calculus.D_op": ["calculus:D_op"],
    "calculus.solve_ode": ["calculus:solve_ode"],
    "calculus.difference": ["calculus:finite_difference", "calculus:leibniz_differential"],
    "calculus.brute_sum": ["calculus:brute_sum", "calculus:brute_sum_iterated"],
    "calculus.tables": ["calculus:bernoulli", "calculus:x_coeff", "calculus:k_coeff",
                        "calculus:a_coeff", "calculus:a_coeff_p", "calculus:a_coeff_bernoulli",
                        "calculus:d_to_D", "calculus:D_to_d", "calculus:grid_binomial",
                        "calculus:monomial_primitive"],
    "aleph.ops": ["aleph:successor", "aleph:predecessor", "aleph:oplus", "aleph:odiamond",
                  "aleph:compare_aleph", "aleph:integer_truncature", "aleph:phi", "aleph:psi",
                  "aleph:aleph_from_omega", "aleph:AlephInt.__add__", "aleph:AlephInt.__sub__",
                  "aleph:AlephInt.__mul__", "aleph:AlephInt.__neg__"],
    "aleph.div": ["aleph:archimedean_division"],
    "rational.expand": ["rational:expand"],
    "rational.arith": ["rational:RationalFunction.from_polys", "rational:RationalFunction.__add__",
                       "rational:RationalFunction.__sub__", "rational:RationalFunction.__mul__",
                       "rational:RationalFunction.__neg__", "rational:RationalFunction.__truediv__",
                       "rational:RationalFunction.invert", "rational:RationalFunction.__pow__"],
    "parser.parse": ["parser:parse"],
    "cli.main": ["cli:main"],
    "cli.evaluate": ["cli:evaluate", "cli:evaluate_rational"],
    "cli.format": ["cli:format_value", "cli:table_text"],
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.root_ns = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        calls, self_ns, stack = self.calls, self.self_ns, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_ns[layer] += dt - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += dt

        return span

    def root(self, fn):
        """Call fn() inside the root span of one operation."""
        stack = self._stack
        stack.append(0)
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            dt = time.perf_counter_ns() - t0
            self.self_ns[ROOT] += dt - stack.pop()
            self.root_ns += dt

    def balanced(self) -> bool:
        """True when the self times add up exactly to the root spans."""
        return not self._stack and sum(self.self_ns.values()) == self.root_ns

    def install(self, package: str = "omegacalc"):
        for modname in {target.partition(":")[0] for targets in LAYERS.values()
                        for target in targets}:
            try:
                importlib.import_module(f"{package}.{modname}")
            except ImportError:
                pass  # its targets are reported as missing
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for layer, targets in LAYERS.items():
            for target in targets:
                modname, _, path = target.partition(":")
                module = sys.modules.get(f"{package}.{modname}")
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(target)
                    continue
                if isinstance(raw, staticmethod):
                    self._set(owner, attr, raw, staticmethod(self.wrap(layer, raw.__func__)))
                elif owner_name:
                    self._set(owner, attr, raw, self.wrap(layer, raw))
                else:
                    wrapped = self.wrap(layer, raw)
                    for m in modules:
                        for name, value in list(vars(m).items()):
                            if value is raw:
                                self._set(m, name, raw, wrapped)

    def _set(self, owner, attr, original, replacement):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "root_ns": self.root_ns, "missing": self.missing}

"""Shared machinery: operations, the closed loop, statistics and records.

An ``Op`` is one call into the program (``run``) with its expected
outcome.  The closed loop runs ops back to back with one client, times
each ``run`` call alone, and checks its outcome outside the timed span.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"


@dataclass
class Op:
    kind: str
    n: int
    run: Callable[[], Any]
    expect: Any = None
    check: Callable[[Any], bool] | None = None
    label: str = ""

    def ok(self, value) -> bool:
        if self.check is not None:
            return self.check(value)
        return outcome(value) == self.expect


@dataclass
class Loop:
    """Result of one closed-loop measurement.

    ``raw`` holds each op's wall time; ``latencies`` the same times in
    reference seconds (see ``calibrate``).
    """

    raw: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def ops_per_s(self) -> float:
        """Correct ops per reference second of op time."""
        return (self.attempted - self.failed) / sum(self.latencies)

    def raw_ops_per_s(self) -> float:
        return (self.attempted - self.failed) / sum(self.raw)


# The machine's speed drifts by up to 2x over seconds (shared host,
# frequency changes).  A fixed stdlib loop, timed every CAL_INTERVAL
# seconds between ops, tracks it: an op's wall time is divided by the
# mean of the calibrations around it and multiplied by CAL_REF_S.  A
# reference second is thus the time in which the calibration loop runs
# 1/CAL_REF_S times; the program under test never runs inside it.
CAL_INTERVAL = 0.1
CAL_REF_S = 0.001
_CAL_DATA = [Fraction(i, i + 7) for i in range(1, 300)]


def calibrate() -> float:
    """Wall seconds of the fixed calibration loop (about 1 ms)."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for x in _CAL_DATA:
        total += x * x
    return time.perf_counter() - t0


def calibration() -> float:
    """Median of a few calibrations, for a reading outside the loop."""
    return statistics.median(calibrate() for _ in range(5))


def to_reference(measure: Callable[[], float]) -> float:
    """measure() (a wall time in any unit) in reference units, with
    calibrations taken just before and after it."""
    before = calibration()
    value = measure()
    return value * 2 * CAL_REF_S / (before + calibration())


def outcome(value):
    """Comparison key of a program value (read through public attributes only)."""
    if isinstance(value, BaseException):
        return ("raise", type(value).__name__)
    if isinstance(value, (list, tuple)):
        return tuple(outcome(v) for v in value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    name = type(value).__name__
    if name == "OmegaNumber":
        return (value.valuation, tuple(value.coeffs), value.known_order)
    if name == "AlephInt":
        return ("aleph", tuple(value.coeffs))
    if name == "RationalFunction":
        return (tuple(value.num), tuple(value.den))
    if name == "GridPoint":
        return ("grid", value.t, value.k)
    return value


def closed_loop(ops: list[Op], seconds: float, root=None, limit: int | None = None,
                cal_interval: float = CAL_INTERVAL) -> Loop:
    """Run ops in order, cycling, until ``seconds`` have passed or ``limit``
    ops have run; calibrate between ops every ``cal_interval`` seconds."""
    res = Loop()
    clock = time.perf_counter
    cals, epochs = [calibrate()], []
    last_cal = clock()
    deadline = last_cal + seconds
    i = 0
    while True:
        if clock() - last_cal >= cal_interval:
            cals.append(calibrate())
            last_cal = clock()
        op = ops[i % len(ops)]
        i += 1
        t0 = clock()
        try:
            value = op.run() if root is None else root(op.run)
        except Exception as exc:  # an op's failure is a measured outcome
            value = exc
        t1 = clock()
        res.attempted += 1
        res.raw.append(t1 - t0)
        epochs.append(len(cals) - 1)
        if not op.ok(value):
            res.failed += 1
            if len(res.failures) < 20:
                res.failures.append(f"{op.kind} n={op.n} {op.label}: got {str(value)[:200]!r}")
        if t1 >= deadline or res.attempted == limit:
            break
    cals.append(calibrate())
    res.latencies = [t * 2 * CAL_REF_S / (cals[e] + cals[e + 1]) for t, e in zip(res.raw, epochs)]
    return res


def first_of_each(ops: list[Op], key) -> list[Op]:
    """The first op of each distinct ``key(op)``, in order."""
    seen, out = set(), []
    for op in ops:
        if key(op) not in seen:
            seen.add(key(op))
            out.append(op)
    return out


def run_once(ops: list[Op]) -> Loop:
    """Each op once, timed and calibrated like the closed loop (warm-up passes)."""
    return closed_loop(ops, float("inf"), limit=len(ops))


def interleave(rng, groups: list[list]) -> list:
    """Spread each group's items evenly over one sequence (seeded jitter), so
    that every prefix of a pass holds each group in proportion."""
    keyed = []
    for items in groups:
        for j, item in enumerate(items):
            keyed.append(((j + rng.random()) / len(items), item))
    keyed.sort(key=lambda pair: pair[0])
    return [item for _, item in keyed]


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def cell(op: Op) -> str:
    return f"{op.kind}.n{op.n}"


def time_share(loop: Loop, ops: list[Op]) -> dict:
    """Share of the loop's op time taken by each (kind, order) cell."""
    totals: dict = {}
    for i, t in enumerate(loop.latencies):
        k = cell(ops[i % len(ops)])
        totals[k] = totals.get(k, 0.0) + t
    whole = sum(totals.values())
    return {k: round(v / whole, 4) for k, v in totals.items()}


def quantile_cell(loop: Loop, ops: list[Op], q: float) -> str:
    """The (kind, order) cell of the op at the q-th latency quantile (nearest rank)."""
    order = sorted(range(len(loop.latencies)), key=loop.latencies.__getitem__)
    return cell(ops[order[round(q * (len(order) - 1))] % len(ops)])


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def child_env() -> dict:
    """Environment of every child: the checkout's sources, bytecode cached
    under .bench_build, and no inherited order cap."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    for name in ("PYTHONDONTWRITEBYTECODE", "OMEGA_MAX_ORDER", "PYTHONSTARTUP"):
        env.pop(name, None)
    return env


def run_child(argv: list[str], stdin: str | None = None, timeout: float = 120):
    return subprocess.run([sys.executable, *argv], input=stdin, capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=timeout)


def spawn_ms(repeats: int = 5, reference: bool = False) -> float:
    """Median time to start and stop a bare interpreter, in wall or reference ms."""
    def once():
        t0 = time.perf_counter()
        run_child(["-c", "pass"])
        return (time.perf_counter() - t0) * 1e3
    return statistics.median(to_reference(once) if reference else once()
                             for _ in range(repeats))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(spawn: float) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "proc.spawn_ms": round(spawn, 3),
    }

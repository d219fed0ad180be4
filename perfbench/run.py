"""omega-calc benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload series --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Times are in reference units (see ``harness.calibrate``); raw wall times
are kept in the ``record`` line.
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (and ``trace.overhead`` against an untraced run of equal
length).  Lines before it are a human-readable report and a ``record``
line with the environment and the digest of the generated inputs.

``--all`` runs every workload once with ``--trace 0`` and prints each
end-to-end metric by name and unit.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.pycache_prefix = str(HERE.parent / ".bench_build" / "pycache")  # harness.PYCACHE
sys.dont_write_bytecode = False
sys.path.insert(0, str(HERE))

import harness as H  # noqa: E402

WORKLOADS = ("series", "calculus", "cli-oneshot")
SETUP_PROBES = 5
END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms"),
              ("peak_rss_mb", "MB")]


def workload_module(name: str):
    return importlib.import_module({"series": "wl_series", "calculus": "wl_calculus",
                                    "cli-oneshot": "wl_cli"}[name])


def use_checkout_sources():
    """Import the program from this checkout only (bytecode goes to .bench_build)."""
    if not (H.SRC / "omegacalc" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {H.SRC / 'omegacalc'}")
    pin_to_one_cpu()
    sys.path.insert(0, str(H.SRC))


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that a child runs
    where the calibration loop ran (a closed loop never runs both at once)."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def run_probes(args) -> list[dict]:
    """Set the workload up SETUP_PROBES times, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = H.run_child([str(HERE / "probe.py"), args.workload, str(args.seed)])
        if proc.returncode != 0:
            sys.exit(f"error: setup probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def latency_metrics(loop: H.Loop, raw: bool = False) -> dict:
    lat_ms = [t * 1e3 for t in (loop.raw if raw else loop.latencies)]
    out = {"p50_ms": H.quantile(lat_ms, 0.50), "p90_ms": H.quantile(lat_ms, 0.90)}
    if len(lat_ms) >= 1000:
        out["p99_ms"] = H.quantile(lat_ms, 0.99)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced")
    args = ap.parse_args(argv)
    use_checkout_sources()
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload is required")
    result, report, record = measure(args)
    for line in report:
        print(line)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


def measure(args):
    W = workload_module(args.workload)
    specs = W.generate(args.seed)
    prog = W.Program()
    ops = W.bind(specs, prog)
    H.run_once(W.warmup_ops(ops))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs_digest": H.digest(repr(specs)),
              "ops_per_pass": len(ops), "environment": H.environment(H.spawn_ms())}
    if args.trace == 0:
        loop = H.closed_loop(ops, args.seconds)
        # read before the set-up probes add their own children
        rss = H.peak_rss_mb(children=args.workload == "cli-oneshot")
        metrics, report, extra = end_to_end(args.workload, ops, loop, run_probes(args), rss)
        correct = loop.failed == 0
    else:
        probes = run_probes(args)
        import_ms = statistics.median(p["import_s"] for p in probes) * 1e3
        metrics, correct, extra = traced(args, prog, ops, import_ms)
        loop = extra.pop("loop")
        report = [f"{args.workload:12s} {name:32s} {m['value']:14.4f} {m['unit']}"
                  for name, m in metrics.items()]
    record.update(extra)
    if hasattr(W, "probe_known_defects"):
        defects = W.probe_known_defects(prog)
        record["known_defects"] = defects
        failed = sum(1 for d in defects.values() if not d["ok"])
        report.append(f"{args.workload:12s} known-defect repros failing: {failed}/{len(defects)}"
                      f" (checked against their correct output; not in the gated counts)")
    result = {"correct": bool(correct), "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    return result, report, record


def end_to_end(workload: str, ops: list[H.Op], loop: H.Loop, probes: list[dict], rss: float):
    values = {"setup_s": statistics.median(p["import_s"] + p["warmup_s"] for p in probes),
              "ops_per_s": loop.ops_per_s(), **latency_metrics(loop), "peak_rss_mb": rss}
    units = dict(END_TO_END, p99_ms="ms")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    report = []
    for name, v in values.items():
        count = f"  (n={len(loop.latencies)})" if name in ("p50_ms", "p90_ms", "p99_ms") else ""
        report.append(f"{workload:12s} {name:12s} {v:12.4f} {units[name]}{count}")
    error_rate = loop.failed / loop.attempted
    report.append(f"{workload:12s} {'error_rate':12s} {error_rate:12.4f} ratio"
                  f"  ({loop.failed}/{loop.attempted})")
    wall = {"setup_s": statistics.median(p["raw_s"] for p in probes),
            "ops_per_s": loop.raw_ops_per_s(), **latency_metrics(loop, raw=True)}
    extra = {"failures": loop.failures, "error_rate": error_rate, "p99_ms": values.get("p99_ms"),
             "samples": len(loop.latencies), "wall": wall,
             "time_share": H.time_share(loop, ops),
             "quantile_ops": {"p50_ms": H.quantile_cell(loop, ops, 0.50),
                              "p90_ms": H.quantile_cell(loop, ops, 0.90)}}
    return metrics, report, extra


def traced(args, prog, ops, import_ms):
    import wl_series
    metrics, correct, extra = span_metrics(prog, ops, args.seconds)
    sweep, sweep_ok = wl_series.order_sweep(args.seed)
    for name, value in sweep.items():
        metrics[name] = {"value": value, "unit": "us"}
    metrics["calculus.tables.cold_ms"] = {"value": cold_tables_ms(), "unit": "ms"}
    metrics["cli.import_ms"] = {"value": import_ms, "unit": "ms"}
    metrics["proc.spawn_ms"] = {"value": H.spawn_ms(reference=True), "unit": "ms"}
    return metrics, correct and sweep_ok, extra


def span_metrics(prog, ops, seconds: float):
    """An untraced then a traced closed loop of seconds/2 each.

    Per-layer times are in reference ms per op: the traced loop's wall
    times scaled by its calibrations (sum of latencies over sum of raw
    times).  The run is correct only when every op is, every LAYERS
    target was found, and the self times add up to the op time.
    """
    import tracer as T
    half = seconds / 2
    plain = H.closed_loop(ops, half)
    set_tracing = getattr(prog, "set_tracing", None)
    if set_tracing:  # spans are recorded in each child process
        stats = set_tracing(True)
        loop = H.closed_loop(ops, half)
        set_tracing(False)
        snapshot, balanced = stats.snapshot(), stats.balanced
        op_ns = sum(loop.raw) * 1e9
    else:
        tr = T.Tracer()
        tr.install()
        try:
            loop = H.closed_loop(ops, half, root=tr.root)
        finally:
            tr.uninstall()
        snapshot, balanced = tr.snapshot(), tr.balanced()
        op_ns = snapshot["root_ns"]
    n = loop.attempted
    to_ref_ms = sum(loop.latencies) / sum(loop.raw) / n / 1e6  # ns per run -> ref ms per op
    metrics = {}
    layer_self = 0
    for layer in T.LAYERS:
        calls = snapshot["calls"].get(layer, 0)
        self_ns = snapshot["self_ns"].get(layer, 0)
        layer_self += self_ns
        metrics[f"{layer}.calls"] = {"value": calls / n, "unit": "calls/op"}
        metrics[f"{layer}.self_ms"] = {"value": self_ns * to_ref_ms, "unit": "ms/op"}
    metrics["trace.op_ms"] = {"value": op_ns * to_ref_ms, "unit": "ms/op"}
    metrics["trace.unattributed_ms"] = {"value": (op_ns - layer_self) * to_ref_ms,
                                        "unit": "ms/op"}
    metrics["trace.overhead"] = {"value": loop.ops_per_s() / plain.ops_per_s(), "unit": "ratio"}
    missing = snapshot.get("missing", [])
    extra = {"loop": loop, "balanced": balanced, "missing_spans": missing,
             "traced_failures": loop.failures, "untraced_ops_per_s": plain.ops_per_s(),
             "time_share": H.time_share(loop, ops)}
    correct = balanced and not missing and loop.failed == 0 and plain.failed == 0
    return metrics, correct, extra


COLD_TABLES = """
import time
t0 = time.perf_counter()
from omegacalc import calculus as c
t1 = time.perf_counter()
c.a_coeff(16, 1); c.a_coeff_p(2, 8, 1); c.bernoulli(16); c.x_coeff(16, 8)
c.k_coeff(16, 8); c.d_to_D(1, 16); c.D_to_d(1, 16)
print((time.perf_counter() - t1) * 1e3)
"""


def cold_tables_ms(repeats: int = 3) -> float:
    """First touch of the calculus tables in a fresh interpreter, in reference ms."""
    def once():
        proc = H.run_child(["-c", COLD_TABLES])
        if proc.returncode != 0:
            sys.exit(f"error: table probe failed:\n{proc.stderr}")
        return float(proc.stdout.strip())
    return statistics.median(H.to_reference(once) for _ in range(repeats))


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    worst = 0
    for name in WORKLOADS:
        proc = H.run_child([str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds)], timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: {name} failed:\n{proc.stderr}")
        result = json.loads(lines[-1])
        digest = json.loads(lines[-2][len("record "):])["inputs_digest"]
        print("\n".join(lines[:-2]))
        print(f"{name:12s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} inputs_digest={digest}")
        worst = worst or (0 if result["correct"] else 1)
    return worst


if __name__ == "__main__":
    os.chdir(H.ROOT)
    sys.exit(main())

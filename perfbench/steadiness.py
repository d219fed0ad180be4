"""Steadiness report: repeat the benchmark and compare spreads with the bounds.

    python3 perfbench/steadiness.py --runs 10 [--workload series] [--seconds 15] [--trace 0]

Runs ``run.py`` once per seed (seeds 1..runs, or from --first-seed) for
each workload, then prints each metric's median, first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``.  End-to-end metrics whose spread exceeds their
bound in BENCHMARK.json, or a third of it, are flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(workload: str, results: list[dict], bounds: dict) -> list[str]:
    lines, names = [], list(results[0]["metrics"])
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag = "OVER BOUND"
            elif spread > bound / 3:
                flag = "over bound/3"
        unit = results[0]["metrics"][name]["unit"]
        lines.append(f"{workload:12s} {name:32s} median {med:12.4f} {unit:9s} q1 {q1:12.4f} "
                     f"q3 {q3:12.4f} spread {spread:7.4f}"
                     + (f" bound {bound}" if bound is not None else "") + f" {flag}")
    correct = all(r["correct"] for r in results)
    failed = sum(r["failed"] for r in results)
    lines.append(f"{workload:12s} runs {len(results)} correct {correct} failed {failed}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = [run_once(workload, seed, seconds, args.trace)
                   for seed in range(args.first_seed, args.first_seed + args.runs)]
        for line in report(workload, results, bounds):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

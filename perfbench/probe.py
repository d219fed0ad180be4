"""One set-up of a workload in a fresh interpreter, for ``setup_s``.

    python probe.py WORKLOAD SEED

Times the import of ``omegacalc`` (with ``omegacalc.cli``) before anything
else is loaded, then the workload's warm-up pass; input generation is not
timed.  Prints both in reference seconds, and their raw wall-time sum.
"""

import time

t0 = time.perf_counter()
import omegacalc  # noqa: E402,F401
import omegacalc.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - t0

import json  # noqa: E402
import sys  # noqa: E402

import harness as H  # noqa: E402
import run  # noqa: E402


def main() -> int:
    """Print the set-up time in reference seconds (see harness.calibrate)."""
    cal_import = H.calibration()
    W = run.workload_module(sys.argv[1])
    ops = W.bind(W.generate(int(sys.argv[2])), W.Program(), with_expect=False)
    warm = H.run_once(W.warmup_ops(ops))
    print(json.dumps({"import_s": IMPORT_S * H.CAL_REF_S / cal_import,
                      "warmup_s": sum(warm.latencies), "raw_s": IMPORT_S + sum(warm.raw)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one omega-calc CLI request with the span tracer installed.

    python tracechild.py STATS_PATH [omega-calc arguments...]

Behaves like ``python -m omegacalc.cli`` (same stdout, stderr and exit
code) and writes the request's span totals and import time to STATS_PATH.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    stats_path, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter_ns()
    import omegacalc.cli as cli
    import_ns = time.perf_counter_ns() - t0

    import tracer
    spans = tracer.Tracer()
    spans.install()
    code = 1
    try:
        code = spans.root(lambda: cli.main(argv))
    finally:
        snap = spans.snapshot()
        snap.update(import_ns=import_ns, balanced=spans.balanced())
        stats_path.write_text(json.dumps(snap))
    return code


if __name__ == "__main__":
    sys.exit(main())

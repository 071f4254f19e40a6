"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is every import the benchmark needs, the technology and cell
library build, one tiny warm-up flow per architecture (first-call
costs), and for the service a server bound on a recovered journal.
Prints ``{"setup_s": ...}``.  Run by perfbench/run.py:

    python3 perfbench/setup_probe.py <workload> <scratch-dir>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    workload, scratch = sys.argv[1], Path(sys.argv[2])
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from repro.service.http import build_server

    from perfbench.workloads import WORKLOADS, warm_up

    w = WORKLOADS[workload]
    warm_up(w)
    if w.kind == "service":
        server = build_server(scratch, workers=w.jobs)
        server.manager.shutdown()
        server.server_close()
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

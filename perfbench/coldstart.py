"""One cold start: a fresh interpreter imports ``repro``, builds all five
executors and finishes one warm-up run of the workload's graph on each.

Run by ``run.py`` as a child process::

    python3 perfbench/coldstart.py --workload NAME --seed N --t0 NS

``--t0`` is the parent's ``time.monotonic_ns()`` just before it started
this process (the clock is system-wide), so the reported ``ready_ns`` spans
interpreter start-up too.  The last stdout line is one JSON object; the
executors are closed, and every process they left (the shared-memory
resource tracker) stopped and waited for, after it is printed, outside the
measured span.
"""

from __future__ import annotations

import time

_START_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    import repro.runtimes  # noqa: F401  (the import is what is timed)
    import reap
    from workloads import BY_NAME, RUNTIMES, close_executor, make_executor, make_graph

    imported = time.monotonic_ns()
    w = BY_NAME[args.workload]
    graph = make_graph(w, args.seed)
    built = {}
    per_rt = {}
    try:
        for rt in RUNTIMES:
            t0 = time.monotonic_ns()
            ex = built[rt] = make_executor(rt, w)
            ex.run([graph])
            per_rt[rt] = (time.monotonic_ns() - t0) / 1e9
        ready = time.monotonic_ns()
        print(json.dumps({
            "setup_s": (ready - args.t0) / 1e9,
            "import_s": (imported - _START_NS) / 1e9,
            "runtimes_s": per_rt,
        }), flush=True)
    finally:
        for ex in built.values():
            close_executor(ex)
        reap.stop_children()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

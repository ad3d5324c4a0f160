"""Host-speed probe: a fixed slice of CPU work timed in thread CPU time.

The benchmark brackets every timed sample with two probe runs and scales
the sample by ``PROBE_REF_MS / probe_ms``, so a vCPU that runs slower for
a while slows the probe and the sample alike and the ratio cancels it.
``time.thread_time_ns`` follows the vCPU's speed but does not count time
the thread spends descheduled, so contention the measured program causes
itself is not normalized away.

The work mixes what the harness does per task — function calls, tuple and
dict traffic, ``bytes`` joins and compares, and ufuncs on small NumPy
arrays — and imports nothing from ``repro``, so a change to the program
cannot change the probe.
"""

from __future__ import annotations

import time

import numpy as np

_LOOPS = 600


def _step(k: int, table: dict) -> int:
    key = (k & 63, k >> 6)
    table[key] = table.get(key, 0) + k
    return len(table)


def _work() -> int:
    table: dict = {}
    acc = 0
    vec = np.full(64, 1.0001)
    tmp = np.empty(64)
    chunks = [bytes([k]) * 16 for k in range(8)]
    for k in range(_LOOPS):
        acc += _step(k, table)
        joined = b"".join(chunks)
        acc += joined == chunks[k & 7] * 8
        np.multiply(vec, vec, out=tmp)
        np.add(tmp, vec, out=vec)
        vec[:] = 1.0001
    return acc


def probe_ms() -> float:
    """Thread CPU time of one fixed slice of work, in milliseconds."""
    start = time.thread_time_ns()
    _work()
    return (time.thread_time_ns() - start) / 1e6

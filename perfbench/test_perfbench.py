"""Fast tests of the benchmark's own logic (no timing runs).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import multiprocessing as mp
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bench_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_valid_and_unique():
    names = [n for n, _, _ in workloads.end_to_end_metrics()
             + workloads.per_layer_metrics()]
    assert len(names) == len(set(names))
    assert len(workloads.per_layer_metrics()) <= 128
    for name in names + [w.name for w in workloads.WORKLOADS]:
        assert workloads.NAME_RE.match(name), name


def test_benchmark_json_matches_the_code():
    spec = _bench_json()
    assert [w["name"] for w in spec["workloads"]] == [
        w.name for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == workloads.end_to_end_metrics()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == workloads.per_layer_metrics()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])


def test_layer_tables_agree():
    assert set(workloads.LAYER_RUNTIMES) == set(tracer.LAYERS)
    assert set(workloads.COUNTED_LAYERS) <= set(tracer.LAYERS)


def test_normalize_cancels_host_speed():
    # The same work on a host twice as slow: sample and probe both double.
    fast = stats.normalize(10.0, 2.0, 2.0, 2.5)
    slow = stats.normalize(20.0, 4.0, 4.0, 2.5)
    assert fast == pytest.approx(12.5)
    assert slow == pytest.approx(fast)
    # The two bracketing probes are averaged.
    assert stats.normalize(10.0, 2.0, 3.0, 2.5) == pytest.approx(10.0)


def test_efficiency_arithmetic():
    # 100 tasks of 100 us on 2 workers in 5 ms: fully efficient.
    assert stats.efficiency(100, 100.0, 0.005, 2) == pytest.approx(1.0)
    # Twice the wall time: half.
    assert stats.efficiency(100, 100.0, 0.010, 2) == pytest.approx(0.5)
    assert stats.efficiency(80, 100.0, 0.010, 1) == pytest.approx(0.8)


def test_summary_quartiles():
    s = stats.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["median"], s["n"]) == (3.0, 5)
    assert s["q1"] == pytest.approx(1.5) and s["q3"] == pytest.approx(4.5)
    assert stats.summary([7.0])["median"] == 7.0


# Synthetic spans: (layer, start, end, parent, thread, id).
# Thread 1: span 0 (layer 0) [0, 100] holds span 1 (layer 1) [10, 40]
# which holds span 2 (layer 2) [20, 25]; span 3 (layer 1) [50, 60] is a
# second child of span 0.  Thread 2 reuses id 0 for an unrelated root.
SPANS = [
    (0, 0, 100, -1, 1, 0),
    (1, 10, 40, 0, 1, 1),
    (2, 20, 25, 1, 1, 2),
    (1, 50, 60, 0, 1, 3),
    (2, 5, 35, -1, 2, 0),
]


def test_self_times_subtract_children():
    totals = stats_self = tracer.self_times(SPANS, 3)
    assert stats_self[0] == [100 - 30 - 10, 1]
    assert stats_self[1] == [(30 - 5) + 10, 2]
    assert stats_self[2] == [5 + 30, 2]
    # Self times partition the root spans' durations.
    roots = sum(end - start for _, start, end, parent, _, _ in SPANS
                if parent < 0)
    assert sum(ns for ns, _ in totals) == roots


def test_layer_breakdown_reconciles():
    self_ns = {"store": 3000, "validation": 5000}
    out = stats.layer_breakdown(self_ns, tasks=10, lanes=2, wall_s=0.001,
                                scale=1.5)
    assert out["traced"] == pytest.approx(150.0)
    assert out["store"] == pytest.approx(0.225)
    assert out["validation"] == pytest.approx(0.375)
    assert out["store"] + out["validation"] + out["residual"] == \
        pytest.approx(out["traced"])


class _FakeClock:
    def __init__(self) -> None:
        self.ticks = itertools.count(0, 10)

    def __call__(self) -> int:
        return next(self.ticks)


def test_tracer_totals_match_its_span_records():
    t = tracer.Tracer(layers={"a": (), "b": ()}, clock=_FakeClock())
    inner = t.wrap(1, lambda: None)

    def body():
        inner()
        inner()

    outer = t.wrap(0, body)
    outer()
    inner()
    assert t.totals() == tracer.self_times(t.spans, 2)
    # Each wrapped call reads the clock twice, 10 ticks apart: the outer
    # span lasts 50 ns of which its two children cover 20.
    assert t.totals() == [[30, 1], [30, 3]]


def _child_calls(fn) -> None:
    for _ in range(3):
        fn()


def test_tracer_collects_forked_children():
    t = tracer.Tracer(layers={"a": ()})
    fn = t.wrap(0, lambda: sum(range(100)))
    fn()
    proc = mp.get_context("fork").Process(target=_child_calls, args=(fn,))
    proc.start()
    proc.join(timeout=30)
    assert proc.exitcode == 0
    assert t.totals()[0][1] == 4
    # Only the benchmark process keeps span records.
    assert len(t.spans) == 1


def test_install_patches_every_reference_and_uninstall_restores():
    from repro.core import validation
    from repro.core import task_graph as tg_mod
    from repro.runtimes import _common

    original_validate = validation.validate_inputs
    original_gather = _common.OutputStore.__dict__["gather"]
    t = tracer.Tracer()
    t.install()
    try:
        assert validation.validate_inputs is not original_validate
        assert _common.OutputStore.__dict__["gather"] is not original_gather
        graph = workloads.make_graph(workloads.BY_NAME["stencil_empty"], 7)
        graph = graph.with_(timesteps=3)
        before = t.totals()
        from repro.runtimes import make_executor
        make_executor("serial").run([graph])
        after = t.totals()
        calls = {name: after[k][1] - before[k][1]
                 for k, name in enumerate(t.names)}
        tasks = graph.total_tasks()
        assert calls["validation"] == tasks
        assert calls["output"] == tasks
        assert calls["store"] == 2 * tasks
        assert calls["kernels"] == 0
    finally:
        t.close()
    assert validation.validate_inputs is original_validate
    assert _common.OutputStore.__dict__["gather"] is original_gather
    assert tg_mod.TaskGraph.dependency_columns.__name__ == "dependency_columns"


_REAP_CHILD = """
import os, sys, time
from multiprocessing import resource_tracker, shared_memory
sys.path.insert(0, sys.argv[1])
import reap
seg = shared_memory.SharedMemory(create=True, size=64)
seg.close()
seg.unlink()
tracker = resource_tracker._resource_tracker._pid
if os.fork() == 0:
    time.sleep(60)
    os._exit(0)
assert tracker in reap.children() and len(reap.children()) == 2
reap.stop_children()
print(reap.children())
"""


def test_stop_children_stops_tracker_and_strays():
    # In a child interpreter: stopping the resource tracker is process-wide.
    import subprocess

    out = subprocess.run([sys.executable, "-c", _REAP_CHILD, str(HERE)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"

"""Task Bench harness benchmark: host-normalized µs/task, efficiency at the
100 µs grain, set-up time, and a traced per-layer breakdown, for five
executors.

Usage, from the repository root::

    python3 perfbench/run.py --workload stencil_empty --seed 1 --seconds 30 --trace 0

One process runs a closed loop: one client, one graph run at a time.  Per
run it

1. builds every executor once and runs the correctness gate: each executor
   runs the workload's graph once under ``capturing_outputs()`` and its
   bytes are compared with serial's;
2. warms each executor with untimed runs, so pools and caches are filled
   (the regime METG measures);
3. takes timed samples round-robin across executors for ``--seconds``,
   rotating the starting executor every round so host drift lands on all
   of them.  Every sample is bracketed by two runs of the host probe
   (``probe.py``) and scaled by ``PROBE_REF_MS / probe``.  Efficiency
   samples time ``Kernel.execute`` directly just before and after the run.
   Cold starts (``coldstart.py``) are spread through the window;
4. with ``--trace 1``, installs the layer wrappers (``tracer.py``), builds
   fresh executors, and times traced runs of the workload's graph.

Validation stays on in every run.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the gated
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The full record, with provenance and the quartiles of
every metric, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import probe
import reap
import stats
from workloads import (
    BY_NAME,
    COMPUTE_ITERATIONS,
    DATA_PLANE_RUNTIMES,
    LAYER_RUNTIMES,
    PROBE_REF_MS,
    RUNTIMES,
    Workload,
    close_executor,
    end_to_end_metrics,
    make_executor,
    make_graph,
    per_layer_metrics,
)

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

DEFAULT_SEED = 12345
MIN_ROUNDS = 3
#: Traced runs per executor (after one traced warm-up).
TRACE_REPS = 3
KERNEL_CALLS = 5
COLDSTART_TIMEOUT_S = 120
#: Cold starts per run (at most one per 4 s of the window); set-up time
#: varies by about 20% between single cold starts.
COLD_STARTS = 8
NPROC = os.cpu_count() or 1
CLK_TCK = os.sysconf("SC_CLK_TCK")


class Failures:
    """Operations attempted and failed, per executor."""

    def __init__(self) -> None:
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.errors: List[str] = []

    def run(self, rt: str, fn):
        """Call ``fn``; an exception counts as one failed operation."""
        self.attempted[rt] = self.attempted.get(rt, 0) + 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.fail(rt, f"{type(exc).__name__}: {exc}")
            return None

    def fail(self, rt: str, why: str) -> None:
        self.failed[rt] = self.failed.get(rt, 0) + 1
        self.errors.append(f"{rt}: {why}")
        print(f"FAILED {rt}: {why}", file=sys.stderr, flush=True)


def steal_s() -> float:
    """Seconds the hypervisor ran something else on this guest's vCPUs
    (``steal`` in /proc/stat), summed over all CPUs; 0 where unavailable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / CLK_TCK
    except (OSError, IndexError, ValueError):
        return 0.0


def kernel_us() -> float:
    """Median wall time of one 100 us-grain kernel call, in µs."""
    from repro.core import Kernel, KernelType

    kernel = Kernel(kernel_type=KernelType.COMPUTE_BOUND,
                    iterations=COMPUTE_ITERATIONS)
    times = []
    for _ in range(KERNEL_CALLS):
        start = time.perf_counter_ns()
        kernel.execute()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e3


def run_gate(w: Workload, graph, execs, fails: Failures) -> bool:
    """Run every executor once under output capture; compare with serial."""
    from repro.runtimes._common import capturing_outputs

    captured = {}
    for rt in RUNTIMES:
        def capture(ex=execs[rt]):
            with capturing_outputs() as sink:
                ex.run([graph])
            return dict(sink)
        captured[rt] = fails.run(rt, capture)
    reference = captured["serial"]
    ok = reference is not None and len(reference) > 0
    for rt in RUNTIMES:
        got = captured[rt]
        if got is not None and reference is not None and got != reference:
            fails.fail(rt, "published outputs differ from serial's")
            ok = False
        ok = ok and got is not None
        print(f"gate {w.name} {rt}: {fails.failed.get(rt, 0)}/"
              f"{fails.attempted.get(rt, 0)} failed", flush=True)
    return ok


class Sampler:
    """The timed phase: round-robin samples plus spread-out cold starts."""

    def __init__(self, w: Workload, seed: int, execs, fails: Failures) -> None:
        self.w = w
        self.seed = seed
        self.execs = execs
        self.fails = fails
        self.graph = make_graph(w, seed)
        self.cgraph = None if w.is_compute else make_graph(w, seed, compute=True)
        self.us: Dict[str, List[float]] = {rt: [] for rt in RUNTIMES}
        self.raw: Dict[str, List[float]] = {rt: [] for rt in RUNTIMES}
        self.eff: Dict[str, List[float]] = {rt: [] for rt in RUNTIMES}
        self.copied: Dict[str, List[float]] = {rt: [] for rt in RUNTIMES}
        self.shared: Dict[str, List[float]] = {rt: [] for rt in RUNTIMES}
        self.wire_sent: List[float] = []
        self.probes: List[float] = []
        self.cold: List[dict] = []
        self.steal_pct: List[float] = []
        self.rounds = 0

    def _timed(self, rt: str, graph):
        return self.fails.run(rt, lambda: self.execs[rt].run([graph]))

    def sample(self, rt: str) -> None:
        ex = self.execs[rt]
        tasks = self.graph.total_tasks()
        p0 = probe.probe_ms()
        k0 = kernel_us() if self.w.is_compute else 0.0
        res = self._timed(rt, self.graph)
        k1 = kernel_us() if self.w.is_compute else 0.0
        p1 = probe.probe_ms()
        if res is None:
            return
        self.probes += [p0, p1]
        raw = res.elapsed_seconds * 1e6 / tasks
        self.raw[rt].append(raw)
        self.us[rt].append(stats.normalize(raw, p0, p1, PROBE_REF_MS))
        dp = res.data_plane
        if dp is not None:
            self.copied[rt].append(dp.bytes_copied / tasks)
            self.shared[rt].append(dp.bytes_shared / tasks)
            if dp.wire is not None:
                self.wire_sent.append(dp.wire.bytes_sent / tasks)
        if self.cgraph is not None:
            k0 = kernel_us()
            res = self._timed(rt, self.cgraph)
            k1 = kernel_us()
            if res is None:
                return
            tasks = self.cgraph.total_tasks()
        self.eff[rt].append(stats.efficiency(
            tasks, (k0 + k1) / 2, res.elapsed_seconds, ex.cores))

    def cold_start(self) -> None:
        p0 = probe.probe_ms()
        t0 = time.monotonic_ns()
        cmd = [sys.executable, str(HERE / "coldstart.py"), "--workload",
               self.w.name, "--seed", str(self.seed), "--t0", str(t0)]

        def child():
            # Own session, so a child that overruns is killed together with
            # the pool workers and ranks it forked.
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True,
                                    start_new_session=True)
            try:
                out, err = proc.communicate(timeout=COLDSTART_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
            finally:
                reap.stop_group(proc.pid)
            if proc.returncode != 0:
                raise RuntimeError(
                    f"cold start exited {proc.returncode}: {err[-500:]}")
            return json.loads(out.strip().splitlines()[-1])

        rec = self.fails.run("setup", child)
        p1 = probe.probe_ms()
        if rec is None:
            return
        scale = stats.normalize(1.0, p0, p1, PROBE_REF_MS)
        self.cold.append({
            "setup_s": rec["setup_s"] * scale,
            "import_s": rec["import_s"] * scale,
            **{f"{rt}_s": v * scale for rt, v in rec["runtimes_s"].items()},
        })

    def run(self, seconds: float, cold_starts: int) -> None:
        start = time.monotonic()
        due = [start + seconds * (k + 0.5) / cold_starts
               for k in range(cold_starts)]
        while time.monotonic() < start + seconds or self.rounds < MIN_ROUNDS:
            shift = self.rounds % len(RUNTIMES)
            t0, s0 = time.monotonic(), steal_s()
            for rt in RUNTIMES[shift:] + RUNTIMES[:shift]:
                self.sample(rt)
            self.steal_pct.append(
                100 * (steal_s() - s0) / ((time.monotonic() - t0) * NPROC))
            self.rounds += 1
            while due and time.monotonic() >= due[0]:
                due.pop(0)
                self.cold_start()
        for _ in due:
            self.cold_start()


def traced_phase(w: Workload, seed: int, untraced: Dict[str, float],
                 fails: Failures, spans_path: pathlib.Path) -> Dict[str, float]:
    """Per-layer self times from traced runs of the workload's graph.

    The wrappers go in before the executors are built, so fork pools and
    ranks inherit them.  For every executor the layer self times plus the
    residual equal the traced µs/task exactly.
    """
    from tracer import Tracer

    graph = make_graph(w, seed)
    tasks = graph.total_tasks()
    tracer = Tracer()
    tracer.install()
    out: Dict[str, float] = {}
    execs = {}
    try:
        for rt in RUNTIMES:
            execs[rt] = fails.run(rt, lambda rt=rt: make_executor(rt, w))
        for rt, ex in execs.items():
            if ex is None or fails.run(rt, lambda: ex.run([graph])) is None:
                continue
            self_ns = [0] * tracer.nlayers
            calls = [0] * tracer.nlayers
            wall = 0.0
            probes = []
            ran = 0
            for _ in range(TRACE_REPS):
                p0 = probe.probe_ms()
                before = tracer.totals()
                res = fails.run(rt, lambda: ex.run([graph]))
                after = tracer.totals()
                probes += [p0, probe.probe_ms()]
                if res is None:
                    continue
                ran += 1
                wall += res.elapsed_seconds
                for k in range(tracer.nlayers):
                    self_ns[k] += after[k][0] - before[k][0]
                    calls[k] += after[k][1] - before[k][1]
            if not ran:
                continue
            scale = PROBE_REF_MS / statistics.median(probes)
            breakdown = stats.layer_breakdown(
                dict(zip(tracer.names, self_ns)), tasks * ran, ex.cores,
                wall, scale)
            for k, layer in enumerate(tracer.names):
                if rt in LAYER_RUNTIMES[layer]:
                    out[f"{layer}.us_per_task.{rt}"] = breakdown[layer]
                    out[f"{layer}.calls_per_task.{rt}"] = calls[k] / (tasks * ran)
                elif self_ns[k]:
                    print(f"note: layer {layer} is active on {rt} but not "
                          "reported", file=sys.stderr)
            out[f"residual.us_per_task.{rt}"] = breakdown["residual"]
            out[f"traced.us_per_task.{rt}"] = breakdown["traced"]
            layers = sum(breakdown[layer] for layer in tracer.names)
            print(f"reconcile {w.name} {rt}: layers {layers:.3f} + residual "
                  f"{breakdown['residual']:.3f} = traced "
                  f"{breakdown['traced']:.3f} us/task", flush=True)
            if rt in untraced:
                out[f"trace_overhead.us_per_task.{rt}"] = (
                    breakdown["traced"] - untraced[rt])
    finally:
        for ex in execs.values():
            if ex is not None:
                close_executor(ex)
        tracer.close()
    tracer.write_spans(str(spans_path))
    return out


def commit() -> str:
    """The checkout's commit from ``.git`` if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def measure(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    fails = Failures()
    idle = [probe.probe_ms() for _ in range(9)]
    graph = make_graph(w, seed)
    execs = {}
    for rt in RUNTIMES:
        execs[rt] = fails.run(rt, lambda rt=rt: make_executor(rt, w))
    sampler = None
    try:
        if all(ex is not None for ex in execs.values()):
            gate_ok = run_gate(w, graph, execs, fails)
        else:
            gate_ok = False
        if gate_ok:
            sampler = Sampler(w, seed, execs, fails)
            for rt in RUNTIMES:
                for g in filter(None, (sampler.graph, sampler.cgraph)):
                    fails.run(rt, lambda: execs[rt].run([g]))
            sampler.run(seconds, max(1, min(COLD_STARTS, seconds // 4)))
    finally:
        for ex in execs.values():
            if ex is not None:
                close_executor(ex)
    idle += [probe.probe_ms() for _ in range(9)]

    dist: Dict[str, List[float]] = {}
    if sampler is not None:
        for rt in RUNTIMES:
            dist[f"us_per_task.{rt}"] = sampler.us[rt]
            dist[f"efficiency.{rt}"] = sampler.eff[rt]
            dist[f"raw.us_per_task.{rt}"] = sampler.raw[rt]
        for rt in DATA_PLANE_RUNTIMES:
            dist[f"data.bytes_copied_per_task.{rt}"] = sampler.copied[rt]
            dist[f"data.bytes_shared_per_task.{rt}"] = sampler.shared[rt]
        dist["wire.bytes_sent_per_task.cluster_uds"] = sampler.wire_sent
        for key in ("setup_s", "import_s") + tuple(f"{rt}_s" for rt in RUNTIMES):
            name = key if key == "setup_s" else f"setup.{key}"
            dist[name] = [c[key] for c in sampler.cold]
        dist["host.probe_ms"] = idle
        idle_ms = statistics.median(idle)
        dist["host.probe_inflation"] = [p / idle_ms for p in sampler.probes]
        dist["host.steal_pct"] = sampler.steal_pct
    summaries = {name: stats.summary(vals) for name, vals in dist.items()}
    values = {name: s["median"] for name, s in summaries.items()}

    if trace and sampler is not None:
        RESULTS.mkdir(exist_ok=True)
        untraced = {rt: values[f"us_per_task.{rt}"] for rt in RUNTIMES
                    if sampler.us[rt]}
        values.update(traced_phase(
            w, seed, untraced, fails,
            RESULTS / f"spans-{w.name}-seed{seed}.jsonl"))

    attempted = sum(fails.attempted.values())
    failed = sum(fails.failed.values())
    complete = sampler is not None and all(
        sampler.us[rt] and sampler.eff[rt] for rt in RUNTIMES) and sampler.cold
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit(),
        "host": host(),
        "rounds": sampler.rounds if sampler else 0,
        "cold_starts": len(sampler.cold) if sampler else 0,
        "correct": bool(failed == 0 and complete),
        "attempted": max(attempted, 1),
        "failed": failed,
        "failed_by_executor": {rt: f"{fails.failed.get(rt, 0)}/"
                               f"{fails.attempted.get(rt, 0)}"
                               for rt in sorted(fails.attempted)},
        "errors": fails.errors[:20],
        "summaries": summaries,
        "values": values,
        "samples": dist,
    }


def report(record: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    trace = record["trace"]
    spec = per_layer_metrics() if trace else end_to_end_metrics()
    values = record["values"]
    sums = record["summaries"]
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['rounds']} rounds, {record['cold_starts']} cold starts, "
          f"failed/attempted {record['failed']}/{record['attempted']} "
          f"{record['failed_by_executor']}")
    metrics = {}
    for name, unit, _better in spec:
        value = values.get(name)
        if value is None:
            print(f"missing metric {name}", file=sys.stderr)
            record["correct"] = False
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        line = f"{name} = {value:.6g} {unit}"
        s = sums.get(name)
        if s and s["n"] > 1:
            line += f"  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']}]"
        rt = name.split(".", 1)[1] if name.startswith("us_per_task.") else None
        if rt is not None and f"raw.us_per_task.{rt}" in values:
            line += f"  raw {values[f'raw.us_per_task.{rt}']:.6g} us"
        print(line)
    if not trace:
        print(f"host.probe_ms = {values.get('host.probe_ms', 0):.4g} ms, "
              f"host.probe_inflation = "
              f"{values.get('host.probe_inflation', 0):.4g}, "
              f"host.steal_pct = {values.get('host.steal_pct', 0):.3g} %")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        record = measure(
            BY_NAME[args.workload], args.seed, args.seconds, bool(args.trace))
    finally:
        reap.stop_children()
    final = report(record)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Workloads, executors, constants and metric names of the benchmark.

Plain data, importable without ``repro`` (the tests and the missing-source
check rely on that).  ``run.py`` turns a :class:`Workload` into task
graphs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Tuple

#: Executors measured, one per isolation class plus both fork pools.
RUNTIMES: Tuple[str, ...] = (
    "serial", "threads", "shm_processes", "processes", "cluster_uds",
)

#: Probe time (ms) that normalized figures refer to: a normalized value is
#: what the sample would read on a host whose probe takes this long.
#: Measured on the reference host (2 vCPU, Python 3.11, NumPy 2.4).
PROBE_REF_MS = 2.5

#: COMPUTE_BOUND iterations giving a task of about 100 us on the reference
#: host: the paper's headline grain.
COMPUTE_ITERATIONS = 50

#: Graph width throughout.
WIDTH = 8


@dataclass(frozen=True)
class Workload:
    """One graph shape measured on every executor.

    ``timesteps`` sizes the sample whose per-task time is reported;
    ``compute_timesteps`` sizes the sample at the 100 us grain (the same
    shape with the COMPUTE_BOUND kernel) whose efficiency is reported.
    A workload whose own kernel is COMPUTE_BOUND reports both from one
    sample.
    """

    name: str
    why: str
    dependence: str  # repro.core.DependenceType value
    kernel: str  # repro.core.KernelType value
    output_bytes: int
    workers: int
    timesteps: int
    compute_timesteps: int

    @property
    def is_compute(self) -> bool:
        return self.kernel == "compute_bound"


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "stencil_empty",
        "empty kernel, 3 inputs of 16 B: every microsecond is scheduling, "
        "dispatch, output store and dependence lookup (the METG floor)",
        "stencil_1d", "empty", 16, 2, 250, 32,
    ),
    Workload(
        "alltoall_4k",
        "empty kernel, 8 inputs and 8 consumers of 4 KiB per task: fan-in, "
        "fan-out and payload bytes through store, buffer pool and wire",
        "all_to_all", "empty", 4096, 2, 100, 32,
    ),
    Workload(
        "stencil_compute",
        "about 100 us of kernel per task on 1 worker, the paper's headline "
        "grain: harness-only changes should barely move it",
        "stencil_1d", "compute_bound", 16, 1, 25, 25,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Layers of the traced run (see tracer.LAYERS) reported per executor, and
#: the executors each one can be non-zero on.
LAYER_RUNTIMES = {
    "task_graph": RUNTIMES,
    "store": ("serial", "threads", "shm_processes", "processes"),
    "bufpool": ("threads", "shm_processes"),
    "validation": RUNTIMES,
    "output": RUNTIMES,
    "kernels": RUNTIMES,
    "sched": ("threads",),
    "procpool": ("shm_processes", "processes"),
    "wire": ("cluster_uds",),
}

#: Layers whose call counts per task depend on the executor's batching,
#: not only on the graph (validation, output and kernel calls are one per
#: task by construction, so they are not reported).
COUNTED_LAYERS = ("task_graph", "store", "bufpool", "sched", "procpool", "wire")

#: Executors that report a data plane in RunResult.data_plane.
DATA_PLANE_RUNTIMES = ("threads", "shm_processes", "processes", "cluster_uds")


def end_to_end_metrics() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every gated metric."""
    out = [(f"us_per_task.{rt}", "us", "lower") for rt in RUNTIMES]
    out += [(f"efficiency.{rt}", "ratio", "higher") for rt in RUNTIMES]
    out.append(("setup_s", "s", "lower"))
    return out


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every metric of the traced run."""
    out = []
    for layer, rts in LAYER_RUNTIMES.items():
        out += [(f"{layer}.us_per_task.{rt}", "us", "lower") for rt in rts]
    for layer in COUNTED_LAYERS:
        out += [(f"{layer}.calls_per_task.{rt}", "count", "lower")
                for rt in LAYER_RUNTIMES[layer]]
    for rt in DATA_PLANE_RUNTIMES:
        out.append((f"data.bytes_copied_per_task.{rt}", "B", "lower"))
        out.append((f"data.bytes_shared_per_task.{rt}", "B", "higher"))
    out.append(("wire.bytes_sent_per_task.cluster_uds", "B", "lower"))
    out += [(f"residual.us_per_task.{rt}", "us", "lower") for rt in RUNTIMES]
    out += [(f"trace_overhead.us_per_task.{rt}", "us", "lower")
            for rt in RUNTIMES]
    out.append(("setup.import_s", "s", "lower"))
    out += [(f"setup.{rt}_s", "s", "lower") for rt in RUNTIMES]
    out += [(f"raw.us_per_task.{rt}", "us", "lower") for rt in RUNTIMES]
    out.append(("host.probe_ms", "ms", "lower"))
    out.append(("host.probe_inflation", "ratio", "lower"))
    out.append(("host.steal_pct", "%", "lower"))
    return out


def make_graph(w: Workload, seed: int, *, compute: bool = False):
    """The workload's task graph; ``compute=True`` gives the same shape
    at the 100 us grain (COMPUTE_BOUND kernel), sized for one sample."""
    from repro.core import DependenceType, Kernel, KernelType, TaskGraph

    if compute or w.is_compute:
        kernel = Kernel(kernel_type=KernelType.COMPUTE_BOUND,
                        iterations=COMPUTE_ITERATIONS)
    else:
        kernel = Kernel(kernel_type=KernelType(w.kernel))
    return TaskGraph(
        timesteps=w.compute_timesteps if compute else w.timesteps,
        max_width=WIDTH,
        dependence=DependenceType(w.dependence),
        kernel=kernel,
        output_bytes_per_task=w.output_bytes,
        seed=seed,
    )


def make_executor(rt: str, w: Workload):
    """Executor ``rt`` with the workload's worker count."""
    from repro.runtimes import make_executor as factory

    return factory(rt, workers=w.workers)


def close_executor(ex) -> None:
    close = getattr(ex, "close", None)
    if close is not None:
        close()

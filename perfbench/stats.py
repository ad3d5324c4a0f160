"""The benchmark's arithmetic, kept free of I/O so the tests can check it."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence


def normalize(raw: float, probe_before_ms: float, probe_after_ms: float,
              probe_ref_ms: float) -> float:
    """Scale a time measured between two probe runs to the reference host.

    A host running 2x slower doubles both the sample and the probe, so
    ``raw * ref / probe`` stays put.
    """
    return raw * probe_ref_ms / ((probe_before_ms + probe_after_ms) / 2)


def efficiency(tasks: int, kernel_us: float, wall_s: float,
               workers: int) -> float:
    """Share of the workers' time spent in the kernel:
    ``tasks * kernel_us / (wall * workers)``."""
    return tasks * kernel_us / (wall_s * 1e6 * workers)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile, and count of ``values``."""
    vals = list(values)
    if not vals:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(vals) == 1:
        return {"median": vals[0], "q1": vals[0], "q3": vals[0], "n": 1}
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "n": len(vals)}


def layer_breakdown(self_ns: Dict[str, int], tasks: int, lanes: int,
                    wall_s: float, scale: float) -> Dict[str, float]:
    """Per-task layer self times plus the residual that closes the sum.

    Self times are summed over every thread and process, so they are
    divided by ``lanes`` (the workers sharing the wall time) to be
    comparable with the wall time per task.  ``scale`` is the host
    normalization factor, applied to every term alike so the identity
    ``sum(layers) + residual == traced`` holds exactly.
    """
    traced = scale * wall_s * 1e6 / tasks
    out = {name: scale * ns / 1e3 / (tasks * lanes)
           for name, ns in self_ns.items()}
    out["residual"] = traced - sum(out.values())
    out["traced"] = traced
    return out

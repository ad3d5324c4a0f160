"""Layer tracing from outside the program: wrappers around public calls.

:class:`Tracer` replaces the public functions and methods listed in
:data:`LAYERS` with timing wrappers, so every call into a layer becomes a
span.  Nothing in ``src/`` changes: the wrappers live here and are
installed by patching the loaded ``repro`` modules and classes.

* **Clock.**  Spans are timed in thread CPU time
  (``time.thread_time_ns``).  Several wrapped calls block — the fork
  pool's ``run_round`` waits for its workers, ``FrameSocket.recv_frame``
  waits for the next frame, the scheduler's ``next_batch`` waits for a
  ready task — and wall time would charge that waiting to the layer.
  CPU time charges only the work.
* **Self time.**  A span's self time is its duration minus the time its
  child spans (nested wrapped calls in the same thread) cover.
* **Processes.**  Install the tracer before building the executors: fork
  pools and cluster ranks then inherit the wrappers.  Each process folds
  its spans into per-layer totals (self time, calls) in its own slot of an
  anonymous shared mapping created with the tracer, so the benchmark
  process reads the workers' and ranks' totals without any help from the
  program.  Full span records (name, start, end, parent, thread) are kept
  in memory in the benchmark process only and written out at the end.
"""

from __future__ import annotations

import functools
import json
import mmap
import multiprocessing as mp
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

#: Layer name -> public calls wrapped, as ``"module:attribute"`` for a
#: module function or ``"module:Class.method"`` for a method.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "task_graph": (
        "repro.core.task_graph:TaskGraph.dependency_columns",
        "repro.core.task_graph:TaskGraph.reverse_dependency_columns",
        "repro.core.task_graph:TaskGraph.dependency_points",
        "repro.core.task_graph:TaskGraph.reverse_dependency_points",
        "repro.core.task_graph:TaskGraph.consumer_count",
        "repro.core.task_graph:TaskGraph.dependency_count_row",
    ),
    "store": (
        "repro.runtimes._common:OutputStore.gather",
        "repro.runtimes._common:OutputStore.put",
        "repro.runtimes._common:OutputStore.gather_batch",
        "repro.runtimes._common:OutputStore.put_batch",
    ),
    "bufpool": (
        "repro.core.bufpool:as_array",
        "repro.core.bufpool:SlabPool.resolve",
        "repro.core.bufpool:SharedMemorySlabPool.resolve",
        "repro.core.bufpool:SlabPool.acquire",
        "repro.core.bufpool:SlabPool.acquire_batch",
        "repro.core.bufpool:SlabPool.decref",
        "repro.core.bufpool:SlabPool.decref_batch",
    ),
    "validation": ("repro.core.validation:validate_inputs",),
    "output": (
        "repro.core.validation:write_task_output",
        "repro.core.validation:task_output",
    ),
    "kernels": ("repro.core.kernels:Kernel.execute",),
    "sched": (
        "repro.runtimes.threads:DependencyCountingScheduler.next_batch",
        "repro.runtimes.threads:DependencyCountingScheduler.complete_batch",
    ),
    "procpool": (
        "repro.runtimes._procpool:ForkWorkerPool.run_round",
        "repro.runtimes._procpool:ForkWorkerPool.run_assigned",
    ),
    "wire": (
        "repro.cluster.wire:encode_data",
        "repro.cluster.wire:encode_data_batch",
        "repro.cluster.wire:decode",
        "repro.cluster.transport:FrameSocket.send_frame",
        "repro.cluster.transport:FrameSocket.recv_frame",
    ),
}

LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS)

#: One span: (layer index, start ns, end ns, parent span id or -1,
#: thread ident, span id).
Span = Tuple[int, int, int, int, int, int]

_MAX_SLOTS = 64  # processes that can report; a traced run uses under 10
_MAX_SPANS = 50_000  # span records kept by the benchmark process


def self_times(spans: Iterable[Span], nlayers: int) -> List[List[int]]:
    """Per-layer ``[self_ns, calls]`` from span records.

    A span's self time is its duration minus the durations of the spans
    whose parent it is; children are nested calls in the same thread, so
    they never overlap each other.
    """
    spans = list(spans)
    child_ns: Dict[Tuple[int, int], int] = {}
    for layer, start, end, parent, thread, _sid in spans:
        if parent >= 0:
            key = (thread, parent)
            child_ns[key] = child_ns.get(key, 0) + (end - start)
    totals = [[0, 0] for _ in range(nlayers)]
    for layer, start, end, _parent, thread, sid in spans:
        totals[layer][0] += (end - start) - child_ns.get((thread, sid), 0)
        totals[layer][1] += 1
    return totals


class _ProcessState:
    """This process's slot in the shared mapping plus the lock guarding
    its read-modify-write updates (threads of one process share a slot)."""

    def __init__(self, tracer: "Tracer") -> None:
        self.pid = tracer._pid
        self.lock = threading.Lock()
        with tracer._slot_lock:
            header = tracer._header
            slot = header[0]
            if slot >= _MAX_SLOTS:
                raise RuntimeError("tracer: out of process slots")
            header[0] = slot + 1
        width = 2 * tracer.nlayers
        self.totals = tracer._slots[slot * width:(slot + 1) * width]


class _ThreadState:
    def __init__(self, proc: _ProcessState) -> None:
        self.proc = proc
        self.pid = proc.pid
        self.ident = threading.get_ident()
        self.next_id = 0
        #: Open spans, innermost last: [child_ns, span_id].
        self.stack: List[List[int]] = []


class Tracer:
    """Installs the layer wrappers and accumulates their spans.

    ``clock`` is injectable for tests; it must be a per-thread clock in
    nanoseconds.
    """

    def __init__(
        self,
        layers: Dict[str, Sequence[str]] = LAYERS,
        clock: Callable[[], int] = time.thread_time_ns,
    ) -> None:
        self.layers = {name: tuple(targets) for name, targets in layers.items()}
        self.names = tuple(self.layers)
        self.nlayers = len(self.names)
        self.clock = clock
        width = 2 * self.nlayers
        # MAP_SHARED anonymous memory: forked children write into the same
        # pages the benchmark process reads.
        self._map = mmap.mmap(-1, 8 * (1 + _MAX_SLOTS * width))
        view = memoryview(self._map).cast("q")
        self._header = view[:1]
        self._slots = view[1:]
        self._slot_lock = mp.get_context("fork").Lock()
        self._pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)
        self._procs: Dict[int, _ProcessState] = {}
        self._tls = threading.local()
        self.spans: List[Span] = []
        self.spans_dropped = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- accounting --------------------------------------------------------
    def _after_fork(self) -> None:
        self._pid = os.getpid()

    def _thread(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None or st.pid != self._pid:
            proc = self._procs.get(self._pid)
            if proc is None:
                proc = self._procs[self._pid] = _ProcessState(self)
            st = self._tls.st = _ThreadState(proc)
        return st

    def wrap(self, layer: int, fn: Callable) -> Callable:
        """``fn`` timed as a span of layer index ``layer``."""
        clock = self.clock
        thread = self._thread
        owner = self._pid
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = thread()
            stack = st.stack
            sid = st.next_id
            st.next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                proc = st.proc
                with proc.lock:
                    proc.totals[2 * layer] += duration - frame[0]
                    proc.totals[2 * layer + 1] += 1
                if st.pid == owner:
                    if len(spans) < _MAX_SPANS:
                        spans.append((layer, start, end, parent, st.ident, sid))
                    else:
                        self.spans_dropped += 1

        return traced

    def totals(self) -> List[List[int]]:
        """Per-layer ``[self_ns, calls]`` summed over every process."""
        out = [[0, 0] for _ in range(self.nlayers)]
        width = 2 * self.nlayers
        slots = self._slots
        for slot in range(self._header[0]):
            base = slot * width
            for k in range(self.nlayers):
                out[k][0] += slots[base + 2 * k]
                out[k][1] += slots[base + 2 * k + 1]
        return out

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Patch every listed call in the loaded ``repro`` modules.

        A module function is replaced wherever a ``repro`` module holds a
        reference to it (``from x import f`` copies the reference), and a
        method is replaced on the class that defines it.
        """
        import importlib

        for layer, name in enumerate(self.names):
            for target in self.layers[name]:
                modname, attr = target.split(":")
                module = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, self.wrap(layer, original))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(layer, original)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").split(".")[0] != "repro":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, path: str) -> None:
        """Write the benchmark process's spans as JSON lines."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"layers": list(self.names),
                                 "clock": "thread_cpu_ns",
                                 "dropped": self.spans_dropped}) + "\n")
            for layer, start, end, parent, thread, sid in self.spans:
                fh.write(json.dumps({
                    "name": self.names[layer], "start": start, "end": end,
                    "parent": parent, "thread": thread, "id": sid,
                }) + "\n")

    def close(self) -> None:
        """Restore the originals; the mapping is freed with the tracer."""
        self.uninstall()

"""Stop every process the benchmark started, and wait for each to end.

The executors' ``close()`` joins their pool workers and ranks, but one
process outlives it: the ``multiprocessing`` resource tracker, started by
the first shared-memory segment.  It ends only when its pipe closes, which
by default happens when the process that started it exits, so it would
briefly outlive the benchmark (or a cold-start child) as an orphan.
:func:`stop_children` closes that pipe and waits for the tracker, and
kills and waits for any other child still alive; :func:`stop_group` does
the same from outside for a child run in its own process group.

Linux only: processes are found through ``/proc``.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List

#: How long a process may take to end on its own before it is killed.
GRACE_S = 5.0
_POLL_S = 0.01


def _procs(field: int, value: int, *, zombies: bool) -> List[int]:
    """Pids whose ``/proc/<pid>/stat`` field ``field`` (1 = ppid,
    2 = process group, counted after the command name) equals ``value``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # ended while we looked
        if int(fields[field]) == value and (zombies or fields[0] != "Z"):
            out.append(int(entry))
    return out


def children() -> List[int]:
    """Child processes of this process, ended but unreaped ones too."""
    return _procs(1, os.getpid(), zombies=True)


def _reaped(pid: int, timeout: float) -> bool:
    """Wait up to ``timeout`` s for child ``pid`` to end; True once reaped
    (or already reaped elsewhere)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(_POLL_S)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    _reaped(pid, float("inf"))


def _stop_tracker() -> None:
    """Close the resource tracker's pipe and wait for the tracker to end."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    pid, fd = tracker._pid, tracker._fd
    if pid is None or fd is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    if not _reaped(pid, GRACE_S):
        _kill(pid)


def stop_children() -> None:
    """End every child of this process and wait for each.

    Other children go first: one still alive could hold the tracker's pipe
    open, and the tracker would then never see it close.
    """
    from multiprocessing import resource_tracker

    tracker_pid = resource_tracker._resource_tracker._pid
    others = [pid for pid in children() if pid != tracker_pid]
    for pid in others:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    for pid in others:
        if not _reaped(pid, GRACE_S):
            _kill(pid)
    _stop_tracker()
    for pid in children():
        _kill(pid)


def stop_group(pgid: int) -> None:
    """Wait for every process of group ``pgid`` (a child run with
    ``start_new_session=True``, already reaped) to end; kill the group if
    any is still there after :data:`GRACE_S`.

    Members that outlived the child were reparented, so they cannot be
    waited for with ``waitpid``; their ``/proc`` entries are polled instead.
    """
    deadline = time.monotonic() + GRACE_S
    while _procs(2, pgid, zombies=False):
        if time.monotonic() >= deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = float("inf")
        time.sleep(_POLL_S)

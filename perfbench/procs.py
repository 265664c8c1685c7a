"""Process bookkeeping from /proc: the harness's child-subreaper, the
descendant tree of a pid, CPU time of a tree, and the reaper that kills
and waits for every descendant after a workload's Ray session ends."""

from __future__ import annotations

import ctypes
import errno
import os
import signal
import time
from typing import Dict, List, Tuple

_PR_SET_CHILD_SUBREAPER = 36
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def become_subreaper() -> None:
    """Orphans of our descendants are re-parented to us instead of pid 1,
    so we can see and reap every process a workload leaves behind."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


def _stat(pid: int) -> Tuple[str, int, int] | None:
    """(state, ppid, utime+stime ticks) of ``pid``, or None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read().decode(errors="replace")
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    # the command name is parenthesised and may hold spaces or ')'
    fields = raw[raw.rfind(")") + 2:].split()
    return fields[0], int(fields[1]), int(fields[11]) + int(fields[12])


def _table() -> Dict[int, Tuple[str, int, int]]:
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                out[int(name)] = st
    return out


def descendants(root: int) -> Dict[int, str]:
    """{pid: state} of every process below ``root`` (not ``root`` itself)."""
    table = _table()
    children: Dict[int, List[int]] = {}
    for pid, (_, ppid, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out: Dict[int, str] = {}
    todo = list(children.get(root, []))
    while todo:
        pid = todo.pop()
        if pid in out:
            continue
        out[pid] = table[pid][0]
        todo.extend(children.get(pid, []))
    return out


def tree_cpu_ticks(root: int) -> Dict[int, int]:
    """{pid: utime+stime ticks} for ``root`` and its descendants."""
    table = _table()
    pids = [root, *descendants(root)]
    return {p: table[p][2] for p in pids if p in table}


def cpu_seconds_between(before: Dict[int, int], after: Dict[int, int]) -> float:
    """CPU seconds spent by the processes alive at ``after``; a process
    that started in between counts from zero."""
    ticks = sum(t - before.get(p, 0) for p, t in after.items())
    return ticks / _CLK_TCK


def reap(root: int, timeout: float = 15.0) -> Tuple[int, int, List[int]]:
    """Kill and wait for every descendant of ``root`` (our own pid: we are
    a subreaper, so orphans come back to us).

    Returns (live processes killed, zombies reaped, pids that survived).
    """
    killed: set = set()
    zombies = 0
    deadline = time.monotonic() + timeout
    while True:
        procs = descendants(root)
        for pid, state in procs.items():
            if state != "Z":
                try:
                    os.kill(pid, signal.SIGKILL)
                    killed.add(pid)
                except ProcessLookupError:
                    pass
        while True:  # collect every exited child of ours
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
            if procs.get(pid) == "Z":
                zombies += 1
        left = descendants(root)
        if not left or time.monotonic() > deadline:
            return len(killed), zombies, sorted(left)
        time.sleep(0.02)


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except OSError as e:
        if e.errno not in (errno.ESRCH, errno.EPERM):
            raise


def loop_seconds(iters: int, reps: int) -> float:
    """Best of ``reps`` timings of a fixed pure-Python loop: how fast
    the current CPU runs right now."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(iters):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def fastest_cpu(cpus) -> int:
    """The CPU that runs a short fixed loop fastest right now. On a
    shared VM a vCPU's speed swings with the host's load."""
    orig = os.sched_getaffinity(0)
    speed = {}
    try:
        for c in sorted(cpus):
            os.sched_setaffinity(0, {c})
            speed[c] = loop_seconds(40_000, 3)
    finally:
        os.sched_setaffinity(0, orig)
    return min(speed, key=speed.get)


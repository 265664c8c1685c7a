"""Span tracing for the traced benchmark run.

A span is (name, start, end, parent, pid) plus the counts recorded at
the same boundary (rows, bytes, and one kind-specific extra: Bloom
``pre_miss`` rejections, or 1 for a ``get_or_load`` cache hit). Spans
stay in memory in every process and are written out at the end.

Two kinds of boundary are traced, both from outside the program:

* the benchmark wraps its own calls into the public functions of
  ``pipelines``, ``engine.agg`` and (through the stage boundaries of
  ``prepare_corpus``) ``functions`` — :class:`DriverTrace`;
* :func:`install` wraps class methods of the program —
  ``Sketch.update_arrow/merge/serialize``, ``BloomFilter.contains_many``,
  ``SketchStore.put/get``, ``SketchAgg.*`` — plus the by-value imported
  functions ``deserialize`` and ``get_or_load`` in every loaded module.
  The driver calls it directly; Ray workers call it through
  :func:`worker_setup`, the ``worker_process_setup_hook``.

Workers poll a control directory: the file ``on`` switches recording,
and a new generation number in ``flush`` makes each worker write its
spans to ``spans-<pid>.json``. Worker spans get a driver parent by time
containment (one machine, one monotonic clock).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

_PACKAGE = "presto_bloomfilter_ray"
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

# prefixes of the spans install() records around the program's methods
METHOD_SPANS = ("sketches.", "engine.store.", "engine.ops.", "engine.agg.aggregate_block",
                "engine.agg.combine", "engine.agg.finalize")

# class name -> sketch family as named in the per-layer metrics
FAMILIES = {"BloomFilter": "bloom", "HyperLogLog": "hll", "CountMin": "countmin",
            "TDigest": "tdigest", "KLL": "kll"}


class Recorder:
    """In-memory span list of one process. A span is the list
    ``[name, start, end, parent, rows, nbytes, extra]``; ``parent`` is an
    index into ``spans`` or -1."""

    def __init__(self) -> None:
        self.on = False
        self.spans: List[list] = []
        self._local = threading.local()

    def begin(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           stack[-1] if stack else -1, 0, 0, 0])
        stack.append(idx)
        return idx

    def end(self, idx: int, rows: int = 0, nbytes: int = 0, extra: int = 0) -> None:
        sp = self.spans[idx]
        sp[2] = time.perf_counter()
        sp[4], sp[5], sp[6] = rows, nbytes, extra
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.on:
            yield None
            return
        idx = self.begin(name)
        try:
            yield self.spans[idx]
        finally:
            self.end(idx, *self.spans[idx][4:7])


def _len(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 0


def _wrap(rec: Recorder, orig, name: str, measure):
    """Method wrapper: ``measure(args, out) -> (rows, nbytes, extra)``."""

    def traced(*args, **kwargs):
        if not rec.on:
            return orig(*args, **kwargs)
        idx = rec.begin(name)
        out = None
        try:
            out = orig(*args, **kwargs)
            return out
        finally:
            rec.end(idx, *measure(args, out))

    # the original's module and qualified name: a bound method shipped
    # to a worker then pickles by reference, to that worker's wrapper
    return functools.update_wrapper(traced, orig)


def _probe_wrap(rec: Recorder, orig):
    """``BloomFilter.contains_many``: rows probed, pre-filter rejections."""

    def traced(self, array, *args, **kwargs):
        if not rec.on:
            return orig(self, array, *args, **kwargs)
        before = self.pre_miss
        idx = rec.begin("sketches.bloom.probe")
        try:
            return orig(self, array, *args, **kwargs)
        finally:
            rec.end(idx, _len(array), 0, self.pre_miss - before)

    return functools.update_wrapper(traced, orig)


def _resolve(module: str, attr: str):
    return getattr(importlib.import_module(module), attr)


class TracedFunction:
    """Wrapper for a module-level function. It pickles as a reference to
    the original's import path, so a closure shipped to a worker resolves
    to that worker's (traced) binding instead of a copy of this one."""

    def __init__(self, rec: Recorder, orig, name: str, measure):
        self._rec, self._orig, self._name, self._measure = rec, orig, name, measure
        self.__wrapped__ = orig

    def __call__(self, *args, **kwargs):
        rec = self._rec
        if not rec.on:
            return self._orig(*args, **kwargs)
        idx = rec.begin(self._name)
        out = None
        try:
            out = self._orig(*args, **kwargs)
            return out
        finally:
            rec.end(idx, *self._measure(args, kwargs, out))

    def __reduce__(self):
        return _resolve, (self._orig.__module__, self._orig.__name__)


def _rebind(orig, wrapper) -> None:
    """Replace ``orig`` by ``wrapper`` in every loaded module of the
    package: callers did ``from ..x import f``, so patching ``x.f``
    alone would miss them."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == _PACKAGE or name.startswith(_PACKAGE + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap the program's layer boundaries in this process (idempotent)."""
    base = importlib.import_module(f"{_PACKAGE}.sketches.base")
    if getattr(base.Sketch, "_perfbench_traced", False):
        return
    sketches = importlib.import_module(f"{_PACKAGE}.sketches")  # registers kinds
    store = importlib.import_module(f"{_PACKAGE}.engine.store")
    ops = importlib.import_module(f"{_PACKAGE}.engine.ops")
    agg = importlib.import_module(f"{_PACKAGE}.engine.agg")

    no_counts = lambda a, out: (0, 0, 0)  # noqa: E731
    for cls in set(base._REGISTRY.values()):
        fam = FAMILIES.get(cls.__name__, "other")
        if "update_arrow" in cls.__dict__:
            cls.update_arrow = _wrap(rec, cls.__dict__["update_arrow"],
                                     f"sketches.{fam}.insert",
                                     lambda a, out: (_len(a[1]), 0, 0))
        if "merge" in cls.__dict__:
            cls.merge = _wrap(rec, cls.__dict__["merge"], "sketches.merge", no_counts)
    base.Sketch.serialize = _wrap(rec, base.Sketch.serialize, "sketches.serialize",
                                  lambda a, out: (0, _len(out), 0))
    sketches.BloomFilter.contains_many = _probe_wrap(
        rec, sketches.BloomFilter.contains_many)
    store.SketchStore.put = _wrap(rec, store.SketchStore.put, "engine.store.put",
                                  lambda a, out: (0, _len(a[2]), 0))
    store.SketchStore.get = _wrap(rec, store.SketchStore.get, "engine.store.get",
                                  lambda a, out: (0, _len(out), 0))
    for meth in ("aggregate_block", "combine", "finalize"):
        setattr(agg.SketchAgg, meth, _wrap(rec, getattr(agg.SketchAgg, meth),
                                           f"engine.agg.{meth}", no_counts))

    _rebind(base.deserialize, TracedFunction(
        rec, base.deserialize, "sketches.deserialize",
        lambda a, kw, out: (0, _len(a[0]), 0)))

    orig_gol = ops.get_or_load
    zero_hash = b"\x00" * 32

    class _GetOrLoad(TracedFunction):
        def __call__(self, buf, *, mutable: bool = False):
            rec = self._rec
            if not rec.on:
                return orig_gol(buf, mutable=mutable)
            h = base.read_hash(buf)
            hit = int(not mutable and h != zero_hash and h in ops._CACHE)
            idx = rec.begin("engine.ops.get_or_load")
            try:
                return orig_gol(buf, mutable=mutable)
            finally:
                rec.end(idx, 0, 0, hit)

    _rebind(orig_gol, _GetOrLoad(rec, orig_gol, "engine.ops.get_or_load", None))
    base.Sketch._perfbench_traced = True


# ------------------------------------------------------------- worker side
class _WorkerAgent:
    """Runs in each Ray worker: follows the ``on`` switch and answers
    flush requests from a daemon thread (the main thread may sit in
    Ray's native task loop)."""

    def __init__(self, trace_dir: str, rec: Recorder):
        self.dir, self.rec, self.pid = trace_dir, rec, os.getpid()
        self.flushed = 0

    def _flush_gen(self) -> int:
        try:
            with open(os.path.join(self.dir, "flush")) as f:
                return int(f.read() or 0)
        except (FileNotFoundError, ValueError):
            return 0

    def _dump(self, gen: int) -> None:
        path = os.path.join(self.dir, f"spans-{self.pid}.json")
        with open(path + ".tmp", "w") as f:
            json.dump({"pid": self.pid, "spans": self.rec.spans}, f)
        os.replace(path + ".tmp", path)
        with open(os.path.join(self.dir, f"ack-{self.pid}"), "w") as f:
            f.write(str(gen))
        self.flushed = gen

    def loop(self) -> None:
        on_path = os.path.join(self.dir, "on")
        while True:
            self.rec.on = os.path.exists(on_path)
            gen = self._flush_gen()
            if gen > self.flushed:
                self._dump(gen)
            time.sleep(0.02)


def worker_setup() -> None:
    """``worker_process_setup_hook`` of the traced Ray session."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    rec = Recorder()
    install(rec)
    agent = _WorkerAgent(trace_dir, rec)
    with open(os.path.join(trace_dir, f"hook-{agent.pid}"), "w") as f:
        f.write("1")
    threading.Thread(target=agent.loop, name="perfbench-trace", daemon=True).start()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


# ------------------------------------------------------------- driver side
class DriverTrace:
    """Driver half of the trace: switches recording on and off in every
    process, collects the worker spans and turns all spans into self
    times and counts per layer."""

    def __init__(self, trace_dir: str):
        self.dir = trace_dir
        os.makedirs(trace_dir, exist_ok=True)
        self.rec = Recorder()
        install(self.rec)
        self._gen = 0

    def set_on(self, on: bool) -> None:
        path = os.path.join(self.dir, "on")
        if on:
            open(path, "w").close()
        elif os.path.exists(path):
            os.remove(path)
        self.rec.on = on
        time.sleep(0.1)  # workers poll every 20 ms

    def collect(self, timeout: float = 10.0) -> List[dict]:
        """Spans of the driver and of every hooked worker, as dicts."""
        self._gen += 1
        with open(os.path.join(self.dir, "flush.tmp"), "w") as f:
            f.write(str(self._gen))
        os.replace(os.path.join(self.dir, "flush.tmp"), os.path.join(self.dir, "flush"))
        pids = [int(n[5:]) for n in os.listdir(self.dir) if n.startswith("hook-")]
        deadline = time.monotonic() + timeout
        pending = set(pids)
        while pending and time.monotonic() < deadline:
            for pid in list(pending):
                try:
                    with open(os.path.join(self.dir, f"ack-{pid}")) as f:
                        if int(f.read() or 0) >= self._gen:
                            pending.discard(pid)
                except (FileNotFoundError, ValueError):
                    if not _alive(pid):
                        pending.discard(pid)
            time.sleep(0.02)
        out = [_as_dict(os.getpid(), i, sp) for i, sp in enumerate(self.rec.spans)]
        for pid in pids:
            try:
                with open(os.path.join(self.dir, f"spans-{pid}.json")) as f:
                    data = json.load(f)
            except FileNotFoundError:
                continue
            out.extend(_as_dict(pid, i, sp) for i, sp in enumerate(data["spans"]))
        return out


def _as_dict(pid: int, i: int, sp: list) -> dict:
    name, start, end, parent, rows, nbytes, extra = sp
    return {"id": f"{pid}:{i}", "pid": pid, "name": name, "start": start,
            "end": end, "parent": f"{pid}:{parent}" if parent >= 0 else None,
            "rows": rows, "bytes": nbytes, "extra": extra}


def _union_len(intervals: List[Tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def link_and_self_times(spans: List[dict], driver_pid: int, root: str) -> List[dict]:
    """Keep the spans inside driver spans named ``root`` (the traced
    iterations), give each worker root span the innermost driver span that
    contains it as parent, and set ``self`` = duration minus the part of
    it that child spans cover. Each span also gets the ``run_id`` of its
    iteration."""
    spans = [s for s in spans if s["end"] > 0.0]
    by_id = {s["id"]: s for s in spans}
    # only the benchmark's own spans wait on workers; a wrapped method
    # running in the driver can overlap a worker span on a shared CPU
    driver = sorted((s for s in spans if s["pid"] == driver_pid
                     and not s["name"].startswith(METHOD_SPANS)),
                    key=lambda s: s["end"] - s["start"])
    for s in spans:
        if s["pid"] != driver_pid and s["parent"] is None:
            for d in driver:  # shortest first = innermost
                if d["start"] <= s["start"] and s["end"] <= d["end"]:
                    s["parent"] = d["id"]
                    break

    def top(s: dict) -> Optional[dict]:
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s

    kept = []
    for s in spans:
        t = top(s)
        if t["name"] == root:
            s["run_id"] = t["id"]
            kept.append(s)
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for s in kept:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    for s in kept:
        clipped = [(max(a, s["start"]), min(b, s["end"])) for a, b in children[s["id"]]]
        s["self"] = (s["end"] - s["start"]) - _union_len([c for c in clipped if c[1] > c[0]])
    return kept


def layer_table(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """{span name: calls, self_s, rows, bytes, extra} summed over spans."""
    table: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "rows": 0,
                                           "bytes": 0, "extra": 0})
        row["calls"] += 1
        row["self_s"] += s["self"]
        row["rows"] += s["rows"]
        row["bytes"] += s["bytes"]
        row["extra"] += s["extra"]
    return table

"""One workload's Ray session: set-up, closed-loop measurement, checks.

``run.py`` starts this module in a process session of its own and
reaps everything it leaves behind. The result goes to ``--out`` as JSON.

Set-up is: imports, ``ray.init`` (one CPU), a warm-up task, input
generation (and the probe filter build) repeated ``DATA_SETUPS`` times
with the median kept, and one untimed warm-up iteration so lazy
imports and first-execution costs land in set-up, not in the samples.

One driver submits one operation at a time (closed loop) until
``--seconds`` have passed and at least ``MIN_ITERS`` ran; the driver's
peak RSS is taken over the first ``MIN_ITERS``. With
``--trace 1`` the first half runs untraced and the second half traced;
the per-layer figures come from the traced half, the tracing overhead
from comparing the two.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

CPUS = 1
DATA_SETUPS = 3
MIN_ITERS = 3
# A vCPU of a shared host runs at a speed that swings with the host's
# load (measured: +-25% within a minute). Each iteration is bracketed by
# a fixed loop timed with the session idle, and norm_rows_per_s is
# scaled to a CPU that runs that loop in REF_NOMINAL_S.
REF_NOMINAL_S = 1.0e-3
OBJECT_STORE_BYTES = 400 * 1024 * 1024


def _reset_peak_rss() -> None:
    """Reset VmHWM so the peak covers only the measured window."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _ref_s() -> float:
    """The pinned CPU's speed now, taken with the session idle."""
    from .procs import loop_seconds

    return loop_seconds(20_000, 5)


def _measure(wl, rec, seconds: float, min_iters: int) -> list:
    """Closed loop: (ok, rows, start, end) per iteration."""
    samples = []
    start = time.perf_counter()
    while True:
        r0 = _ref_s()
        t0 = time.perf_counter()
        ok, rows = True, 0
        idx = rec.begin("bench.iteration") if rec.on else None
        try:
            rows = wl.iterate(len(samples))
        except Exception:  # a failed run is counted, the loop goes on
            traceback.print_exc()
            ok = False
        finally:
            if idx is not None:
                rec.end(idx)
        t1 = time.perf_counter()
        samples.append((ok, rows, t0, t1, (r0 + _ref_s()) / 2))
        if ok:
            wl.after_iteration()
        if len(samples) >= min_iters and time.perf_counter() - start >= seconds:
            return samples


def _rows_per_s(samples: list, norm: bool) -> float:
    """Median over iterations of rows / wall seconds; with ``norm``, each
    scaled by the reference loop time around the iteration over
    ``REF_NOMINAL_S``: rows per second on a CPU of the nominal speed."""
    rates = [rows / (t1 - t0) * (ref / REF_NOMINAL_S if norm else 1.0)
             for ok, rows, t0, t1, ref in samples if ok]
    return statistics.median(rates) if rates else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace-out", required=True)
    ap.add_argument("--ray-temp", default="")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    setup = {}
    t = time.perf_counter()
    import pyarrow as pa

    import ray

    from . import tracing
    from .workloads import WORKLOADS, warm_up

    pa.set_cpu_count(CPUS)
    pa.set_io_thread_count(CPUS)
    setup["imports_s"] = time.perf_counter() - t

    trace_dir = os.path.join(args.work_dir, "trace")
    runtime_env = None
    if args.trace:
        os.makedirs(trace_dir)
        os.environ[tracing.TRACE_DIR_ENV] = trace_dir
        runtime_env = {"worker_process_setup_hook": "perfbench.tracing.worker_setup"}
    t = time.perf_counter()
    ray.init(address="local", num_cpus=CPUS, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR",
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=args.ray_temp or None, runtime_env=runtime_env)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    setup["ray_init_s"] = time.perf_counter() - t
    t = time.perf_counter()
    ray.get(warm_up.remote())
    setup["warm_up_s"] = time.perf_counter() - t

    trace = tracing.DriverTrace(trace_dir) if args.trace else None
    rec = trace.rec if trace else tracing.Recorder()
    wl = WORKLOADS[args.workload](args.seed, args.work_dir, rec)
    data_s = []
    for rep in range(DATA_SETUPS):
        if wl.data_dir:
            shutil.rmtree(wl.data_dir)
        t = time.perf_counter()
        wl.setup(os.path.join(args.work_dir, f"data{rep}"))
        data_s.append(time.perf_counter() - t)
    setup["data_s"] = data_s
    if trace:
        wl.install_stage_markers()
    t = time.perf_counter()
    warm = _measure(wl, rec, 0.0, 1)
    setup["first_iteration_s"] = time.perf_counter() - t
    setup_s = (setup["imports_s"] + setup["ray_init_s"] + setup["warm_up_s"]
               + statistics.median(data_s) + setup["first_iteration_s"])

    from .procs import cpu_seconds_between, tree_cpu_ticks

    phase = args.seconds / 2 if args.trace else args.seconds
    cpu0, t0 = tree_cpu_ticks(os.getpid()), time.perf_counter()
    # the driver's memory grows with every iteration, so its peak is
    # taken over a fixed number of them, not over however many fit
    _reset_peak_rss()
    untraced = _measure(wl, rec, 0.0, MIN_ITERS)
    peak_rss = _peak_rss_mb()
    left = phase - (time.perf_counter() - t0)
    if left > 0:
        untraced += _measure(wl, rec, left, 1)
    cpu_busy = cpu_seconds_between(cpu0, tree_cpu_ticks(os.getpid())) / (
        time.perf_counter() - t0)
    traced = []
    if trace:
        trace.set_on(True)
        traced = _measure(wl, rec, phase, 2)
        trace.set_on(False)

    result = {
        "workload": args.workload, "seed": args.seed,
        "setup": setup, "setup_s": setup_s,
        "iterations": [[ok, rows, t1 - t0, ref] for ok, rows, t0, t1, ref
                       in warm + untraced + traced],
        "measured": len(untraced),
        "rows_per_s": _rows_per_s(untraced, norm=False),
        "norm_rows_per_s": _rows_per_s(untraced, norm=True),
        "driver_peak_rss_mb": peak_rss,
        "cpu_busy_share": cpu_busy,
    }
    try:
        checks = wl.checks()
        result["accuracy"] = wl.accuracy()
    except Exception:  # a broken output fails the run, not the harness
        traceback.print_exc()
        checks = [("checks ran", False, "raised; see the session log")]
        result["accuracy"] = {}
    result["checks"] = [[name, bool(ok), detail] for name, ok, detail in checks]
    if trace:
        from .layers import per_layer_metrics

        spans = tracing.link_and_self_times(trace.collect(), os.getpid(), "bench.iteration")
        layers = tracing.layer_table(spans)
        traced_ok = [s for s in traced if s[0]]
        wall = sum(t1 - t0 for _, _, t0, t1, _ in traced_ok)
        metrics = per_layer_metrics(
            layers, n_iters=len(traced_ok), wall=wall, extras=wl.layer_extras(),
            accuracy=result["accuracy"], cpu_busy_share=cpu_busy,
            overhead_ratio=_rows_per_s(untraced, norm=True)
            / max(_rows_per_s(traced, norm=True), 1e-9) - 1.0)
        result["per_layer"] = metrics
        result["layers"] = layers
        os.makedirs(args.trace_out, exist_ok=True)
        stem = os.path.join(args.trace_out, f"{args.workload}-seed{args.seed}")
        with open(stem + "-spans.json", "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": spans}, f)
        with open(stem + "-layers.json", "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_iterations": len(traced_ok), "traced_wall_s": wall,
                       "self_time_s": {f"{k}_s": v["self_s"] for k, v in layers.items()},
                       "layers": layers, "metrics": metrics}, f, indent=1)
    ray.shutdown()
    with open(args.out + ".tmp", "w") as f:
        json.dump(result, f)
    os.replace(args.out + ".tmp", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

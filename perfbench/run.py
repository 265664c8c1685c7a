"""Benchmark of the sketch engine: four seeded closed-loop workloads on
one core, end-to-end metrics by default and per-layer metrics with
``--trace 1``.

    python3 perfbench/run.py --workload suite_build --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 14 --trace 1

Each workload runs in a child process that starts its own Ray session,
in a process session of its own. This harness is a child subreaper:
when the child ends it kills the child's process group, kills and reaps
every descendant left (Ray leaves zombies behind after shutdown), and
counts any process still there as a failure. Every file it writes is
under ``.pb/`` at the repository root.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
every metric by name and unit, the checks, and (traced) the self time
of each layer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import procs  # noqa: E402

WORKLOADS = ["suite_build", "probe_semijoin", "grouped_udaf", "prepare_corpus"]
# name -> unit; the end-to-end metrics of BENCHMARK.json
END_TO_END = {"norm_rows_per_s": "rows/s", "setup_s": "s", "driver_peak_rss_mb": "MB"}
# printed for reading, not part of the JSON line: raw throughput, and
# figures that exist on only some workloads
REPORTED = {"store_bytes_per_row": "B/row", "hll_rel_err": "ratio",
            "quantile_rank_err": "ratio", "bloom_fpr": "ratio"}
SESSION_TIMEOUT_S = 160
# Ray puts unix sockets ~64 bytes below its temp dir; AF_UNIX allows 107
RAY_SOCKET_SUFFIX = 64
# thread pools capped to the one core the session gets
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "POLARS_MAX_THREADS": "1", "ARROW_IO_THREADS": "1",
              "RAY_USAGE_STATS_ENABLED": "0", "RAY_DATA_DISABLE_PROGRESS_BARS": "1"}


def _child_env(tmp: str, ray_temp: str) -> dict:
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH")) if p)
    env["TMPDIR"], env["RAY_TMPDIR"] = tmp, ray_temp  # keep temp files in the checkout
    return env


def _ray_temp(pb: str) -> tuple[str, bool]:
    """Ray's temp dir: inside the checkout unless the path is too long for
    Ray's unix sockets; then a private dir we delete afterwards."""
    inside = os.path.join(pb, "r")
    if len(inside) + RAY_SOCKET_SUFFIX <= 107:
        return inside, False
    print(f"perfbench: {inside} is too long for Ray's sockets; using a temp dir",
          file=sys.stderr)
    return tempfile.mkdtemp(prefix="pb"), True


def run_session(workload: str, args, pb: str) -> dict:
    """One workload in a child session; returns its result plus the
    process hygiene figures, or raises RuntimeError if it gave none."""
    run_dir = os.path.join(pb, "runs", f"{workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ray_temp, temp_outside = _ray_temp(pb)
    out = os.path.join(run_dir, "result.json")
    log_path = os.path.join(run_dir, "session.log")
    cmd = [sys.executable, "-m", "perfbench.session", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", os.path.join(run_dir, "work"),
           "--trace-out", os.path.join(pb, "trace"), "--ray-temp", ray_temp, "--out", out]
    with open(log_path, "wb") as log:
        cpu = procs.fastest_cpu(os.sched_getaffinity(0))
        tmp = os.path.join(run_dir, "tmp")
        os.makedirs(tmp)
        child = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(tmp, ray_temp), stdout=log,
                                 stderr=subprocess.STDOUT, start_new_session=True,
                                 preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        try:
            child.wait(timeout=SESSION_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} passed {SESSION_TIMEOUT_S} s; killing it",
                  file=sys.stderr)
        left_after_exit = procs.descendants(os.getpid())
        procs.kill_group(child.pid)
        killed, zombies, survivors = procs.reap(os.getpid())
    if temp_outside:
        shutil.rmtree(ray_temp, ignore_errors=True)
    if not os.path.exists(out):
        with open(log_path, errors="replace") as f:
            tail = f.read()[-4000:]
        raise RuntimeError(f"{workload} session gave no result (exit {child.returncode}); "
                           f"log tail:\n{tail}")
    with open(out) as f:
        result = json.load(f)
    result["processes"] = {
        "left_after_exit": len(left_after_exit),
        "zombies_left": sum(s == "Z" for s in left_after_exit.values()),
        "killed": killed, "reaped_zombies": zombies, "survivors": survivors}
    shutil.rmtree(os.path.join(run_dir, "work"), ignore_errors=True)
    return result


def _counts(result: dict) -> tuple[int, int]:
    """(attempted, failed) over the iterations, the checks and the
    process check."""
    iters, checks = result["iterations"], result["checks"]
    attempted = len(iters) + len(checks) + 1
    failed = (sum(not ok for ok, *_ in iters) + sum(not ok for _, ok, _ in checks)
              + bool(result["processes"]["survivors"]))
    return attempted, failed


def _report(result: dict, trace: bool) -> None:
    w, p = result["workload"], result["processes"]
    times = [dt for ok, _, dt, _ in result["iterations"][1:result["measured"] + 1] if ok]
    print(f"== {w} seed {result['seed']}: {result['measured']} measured iterations, "
          f"median {statistics.median(times or [0.0]):.3f} s each")
    s = result["setup"]
    setup_detail = (f"imports {s['imports_s']:.2f} + ray.init {s['ray_init_s']:.2f} "
                    f"+ warm-up {s['warm_up_s']:.2f} + data median of "
                    f"[{', '.join(f'{x:.2f}' for x in s['data_s'])}] "
                    f"+ first iteration {s['first_iteration_s']:.2f}")
    rows = [("norm_rows_per_s", result["norm_rows_per_s"],
             "median over the iterations, at the nominal CPU speed"),
            ("rows_per_s", result["rows_per_s"], "median over the iterations, as timed"),
            ("setup_s", result["setup_s"], setup_detail),
            ("driver_peak_rss_mb", result["driver_peak_rss_mb"],
             "over the first three measured iterations")]
    for name, value, note in rows:
        print(f"  {name:<22} {value:>14.4f} {END_TO_END.get(name, 'rows/s'):<7} {note}")
    acc = result.get("accuracy", {})
    for name, unit in REPORTED.items():
        value = f"{acc[name]:>14.6f}" if name in acc else f"{'n/a':>14}"
        print(f"  {name:<22} {value} {unit}")
    attempted, failed = _counts(result)
    print(f"  {'failed_share':<22} {failed / attempted:>14.4f} ratio   "
          f"{failed} of {attempted} (iterations, checks, process check)")
    for name, ok, detail in result["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"  processes after the session: {p['left_after_exit']} left "
          f"({p['zombies_left']} zombies); killed {p['killed']}, reaped "
          f"{p['reaped_zombies']} zombies; {len(p['survivors'])} survivors")
    if trace:
        layers = result["layers"]
        wall = result["per_layer"]["trace.wall_s"]
        print(f"  self time per layer over {wall:.3f} s of traced iterations "
              f"(tracing overhead {result['per_layer']['trace.overhead_ratio']:+.4f}):")
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:<36} {row['self_s']:>9.4f} s {row['calls']:>8} calls")


def _metrics(result: dict, trace: bool) -> dict:
    if trace:
        from perfbench.layers import UNITS

        return {k: {"value": v, "unit": UNITS[k]} for k, v in result["per_layer"].items()}
    return {k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}


def _check_declared(metrics: dict, trace: bool) -> None:
    """The printed metric names must be the ones BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        spec = json.load(f)
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if declared != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ declared)} "
                         "differ from BENCHMARK.json")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "presto_bloomfilter_ray", "__init__.py")):
        print(f"perfbench: no presto_bloomfilter_ray package under {ROOT}", file=sys.stderr)
        return 2
    procs.become_subreaper()
    pb = os.path.join(ROOT, ".pb")
    for stale in ("runs", "r", "trace"):  # left by earlier runs
        shutil.rmtree(os.path.join(pb, stale), ignore_errors=True)

    t0 = time.monotonic()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            result = run_session(name, args, pb)
        except RuntimeError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
        _report(result, bool(args.trace))
        a, f = _counts(result)
        attempted, failed = attempted + a, failed + f
        m = _metrics(result, bool(args.trace))
        _check_declared(m, bool(args.trace))
        metrics.update(m if len(names) == 1 else {f"{name}.{k}": v for k, v in m.items()})
    left = procs.descendants(os.getpid())
    attempted += 1
    failed += bool(left)
    print(f"== all sessions done in {time.monotonic() - t0:.1f} s; "
          f"processes left at exit: {len(left)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

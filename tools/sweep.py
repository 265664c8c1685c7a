"""Full driver-style oracle sweep: run EVERY `__ray_entry__.queries()`
entry and its `oracle_sql()` mirror over the same parquet tables,
sort columns by name + rows, and compare values dtype-exactly — the
same comparison the round driver records in CORRECTNESS_r{N}.json.

Usage (from anywhere):

    python tools/sweep.py [sf_dir] [name_prefix ...]

Defaults to /root/testdata/sf0.01. Optional name prefixes restrict the
sweep (e.g. ``python tools/sweep.py /root/testdata/sf0.01 bloom_ hll_``).
Exits 0 iff every swept query matches. A query still running after
``QUERY_TIMEOUT_S`` seconds of wall clock is reported as
``FAIL <name> (timeout)`` and the sweep moves on to the next one.

Each query's outcome is also written, as it finishes, to the timing
ledger ``sweep-<sf>.json`` in the repo root (``<sf>`` is the basename
of ``sf_dir``): a JSON list of ``{"name", "status", "seconds"}`` with
status ``OK``, ``FAIL``, ``ERR`` or ``TIMEOUT``. Compare two ledgers
to see which queries a change made slower.
"""
import json
import os
import signal
import sys
import time
import traceback

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, _REPO)
os.chdir(_REPO)  # worker imports of presto_bloomfilter_ray need repo cwd

import duckdb  # noqa: E402
import pandas as pd  # noqa: E402

import ray  # noqa: E402

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

#: wall-clock limit per query (SIGALRM), so a stall is a named failure
QUERY_TIMEOUT_S = 600


class QueryTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise QueryTimeout()


def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return (df.sort_values(list(df.columns), kind="stable")
            .reset_index(drop=True))


def main() -> int:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    prefixes = tuple(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False,
                 log_to_driver=False)
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")

    qs, osql = E.queries(), E.oracle_sql()
    signal.signal(signal.SIGALRM, _on_alarm)
    fails = []
    n_run = 0
    ledger_path = os.path.join(
        _REPO, f"sweep-{os.path.basename(os.path.normpath(sf))}.json")
    ledger = []

    def record(name, status, t0):
        ledger.append({"name": name, "status": status,
                       "seconds": round(time.time() - t0, 2)})
        with open(ledger_path + ".tmp", "w") as f:
            json.dump(ledger, f, indent=1)
        os.replace(ledger_path + ".tmp", ledger_path)
    for name, fn in qs.items():
        if prefixes and not name.startswith(prefixes):
            continue
        n_run += 1
        t0 = time.time()
        signal.alarm(QUERY_TIMEOUT_S)
        try:
            res = fn(sf)
            if hasattr(res, "to_pandas"):
                res = res.to_pandas()
            elif not isinstance(res, pd.DataFrame):
                res = pd.DataFrame(res)
            if name not in osql:
                # non-SQL-expressible op: rows-only check (driver parity)
                ok, why = len(res) >= 0, "(no oracle: rows-only)"
            else:
                ref = con.execute(osql[name]).df()
                a, b = norm(res), norm(ref)
                ok = (a.shape == b.shape
                      and list(a.columns) == list(b.columns))
                why = ("" if ok else
                       f"shape {a.shape} vs {b.shape} "
                       f"cols {list(a.columns)} vs {list(b.columns)}")
                if ok:
                    try:
                        pd.testing.assert_frame_equal(a, b, check_dtype=True)
                    except AssertionError as e:
                        ok = False
                        why = str(e).split("\n")[0]
            status = "OK " if ok else "FAIL"
            print(f"{status} {name:40s} {time.time()-t0:6.1f}s {why}",
                  flush=True)
            record(name, status.strip(), t0)
            if not ok:
                fails.append(name)
        except QueryTimeout:
            print(f"FAIL {name} (timeout) {time.time()-t0:6.1f}s", flush=True)
            record(name, "TIMEOUT", t0)
            fails.append(name)
        except Exception:
            print(f"ERR  {name:40s} {time.time()-t0:6.1f}s", flush=True)
            traceback.print_exc()
            record(name, "ERR", t0)
            fails.append(name)
        finally:
            signal.alarm(0)

    print(f"\nTOTAL {n_run} FAILS {len(fails)} {fails}", flush=True)
    ray.shutdown()
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())

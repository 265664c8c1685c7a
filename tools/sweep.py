"""Full driver-style oracle sweep: run EVERY `__ray_entry__.queries()`
entry and its `oracle_sql()` mirror over the same parquet tables,
sort columns by name + rows, and compare values dtype-exactly — the
same comparison the round driver records in CORRECTNESS_r{N}.json.

Usage (from anywhere):

    python tools/sweep.py [--resume] [sf_dir] [name_prefix ...]

Defaults to /root/testdata/sf0.01. Optional name prefixes restrict the
sweep (e.g. ``python tools/sweep.py /root/testdata/sf0.01 bloom_ hll_``).
Exits 0 iff every swept query matches. A query still running after
``QUERY_TIMEOUT_S`` seconds of wall clock is reported as
``FAIL <name> (timeout)`` and the sweep moves on to the next one.

Each query's outcome is also written, as it finishes, to the timing
ledger ``sweep-<sf>.json`` in the repo root (``<sf>`` is the basename
of ``sf_dir``): a JSON list of ``{"name", "status", "seconds",
"schema_warnings"}`` with status ``OK``, ``FAIL``, ``ERR`` or
``TIMEOUT``. ``schema_warnings`` counts the schema warnings
(:data:`SCHEMA_WARNINGS`) Ray Data logged in the driver process while
the query ran. Compare two ledgers to see which queries a change made
slower, or which query a new warning comes from.

``--resume`` finishes a sweep that died part-way (a Ray core abort
takes the driver down with no query at fault): queries already ``OK``
in the existing ledger keep their entries and are skipped, and every
other query runs and is appended.
"""
import json
import logging
import os
import signal
import sys
import time
import traceback

import pandas as pd

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]

#: wall-clock limit per query (SIGALRM), so a stall is a named failure
QUERY_TIMEOUT_S = 600


#: Ray Data's log texts for a block whose schema differs from the
#: previous block's, and for schemas it could not hash
SCHEMA_WARNINGS = ("different schema", "Failed to hash the schemas")


class QueryTimeout(Exception):
    pass


class SchemaWarnings(logging.Handler):
    """Counts the records whose message holds one of
    :data:`SCHEMA_WARNINGS`, from the logger it is attached to and the
    loggers below it."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if any(s in record.getMessage() for s in SCHEMA_WARNINGS):
            self.count += 1


def _on_alarm(signum, frame):
    raise QueryTimeout()


def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return (df.sort_values(list(df.columns), kind="stable")
            .reset_index(drop=True))


def resumed(ledger_path: str) -> list:
    """The ``OK`` entries of an earlier run's ledger, in its order
    (none if there is no ledger): a resumed sweep keeps them and skips
    their queries."""
    try:
        with open(ledger_path) as f:
            return [e for e in json.load(f) if e["status"] == "OK"]
    except FileNotFoundError:
        return []


def to_run(names, prefixes, done) -> list:
    """The queries a sweep runs: those matching ``prefixes`` (all if
    none), minus the ``done`` ones, in their order."""
    return [n for n in names
            if (not prefixes or n.startswith(tuple(prefixes)))
            and n not in done]


def main() -> int:
    args = sys.argv[1:]
    resume = "--resume" in args
    args = [a for a in args if a != "--resume"]
    sf = args[0] if args else "/root/testdata/sf0.01"
    prefixes = tuple(args[1:])
    sys.path.insert(0, _REPO)
    os.chdir(_REPO)  # worker imports of presto_bloomfilter_ray need repo cwd
    import duckdb

    import ray
    import ray.data  # noqa: F401 (configures the "ray.data" logger)

    warnings = SchemaWarnings()
    logging.getLogger("ray.data").addHandler(warnings)
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
    ledger_path = os.path.join(
        _REPO, f"sweep-{os.path.basename(os.path.normpath(sf))}.json")
    ledger = resumed(ledger_path) if resume else []
    names = to_run(qs, prefixes, {e["name"] for e in ledger})
    if resume:
        print(f"resume: {len(ledger)} queries OK in {ledger_path}, "
              f"{len(names)} to run", flush=True)

    def record(name, status, t0):
        ledger.append({"name": name, "status": status,
                       "seconds": round(time.time() - t0, 2),
                       "schema_warnings": warnings.count})
        with open(ledger_path + ".tmp", "w") as f:
            json.dump(ledger, f, indent=1)
        os.replace(ledger_path + ".tmp", ledger_path)
    for name in names:
        t0 = time.time()
        warnings.count = 0
        signal.alarm(QUERY_TIMEOUT_S)
        try:
            res = qs[name](sf)
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

    print(f"\nTOTAL {len(names)} FAILS {len(fails)} {fails}", flush=True)
    ray.shutdown()
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())

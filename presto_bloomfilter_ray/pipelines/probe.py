"""Probe pipeline — the reference's core loop, end to end (SURVEY §7.2).

``build → persist → broadcast probe → partitioned write``: load a
persisted Bloom filter from the :class:`SketchStore`, semi-join a
Dataset against it (vectorized ``bloom_filter_contains``), write the
kept rows as partitioned parquet, and emit metrics records (rows
in/kept, selectivity, wall, throughput) — the metrics contract the
north_rule requires per stage.

Metrics come from parquet footers (input paths + written files), not
from per-batch actor RPCs: exact, no delivery races, and no single
metrics actor to bottleneck 10^5 concurrent batches at scale.
"""

from __future__ import annotations

import glob
import json
import os
import time
from typing import Dict, List, Optional, Union

import pyarrow.parquet as pq

from ..engine.ops import semi_join
from ..engine.store import open_store


def _parquet_rows(path_or_dir: Union[str, List[str]]) -> int:
    if isinstance(path_or_dir, list):
        files = path_or_dir
    elif os.path.isdir(path_or_dir):
        files = glob.glob(os.path.join(path_or_dir, "**", "*.parquet"),
                          recursive=True)
    else:
        files = [path_or_dir]
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def probe_and_write(
    ds,
    sketch_key: str,
    col: str,
    out_dir: str,
    store_root: str = "/tmp/sketch-store",
    run_id: str = "default",
    anti: bool = False,
    input_paths: Optional[List[str]] = None,
    partition_cols: Optional[List[str]] = None,
    overwrite: bool = False,
) -> Dict:
    """Semi-join ``ds`` against a persisted sketch and write the result.

    ``input_paths`` (optional) lets the caller pass the source parquet
    paths so rows_in comes from footers without re-executing the read.

    ``out_dir`` must not already contain parquet files (stale files from
    an earlier run would inflate ``rows_kept`` — counts come from the
    directory's footers); pass ``overwrite=True`` to clean it first.
    """
    stale = glob.glob(os.path.join(out_dir, "**", "*.parquet"), recursive=True)
    if stale:
        if not overwrite:
            raise FileExistsError(
                f"{out_dir} already holds {len(stale)} parquet file(s) from an "
                "earlier run; pass overwrite=True to replace them")
        import shutil

        shutil.rmtree(out_dir)
    store = open_store(store_root)
    env = store.get(sketch_key)

    t0 = time.time()
    out = semi_join(ds, col, env, anti=anti)
    if partition_cols:
        # hive layout: one directory per key value — resumable/prunable
        # output (a rerun or consumer can address partitions directly)
        out.write_parquet(out_dir, partition_cols=partition_cols)
    else:
        out.write_parquet(out_dir)
    wall = time.time() - t0
    rows_kept = _parquet_rows(out_dir)
    rows_in = _parquet_rows(input_paths) if input_paths else None
    summary = {
        "sketch_key": sketch_key,
        "anti": anti,
        "rows_in": rows_in,
        "rows_kept": rows_kept,
        "selectivity": round(rows_kept / rows_in, 6) if rows_in else None,
        "wall_s": round(wall, 3),
        "rows_per_sec": round(rows_in / wall, 1) if rows_in and wall > 0 else None,
        "out_dir": out_dir,
    }
    store.put(f"metrics/{run_id}/probe/summary.json", json.dumps(summary).encode())
    return summary

"""Zone maps: min/max statistics from parquet FOOTERS, used to prune
which files a range query reads at all.

At 100 TB "prune at the read" is the single biggest lever a range
query has: a corpus laid out by date/host/bucket answers a range
predicate from a fraction of its files, but only if something besides
the scan knows the per-file ranges. ``build_zonemap`` reads ONLY the
footers — distributed, one Ray task per batch of files, no data pages
touched — and returns a stats table orders of magnitude smaller than
the data (one row per row group). ``prune`` consults that small table
on the driver; ``pruned_read`` streams only the surviving files, with
the predicate re-applied per fragment so EXACTNESS NEVER DEPENDS ON
THE STATS: a file with absent/disabled statistics is always kept
(sound fallback), and a kept file's non-matching rows are filtered by
the residual predicate.

The zonemap table is itself a persistable artifact (plain Arrow —
write it with ``pq.write_table``): build once after ingest, reuse for
every query, the same role min/max zone maps play in warehouse
catalogs (Snowflake/Redshift) and parquet readers' row-group pruning
— lifted from "per scan, per footer" to "once, for the whole corpus".

Unlike the Bloom-filter semijoin (`engine/ops.py`, point-membership
pruning per the reference's bloom_filter_contains), a zone map prunes
RANGE predicates and costs bytes-per-file, not bits-per-key.
"""

from __future__ import annotations

import glob as _glob
import os
from typing import List, Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .fold import partition_map

__all__ = ["build_zonemap", "prune", "pruned_read", "cluster_by",
           "read_clustered"]


def _expand(paths: Union[str, Sequence[str]]) -> List[str]:
    """A directory becomes its parquet files (recursive, sorted)."""
    if isinstance(paths, str):
        paths = [paths]
    out: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            out.extend(sorted(_glob.glob(
                os.path.join(p, "**", "*.parquet"), recursive=True)))
        else:
            out.append(p)
    return out


def build_zonemap(paths: Union[str, Sequence[str]], column: str) -> pa.Table:
    """Per-row-group (path, row_group, vmin, vmax, has_stats,
    num_rows) for one flat ``column``, from footers only.

    Footer reads run through Ray Data (``from_items → map_batches``)
    so a 100k-file corpus's metadata pass is cluster-wide, not a
    driver loop; the RESULT is tiny (a few dozen bytes per row group)
    and is collected to the driver by design — it is the catalog.
    ``vmin``/``vmax`` keep the column's own Arrow type. Files where
    the writer disabled statistics get ``has_stats=False`` (pruning
    must keep them)."""
    import ray.data as rd

    files = _expand(paths)
    if not files:
        raise ValueError("no parquet files found")

    def footer_stats(b: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        rows = {"path": [], "row_group": [], "vmin": [], "vmax": [],
                "has_stats": [], "num_rows": []}
        col_type = None
        for path in b.column("path").to_pylist():
            f = pq.ParquetFile(path)
            idx = f.schema_arrow.get_field_index(column)
            if idx < 0:
                raise KeyError(f"column {column!r} not in {path}")
            col_type = f.schema_arrow.field(idx).type
            md = f.metadata
            for g in range(md.num_row_groups):
                st = md.row_group(g).column(idx).statistics
                ok = bool(st is not None and st.has_min_max)
                rows["path"].append(path)
                rows["row_group"].append(g)
                rows["vmin"].append(st.min if ok else None)
                rows["vmax"].append(st.max if ok else None)
                rows["has_stats"].append(ok)
                rows["num_rows"].append(md.row_group(g).num_rows)
        return pa.table({
            "path": pa.array(rows["path"], type=pa.string()),
            "row_group": pa.array(rows["row_group"], type=pa.int32()),
            "vmin": pa.array(rows["vmin"], type=col_type),
            "vmax": pa.array(rows["vmax"], type=col_type),
            "has_stats": pa.array(rows["has_stats"], type=pa.bool_()),
            "num_rows": pa.array(rows["num_rows"], type=pa.int64()),
        })

    parts = rd.from_items([{"path": p} for p in files]).map_batches(
        footer_stats, batch_format="pyarrow", batch_size=64).to_arrow_refs()
    import ray as _ray

    tables = [t for t in _ray.get(parts) if t.num_rows]
    return pa.concat_tables(tables).sort_by(
        [("path", "ascending"), ("row_group", "ascending")])


def prune(zonemap: pa.Table, lo=None, hi=None) -> List[str]:
    """Files whose stats could contain a value in ``[lo, hi]`` (either
    bound may be None = unbounded). A file survives if ANY of its row
    groups intersects the range OR lacks stats — never a false
    exclusion, so downstream residual filtering stays exact."""
    keep = pc.invert(zonemap.column("has_stats"))
    if lo is not None:
        t = zonemap.column("vmax").type
        hit = pc.fill_null(pc.greater_equal(
            zonemap.column("vmax"), pa.scalar(lo, type=t)), False)
    else:
        hit = zonemap.column("has_stats")
    if hi is not None:
        t = zonemap.column("vmin").type
        hit = pc.and_(hit, pc.fill_null(pc.less_equal(
            zonemap.column("vmin"), pa.scalar(hi, type=t)), False))
    keep = pc.or_(keep, hit)
    kept = zonemap.column("path").filter(keep)
    return sorted(set(kept.to_pylist()))


def pruned_read(paths: Union[str, Sequence[str]], column: str,
                lo=None, hi=None, zonemap: Optional[pa.Table] = None,
                **read_kwargs):
    """Dataset of rows with ``column`` in ``[lo, hi]``, reading ONLY
    files the zone map cannot rule out. The same predicate is pushed
    into the read as a pyarrow filter (row-group pruning + residual
    per-fragment filtering inside each kept file), so results equal a
    full-scan filter regardless of stats quality. Extra
    ``read_kwargs`` (``columns=[...]`` etc.) pass through to
    ``read_parquet``."""
    import ray.data as rd

    files = _expand(paths)
    if zonemap is None:
        zonemap = build_zonemap(files, column)
    kept = prune(zonemap, lo, hi)

    expr = None
    if lo is not None:
        expr = pc.field(column) >= lo
    if hi is not None:
        e2 = pc.field(column) <= hi
        expr = e2 if expr is None else (expr & e2)

    if not kept:
        # empty result with the true schema — footer-only, no data read
        import pyarrow.parquet as pq

        schema = pq.read_schema(files[0])
        if "columns" in read_kwargs and read_kwargs["columns"]:
            schema = pa.schema([schema.field(c)
                                for c in read_kwargs["columns"]])
        return rd.from_arrow(schema.empty_table())
    return rd.read_parquet(kept, filter=expr, **read_kwargs)


def _sortable(v: np.ndarray) -> np.ndarray:
    """Numpy view usable with searchsorted (timestamps → int64 µs)."""
    if np.issubdtype(v.dtype, np.datetime64):
        return v.astype("datetime64[us]").view(np.int64)
    return v


def cluster_by(ds, col: str, out_dir: str, *, n_files: int = 64,
               sample_cap: int = 200_000) -> dict:
    """Range-cluster ``ds`` on ``col``: one sorted parquet file per
    contiguous value range + a persisted zone-map catalog — the
    ingest-time layout that makes :func:`pruned_read` effective.

    Boundaries come from a bounded per-block sample (approximately
    equal file sizes; correctness of the layout never depends on the
    sample — ANY boundaries yield non-overlapping ranges). One
    ``groupby`` exchange places rows (inherent to clustering); each
    file is written atomically and sorted by ``col``; the catalog
    (``catalog.parquet``) and then the manifest (LAST — the commit
    point) follow, so :func:`read_clustered` refuses a torn layout
    loudly and a rerun overwrites it.

    Returns the manifest dict. 100 TB shape: the exchange is the one
    unavoidable all-to-all; files = key ranges means every later range
    query reads only intersecting files via the catalog, and a failed
    ingest is detected by the missing manifest, never by silently
    missing rows."""
    import json

    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    if n_files < 1:
        raise ValueError("n_files must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    mpath = os.path.join(out_dir, "manifest.json")
    if os.path.exists(mpath):
        os.remove(mpath)
    for stale in _glob.glob(os.path.join(out_dir, "range-*.parquet")):
        os.remove(stale)
    cpath = os.path.join(out_dir, "catalog.parquet")
    if os.path.exists(cpath):
        os.remove(cpath)

    per_block = max(64, sample_cap // max(1, n_files * 4))

    def sample(b: pa.Table) -> pa.Table:
        v = b.column(col).combine_chunks()
        n = len(v)
        if n > per_block:
            idx = np.linspace(0, n - 1, per_block).astype(np.int64)
            v = v.take(pa.array(idx))
        return pa.table({col: v})

    samp = pa.concat_tables([t for t in ray.get(
        ds.map_batches(sample, batch_format="pyarrow",
                       batch_size=None).to_arrow_refs())
        if t.num_columns and t.num_rows])
    sv = np.sort(_sortable(np.asarray(samp.column(col))))
    if sv.size == 0:
        raise ValueError("cluster_by: empty input")
    qs = np.linspace(0, 1, n_files + 1)[1:-1]
    bounds = np.unique(sv[(qs * (sv.size - 1)).astype(np.int64)])

    def assign(b: pa.Table) -> pa.Table:
        v = _sortable(np.asarray(b.column(col)))
        shard = np.searchsorted(bounds, v, side="right")
        return b.append_column("_shard", pa.array(shard.astype(np.int64)))

    def write_range(s: int, g: pa.Table) -> pa.Table:
        order = np.argsort(_sortable(np.asarray(g.column(col))),
                           kind="stable")
        g = g.take(pa.array(order)).drop_columns(["_shard"])
        tmp = os.path.join(out_dir, f".range-{s:05d}.tmp")
        pq.write_table(g, tmp)
        os.replace(tmp, os.path.join(out_dir, f"range-{s:05d}.parquet"))
        return pa.table({"shard": pa.array([s], type=pa.int64()),
                         "rows": pa.array([g.num_rows], type=pa.int64())})

    stats = partition_map(ds.map_batches(assign, batch_format="pyarrow",
                                         batch_size=None),
                          write_range, key="_shard", width=n_files).to_pandas()

    # catalog from the explicit range-file list (the directory also
    # holds the catalog itself on rerun — never glob it into the stats)
    z = build_zonemap(
        [os.path.join(out_dir, f"range-{int(s):05d}.parquet")
         for s in stats["shard"]], col)
    ztmp = os.path.join(out_dir, ".catalog.tmp")
    pq.write_table(z, ztmp)
    os.replace(ztmp, os.path.join(out_dir, "catalog.parquet"))

    manifest = {"col": col, "rows": int(stats["rows"].sum()),
                "files": sorted(int(s) for s in stats["shard"])}
    tmp = os.path.join(out_dir, ".manifest.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, mpath)
    return manifest


def read_clustered(out_dir: str, lo=None, hi=None, **read_kwargs):
    """Range query over a :func:`cluster_by` layout using its
    PERSISTED catalog — no footer reads at query time. Refuses a torn
    layout (missing manifest) loudly."""
    import json

    import pyarrow.parquet as pq

    mpath = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(mpath):
        raise FileNotFoundError(
            f"{out_dir} has no manifest.json — torn or foreign layout")
    with open(mpath) as f:
        manifest = json.load(f)
    z = pq.read_table(os.path.join(out_dir, "catalog.parquet"))
    return pruned_read(
        [os.path.join(out_dir, f"range-{s:05d}.parquet")
         for s in manifest["files"]],
        manifest["col"], lo, hi, zonemap=z, **read_kwargs)

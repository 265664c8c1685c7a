"""Bucket-keyed exact aggregation — the scale-safe replacement for
high-cardinality ``groupby(key).aggregate(...)``.

Ray 2.49's sort-based aggregate pays per-GROUP overhead on the reduce
side: summing 17M partial rows into 1M distinct keys costs ~100 s,
while the identical reduction grouped by ``hash(key) % num_buckets``
(small fixed cardinality) and folded per bucket with one vectorized
polars ``group_by`` costs ~2 s (measured; PERF.md §23). Exchange
volume and key co-location are identical — every row of a key lands in
that key's bucket — so the result table is bit-identical for the
order-independent ops supported here (sum / min / max / count).

This module generalizes the fold used by ``functions/graph.py``:

* map-side pre-fold (one vectorized ``group_by`` per input block)
  shrinks the exchange to per-block-distinct keys before any shuffle —
  the classic combiner, with ``count`` correctly rewritten to ``sum``
  on the combine side;
* the bucket column is a mixed 64-bit hash of the key columns, so
  correlated or clustered key values (sequential doc ids, sorted
  hashes) still spread evenly across buckets;
* skew: a bucket holds ~``n_keys / num_buckets`` DISTINCT keys no
  matter how hot any single key is, because the map-side pre-fold
  collapses each block's duplicates first — a Zipf-hot key contributes
  at most one row per input block to the exchange.

The fold rides on :func:`exchange`, the one bucketed exchange for
per-key reduces: rows are tagged map-side with their key's bucket and a
vectorized reducer runs once per non-empty bucket, never once per key.

Used by: exact_dedup, dedup_lines_keep_first, connected components,
boilerplate/substring scrubs, pair-verification folds, PageRank (all via
``bucket_fold``); cap_per_key, grouped_sketch / salted_grouped_sketch,
the per-key window family and snapshot_delta (via ``exchange``).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa

__all__ = ["append_bucket", "bucket_fold", "exchange"]

#: default bucket count of every bucketed exchange
NUM_BUCKETS = 64

#: ops supported: (polars map-side expr, polars combine-side expr)
_OPS = {"sum", "min", "max", "count"}


def _exprs(aggs: Sequence[Tuple[Optional[str], str, str]], combine: bool):
    """polars agg expressions for the map (raw rows) or combine
    (partial rows) side. ``count`` maps to ``len`` on raw rows and to
    ``sum`` of partial counts on the combine side."""
    import polars as pl

    out = []
    for col, op, alias in aggs:
        if op == "count":
            e = (pl.col(alias).sum() if combine
                 else pl.len().cast(pl.Int64))
        else:
            src = alias if combine else col
            e = getattr(pl.col(src), op)()
        out.append(e.alias(alias))
    return out


def append_bucket(b: pa.Table, key_cols, num_buckets: int,
                  alias: str = "_b") -> pa.Table:
    """Append ``alias = mixed_hash(struct(key_cols)) % num_buckets``.

    THE canonical co-location bucket for every bucket-keyed exchange
    in this package (fold, windows, snapshot delta): polars struct
    hash (seed 41) then a Fibonacci avalanche so sequential/clustered
    keys spread evenly. All rows of equal keys land in one bucket."""
    import polars as pl

    h = (pl.from_arrow(b.select(list(key_cols)))
         .select(pl.struct(list(key_cols)).hash(seed=41)
                 .alias("h"))["h"].to_numpy())
    mixed = (h.astype(np.uint64)
             * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
    return b.append_column(alias, pa.array(
        (mixed % np.uint64(num_buckets)).astype(np.int64)))


def exchange(ds, keys: Sequence[str],
             fn: Callable[[pa.Table], pa.Table], *,
             pre: Optional[Callable[[pa.Table], pa.Table]] = None,
             num_buckets: int = NUM_BUCKETS,
             batch_size: Optional[int] = None):
    """Run ``fn`` once per non-empty bucket of ``hash(keys)``.

    Map side: ``pre`` (an optional per-block combiner, e.g. a partial
    top-k or a pre-fold) then :func:`append_bucket`. Reduce side: one
    ``groupby("_b").map_groups`` over at most ``num_buckets`` groups;
    ``fn`` gets the whole bucket without the ``_b`` column and must be
    vectorized over the keys inside it. Every row of a key lands in one
    bucket, so a per-key reduction inside ``fn`` is exact. Ray 2.49's
    sort-based ``map_groups`` pays per GROUP (one task-side slice, batch
    conversion and UDF call each); grouping by the bucket instead of the
    raw key bounds that to ``num_buckets`` calls at any key cardinality.
    ``fn`` must return a typed table even when its bucket filters to
    empty, so downstream blocks share one schema.
    """
    keys = list(keys)

    def tag(b: pa.Table) -> pa.Table:
        if pre is not None:
            b = pre(b)
        return append_bucket(b, keys, num_buckets)

    def reduce_bucket(g: pa.Table) -> pa.Table:
        return fn(g.drop_columns(["_b"]))

    return (ds.map_batches(tag, batch_format="pyarrow",
                           batch_size=batch_size)
            .groupby("_b").map_groups(reduce_bucket,
                                      batch_format="pyarrow"))


def bucket_fold(ds, keys: Sequence[str],
                aggs: Sequence[Tuple[Optional[str], str, str]],
                num_buckets: int = NUM_BUCKETS):
    """Exact ``groupby(keys).aggregate(...)`` via a bucket-keyed fold.

    ``aggs``: tuples ``(col, op, alias)`` with ``op`` in
    ``{"sum", "min", "max", "count"}`` (``col`` is ignored for
    ``count``). Returns a Dataset with columns ``keys + aliases``;
    values are bit-identical to the Ray aggregate for these
    order-independent ops. Key columns must be non-null (all callers
    group on computed hashes / ids). ``num_buckets`` bounds reduce
    parallelism and per-task group size — size it like a shuffle
    partition count (a bucket holds ~n_distinct_keys/num_buckets keys).
    """
    import polars as pl

    keys = list(keys)
    for _, op, _ in aggs:
        if op not in _OPS:
            raise ValueError(f"unsupported op {op!r}")
    map_exprs = _exprs(aggs, combine=False)
    combine_exprs = _exprs(aggs, combine=True)
    out_cols = keys + [a for _, _, a in aggs]

    def prefold(b: pa.Table) -> pa.Table:
        return pl.from_arrow(b).group_by(keys).agg(map_exprs).to_arrow()

    def fold(g: pa.Table) -> pa.Table:
        t = pl.from_arrow(g).group_by(keys).agg(combine_exprs)
        return t.select(out_cols).to_arrow()

    return exchange(ds, keys, fold, pre=prefold, num_buckets=num_buckets)

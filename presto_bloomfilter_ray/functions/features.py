"""Feature-engineering operators: group-wise standardization and
categorical pivot — the tabular prep stages of a training pipeline.

Both follow the repo's exactness discipline so their SQL oracles
compare full values, not tolerances:

* `standardize_by_key` folds per-key moments as EXACT scaled-int sums
  (the `_add_cents` trick, squared sums included), then derives
  mean/std/z in one fixed expression order shared with the SQL mirror
  — distributed accumulation order cannot move the result.
* `pivot_counts` one-hot-encodes the category column inside
  ``map_batches`` (one int column per requested category) and lets a
  single ``groupby(row).sum`` finalize — fully distributed, no
  driver-side pivot of intermediate data.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .fold import exchange

__all__ = ["standardize_by_key", "pivot_counts", "rollup_counts",
           "ntile_by_key", "set_op_counts", "explode_list",
           "mad_outliers_by_key"]


def standardize_by_key(ds, key_col: str, value_col: str, *,
                       scale: int = 100, round_digits: int = 6,
                       out_col: str = "z"):
    """Append per-key z-scores of ``value_col`` (population std).

    Two passes: (1) per-batch polars combine of per-key
    ``(n, Σv·scale, Σ(v·scale)²)`` int64 partials → tiny
    ``groupby(key).sum`` (the moment table is n_keys rows — broadcast
    to pass 2 by closure); (2) a map stage computing
    ``z = round((v - μ)/σ, d)`` with
    ``μ = (s1/scale)/n``, ``σ = sqrt((s2/scale²)/n - μ·μ)`` — the
    exact expression the SQL mirror uses. Keys with σ = 0 yield NULL.

    ``scale`` must make ``v·scale`` integral (100 for 2-dp money);
    Σ(v·scale)² must fit int64 — fine for 2-dp values < 10⁶ over
    ≤ 10⁸ rows per key.
    """
    import polars as pl
    from ray.data.aggregate import Sum

    def moments(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b.column(key_col)))  # SQL join-on-key
        cents = pc.round(pc.multiply(b.column(value_col),
                                     pa.scalar(float(scale)))).cast(pa.int64())
        t = pl.DataFrame({"key": pl.from_arrow(b.column(key_col)),
                          "c": pl.from_arrow(cents)})
        return (t.group_by("key")
                .agg(n=pl.len().cast(pl.Int64),
                     s1=pl.col("c").sum(),
                     s2=(pl.col("c") * pl.col("c")).sum())
                .to_arrow())

    stats = (ds.map_batches(moments, batch_format="pyarrow")
             .groupby("key")
             .aggregate(Sum("n", alias_name="n"),
                        Sum("s1", alias_name="s1"),
                        Sum("s2", alias_name="s2"))
             .take_all())
    key_list = sorted(r["key"] for r in stats)
    pos = {k: i for i, k in enumerate(key_list)}
    mu_arr = np.zeros(len(key_list))
    sig_arr = np.zeros(len(key_list))
    for r in stats:
        n, s1, s2 = r["n"], r["s1"], r["s2"]
        m = (s1 / scale) / n
        mu_arr[pos[r["key"]]] = m
        sig_arr[pos[r["key"]]] = np.sqrt(
            (s2 / (scale * scale)) / n - m * m)
    key_set = pa.array(key_list)

    def z(b: pa.Table) -> pa.Table:
        idx = np.asarray(pc.fill_null(
            pc.index_in(b.column(key_col), value_set=key_set),
            -1).cast(pa.int64()))
        m = mu_arr[idx]  # NULL key → -1 → value irrelevant, masked below
        s = sig_arr[idx]
        v = np.asarray(b.column(value_col), dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.round((v - m) / s, round_digits)
        bad = ~(s > 0) | (idx < 0)
        arr = pa.array(np.where(bad, np.nan, out), type=pa.float64(),
                       mask=bad)
        return b.append_column(out_col, arr)

    return ds.map_batches(z, batch_format="pyarrow")


def rollup_counts(ds, keys: List[str], sum_cols: Optional[List[str]] = None):
    """``GROUP BY ROLLUP(keys)`` for decomposable aggregates (count +
    int sums): the input aggregates ONCE at the finest granularity;
    every coarser level re-aggregates the (tiny) previous level's
    RESULT — the corpus is read and shuffled exactly once regardless
    of rollup depth. Rolled-up key columns are NULL, as in SQL.

    Returns pandas with columns ``keys + ['n'] + sum_cols``, all
    levels unioned (finest → grand total).
    """
    import pandas as pd
    from ray.data.aggregate import Count, Sum

    scols = list(sum_cols or [])
    aggs = [Count(alias_name="n")] + [Sum(c, alias_name=c) for c in scols]
    finest = (ds.groupby(list(keys)).aggregate(*aggs).to_pandas())
    levels = [finest]
    cur = finest
    for depth in range(len(keys) - 1, -1, -1):
        kept = list(keys[:depth])
        gb = (cur.groupby(kept, dropna=False)[["n"] + scols].sum()
              .reset_index() if kept
              else cur[["n"] + scols].sum().to_frame().T)
        for k in keys[depth:]:
            gb[k] = None
        cur = gb
        levels.append(gb[list(keys) + ["n"] + scols])
    out = pd.concat([lv[list(keys) + ["n"] + scols] for lv in levels],
                    ignore_index=True)
    for c in ["n"] + scols:
        out[c] = out[c].astype("int64")
    return out


def _median(e):
    """numpy's ``np.median`` of a float64 group as a polars expression:
    the mean of the middle pair of the sorted values (linear
    interpolation at 0.5, the same double SQL ``median()`` computes),
    NaN when any value is NaN."""
    import polars as pl

    s, n = e.sort(), e.len()
    return (pl.when(e.is_nan().any()).then(float("nan"))
            .otherwise((s.get((n - 1) // 2) + s.get(n // 2)) / 2))


def mad_outliers_by_key(ds, key_col: str, value_col: str,
                        k: float = 3.0, round_digits: int = 6):
    """Robust per-key outlier detection: flag rows with
    ``|v - median| > k · MAD`` (median absolute deviation) — the
    robust-statistics alternative to z-scores (medians don't move when
    the outliers themselves do).

    Exact medians via one vectorized polars ``group_by`` per
    :func:`~.fold.exchange` bucket (every row of a key lands in one
    bucket; for corpus-scale keys use the KLL
    `~.sampling.quantile_band_filter` instead). Median/MAD use linear
    interpolation — numpy and SQL ``median()`` compute the identical
    double; NULL values count as NaN. Returns per-key ``(key, n,
    median, mad, n_outliers)`` with median/mad rounded to
    ``round_digits``.
    """
    def per_bucket(g: pa.Table) -> pa.Table:
        import polars as pl

        v = pl.col(value_col).cast(pl.Float64).fill_null(float("nan"))
        med = _median(v)
        dev = (v - med).abs()
        mad = _median(dev)
        t = pl.from_arrow(g).group_by(key_col).agg(
            n=pl.len().cast(pl.Int64), median=med, mad=mad,
            n_outliers=(dev > k * mad).sum().cast(pl.Int64))
        return pa.table({
            key_col: t[key_col].to_arrow().cast(g.schema.field(key_col).type),
            "n": t["n"].to_arrow(),
            **{c: pa.array([round(x, round_digits) for x in t[c]],
                           pa.float64()) for c in ("median", "mad")},
            "n_outliers": t["n_outliers"].to_arrow(),
        })

    return exchange(ds, [key_col], per_bucket)


def ntile_by_key(ds, key_col: str, value_col: str, n: int,
                 order_cols: Optional[List[str]] = None,
                 out_col: str = "tile"):
    """Append the SQL ``NTILE(n) OVER (PARTITION BY key ORDER BY
    value[, order_cols])`` bucket (1-based) — exact NTILE semantics:
    with ``cnt = q·n + rem``, the first ``rem`` buckets get ``q+1``
    rows. Ties are made deterministic by ``order_cols`` (pass a unique
    id); NULL and NaN values sort last. One vectorized polars pass per
    :func:`~.fold.exchange` bucket, like `~.windows.session_windows`."""
    sort_cols = [value_col, *(order_cols or [])]

    def tile(g: pa.Table) -> pa.Table:
        import polars as pl

        cnt = pl.len().over(key_col)
        r = pl.int_range(pl.len()).over(key_col)  # rank in sorted order
        q, rem = cnt // n, cnt % n
        big = rem * (q + 1)  # rows covered by the size-(q+1) buckets
        t = (pl.from_arrow(g.select([key_col, *sort_cols]))
             .with_row_index("_i")
             .sort(sort_cols, nulls_last=True, maintain_order=True)
             .select("_i", pl.when(r < big).then(r // (q + 1))
                     .otherwise(rem + (r - big) // pl.max_horizontal(q, 1))
                     .cast(pl.Int64).alias("_t") + 1))
        return (g.take(t["_i"].to_arrow())
                .append_column(out_col, t["_t"].to_arrow()))

    return exchange(ds, [key_col], tile)


def set_op_counts(left, left_col: str, right, right_col: str):
    """Exact distributed set algebra over two key columns: distinct
    counts of left, right, union, intersection, and both differences —
    one co-shuffled pass (the exact complement of the Theta-sketch
    estimates).

    Map side dedups each batch's keys and tags provenance
    ``(k, in_l, in_r)``; a single ``groupby(k).max`` resolves global
    membership; a per-batch partial fold collapses the key table to
    five counters before the final tiny sum. NULL keys are ignored
    (SQL DISTINCT-set semantics).
    """
    import pandas as pd
    from ray.data.aggregate import Max, Sum

    def tag(col_name, in_l):
        def f(b: pa.Table) -> pa.Table:
            k = b.column(col_name)
            if isinstance(k, pa.ChunkedArray):
                k = k.combine_chunks()
            k = k.drop_null().unique()
            one = np.ones(len(k), dtype=np.int64) * in_l
            return pa.table({"k": k,
                             "in_l": pa.array(one),
                             "in_r": pa.array(1 - one)})
        return f

    tagged = (left.select_columns([left_col])
              .map_batches(tag(left_col, 1), batch_format="pyarrow")
              .union(right.select_columns([right_col])
                     .map_batches(tag(right_col, 0),
                                  batch_format="pyarrow")))
    member = (tagged.groupby("k")
              .aggregate(Max("in_l", alias_name="in_l"),
                         Max("in_r", alias_name="in_r")))

    def fold(b: pa.Table) -> pa.Table:
        il = np.asarray(b.column("in_l"))
        ir = np.asarray(b.column("in_r"))
        return pa.table({
            "n_union": pa.array([len(il)], pa.int64()),
            "n_intersect": pa.array([int(np.sum(il & ir))], pa.int64()),
            "n_left": pa.array([int(np.sum(il))], pa.int64()),
            "n_right": pa.array([int(np.sum(ir))], pa.int64()),
        })

    tot = member.map_batches(fold, batch_format="pyarrow").sum(
        ["n_union", "n_intersect", "n_left", "n_right"])
    tot = tot or {}
    g = lambda c: int(tot.get(f"sum({c})", 0) or 0)  # noqa: E731
    return pd.DataFrame({
        "n_left": [g("n_left")], "n_right": [g("n_right")],
        "n_union": [g("n_union")], "n_intersect": [g("n_intersect")],
        "n_left_only": [g("n_left") - g("n_intersect")],
        "n_right_only": [g("n_right") - g("n_intersect")],
    })


def explode_list(ds, list_col: str, *, pos_col: str = "pos",
                 value_col: str = "value", keep_cols: Optional[List[str]]
                 = None, ordinal_base: int = 1):
    """Flatten a list column to one row per element with its 1-based
    ordinal — SQL ``unnest(col) WITH ORDINALITY``
    (DuckDB ``generate_subscripts``). Fully vectorized: Arrow
    ``list_flatten`` + ``list_parent_indices`` + an arange-minus-starts
    ordinal; carried columns gather with one ``take``. NULL/empty
    lists contribute no rows."""

    def flat(b: pa.Table) -> pa.Table:
        col = b.column(list_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vals = pc.list_flatten(col)
        parents = pc.list_parent_indices(col)
        p = np.asarray(parents)
        starts = np.zeros(len(p), dtype=np.int64)
        if len(p):
            first = np.concatenate(([0], np.flatnonzero(np.diff(p)) + 1))
            starts = np.repeat(first, np.diff(
                np.concatenate((first, [len(p)]))))
        ordinal = np.arange(len(p), dtype=np.int64) - starts + ordinal_base
        cols = {}
        for k in (keep_cols or [c for c in b.column_names
                                if c != list_col]):
            cols[k] = pc.take(b.column(k), parents)
        cols[pos_col] = pa.array(ordinal)
        cols[value_col] = vals
        return pa.table(cols)

    return ds.map_batches(flat, batch_format="pyarrow")


def pivot_counts(ds, row_key: str, col_key: str,
                 categories: List[str], prefix: str = "n_"):
    """Wide count pivot: one row per ``row_key`` value, one int64
    ``{prefix}{category}`` column per requested category (others are
    ignored — mirror with explicit CASE sums in SQL). One-hot encode
    map-side, one ``groupby(row).sum`` — no row shuffle beyond it."""
    cats = list(categories)

    def onehot(b: pa.Table) -> pa.Table:
        col = b.column(col_key)
        cols = {row_key: b.column(row_key)}
        for c in cats:
            cols[prefix + c] = pc.cast(pc.equal(col, c), pa.int64())
        return pa.table(cols)

    from .fold import bucket_fold

    return bucket_fold(ds.map_batches(onehot, batch_format="pyarrow"),
                       [row_key],
                       [(prefix + c, "sum", prefix + c) for c in cats])

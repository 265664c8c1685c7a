"""Column profiling — the data-quality pass run before training jobs:
per-column row / null / exact-distinct counts over any Dataset.

One tokenizing-free pass: each batch emits, per column, one meta row
(rows, nulls) and its batch-distinct 64-bit value hashes (the
word_count combiner shape — the exchange carries per-batch distinct
hashes, never values). Distinct counts are exact up to 64-bit hash
collisions (≈ n²/2⁶⁴ — the same contract `exact_dedup` ships with).
NULLs are excluded from distinct, matching SQL ``count(DISTINCT c)``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["profile_table"]


def profile_table(ds, columns: Optional[List[str]] = None):
    """→ pandas ``(column, n_rows, n_null, n_distinct)`` sorted by
    column name."""
    import pandas as pd
    import polars as pl
    from ray.data.aggregate import Count, Sum

    cols = columns or ds.schema().names

    def partials(b: pa.Table) -> pa.Table:
        out_col, out_h, out_rows, out_null = [], [], [], []
        for c in cols:
            col = b.column(c)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            out_col.append(c)
            out_h.append(None)  # meta row
            out_rows.append(len(col))
            out_null.append(col.null_count)
            nn = col.drop_null()
            if len(nn):
                s = pl.from_arrow(nn)
                if isinstance(s, pl.DataFrame):  # pragma: no cover
                    s = s.to_series()
                hs = np.unique(
                    s.hash(seed=0xC01).to_numpy().astype(np.int64))
                out_col.extend([c] * len(hs))
                out_h.extend(hs.tolist())
                out_rows.extend([0] * len(hs))
                out_null.extend([0] * len(hs))
        return pa.table({
            "col": pa.array(out_col, type=pa.string()),
            "h": pa.array(out_h, type=pa.int64()),
            "n_rows": pa.array(out_rows, type=pa.int64()),
            "n_null": pa.array(out_null, type=pa.int64()),
        })

    import pyarrow.compute as pc

    tagged = ds.map_batches(partials, batch_format="pyarrow").materialize()
    meta = (tagged.map_batches(
                lambda b: b.filter(pc.is_null(b.column("h"))),
                batch_format="pyarrow")
            .groupby("col")
            .aggregate(Sum("n_rows", alias_name="n_rows"),
                       Sum("n_null", alias_name="n_null"))
            .to_pandas())
    distinct = (tagged.map_batches(
                    lambda b: b.filter(pc.is_valid(b.column("h"))),
                    batch_format="pyarrow")
                .groupby(["col", "h"]).aggregate(Count(alias_name="_"))
                .groupby("col").count().to_pandas()
                .rename(columns={"count()": "n_distinct"}))
    if distinct.empty:  # every column all-NULL: no hash rows at all
        distinct = pd.DataFrame({"col": pd.array([], dtype="object"),
                                 "n_distinct": pd.array([], dtype="int64")})
    out = meta.merge(distinct, on="col", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    out = out.rename(columns={"col": "column"})
    return (out[["column", "n_rows", "n_null", "n_distinct"]]
            .sort_values("column").reset_index(drop=True))


def skew_report(ds, key_col: str, *, quantiles=(0.5, 0.9, 0.99),
                top_k: int = 5):
    """Group-size skew diagnostic for a prospective groupby/shuffle
    key: ``(report_row, top_keys)``.

    ``report_row`` is a one-row pandas frame (n_keys, n_rows, max_cnt,
    one EXACT pXX per requested quantile of the per-key counts);
    ``top_keys`` is a pandas frame of the ``top_k`` heaviest keys with
    counts, tie-broken (cnt DESC, key ASC) deterministically. Run it
    BEFORE committing to a groupby/repartition on ``key_col`` — the
    p99/max vs p50 ratio is the straggler forecast, and the top keys
    are the salting candidates.

    Scale shape: the only exchange is the `bucket_fold` count
    (16 B/row); the counts table (one row per DISTINCT key) is
    materialized — bounded by key cardinality, not corpus rows — and
    quantiles over it use the sort-free histogram narrowing of
    :func:`~.quantiles.exact_quantile`. Top keys come from per-block
    partial top-k folds, never a global sort."""
    import polars as pl
    from ray.data.aggregate import Max

    from .fold import bucket_fold
    from .quantiles import exact_quantile

    # the projection rides as ``pre``: a select_columns would hide the
    # input's free row count, so the fold could not be count-sized
    counts = bucket_fold(ds, [key_col], [(None, "count", "cnt")],
                         pre=lambda b: b.select([key_col])).materialize()
    n_keys = counts.count()
    if n_keys == 0:
        raise ValueError(f"skew_report: no rows under key {key_col!r}")
    n_rows = int(counts.sum("cnt"))
    max_cnt = int(counts.aggregate(Max("cnt"))["max(cnt)"])
    qv = exact_quantile(counts, "cnt", list(quantiles))

    def blk_top(b: pa.Table) -> pa.Table:
        t = pl.from_arrow(b).sort(
            ["cnt", key_col], descending=[True, False]).head(top_k)
        return t.to_arrow()

    import ray

    parts = [t for t in ray.get(
        counts.map_batches(blk_top, batch_format="pyarrow",
                           batch_size=None).to_arrow_refs())
        if t.num_columns and t.num_rows]
    tops = (pl.from_arrow(pa.concat_tables(parts))
            .sort(["cnt", key_col], descending=[True, False])
            .head(top_k).to_pandas())

    row = {"n_keys": np.int64(n_keys), "n_rows": np.int64(n_rows),
           "max_cnt": np.int64(max_cnt)}
    for q, v in zip(quantiles, qv):
        row[f"p{int(round(q * 100))}"] = np.int64(v)
    return pd.DataFrame([row]), tops

"""As-of join — attach the latest prior (or next) right-side row per key.

One kernel, two partitionings. :func:`_asof` joins a block of left
rows to a ts-sorted right table with one polars ``join_asof`` (``by``
the key, timestamps compared in µs) and attaches the matched right
row's values with one ``take`` per column. The two plans differ only
in how left rows meet the right rows of their key:

* :func:`asof_join` — one partition: the (smaller) right side is
  sorted once and broadcast with ``ray.put``; every left batch runs the
  kernel against all of it, and the left side is never shuffled.
* :func:`asof_join_bucketed` — the large-right-side plan: both sides
  meet in the partitions of :func:`~.fold.co_attach` on the hashed
  key, and each partition runs the kernel on its own rows. All rows of
  one key land in one partition; scale ``n_buckets`` with the cluster.

Semantics match SQL ``ASOF JOIN`` (DuckDB): for ``direction=
"backward"``, each left row gets the right row with the greatest
``ts_right <= ts_left`` for its key (``"forward"``: the least
``ts_right >= ts_left``); left rows with no match, a NULL key or a
NULL timestamp keep nulls. Among right rows tied on key and
timestamp, the broadcast plan takes the last (backward) or first
(forward) in ``right_df``'s order, the bucketed plan any one of them.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from .fold import co_attach

_US = pa.timestamp("us")


def _asof(left: pa.Table, right: pa.Table, key: str, ts: str,
          value_cols: List[str], direction: str, suffix: str) -> pa.Table:
    """``left`` plus ``<ts><suffix>`` (µs) and ``<col><suffix>`` of its
    as-of match in ``right`` (columns ``key``, ``ts`` as µs and
    ``value_cols``, sorted by ``ts``); nulls where unmatched."""
    import polars as pl

    def frame(idx, t, kcol):
        return pl.from_arrow(pa.table({
            idx: np.arange(t.num_rows, dtype=np.int64), "_k": kcol,
            "_ts": pc.cast(t.column(ts), _US, safe=False)}))

    lf = frame("_i", left, left.column(key)).sort("_ts")
    rf = frame("_j", right,
               right.column(key).cast(left.schema.field(key).type))
    match = (lf.join_asof(rf, on="_ts", by="_k", strategy=direction,
                          check_sortedness=False)
             .sort("_i")["_j"].to_arrow())
    out = left.append_column(f"{ts}{suffix}", right.column(ts).take(match))
    for c in value_cols:
        out = out.append_column(f"{c}{suffix}", right.column(c).take(match))
    return out


def _check(direction: str):
    if direction not in ("backward", "forward"):
        raise ValueError("direction must be 'backward' or 'forward'")


def range_join(left_ds, intervals_df, on: str, lo: str = "lo", hi: str = "hi",
               value_cols: List[str] = ("label",), suffix: str = ""):
    """Non-equi broadcast range join: each left row gains the columns of
    the interval with ``lo <= left[on] < hi``.

    Intervals must be non-overlapping (validated); they're broadcast
    sorted by ``lo`` and probed with one ``searchsorted`` per batch —
    the standard banding/bucketing join (price bands, latency buckets,
    IP ranges). Rows outside every interval get nulls.
    """
    import pandas as pd

    iv = intervals_df.sort_values(lo).reset_index(drop=True)
    los = iv[lo].to_numpy()
    his = iv[hi].to_numpy()
    if (his[:-1] > los[1:]).any():
        raise ValueError("intervals overlap; range_join requires disjoint intervals")
    vals = {c: pa.Array.from_pandas(iv[c]) for c in value_cols}
    ref = ray.put((los, his, vals))

    def probe(batch: pa.Table) -> pa.Table:
        L, H, V = ray.get(ref)
        n = batch.num_rows
        if n == 0:
            out = batch
            for c in value_cols:
                out = out.append_column(f"{c}{suffix}", pa.nulls(0, V[c].type))
            return out
        x = np.asarray(batch.column(on).cast(pa.float64()))
        idx = np.searchsorted(L, x, side="right") - 1
        idx_c = np.clip(idx, 0, len(L) - 1)
        ok = (idx >= 0) & (x < H[idx_c])
        # null indices → null outputs: one vectorized take per column,
        # no per-row object materialization
        indices = pa.array(idx_c, mask=~ok)
        out = batch
        for c in value_cols:
            out = out.append_column(f"{c}{suffix}", pc.take(V[c], indices))
        return out

    return left_ds.map_batches(probe, batch_format="pyarrow")


def asof_join(left_ds, right_df, key: str, ts: str, value_cols: List[str],
              direction: str = "backward", suffix: str = "_r"):
    """Broadcast as-of join: every left row gains ``<col><suffix>`` for
    each right ``value_cols`` plus ``<ts><suffix>`` (null when no match).

    ``right_df`` is a pandas DataFrame (the broadcastable side).
    """
    _check(direction)
    right = pa.Table.from_pandas(right_df[[key, ts, *value_cols]],
                                 preserve_index=False)
    right = right.set_column(1, ts, pc.cast(right.column(ts), _US,
                                            safe=False))
    ref = ray.put(right.sort_by(ts))

    def probe(batch: pa.Table) -> pa.Table:
        return _asof(batch, ray.get(ref), key, ts, value_cols, direction,
                     suffix)

    return left_ds.map_batches(probe, batch_format="pyarrow")


def asof_join_bucketed(left_ds, right_ds, key: str, ts: str,
                       value_cols: List[str], direction: str = "backward",
                       suffix: str = "_r", n_buckets: int = 64):
    """As-of join where BOTH sides are Datasets — no broadcast.

    Both sides meet in partition ``hash(key) & (n_buckets - 1)`` of one
    :func:`~.fold.co_attach`, and every partition runs the same kernel
    as :func:`asof_join`. The right side ships only ``[key, ts,
    *value_cols]``; both sides carry the key as one type (it is hashed
    to pick the partition). Output = every left row (``ts`` as µs) +
    ``<ts><suffix>`` and ``<col><suffix>`` columns (nulls when
    unmatched) — identical semantics to :func:`asof_join`.
    """
    from ..sketches.hashing import hash64

    _check(direction)
    h = "_asof_h"

    def hashed(b: pa.Table) -> pa.Table:
        return b.append_column(h, pa.array(
            hash64(b.column(key), 0xA50F).view(np.int64)))

    def arrow_types(ds):
        """``ds`` with the hash column, and its ``{column: Arrow type}``
        with ``ts`` as µs (read from ``ds`` itself when every hashed
        block is empty)."""
        tagged = ds.map_batches(hashed, batch_format="pyarrow")
        s = (tagged.schema() or ds.schema()).base_schema
        return tagged, {**dict(zip(s.names, s.types)), h: pa.int64(),
                        ts: _US}

    left_h, ltypes = arrow_types(left_ds)
    right_h, rtypes = arrow_types(right_ds)
    keyed_schema = [(n, rtypes[n]) for n in [key, ts, *value_cols, h]]

    def join(keyed: pa.Table, rows: pa.Table) -> pa.Table:
        return _asof(rows.drop_columns([h]), keyed.sort_by(ts), key, ts,
                     value_cols, direction, suffix)

    return co_attach(right_h, left_h, join, left_key=h, right_key=h,
                     n_parts=n_buckets, left_schema=keyed_schema,
                     right_schema=list(ltypes.items()))

"""Event-time windowed aggregates over a batch log table.

Ray Data has no native event-time windows/watermarks (it's a batch
engine); these operators express the standard window shapes with the
Dataset primitives, per the documented pattern: tumbling/sliding =
vectorized window-key assignment inside ``map_batches`` + groupby
(each event maps to its window keys map-side — the shuffle moves
pre-keyed rows once); the per-key ordered family (lag / cumulative /
transitions / session) = ``groupby(hash(key) % B).map_groups`` with
ONE vectorized polars ``sort(key, ts) + over(key)`` pass per bucket —
never a Ray group per key (Ray 2.49's per-GROUP reduce overhead is
~100 s at 1M distinct keys; the bucket shape amortizes it to B
groups, PERF.md §24/§48).

Late data: a batch table has no lateness — all rows are present; the
window assignment is deterministic, so re-runs are idempotent.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from .fold import exchange

_US = 1_000_000


def _pl_us(t, ts_col: str):
    """polars expression: the ts column as epoch-µs int64."""
    import polars as pl

    if isinstance(t.schema[ts_col], pl.Datetime):
        return pl.col(ts_col).dt.epoch(time_unit="us")
    return pl.col(ts_col).cast(pl.Int64)


def _ts_us(col) -> np.ndarray:
    # normalize to µs first: a timestamp[ns] source (pandas' parquet
    # default) cast straight to int64 would put window math on the
    # wrong scale — arrow rescales on timestamp-to-timestamp casts
    if pa.types.is_timestamp(col.type):
        col = col.cast(pa.timestamp("us"))
    return np.asarray(col.cast(pa.int64()))


def add_tumbling_window(batch: pa.Table, ts_col: str, size_s: int,
                        out_col: str = "window_start") -> pa.Table:
    """Vectorized tumbling-window assignment (floor to the window grid)."""
    us = _ts_us(batch.column(ts_col))
    size = size_s * _US
    start = (us // size) * size
    return batch.append_column(out_col, pa.array(start).cast(pa.timestamp("us")))


def explode_sliding_windows(batch: pa.Table, ts_col: str, size_s: int,
                            step_s: int, out_col: str = "window_start") -> pa.Table:
    """Each event → one output row per covering sliding window.

    Windows start on the ``step_s`` grid; an event at t is in windows
    with start in (t - size, t]. Fan-out is size/step rows per event —
    assigned map-side, so the shuffle sees pre-keyed rows (scale note:
    for large size/step ratios pre-aggregate per (batch, window) before
    the groupby, same as sketch partials).
    """
    if size_s % step_s:
        raise ValueError("step must divide size")
    fan = size_s // step_s
    us = _ts_us(batch.column(ts_col))
    step = step_s * _US
    last = (us // step) * step  # latest window start covering the event
    starts = last[:, None] - step * np.arange(fan, dtype=np.int64)[None, :]
    idx = np.repeat(np.arange(len(us), dtype=np.int64), fan)
    out = batch.take(pa.array(idx))
    return out.append_column(
        out_col, pa.array(starts.reshape(-1)).cast(pa.timestamp("us"))
    )


def tumbling_aggregate(ds, ts_col: str, key_cols: List[str], size_s: int,
                       value_col: Optional[str] = None):
    """count + optional sum per (keys, tumbling window)."""
    from ray.data.aggregate import Count, Sum

    keyed = ds.map_batches(
        lambda b: add_tumbling_window(b, ts_col, size_s), batch_format="pyarrow"
    )
    aggs = [Count(alias_name="n_events")]
    if value_col:
        aggs.append(Sum(value_col, alias_name="sum_value"))
    return keyed.groupby([*key_cols, "window_start"]).aggregate(*aggs)


def sliding_aggregate(ds, ts_col: str, key_cols: List[str], size_s: int,
                      step_s: int, value_col: Optional[str] = None):
    """count + optional sum per (keys, sliding window)."""
    from ray.data.aggregate import Count, Sum

    keyed = ds.map_batches(
        lambda b: explode_sliding_windows(b, ts_col, size_s, step_s),
        batch_format="pyarrow",
    )
    aggs = [Count(alias_name="n_events")]
    if value_col:
        aggs.append(Sum(value_col, alias_name="sum_value"))
    return keyed.groupby([*key_cols, "window_start"]).aggregate(*aggs)


def lag_deltas(ds, ts_col: str, key_col: str,
               order_cols: Optional[List[str]] = None,
               out_col: str = "delta_s", num_buckets: int = 64):
    """Per-key inter-event gaps in seconds — the ``epoch(ts) -
    epoch(lag(ts) OVER (PARTITION BY key ORDER BY ts[, order_cols]))``
    window shape; each key's first event gets NULL.

    Scale shape (shared with `session_windows` / `cumulative_aggregate`
    / `transition_counts`): group by ``hash(key) % num_buckets`` — NOT
    the raw key — then ONE vectorized polars ``sort(key, ts) +
    diff().over(key)`` per bucket. Order semantics are identical to the
    per-key shape, but reduce overhead is amortized to ``num_buckets``
    groups instead of one per key (~50× at 1M distinct keys, PERF.md
    §24/§48). Gap arithmetic runs on µs int64 and divides by 1e6
    exactly like the SQL mirror.
    """
    import polars as pl

    sort_cols = [key_col, ts_col, *(order_cols or [])]

    def gaps(g: pa.Table) -> pa.Table:
        t = pl.from_arrow(g).sort(sort_cols, maintain_order=True)
        delta = (_pl_us(t, ts_col).diff().over(key_col)
                 .cast(pl.Float64) / 1e6)
        return t.with_columns(delta.alias(out_col)).to_arrow()

    return exchange(ds, [key_col], gaps, num_buckets=num_buckets)


def transition_counts(ds, ts_col: str, key_col: str, state_col: str,
                      order_cols: Optional[List[str]] = None,
                      num_buckets: int = 64):
    """Per-key state-transition (Markov) counts: for each key's events
    in time order, count (state → next state) pairs — the
    ``lead() OVER (PARTITION BY key ORDER BY ts)`` shape, folded to a
    global (from_state, to_state, n) table.

    Scale shape (see `lag_deltas`): bucket-keyed — each bucket pairs
    consecutive states for ALL its keys in one vectorized polars
    ``shift(-1).over(key)`` and emits its OWN transition counts
    (≤ states² rows per bucket), so the final ``groupby([from,
    to]).sum`` is transition-matrix-sized — never event-sized. States
    are assumed non-null (null next-state marks each key's last event).
    """
    import polars as pl
    from ray.data.aggregate import Sum

    sort_cols = [key_col, ts_col, *(order_cols or [])]

    def pairs(g: pa.Table) -> pa.Table:
        t = pl.from_arrow(g).sort(sort_cols, maintain_order=True)
        out = (t.with_columns(
                   pl.col(state_col).shift(-1).over(key_col).alias("_to"))
               .filter(pl.col("_to").is_not_null())
               .group_by([state_col, "_to"])
               .agg(pl.len().cast(pl.Int64).alias("n"))
               .select([pl.col(state_col).alias("from_state"),
                        pl.col("_to").alias("to_state"), pl.col("n")]))
        return out.to_arrow()

    return (exchange(ds, [key_col], pairs, num_buckets=num_buckets)
            .groupby(["from_state", "to_state"])
            .aggregate(Sum("n", alias_name="n")))


def cumulative_aggregate(ds, ts_col: str, key_col: str, value_col: str,
                         order_cols: Optional[List[str]] = None,
                         num_buckets: int = 64):
    """Per-key running count and running sum in event-time order — the
    SQL window-function shape ``sum(v) OVER (PARTITION BY key ORDER BY
    ts [, order_cols] ROWS UNBOUNDED PRECEDING)``, emitted as one row
    per input event.

    Scale shape (see `lag_deltas`): bucket-keyed, one vectorized polars
    ``sort(key, ts) + cum_sum().over(key)`` per bucket — the
    accumulation order within a key is exactly the sort order, so an
    integer value column matches the SQL mirror bit-for-bit (pre-scale
    money to cents for exactness, the `_add_cents` pattern).
    """
    import polars as pl

    sort_cols = [key_col, ts_col, *(order_cols or [])]

    def accumulate(g: pa.Table) -> pa.Table:
        t = pl.from_arrow(g).sort(sort_cols, maintain_order=True)
        return t.with_columns(
            pl.int_range(1, pl.len() + 1, dtype=pl.Int64)
              .over(key_col).alias("running_n"),
            pl.col(value_col).cum_sum().over(key_col).alias("running_sum"),
        ).to_arrow()

    return exchange(ds, [key_col], accumulate, num_buckets=num_buckets)


def funnel_counts(ds, ts_col: str, key_col: str, stage_col: str,
                  stages: List[str], num_partitions: int = 16,
                  broadcast_limit: int = 2_000_000,
                  max_delay_s: Optional[float] = None):
    """Strict ordered funnel over an event log: how many keys (users)
    reach stage 1, then stage 2 at-or-after their FIRST stage-1 event,
    then stage 3 at-or-after that first qualifying stage-2 event, …

    Fully distributed — no per-key Python: pass ``i`` filters to stage
    ``i``'s events, hash-joins them against the previous stage's
    first-reach table (``Dataset.join``, key-partitioned), keeps
    events at-or-after the previous first-reach time, and min-folds
    per key. Each pass's state table is one (key, first_ts) row per
    surviving key; the event set never re-shuffles as a whole. k
    stages = k cheap passes — the standard funnel shape at log scale.

    ``max_delay_s`` bounds each step (an ATTRIBUTION WINDOW): stage
    ``i+1`` must happen within that many seconds of the previous
    stage's first-reach time — the standard conversion-window funnel.

    Returns a pandas DataFrame (stage, stage_idx, n_keys), stage_idx
    1-based, n_keys non-increasing.
    """
    from ray.data.aggregate import Min

    def to_us(b: pa.Table) -> pa.Table:
        return pa.table({
            "_k": b.column(key_col),
            "_s": b.column(stage_col),
            "_ts": pa.array(_ts_us(b.column(ts_col))),
        })

    ev = ds.map_batches(to_us, batch_format="pyarrow")
    prev = None
    rows = []
    for i, stage in enumerate(stages):
        evs = ev.filter(expr=f"_s == '{stage}'")
        if i == 0:
            cand = evs
        elif prev_n <= broadcast_limit:
            # tiered attach: the first-reach table is small — broadcast
            # it and filter in a pure map stage (also sidesteps Ray's
            # empty-join-partition edge on tiny states)
            pt = pa.concat_tables(
                [pa.table(b) for b in prev.iter_batches(
                    batch_format="pyarrow", batch_size=None)])
            key_set = pt.column("_pk").combine_chunks()
            first_arr = np.asarray(pt.column("_first"))

            def flt(b: pa.Table, _ks=key_set, _fa=first_arr) -> pa.Table:
                import pyarrow.compute as _pc

                idx = _pc.index_in(b.column("_k"), value_set=_ks)
                hit = np.asarray(_pc.is_valid(idx))
                pos = np.asarray(_pc.fill_null(idx, 0).cast(pa.int64()))
                ts = np.asarray(b.column("_ts"))
                keep = hit & (ts >= _fa[pos])
                if max_delay_s is not None:
                    keep &= ts <= _fa[pos] + int(max_delay_s * _US)
                return b.filter(pa.array(keep))

            cand = evs.map_batches(flt, batch_format="pyarrow")
        else:
            joined = evs.join(prev, "inner", num_partitions,
                              on=("_k",), right_on=("_pk",))
            cand = joined.filter(expr="_ts >= _first")
            if max_delay_s is not None:
                lim = int(max_delay_s * _US)

                def in_window(b: pa.Table, _lim=lim) -> pa.Table:
                    ts = np.asarray(b.column("_ts"))
                    fi = np.asarray(b.column("_first"))
                    return b.filter(pa.array(ts <= fi + _lim))

                cand = cand.map_batches(in_window, batch_format="pyarrow")
        # materialize the (small) first-reach table: it is consumed
        # twice (count + next stage's join) and each stage would
        # otherwise replay the whole upstream chain — O(k²) recompute
        reached = (cand.groupby("_k")
                   .aggregate(Min("_ts", alias_name="_first"))
                   .materialize())
        n = reached.count()
        rows.append({"stage": stage, "stage_idx": i + 1, "n_keys": n})
        if n == 0:
            rows += [{"stage": s, "stage_idx": j + i + 2, "n_keys": 0}
                     for j, s in enumerate(stages[i + 1:])]
            break
        prev = reached.map_batches(
            lambda b: b.rename_columns(["_pk", "_first"]),
            batch_format="pyarrow")
        prev_n = n
    return pd.DataFrame(rows, columns=["stage", "stage_idx", "n_keys"])


def session_windows(ds, ts_col: str, key_col: str, gap_s: int,
                    order_cols: Optional[List[str]] = None,
                    num_buckets: int = 64):
    """Gap-based sessionization per key.

    Scale shape (see `lag_deltas`): bucket-keyed — each bucket opens a
    new session when a key's gap to its previous event exceeds
    ``gap_s`` (one vectorized polars ``diff().over(key) + cum_sum``),
    then folds sessions with one ``group_by(key, session_id)``. Emits
    (key, session_id, n_events, session_start, session_end); session
    ids are 1-based in ts order — matching a SQL ``sum(is_new) over
    (partition by key order by ts)`` oracle. Partitioning assumption:
    one key's events fit one bucket task (true for per-user web logs;
    raise ``num_buckets`` to shrink bucket tasks).
    """
    import polars as pl

    gap_us = gap_s * _US
    sort_cols = [key_col, ts_col, *(order_cols or [])]

    def sessionize(g: pa.Table) -> pa.Table:
        t = pl.from_arrow(g).sort(sort_cols, maintain_order=True)
        us = _pl_us(t, ts_col)
        new = ((us.diff().over(key_col) > gap_us)
               .fill_null(True).cast(pl.Int64))
        out = (t.with_columns(new.cum_sum().over(key_col)
                              .alias("session_id"))
               .group_by([key_col, "session_id"])
               .agg(pl.len().cast(pl.Int64).alias("n_events"),
                    pl.col(ts_col).min().alias("session_start"),
                    pl.col(ts_col).max().alias("session_end"))
               .select([key_col, "session_id", "n_events",
                        "session_start", "session_end"]))
        return out.to_arrow()

    return exchange(ds, [key_col], sessionize, num_buckets=num_buckets)

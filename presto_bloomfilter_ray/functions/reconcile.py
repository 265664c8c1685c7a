"""Dataset snapshot reconciliation — exact diffs at O(diff) memory.

The scale story: comparing two 10^12-key snapshots with a join is an
all-to-all shuffle of BOTH sides. With an IBLT
(:mod:`~presto_bloomfilter_ray.sketches.iblt`) each side is one
streaming ``map_batches`` pass producing a fixed-size table (24 B per
cell), the driver subtracts and peels, and a final broadcast map pass
binds recovered fingerprints back to rows. Nothing but the sketch and
the diff rows ever leave the workers.

Sizing contract: ``cells`` must exceed ~``(k+1)/k × |A Δ B|`` (the
peeling 2-core threshold — Goodrich & Mitzenmacher 2011); a too-small
table FAILS LOUDLY (``DecodeError``), never silently truncates. When
the diff size is unknown, start from an HLL estimate of each side or
just retry with ``cells × 4`` — each attempt costs one pass per side.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pyarrow as pa

from ..engine.agg import build_sketch
from ..sketches.iblt import IBLT


class DecodeError(RuntimeError):
    """The symmetric difference exceeded the IBLT's peeling capacity."""


def _probe(fps: np.ndarray, col: str):
    def fn(b: pa.Table) -> pa.Table:
        hit = np.isin(IBLT.fingerprints(b.column(col)), fps)
        return b.filter(pa.array(hit))

    return fn


def dataset_diff(
    ds_a,
    ds_b,
    col: str,
    *,
    cells: int = 1 << 16,
    k: int = 3,
    batch_size=65_536,
) -> Tuple[object, object]:
    """Rows of ``ds_a`` whose ``col`` key is absent from ``ds_b`` and
    vice versa, as two (lazy) Datasets.

    Each side's keys must be unique (snapshot/PK semantics — duplicate
    keys on one side leave residue that fails the decode, loudly).
    """
    snap_a = build_sketch(ds_a, col, lambda: IBLT(cells, k),
                          batch_size=batch_size)
    snap_b = build_sketch(ds_b, col, lambda: IBLT(cells, k),
                          batch_size=batch_size)
    a_fp, b_fp, ok = snap_a.subtract(snap_b).decode()
    if not ok:
        raise DecodeError(
            f"symmetric difference exceeds the peeling capacity of "
            f"{cells} cells (recovered {a_fp.size + b_fp.size} before "
            f"stalling) — retry with more cells")
    only_a = ds_a.map_batches(_probe(np.sort(a_fp), col),
                              batch_format="pyarrow", batch_size=None)
    only_b = ds_b.map_batches(_probe(np.sort(b_fp), col),
                              batch_format="pyarrow", batch_size=None)
    return only_a, only_b


def snapshot_delta(ds_old, ds_new, key_col: str, val_col: str, *,
                   include_unchanged: bool = False):
    """Exact snapshot diff: a Dataset of ``(key_col, status)`` with
    status in ``added`` / ``removed`` / ``changed`` (and ``unchanged``
    when requested) — the crawl-to-crawl delta.

    Complement to :func:`dataset_diff`: the IBLT path is O(diff)
    memory but needs the diff to fit the peeling capacity and only
    sees key PRESENCE; this path handles arbitrarily large diffs AND
    value changes, at the cost of one bucketed exchange of
    ``(key, side, value-hash)`` rows — the value itself (html/text)
    NEVER crosses the wire, so the exchange is O(rows × key width),
    not O(corpus bytes). Value equality is 64-bit-hash equality
    (collision odds 2^-64 per key; use a wider fingerprint column if
    that matters).

    Keys must be unique within each side (snapshot semantics);
    duplicates fail LOUDLY."""
    import polars as pl

    def tag(side: int):
        def fn(b: pa.Table) -> pa.Table:
            t = pl.from_arrow(b.select([key_col, val_col]))
            vh = t.select(
                pl.col(val_col).hash(seed=7).alias("vh"))["vh"].to_numpy()
            return pa.table({
                key_col: b.column(key_col),
                "_new": pa.array(
                    np.full(b.num_rows, side, dtype=np.int8)),
                "_vh": pa.array(vh.astype(np.uint64)),
            })
        return fn

    tagged = ds_old.map_batches(tag(0), batch_format="pyarrow",
                                batch_size=None) \
        .union(ds_new.map_batches(tag(1), batch_format="pyarrow",
                                  batch_size=None))

    from .fold import exchange

    def decide(g: pa.Table) -> pa.Table:
        t = (pl.from_arrow(g)
             .group_by(key_col)
             .agg(n=pl.len().cast(pl.Int64),
                  s=pl.col("_new").cast(pl.Int64).sum(),
                  vmin=pl.col("_vh").min(),
                  vmax=pl.col("_vh").max()))
        dup = t.filter((pl.col("n") > 2) |
                       ((pl.col("n") == 2) & (pl.col("s") != 1)))
        if dup.height:
            raise ValueError(
                f"duplicate keys within one snapshot side, e.g. "
                f"{dup[key_col][0]!r} — snapshot_delta needs unique "
                "keys per side")
        t = t.with_columns(
            pl.when((pl.col("n") == 1) & (pl.col("s") == 1))
            .then(pl.lit("added"))
            .when((pl.col("n") == 1) & (pl.col("s") == 0))
            .then(pl.lit("removed"))
            .when(pl.col("vmin") != pl.col("vmax"))
            .then(pl.lit("changed"))
            .otherwise(pl.lit("unchanged"))
            .alias("status"))
        if not include_unchanged:
            t = t.filter(pl.col("status") != "unchanged")
        return t.select([key_col, "status"]).to_arrow()

    return exchange(tagged, [key_col], decide)

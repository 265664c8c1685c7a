"""Deterministic global shuffle for training-order export.

Training runs read the final mix in (pseudo-)random document order.
``Dataset.random_shuffle`` gives a different order per run and ships
every row through one opaque exchange; pipelines need the SAME order
on every rerun (resume mid-epoch, audit, bitwise-reproducible runs).
The shuffle key here is the same Knuth multiplicative hash as
:mod:`.sampling`:

    order = ((id · 2654435761) mod 2^32, id)

a fixed pseudo-random permutation of the corpus, recomputable by any
SQL engine (``ORDER BY (id*2654435761)%4294967296, id``).

:func:`shuffled_export` range-partitions the HASH axis into
``n_shards`` contiguous slices (shard ``s`` holds hashes in
``[s·2^32/n, (s+1)·2^32/n)``), sorts within each shard, and writes
one parquet file per shard plus a manifest. Reading the shard files
in shard order therefore yields the exact global shuffle order —
the one unavoidable all-to-all for a true shuffle, but with
deterministic placement and shard size = corpus/n_shards chosen to
fit a worker. Crash safety is detect-and-redo: every shard file and
the manifest are written atomically (tmp + rename, manifest LAST), so
:func:`read_shuffled` refuses a torn export loudly and a rerun —
byte-identical by determinism — simply overwrites it.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np
import pyarrow as pa

from .fold import partition_map
from .sampling import SAMPLE_MULT, _MOD

__all__ = ["curriculum_export", "read_curriculum",
           "shuffled_export", "read_shuffled"]


def shuffled_export(ds, out_dir: str, id_col: str, *,
                    n_shards: int = 64) -> dict:
    """Write ``ds`` in deterministic global shuffle order.

    Returns the manifest dict (``n_shards``, ``rows``). Rows are
    placed by hash-range (shard = h·n_shards // 2^32) and each shard
    file is sorted by ``(h, id)``; concatenating files shard-by-shard
    IS the global order. One ``groupby`` exchange — inherent to any
    true shuffle — with bounded per-group size.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    # Invalidate any previous export FIRST (manifest before shards):
    # a rerun that crashes mid-write must leave the directory loudly
    # unreadable, never a silent mix of old and new shard files —
    # count-only validation would accept stale files under an old
    # manifest otherwise.
    import glob as _glob

    mpath = os.path.join(out_dir, "manifest.json")
    if os.path.exists(mpath):
        os.remove(mpath)
    for stale in _glob.glob(os.path.join(out_dir, "shard-*.parquet")):
        os.remove(stale)

    def assign(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column(id_col), dtype=np.int64)
        if (ids < 0).any():
            raise ValueError("shuffled_export requires non-negative ids")
        h = (ids * SAMPLE_MULT) % _MOD
        shard = (h * n_shards // _MOD).astype(np.int64)
        return b.append_column("_h", pa.array(h)) \
                .append_column("_shard", pa.array(shard))

    def write_shard(s: int, g: pa.Table) -> pa.Table:
        h = np.asarray(g.column("_h"))
        ids = np.asarray(g.column(id_col))
        order = np.lexsort((ids, h))
        g = g.take(pa.array(order)).drop_columns(["_h", "_shard"])
        import pyarrow.parquet as pq

        tmp = os.path.join(out_dir, f".shard-{s:05d}.tmp")
        pq.write_table(g, tmp)
        os.replace(tmp, os.path.join(out_dir, f"shard-{s:05d}.parquet"))
        return pa.table({"shard": pa.array([s], type=pa.int64()),
                         "rows": pa.array([g.num_rows], type=pa.int64())})

    stats = partition_map(ds.map_batches(assign, batch_format="pyarrow",
                                         batch_size=None),
                          write_shard, key="_shard", width=n_shards).to_pandas()
    manifest = {"n_shards": n_shards,
                "rows": int(stats["rows"].sum()),
                "shards_written": sorted(int(s) for s in stats["shard"])}
    tmp = os.path.join(out_dir, ".manifest.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))
    return manifest


def read_shuffled(out_dir: str, columns: Optional[list] = None,
                  preserve_order: bool = True):
    """Read a :func:`shuffled_export` directory back as a Dataset in
    the exact global shuffle order (shard files in shard order; rows
    within a file are already sorted).

    Ray's streaming executor reorders completed blocks under load
    unless ``preserve_order`` is on — and order IS this dataset's
    contract — so by default the flag is set ON while the dataset is
    created and restored immediately after: a Dataset snapshots
    (copies) the ambient ``DataContext`` at creation, so the returned
    dataset keeps ordered execution without constraining scheduling
    for any unrelated dataset in the session. Pass
    ``preserve_order=False`` to opt out (e.g. feeding a downstream
    op that re-sorts anyway)."""
    import glob as _glob

    import ray.data as rd

    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    paths = sorted(_glob.glob(os.path.join(out_dir, "shard-*.parquet")))
    if len(paths) != len(manifest["shards_written"]):
        raise FileNotFoundError(
            f"shuffled export at {out_dir} is incomplete: "
            f"{len(paths)} files vs manifest "
            f"{len(manifest['shards_written'])}")
    if not preserve_order:
        return rd.read_parquet(paths, columns=columns)
    opts = rd.DataContext.get_current().execution_options
    prev = opts.preserve_order
    opts.preserve_order = True
    try:
        return rd.read_parquet(paths, columns=columns)
    finally:
        opts.preserve_order = prev


def curriculum_export(ds, out_dir: str, id_col: str, score_col: str, *,
                      n_bands: int = 4, n_shards: int = 16) -> dict:
    """Deterministic CURRICULUM training order: quality bands first
    (highest ``score_col`` band leads), the :func:`shuffled_export`
    pseudo-random hash order within each band.

    Band cutoffs are the exact ``quantile_disc`` values of
    ``score_col`` (sort-free histogram narrowing,
    :func:`~.quantiles.exact_quantile`), so any SQL engine recomputes
    the identical banding: ``band_rank = (n_bands-1) - Σ(score >=
    cutoff_i)`` (0 = best band, emitted first; NULL scores land in a
    trailing band). Scores compare as float64, exact for integers with
    ``|score| <= 2^53``; an integral score column holding a larger
    magnitude raises ``ValueError`` (with ``n_bands >= 2``, where
    cutoffs exist). One groupby exchange places rows; each
    ``band-<rank>-shard-<s>.parquet`` is written atomically, sorted by
    ``(h, id)``; manifest LAST. Reading files in sorted filename order
    IS the curriculum order (:func:`read_curriculum`)."""
    import glob as _glob

    import pyarrow.compute as pc

    from .quantiles import exact_quantile

    if n_bands < 1 or n_shards < 1:
        raise ValueError("n_bands and n_shards must be >= 1")
    os.makedirs(out_dir, exist_ok=True)
    mpath = os.path.join(out_dir, "manifest.json")
    if os.path.exists(mpath):
        os.remove(mpath)
    for stale in _glob.glob(os.path.join(out_dir, "band-*.parquet")):
        os.remove(stale)

    qs = [i / n_bands for i in range(1, n_bands)]
    cuts = np.asarray(exact_quantile(ds, score_col, qs)
                      if qs else [], dtype=np.float64)

    def assign(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column(id_col), dtype=np.int64)
        if (ids < 0).any():
            raise ValueError("curriculum_export requires non-negative ids")
        sc_col = b.column(score_col)
        null = np.asarray(pc.is_null(sc_col))
        sc = np.asarray(pc.fill_null(sc_col, 0)).astype(np.float64)
        idx = (sc[:, None] >= cuts[None, :]).sum(axis=1) if cuts.size \
            else np.zeros(len(ids), dtype=np.int64)
        rank = (n_bands - 1) - idx
        rank = np.where(null, n_bands, rank)  # nulls trail
        h = (ids * SAMPLE_MULT) % _MOD
        shard = (h * n_shards // _MOD).astype(np.int64)
        return b.append_column("_h", pa.array(h)) \
                .append_column("_g", pa.array(rank * n_shards + shard))

    def write_piece(gid: int, g: pa.Table) -> pa.Table:
        rank, s = divmod(gid, n_shards)
        h = np.asarray(g.column("_h"))
        ids = np.asarray(g.column(id_col))
        order = np.lexsort((ids, h))
        g = g.take(pa.array(order)).drop_columns(["_h", "_g"])
        import pyarrow.parquet as pq

        name = f"band-{rank:02d}-shard-{s:05d}.parquet"
        tmp = os.path.join(out_dir, f".{name}.tmp")
        pq.write_table(g, tmp)
        os.replace(tmp, os.path.join(out_dir, name))
        return pa.table({"g": pa.array([gid], type=pa.int64()),
                         "rows": pa.array([g.num_rows], type=pa.int64())})

    # one block per (band, shard) piece, not one per _pow2 partition
    pieces = (n_bands + 1) * n_shards
    stats = partition_map(ds.map_batches(assign, batch_format="pyarrow",
                                         batch_size=None),
                          write_piece, key="_g", width=pieces,
                          coalesce=pieces).to_pandas()
    manifest = {"n_bands": n_bands, "n_shards": n_shards,
                "cutoffs": [float(c) for c in cuts],
                "rows": int(stats["rows"].sum()),
                "pieces_written": sorted(int(x) for x in stats["g"])}
    tmp = os.path.join(out_dir, ".manifest.tmp")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, mpath)
    return manifest


def read_curriculum(out_dir: str, columns: Optional[list] = None,
                    preserve_order: bool = True):
    """Read a :func:`curriculum_export` directory in curriculum order
    (best band first, hash order within). Same order/`preserve_order`
    contract as :func:`read_shuffled`; refuses a torn export."""
    import glob as _glob

    import ray.data as rd

    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    paths = sorted(_glob.glob(os.path.join(out_dir, "band-*.parquet")))
    if len(paths) != len(manifest["pieces_written"]):
        raise FileNotFoundError(
            f"curriculum export at {out_dir} is incomplete: "
            f"{len(paths)} files vs manifest "
            f"{len(manifest['pieces_written'])}")
    if not preserve_order:
        return rd.read_parquet(paths, columns=columns)
    opts = rd.DataContext.get_current().execution_options
    prev = opts.preserve_order
    opts.preserve_order = True
    try:
        return rd.read_parquet(paths, columns=columns)
    finally:
        opts.preserve_order = prev

"""Containment detection — size-asymmetric near-duplicates (quotes,
wrapped reposts, boilerplate-padded copies).

MinHash-LSH (:mod:`~.dedup`) targets RESEMBLANCE — ``|A∩B| / |A∪B|``
— which collapses when a small document is wholly quoted inside a much
larger one (a 200-token article inside a 5,000-token page has Jaccard
≈ 0.04 but containment ≈ 1.0). Broder's containment measure
``c(A→B) = |S(A) ∩ S(B)| / |S(A)|`` over token-shingle sets is the
standard screen for that failure mode; this module computes, for every
document pair sharing at least one shingle,

    ``inter = |S(A) ∩ S(B)|``,  ``size_a``, ``size_b``  (distinct
    shingles per doc), keeping pairs with
    ``inter / min(size_a, size_b) ≥ tau`` — the max-directional
    containment (small-into-big).

Shingles are the decontamination gram unit
(:func:`~.decontaminate._doc_grams`: lowercased alnum token
``k``-grams hashed with a rolling polynomial, whole-doc gram for short
docs), so a SQL engine can recompute the exact same sets from window
slices — the driver query's oracle is a plain shingle self-join.

Two tiers, one pipeline:

* ``sample_mod = 1`` (exact): every shingle participates. Exact
  answer; the shingle join is the cost.
* ``sample_mod = m > 1`` (MOD-sampling): only shingles with
  ``hash % m == 0`` survive, uniformly and CONSISTENTLY across docs —
  the same shingle is kept or dropped everywhere, so
  ``inter_s / min(size_s)`` is an unbiased containment estimate on
  ~1/m of the data volume (Broder's sketching argument). This is the
  100 TB tier: m=64 cuts the pair-join volume ~4096×.

Scale shape: one map pass emits distinct ``(gram, doc)`` rows; sizes
come from a :func:`~.fold.bucket_fold` count; pairs are generated
inside a gram-hash-bucketed :func:`~.fold.exchange` with a fully vectorized
run-rank expansion (no per-gram Python), folded by a packed
``(a, b)`` key, and sizes attach by two keyed joins
(:func:`~.fold.join`: the size table broadcast or co-partitioned).
Hot shingles (boilerplate shared by > ``hot_gram_cap`` docs) would
go quadratic; they are dropped LOUDLY (returned in the
stats, never silent) — the same policy as the LSH band cap.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
import pyarrow as pa

from .decontaminate import _doc_grams
from .fold import bucket_fold, exchange, join

__all__ = ["containment_pairs"]

#: pack (a, b) pairs into one int64 fold key; ids must fit 31 bits
_PACK = np.int64(1) << np.int64(31)


def _distinct_doc_grams(b: pa.Table, id_col: str, text_col: str, k: int,
                        sample_mod: int) -> pa.Table:
    """(gram-hash, doc-id) rows, DISTINCT within each doc, optionally
    MOD-sampled. One doc lives in one input row, so per-batch
    uniqueness is global uniqueness."""
    ids = np.asarray(b.column(id_col), dtype=np.int64)
    grams, parents = _doc_grams(b.column(text_col), b.num_rows, k)
    if sample_mod > 1 and len(grams):
        keep = grams % np.uint64(sample_mod) == 0
        grams, parents = grams[keep], parents[keep]
    if len(grams) == 0:
        return pa.table({"gh": pa.array([], type=pa.uint64()),
                         "doc": pa.array([], type=pa.int64())})
    pair = np.stack([grams, parents.astype(np.uint64)], axis=1)
    pair = np.unique(pair, axis=0)
    return pa.table({"gh": pa.array(pair[:, 0]),
                     "doc": pa.array(ids[pair[:, 1].astype(np.int64)])})


def _expand_pairs(gh: np.ndarray, doc: np.ndarray, cap: int):
    """All within-gram doc pairs, fully vectorized (run-rank
    expansion). Inputs must be sorted by (gh, doc). Returns
    ``(a, b, n_capped_grams, n_capped_rows)`` with ``a < b``; grams
    whose doc list exceeds ``cap`` are dropped and counted."""
    n = gh.size
    starts = np.flatnonzero(np.r_[True, gh[1:] != gh[:-1]])
    lens = np.diff(np.append(starts, n))
    capped = lens > cap
    n_capped = int(capped.sum())
    capped_rows = int(lens[capped].sum())
    if n_capped:
        keep = ~np.repeat(capped, lens)
        gh, doc = gh[keep], doc[keep]
        n = gh.size
        starts = np.flatnonzero(np.r_[True, gh[1:] != gh[:-1]])
        lens = np.diff(np.append(starts, n))
    if n == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, n_capped, capped_rows
    idx = np.arange(n, dtype=np.int64)
    within = idx - np.repeat(starts, lens)
    cs = np.cumsum(within)
    total = int(cs[-1])
    if total == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, n_capped, capped_rows
    b_idx = np.repeat(idx, within)
    o = np.arange(total, dtype=np.int64) - np.repeat(cs - within, within)
    a_idx = np.repeat(idx - within, within) + o
    return doc[a_idx], doc[b_idx], n_capped, capped_rows


def containment_pairs(ds, id_col: str = "doc_id", text_col: str = "text",
                      k: int = 5, tau: float = 0.8, *,
                      sample_mod: int = 1, hot_gram_cap: int = 10_000,
                      broadcast_limit: int = 2_000_000,
                      num_partitions: int = 32) -> Tuple:
    """Document pairs with directional containment ≥ ``tau``.

    Returns ``(pairs_ds, stats)``: ``pairs_ds`` has columns
    ``(a, b, inter, size_a, size_b, cont_ppm)`` with ``a < b`` and
    ``cont_ppm = inter * 1e6 // min(size_a, size_b)`` (integer —
    SQL-recomputable without float rounding); ``stats`` reports
    ``capped_grams`` / ``capped_rows`` (hot shingles dropped — 0 means
    the result is exact for ``sample_mod=1``).

    Ids must be non-negative and < 2^31 (packed fold key); violations
    raise.
    """
    import polars as pl
    import pyarrow.compute as pc
    import ray

    if not (0.0 < tau <= 1.0):
        raise ValueError(f"tau must be in (0, 1], got {tau}")
    if sample_mod < 1:
        raise ValueError("sample_mod must be >= 1")

    grams = ds.map_batches(
        lambda b: _distinct_doc_grams(b, id_col, text_col, k, sample_mod),
        batch_format="pyarrow", batch_size=None)
    grams = grams.materialize()  # sizes + pairs both consume it

    sizes = bucket_fold(grams, ["doc"], [(None, "count", "sz")]).materialize()

    cap_counter = ray.remote(_CapCounter).remote()

    def pairs_of(g: pa.Table) -> pa.Table:
        t = pl.from_arrow(g).sort(["gh", "doc"])
        gh = t["gh"].to_numpy()
        doc = t["doc"].to_numpy()
        if doc.size and (doc.min() < 0 or doc.max() >= int(_PACK)):
            raise ValueError("containment_pairs requires ids in [0, 2^31)")
        a, b, n_cap, cap_rows = _expand_pairs(gh, doc, hot_gram_cap)
        if n_cap:
            # blocking get: the count must be visible once the dataset
            # is materialized (a fire-and-forget .remote could still be
            # in the actor's queue when stats are read). Cap events are
            # rare by construction, so the sync round-trip is noise.
            ray.get(cap_counter.add.remote(n_cap, cap_rows))
        key = a * _PACK + b
        kt = pl.DataFrame({"key": key}).group_by("key").agg(
            pl.len().cast(pl.Int64).alias("inter"))
        return kt.to_arrow()

    inter = bucket_fold(exchange(grams, ["gh"], pairs_of),
                        ["key"], [("inter", "sum", "inter")])

    def unpack(b: pa.Table) -> pa.Table:
        key = np.asarray(b.column("key"), dtype=np.int64)
        return pa.table({
            "a": pa.array(key // int(_PACK)),
            "b": pa.array(key % int(_PACK)),
            "inter": b.column("inter")})

    def finish(b: pa.Table) -> pa.Table:
        it = np.asarray(b.column("inter"), dtype=np.int64)
        sa = np.asarray(b.column("sz"), dtype=np.int64)
        sb = np.asarray(b.column("sz_r"), dtype=np.int64)
        ppm = it * 1_000_000 // np.minimum(sa, sb)
        keep = ppm >= int(tau * 1_000_000)
        return pa.table({
            "a": pa.array(np.asarray(b.column("a"), dtype=np.int64)[keep]),
            "b": pa.array(np.asarray(b.column("b"), dtype=np.int64)[keep]),
            "inter": pa.array(it[keep]),
            "size_a": pa.array(sa[keep]), "size_b": pa.array(sb[keep]),
            "cont_ppm": pa.array(ppm[keep]),
        })

    # both doc sizes: sz for a, sz_r for b
    kw = dict(right_on="doc", how="inner", n_parts=num_partitions,
              broadcast_limit=broadcast_limit)
    unp = inter.map_batches(unpack, batch_format="pyarrow", batch_size=None)
    out = join(join(unp, sizes, on="a", **kw), sizes, on="b", **kw)
    out = out.map_batches(finish, batch_format="pyarrow", batch_size=None)
    out = out.materialize()  # pair volume is post-threshold tiny; the
    # materialize also lets stats reflect the finished run
    n_cap, cap_rows = ray.get(cap_counter.totals.remote())
    stats = {"capped_grams": n_cap, "capped_rows": cap_rows,
             "sample_mod": sample_mod, "n_docs": sizes.count()}
    return out, stats


class _CapCounter:
    """Tiny named-less counter actor: hot-gram drops are REPORTED, not
    silently swallowed (the no-silent-caps rule)."""

    def __init__(self):
        self.n = 0
        self.rows = 0

    def add(self, n: int, rows: int):
        self.n += int(n)
        self.rows += int(rows)

    def totals(self):
        return self.n, self.rows

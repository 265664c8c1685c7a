"""Sequence packing: plan fixed-token-budget training sequences.

LLM pre-training consumes documents as densely packed fixed-length
sequences. This stage plans that packing — it assigns every document
(or piece of an over-long document) to a pack whose token total never
exceeds ``budget`` — and emits ONLY the assignment table
``(pack_id, doc_id, chunk_idx, n_tok)``. Text never enters the
shuffle: a downstream tokenizer-writer joins assignments back to the
corpus co-partitioned by ``doc_id`` and materializes the sequences.

Scale shape:

* one vectorized pass computes per-doc whitespace token counts
  (:data:`~.text.TOKEN_RE`, so the count is SQL-mirrorable) — the
  shuffle then carries 24 B/piece, never text;
* docs longer than ``budget`` are split into ``ceil(n/budget)``
  pieces vectorized (``np.repeat``/``arange``), so every item fits
  and the bin-packing invariant is provable;
* packing runs independently per hash partition (deterministic
  multiplicative hash of ``doc_id``), each partition applying
  next-fit-decreasing over items sorted by ``(n_tok desc, doc_id,
  chunk_idx)``. NFD's guarantee: consecutive packs within a
  partition sum to more than ``budget``, so globally
  ``n_packs ≤ 2·total/budget + n_parts`` while every pack stays
  ≤ ``budget`` — utilization ≥ ~50 % worst-case, ≫ that in practice;
* the per-partition packer is an O(n_packs · log n) cumsum +
  ``searchsorted`` loop (one cheap numpy step per PACK, not per row).

Determinism: ordering, hash, and pack numbering
(``part · 2³² + seq``) are all fixed, so reruns — at any Ray
parallelism — produce identical assignments.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .fold import _pow2, partition_map
from .text import TOKEN_RE

__all__ = ["pack_sequences", "pack_stats"]


def pack_sequences(ds, *, budget: int, text_col: str = "text",
                   id_col: str = "doc_id", n_parts: int = 64):
    """→ Dataset ``(pack_id, doc_id, chunk_idx, n_tok)``.

    ``chunk_idx`` is 0 for unsplit docs; an over-budget doc of ``n``
    tokens yields pieces ``0..ceil(n/budget)-1``, the first
    ``ceil(n/budget)-1`` of exactly ``budget`` tokens and the last of
    the remainder. Empty docs (0 tokens) are dropped. Every pack's
    token total is ≤ ``budget``.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    n_parts = _pow2(n_parts)

    def pieces(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col), dtype=np.int64)
        n = np.asarray(pc.fill_null(
            pc.count_substring_regex(batch.column(text_col), TOKEN_RE), 0),
            dtype=np.int64)
        keep = n > 0
        ids, n = ids[keep], n[keep]
        n_chunks = -(-n // budget)  # ceil
        doc = np.repeat(ids, n_chunks)
        chunk = np.arange(int(n_chunks.sum()), dtype=np.int64) - np.repeat(
            np.cumsum(n_chunks) - n_chunks, n_chunks)
        tok = np.full(len(doc), budget, dtype=np.int64)
        last = np.cumsum(n_chunks) - 1  # index of each doc's last piece
        tok[last] = n - (n_chunks - 1) * budget
        # Fibonacci multiplicative hash: decorrelates sequential ids so
        # partitions are size-balanced without a string-hash round-trip
        k = n_parts.bit_length() - 1  # n_parts is a power of two
        if k == 0:
            part = np.zeros(len(doc), dtype=np.int64)
        else:
            part = ((doc.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                    >> np.uint64(64 - k)).astype(np.int64)
        return pa.table({"doc_id": pa.array(doc), "chunk_idx": pa.array(chunk),
                         "n_tok": pa.array(tok), "part": pa.array(part)})

    def pack_part(p: int, g: pa.Table) -> pa.Table:
        doc = np.asarray(g.column("doc_id"))
        chunk = np.asarray(g.column("chunk_idx"))
        tok = np.asarray(g.column("n_tok"))
        order = np.lexsort((chunk, doc, -tok))  # n_tok desc, doc, chunk
        doc, chunk, tok = doc[order], chunk[order], tok[order]
        cum = np.cumsum(tok)
        pack_local = np.empty(len(tok), dtype=np.int64)
        start, base, seq = 0, 0, 0
        # one searchsorted per PACK: next-fit over the sorted prefix sums
        while start < len(tok):
            end = int(np.searchsorted(cum, base + budget, side="right"))
            if end == start:  # cannot happen (every item ≤ budget), be safe
                end = start + 1
            pack_local[start:end] = seq
            base = cum[end - 1]
            start, seq = end, seq + 1
        pack_id = (np.int64(p) << np.int64(32)) + pack_local
        return pa.table({"pack_id": pa.array(pack_id), "doc_id": pa.array(doc),
                         "chunk_idx": pa.array(chunk), "n_tok": pa.array(tok)})

    return partition_map(ds.map_batches(pieces, batch_format="pyarrow"),
                         pack_part, key="part", width=n_parts)


def pack_stats(assignments, *, budget: int):
    """Distributed invariant summary of a :func:`pack_sequences` plan:
    ``(n_pieces, total_tokens, n_packs, max_pack_tokens, min_nonlast
    utilization proxies)`` as a single dict — per-pack totals stay a
    groupby aggregate, never a driver collect."""
    from ray.data.aggregate import Count, Max, Sum

    from .fold import bucket_fold

    per_pack = bucket_fold(
        assignments, ["pack_id"],
        [("n_tok", "sum", "pack_tok"), (None, "count", "pack_pieces")])
    agg = per_pack.aggregate(Count(alias_name="n_packs"),
                             Sum("pack_tok", alias_name="total_tokens"),
                             Max("pack_tok", alias_name="max_pack_tokens"),
                             Sum("pack_pieces", alias_name="n_pieces"))
    return {k: int(v) for k, v in agg.items()}

"""Deduplication operators for web-scale corpora.

Exact, MinHash+LSH, SimHash and n-gram-Jaccard dedup over a documents
table. Partitioning contracts (100 TB design notes):

* **exact**: one all-to-all shuffle keyed by a 64-bit content hash —
  per-key groups are tiny (true duplicates), so skew is bounded by the
  actual duplicate multiplicity. An input that fits one block runs as
  one pass instead, and keeps its block count (:func:`exact_dedup`).
* **minhash/simhash**: signatures are computed map-side (vectorized:
  one-permutation MinHash over the flat shingle hashes, a segmented
  ``reduceat`` vote for SimHash); only (band, band_hash, doc_id) candidate
  rows shuffle — a few dozen bytes per doc instead of the text.
  Candidate pairing AND verification are distributed: the LSH bucket
  space is coarsely hash-partitioned (``bucket & (n_parts-1)``) and one
  :func:`~.fold.partition_map` call processes every bucket of a partition
  vectorized (boundary ``diff`` + repeat/offset pair generation — no
  per-bucket Python dispatch, no driver materialization). Small buckets
  emit ALL pairs (so near-dup pairs not involving the bucket hub are
  found); buckets above ``pair_cutoff`` fall back to star edges
  (hub → members), bounding the edge set by docs × bands even on
  template-heavy corpora. Jaccard verification attaches signatures to
  edges through two :func:`~.fold.co_attach` exchanges (sig rows and
  edge rows co-partitioned on the same key space) — each signature
  crosses the wire once per phase; no broadcast, no driver dict. At
  width 1 pairing and verification fuse into one pass over one block
  of signatures. The final connected-components step runs on the
  verified edge set (min-label propagation over the edge Dataset).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sketches.hashing import hash64
from .fold import co_attach, exchange_width, partition_map
from .keyset import KeySet


def normalize_text(text_col) -> pa.ChunkedArray:
    """Lowercase + collapse whitespace — shared by all dedup variants."""
    out = pc.utf8_lower(pc.replace_substring_regex(text_col, r"\s+", " "))
    return out if isinstance(out, pa.ChunkedArray) else pa.chunked_array([out])


def add_content_hash(batch: pa.Table, col: str = "text",
                     out_col: str = "content_hash") -> pa.Table:
    """64-bit hash of the normalized text (vectorized)."""
    h = hash64(normalize_text(batch.column(col)), 0xDED0)
    return batch.append_column(out_col, pa.array(h.astype(np.int64)))


def dedup_lines_keep_first(ds, text_col: str = "text",
                           id_col: str = "doc_id", sep: str = "\n",
                           broadcast_limit: int = 2_000_000,
                           work_dir: Optional[str] = None):
    """Corpus-level line/paragraph dedup keeping the FIRST occurrence
    (RefinedWeb-style repetition removal): a line is kept only in the
    document with the smallest ``(id, position)`` that contains it;
    every later copy anywhere in the corpus is dropped. Unlike
    `remove_boilerplate_lines` (which drops ALL copies of hot lines),
    the first occurrence always survives, so no content is lost.

    Scale shape: pass 1 emits ``(line_hash, packed_position)`` pairs
    pre-combined per batch (the shuffle carries 16 B per distinct line
    per batch, NEVER line text); a ``groupby(hash).min`` picks global
    winners, held as a :class:`~.keyset.KeySet` (broadcast below
    ``broadcast_limit`` winners, sharded under ``work_dir`` above).
    Pass 2 is ONE vectorized ``map_batches`` over the ORIGINAL
    documents: re-split, look up each line's winning position, rebuild
    kept text with ``ListArray.from_arrays`` + ``binary_join`` — corpus
    text never crosses a shuffle and no per-doc Python runs.
    Positions pack as ``id·2³¹ + idx`` — requires ``id < 2³²`` and
    ``< 2³¹`` lines per doc (asserted).

    Returns one row per document: ``(id, n_lines, n_kept, text)``.
    """
    def _positions(b: pa.Table):
        """Split a batch of docs into flat lines + packed positions."""
        col = b.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        parts = pc.split_pattern(pc.fill_null(col, ""), sep)
        flat = pc.list_flatten(parts)
        n_lines = np.asarray(pc.list_value_length(parts)).astype(np.int64)
        parents = np.asarray(pc.list_parent_indices(parts))
        starts = np.repeat(np.concatenate(([0], np.cumsum(n_lines)[:-1])),
                           n_lines)
        idx = np.arange(len(parents), dtype=np.int64) - starts
        doc_ids = np.asarray(b.column(id_col).cast(pa.int64()))
        ids = doc_ids[parents] if len(parents) else np.zeros(0, np.int64)
        if len(ids) and (ids.max() >= (1 << 32) or idx.max() >= (1 << 31)):
            raise ValueError("dedup_lines_keep_first position packing "
                             "requires id < 2^32 and < 2^31 lines/doc")
        h = hash64(flat, 0x11E5).astype(np.int64)
        return flat, h, ids * (1 << 31) + idx, doc_ids, n_lines, parents

    def min_pairs(b: pa.Table) -> pa.Table:
        import polars as pl

        _, h, packed, _, _, _ = _positions(b)
        t = pl.DataFrame({"h": h, "packed": packed})
        return (t.group_by("h").agg(win=pl.col("packed").min()).to_arrow()
                .cast(pa.schema([("h", pa.int64()), ("win", pa.int64())])))

    from .fold import bucket_fold

    winners = KeySet.build(
        bucket_fold(ds.map_batches(min_pairs, batch_format="pyarrow"),
                    ["h"], [("win", "min", "win")]).materialize(),
        "h", "win", broadcast_limit=broadcast_limit, work_dir=work_dir,
        prefix="line-dedup-shards-")

    def rebuild_map(b: pa.Table) -> pa.Table:
        flat, h, packed, doc_ids, n_lines, parents = _positions(b)
        found, win = winners.lookup(h)
        keep = found & (packed == win)
        kept_flat = flat.filter(pa.array(keep))
        n_kept = (np.bincount(parents[keep], minlength=len(b))
                  .astype(np.int64) if len(parents)
                  else np.zeros(len(b), np.int64))
        offsets = np.concatenate(([0], np.cumsum(n_kept))).astype(np.int32)
        texts = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                     kept_flat), sep)
        return pa.table({
            id_col: pa.array(doc_ids), "n_lines": pa.array(n_lines),
            "n_kept": pa.array(n_kept), text_col: texts,
        })

    return ds.map_batches(rebuild_map, batch_format="pyarrow")


#: private content-hash column of exact_dedup's single pass
_EXACT_KEY = "_exact_h"


def exact_dedup(ds, col: str = "text", id_col: str = "doc_id",
                broadcast_limit: int = 2_000_000,
                work_dir: Optional[str] = None,
                co_partition: Optional[bool] = None):
    """Keep the min-``id_col`` row per distinct normalized text.

    Deterministic (min id), matching a SQL ``row_number() over
    (partition by text order by id) = 1`` oracle.

    Scale design: the shuffle carries only (content_hash, id) PAIRS
    (16 bytes/row), aggregated with a vectorized Count+Min — never the
    text, and never per-group Python. Only hashes with count > 1 (the
    actual duplicate groups) form the keep-map, a
    :class:`~.keyset.KeySet` hash → keep id: broadcast and probed with
    a sorted ``searchsorted`` per batch up to ``broadcast_limit``
    entries; above it (web corpora are 30-50 % duplicate, so the map
    can reach 10^10 entries) it NEVER touches the driver — it is
    hash-partitioned into sorted shards under ``work_dir`` (shared
    storage at scale) and removal is a sharded anti-join
    (``co_partition`` picks its plan; see :meth:`~.keyset.KeySet.filter`).

    Single pass: when Ray knows the input's row count, byte size and
    block count without running it, the count sizes the fold to width
    1, a keep-map of that many keys would be broadcast and the bytes fit
    one block (``DataContext.target_max_block_size``), the whole stage
    is one width-1 :func:`~.fold.partition_map`: hash each block, then
    over the one block fold the min id per hash and keep each group's
    min-id rows — one Ray Data execution instead of the fold's and the
    filter's (PERF §64). Its one output block is split back into the
    input's block count, so the stages after it keep the input's
    parallelism. The broadcast test
    (:meth:`~.keyset.KeySet.broadcasts`) builds nothing here: it keeps
    callers that ask for shards (``broadcast_limit=0``, e.g.
    ``exact_dedup_sharded``) on the sharded plan. Otherwise the plan is
    the ``bucket_fold`` + :class:`~.keyset.KeySet` one above.
    """
    from ray.data import DataContext

    from .fold import NUM_BUCKETS, bucket_fold

    def key_of(b: pa.Table) -> np.ndarray:
        return hash64(normalize_text(b.column(col)), 0xDED0).astype(np.int64)

    def keep_mask(b: pa.Table, keys, found, keep_id) -> np.ndarray:
        ids = np.asarray(b.column(id_col)).astype(np.int64)
        return ~found | (ids == keep_id)

    rows = ds._meta_count()
    if rows == 0:
        return ds
    blocks = ds._plan.initial_num_blocks()
    if (rows is not None and blocks is not None
            and exchange_width(rows, NUM_BUCKETS) == 1
            and KeySet.broadcasts(rows, broadcast_limit)):
        size = ds._logical_plan.dag.infer_metadata().size_bytes
        if (size is not None
                and size <= DataContext.get_current().target_max_block_size):
            def with_key(b: pa.Table) -> pa.Table:
                return b.append_column(_EXACT_KEY, pa.array(key_of(b)))

            def keep_first(_part: int, b: pa.Table) -> pa.Table:
                keys = np.asarray(b.column(_EXACT_KEY))
                b = b.drop_columns([_EXACT_KEY])
                ids = np.asarray(b.column(id_col)).astype(np.int64)
                uniq, inv = np.unique(keys, return_inverse=True)
                keep_id = np.full(len(uniq), np.iinfo(np.int64).max)
                np.minimum.at(keep_id, inv, ids)
                return b.filter(pa.array(ids == keep_id[inv]))

            out = partition_map(
                ds.map_batches(with_key, batch_format="pyarrow"),
                keep_first, key=_EXACT_KEY, width=1)
            # split the one block back into the input's block count, so
            # the stages after this one keep the input's parallelism
            return out.repartition(blocks) if blocks > 1 else out

    def hash_pairs(b: pa.Table) -> pa.Table:
        return pa.table({"content_hash": pa.array(key_of(b)),
                         id_col: b.column(id_col)})

    def only_dups(b: pa.Table) -> pa.Table:
        # fused filter(n > 1) + column projection: one stage on top of
        # the groupby output instead of two lazy operators (the r3
        # filter(expr) + select_columns chain cost a visible scheduling
        # hit at small scale — PERF.md §23)
        keep = pc.greater(b.column("n"), 1)
        return pa.table({
            "content_hash": b.column("content_hash").cast(pa.int64()),
            "keep_id": b.column("keep_id").cast(pa.int64()),
        }).filter(keep)

    dups = KeySet.build(
        bucket_fold(ds, ["content_hash"],
                    [(None, "count", "n"), (id_col, "min", "keep_id")],
                    pre=hash_pairs)
        .map_batches(only_dups, batch_format="pyarrow").materialize(),
        "content_hash", "keep_id", broadcast_limit=broadcast_limit,
        work_dir=work_dir, prefix="exact-dedup-shards-")
    if dups.n == 0:
        return ds
    return dups.filter(ds, key_of, keep_mask, co_partition)


# ----------------------------------------------------------------- MinHash
class MinHasher:
    """Stateless ``map_batches`` callable: MinHash signatures + LSH band
    keys per doc (:meth:`sign` runs it over a Dataset).

    Fully vectorized, no per-shingle Python: the batch's texts are
    normalized and viewed as ONE flat byte array; char-``shingle_k``-gram
    hashes come from a rolling polynomial over the padded bytes
    (``k-1`` sentinel bytes between docs so windows never cross a doc
    boundary) finished with splitmix64. Signatures use one-permutation
    hashing (Li, Owen & Zhang, NeurIPS 2012): each shingle hash goes to
    one of ``num_perm`` bins by a multiply-high of its top 32 bits, and
    one ``np.minimum.at`` pass keeps each (doc, bin) minimum. Bins a doc
    leaves empty are filled by optimal densification (Shrivastava, ICML
    2017): empty bin ``i`` copies the first non-empty bin among
    ``H(i, 1), H(i, 2), …`` — ``H`` depends on the bin and the attempt
    only, so a signature is a function of the doc's shingle set alone.
    A doc with f distinct shingles holds at most f distinct bin values,
    so below a few dozen shingles the estimate is much noisier than
    ``num_perm`` independent permutations would give (two 4-shingle
    docs at exact Jaccard 0.6 can estimate 0.85).

    Emits ONE row per doc: (int64 id, sig fixed-list, band_hash
    fixed-list) — band rows are exploded WITHOUT the signature
    downstream, so the LSH shuffle carries ~16 bytes per (doc, band),
    not the signature.
    """

    _POLY = np.uint64(1099511628211)
    _SENTINEL = np.uint8(0x1F)
    _PROBES = 32  # densification attempts tried per vectorized round

    def __init__(self, num_perm: int = 128, bands: int = 32, shingle_k: int = 5,
                 text_col: str = "text", id_col: str = "doc_id"):
        if num_perm % bands:
            raise ValueError("bands must divide num_perm")
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.k = shingle_k
        self.text_col = text_col
        self.id_col = id_col
        # the signature of a doc with no shingle (fixed: identical in
        # every worker, so empty docs match each other)
        self._empty = self._splitmix(
            np.arange(num_perm, dtype=np.uint64) ^ np.uint64(0xE3E3))

    def sign(self, ds):
        """``ds`` → its signature Dataset, materialized (spillable): one
        stateless ``map_batches`` of this instance."""
        return ds.map_batches(self, batch_format="pyarrow").materialize()

    @staticmethod
    def _splitmix(z: np.ndarray) -> np.ndarray:
        z = (z + np.uint64(0x9E3779B97F4A7C15))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def _bin_of(self, h: np.ndarray) -> np.ndarray:
        """Multiply-high of the top 32 bits: uniform on ``[0, num_perm)``
        for any ``num_perm``."""
        return ((h >> np.uint64(32)) * np.uint64(self.num_perm)
                >> np.uint64(32)).astype(np.intp)

    def _probe(self, t0: int) -> np.ndarray:
        """``(num_perm, _PROBES)`` densification targets ``H(i, t)`` for
        attempts ``t0 .. t0+_PROBES-1`` of every bin ``i``."""
        i = np.arange(self.num_perm, dtype=np.uint64)[:, None]
        t = np.arange(t0, t0 + self._PROBES, dtype=np.uint64)[None, :]
        return self._bin_of(self._splitmix((i << np.uint64(32)) | t))

    def _shingle_stream(self, texts):
        """→ (shingle hashes, per-doc start offsets into them).

        Only real shingles are returned: windows lying FULLY inside
        their doc's byte span. Windows crossing into the next doc's
        bytes and the trailing windows over the final doc's sentinel
        pad never count, so a doc's shingles — hence its signature — do
        not depend on batch composition or order, and short docs'
        jaccard estimates carry no phantom shingles.
        """
        if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = pa.array(list(texts), type=pa.large_string())
        arr = normalize_text(texts)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = arr.cast(pa.large_string())
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
            arr.offset : arr.offset + len(arr) + 1
        ]
        data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
        lens = np.diff(offs)
        n = len(lens)
        k = self.k
        pad = k - 1
        nbytes = int(offs[-1] - offs[0])
        total = nbytes + pad * n
        padded = np.full(total, self._SENTINEL, dtype=np.uint8)
        shift = np.repeat(pad * np.arange(n, dtype=np.int64), lens)
        padded[np.arange(nbytes, dtype=np.int64) + shift] = data[offs[0]:offs[-1]]
        # rolling degree-(k-1) polynomial over the padded stream
        m = max(0, total - k + 1)
        acc = np.zeros(m, dtype=np.uint64)
        for j in range(k):
            acc = acc * self._POLY + padded[j : m + j]
        padded_starts = (offs[:-1] - offs[0]) + pad * np.arange(n, dtype=np.int64)
        # a doc of len >= k has len-k+1 in-doc windows; a shorter
        # non-empty doc keeps exactly its first window (doc bytes +
        # deterministic sentinel tail) as a content fingerprint, so
        # distinct short contents still get distinct shingles
        counts = np.where(lens >= k, lens - k + 1, (lens > 0).astype(np.int64))
        starts = np.cumsum(counts) - counts
        pos = (np.repeat(padded_starts - starts, counts)
               + np.arange(int(counts.sum()), dtype=np.int64))
        return self._splitmix(acc[pos]), starts

    def signatures(self, texts) -> np.ndarray:
        h, starts = self._shingle_stream(texts)
        n, P = len(starts), self.num_perm
        counts = np.diff(np.append(starts, len(h)))
        cell = np.repeat(np.arange(n, dtype=np.intp) * P, counts) + self._bin_of(h)
        sig = np.full(n * P, np.iinfo(np.uint64).max, dtype=np.uint64)
        np.minimum.at(sig, cell, h)
        filled = np.zeros(n * P, dtype=bool)
        filled[cell] = True
        sig, filled = sig.reshape(n, P), filled.reshape(n, P)
        # optimal densification: every empty bin of a non-empty doc
        # copies the first ORIGINALLY filled bin on its probe sequence,
        # _PROBES attempts per vectorized round
        doc, i = np.nonzero(~filled & (counts > 0)[:, None])
        t0 = 1
        while len(doc):
            J = self._probe(t0)[i]
            hit = filled[doc[:, None], J]
            first = hit.argmax(axis=1)
            rows = np.arange(len(doc))
            ok = hit[rows, first]
            sig[doc[ok], i[ok]] = sig[doc[ok], J[rows, first][ok]]
            doc, i = doc[~ok], i[~ok]
            t0 += self._PROBES
        sig[counts == 0] = self._empty
        return sig

    def band_hashes(self, sig: np.ndarray) -> np.ndarray:
        """(n_docs, bands) uint64 — hash of each band's signature rows.

        The band index is folded into the seed, so hashes are globally
        unique per (band, chunk-value) and grouping on the hash alone
        suffices (cross-band collisions only create extra candidates,
        which verification discards)."""
        n = sig.shape[0]
        out = np.empty((n, self.bands), dtype=np.uint64)
        for b in range(self.bands):
            chunk = sig[:, b * self.rows_per_band : (b + 1) * self.rows_per_band]
            acc = np.full(n, 0xCBF29CE484222325, dtype=np.uint64) ^ self._splitmix(
                np.array([b + 1], dtype=np.uint64)
            )[0]
            for r in range(self.rows_per_band):
                acc = (acc ^ chunk[:, r]) * np.uint64(0x100000001B3)
            out[:, b] = acc
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(self.id_col))
        sig = self.signatures(batch.column(self.text_col))
        bh = self.band_hashes(sig)
        # the emitted signature is TRUNCATED to 16 bits per perm: it is
        # used only for est_jaccard equality counting downstream, where
        # a truncation false-match costs 2^-16 per perm (est bias
        # ≤ (1−j)/65536 — far below the binomial noise) but cuts the
        # verification shuffle payload 4× (the sort of sig rows was the
        # superlinear term at 200k docs: 63 s → 21 s end-to-end)
        return pa.table({
            self.id_col: pa.array(ids, pa.int64()),
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array((sig & np.uint64(0xFFFF)).astype(np.uint16).reshape(-1)),
                self.num_perm),
            "band_hash": pa.FixedSizeListArray.from_arrays(
                pa.array(bh.reshape(-1).astype(np.int64)), self.bands),
        })


def _bucket_boundaries(sort_keys: np.ndarray, ids: np.ndarray):
    """Sort rows by (bucket, id), drop (bucket, id) duplicates, return
    (bucket-sorted ids, per-bucket starts, per-bucket sizes)."""
    order = np.lexsort((ids, sort_keys))
    k, i = sort_keys[order], ids[order]
    keep = np.ones(len(k), dtype=bool)
    if len(k) > 1:
        keep[1:] = (np.diff(k) != 0) | (i[1:] != i[:-1])
    k, i = k[keep], i[keep]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(k)) + 1)) if len(k) else np.zeros(0, np.int64)
    sizes = np.diff(np.concatenate((starts, [len(k)]))).astype(np.int64)
    return i, starts.astype(np.int64), sizes


def _pairs_from_buckets(ids_sorted: np.ndarray, starts: np.ndarray,
                        sizes: np.ndarray, cutoff: int):
    """Vectorized candidate-pair generation over MANY buckets at once —
    no Python loop over buckets (they number in the billions at scale).

    Buckets with ``size <= cutoff`` emit ALL within-bucket pairs, so
    similar pairs not involving the bucket's min-id hub are still found.
    Larger buckets emit star edges (hub → members): g-1 edges instead
    of g(g-1)/2, bounding blowup on template-heavy corpora (union-find
    connectivity through the hub still reaches every member).
    Returns (a, b) with a < b (ids ascending within bucket).
    """
    n = len(ids_sorted)
    if n == 0:
        e = np.zeros(0, dtype=np.int64)
        return e, e.copy()
    small = sizes <= cutoff
    bucket_start_of = np.repeat(starts, sizes)
    pos = np.arange(n, dtype=np.int64) - bucket_start_of
    # --- all pairs (small buckets): element i closes `pos` pairs with
    # the earlier elements of its bucket, indices start .. start+pos-1
    counts = np.where(np.repeat(small, sizes), pos, 0)
    total = int(counts.sum())
    b_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    first_pair = np.cumsum(counts) - counts
    a_idx = (np.arange(total, dtype=np.int64) - np.repeat(first_pair, counts)
             + np.repeat(bucket_start_of, counts))
    a_small, b_small = ids_sorted[a_idx], ids_sorted[b_idx]
    # --- star edges (large buckets): hub = bucket min id
    member = np.repeat(~small, sizes) & (pos > 0)
    a_large = np.repeat(ids_sorted[starts], sizes)[member]
    b_large = ids_sorted[member]
    return (np.concatenate([a_small, a_large]).astype(np.int64),
            np.concatenate([b_small, b_large]).astype(np.int64))


def _sig_type(num_perm: int):
    return pa.list_(pa.uint16(), num_perm)


def _sig_matrix(t: pa.Table, num_perm: int) -> np.ndarray:
    """``t``'s ``sig`` column as a ``[rows, num_perm]`` uint16 matrix."""
    return np.asarray(t.column("sig").combine_chunks().flatten()
                      ).reshape(t.num_rows, num_perm)


def _sig_array(S: np.ndarray, num_perm: int) -> pa.Array:
    """Inverse of :func:`_sig_matrix`: rows → a ``sig`` column."""
    return pa.FixedSizeListArray.from_arrays(pa.array(S.reshape(-1)),
                                             num_perm)


def _band_screen(a: np.ndarray, b: np.ndarray, min_bands: int):
    """Distinct candidate pairs ``(a, b)`` seen in at least
    ``min_bands`` rows, sorted by ``(a, b)``. Every colliding band
    emits one copy of a pair, so a pair's run length after one
    ``lexsort`` is its band-collision count: the dedupe and the
    band-collision screen cost one sort."""
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    first = np.ones(len(a), dtype=bool)
    if len(a) > 1:
        first[1:] = (np.diff(a) != 0) | (b[1:] != b[:-1])
    starts = np.flatnonzero(first)
    keep = starts[np.diff(np.append(starts, len(a))) >= min_bands]
    return a[keep], b[keep]


def _sig_rows(sigs: pa.Table, ids: np.ndarray, num_perm: int,
              id_col: str) -> np.ndarray:
    """Signature rows of ``ids``, looked up with one ``searchsorted`` in
    ``sigs`` (signature rows sorted by ``id_col``)."""
    pos = np.searchsorted(np.asarray(sigs.column(id_col)), ids)
    return _sig_matrix(sigs, num_perm)[pos]


def _estimated(a: np.ndarray, b: np.ndarray, sig_a: np.ndarray,
               sig_b: np.ndarray, min_est: float) -> pa.Table:
    """``(a, b, est_jaccard)`` of the pairs whose signature agreement
    ``est_jaccard`` (the share of equal perms) is at least ``min_est``."""
    est = (sig_a == sig_b).mean(axis=1)
    ok = est >= min_est  # the caller's threshold
    return pa.table({"a": pa.array(a[ok], pa.int64()),
                     "b": pa.array(b[ok], pa.int64()),
                     "est_jaccard": pa.array(est[ok], pa.float64())})


def _verify_pairs(sig_ds, edges, num_perm: int, id_col: str, n_parts: int,
                  min_est: float = 0.0, min_bands: int = 1):
    """Distributed signature verification: estimate Jaccard for every
    candidate edge WITHOUT broadcasting signatures or touching the
    driver. The plan for widths ≥ 2; at width 1
    :func:`lsh_candidate_pairs` runs the same screen and estimate
    fused with pairing in one pass.

    Two :func:`~.fold.co_attach` exchanges: phase A co-partitions
    signature rows ``(id, sig)`` with edge rows ``(a, b)`` on ``a`` and
    attaches ``sig_a`` via one vectorized ``searchsorted`` per
    partition; phase B repeats keyed by ``b`` and emits
    ``(a, b, est_jaccard)`` (:func:`_estimated`). Each signature
    crosses the wire once per phase; each edge carries one signature
    through phase B only.

    Phase A also DEDUPES edges and applies the ``min_bands``
    band-collision screen (:func:`_band_screen`): every copy of a pair
    (one per colliding band) has the same ``a``, hence the same
    partition — so run-length counting inside the group replaces a
    whole extra ``groupby(a, b)`` shuffle.
    """
    i64, fsl = pa.int64(), _sig_type(num_perm)
    sig_schema = [(id_col, i64), ("sig", fsl)]

    def attach_a(sigs: pa.Table, e: pa.Table) -> pa.Table:
        a, b = _band_screen(np.asarray(e.column("a")),
                            np.asarray(e.column("b")), min_bands)
        return pa.table({"b": pa.array(b, i64), "a": pa.array(a, i64),
                         "sig": _sig_array(
                             _sig_rows(sigs, a, num_perm, id_col), num_perm)})

    def verify_b(sigs: pa.Table, e: pa.Table) -> pa.Table:
        b = np.asarray(e.column("b"))
        return _estimated(np.asarray(e.column("a")), b,
                          _sig_matrix(e, num_perm),
                          _sig_rows(sigs, b, num_perm, id_col), min_est)

    phase_a = co_attach(sig_ds, edges, attach_a, left_key=id_col,
                        right_key="a", n_parts=n_parts,
                        left_schema=sig_schema,
                        right_schema=[("a", i64), ("b", i64)])
    return co_attach(sig_ds, phase_a, verify_b, left_key=id_col,
                     right_key="b", n_parts=n_parts, left_schema=sig_schema,
                     right_schema=[("b", i64), ("a", i64), ("sig", fsl)])


def _min_bands_screen(bands: int, num_perm: int, min_est: float,
                      tail: float = 1e-5) -> int:
    """Band-collision screen strength: require ≥ m colliding bands
    before a pair pays the verification shuffle.

    m is the largest value with ``P(Binom(bands, min_est^r) < m) <
    tail`` (exact binomial CDF, r = rows per band): a TRUE pair at
    exactly the threshold is dropped pre-verification with probability
    < ``tail``; pairs above the threshold lose far less. m is further
    capped at the DETERMINISTIC bound ``bands - (1-min_est)*num_perm``:
    any pair whose signature agreement would pass verification
    (est ≥ min_est ⇒ ≤ (1-min_est)*num_perm mismatched perms, each
    breaking at most one band) has at least that many intact bands —
    so below the cap the screen cannot drop a pair verification would
    keep (up to the 2^-16/perm sig-truncation slack)."""
    from math import comb

    r = num_perm // bands
    p = min_est ** r
    cdf = 0.0
    best = 1
    for m in range(1, bands + 1):
        cdf += comb(bands, m - 1) * (p ** (m - 1)) * ((1.0 - p) ** (bands - m + 1))
        if cdf < tail:
            best = m
        else:
            break
    det_cap = max(1, bands - int(np.ceil((1.0 - min_est) * num_perm)))
    return max(1, min(best, det_cap))


def lsh_candidate_pairs(ds, num_perm: int = 128, bands: int = 32,
                        shingle_k: int = 5, text_col: str = "text",
                        id_col: str = "doc_id", pair_cutoff: int = 64,
                        n_parts: int = 64, min_est: float = 0.0):
    """documents → signatures (one materialized pass) → (band_hash, id)
    explode → coarse-partitioned vectorized pairing → distributed
    signature verification. Returns a **Dataset** (a, b, est_jaccard) —
    nothing is materialized on the driver.

    Scale notes: the LSH shuffle moves only (id, band_hash) rows; the
    pairing partitions are ``band_hash & (n_parts-1)`` so each
    ``partition_map`` call processes ~#buckets/n_parts buckets in one
    vectorized pass. The width of all three exchanges is sized from the
    band-row count by :func:`~.fold.exchange_width` (one partition per
    ~250k rows, PERF §15/§57); ``n_parts`` stays the upper bound, the
    knob to raise with cluster size. Signatures are materialized as a
    Dataset (spillable), never collected.

    Width 1 (under ``ROWS_PER_PART`` band rows, or ``n_parts=1``):
    pairing, the band-collision screen and the estimate run as one
    function over one block of the signature table — one width-1
    :func:`~.fold.partition_map`, so one ``repartition(1)`` and no
    union or sort (PERF §64). Widths ≥ 2 run the pairing exchange and
    :func:`_verify_pairs`' two; both plans share the kernels, the
    screen and the estimate, so the edges are the same.
    """
    sig_ds = MinHasher(num_perm, bands, shingle_k, text_col, id_col).sign(ds)
    # size the exchange from the band-row count (PERF §15, §57): each
    # sort partition carries fixed task latency, so a small corpus runs
    # one partition; the caller's n_parts stays the upper bound
    n_parts = exchange_width(sig_ds.count() * bands, n_parts)
    # a pair found by several bands must verify once, not per band — and
    # the band-collision COUNT is itself a free jaccard screen that
    # drops the flood of low-jaccard template-bucket pairs BEFORE each
    # would drag a signature through the verification shuffle. The
    # screen strength is DERIVED, not guessed: see _min_bands_screen
    # (the previous fixed 0.25x-expectation rule had a ~1e-4 drop tail
    # at threshold 0.8 / 32 bands, five orders looser than its comment
    # claimed — round-2 advice).
    min_bands = 1
    if min_est > 0:
        min_bands = _min_bands_screen(bands, num_perm, min_est)

    def band_rows(t: pa.Table):
        """(id per band row, band hash per band row) of signature rows."""
        ids = np.asarray(t.column(id_col))
        bh = np.asarray(t.column("band_hash").combine_chunks().flatten())
        return np.repeat(ids, bands), bh

    def candidates(bh: np.ndarray, ids: np.ndarray):
        ids_sorted, starts, sizes = _bucket_boundaries(bh, ids)
        return _pairs_from_buckets(ids_sorted, starts, sizes, pair_cutoff)

    if n_parts == 1:
        def pair_screen_verify(_part: int, t: pa.Table) -> pa.Table:
            ids, bh = band_rows(t)
            a, b = _band_screen(*candidates(bh, ids), min_bands)
            sigs = t.select([id_col, "sig"]).take(
                pc.sort_indices(t.column(id_col)))
            return _estimated(a, b, _sig_rows(sigs, a, num_perm, id_col),
                              _sig_rows(sigs, b, num_perm, id_col), min_est)

        return partition_map(sig_ds, pair_screen_verify, key=id_col, width=1)

    def explode(batch: pa.Table) -> pa.Table:
        ids, bh = band_rows(batch)
        return pa.table({id_col: pa.array(ids), "band_hash": pa.array(bh)})

    def emit_pairs(_part: int, g: pa.Table) -> pa.Table:
        a, b = candidates(np.asarray(g.column("band_hash")),
                          np.asarray(g.column(id_col)))
        return pa.table({"a": pa.array(a), "b": pa.array(b)})

    pairs = partition_map(
        sig_ds.select_columns([id_col, "band_hash"])
        .map_batches(explode, batch_format="pyarrow"),
        emit_pairs, key="band_hash", width=n_parts)
    # the dedupe and the screen run INSIDE verification's phase A (same
    # partitioning)
    return _verify_pairs(sig_ds, pairs, num_perm, id_col, n_parts, min_est,
                         min_bands)


def minhash_dedup(ds, threshold: float = 0.8, num_perm: int = 128,
                  bands: int = 32, shingle_k: int = 5,
                  text_col: str = "text", id_col: str = "doc_id",
                  broadcast_limit: int = 2_000_000,
                  work_dir: Optional[str] = None,
                  cc_backend: str = "driver",
                  co_partition: Optional[bool] = None):
    """Near-dup removal: keep one representative (min id) per connected
    component of the ≥threshold candidate graph. Returns (deduped_ds,
    dup_map) where dup_map maps candidate id → its component's kept id.

    End-to-end distributed: candidate generation, verification
    (:func:`lsh_candidate_pairs` — edge Dataset, no driver rows) and
    clustering (min-label propagation over the edge Dataset). With the
    default ``cc_backend="driver"`` the only driver state is the
    component label table (one int per CANDIDATE node — bounded by
    real near-duplication, not corpus size) used to build ``dup_map``
    and the removed-id :class:`~.keyset.KeySet` (broadcast up to
    ``broadcast_limit`` ids, sharded under ``work_dir`` above; the
    component label table still transits the driver once — the stated
    ~16 B/node contract of connected_components — but the filter stage
    never replicates it across the cluster).

    ``cc_backend="dataset"`` removes even that: clustering runs as
    :func:`~.components.connected_components_ds` (labels stay a
    hash-partitioned Dataset), the removed-id set is always built
    sharded (``broadcast_limit=0``) without EVER touching the driver,
    and the second return value is the labels **Dataset**
    ``(node, component)`` instead of a dict — the path for corpora
    whose candidate-node set itself outgrows driver memory.

    **Mirror-heavy corpora: run :func:`exact_dedup` FIRST.** m exact
    copies of one text share identical signatures, so every band
    bucket gains an m-clique — candidate rows grow as
    ``distinct_texts × m² × bands`` (measured: a corpus with every
    text ×40 produces ~10^8 candidate pairs and times out where the
    distinct corpus takes seconds; multiplicity > ``pair_cutoff``
    degrades to star edges but the zone just below it is quadratic).
    The composition is SEMANTICS-PRESERVING: exact_dedup keeps each
    text group's min id, and a component's min id is always such a
    representative (exact copies have est_jaccard 1 and id > their
    group min), so ``minhash_dedup(exact_dedup(ds))`` keeps exactly
    the rows ``minhash_dedup(ds)`` would — test-pinned.
    """
    if cc_backend not in ("driver", "dataset"):
        raise ValueError(f"unknown cc_backend: {cc_backend!r}")
    edges = lsh_candidate_pairs(ds, num_perm, bands, shingle_k, text_col,
                                id_col, min_est=threshold).materialize()
    if edges.count() == 0:
        if cc_backend == "driver":
            return ds, {}
        # keep the documented contract: second value is ALWAYS a
        # (node, component) Dataset on this backend, empty here
        import ray.data as rd

        return ds, rd.from_arrow(pa.table(
            {"node": pa.array([], pa.int64()),
             "component": pa.array([], pa.int64())}))

    if cc_backend == "dataset":
        from .components import connected_components_ds

        clusters = connected_components_ds(edges).materialize()
        removed = clusters.filter(expr="node != component").materialize()
        broadcast_limit = 0  # this backend's set never visits the driver
    else:
        from .components import connected_components

        cc = connected_components(edges)
        clusters = dict(zip(cc["node"].astype(int),
                            cc["component"].astype(int)))
        removed = pa.Table.from_pandas(
            cc.loc[cc["node"] != cc["component"], ["node"]],
            preserve_index=False)
    removed = KeySet.build(removed, "node", broadcast_limit=broadcast_limit,
                           work_dir=work_dir, prefix="minhash-dedup-shards-")
    if removed.n == 0:
        return ds, (clusters if cc_backend == "dataset" else {})
    deduped = removed.filter(
        ds, lambda b: np.asarray(b.column(id_col)).astype(np.int64),
        lambda b, keys, found, kv: ~found, co_partition)
    return deduped, clusters


# ----------------------------------------------------------------- SimHash
def simhash64(texts) -> np.ndarray:
    """64-bit Charikar SimHash per doc, vectorized end to end: Arrow
    lowercase + regex tokenize → flat token hashes → per-bit ±1 votes
    → segmented sum by doc → sign. Accepts an Arrow array/chunked
    array or a Python sequence; docs with no tokens hash as the single
    empty token (stable sentinel signature)."""
    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()
    elif isinstance(texts, pa.Array):
        arr = texts
    else:
        arr = pa.array([t if t is not None else "" for t in texts],
                       type=pa.large_string())
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    arr = pc.fill_null(arr, "")
    toks = pc.split_pattern_regex(pc.utf8_lower(arr), r"\s+")
    flat = pc.list_flatten(toks)
    parents = np.asarray(pc.list_parent_indices(toks))
    nonempty = np.asarray(pc.not_equal(flat, ""))
    flat = flat.filter(pa.array(nonempty))
    parents = parents[nonempty]
    h = hash64(flat, 0x51AA) if len(flat) else np.zeros(0, dtype=np.uint64)
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int8)
    votes = bits * 2 - 1  # ±1
    # segmented per-doc sum (parents sorted ascending; docs may be absent)
    sums = np.zeros((n, 64), dtype=np.int64)
    if len(parents):
        starts = np.concatenate(([0], np.flatnonzero(np.diff(parents)) + 1))
        present = parents[starts]
        sums[present] = np.add.reduceat(votes, starts, axis=0)
    # token-less docs: signature of the single empty token (parity with
    # the original ``toks or [""]`` rule)
    absent = np.flatnonzero(~np.isin(np.arange(n), parents[starts] if len(parents) else []))
    if len(absent):
        h0 = hash64(pa.array([""], type=pa.large_string()), 0x51AA)[0]
        empty_votes = (((np.uint64(h0) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(np.int8) * 2 - 1)
        sums[absent] = empty_votes
    sig_bits = (sums > 0).astype(np.uint64)
    return (sig_bits << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1, dtype=np.uint64)


_POPCOUNT8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit distance of 64-bit words: a 256-entry byte popcount table
    looked up over the 8 bytes of each ``a ^ b``, summed per value."""
    x = np.asarray(a ^ b).astype(np.uint64)
    per_byte = _POPCOUNT8[x.reshape(-1).view(np.uint8)].reshape(-1, 8)
    return per_byte.sum(axis=1, dtype=np.uint64).reshape(x.shape)


def simhash_candidate_pairs(ds, max_hamming: int = 3, text_col: str = "text",
                            id_col: str = "doc_id", pair_cutoff: int = 64,
                            n_parts: int = 64):
    """SimHash near-dup candidate pairs as a **Dataset** (a, b, hamming):
    4×16-bit chunk LSH (two equal chunks guaranteed when hamming ≤ 3 —
    pigeonhole over 4 chunks), verified by full 64-bit hamming distance.

    Fully distributed, same topology as :func:`lsh_candidate_pairs`:
    the bucket space is coarsely partitioned (``bucket & (n_parts-1)``)
    and each partition pairs + verifies ALL its buckets in one
    vectorized pass — the 64-bit simhash travels WITH the bucket row,
    so verification needs no second shuffle. Buckets above
    ``pair_cutoff`` fall back to star edges (hub → members).
    A pair found by several chunks is folded to its min hamming.
    """
    from .fold import bucket_fold

    def sigs(batch: pa.Table) -> pa.Table:
        sh = simhash64(batch.column(text_col))  # arrow in, no row loop
        ids = np.asarray(batch.column(id_col)).astype(np.int64)
        # bucket key = chunk index folded with chunk value (distinct per chunk)
        chunk_vals = np.stack(
            [((sh >> np.uint64(16 * c)) & np.uint64(0xFFFF))
             | np.uint64((c + 1) << 48) for c in range(4)], axis=1
        ).astype(np.int64)
        flat = chunk_vals.reshape(-1)
        return pa.table({
            id_col: pa.array(np.repeat(ids, 4)),
            "bucket": pa.array(flat),
            "simhash": pa.array(np.repeat(sh.astype(np.int64), 4)),
        })

    sig_rows = ds.map_batches(sigs, batch_format="pyarrow").materialize()
    n_parts = exchange_width(sig_rows.count(), n_parts)

    def pair_and_verify(_part: int, g: pa.Table) -> pa.Table:
        buckets = np.asarray(g.column("bucket"))
        ids = np.asarray(g.column(id_col))
        sh = np.asarray(g.column("simhash")).astype(np.uint64)
        order = np.lexsort((ids, buckets))
        b_s, i_s, h_s = buckets[order], ids[order], sh[order]
        keep = np.ones(len(b_s), dtype=bool)
        if len(b_s) > 1:
            keep[1:] = (np.diff(b_s) != 0) | (i_s[1:] != i_s[:-1])
        b_s, i_s, h_s = b_s[keep], i_s[keep], h_s[keep]
        starts = (np.concatenate(([0], np.flatnonzero(np.diff(b_s)) + 1))
                  if len(b_s) else np.zeros(0, np.int64)).astype(np.int64)
        sizes = np.diff(np.concatenate((starts, [len(b_s)]))).astype(np.int64)
        # pair INDICES (not ids) so the simhash rides along for verification
        idx = np.arange(len(i_s), dtype=np.int64)
        a_pos, b_pos = _pairs_from_buckets(idx, starts, sizes, pair_cutoff)
        if len(a_pos) == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int64())})
        d = hamming64(h_s[a_pos], h_s[b_pos]).astype(np.int64)
        ok = d <= max_hamming
        return pa.table({"a": pa.array(i_s[a_pos[ok]]),
                         "b": pa.array(i_s[b_pos[ok]]),
                         "hamming": pa.array(d[ok])})

    pairs = partition_map(sig_rows, pair_and_verify, key="bucket",
                          width=n_parts)
    return bucket_fold(pairs, ["a", "b"],
                       [("hamming", "min", "hamming")], num_buckets=n_parts)


def simhash_candidates(ds, max_hamming: int = 3, text_col: str = "text",
                       id_col: str = "doc_id", pair_cutoff: int = 64,
                       n_parts: int = 64) -> pd.DataFrame:
    """Collected convenience wrapper around
    :func:`simhash_candidate_pairs` — returns the (small, verified)
    pair set as a pandas DataFrame (a, b, hamming) sorted by (a, b)."""
    out = simhash_candidate_pairs(ds, max_hamming, text_col, id_col,
                                  pair_cutoff, n_parts).to_pandas()
    if out.empty:
        return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                             "b": pd.Series([], dtype="int64"),
                             "hamming": pd.Series([], dtype="int64")})
    return out.sort_values(["a", "b"]).reset_index(drop=True)


# ------------------------------------------------------------ exact verify
def ngram_jaccard(a: str, b: str, n: int = 5) -> float:
    """Exact char-n-gram Jaccard — the verify step behind MinHash."""
    sa = {a[i : i + n] for i in range(max(1, len(a) - n + 1))}
    sb = {b[i : i + n] for i in range(max(1, len(b) - n + 1))}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def cap_per_key(ds, key_col: str, order_col: str, k: int, *,
                pre: Optional[Callable[[pa.Table], pa.Table]] = None):
    """Keep the ``k`` smallest ``order_col`` rows per ``key_col`` — the
    per-host document cap every Common-Crawl pipeline runs so hot
    domains can't dominate the training mix (selection is deterministic:
    smallest ``order_col`` wins; pass a unique id column for stable
    results).

    Scale design (100 TB): two-phase partial top-k over one bucketed
    :func:`~.fold.exchange`. Phase 1 prunes INSIDE ``map_batches`` —
    lexsort each block by (key-hash, order), run-rank, keep rank < k —
    so the only shuffle moves at most ``k × blocks-containing-key``
    candidate rows per key instead of the corpus (a 10^8-doc host ships
    ~k rows per input block, not 10^8). Phase 2 runs the SAME vectorized
    cap once per hash bucket of the key (≤ 64 reducer calls at any host
    count); it is exact because every row of a key lands in one bucket.
    Run boundaries compare the REAL key of adjacent sorted rows, so
    key-hash collisions cannot over-prune. Null keys form one group.
    The output keeps the input schema. Carry only the columns you need
    into ``ds`` (id + key) and semi-join the survivors back against the
    full table — candidate rows travel whole.

    ``pre``: the caller's per-block map (e.g. deriving ``key_col``),
    run map-side before phase 1, as :func:`~.fold.exchange`'s ``pre``.
    Passing it here instead of mapping ``ds`` first keeps the input's
    free row count, so the exchange is count-sized.
    """
    from .fold import exchange

    if k < 1:
        raise ValueError("k must be >= 1")

    def local_cap(b: pa.Table) -> pa.Table:
        if b.num_rows <= k:
            return b
        keys = b.column(key_col)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        kh = hash64(keys, 0xCA9).astype(np.int64)
        vals = np.asarray(b.column(order_col))
        order = np.lexsort((vals, kh))
        kh_s = kh[order]
        new_run = np.ones(len(kh_s), dtype=bool)
        if len(kh_s) > 1:
            new_run[1:] = kh_s[1:] != kh_s[:-1]
            # break runs on the actual key too: equal hashes from
            # DIFFERENT keys must not share a candidate budget
            same_hash = ~new_run[1:]
            if same_hash.any():
                ks = keys.take(pa.array(order))
                neq = np.asarray(
                    pc.not_equal(ks.slice(1), ks.slice(0, len(ks) - 1)))
                new_run[1:] |= same_hash & neq.astype(bool)
        run_id = np.cumsum(new_run) - 1
        starts = np.flatnonzero(new_run)
        rank = np.arange(len(kh_s)) - starts[run_id]
        keep_sorted = rank < k
        keep_idx = np.sort(order[keep_sorted])
        return b.take(pa.array(keep_idx))

    def pre_cap(b: pa.Table) -> pa.Table:
        return local_cap(b if pre is None else pre(b))

    return exchange(ds, [key_col], local_cap, pre=pre_cap)


def minhash_join(a_ds, b_ds, *, threshold: float = 0.8,
                 num_perm: int = 128, bands: int = 32, shingle_k: int = 5,
                 text_col: str = "text", id_col: str = "doc_id",
                 n_parts: int = 64, pair_cutoff: int = 64):
    """Cross-corpus near-duplicate JOIN: pairs ``(a_id, b_id,
    est_jaccard ≥ threshold)`` with ``a_id`` from ``a_ds`` and
    ``b_id`` from ``b_ds`` only — the "which docs in the new crawl
    near-duplicate the existing corpus" question (fuzzy record
    linkage). Returns a Dataset; nothing materializes on the driver.

    Implementation is pure reuse of the single-corpus LSH machinery:
    ids are parity-tagged (A → 2·id, B → 2·id+1), the tagged union
    runs :func:`lsh_candidate_pairs`, and a map-side filter keeps only
    cross-parity pairs before untagging — same shuffle volume as one
    LSH pass over |A|+|B|, no new exchange.

    Completeness contract: identical normalized texts always share
    every band, so duplicate CLUSTERS are always discovered — but
    buckets larger than ``pair_cutoff`` degrade to star edges around
    the bucket-min id (the hot-bucket guard against quadratic pair
    expansion), and a star edge whose hub lands on the same side as a
    member emits no cross pair for that member. All pairs are
    complete for clusters ≤ ``pair_cutoff``; raise it when exhaustive
    pairing of mega-clusters (e.g. boilerplate duplicated 10^5×)
    matters more than the quadratic blowup it costs.
    """
    def _tag(offset: int):
        def tag(b: pa.Table) -> pa.Table:
            ids = np.asarray(b.column(id_col), dtype=np.int64)
            if (ids < 0).any():
                raise ValueError("minhash_join requires non-negative ids")
            return b.drop_columns([id_col]).append_column(
                "_tid", pa.array(ids * 2 + offset))
        return tag

    a_t = a_ds.map_batches(_tag(0), batch_format="pyarrow",
                           batch_size=None)
    b_t = b_ds.map_batches(_tag(1), batch_format="pyarrow",
                           batch_size=None)
    # min_est=threshold arms the derived band-collision screen and the
    # in-shuffle estimate filter, so sub-threshold candidates are
    # discarded BEFORE dragging signatures through the verification
    # shuffles (cross_only's est >= threshold below is then a no-op
    # safety filter) — the same scale contract as the single-corpus path
    pairs = lsh_candidate_pairs(
        a_t.union(b_t), num_perm=num_perm, bands=bands,
        shingle_k=shingle_k, text_col=text_col, id_col="_tid",
        n_parts=n_parts, pair_cutoff=pair_cutoff, min_est=threshold)

    def cross_only(b: pa.Table) -> pa.Table:
        x = np.asarray(b.column("a"), dtype=np.int64)
        y = np.asarray(b.column("b"), dtype=np.int64)
        est = np.asarray(b.column("est_jaccard"), dtype=np.float64)
        m = ((x ^ y) & 1).astype(bool) & (est >= threshold)
        x, y, est = x[m], y[m], est[m]
        a_id = np.where((x & 1) == 0, x, y) >> 1
        b_id = np.where((x & 1) == 1, x, y) >> 1
        return pa.table({"a_id": pa.array(a_id),
                         "b_id": pa.array(b_id),
                         "est_jaccard": pa.array(est)})

    return pairs.map_batches(cross_only, batch_format="pyarrow",
                             batch_size=None)

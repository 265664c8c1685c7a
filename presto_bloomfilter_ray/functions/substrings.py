"""Corpus-level repeated-substring scrubbing (window-hash dedup at
substring granularity).

The substring analog of C4-style boilerplate line removal and of
Lee et al. 2021's "Deduplicating Training Data Makes Language Models
Better" ExactSubstr dedup: a fixed-length character window that occurs
in ``min_docs`` or more DISTINCT documents is "hot", and every
position covered by a hot window is cut from every document. Shared
boilerplate (cookie banners, license blurbs, mirrored paragraphs)
vanishes corpus-wide while unique content is untouched.

Scale shape (identical to :func:`~.text.boilerplate_lines`):

* **Window hashing is one vectorized pass** — each batch's texts are
  concatenated once, decoded to a codepoint array, and rolled through
  a 64-bit polynomial hash via prefix products (``P[i+L] − M^L·P[i]``,
  all mod 2⁶⁴ in uint64 numpy). No Python loop over rows, windows, or
  characters. Windows never cross document boundaries (segmented
  starts).
* **The shuffle carries (window_hash, distinct_docs) pairs**,
  pre-combined per batch — never window text. Each document lives in
  exactly one batch, so per-batch distinct-doc counts sum exactly.
* **The hot set is a** :class:`~.keyset.KeySet`, like dedup removal's
  sets: a broadcast sorted int64 array under ``broadcast_limit``, else
  hash-partitioned parquet shards probed with the per-worker LRU.
* **Scrubbing is a pure map stage**: recompute window hashes, probe,
  mark coverage with a diff-array cumsum, and rebuild each batch's
  strings from the surviving codepoints with ONE decode of the whole
  batch + O(1) slices.

Windows are CHARACTERS (codepoints), not bytes, so semantics mirror
SQL ``substr(text, i, L)`` / ``len(text)`` exactly — the oracle for
``substring_scrub_stats`` recomputes hot windows and coverage by
exploding real substrings. Hash-level equality carries the same
deterministic-collision contract as the dedup oracles
(P ≈ n²/2⁶⁵ over distinct windows, identical across runs).

Difference vs Lee et al.: they keep ONE occurrence of each duplicated
span; this operator (like boilerplate line removal) cuts all of them —
the right semantics for boilerplate, and the conservative one for
decontamination. Keep-one requires a per-window winner election and is
deliberately out of scope here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .keyset import KeySet

__all__ = ["hot_windows", "scrub_repeated_substrings"]

# odd multiplier → invertible mod 2^64, so prefix hashes can be formed
# with cumulative products instead of a sequential scan
_M = np.uint64(0x9E3779B97F4A7C15)
_M_INV = np.uint64(pow(0x9E3779B97F4A7C15, -1, 1 << 64))


def _codepoints(col) -> tuple:
    """Batch text column → (uint64 codepoint array, int64 doc offsets,
    the python strings). One join + one utf-32 decode, both C-speed."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.fill_null(col, "")  # nulls scrub as empty strings
    lens = np.asarray(pc.utf8_length(col), dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    py = col.to_pylist()
    joined = "".join(py)
    codes = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4")
    return codes.astype(np.uint64), offsets, py


def _prefix_hash(codes: np.ndarray):
    """P[k] = Σ_{j<k} c[j]·M^(k−1−j) mod 2⁶⁴, built without a scan:
    P[k] = M^k · cumsum(c[j]·M⁻¹^(j+1)). Returns (P (n+1,), M^k (n+1,))."""
    n = len(codes)
    with np.errstate(over="ignore"):
        mk = np.empty(n + 1, dtype=np.uint64)
        mk[0] = 1
        if n:
            np.cumprod(np.full(n, _M, dtype=np.uint64), out=mk[1:])
        pinv = np.cumprod(np.full(n, _M_INV, dtype=np.uint64)) if n else mk[:0]
        s = np.empty(n + 1, dtype=np.uint64)
        s[0] = 0
        if n:
            np.cumsum(codes * pinv, out=s[1:])
        return mk * s, mk


def _window_starts(offsets: np.ndarray, window: int):
    """Segmented aranges: global start position of every valid window
    (never crossing a doc boundary) + the doc index of each."""
    lens = np.diff(offsets)
    m = np.maximum(lens - window + 1, 0)
    total = int(m.sum())
    if total == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    docs = np.repeat(np.arange(len(lens), dtype=np.int64), m)
    base = np.repeat(offsets[:-1], m)
    intra = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(m) - m, m)
    return base + intra, docs


def _window_hashes(codes: np.ndarray, starts: np.ndarray, window: int):
    """64-bit polynomial hash of each window: P[i+L] − M^L·P[i]."""
    if len(starts) == 0:
        return np.zeros(0, dtype=np.int64)
    p, mk = _prefix_hash(codes)
    with np.errstate(over="ignore"):
        w = p[starts + window] - mk[window] * p[starts]
    return w.view(np.int64)


def hot_windows(ds, text_col: str = "text", window: int = 20,
                min_docs: int = 2, broadcast_limit: int = 2_000_000,
                work_dir: Optional[str] = None):
    """Find character windows of length ``window`` occurring in at
    least ``min_docs`` DISTINCT documents. Returns their hashes as a
    :class:`~.keyset.KeySet`, like :func:`~.text.boilerplate_lines`."""
    def window_doc_counts(b: pa.Table) -> pa.Table:
        codes, offsets, _ = _codepoints(b.column(text_col))
        starts, docs = _window_starts(offsets, window)
        h = _window_hashes(codes, starts, window)
        if len(h) == 0:
            return pa.table({"win_hash": pa.array([], pa.int64()),
                             "nd": pa.array([], pa.int64())})
        # distinct docs per hash within the batch (each doc lives in
        # exactly one batch, so these sum exactly across batches)
        order = np.lexsort((docs, h))
        hs, ds_ = h[order], docs[order]
        first = np.ones(len(hs), dtype=bool)
        first[1:] = (hs[1:] != hs[:-1]) | (ds_[1:] != ds_[:-1])
        uh = hs[first]
        uniq_h, nd = np.unique(uh, return_counts=True)
        return pa.table({"win_hash": pa.array(uniq_h),
                         "nd": pa.array(nd.astype(np.int64))})

    from .fold import bucket_fold

    hot = (
        bucket_fold(ds.map_batches(window_doc_counts,
                                   batch_format="pyarrow"),
                    ["win_hash"], [("nd", "sum", "nd")])
        .filter(expr=f"nd >= {int(min_docs)}")
        .select_columns(["win_hash"])
    ).materialize()
    return KeySet.build(hot, "win_hash", broadcast_limit=broadcast_limit,
                        work_dir=work_dir, prefix="substr-shards-")


def scrub_repeated_substrings(ds, hot, window: int = 20,
                              text_col: str = "text", out_col: str = "text",
                              removed_col: Optional[str] = None,
                              hot_starts_col: Optional[str] = None):
    """Cut every position covered by a hot window out of every
    document (see module docstring for semantics). ``removed_col``
    emits the per-doc removed character count; ``hot_starts_col`` the
    per-doc count of hot window start positions — both exactly
    SQL-mirrorable."""
    def scrub(b: pa.Table) -> pa.Table:
        from .text import set_column as _set

        codes, offsets, py = _codepoints(b.column(text_col))
        n_docs = b.num_rows
        starts, docs = _window_starts(offsets, window)
        is_hot, _ = hot.lookup(_window_hashes(codes, starts, window))
        n = len(codes)
        if not is_hot.any():
            out = _set(b, out_col, pc.fill_null(b.column(text_col), "")
                       if out_col != text_col else b.column(text_col))
            if removed_col is not None:
                out = _set(out, removed_col,
                           pa.array(np.zeros(n_docs, dtype=np.int64)))
            if hot_starts_col is not None:
                out = _set(out, hot_starts_col,
                           pa.array(np.zeros(n_docs, dtype=np.int64)))
            return out
        hs = starts[is_hot]
        # coverage union via diff-array cumsum; hot windows never cross
        # doc boundaries, so spans stay inside their doc
        cover = np.zeros(n + 1, dtype=np.int32)
        np.add.at(cover, hs, 1)
        np.add.at(cover, hs + window, -1)
        removed = np.cumsum(cover[:-1]) > 0
        keep = ~removed
        kept = codes[keep].astype("<u4")
        # per-doc surviving lengths → new offsets into ONE decoded string
        doc_of_pos = np.repeat(np.arange(n_docs, dtype=np.int64),
                               np.diff(offsets))
        kept_per_doc = np.bincount(doc_of_pos[keep], minlength=n_docs)
        new_off = np.concatenate(([0], np.cumsum(kept_per_doc)))
        whole = kept.tobytes().decode("utf-32-le")
        texts = [whole[new_off[i]:new_off[i + 1]] for i in range(n_docs)]
        out = _set(b, out_col, pa.array(texts, pa.string()))
        if removed_col is not None:
            total_per_doc = np.diff(offsets)
            out = _set(out, removed_col, pa.array(
                (total_per_doc - kept_per_doc).astype(np.int64)))
        if hot_starts_col is not None:
            hot_per_doc = np.bincount(docs[is_hot], minlength=n_docs)
            out = _set(out, hot_starts_col,
                       pa.array(hot_per_doc.astype(np.int64)))
        return out

    return ds.map_batches(scrub, batch_format="pyarrow")

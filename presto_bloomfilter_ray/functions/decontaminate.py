"""Benchmark decontamination — the canonical LLM-training use of the
project's own Bloom sketch.

Training corpora must not contain evaluation-set content (GPT-3 §B /
The Pile §6 style n-gram decontamination). The scale shape: the
benchmark side is SMALL (10^5–10^7 lines — it's an eval set), the
corpus side is the 10^12-doc table. So:

* build ONE mergeable Bloom filter over the benchmark's lines with
  :func:`~..engine.agg.build_sketch` (the reference's ``bloom_filter``
  aggregation, `BloomFilterAggregation.java:31-39`),
* broadcast its envelope once (``ray.put``) and probe every corpus
  doc's lines inside ``map_batches`` — a per-doc ``ANY(line ∈ bloom)``
  with **no false negatives** (contaminated docs are always flagged;
  the configured FPP only over-flags, which is the safe direction for
  decontamination).

The corpus side never shuffles: flagging is a pure map stage.
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def explode_lines(batch: pa.Table, text_col: str = "text",
                  out_col: str = "line", min_len: int = 1) -> pa.Table:
    """One row per (non-trivial) line of ``text_col`` — the unit of
    membership for line-level decontamination. Lines shorter than
    ``min_len`` chars are dropped (empty/whitespace rows would poison
    the filter: every doc contains them)."""
    col = batch.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = pc.list_flatten(pc.split_pattern(col, "\n"))
    keep = pc.greater_equal(pc.utf8_length(pc.utf8_trim_whitespace(flat)),
                            min_len)
    return pa.table({out_col: flat.filter(keep)})


#: rolling-polynomial multiplier for combining token hashes (odd ⇒
#: invertible mod 2^64, standard splitmix-style spread)
_GRAM_P = np.uint64(0x9E3779B97F4A7C15)


def explode_token_ngrams(batch: pa.Table, text_col: str = "text",
                         n: int = 13, out_col: str = "gram") -> pa.Table:
    """One row per token ``n``-gram of ``text_col`` — the GPT-3 §B /
    The Pile §6 decontamination unit (13-gram of lowercased,
    punctuation-split tokens). Emitted as a decimal-string hash of the
    window (polynomial over the window's token hashes), not the window
    text: build and probe both come through here, so the filter only
    ever sees the canonical gram key, and a 100-token doc ships 100
    small keys instead of 100 overlapping 13-token strings.

    Docs shorter than ``n`` tokens emit ONE whole-doc gram (GPT-3 uses
    min(len, 13)), so short exact copies of benchmark items still hit.
    Fully vectorized: lower → regex split → flat token hashes → the
    window polynomial is n shifted adds over the flat array.
    """
    grams, _ = _doc_grams(batch.column(text_col), batch.num_rows, n)
    return pa.table({out_col: pa.array(grams).cast(pa.string())})


def _doc_grams(col, n_docs: int, n: int):
    """(uint64 gram hashes, parent doc index per gram) for a text
    column — shared by the build and probe sides so both always see
    the same canonical gram keys."""
    from ..sketches.hashing import hash64

    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0 or pa.types.is_null(col.type):
        # empty batch / untyped all-null column (e.g. from an empty
        # upstream filter): no grams
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    toks = pc.split_pattern_regex(pc.utf8_lower(col), "[^a-z0-9]+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = pc.list_flatten(toks)
    parents = np.asarray(pc.list_parent_indices(toks))
    nonempty = np.asarray(pc.greater(pc.utf8_length(flat), 0))
    flat = flat.filter(pa.array(nonempty))
    parents = parents[nonempty]
    h = hash64(flat, 0x6E6772)  # uint64 token hashes
    m = len(h)
    doc_len = np.bincount(parents, minlength=n_docs)

    grams, owners = [], []
    if m >= n:
        # full windows: acc_i = sum_j h[i+j] * P^(n-1-j), valid iff the
        # window stays inside one doc
        acc = np.zeros(m - n + 1, dtype=np.uint64)
        for j in range(n):
            acc = acc * _GRAM_P + h[j:m - n + 1 + j]
        valid = parents[: m - n + 1] == parents[n - 1:]
        grams.append(acc[valid])
        owners.append(parents[: m - n + 1][valid])
    # short docs (< n tokens, ≥ 1): one whole-doc gram (min(len, n))
    short = np.flatnonzero((doc_len > 0) & (doc_len < n))
    if len(short):
        starts = np.concatenate(([0], np.cumsum(doc_len)))
        sg = np.empty(len(short), dtype=np.uint64)
        # scalar uint64 ops warn on the intended mod-2^64 wraparound
        # (array ops wrap silently); loop is bounded by docs-per-batch
        with np.errstate(over="ignore"):
            for i, d in enumerate(short):
                w = h[starts[d]:starts[d + 1]]
                a = np.uint64(0)
                for t in w:
                    a = a * _GRAM_P + t
                sg[i] = a
        grams.append(sg)
        owners.append(short)
    if grams:
        return np.concatenate(grams), np.concatenate(owners)
    return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)


def benchmark_bloom(bench_ds, text_col: str = "text",
                    expected_insertions: int = 1_000_000,
                    fpp: float = 1e-4, min_len: int = 1,
                    unit: str = "line", ngram: int = 13):
    """Bloom filter over a benchmark Dataset's membership units
    (distributed build through the standard partial → merge-tree
    path). ``unit="line"`` inserts non-trivial lines; ``unit="ngram"``
    inserts GPT-3-style lowercased token ``ngram``-gram hashes
    (:func:`explode_token_ngrams`)."""
    from ..engine.agg import build_sketch
    from ..sketches.bloom import BloomFilter

    if unit == "line":
        units = bench_ds.map_batches(
            lambda b: explode_lines(b, text_col, out_col="u",
                                    min_len=min_len),
            batch_format="pyarrow")
    elif unit == "ngram":
        units = bench_ds.map_batches(
            lambda b: explode_token_ngrams(b, text_col, n=ngram,
                                           out_col="u"),
            batch_format="pyarrow")
    else:
        raise ValueError(f"unknown unit {unit!r} (line | ngram)")
    return build_sketch(units, "u",
                        factory=lambda: BloomFilter(expected_insertions, fpp))


def flag_contaminated(ds, sketch, text_col: str = "text",
                      flag_col: str = "contaminated",
                      min_len: int = 1, unit: str = "line",
                      ngram: int = 13):
    """Append a boolean ``flag_col``: True iff ANY membership unit of
    the doc (line, or token n-gram with ``unit="ngram"``) is (probably)
    in the benchmark filter. Pure map stage — the envelope ships via
    ``ray.put`` once and deserializes once per worker through the
    engine's hash-keyed sketch cache; per batch it's split → flatten →
    one vectorized ``contains_many`` → per-doc ANY via ``np.bincount``.
    No corpus shuffle. ``unit``/``ngram`` must match the build side."""
    import ray

    from ..engine.ops import get_or_load

    if unit not in ("line", "ngram"):
        raise ValueError(f"unknown unit {unit!r} (line | ngram)")
    env = sketch if isinstance(sketch, bytes) else sketch.serialize()
    ref = ray.put(env)

    def probe(b: pa.Table) -> pa.Table:
        from .text import set_column

        bf = get_or_load(ray.get(ref))
        n_docs = b.num_rows
        col = b.column(text_col)
        if unit == "ngram":
            grams, parents = _doc_grams(col, n_docs, ngram)
            flat = pa.array(grams).cast(pa.string())
            hit = bf.contains_many(flat)
        else:
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            lists = pc.split_pattern(col, "\n")
            if isinstance(lists, pa.ChunkedArray):
                lists = lists.combine_chunks()
            flat = pc.list_flatten(lists)
            parents = np.asarray(pc.list_parent_indices(lists))
            ok = np.asarray(
                pc.greater_equal(
                    pc.utf8_length(pc.utf8_trim_whitespace(flat)), min_len))
            hit = bf.contains_many(flat) & ok
        any_hit = np.bincount(parents[hit], minlength=n_docs) > 0
        return set_column(b, flag_col, pa.array(any_hit))

    return ds.map_batches(probe, batch_format="pyarrow")


def decontaminate(ds, bench_ds, text_col: str = "text",
                  expected_insertions: int = 1_000_000,
                  fpp: float = 1e-4, min_len: int = 1,
                  unit: str = "line", ngram: int = 13):
    """Drop corpus docs sharing any membership unit (line, or GPT-3
    style token n-gram with ``unit="ngram"``) with the benchmark.
    Returns the filtered Dataset. No false negatives: every truly
    contaminated doc is removed; at most an ``fpp``-bounded sliver of
    clean docs is over-removed (the safe direction)."""
    bloom = benchmark_bloom(bench_ds, text_col, expected_insertions, fpp,
                            min_len, unit=unit, ngram=ngram)
    flagged = flag_contaminated(ds, bloom, text_col, "__contaminated",
                                min_len=min_len, unit=unit, ngram=ngram)

    def drop_flagged(b: pa.Table) -> pa.Table:
        mask = b.column("__contaminated")
        if isinstance(mask, pa.ChunkedArray):
            mask = mask.combine_chunks()
        return b.filter(pc.invert(mask)).drop_columns(["__contaminated"])

    return flagged.map_batches(drop_flagged, batch_format="pyarrow")


def reference_gram_index(ref_ds, text_col: str = "text",
                         ngram: int = 8) -> np.ndarray:
    """Sorted unique uint64 gram-hash array of a reference corpus —
    the EXACT membership tier of :func:`novelty_scores` for reference
    sides that fit a broadcast (8 bytes per distinct gram; a 10M-gram
    reference is an 80 MB array). Per-block uniques stream to the
    driver, so the pull is bounded by distinct grams, never rows.
    Above the broadcast budget use
    :func:`benchmark_bloom(..., unit="ngram")` instead — same scoring
    path, Bloom membership."""
    def grams(b: pa.Table) -> pa.Table:
        g, _ = _doc_grams(b.column(text_col), b.num_rows, ngram)
        return pa.table({"g": pa.array(np.unique(g))})

    parts = ref_ds.map_batches(grams, batch_format="pyarrow",
                               batch_size=None).to_pandas()
    if len(parts) == 0:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(parts["g"].to_numpy().astype(np.uint64))


def novelty_scores(ds, ref, text_col: str = "text", ngram: int = 8):
    """Per-document n-gram NOVELTY against a reference corpus — the
    memorization-risk screen of an LLM data pipeline (what fraction of
    a doc's token n-grams has the model's training set already seen?):

    * ``n_grams``: the doc's token-``ngram`` window count (GPT-3-style
      lowercased alnum tokens, whole-doc gram for short docs — the
      exact decontamination unit of :func:`explode_token_ngrams`);
    * ``n_seen``: windows whose gram is in ``ref`` — either the exact
      sorted index from :func:`reference_gram_index` (value-exact,
      broadcast tier) or a Bloom filter from
      :func:`benchmark_bloom(..., unit="ngram")` (constant memory at
      any reference size);
    * ``novelty``: ``1 - n_seen/n_grams`` (null for token-free docs).

    Scale shape is decontamination's: the reference membership
    structure broadcasts once (``ray.put`` + per-worker cache),
    scoring is a pure map stage — the corpus never shuffles. With the
    Bloom tier, false positives only UNDER-state novelty (the safe
    direction for a memorization screen); false negatives are
    impossible, so ``novelty == 1`` guarantees no reference window
    matches.
    """
    import ray

    from ..engine.ops import get_or_load

    exact = isinstance(ref, np.ndarray)
    if exact:
        handle = ray.put(np.ascontiguousarray(ref, dtype=np.uint64))
    else:
        handle = ray.put(ref if isinstance(ref, bytes) else ref.serialize())

    def score(b: pa.Table) -> pa.Table:
        from .text import set_column

        n_docs = b.num_rows
        grams, parents = _doc_grams(b.column(text_col), n_docs, ngram)
        n_grams = np.bincount(parents, minlength=n_docs).astype(np.int64)
        if len(grams):
            if exact:
                idx = ray.get(handle)
                i = np.searchsorted(idx, grams)
                hit = np.zeros(len(grams), dtype=bool)
                inb = i < idx.size
                hit[inb] = idx[i[inb]] == grams[inb]
            else:
                bf = get_or_load(ray.get(handle))
                hit = bf.contains_many(pa.array(grams).cast(pa.string()))
            n_seen = np.bincount(parents[hit],
                                 minlength=n_docs).astype(np.int64)
        else:
            n_seen = np.zeros(n_docs, dtype=np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            nov = 1.0 - n_seen / n_grams
        novelty = pa.array(np.where(n_grams > 0, nov, np.nan))
        novelty = pc.if_else(pa.array(n_grams > 0), novelty,
                             pa.scalar(None, type=pa.float64()))
        out = set_column(b, "n_grams", pa.array(n_grams))
        out = set_column(out, "n_seen", pa.array(n_seen))
        return set_column(out, "novelty", novelty)

    return ds.map_batches(score, batch_format="pyarrow")

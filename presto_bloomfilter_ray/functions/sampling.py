"""Deterministic, SQL-mirrorable corpus sampling.

Training-data pipelines need REPEATABLE sampling — the same mix on
every rerun, resumable across failures, auditable by an external SQL
engine. Random sampling (``Dataset.random_sample``) gives none of
that. :func:`hash_sample` keeps a row iff

    (id * MULT) % 2^32  <  fraction * 2^32

a multiplicative-hash threshold on a non-negative integer id column:
pure map-side (no shuffle, no state), stable under repartitioning,
and expressible verbatim in ANSI SQL (int64 math never overflows for
ids < 2^21 at the sf scales; at web scale use the same formula in
128-bit SQL types). Per-stratum fractions (e.g. downsample a dominant
language) ride the same formula with a per-key threshold.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: Knuth multiplicative constant (2654435761 = 2^32 / φ, odd ⇒ the map
#: id → (id*MULT) mod 2^32 is a bijection on 32-bit ids: no clumping)
SAMPLE_MULT = 2654435761
_MOD = 1 << 32


def sample_mask(ids: np.ndarray, fraction) -> np.ndarray:
    """Boolean keep-mask for :func:`hash_sample`'s threshold rule.
    ``fraction`` may be a scalar or a per-row array."""
    ids = np.asarray(ids, dtype=np.int64)
    if (ids < 0).any():
        raise ValueError("hash_sample requires non-negative integer ids "
                         "(Python and SQL '%' disagree on negatives)")
    thresh = (np.asarray(fraction, dtype=np.float64) * _MOD).astype(np.int64)
    return (ids * SAMPLE_MULT) % _MOD < thresh


def hash_sample(ds, id_col: str, fraction: Optional[float] = None, *,
                key_col: Optional[str] = None,
                fractions: Optional[Dict] = None,
                default_fraction: float = 1.0):
    """Deterministic threshold sample. Either a global ``fraction``, or
    stratified: ``key_col`` + ``fractions`` (key → fraction; keys
    absent from the dict keep ``default_fraction``). The fractions
    dict is a SMALL driver-side mix spec (one entry per stratum, e.g.
    per language) captured in the task closure — not data.

    SQL mirror (same rows, exactly)::

        WHERE (id * 2654435761) % 4294967296 <
              CAST(f * 4294967296 AS BIGINT)
    """
    if (fraction is None) == (fractions is None):
        raise ValueError("pass exactly one of fraction / fractions")
    if fractions is not None and key_col is None:
        raise ValueError("fractions requires key_col")

    def pick(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column(id_col))
        if fraction is not None:
            f = fraction
        else:
            # dictionary-encode the stratum keys and look fractions up
            # through a tiny numpy table — one dict.get per DISTINCT
            # key in the batch, not per row (no pandas object map)
            enc = pc.dictionary_encode(b.column(key_col))
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.combine_chunks()
            lut = np.array([fractions.get(k, default_fraction)
                            for k in enc.dictionary.to_pylist()],
                           dtype=np.float64)
            codes = np.asarray(pc.fill_null(enc.indices.cast(pa.int64()), -1))
            f = np.where(codes >= 0,
                         lut[np.clip(codes, 0, None)] if len(lut)
                         else default_fraction,
                         default_fraction)
        return b.filter(pa.array(sample_mask(ids, f)))

    return ds.map_batches(pick, batch_format="pyarrow")

def temperature_fractions(counts: Dict, alpha: float,
                          target_total: Optional[int] = None,
                          round_digits: int = 6) -> Dict:
    """Temperature-reweighted sampling fractions (the multilingual
    training-mix rule: sample stratum ``i`` ∝ ``(c_i/total)^alpha``,
    ``alpha < 1`` upweights low-resource strata). Returns
    ``{key: fraction}`` with expected kept total ≈ ``target_total``
    (default: the corpus size), each fraction capped at 1 and rounded
    to ``round_digits`` BEFORE use — the rounding is what lets a SQL
    engine recompute the identical threshold despite ``pow`` being
    non-correctly-rounded libm on either side."""
    if not counts:
        return {}
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    total = sum(counts.values())
    tt = total if target_total is None else target_total
    w = {k: (c / total) ** alpha for k, c in counts.items()}
    sw = sum(w[k] for k in sorted(w, key=repr))
    return {k: round(min(1.0, (w[k] / sw) * tt / counts[k]), round_digits)
            for k in counts}


def mixture_sample(ds, id_col: str, key_col: str, *, alpha: float = 0.5,
                   target_total: Optional[int] = None,
                   round_digits: int = 6):
    """Deterministic temperature-mixture resampling: one tiny groupby
    for per-stratum counts (n_strata rows to the driver — the mix
    spec, not data), :func:`temperature_fractions` for the target mix,
    then a pure map-side :func:`hash_sample`. Returns
    ``(sampled_ds, fractions)``. Reruns at any parallelism select the
    identical row set, and a SQL engine can recompute it exactly
    (counts → fractions → threshold, see the driver's
    ``mixture_sample_by_lang`` oracle)."""
    counts = {r[key_col]: r["count()"]
              for r in ds.groupby(key_col).count().take_all()}
    fracs = temperature_fractions(counts, alpha, target_total, round_digits)
    return (hash_sample(ds, id_col, key_col=key_col, fractions=fracs,
                        default_fraction=1.0), fracs)


def quantile_band_filter(ds, col: str, lo_q: float = 0.05,
                         hi_q: float = 0.95, k: int = 512,
                         sketch=None):
    """Sketch-driven quantile-band filter — the 'drop outlier-length
    documents' stage of a training-data pipeline, two passes:

    1. one streaming pass builds a mergeable KLL sketch of ``col``
       (map-side partials + bounded merge tree, never a global sort);
    2. the [q(lo_q), q(hi_q)] cutoffs — two scalars — are captured in
       the filter closure (broadcast, not re-shipped per batch) and a
       pure map pass keeps rows inside the band.

    At 100 TB this replaces the exact alternative (a full sort or an
    exact-percentile shuffle) with one map pass + a vocabulary-free
    merge of ~k-sized sketches; the cost is a rank error of at most
    the sketch's ``rank_error_bound()`` per cutoff, so the kept
    fraction is (hi_q - lo_q) ± 2·bound.

    Returns ``(filtered_ds, lo_cut, hi_cut, sketch)``. Pass
    ``sketch=`` to reuse a pre-built digest (e.g. from a previous
    snapshot) and skip pass 1.
    """
    from ..engine.agg import build_sketch
    from ..sketches.kll import KLL

    if sketch is None:
        sketch = build_sketch(ds, col, lambda: KLL(k))
    lo_cut = float(sketch.quantile(lo_q))
    hi_cut = float(sketch.quantile(hi_q))

    def in_band(b: pa.Table) -> pa.Table:
        v = np.asarray(b.column(col), dtype=np.float64)
        return b.filter(pa.array((v >= lo_cut) & (v <= hi_cut)))

    return ds.map_batches(in_band, batch_format="pyarrow"), lo_cut, hi_cut, sketch


def split_by_key(ds, key_col: str, bands, out_col: str = "part"):
    """Deterministic dataset partitioning into named splits by disjoint
    hash bands on a non-negative integer key column.

    ``bands`` is ``[(name, cumulative_fraction), ...]`` with strictly
    increasing fractions; keys hashing past the last band fall into a
    final implicit band only if one entry has fraction 1.0 (pass it
    explicitly — silent remainders hide mis-specified splits). The
    band rule is :func:`sample_mask`'s multiplicative-hash threshold,
    so the assignment is pure map-side, repartition-stable, and a SQL
    engine can recompute the identical row→split mapping (the
    ``leakage_safe_split`` driver oracle does).

    Splitting on a CLUSTER representative key (see
    :func:`attach_dup_cluster` / :func:`cluster_split`) is the
    leakage-safe form: every member of a duplicate cluster shares its
    representative's hash, so near-identical documents can never
    straddle train/test — the classic eval-contamination failure of
    row-wise splitting.
    """
    bands = list(bands)
    if not bands or abs(bands[-1][1] - 1.0) > 1e-12:
        raise ValueError("bands must end with cumulative fraction 1.0")
    fracs = [f for _, f in bands]
    if any(b >= a for a, b in zip(fracs[1:], fracs[:-1])):
        raise ValueError("cumulative fractions must be strictly increasing")
    names = [n for n, _ in bands]

    def assign(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column(key_col))
        conds = [sample_mask(ids, f) for _, f in bands[:-1]]
        part = np.select(conds, names[:-1], default=names[-1])
        return b.append_column(out_col,
                               pa.array(part.tolist(), type=pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def attach_dup_cluster(ds, id_col: str = "doc_id", text_col: str = "text",
                       out_col: str = "rep",
                       broadcast_limit: int = 2_000_000,
                       num_partitions: int = 32):
    """Attach each row's exact-duplicate cluster representative: the
    MINIMUM ``id_col`` over all rows sharing the same normalized text
    (:func:`~presto_bloomfilter_ray.functions.dedup.normalize_text` —
    lowercased, whitespace-collapsed; the same grouping
    ``exact_dedup`` keeps winners by, so SQL can recompute it as
    ``min(id) OVER (PARTITION BY lower(regexp_replace(text, '\\s+',
    ' ', 'g')))``).

    Two stages, both scale-honest:

    1. winner table (group hash → min id) via
       :func:`~presto_bloomfilter_ray.functions.fold.bucket_fold` —
       map-side pre-fold, bucket-keyed exchange, never a per-group
       reduce;
    2. attach: one :func:`~presto_bloomfilter_ray.functions.fold.join`
       on the group hash — the winner table broadcast at or below
       ``broadcast_limit`` distinct groups, co-partitioned above it
       (no driver state).
    """
    from .dedup import normalize_text
    from .fold import bucket_fold, join
    from ..sketches.hashing import hash64

    _GH_SEED = 0xC1_05_7E12

    def add_gh(b: pa.Table) -> pa.Table:
        h = hash64(normalize_text(b.column(text_col)), _GH_SEED)
        return b.append_column("_gh", pa.array(h.astype(np.int64)))

    with_gh = ds.map_batches(add_gh, batch_format="pyarrow",
                             batch_size=None)
    winners = bucket_fold(
        with_gh.select_columns(["_gh", id_col]), ["_gh"],
        [(id_col, "min", out_col)]).materialize()

    return join(with_gh, winners, on="_gh", how="inner",
                n_parts=num_partitions, broadcast_limit=broadcast_limit)


def cluster_split(ds, bands, id_col: str = "doc_id",
                  text_col: str = "text", out_col: str = "part",
                  **attach_kwargs):
    """Leakage-safe train/val/test split: assign every row to a split
    by its duplicate-cluster REPRESENTATIVE's hash band, so exact
    duplicates (and, with a caller-supplied cluster column, any
    near-dup clustering) land in the same split. Returns the dataset
    with ``rep`` and ``part`` columns attached; group-by ``part`` for
    the audit counts."""
    with_rep = attach_dup_cluster(ds, id_col=id_col, text_col=text_col,
                                  **attach_kwargs)
    return split_by_key(with_rep, attach_kwargs.get("out_col", "rep"),
                        bands, out_col=out_col)

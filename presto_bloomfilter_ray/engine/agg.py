"""Sketch UDAFs over Ray Data — the aggregation core.

Reimplements the reference's partial/combine/output aggregation contract
(``AbstractBloomFilterAggregation.java:25-59``,
``BloomFilterStateFactory.java:48-124``) on Ray Data's execution model:

* :class:`SketchAgg` — a generic ``AggregateFnV2`` turning ANY
  :class:`~presto_bloomfilter_ray.sketches.base.Sketch` into a mergeable
  UDAF usable with ``ds.aggregate(...)`` / ``ds.groupby(k).aggregate(...)``.
* :func:`build_sketch` — the scale path for GLOBAL sketches: per-block
  partials via ``map_batches`` (state is per-block, data-independent
  size) followed by a parallel fan-in merge tree — no row shuffle at
  all, and no single reducer ORs 800k bitsets sequentially.
* :func:`grouped_sketch` — the scale path for GROUP BY sketches: emits
  one serialized partial per (key, block) inside ``map_batches`` and
  shuffles ONLY those partials (size data-independent) through one
  bucketed exchange (``functions.fold.exchange``) whose reducer merges
  every key of a bucket in one call — Zipf-skewed keys cost the same as
  uniform keys because the per-key shuffle payload is #blocks × sketch
  bytes, not #rows (SURVEY §4 skew note).
"""

from __future__ import annotations


from typing import Any, Callable, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import AggregateFnV2
from ray.data.block import BlockAccessor

from ..sketches.base import Sketch, deserialize

SketchFactory = Callable[[], Sketch]


def _to_arrow(block) -> pa.Table:
    return BlockAccessor.for_block(block).to_arrow()


class SketchAgg(AggregateFnV2):
    """``ds.aggregate(SketchAgg(BloomFilter, on="url"))`` →
    ``{"bloom(url)": <envelope bytes>}``.

    The accumulator flowing through Ray's combine tree is the
    serialized envelope (``bytes``) — Arrow-native, so intermediate
    accumulator blocks stay zero-copy binary columns instead of pickled
    Python objects. ``zero`` is ``None`` so that an empty partition
    merges as the identity and parameters are inherited from the
    non-null side, mirroring ``AbstractBloomFilterAggregation.java:36-52``.

    Combine-tree envelopes are TRANSIENT (no gzip, no sha256): each
    combine edge would otherwise pay a full inflate+verify+deflate+hash
    cycle of the payload (12 MB for a default Bloom bitset — the
    reference pays this per exchange, ``BloomFilterStateSerializer.java``).
    Here combine does raw-payload merge only; the one canonical
    (compressed + hashed) serialization happens in ``finalize``.
    Map-side partials (``aggregate_block`` output) DO ship compressed —
    they're the envelopes that actually cross the wire to reducers.
    """

    def __init__(
        self,
        factory: SketchFactory,
        on: str,
        alias_name: Optional[str] = None,
        finalize_mode: str = "bytes",  # "bytes" | "sketch" | "estimate"
    ):
        self._factory = factory
        self._finalize_mode = finalize_mode
        name = alias_name or f"{factory().__class__.__name__.lower()}({on})"
        super().__init__(name, zero_factory=lambda: None, on=on, ignore_nulls=True)

    def aggregate_block(self, block) -> Optional[bytes]:
        col = _to_arrow(block).column(self._target_col_name)
        sk = self._factory()
        sk.update_arrow(col)
        # compressed: this envelope crosses the map→reduce wire once
        return sk.serialize()

    def combine(self, current: Optional[bytes], new: Optional[bytes]) -> Optional[bytes]:
        if current is None:
            return new
        if new is None:
            return current
        acc = deserialize(current)
        acc.merge(deserialize(new))
        # transient: stays inside the reducer's combine buffer
        return acc.serialize(compress=False, hashed=False)

    def finalize(self, acc: Optional[bytes]):
        if acc is None:
            acc = self._factory().serialize()
        if self._finalize_mode == "bytes":
            # canonicalize: combine leaves a transient envelope
            from ..sketches.base import read_hash

            if read_hash(acc) == b"\x00" * 32:
                return deserialize(acc).serialize()
            return acc
        sk = deserialize(acc)
        if self._finalize_mode == "estimate":
            return float(sk.estimate())  # type: ignore[attr-defined]
        return sk


def _partial_fn(factory: SketchFactory, col: str):
    def make_partial(batch: pa.Table) -> pa.Table:
        sk = factory().update_arrow(batch.column(col))
        return pa.table({"sketch": pa.array([sk.serialize()], type=pa.large_binary())})

    return make_partial


class SketchPartialBuilder:
    """Actor-pool stage emitting one serialized partial per batch.

    Use via ``ds.map_batches(SketchPartialBuilder,
    fn_constructor_args=(factory, col), concurrency=N)`` when per-actor
    setup should be amortized (factory closures carrying large config,
    e.g. pre-loaded tokenizers feeding the element column). For plain
    sketches the stateless ``build_sketch`` path is equivalent.
    """

    def __init__(self, factory: SketchFactory, col: str):
        self.factory = factory
        self.col = col

    def __call__(self, batch: pa.Table) -> pa.Table:
        sk = self.factory().update_arrow(batch.column(self.col))
        return pa.table({"sketch": pa.array([sk.serialize()], type=pa.large_binary())})


def _merge_block_fn():
    def merge_block(batch: pa.Table) -> pa.Table:
        blobs = batch.column("sketch").to_pylist()
        acc = deserialize(blobs[0])
        for b in blobs[1:]:
            acc.merge(deserialize(b))
        return pa.table({"sketch": pa.array([acc.serialize()], type=pa.large_binary())})

    return merge_block


def _merge_tree(partials, fan_in: int, merge_rounds: Optional[int]):
    """Shrink a one-envelope-per-row partials Dataset through fan-in
    merge rounds until ≤ ``fan_in`` envelopes remain for the driver
    fold. ``merge_rounds=None`` (default) is ADAPTIVE: rounds run
    until the count bound holds BY CONSTRUCTION (round-2 verdict #5 —
    a fixed depth only bounds the driver fold by configuration; 10^6
    map blocks with depth 2 would still leave ~10^3 envelopes). Each
    round's inputs are one-row envelope blocks, so the inter-round
    ``materialize``/count is metadata-cheap. An int pins the depth
    explicitly (tuning/tests)."""
    if fan_in < 2:
        # a 1-fan-in round maps every 1-row batch to itself — the
        # adaptive loop would never shrink the count and hang
        raise ValueError("fan_in must be >= 2")
    if merge_rounds is not None:
        for _ in range(max(0, merge_rounds)):
            partials = partials.map_batches(
                _merge_block_fn(), batch_format="pyarrow", batch_size=fan_in)
        return partials
    partials = partials.materialize()
    n = partials.count()
    while n > fan_in:
        partials = partials.map_batches(
            _merge_block_fn(), batch_format="pyarrow", batch_size=fan_in
        ).materialize()
        n = partials.count()
    return partials


def build_sketch(
    ds,
    col: str,
    factory: SketchFactory,
    batch_size: Optional[int] = None,
    fan_in: int = 32,
    merge_rounds: Optional[int] = None,
    concurrency: Optional[int] = None,
) -> Sketch:
    """Global sketch over a Dataset column, scale path.

    read → ``map_batches`` partials (one serialized sketch per batch,
    ``batch_size=None`` = whole block) → parallel merge tree with
    ``fan_in`` (each round is a ``map_batches(batch_size=fan_in)`` over
    the partials dataset, merging fan_in envelopes into one; depth is
    adaptive — see :func:`_merge_tree`) → final driver merge of
    ≤ fan_in envelopes, a bound that holds by construction. Mirrors
    the reference's accumulate → exchange-serialized-state → combine
    pipeline (SURVEY §3.1) with a bounded-depth tree instead of a
    single reducer.
    """
    if concurrency is not None:
        partials = ds.map_batches(
            SketchPartialBuilder, fn_constructor_args=(factory, col),
            batch_format="pyarrow", batch_size=batch_size, concurrency=concurrency,
        )
    else:
        partials = ds.map_batches(
            _partial_fn(factory, col), batch_format="pyarrow", batch_size=batch_size
        )
    partials = _merge_tree(partials, fan_in, merge_rounds)
    blobs = [r["sketch"] for r in partials.take_all()]
    if not blobs:
        return factory()
    acc = deserialize(blobs[0])
    for b in blobs[1:]:
        acc.merge(deserialize(b))
    return acc


def _merge_key_runs(key: str, finalize: Callable[[Sketch], Any],
                    out_col: str):
    """Bucket reducer of the grouped paths: ``[key, partial]`` rows in,
    one ``[key, out_col]`` row per distinct key out (nulls are one key).
    Keys are dictionary-coded and stable-sorted into runs, so each run's
    envelopes merge in arrival order; the key column keeps its type."""

    def merge(g: pa.Table) -> pa.Table:
        karr = g.column(key).combine_chunks()
        codes = np.asarray(pc.dictionary_encode(
            karr, null_encoding="encode").indices)
        order = np.argsort(codes, kind="stable")
        sc = codes[order]
        starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]])
        blobs = g.column("partial").to_pylist()
        out = []
        for lo, hi in zip(starts, np.r_[starts[1:], len(sc)]):
            acc = deserialize(blobs[order[lo]])
            for i in order[lo + 1:hi]:
                acc.merge(deserialize(blobs[i]))
            out.append(finalize(acc))
        keys = karr.take(pa.array(order[starts]))
        try:
            vals = pa.array(out)
        except (pa.ArrowInvalid, pa.ArrowTypeError):
            # finalize returned plain Python objects (e.g. the Sketch):
            # Ray stores an object column as its pickled extension type
            objs = np.empty(len(out), dtype=object)
            objs[:] = out
            return {key: keys.to_numpy(zero_copy_only=False), out_col: objs}
        return pa.table({key: keys, out_col: vals})

    return merge


def grouped_sketch(
    ds,
    key: str,
    col: str,
    factory: SketchFactory,
    batch_size: Optional[int] = None,
    finalize: Callable[[Sketch], Any] = lambda s: s.serialize(),
    out_col: str = "sketch",
):
    """GROUP BY ``key`` sketch over ``col`` — shuffles partials, not rows.

    Stage 1 (map side): within each batch, group rows by key with a
    vectorized sort+``reduceat`` split and build one partial sketch per
    (key, batch) — the analog of the reference's grouped state array
    (``BloomFilterStateFactory.java:48-91``), but distributed.
    Stage 2: one bucketed exchange of the tiny partials table by
    ``hash(key)``; each bucket's reducer merges the envelopes of all its
    keys in one call (≤ 64 calls, not one per key).

    Returns a Dataset with columns ``[key, out_col]``.

    Cardinality tradeoff: this path shuffles ``#keys-per-block × #blocks``
    partial envelopes — it wins when key cardinality is low relative to
    rows (lang, region, status), because skew becomes irrelevant. For
    HIGH-cardinality keys with large sketch payloads (e.g. per-host HLL
    over 10^7 hosts), per-(key, block) partials exceed the row volume;
    use the native row-shuffle path instead:
    ``ds.groupby(key).aggregate(SketchAgg(factory, on=col))``.
    """

    def partials_per_key(batch: pa.Table) -> pa.Table:
        if batch.column(key).null_count:
            # null keys form no group (reference: null elements are
            # skipped; SQL users filter or coalesce explicitly)
            batch = batch.filter(pa.compute.is_valid(batch.column(key)))
        if batch.num_rows == 0:
            ktype = batch.column(key).type
            if pa.types.is_null(ktype):  # all-null tiny block: no type info
                ktype = pa.large_string()
            return pa.table({key: pa.array([], type=ktype),
                             "partial": pa.array([], type=pa.large_binary())})
        keys = batch.column(key)
        order = pa.compute.sort_indices(keys)
        sorted_tbl = batch.take(order)
        karr = sorted_tbl.column(key).combine_chunks()
        carr = sorted_tbl.column(col).combine_chunks()
        # run boundaries over the sorted key column
        enc = karr.dictionary_encode()
        codes = np.asarray(enc.indices)
        starts = np.flatnonzero(np.diff(codes)) + 1
        starts = np.concatenate(([0], starts, [len(codes)]))
        out_keys, out_blobs = [], []
        for i in range(len(starts) - 1):
            lo, hi = int(starts[i]), int(starts[i + 1])
            sk = factory().update_arrow(carr.slice(lo, hi - lo))
            out_keys.append(karr[lo].as_py())
            out_blobs.append(sk.serialize())
        return pa.table(
            {key: pa.array(out_keys, type=karr.type),
             "partial": pa.array(out_blobs, type=pa.large_binary())}
        )

    from ..functions.fold import exchange

    return exchange(ds, [key], _merge_key_runs(key, finalize, out_col),
                    pre=partials_per_key, batch_size=batch_size)


def salted_grouped_sketch(
    ds,
    key: str,
    col: str,
    factory: SketchFactory,
    salts: int = 16,
    finalize: Callable[[Sketch], Any] = lambda s: s.serialize(),
    out_col: str = "sketch",
):
    """Skew-aware ROW-shuffle grouped sketch for high-cardinality keys
    with hot members (Zipf hosts): rows are salted into ``(key, salt)``
    sub-groups before the hash shuffle, so a hot key's rows spread over
    ``salts`` reducers instead of one; the per-key salt partials (tiny,
    data-independent size) are then merged in a second pass.

    Use :func:`grouped_sketch` (partial shuffle) for low-cardinality
    keys; use this when both cardinality AND skew are high, where
    per-(key, block) partials would exceed row volume (see the
    cardinality note on :func:`grouped_sketch`).
    """
    def add_salt(batch: pa.Table) -> pa.Table:
        # deterministic per-row salt: spread rows, keep runs cheap
        n = batch.num_rows
        salt = (np.arange(n, dtype=np.int64) % salts)
        return batch.append_column("_salt", pa.array(salt))

    salted = ds.map_batches(add_salt, batch_format="pyarrow")
    per_salt = salted.groupby([key, "_salt"]).aggregate(
        SketchAgg(factory, on=col, alias_name="partial")
    )
    from ..functions.fold import exchange

    return exchange(per_salt, [key],
                    _merge_key_runs(key, finalize, out_col))


def merge_serialized_column(ds, col: str = "sketch", fan_in: int = 32,
                            merge_rounds: Optional[int] = None) -> Optional[Sketch]:
    """Union a column of serialized sketches — the reference's
    ``bloom_filter_from_string`` / ``bloom_filter_load`` aggregation
    shape (``BloomFilterFromString.java:30-38``).

    Distributed: each batch merges its envelopes into one partial
    (map-side combine), then the same fan-in tree as
    :func:`build_sketch` (adaptive depth, see :func:`_merge_tree`)
    shrinks the partials; ≤ ``fan_in`` envelopes reach the driver for
    the final fold, by construction.
    """

    def merge_batch(batch: pa.Table) -> pa.Table:
        blobs = batch.column(col).to_pylist()
        if not blobs:
            return pa.table({"sketch": pa.array([], type=pa.large_binary())})
        acc = deserialize(blobs[0])
        for b in blobs[1:]:
            acc.merge(deserialize(b))
        return pa.table({"sketch": pa.array([acc.serialize()],
                                            type=pa.large_binary())})

    partials = ds.select_columns([col]).map_batches(
        merge_batch, batch_format="pyarrow")
    partials = _merge_tree(partials, fan_in, merge_rounds)
    acc: Optional[Sketch] = None
    for row in partials.take_all():
        sk = deserialize(row["sketch"])
        acc = sk if acc is None else acc.merge(sk)
    return acc

"""Bucket-keyed exact aggregation — the scale-safe replacement for
high-cardinality ``groupby(key).aggregate(...)``.

Ray 2.49's sort-based aggregate pays per-GROUP overhead on the reduce
side: summing 17M partial rows into 1M distinct keys costs ~100 s,
while the identical reduction grouped by ``hash(key) % num_buckets``
(small fixed cardinality) and folded per bucket with one vectorized
polars ``group_by`` costs ~2 s (measured; PERF.md §23). Exchange
volume and key co-location are identical — every row of a key lands in
that key's bucket — so the result table is bit-identical for the
order-independent ops supported here (sum / min / max / count).

This module generalizes the fold used by ``functions/graph.py``:

* map-side pre-fold (one vectorized ``group_by`` per input block)
  shrinks the exchange to per-block-distinct keys before any shuffle —
  the classic combiner, with ``count`` correctly rewritten to ``sum``
  on the combine side;
* the bucket column is a mixed 64-bit hash of the key columns, so
  correlated or clustered key values (sequential doc ids, sorted
  hashes) still spread evenly across buckets;
* skew: a bucket holds ~``n_keys / num_buckets`` DISTINCT keys no
  matter how hot any single key is, because the map-side pre-fold
  collapses each block's duplicates first — a Zipf-hot key contributes
  at most one row per input block to the exchange.

One shuffle core: :func:`partition_map` is the only keyed exchange
in ``functions/`` (the k-means fold, which groups on k clusters,
aside). Rows meet in the ``key & (width - 1)`` partition of an
int64 key, so a partition id names a persisted shard or a disjoint
slice of a hash space, and a vectorized function runs once per
partition. Two shapes ride on it:

* :func:`exchange` tags rows map-side with their key's hashed bucket
  and runs a vectorized per-bucket reducer once per partition, never
  once per key; :func:`bucket_fold` is its exact fold;
* :func:`co_attach` unions a keyed table side and a row side, and a
  per-partition function attaches one to the other; :func:`join`, the
  package's one keyed join (``inner`` / ``left_outer``), is a polars
  join per ``co_attach`` partition above its broadcast limit and a
  polars join per left batch against the ``ray.put`` right side at or
  below it.

Used by:

* ``bucket_fold``: exact_dedup, dedup_lines_keep_first, connected
  components, boilerplate/substring scrubs, pair-verification folds,
  PageRank;
* ``exchange``: cap_per_key, grouped_sketch / salted_grouped_sketch,
  the per-key window family, snapshot_delta, ``mad_outliers_by_key``
  and ``ntile_by_key``, and the gram pairing of edit-distance and
  containment joins;
* ``partition_map``: LSH and SimHash pairing, MinHash index writes,
  band join and signature verify, KeySet shard writes and its
  co-partitioned filter, triangle wedges, IVF bucket pairing,
  sequence packing, BM25 postings writes, and the partitioned
  writers (``shuffled_export``, ``curriculum_export``, ``cluster_by``
  and the trigram index);
* ``co_attach``: MinHash signature verification
  (``dedup._verify_pairs``), the MinHash index probe, edit-distance
  verification, dataset connected components, triangle closure and
  the bucketed as-of join;
* ``join``: ``attach_dup_cluster``, ``funnel_counts``,
  ``pmi_bigrams``, ``containment_pairs``, triangle orientation and
  k-core peeling, the BM25 index's dl attach, the dataset PageRank
  and HITS backends, every ``planned_join`` tier, and the TPC-H join
  queries.

Every exchange is count-sized by :func:`exchange_width`, capped by
its caller's ``num_buckets`` / ``n_parts``. ``exchange`` takes the
input's row count where Ray knows it without running the input (a
materialized dataset, a plain parquet read); over any other input it
materializes its own tagged map side (after ``pre`` and
``bucket_fold``'s pre-fold, so a fold's rows are already key-sized
partials) when it is called and counts that. LSH and SimHash pairing,
the MinHash index probe and dataset connected components size their
exchanges from their own counts. A caller that derives its keys per
block passes that map as ``pre`` (``exchange``, ``bucket_fold``,
``cap_per_key``) rather than mapping the input first, so a free count
stays free and the map fuses into the tag.

At width 1 (a caller's width of 1, or a count-sized exchange under
:data:`ROWS_PER_PART` rows) the key check fuses into each input's
last map, ``repartition(1)`` makes one block, and one
``map_batches(batch_size=None)`` calls ``fn(0, rows)``: no partition
tag, no sort, no ``map_groups`` (PERF §63). Wider, rows are tagged
with their partition, coalesced to one block per partition and
grouped by Ray's sort shuffle. Two dedup stages fuse whole chains
into that one width-1 call (PERF §64): LSH pairing, the band-collision
screen and the Jaccard estimate of ``dedup.lsh_candidate_pairs``
(three exchanges when wider), and ``dedup.exact_dedup``'s hash fold
and keep filter when its input's free count and byte size fit one
block and the broadcast tier (its output is split back into the
input's block count).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["append_bucket", "bucket_fold", "co_attach", "exchange",
           "exchange_width", "join", "partition_map"]

#: default bucket count of every bucketed exchange
NUM_BUCKETS = 64

#: rows one sort partition of a count-sized exchange carries (PERF §15):
#: enough to keep each partition CPU-bound, few enough to spread a
#: large input across the cluster
ROWS_PER_PART = 250_000

#: ops supported: (polars map-side expr, polars combine-side expr)
_OPS = {"sum", "min", "max", "count"}


def _exprs(aggs: Sequence[Tuple[Optional[str], str, str]], combine: bool):
    """polars agg expressions for the map (raw rows) or combine
    (partial rows) side. ``count`` maps to ``len`` on raw rows and to
    ``sum`` of partial counts on the combine side."""
    import polars as pl

    out = []
    for col, op, alias in aggs:
        if op == "count":
            e = (pl.col(alias).sum() if combine
                 else pl.len().cast(pl.Int64))
        else:
            src = alias if combine else col
            e = getattr(pl.col(src), op)()
        out.append(e.alias(alias))
    return out


def _pow2(n: int) -> int:
    """Round up to a power of two (1 for n ≤ 1). ``& (n - 1)``
    partition masks reach every bucket id only for power-of-two counts
    (n=48 → mask 0b101111 → 32 reachable buckets with heavy skew);
    rounding keeps co-partitioning correct AND parallelism at the
    requested level."""
    return 1 << max(0, int(n) - 1).bit_length()


def exchange_width(rows: int, cap: int) -> int:
    """Partition count of an exchange over ``rows`` rows: one partition
    per :data:`ROWS_PER_PART` rows, at most ``cap`` (the caller's
    ``n_parts``, the scale knob to raise with cluster size), rounded up
    to a power of two for ``& (n - 1)`` masks. No floor: every sort
    partition costs fixed task latency, so a small input gets one."""
    return _pow2(min(cap, rows // ROWS_PER_PART + 1))


def append_bucket(b: pa.Table, key_cols, num_buckets: int,
                  alias: str = "_b") -> pa.Table:
    """Append ``alias = mixed_hash(struct(key_cols)) % num_buckets``.

    THE canonical co-location bucket for every bucket-keyed exchange
    in this package (fold, windows, snapshot delta): polars struct
    hash (seed 41) then a Fibonacci avalanche so sequential/clustered
    keys spread evenly. All rows of equal keys land in one bucket."""
    import polars as pl

    h = (pl.from_arrow(b.select(list(key_cols)))
         .select(pl.struct(list(key_cols)).hash(seed=41)
                 .alias("h"))["h"].to_numpy())
    mixed = (h.astype(np.uint64)
             * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
    return b.append_column(alias, pa.array(
        (mixed % np.uint64(num_buckets)).astype(np.int64)))


def exchange(ds, keys: Sequence[str],
             fn: Callable[[pa.Table], pa.Table], *,
             pre: Optional[Callable[[pa.Table], pa.Table]] = None,
             num_buckets: int = NUM_BUCKETS):
    """Run ``fn`` once per non-empty partition of ``hash(keys)``
    buckets.

    Map side: ``pre`` (an optional per-block combiner, e.g. a partial
    top-k or a pre-fold) then :func:`append_bucket`. Reduce side: one
    :func:`partition_map` over the ``_b`` bucket; ``fn`` gets the whole
    partition without the ``_b`` column and must be vectorized over the
    keys inside it. Every row of a key lands in one bucket, and every
    bucket in one partition, so a per-key reduction inside ``fn`` is
    exact. Ray 2.49's sort-based ``map_groups`` pays per GROUP (one
    task-side slice, batch conversion and UDF call each); grouping by
    the bucket instead of the raw key bounds that to ``num_buckets``
    calls at any key cardinality.

    Width: :func:`exchange_width` of a row count, at most
    ``num_buckets``, so a small input is one partition and runs
    :func:`partition_map`'s sort-free width-1 plan (one ``fn`` call over
    one block). The count is the input's when Ray knows it without
    running the input (a materialized dataset, a plain parquet read);
    ``pre`` must then not add rows. Otherwise the tagged map side is
    materialized when ``exchange`` is called and its rows are counted,
    so a lazy input runs its map side here, not when the result is
    consumed. Pass a per-block map as ``pre`` rather than mapping
    ``ds`` first: a map hides the free count. ``fn`` must return a
    typed table even when its partition filters to empty, so
    downstream blocks share one schema.
    """
    keys = list(keys)

    def tag(b: pa.Table) -> pa.Table:
        if pre is not None:
            b = pre(b)
        return append_bucket(b, keys, num_buckets)

    def reduce(_part: int, g: pa.Table) -> pa.Table:
        return fn(g.drop_columns(["_b"]))

    rows = ds._meta_count()
    tagged = ds.map_batches(tag, batch_format="pyarrow", batch_size=None)
    if rows is None:
        tagged = tagged.materialize()
        rows = tagged.count()
    return partition_map(tagged, reduce, key="_b",
                         width=exchange_width(rows, num_buckets))


#: private partition column of partition_map
_PART = "_co_part"


def partition_map(ds, fn: Callable[[int, pa.Table], pa.Table], *,
                  key: str, width: int, coalesce: Optional[int] = None):
    """Run ``fn(part, rows)`` once per non-empty partition
    ``part = key & (_pow2(width) - 1)`` of the int64 column ``key``.

    ``rows`` is every row of the partition with all of the caller's
    columns, ``key`` included. The partition id is a pure function of
    the key, so it can name a persisted shard (read back by
    ``keys & mask``) or a disjoint slice of a hash space; a key already
    in ``[0, width)`` is its own partition. Any key type but int64
    raises. ``ds`` may also be a list of Datasets of one schema: each
    is tagged on its own, so the tag fuses into its last map stage,
    and the tagged sides are unioned.

    Above width 1, the input is coalesced to ``coalesce`` blocks
    (default: one per partition) before grouping: the sort-based
    shuffle fragments every input block into every output partition,
    so hundreds of tiny upstream blocks (parquet SplitBlocks × map
    fan-out) make it quadratic in fragments — 16.6 s for a trivial
    groupby over 291 small blocks vs 0.8 s after ``repartition(32)``
    at 200k docs (PERF §12). Raise ``width`` with cluster size.

    Width 1: the plan is the key check fused into each input's last
    map, ``repartition(1)`` and one ``map_batches(batch_size=None)``
    calling ``fn(0, rows)`` over the one block — no ``_co_part`` tag,
    no sort, no ``map_groups``. Empty input never calls ``fn`` (Ray
    skips empty blocks).
    """
    mask = _pow2(width) - 1
    one = mask == 0

    def tag(b: pa.Table) -> pa.Table:
        if b.schema.field(key).type != pa.int64():
            raise ValueError(f"partition_map key {key!r} must be int64")
        if one:
            return b
        return b.append_column(_PART, pc.bit_wise_and(b.column(key), mask))

    def run(g: pa.Table) -> pa.Table:
        return fn(int(g.column(_PART)[0].as_py()), g.drop_columns([_PART]))

    first, *rest = [d.map_batches(tag, batch_format="pyarrow")
                    for d in (ds if isinstance(ds, list) else [ds])]
    if rest:
        first = first.union(*rest)
    if one:
        # one partition: one block, one call; Ray skips empty blocks
        return first.repartition(1).map_batches(
            lambda g: fn(0, g), batch_format="pyarrow", batch_size=None)
    return (first.repartition(coalesce or mask + 1).groupby(_PART)
            .map_groups(run, batch_format="pyarrow"))


#: private columns of the co_attach layout: the key both sides share
#: and the side marker
_KEY, _LEFT = "_co_key", "_co_left"


def co_attach(left, right, fn: Callable[[pa.Table, pa.Table], pa.Table],
              *, left_key: str, right_key: str, n_parts: int,
              left_schema, right_schema):
    """Co-partition two Datasets on an int64 key and run
    ``fn(left_rows, right_rows)`` once per non-empty partition.

    Rows of ``left`` keyed by ``left_key`` and rows of ``right`` keyed
    by ``right_key`` meet in partition ``key & (_pow2(n_parts) - 1)``
    of one :func:`partition_map`; ``fn`` typically attaches a value of
    the (keyed table) left side to each right row with one
    ``searchsorted``. ``left_schema`` and ``right_schema`` name the
    columns each side carries, key included, and their types; every
    batch is selected and cast to them. ``fn`` gets the partition's
    left rows sorted by ``left_key`` and its right rows, each as a
    table of exactly its side's schema. A partition holding one side
    only still gets a call (the other table is empty), so ``fn`` must
    return a typed table on empty input. Output rows carry no
    partition column; a following ``co_attach`` keys them itself.

    Layout: both keys share one int64 column, a column of the same
    name and type on both sides is shared, and every other column is
    padded with typed nulls, so both tagged sides reach the shuffle
    with one schema (no schema-change warning, no per-block unify). A
    same-named right column of another type is carried under a private
    name.
    """
    left_schema, right_schema = pa.schema(left_schema), pa.schema(right_schema)
    for schema, key in ((left_schema, left_key), (right_schema, right_key)):
        if schema.field(key).type != pa.int64():
            raise ValueError(f"co_attach key {key!r} must be int64")
    # storage column of each side's columns
    l_store = {f.name: _KEY if f.name == left_key else f.name
               for f in left_schema}
    l_types = {l_store[f.name]: f.type for f in left_schema}
    r_store = {f.name: _KEY if f.name == right_key
               else f.name if l_types.get(f.name, f.type) == f.type
               else f"_co_r_{f.name}" for f in right_schema}
    data = {_KEY: pa.int64()}
    for schema, store in ((left_schema, l_store), (right_schema, r_store)):
        for f in schema:
            data.setdefault(store[f.name], f.type)
    union = pa.schema(list(data.items()) + [(_LEFT, pa.bool_())])

    def tagger(schema, store, is_left):
        own = {store[n]: n for n in schema.names}

        def tag(b: pa.Table) -> pa.Table:
            b = b.select(schema.names).cast(schema)
            n = b.num_rows
            cols = [b.column(own[c]) if c in own else pa.nulls(n, t)
                    for c, t in data.items()]
            cols.append(pa.array(np.full(n, is_left)))
            return pa.Table.from_arrays(cols, schema=union)
        return tag

    l_cols = [l_store[c] for c in left_schema.names]
    r_cols = [r_store[c] for c in right_schema.names]

    def split(_part: int, g: pa.Table) -> pa.Table:
        is_left = g.column(_LEFT)
        lt = (g.filter(is_left).select(l_cols)
              .rename_columns(left_schema.names))
        rt = (g.filter(pc.invert(is_left)).select(r_cols)
              .rename_columns(right_schema.names))
        return fn(lt.take(pc.sort_indices(lt.column(left_key))), rt)

    tag_l = tagger(left_schema, l_store, True)
    tag_r = tagger(right_schema, r_store, False)
    return partition_map([left.map_batches(tag_l, batch_format="pyarrow"),
                          right.map_batches(tag_r, batch_format="pyarrow")],
                         split, key=_KEY, width=n_parts)


#: private int64 partition key of join's shuffle tier
_JK = "_join_key"


def _join_tables(lt: pa.Table, rt: pa.Table, on: str, right_on: str,
                 how: str) -> pa.Table:
    """``lt`` joined to ``rt``: one polars join on the two key columns
    picks the row pairs in left order, and Arrow ``take`` gathers the
    columns, so every column keeps its Arrow type. Output: ``lt``'s
    columns, then ``rt``'s non-key columns (``_r`` on a name ``lt``
    has). NULL keys never match; ``left_outer`` keeps unmatched left
    rows with NULL right columns."""
    import polars as pl

    def keys(t: pa.Table, col: str, index: str):
        return pl.from_arrow(pa.table({"k": t.column(col)})).with_row_index(
            index)

    l_ix, r_ix = keys(lt, on, "li"), keys(rt, right_on, "ri")
    if r_ix.schema["k"] != l_ix.schema["k"]:
        r_ix = r_ix.with_columns(pl.col("k").cast(l_ix.schema["k"]))
    ix = l_ix.join(r_ix, left_on="k", right_on="k",
                   how="inner" if how == "inner" else "left",
                   maintain_order="left")
    out = lt.take(ix["li"].to_arrow())
    ri = ix["ri"].to_arrow()
    for c in rt.column_names:
        if c != right_on:
            out = out.append_column(f"{c}_r" if c in lt.column_names else c,
                                    rt.column(c).take(ri))
    # no schema metadata: a parquet read's (a dict) makes Ray's schema
    # dedup warn at every later block concat
    return out.replace_schema_metadata()


def _collect(ds) -> pa.Table:
    """Every row of ``ds`` in one Arrow table (typed even when empty;
    ``ds`` must have a schema then)."""
    import ray

    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    if parts:
        return pa.concat_tables(parts, promote_options="default")
    s = ds.schema()
    return pa.schema(list(zip(s.names, s.types))).empty_table()


def join(left, right, *, on: str, right_on: Optional[str] = None,
         how: str, n_parts: int, broadcast_limit: int):
    """Keyed ``inner`` or ``left_outer`` join of two Datasets: ``left``
    rows with ``on`` equal to ``right``'s ``right_on`` (default ``on``).

    Output columns: ``left``'s, then ``right``'s non-key columns, a
    name ``left`` has taking an ``_r`` suffix. NULL keys never match;
    ``left_outer`` keeps unmatched left rows (NULL key ones too) with
    NULL right columns. Every column keeps its Arrow type. An empty
    ``right`` without a schema raises ``ValueError``.

    The tier is :meth:`KeySet.broadcasts` of ``right``'s row count,
    counted once ``right`` is materialized:

    * **broadcast**: ``right`` is collected once into one Arrow table
      and ``ray.put``; every ``left`` batch joins it in one polars
      join, so ``left`` keeps its blocks and its row order;
    * **shuffle**: both sides are materialized with a private int64
      partition key (an integer key itself, any other type its
      ``hash64``; NULL right keys dropped) and meet in one
      :func:`co_attach` of :func:`exchange_width` partitions (at most
      ``n_parts``), joined per partition on the real keys.
    """
    import ray

    from ..sketches.hashing import hash64
    from .keyset import KeySet

    if how not in ("inner", "left_outer"):
        raise ValueError(f"join how must be 'inner' or 'left_outer', "
                         f"got {how!r}")
    right_on = right_on or on
    # counted materialized: a parquet read's free count (_meta_count)
    # logs a schema-hash warning per call, and each tier reads it all
    right = right.materialize()
    n_right = right.count()
    if n_right == 0 and right.schema() is None:
        # the right's columns are unknowable: a join would silently
        # return the left's columns only
        raise ValueError(
            "join: the right side is empty and Ray lost its schema (e.g. "
            "an empty table repartitioned); give it a typed block")
    if KeySet.broadcasts(n_right, broadcast_limit):
        ref = ray.put(_collect(right))
        return left.map_batches(
            lambda b: _join_tables(b, ray.get(ref), on, right_on, how),
            batch_format="pyarrow", batch_size=None)

    def keyed(ds, col: str, keep_null: bool):
        def tag(b: pa.Table) -> pa.Table:
            if not keep_null:
                b = b.filter(pc.is_valid(b.column(col)))
            k = b.column(col)
            jk = (pc.fill_null(k.cast(pa.int64(), safe=False), 0)
                  if pa.types.is_integer(k.type)
                  else pa.array(hash64(k, 0).view(np.int64)))
            return b.append_column(_JK, jk)
        return ds.map_batches(tag, batch_format="pyarrow").materialize()

    lt = keyed(left, on, how == "left_outer")
    rt = keyed(right, right_on, False)
    l_schema, r_schema = lt.schema(), rt.schema()
    if l_schema is None:  # no left block at all: nothing to join
        return lt
    return co_attach(
        lt, rt,
        lambda a, b: _join_tables(a.drop_columns([_JK]),
                                  b.drop_columns([_JK]), on, right_on, how),
        left_key=_JK, right_key=_JK,
        n_parts=exchange_width(lt.count() + rt.count(), n_parts),
        left_schema=list(zip(l_schema.names, l_schema.types)),
        right_schema=list(zip(r_schema.names, r_schema.types)))


def bucket_fold(ds, keys: Sequence[str],
                aggs: Sequence[Tuple[Optional[str], str, str]],
                num_buckets: int = NUM_BUCKETS, *,
                pre: Optional[Callable[[pa.Table], pa.Table]] = None):
    """Exact ``groupby(keys).aggregate(...)`` via a bucket-keyed fold.

    ``aggs``: tuples ``(col, op, alias)`` with ``op`` in
    ``{"sum", "min", "max", "count"}`` (``col`` is ignored for
    ``count``). Returns a Dataset with columns ``keys + aliases``;
    values are bit-identical to the Ray aggregate for these
    order-independent ops. Key columns must be non-null (all callers
    group on computed hashes / ids). The exchange is count-sized
    (:func:`exchange`; over a lazy input, from the pre-folded
    partials), at most ``num_buckets`` partitions.

    ``pre``: the caller's per-block map (e.g. deriving the key
    columns), run map-side before the pre-fold, as :func:`exchange`'s
    ``pre``. Passing it here instead of mapping ``ds`` first keeps the
    input's free row count, so the exchange is count-sized.
    """
    import polars as pl

    keys = list(keys)
    for _, op, _ in aggs:
        if op not in _OPS:
            raise ValueError(f"unsupported op {op!r}")
    map_exprs = _exprs(aggs, combine=False)
    combine_exprs = _exprs(aggs, combine=True)
    out_cols = keys + [a for _, _, a in aggs]

    def prefold(b: pa.Table) -> pa.Table:
        if pre is not None:
            b = pre(b)
        return pl.from_arrow(b).group_by(keys).agg(map_exprs).to_arrow()

    def fold(g: pa.Table) -> pa.Table:
        t = pl.from_arrow(g).group_by(keys).agg(combine_exprs)
        return t.select(out_cols).to_arrow()

    return exchange(ds, keys, fold, pre=prefold, num_buckets=num_buckets)

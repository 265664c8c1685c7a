"""Link-graph analytics over edge tables: PageRank as a fixed-iteration
integer power method.

Web-scale corpora need graph-derived quality signals — Common Crawl
ranks hosts by centrality over the host-link graph, and browse/click
graphs rank pages the same way. The reference plugin has no graph
surface (its Bloom semi-joins were the tool its users reached for when
intersecting id sets); this module adds the canonical iterative-graph
operator in Ray-Data-first shape: every iteration is one pass over the
EDGE dataset plus a node-keyed aggregate, the rank vector never
materializes anywhere bigger than one node-sized table, and the whole
recurrence is defined in int64 arithmetic so a SQL oracle reproduces it
bit-for-bit (the repo's scaled-int exactness pattern).

Integer PageRank recurrence (shared verbatim by both tiers and by
:func:`pagerank_sql_mirror`, all ``//`` floor divisions on int64):

* ``N`` = number of distinct nodes (sources ∪ destinations);
* ``r0(v) = scale // N``;
* per-unit payout of a source ``s`` with out-weight ``wout(s) > 0``:
  ``q(s) = r(s) // wout(s)``; an edge ``(s, d, w)`` delivers
  ``q(s) * w`` to ``d``;
* dangling mass ``D`` = sum of ``r`` over nodes with no out-edges;
* ``r'(v) = (15 * scale) // (100 * N)
  + (85 * inflow(v)) // 100 + (85 * D) // (100 * N)``.

The floors leak a few units of mass per iteration (bounded by
``N + |E|`` units out of ``scale = 1e12``) — the price of an
order-independent, engine-independent fixpoint. Ranks are reported in
``scale``-ths ("rank_micro").

Tiers (the repo's tiered pattern, e.g. functions/dedup.py removal),
picked by the node count against ``broadcast_limit`` (``0`` forces the
dataset tier):

* **broadcast** (node table ≤ ``broadcast_limit``): out-degrees and the
  rank vector live in driver numpy arrays (like ``kmeans_fit``'s
  centroid matrix); each iteration broadcasts the payout vector via
  ``ray.put`` and streams the edges once through ``map_batches``,
  emitting per-block (dst, partial-sum) rows — the exchange is
  node-sized, never edge-sized.
* **dataset** (beyond the limit): ranks stay a hash-partitioned
  Dataset; each iteration is an edge-stream join on src, a
  node-keyed fold and a node-keyed attach back onto the ranks, both
  joins co-partitioned (:func:`~.fold.join` with
  ``broadcast_limit=0``, so no table visits the driver) —
  100-TB-shaped, at the cost of three shuffles per iteration. Skewed
  in-link hubs (every web graph has them) stay safe because the map side
  pre-aggregates each batch's contributions per destination before the
  shuffle.

Every node-keyed reduction goes through :func:`_bucket_fold_sum`, NOT
``groupby(node).aggregate(Sum)``: Ray 2.49's sort-based aggregate costs
~100 s for 17M rows / 1M distinct keys (measured), because the reduce
step pays per-GROUP overhead. Grouping by a hash bucket of the node
instead, in partitions sized from the partials' row count (at most
``num_partitions``), and folding each partition with one vectorized
polars ``group_by`` produces the identical table in ~2 s — same
exchange volume, same co-location guarantee (every row of a node lands
in that node's bucket), 50× less reduce overhead. The fold is exact
int64 and order-independent.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

__all__ = ["pagerank", "pagerank_sql_mirror", "hits", "hits_sql_mirror",
           "triangle_count", "triangle_count_sql", "kcore", "kcore_sql",
           "bfs_distances", "bfs_sql"]

#: rank unit: ranks are integers in 1/SCALE-ths, so every sum any engine
#: computes is an exact int64 (no float accumulation order anywhere)
DEFAULT_SCALE = 10 ** 12

#: damping 0.85 as the exact rational 85/100 (both engines floor-divide)
_D_NUM, _D_DEN = 85, 100


def _bucket_fold_sum(partials, num_partitions: int):
    """Sum a Dataset of (node:int64, s:int64) partial rows by node →
    Dataset of (node, s), via the shared bucket fold (see module
    docstring and ``functions/fold.py``: identical result to a
    node-keyed ``groupby().aggregate``, ~50× faster at ≥1M distinct
    nodes in Ray 2.49), in at most ``num_partitions`` partitions."""
    from .fold import bucket_fold

    return bucket_fold(partials, ["node"], [("s", "sum", "s")],
                       num_buckets=num_partitions)


def _node_wout_partials(src_col: str, dst_col: str, w_col: str):
    """map_batches fn: per-block (node, s=wout-partial) rows covering
    src ∪ dst — destinations ride along with s=0, so ONE pass + ONE
    bucket fold yields both the node set and the out-weights (dst-only
    nodes come out with wout 0 = dangling)."""

    def fn(b: pa.Table) -> pa.Table:
        src = np.asarray(b.column(src_col), dtype=np.int64)
        w = np.asarray(b.column(w_col), dtype=np.int64)
        uniq, inv = np.unique(src, return_inverse=True)
        acc = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(acc, inv, w)
        dst_u = np.unique(np.asarray(b.column(dst_col), dtype=np.int64))
        return pa.table({
            "node": pa.array(np.concatenate([uniq, dst_u]), pa.int64()),
            "s": pa.array(np.concatenate(
                [acc, np.zeros(len(dst_u), np.int64)]), pa.int64())})

    return fn


def _edge_partials(nodes_ref, q_ref, src_col: str,
                   dst_col: str, w_col: str):
    """map_batches fn: per-batch (node, s) partial inflow rows —
    pre-aggregated per destination, so the downstream exchange carries
    at most (distinct dst per batch) rows, never edge rows. Both the
    sorted node array and the payout vector arrive as ``ray.put`` refs
    (zero-copy shared memory), never pickled into the task closure."""

    def fn(b: pa.Table) -> pa.Table:
        src = np.asarray(b.column(src_col), dtype=np.int64)
        dst = np.asarray(b.column(dst_col), dtype=np.int64)
        w = np.asarray(b.column(w_col), dtype=np.int64)
        q = ray.get(q_ref)  # zero-copy shared-memory numpy
        nodes_sorted = ray.get(nodes_ref)
        contrib = q[np.searchsorted(nodes_sorted, src)] * w
        uniq, inv = np.unique(dst, return_inverse=True)
        acc = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(acc, inv, contrib)
        return pa.table({"node": pa.array(uniq, pa.int64()),
                         "s": pa.array(acc, pa.int64())})

    return fn


def _normalize_edges(edges, src_col: str, dst_col: str,
                     weight_col: Optional[str]):
    """Project to (src, dst, w) int64. Parallel edges are fine — the
    recurrence treats an edge's weight as a multiplicity, so callers
    may pass raw pairs (weight_col=None ⇒ w=1) without aggregating."""

    def proj(b: pa.Table) -> pa.Table:
        w = (pc.cast(b.column(weight_col), pa.int64()) if weight_col
             else pa.array(np.ones(b.num_rows, dtype=np.int64)))
        return pa.table({
            "src": pc.cast(b.column(src_col), pa.int64()),
            "dst": pc.cast(b.column(dst_col), pa.int64()),
            "w": w,
        })

    return edges.map_batches(proj, batch_format="pyarrow", batch_size=None)


def pagerank(edges, *, iters: int = 3, scale: int = DEFAULT_SCALE,
             src_col: str = "src", dst_col: str = "dst",
             weight_col: Optional[str] = None,
             seeds=None, broadcast_limit: int = 2_000_000,
             num_partitions: int = 16):
    """PageRank over an edge Dataset → Dataset of (node, rank_micro).

    ``edges``: Ray Dataset with integer ``src_col`` / ``dst_col`` and an
    optional int ``weight_col`` (parallel-edge multiplicity). ``iters``
    power iterations of the integer recurrence in the module docstring.
    The node count picks the tier (module docstring): the driver-resident
    rank vector at or below ``broadcast_limit`` nodes, a distributed one
    above it.

    ``seeds``: optional iterable of node ids → PERSONALIZED PageRank:
    the teleport term (initial mass, the 15 % restart, and the dangling
    redistribution) flows only to the seed set instead of uniformly —
    the standard seed-expansion primitive (crawl-frontier scoring,
    topic-conditioned page quality). Seeds absent from the graph's node
    set are ignored (both engines intersect first); ``seeds=None`` is
    EXACTLY the uniform recurrence (all nodes are seeds). The seed set
    is driver-resident (it's a query parameter, not data)."""
    import ray.data as rd

    if iters < 0:
        raise ValueError("iters must be >= 0")
    ed = _normalize_edges(edges, src_col, dst_col, weight_col).materialize()

    # ONE pass + ONE bucket fold: node set ∪ out-weights together
    node_wout = _bucket_fold_sum(
        ed.map_batches(_node_wout_partials("src", "dst", "w"),
                       batch_format="pyarrow", batch_size=None),
        num_partitions).materialize()
    seed_arr = (None if seeds is None
                else np.unique(np.asarray(list(seeds), dtype=np.int64)))
    if node_wout.count() > broadcast_limit:
        return _pagerank_dataset(ed, node_wout, iters, scale,
                                 num_partitions, seed_arr)

    nw = node_wout.to_pandas()
    n = len(nw)
    if n == 0:
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "rank_micro": pa.array([], pa.int64())}))
    order = np.argsort(nw["node"].to_numpy(dtype=np.int64))
    nodes = nw["node"].to_numpy(dtype=np.int64)[order]
    wout = nw["s"].to_numpy(dtype=np.int64)[order]

    if seed_arr is None:
        s_mask = np.ones(n, dtype=bool)
    else:
        s_mask = np.isin(nodes, seed_arr)
    ns = int(s_mask.sum())
    if ns == 0:
        raise ValueError("no seed is a node of the graph")
    r = np.where(s_mask, scale // ns, 0).astype(np.int64)
    base = np.where(
        s_mask, (scale * (_D_DEN - _D_NUM)) // (_D_DEN * ns), 0
    ).astype(np.int64)
    nodes_ref = ray.put(nodes)  # shipped once, read zero-copy per block
    for _ in range(iters):
        q = np.where(wout > 0, r // np.maximum(wout, 1), 0)
        q_ref = ray.put(q)
        inflow_rows = _bucket_fold_sum(ed.map_batches(
            _edge_partials(nodes_ref, q_ref, "src", "dst", "w"),
            batch_format="pyarrow", batch_size=None),
            num_partitions).to_pandas()
        inflow = np.zeros(n, dtype=np.int64)
        if len(inflow_rows):
            idx = np.searchsorted(
                nodes, inflow_rows["node"].to_numpy(dtype=np.int64))
            inflow[idx] = inflow_rows["s"].to_numpy(dtype=np.int64)
        dangling = int(r[wout == 0].sum())
        r = (base + (_D_NUM * inflow) // _D_DEN
             + s_mask * ((_D_NUM * dangling) // (_D_DEN * ns)))
    return rd.from_arrow(pa.table({"node": pa.array(nodes, pa.int64()),
                                   "rank_micro": pa.array(r, pa.int64())}))


def _pagerank_dataset(ed, node_wout, iters: int, scale: int,
                      num_partitions: int, seed_arr=None):
    """Scale path: the rank vector is a hash-partitioned Dataset end to
    end; the driver only ever holds per-iteration scalars (N, dangling
    mass). ``node_wout`` is the fused (node, s=out-weight) table — the
    rank rows carry wout inline, so the only per-iteration join is the
    edge⋈payout routing; dangling mass and payout are pure map passes
    and the inflow reduction is a bucket fold. ``seed_arr`` (sorted
    int64, personalized teleport set) ships once via ``ray.put``."""
    import ray.data as rd

    from .fold import join

    if node_wout.count() == 0:
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "rank_micro": pa.array([], pa.int64())}))

    seeds_ref = ray.put(seed_arr)  # None → uniform (every node a seed)

    def mark(b: pa.Table) -> pa.Table:
        node = np.asarray(b.column("node"), dtype=np.int64)
        sa = ray.get(seeds_ref)
        flag = (np.ones(len(node), bool) if sa is None
                else np.isin(node, sa))
        return pa.table({
            "node": b.column("node"),
            "wout": b.column("s"),
            "is_seed": pa.array(flag.astype(np.int64), pa.int64())})

    marked = node_wout.map_batches(mark, batch_format="pyarrow",
                                   batch_size=None).materialize()
    ns = int(marked.sum("is_seed") or 0)  # seed count, distributed
    if ns == 0:
        raise ValueError("no seed is a node of the graph")

    def seed(b: pa.Table) -> pa.Table:
        flag = np.asarray(b.column("is_seed"), dtype=np.int64)
        return pa.table({
            "node": b.column("node"),
            "wout": b.column("wout"),
            "is_seed": b.column("is_seed"),
            "r": pa.array(flag * (scale // ns), pa.int64())})

    ranks = marked.map_batches(seed, batch_format="pyarrow",
                               batch_size=None).materialize()
    base = (scale * (_D_DEN - _D_NUM)) // (_D_DEN * ns)

    def dang_partial(b: pa.Table) -> pa.Table:
        r = np.asarray(b.column("r"), dtype=np.int64)
        dead = np.asarray(b.column("wout"), dtype=np.int64) == 0
        return pa.table({"d": pa.array([int(r[dead].sum())], pa.int64())})

    def payout(b: pa.Table) -> pa.Table:
        live = pc.greater(b.column("wout"), 0)
        b = b.filter(live)
        r = np.asarray(b.column("r"), dtype=np.int64)
        w = np.asarray(b.column("wout"), dtype=np.int64)
        return pa.table({"src": b.column("node"),
                         "q": pa.array(r // w, pa.int64())})

    def per_edge(b: pa.Table) -> pa.Table:
        # pre-aggregate per destination BEFORE the shuffle: hub pages
        # with millions of in-links must not explode the exchange
        dst = np.asarray(b.column("dst"), dtype=np.int64)
        c = (np.asarray(b.column("q"), dtype=np.int64)
             * np.asarray(b.column("w"), dtype=np.int64))
        uniq, inv = np.unique(dst, return_inverse=True)
        acc = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(acc, inv, c)
        return pa.table({"node": pa.array(uniq, pa.int64()),
                         "s": pa.array(acc, pa.int64())})

    for _ in range(iters):
        dangling = int(ranks.map_batches(
            dang_partial, batch_format="pyarrow",
            batch_size=None).sum("d") or 0)

        q_ds = ranks.map_batches(payout, batch_format="pyarrow",
                                 batch_size=None)
        contrib = join(ed, q_ds, on="src", how="inner",
                       n_parts=num_partitions, broadcast_limit=0)
        inflow = _bucket_fold_sum(
            contrib.map_batches(per_edge, batch_format="pyarrow",
                                batch_size=None),
            num_partitions).map_batches(
                lambda b: b.rename_columns(["node", "_in"]),
                batch_format="pyarrow", batch_size=None)
        nxt = join(ranks, inflow, on="node", how="left_outer",
                   n_parts=num_partitions, broadcast_limit=0)

        def fold(b: pa.Table) -> pa.Table:
            s = np.asarray(pc.fill_null(b.column("_in"), 0), dtype=np.int64)
            flag = np.asarray(b.column("is_seed"), dtype=np.int64)
            r = (flag * base + (_D_NUM * s) // _D_DEN
                 + flag * ((_D_NUM * dangling) // (_D_DEN * ns)))
            return pa.table({"node": b.column("node"),
                             "wout": b.column("wout"),
                             "is_seed": b.column("is_seed"),
                             "r": pa.array(r, pa.int64())})

        ranks = nxt.map_batches(fold, batch_format="pyarrow",
                                batch_size=None).materialize()

    return ranks.map_batches(
        lambda b: pa.table({"node": b.column("node"),
                            "rank_micro": b.column("r")}),
        batch_format="pyarrow", batch_size=None)


def pagerank_sql_mirror(edges_sql: str, *, iters: int = 3,
                        scale: int = DEFAULT_SCALE, seeds=None) -> str:
    """ANSI-SQL mirror of :func:`pagerank`, GENERATED from the same
    constants (the repo's oracle-can't-drift pattern: bm25_sql_mirror,
    canonicalize_sql). ``edges_sql`` must select columns
    ``src, dst, w`` (int). Produces (node, rank_micro) — bit-identical
    to the operator because the recurrence is pure int64 floor
    arithmetic on both engines. ``seeds`` mirrors the operator's
    personalized teleport set (intersected with the node set, exactly
    as the operator does); ``None`` emits the uniform recurrence."""
    num, den = _D_NUM, _D_DEN
    parts = [
        f"edges AS ({edges_sql})",
        "nodes AS (SELECT src AS node FROM edges"
        " UNION SELECT dst AS node FROM edges)",
        "outdeg AS (SELECT src AS node, CAST(sum(w) AS BIGINT) AS wout"
        " FROM edges GROUP BY src)",
    ]
    if seeds is None:
        parts.append("nn AS (SELECT CAST(count(*) AS BIGINT) AS n"
                     " FROM nodes)")
        parts.append(f"r0 AS (SELECT node,"
                     f" {scale} // (SELECT n FROM nn) AS r FROM nodes)")
        flag = "1"  # every node is a seed
        joins = ""
    else:
        vals = ", ".join(f"({int(v)})" for v in sorted(set(seeds)))
        parts.append(f"seedset AS (SELECT node FROM nodes WHERE node IN"
                     f" (SELECT sv.node FROM (VALUES {vals})"
                     f" sv(node)))")
        parts.append("nn AS (SELECT CAST(count(*) AS BIGINT) AS n"
                     " FROM seedset)")
        parts.append(
            f"r0 AS (SELECT n.node, CASE WHEN sd.node IS NOT NULL THEN"
            f" {scale} // (SELECT n FROM nn) ELSE 0 END AS r"
            f" FROM nodes n LEFT JOIN seedset sd ON n.node = sd.node)")
        flag = "CASE WHEN sd.node IS NOT NULL THEN 1 ELSE 0 END"
        joins = " LEFT JOIN seedset sd ON n.node = sd.node"
    for k in range(1, iters + 1):
        p = k - 1
        parts.append(
            f"q{k} AS (SELECT o.node, r.r // o.wout AS q"
            f" FROM outdeg o JOIN r{p} r USING (node))")
        parts.append(
            f"inflow{k} AS (SELECT e.dst AS node,"
            f" CAST(sum(q.q * e.w) AS BIGINT) AS s"
            f" FROM edges e JOIN q{k} q ON e.src = q.node GROUP BY e.dst)")
        parts.append(
            f"dang{k} AS (SELECT CAST(coalesce(sum(r.r), 0) AS BIGINT) AS d"
            f" FROM r{p} r LEFT JOIN outdeg o USING (node)"
            f" WHERE o.node IS NULL)")
        if seeds is None:
            parts.append(
                f"r{k} AS (SELECT n.node,"
                f" ({scale} * {den - num}) // ({den} * (SELECT n FROM nn))"
                f" + ({num} * coalesce(i.s, 0)) // {den}"
                f" + ({num} * (SELECT d FROM dang{k}))"
                f" // ({den} * (SELECT n FROM nn)) AS r"
                f" FROM nodes n LEFT JOIN inflow{k} i USING (node))")
        else:
            parts.append(
                f"r{k} AS (SELECT n.node,"
                f" ({flag}) * (({scale} * {den - num})"
                f" // ({den} * (SELECT n FROM nn)))"
                f" + ({num} * coalesce(i.s, 0)) // {den}"
                f" + ({flag}) * (({num} * (SELECT d FROM dang{k}))"
                f" // ({den} * (SELECT n FROM nn))) AS r"
                f" FROM nodes n LEFT JOIN inflow{k} i USING (node){joins})")
    return ("WITH " + ",\n".join(parts)
            + f"\nSELECT node, r AS rank_micro FROM r{iters} ORDER BY node")


#: HITS rank unit — smaller than PageRank's because hub scores multiply
#: edge weights inside int64 sums: the documented bound is
#: ``|E| · max_w · hits_scale < 2^63`` (10^12 weighted edges at 10^6).
HITS_SCALE = 10 ** 6


def hits(edges, *, iters: int = 3, scale: int = HITS_SCALE,
         src_col: str = "src", dst_col: str = "dst",
         weight_col: Optional[str] = None, broadcast_limit: int = 2_000_000,
         num_partitions: int = 16):
    """Kleinberg's HITS over an edge Dataset → Dataset of
    ``(node, hub_score, auth_score)`` int64.

    Integer recurrence (shared verbatim with :func:`hits_sql_mirror`,
    all ``//`` floor divisions on non-negative int64):

    * ``h0(v) = scale`` for every node;
    * ``a_raw(v) = Σ_{(u,v,w)∈E} h(u)·w``; with ``A = Σ_v a_raw(v)``
      the rescale is **division-first** — ``a(v) = a_raw(v) //
      max(A // scale, 1)`` — so no intermediate ever multiplies a raw
      sum by ``scale`` (int64-safe at 10^12 edges, unlike the textbook
      ``a_raw·scale // A``);
    * ``h_raw(u) = Σ_{(u,v,w)∈E} a(v)·w``; ``h(u) = h_raw(u) //
      max(H // scale, 1)`` with ``H = Σ h_raw``.

    Scores are ≈``scale``-normalized: Σ ∈ ``(scale − n_nonzero,
    scale·(1 + 1/denom))`` with ``denom = total // scale`` — each
    node's floor can lose one unit, so pick ``scale ≫ n`` when
    per-node resolution matters (at 10^6 Zipf-skewed nodes and the
    default scale, measured Σ ≈ 0.64·scale: the tail floors to 0,
    which is usually the desired behavior for hub/authority RANKING,
    where only the head is meaningful).
    Tiers mirror :func:`pagerank`, picked by the node count against
    ``broadcast_limit``: broadcast (score vectors on the driver, one edge
    pass per half-iteration routed via ``ray.put``) and dataset (scores
    stay a hash-partitioned Dataset; per half-iteration one routing join
    + one bucket fold + one attach join). Bound: ``|E| · max_w · scale
    < 2^63``.
    """
    import ray.data as rd

    if iters < 0:
        raise ValueError("iters must be >= 0")
    ed = _normalize_edges(edges, src_col, dst_col, weight_col).materialize()
    node_rows = _bucket_fold_sum(
        ed.map_batches(_node_wout_partials("src", "dst", "w"),
                       batch_format="pyarrow", batch_size=None),
        num_partitions).materialize()
    n = node_rows.count()
    if n == 0:
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "hub_score": pa.array([], pa.int64()),
            "auth_score": pa.array([], pa.int64())}))
    if n > broadcast_limit:
        return _hits_dataset(ed, node_rows, iters, scale, num_partitions)

    nodes = np.sort(node_rows.to_pandas()["node"].to_numpy(dtype=np.int64))
    nodes_ref = ray.put(nodes)
    h = np.full(n, scale, dtype=np.int64)
    a = np.zeros(n, dtype=np.int64)

    def half_pass(vec: np.ndarray, lookup_col: str, emit_col: str):
        """Route vec[lookup]·w to emit nodes, fold, rescale."""
        v_ref = ray.put(vec)
        rows = _bucket_fold_sum(ed.map_batches(
            _edge_partials(nodes_ref, v_ref, lookup_col, emit_col, "w"),
            batch_format="pyarrow", batch_size=None),
            num_partitions).to_pandas()
        raw = np.zeros(n, dtype=np.int64)
        if len(rows):
            idx = np.searchsorted(nodes, rows["node"].to_numpy(np.int64))
            raw[idx] = rows["s"].to_numpy(np.int64)
        denom = max(int(raw.sum()) // scale, 1)
        return raw // denom

    for _ in range(iters):
        a = half_pass(h, "src", "dst")
        h = half_pass(a, "dst", "src")
    return rd.from_arrow(pa.table({
        "node": pa.array(nodes, pa.int64()),
        "hub_score": pa.array(h, pa.int64()),
        "auth_score": pa.array(a, pa.int64())}))


def _hits_dataset(ed, node_rows, iters: int, scale: int,
                  num_partitions: int):
    """Scale path: the (node, h, a) score table stays a
    hash-partitioned Dataset; the driver holds only the per-half-pass
    total (A or H). Per half-pass: one routing join (edges ⋈ scores on
    the lookup endpoint), one bucket fold keyed by the emit endpoint,
    one attach join back onto the score table."""
    from .fold import join

    def seed(b: pa.Table) -> pa.Table:
        return pa.table({
            "node": b.column("node"),
            "h": pa.array(np.full(b.num_rows, scale, np.int64)),
            "a": pa.array(np.zeros(b.num_rows, np.int64))})

    scores = node_rows.map_batches(seed, batch_format="pyarrow",
                                   batch_size=None).materialize()

    def half_pass(scores, value_col: str, out_col: str,
                  lookup_col: str, emit_col: str):
        def pick(b: pa.Table) -> pa.Table:
            return pa.table({lookup_col: b.column("node"),
                             "q": b.column(value_col)})

        q_ds = scores.map_batches(pick, batch_format="pyarrow",
                                  batch_size=None)
        joined = join(ed, q_ds, on=lookup_col, how="inner",
                      n_parts=num_partitions, broadcast_limit=0)

        def per_edge(b: pa.Table) -> pa.Table:
            emit = np.asarray(b.column(emit_col), dtype=np.int64)
            c = (np.asarray(b.column("q"), dtype=np.int64)
                 * np.asarray(b.column("w"), dtype=np.int64))
            uniq, inv = np.unique(emit, return_inverse=True)
            acc = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(acc, inv, c)
            return pa.table({"node": pa.array(uniq, pa.int64()),
                             "s": pa.array(acc, pa.int64())})

        raw = _bucket_fold_sum(
            joined.map_batches(per_edge, batch_format="pyarrow",
                               batch_size=None),
            num_partitions).map_batches(
                lambda b: b.rename_columns(["node", "_s"]),
                batch_format="pyarrow", batch_size=None).materialize()
        denom = max(int(raw.sum("_s") or 0) // scale, 1)
        nxt = join(scores, raw, on="node", how="left_outer",
                   n_parts=num_partitions, broadcast_limit=0)

        def rescale(b: pa.Table) -> pa.Table:
            s = np.asarray(pc.fill_null(b.column("_s"), 0), dtype=np.int64)
            cols = {"node": b.column("node"), "h": b.column("h"),
                    "a": b.column("a")}
            cols[out_col] = pa.array(s // denom, pa.int64())
            return pa.table(cols)

        return nxt.map_batches(rescale, batch_format="pyarrow",
                               batch_size=None).materialize()

    for _ in range(iters):
        scores = half_pass(scores, "h", "a", "src", "dst")
        scores = half_pass(scores, "a", "h", "dst", "src")
    return scores.map_batches(
        lambda b: pa.table({"node": b.column("node"),
                            "hub_score": b.column("h"),
                            "auth_score": b.column("a")}),
        batch_format="pyarrow", batch_size=None)


def hits_sql_mirror(edges_sql: str, *, iters: int = 3,
                    scale: int = HITS_SCALE) -> str:
    """ANSI-SQL mirror of :func:`hits`, GENERATED from the same
    constants (the repo's oracle-can't-drift pattern). ``edges_sql``
    must select ``src, dst, w`` (int). Bit-identical to the operator:
    the recurrence is pure non-negative int64 floor arithmetic on both
    engines."""
    parts = [
        f"edges AS ({edges_sql})",
        "nodes AS (SELECT src AS node FROM edges"
        " UNION SELECT dst AS node FROM edges)",
        f"h0 AS (SELECT node, CAST({scale} AS BIGINT) AS h FROM nodes)",
    ]
    for k in range(1, iters + 1):
        p = k - 1
        parts.append(
            f"araw{k} AS (SELECT e.dst AS node,"
            f" CAST(sum(s.h * e.w) AS BIGINT) AS s"
            f" FROM edges e JOIN h{p} s ON e.src = s.node GROUP BY e.dst)")
        parts.append(
            f"a{k} AS (SELECT n.node, coalesce(r.s, 0)"
            f" // greatest((SELECT CAST(coalesce(sum(s), 0) AS BIGINT)"
            f" FROM araw{k})"
            f" // {scale}, 1) AS a"
            f" FROM nodes n LEFT JOIN araw{k} r USING (node))")
        parts.append(
            f"hraw{k} AS (SELECT e.src AS node,"
            f" CAST(sum(s.a * e.w) AS BIGINT) AS s"
            f" FROM edges e JOIN a{k} s ON e.dst = s.node GROUP BY e.src)")
        parts.append(
            f"h{k} AS (SELECT n.node, coalesce(r.s, 0)"
            f" // greatest((SELECT CAST(coalesce(sum(s), 0) AS BIGINT)"
            f" FROM hraw{k})"
            f" // {scale}, 1) AS h"
            f" FROM nodes n LEFT JOIN hraw{k} r USING (node))")
    return ("WITH " + ",\n".join(parts)
            + f"\nSELECT h.node, h.h AS hub_score, a.a AS auth_score"
            + f" FROM h{iters} h JOIN a{iters} a USING (node)"
            + " ORDER BY node")


def triangle_count(edges, *, src_col: str = "src", dst_col: str = "dst",
                   broadcast_limit: int = 2_000_000,
                   num_partitions: int = 16) -> int:
    """Exact triangle count of the UNDIRECTED simple graph underlying
    an edge Dataset (direction, weights, parallel edges and self-loops
    ignored) → int.

    The classic degree-ordered wedge algorithm, Ray-Data-first:

    1. distinct undirected edges via one bucket fold on ``(a, b)``
       (``a = min, b = max``; self-loops dropped);
    2. degrees via a second bucket fold (both endpoints ride one
       exchange);
    3. orient every edge from the endpoint with smaller
       ``(degree, id)`` to the larger — each triangle then has exactly
       ONE node with two out-edges, so emitting out-neighbor pairs
       (wedges) counts every triangle once, and total wedge volume is
       bounded by O(|E|^1.5) regardless of hub skew (a hub's edges
       orient INTO it, so it emits no quadratic pair set);
    4. close wedges against the edge set with one
       :func:`~.fold.co_attach`: wedge rows and edge rows meet in the
       ``min-endpoint & mask`` partition, membership is one
       ``searchsorted`` over packed ``a·2³² + b`` int64 keys per
       partition — no broadcast, no driver state beyond the final
       count.

    Degrees attach to both endpoints by two node-keyed joins
    (:func:`~.fold.join`: broadcast when the node table ≤
    ``broadcast_limit``, co-partitioned above). Every exchange is sized
    from a row count, at most ``num_partitions`` partitions; the wedges
    are materialized to count them for the closure.
    Node ids must fit 2³¹ (packed-pair contract, asserted).
    """
    from .fold import bucket_fold, co_attach, exchange_width, join, \
        partition_map

    def und_rows(b: pa.Table) -> pa.Table:
        s = np.asarray(b.column(src_col), dtype=np.int64)
        d = np.asarray(b.column(dst_col), dtype=np.int64)
        if len(s) and (s.max() >= (1 << 31) or d.max() >= (1 << 31)
                       or s.min() < 0 or d.min() < 0):
            raise ValueError("triangle_count requires 0 <= id < 2^31")
        a = np.minimum(s, d)
        c = np.maximum(s, d)
        keep = a != c
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(c[keep])})

    und = (bucket_fold(
        edges.map_batches(und_rows, batch_format="pyarrow",
                          batch_size=None),
        ["a", "b"], [(None, "count", "_n")], num_buckets=num_partitions)
        .drop_columns(["_n"]).materialize())

    def deg_rows(b: pa.Table) -> pa.Table:
        both = np.concatenate([np.asarray(b.column("a"), dtype=np.int64),
                               np.asarray(b.column("b"), dtype=np.int64)])
        uniq, cnt = np.unique(both, return_counts=True)
        return pa.table({"node": pa.array(uniq, pa.int64()),
                         "s": pa.array(cnt.astype(np.int64))})

    deg = _bucket_fold_sum(
        und.map_batches(deg_rows, batch_format="pyarrow", batch_size=None),
        num_partitions).materialize()
    n = deg.count()
    if n == 0:
        return 0

    def orient(b: pa.Table) -> pa.Table:
        a = np.asarray(b.column("a"), dtype=np.int64)
        c = np.asarray(b.column("b"), dtype=np.int64)
        da = np.asarray(b.column("s"), dtype=np.int64)
        dc = np.asarray(b.column("s_r"), dtype=np.int64)
        # lower (deg, id) first
        a_first = (da < dc) | ((da == dc) & (a < c))
        lo = np.where(a_first, a, c)
        hi = np.where(a_first, c, a)
        return pa.table({"lo": pa.array(lo), "hi": pa.array(hi)})

    # both endpoint degrees: s for a, s_r for b
    kw = dict(right_on="node", how="inner", n_parts=num_partitions,
              broadcast_limit=broadcast_limit)
    oriented = join(join(und, deg, on="a", **kw), deg, on="b",
                    **kw).map_batches(orient, batch_format="pyarrow",
                                      batch_size=None)

    # wedge generation: co-partition by lo, emit out-neighbor pairs
    def wedge_group(_part: int, g: pa.Table) -> pa.Table:
        lo = np.asarray(g.column("lo"), dtype=np.int64)
        hi = np.asarray(g.column("hi"), dtype=np.int64)
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        starts = (np.concatenate(([0], np.flatnonzero(np.diff(lo)) + 1))
                  if len(lo) else np.zeros(0, np.int64)).astype(np.int64)
        sizes = np.diff(np.concatenate((starts, [len(lo)]))).astype(np.int64)
        xs, ys = [], []
        for s0, sz in zip(starts, sizes):
            if sz < 2:
                continue
            nb = hi[s0:s0 + sz]
            iu = np.triu_indices(sz, k=1)
            xs.append(nb[iu[0]])
            ys.append(nb[iu[1]])
        if xs:
            x = np.concatenate(xs)
            y = np.concatenate(ys)
            a = np.minimum(x, y)
            c = np.maximum(x, y)
        else:
            a = c = np.zeros(0, np.int64)
        return pa.table({"a": pa.array(a), "b": pa.array(c)})

    # one oriented row per undirected edge, so und's count sizes it
    n_und = und.count()
    wedges = partition_map(
        oriented, wedge_group, key="lo",
        width=exchange_width(n_und, num_partitions)).materialize()

    # closure: wedges ∩ edges, co-partitioned on the min endpoint;
    # membership is one searchsorted over packed a·2³² + b keys
    def close_group(und_t: pa.Table, w: pa.Table) -> pa.Table:
        def packed(t):
            return (np.asarray(t.column("a")) * (1 << 32)
                    + np.asarray(t.column("b")))
        edge_keys, wk = np.sort(packed(und_t)), packed(w)
        i = np.minimum(np.searchsorted(edge_keys, wk),
                       max(len(edge_keys) - 1, 0))
        hits_n = int(np.sum(edge_keys[i] == wk)) if len(edge_keys) else 0
        return pa.table({"n": pa.array([hits_n], pa.int64())})

    pair = [("a", pa.int64()), ("b", pa.int64())]
    out = co_attach(
        und, wedges, close_group, left_key="a", right_key="a",
        n_parts=exchange_width(n_und + wedges.count(), num_partitions),
        left_schema=pair, right_schema=pair).sum("n")
    return int(out or 0)


def triangle_count_sql(edges_sql: str) -> str:
    """SQL oracle for :func:`triangle_count` — the count is a pure
    integer (no scaled arithmetic to mirror), so a plain 3-way
    self-join over the distinct undirected edge set is exact."""
    return f"""
        WITH und AS (
            SELECT DISTINCT least(src, dst) AS a, greatest(src, dst) AS b
            FROM ({edges_sql}) WHERE src <> dst
        )
        SELECT CAST(count(*) AS BIGINT) AS n_triangles
        FROM und x
        JOIN und y ON y.a = x.b
        JOIN und z ON z.a = x.a AND z.b = y.b
    """


def kcore(edges, k: int, *, src_col: str = "src", dst_col: str = "dst",
          max_rounds: int = 8, broadcast_limit: int = 2_000_000,
          num_partitions: int = 16):
    """The k-core of the undirected simple graph under ``edges``:
    the maximal subgraph where every node has degree ≥ ``k`` inside
    the subgraph (the standard web-spam / community-density signal).
    Returns a Dataset ``(node, deg)`` — core members with their
    IN-CORE degrees.

    Peeling, Ray-Data-first: each round is one degree bucket fold over
    the surviving edge set plus one edge filter (the survivor set
    joined to both endpoints by :func:`~.fold.join`, broadcast when
    ≤ ``broadcast_limit``, co-partitioned above). All nodes below
    ``k`` drop TOGETHER each round, so rounds = peeling depth, not
    node count — but a path graph still peels O(n/2) rounds, hence
    the loud ``max_rounds`` guard: the SQL mirror (:func:`kcore_sql`)
    unrolls exactly ``max_rounds`` rounds, and a run that hasn't
    reached its fixpoint inside the unroll raises instead of silently disagreeing with its oracle (the CC
    convergence contract). Extra rounds after the fixpoint are the
    identity on both engines, so converging EARLY is always safe.
    """
    from .fold import bucket_fold, join

    if k < 1:
        raise ValueError("k must be >= 1")

    def und_rows(b: pa.Table) -> pa.Table:
        s = np.asarray(b.column(src_col), dtype=np.int64)
        d = np.asarray(b.column(dst_col), dtype=np.int64)
        a = np.minimum(s, d)
        c = np.maximum(s, d)
        keep = a != c
        return pa.table({"a": pa.array(a[keep]), "b": pa.array(c[keep])})

    ed = (bucket_fold(
        edges.map_batches(und_rows, batch_format="pyarrow",
                          batch_size=None),
        ["a", "b"], [(None, "count", "_n")], num_buckets=num_partitions)
        .drop_columns(["_n"]).materialize())

    def deg_rows(b: pa.Table) -> pa.Table:
        both = np.concatenate([np.asarray(b.column("a"), dtype=np.int64),
                               np.asarray(b.column("b"), dtype=np.int64)])
        uniq, cnt = np.unique(both, return_counts=True)
        return pa.table({"node": pa.array(uniq, pa.int64()),
                         "s": pa.array(cnt.astype(np.int64))})

    import ray.data as rd

    n_prev = None
    for _ in range(max_rounds + 1):
        deg = _bucket_fold_sum(
            ed.map_batches(deg_rows, batch_format="pyarrow",
                           batch_size=None),
            num_partitions).materialize()
        live = deg.map_batches(
            lambda b: b.filter(pc.greater_equal(b.column("s"),
                                                pa.scalar(k, pa.int64()))),
            batch_format="pyarrow", batch_size=None).materialize()
        n_live = live.count()
        if n_live == 0:
            return rd.from_arrow(pa.table({
                "node": pa.array([], pa.int64()),
                "deg": pa.array([], pa.int64())}))
        if n_live == n_prev:  # fixpoint: nobody dropped this round
            return live.map_batches(
                lambda b: b.rename_columns(["node", "deg"]),
                batch_format="pyarrow", batch_size=None)
        n_prev = n_live

        # keep the edges whose both endpoints live
        kw = dict(right_on="node", how="inner", n_parts=num_partitions,
                  broadcast_limit=broadcast_limit)
        ed = (join(join(ed, live, on="a", **kw), live, on="b", **kw)
              .select_columns(["a", "b"]).materialize())
    raise RuntimeError(
        f"kcore(k={k}) did not reach its fixpoint in {max_rounds} "
        "peeling rounds; raise max_rounds (the SQL mirror unrolls the "
        "same count, so both engines move together)")


def kcore_sql(edges_sql: str, k: int, *, max_rounds: int = 8) -> str:
    """SQL oracle for :func:`kcore`, GENERATED with the same unroll
    depth: ``max_rounds`` peeling rounds as chained CTEs (rounds after
    the fixpoint are the identity). Emits (node, deg) of the k-core.

    Every CTE is ``AS MATERIALIZED``: each round references the
    previous round's node set twice, and an engine that INLINES CTEs
    (DuckDB does by default) would re-expand the whole chain per
    reference — 2^rounds subtrees, measured as an indefinite hang at 8
    rounds vs 0.05 s materialized."""
    parts = [
        f"e0 AS MATERIALIZED (SELECT DISTINCT least(src, dst) AS a,"
        f" greatest(src, dst) AS b FROM ({edges_sql}) WHERE src <> dst)",
    ]
    for r in range(1, max_rounds + 1):
        p = r - 1
        parts.append(
            f"d{r} AS MATERIALIZED (SELECT node,"
            f" CAST(count(*) AS BIGINT) AS deg FROM"
            f" (SELECT a AS node FROM e{p} UNION ALL"
            f" SELECT b AS node FROM e{p}) GROUP BY node)")
        parts.append(
            f"n{r} AS MATERIALIZED (SELECT node, deg FROM d{r}"
            f" WHERE deg >= {int(k)})")
        parts.append(
            f"e{r} AS MATERIALIZED (SELECT a, b FROM e{p}"
            f" WHERE a IN (SELECT node FROM n{r})"
            f" AND b IN (SELECT node FROM n{r}))")
    return ("WITH " + ",\n".join(parts)
            + f"\nSELECT node, deg FROM n{max_rounds} ORDER BY node")


def bfs_distances(edges, sources, *, max_hops: int = 4,
                  directed: bool = True, src_col: str = "src",
                  dst_col: str = "dst", num_partitions: int = 16):
    """Multi-source BFS hop distances: every node reachable from any
    node in ``sources`` within ``max_hops`` edge traversals, with its
    minimum hop count — the crawl-frontier / seed-expansion primitive
    (how many clicks from a trusted seed is this page?).

    Frontier-parallel, Ray-Data-first: each round broadcasts the
    current frontier (``ray.put`` of a sorted int64 array) and streams
    the edge Dataset once through ``map_batches`` — a batch emits the
    per-batch-distinct successors of frontier members, so the exchange
    per round is bounded by the NEW frontier, never the edge count.
    Successor rows are made globally distinct with a bucket fold before
    the driver sees them. The distance table itself is driver-held
    (visited array, 16 B/node) — the same documented contract as
    ``connected_components``' driver backend; for graphs whose reach
    exceeds driver memory, keep ``max_hops`` bounded (the table grows
    with the REACHED set, not the corpus) or mirror
    ``connected_components_ds``'s hash-partitioned label table.

    Rounds run to ``max_hops`` with early exit on an empty frontier;
    the generated oracle (:func:`bfs_sql`) unrolls exactly ``max_hops``
    rounds, and rounds after the fixpoint are the identity on both
    engines, so early convergence is always safe (the kcore contract).

    Returns a Dataset ``(node, dist)``, int64, seeds at dist 0 (seeds
    absent from the edge table are still reported at 0, as in the SQL
    mirror).
    """
    from .fold import bucket_fold

    if max_hops < 0:
        raise ValueError("max_hops must be >= 0")
    seeds = np.unique(np.asarray(list(sources), dtype=np.int64))
    if len(seeds) == 0:
        raise ValueError("sources must be non-empty")

    def dir_rows(b: pa.Table) -> pa.Table:
        s = np.asarray(b.column(src_col), dtype=np.int64)
        d = np.asarray(b.column(dst_col), dtype=np.int64)
        if not directed:
            s, d = np.concatenate([s, d]), np.concatenate([d, s])
        return pa.table({"a": pa.array(s), "b": pa.array(d)})

    ed = (bucket_fold(
        edges.map_batches(dir_rows, batch_format="pyarrow",
                          batch_size=None),
        ["a", "b"], [(None, "count", "_n")], num_buckets=num_partitions)
        .drop_columns(["_n"]).materialize())

    visited = seeds                     # sorted (np.unique sorts)
    dists = np.zeros(len(seeds), dtype=np.int64)
    frontier = seeds
    for r in range(1, max_hops + 1):
        fref = ray.put(frontier)        # sorted by construction

        def succ(b: pa.Table) -> pa.Table:
            fr = ray.get(fref)
            a = np.asarray(b.column("a"), dtype=np.int64)
            d = np.asarray(b.column("b"), dtype=np.int64)
            ia = np.searchsorted(fr, a)
            ia[ia >= len(fr)] = len(fr) - 1
            hit = fr[ia] == a
            return pa.table({"node": pa.array(np.unique(d[hit]))})

        cand = bucket_fold(
            ed.map_batches(succ, batch_format="pyarrow",
                           batch_size=None),
            ["node"], [(None, "count", "_n")],
            num_buckets=num_partitions).drop_columns(["_n"])
        cdf = cand.to_pandas()      # empty Dataset drops its schema
        cnodes = (cdf["node"].to_numpy(dtype=np.int64) if "node" in cdf
                  else np.empty(0, dtype=np.int64))
        new = np.setdiff1d(cnodes, visited, assume_unique=False)
        if len(new) == 0:
            break
        order = np.argsort(np.concatenate([visited, new]), kind="stable")
        dists = np.concatenate([dists,
                                np.full(len(new), r, dtype=np.int64)])
        visited = np.concatenate([visited, new])[order]
        dists = dists[order]
        frontier = np.sort(new)

    import ray.data as rd
    return rd.from_arrow(pa.table({
        "node": pa.array(visited, pa.int64()),
        "dist": pa.array(dists, pa.int64())}))


def bfs_sql(edges_sql: str, sources, *, max_hops: int = 4,
            directed: bool = True) -> str:
    """SQL oracle for :func:`bfs_distances`, GENERATED with the same
    unroll depth: ``max_hops`` relaxation rounds as chained CTEs, each
    ``AS MATERIALIZED`` because round k references round k-1 twice and
    an engine that inlines CTEs (DuckDB by default) would re-expand
    2^rounds subtrees (the measured kcore_sql hang). Rounds after the
    BFS fixpoint are the identity, matching the operator's early exit.
    Emits (node, dist) ordered by node."""
    seeds = sorted({int(s) for s in sources})
    if not seeds:
        raise ValueError("sources must be non-empty")
    e0 = (f"SELECT DISTINCT src, dst FROM ({edges_sql})" if directed else
          f"SELECT DISTINCT src, dst FROM (SELECT src, dst FROM"
          f" ({edges_sql}) UNION ALL SELECT dst AS src, src AS dst FROM"
          f" ({edges_sql}))")
    vals = ", ".join(f"({s})" for s in seeds)
    parts = [
        f"e0 AS MATERIALIZED ({e0})",
        f"d0 AS MATERIALIZED (SELECT CAST(node AS BIGINT) AS node,"
        f" CAST(0 AS BIGINT) AS dist FROM (VALUES {vals}) s(node))",
    ]
    for r in range(1, max_hops + 1):
        p = r - 1
        parts.append(
            f"d{r} AS MATERIALIZED (SELECT node, MIN(dist) AS dist FROM"
            f" (SELECT node, dist FROM d{p} UNION ALL"
            f" SELECT e.dst AS node, f.dist + 1 AS dist FROM d{p} f"
            f" JOIN e0 e ON e.src = f.node WHERE f.dist = {p})"
            f" GROUP BY node)")
    return ("WITH " + ",\n".join(parts)
            + f"\nSELECT node, dist FROM d{max_hops} ORDER BY node")

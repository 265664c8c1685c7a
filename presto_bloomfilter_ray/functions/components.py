"""Distributed connected components via iterative min-label propagation.

The scale path for near-dup clustering (MinHash/SimHash candidate
graphs): edges stay a distributed Dataset; the label table (one row per
CANDIDATE node — small by construction, since only docs sharing an LSH
bucket appear) is broadcast via ``ray.put`` each round. Every round,
each edge emits the smaller endpoint label to the larger endpoint
(vectorized searchsorted lookup per batch), the per-batch proposals are
min-folded map-side, and the driver folds the (node-bounded) partial
min tables into the labels. Rounds = graph diameter (LSH hub edges keep
near-dup clusters shallow). Convergence is exact: labels are monotone
non-increasing, so an unchanged label table is a fixpoint.

Why no shuffle per round: the label table already lives on the driver
(that's the stated memory contract, ~16 B per candidate node, fine to
~10^8 nodes), so folding per-batch min-proposals there costs the same
memory class as the broadcast — and replaces one all-to-all ``groupby``
PER ROUND with a plain map stage.

Note on joins: the label lookup is a broadcast + ``searchsorted``,
not the package's keyed join (:func:`~.fold.join`), for its own
reason: each round's labels already sit on the driver as sorted numpy
arrays (the memory contract above), so one ``ray.put`` of them is the
whole attach; a keyed join would first turn them back into a Dataset
and then attach once per edge endpoint.

For graphs whose NODE SET outgrows driver memory entirely (extreme
near-duplication at 10^10+ docs), :func:`connected_components_ds`
keeps the label table a hash-partitioned **Dataset** end to end —
per-round label attach runs as :func:`~.fold.co_attach` exchanges,
and convergence is a tiny changed-count aggregate. Four count-sized
exchanges per round (three attaches and a pointer jump) vs zero for
the broadcast path, so it's the opt-in for when the contract above no
longer holds, not the default.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .fold import bucket_fold, co_attach, exchange_width


def _fold_pairs(n: np.ndarray, l: np.ndarray):
    """Min-fold (node, label) pairs → sorted distinct nodes, min labels."""
    order = np.argsort(n, kind="stable")
    n, l = n[order], l[order]
    first = np.ones(len(n), dtype=bool)
    if len(n) > 1:
        first[1:] = np.diff(n) != 0
    lab = np.minimum.reduceat(l, np.flatnonzero(first)) if len(n) else l
    return n[first], lab


def _fold_batches(batches):
    """Min-fold (node, label) pyarrow batches into two sorted arrays."""
    nodes_parts, label_parts = [], []
    for b in batches:
        nodes_parts.append(np.asarray(b.column("node")))
        label_parts.append(np.asarray(b.column("label")))
    if not nodes_parts:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    return _fold_pairs(np.concatenate(nodes_parts).astype(np.int64),
                       np.concatenate(label_parts).astype(np.int64))


def _propose(a: np.ndarray, b: np.ndarray, m: np.ndarray) -> pa.Table:
    """Each edge proposes label ``m`` to both endpoints; min-folded."""
    n, lab = _fold_pairs(np.concatenate([a, b]).astype(np.int64),
                         np.concatenate([m, m]))
    return pa.table({"node": pa.array(n), "label": pa.array(lab)})


def _propose0(batch: pa.Table) -> pa.Table:
    """Round 0 fused with node discovery: with labels initialized to
    node ids, the first proposal for each endpoint is min(a, b)."""
    a = np.asarray(batch.column("a")).astype(np.int64)
    b = np.asarray(batch.column("b")).astype(np.int64)
    return _propose(a, b, np.minimum(a, b))


def connected_components(edges, max_iters: int = 50):
    """``edges``: Dataset or pandas DataFrame with int64 columns
    ``a``/``b`` (other columns are ignored) → pandas DataFrame (node,
    component), component = min node id of the component. A
    materialized Dataset is read as is, with no extra execution."""
    import pandas as pd

    import ray.data as rd
    from ray.data.dataset import MaterializedDataset
    if isinstance(edges, pd.DataFrame):
        edges = rd.from_pandas(edges[["a", "b"]].astype("int64"))
    elif not isinstance(edges, MaterializedDataset):
        edges = edges.materialize()

    # round 0: map-side fold per batch, driver fold across batches
    nodes, labels = _fold_batches(
        edges.map_batches(_propose0, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow"))

    converged = False
    for _ in range(max_iters):
        ref = ray.put((nodes, labels))

        def propose(batch: pa.Table) -> pa.Table:
            nd, lb = ray.get(ref)
            a = np.asarray(batch.column("a"))
            b = np.asarray(batch.column("b"))
            return _propose(a, b, np.minimum(lb[np.searchsorted(nd, a)],
                                             lb[np.searchsorted(nd, b)]))

        pn, pl = _fold_batches(edges.map_batches(
            propose, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow"))
        new_labels = labels.copy()
        idx = np.searchsorted(nodes, pn)
        np.minimum.at(new_labels, idx, pl)
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        # pointer jumping (label <- label(label)): label distance to
        # the component min halves per round, so path-shaped graphs
        # converge in O(log diameter) rounds instead of O(diameter).
        # Labels are always ids of component members, so the fixpoint
        # is unchanged; rounds here are driver-cheap (one searchsorted)
        labels = np.minimum(labels, labels[np.searchsorted(nodes, labels)])
    if not converged:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds; "
            "raise max_iters")
    return pd.DataFrame({"node": nodes, "component": labels})


def connected_components_ds(edges, max_iters: int = 50, n_parts: int = 64):
    """Fully distributed min-label propagation: the label table is a
    hash-partitioned **Dataset** for graphs whose node set outgrows
    driver memory — nothing but a per-round changed-count scalar ever
    reaches the driver.

    ``edges``: Dataset with int64 columns ``a``/``b`` → Dataset
    ``(node, component)``, component = min node id of the component.

    Topology per round: each step is one :func:`~.fold.co_attach` of
    the label table to rows keyed by a node id, each fused with the
    step's own per-partition work (a :func:`~.fold.join` would need
    a separate map after it):

    1. attach ``label(a)`` to each edge in the ``a & mask`` partition,
       re-key the edge by ``b``;
    2. attach ``label(b)`` in the ``b & mask`` partition and emit
       min-folded proposals ``(node, min(la, lb))`` for both endpoints;
    3. fold proposals into the labels in the ``node & mask`` partition,
       emitting a ``changed`` flag per node; ``sum(changed) == 0`` is
       the exact fixpoint test (labels are monotone non-increasing);
    4. one more exchange applies pointer jumping —
       ``label(n) ← label(label(n))`` — so label distance to the
       component minimum roughly HALVES per round:
       O(log diameter) rounds on path-shaped graphs instead of
       O(diameter), at one extra shuffle per round. Labels stay ids of
       component members (label(n) is a member; its label is a member
       of the same component), so the fixpoint is unchanged — and at
       the propagation fixpoint labels are component-constant, making
       the shortcut the identity; breaking on ``changed == 0`` before
       the shortcut stays exact.

    Every exchange is sized from the edge count (one partition per
    ``fold.ROWS_PER_PART`` edges, PERF §15/§57); ``n_parts`` stays the
    upper bound, the scale knob to raise with cluster size.
    """
    import ray.data as rd

    def _sever(mat):
        """Rebuild a Dataset from its materialized block refs. An
        iterative pipeline accumulates DatasetStats lineage ACROSS
        materialize() calls (stats.parents chains every prior round's
        operators); ~30 rounds overflow the recursion limit when stats
        summarize. Re-wrapping the refs is zero-copy and resets the
        lineage each round."""
        return rd.from_arrow_refs(mat.to_arrow_refs())

    edges = _sever(edges.select_columns(["a", "b"]).materialize())
    n_edges = edges.count()
    if n_edges == 0:
        import pandas as pd

        return rd.from_pandas(pd.DataFrame(
            {"node": pd.Series([], dtype="int64"),
             "component": pd.Series([], dtype="int64")}))
    n_parts = exchange_width(n_edges, n_parts)

    labels = _sever(bucket_fold(
        edges.map_batches(_propose0, batch_format="pyarrow"),
        ["node"], [("label", "min", "label")],
        num_buckets=n_parts).materialize())

    # every exchange attaches the current label table (the left side,
    # sorted by node; `labels` is rebound each round) to rows keyed by
    # some node id
    i64 = pa.int64()
    lab_schema = [("node", i64), ("label", i64)]

    def attach(right, fn, right_key, right_schema):
        return co_attach(labels, right, fn, left_key="node",
                         right_key=right_key, n_parts=n_parts,
                         left_schema=lab_schema, right_schema=right_schema)

    def label_of(lab: pa.Table, keys: np.ndarray) -> np.ndarray:
        return np.asarray(lab.column("label"))[
            np.searchsorted(np.asarray(lab.column("node")), keys)]

    def attach_a(lab: pa.Table, e: pa.Table) -> pa.Table:
        a = np.asarray(e.column("a"))
        # re-keyed by b; "label" is label(a)
        return pa.table({"b": e.column("b"), "a": e.column("a"),
                         "label": pa.array(label_of(lab, a), i64)})

    def attach_b_propose(lab: pa.Table, e: pa.Table) -> pa.Table:
        b = np.asarray(e.column("b"))
        return _propose(np.asarray(e.column("a")), b, np.minimum(
            np.asarray(e.column("label")), label_of(lab, b)))

    def fold_update(lab: pa.Table, prop: pa.Table) -> pa.Table:
        lk = np.asarray(lab.column("node"))
        lv = np.asarray(lab.column("label"))
        pn, pl = _fold_pairs(np.asarray(prop.column("node")),
                             np.asarray(prop.column("label")))
        out_lab = lv.copy()
        idx = np.searchsorted(lk, pn)
        np.minimum.at(out_lab, idx, pl)
        return pa.table({"node": pa.array(lk, i64),
                         "label": pa.array(out_lab, i64),
                         "changed": pa.array((out_lab < lv).astype(np.int64))})

    def jump(lab: pa.Table, req: pa.Table) -> pa.Table:
        # requests are keyed by the CURRENT label, so each lands where
        # that label's own label row lives: label(label(n)) <= label(n)
        return pa.table({"node": req.column("node"),
                         "label": pa.array(
                             label_of(lab, np.asarray(req.column("label"))),
                             i64)})

    converged = False
    for _ in range(max_iters):
        phase1 = attach(edges, attach_a, "a", [("a", i64), ("b", i64)])
        proposals = attach(phase1, attach_b_propose, "b",
                           [("b", i64), ("a", i64), ("label", i64)])
        updated = attach(proposals, fold_update, "node",
                         lab_schema).materialize()
        n_changed = updated.sum("changed")
        labels = _sever(updated.select_columns(["node", "label"]).materialize())
        if not n_changed:
            converged = True
            break
        labels = _sever(attach(labels, jump, "label",
                               lab_schema).materialize())
    if not converged:
        # silent truncation would return WRONG components (e.g. a
        # chain longer than 2**max_iters); fail loudly
        raise RuntimeError(
            f"connected_components_ds did not converge in {max_iters} "
            "rounds; raise max_iters (label distance halves per round, "
            "so about log2(diameter) rounds suffice)")
    return labels.map_batches(
        lambda b: pa.table({"node": b.column("node"),
                            "component": b.column("label")}),
        batch_format="pyarrow")

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
PER ROUND with a plain map stage. For edge sets too large even for
per-batch folding, ``shuffle_rounds=True`` restores the
``groupby(node).min`` exchange per round.

Note on ``Dataset.join``: Ray 2.49's hash-join chokes on the empty
schema-less blocks its own hash aggregate emits for empty partitions
(map operators pass empty blocks through without calling the UDF), so
the label lookup is deliberately broadcast + searchsorted instead.

For graphs whose NODE SET outgrows driver memory entirely (extreme
near-duplication at 10^10+ docs), :func:`connected_components_ds`
keeps the label table a hash-partitioned **Dataset** end to end —
per-round label attach runs as co-partitioned union + ``map_groups``
(the same topology as dedup's ``_verify_pairs``), and convergence is
a tiny changed-count aggregate. 3 sort-shuffles per round vs zero for
the broadcast path, so it's the opt-in for when the contract above no
longer holds, not the default.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from .fold import bucket_fold, exchange_width


def _fold_batches(batches):
    """Min-fold (node, label) pyarrow batches into two sorted arrays."""
    nodes_parts, label_parts = [], []
    for b in batches:
        nodes_parts.append(np.asarray(b.column("node")))
        label_parts.append(np.asarray(b.column("label")))
    if not nodes_parts:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    n = np.concatenate(nodes_parts).astype(np.int64)
    l = np.concatenate(label_parts).astype(np.int64)
    order = np.argsort(n, kind="stable")
    n, l = n[order], l[order]
    first = np.ones(len(n), dtype=bool)
    if len(n) > 1:
        first[1:] = np.diff(n) != 0
    out_n = n[first]
    out_l = np.minimum.reduceat(l, np.flatnonzero(first)) if len(n) else l
    return out_n, out_l


def connected_components(edges, max_iters: int = 50,
                         shuffle_rounds: bool = False):
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

    # round 0 fused with node discovery: with labels initialized to node
    # ids, the first propagation's proposal for each endpoint is simply
    # min(a, b) — map-side fold per batch, driver fold across batches.
    def propose0(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("a")).astype(np.int64)
        b = np.asarray(batch.column("b")).astype(np.int64)
        m = np.minimum(a, b)
        n = np.concatenate([a, b])
        l = np.concatenate([m, m])
        order = np.argsort(n, kind="stable")
        n, l = n[order], l[order]
        first = np.ones(len(n), dtype=bool)
        if len(n) > 1:
            first[1:] = np.diff(n) != 0
        lab = np.minimum.reduceat(l, np.flatnonzero(first)) if len(n) else l
        return pa.table({"node": pa.array(n[first]), "label": pa.array(lab)})

    p0 = edges.map_batches(propose0, batch_format="pyarrow")
    if shuffle_rounds:
        df0 = bucket_fold(p0, ["node"],
                          [("label", "min", "label")]).to_pandas()
        order = np.argsort(df0["node"].to_numpy())
        nodes = df0["node"].to_numpy().astype(np.int64)[order]
        labels = df0["label"].to_numpy().astype(np.int64)[order]
    else:
        nodes, labels = _fold_batches(p0.iter_batches(batch_format="pyarrow"))

    converged = False
    for _ in range(max_iters):
        ref = ray.put((nodes, labels))

        def propose(batch: pa.Table) -> pa.Table:
            nd, lb = ray.get(ref)
            a = np.asarray(batch.column("a"))
            b = np.asarray(batch.column("b"))
            la = lb[np.searchsorted(nd, a)]
            lbb = lb[np.searchsorted(nd, b)]
            m = np.minimum(la, lbb)
            n = np.concatenate([a, b]).astype(np.int64)
            l = np.concatenate([m, m])
            order = np.argsort(n, kind="stable")
            n, l = n[order], l[order]
            first = np.ones(len(n), dtype=bool)
            if len(n) > 1:
                first[1:] = np.diff(n) != 0
            lab = np.minimum.reduceat(l, np.flatnonzero(first)) if len(n) else l
            return pa.table({"node": pa.array(n[first]), "label": pa.array(lab)})

        prop = edges.map_batches(propose, batch_format="pyarrow")
        if shuffle_rounds:
            pdf = bucket_fold(prop, ["node"],
                              [("label", "min", "label")]).to_pandas()
            pn = pdf["node"].to_numpy().astype(np.int64)
            pl = pdf["label"].to_numpy().astype(np.int64)
        else:
            pn, pl = _fold_batches(prop.iter_batches(batch_format="pyarrow"))
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


def connected_components_ds(edges, max_iters: int = 50, n_parts: int = 64,
                            shortcut: bool = True):
    """Fully distributed min-label propagation: the label table is a
    hash-partitioned **Dataset** for graphs whose node set outgrows
    driver memory — nothing but a per-round changed-count scalar ever
    reaches the driver.

    ``edges``: Dataset with int64 columns ``a``/``b`` → Dataset
    ``(node, component)``, component = min node id of the component.

    Topology per round (same co-partitioned union + ``map_groups``
    pattern as dedup's ``_verify_pairs``; ``Dataset.join`` avoided for
    the reason in the module docstring):

    1. attach ``label(a)`` to each edge in the ``a & mask`` partition,
       re-key the edge by ``b``;
    2. attach ``label(b)`` in the ``b & mask`` partition and emit
       min-folded proposals ``(node, min(la, lb))`` for both endpoints;
    3. fold proposals into the labels in the ``node & mask`` partition,
       emitting a ``changed`` flag per node; ``sum(changed) == 0`` is
       the exact fixpoint test (labels are monotone non-increasing);
    4. with ``shortcut=True`` (default), one more exchange applies
       pointer jumping — ``label(n) ← label(label(n))`` — so label
       distance to the component minimum roughly HALVES per round:
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
    mask = np.int64(n_parts - 1)

    def _fold_pairs(n: np.ndarray, l: np.ndarray):
        """Min-fold (node, label) pairs → distinct nodes, min labels."""
        order = np.argsort(n, kind="stable")
        n, l = n[order], l[order]
        first = np.ones(len(n), dtype=bool)
        if len(n) > 1:
            first[1:] = np.diff(n) != 0
        lab = np.minimum.reduceat(l, np.flatnonzero(first)) if len(n) else l
        return n[first], lab

    # round 0 fused with node discovery (see connected_components)
    def propose0(batch: pa.Table) -> pa.Table:
        a = np.asarray(batch.column("a")).astype(np.int64)
        b = np.asarray(batch.column("b")).astype(np.int64)
        m = np.minimum(a, b)
        n, lab = _fold_pairs(np.concatenate([a, b]), np.concatenate([m, m]))
        return pa.table({"node": pa.array(n), "label": pa.array(lab)})

    labels = _sever(bucket_fold(
        edges.map_batches(propose0, batch_format="pyarrow"),
        ["node"], [("label", "min", "label")],
        num_buckets=n_parts).materialize())

    def label_rows(b: pa.Table) -> pa.Table:
        node = b.column("node").cast(pa.int64())
        return pa.table({
            "key": node,
            "other": pa.nulls(b.num_rows, pa.int64()),
            "lab": b.column("label").cast(pa.int64()),
            "part": pa.compute.bit_wise_and(node, int(mask)),
        })

    def edge_rows(b: pa.Table) -> pa.Table:
        a = b.column("a").cast(pa.int64())
        return pa.table({
            "key": a,
            "other": b.column("b").cast(pa.int64()),
            "lab": pa.nulls(b.num_rows, pa.int64()),
            "part": pa.compute.bit_wise_and(a, int(mask)),
        })

    def _split(g: pa.Table):
        """→ (sorted label keys, labels, non-label rows table)."""
        is_lab = pa.compute.is_null(g.column("other"))
        lab_t = g.filter(is_lab)
        rest = g.filter(pa.compute.invert(is_lab))
        lk = np.asarray(lab_t.column("key"))
        lv = np.asarray(lab_t.column("lab"))
        order = np.argsort(lk)
        return lk[order], lv[order], rest

    def attach_a(g: pa.Table) -> pa.Table:
        lk, lv, et = _split(g)
        if et.num_rows == 0:
            return pa.table({"key": pa.array([], pa.int64()),
                             "other": pa.array([], pa.int64()),
                             "lab": pa.array([], pa.int64()),
                             "part": pa.array([], pa.int64())})
        a = np.asarray(et.column("key")).astype(np.int64)
        b = np.asarray(et.column("other")).astype(np.int64)
        la = lv[np.searchsorted(lk, a)]
        return pa.table({"key": pa.array(b), "other": pa.array(a),
                         "lab": pa.array(la),
                         "part": pa.array(b & mask)})

    def attach_b_propose(g: pa.Table) -> pa.Table:
        lk, lv, et = _split(g)
        if et.num_rows == 0:
            return pa.table({"node": pa.array([], pa.int64()),
                             "lab": pa.array([], pa.int64()),
                             "part": pa.array([], pa.int64())})
        b = np.asarray(et.column("key")).astype(np.int64)
        a = np.asarray(et.column("other")).astype(np.int64)
        la = np.asarray(et.column("lab")).astype(np.int64)
        m = np.minimum(la, lv[np.searchsorted(lk, b)])
        n, lab = _fold_pairs(np.concatenate([a, b]), np.concatenate([m, m]))
        return pa.table({"node": pa.array(n), "lab": pa.array(lab),
                         "part": pa.array(n & mask)})

    def prop_rows(b: pa.Table) -> pa.Table:
        # proposals join the label stream keyed by node; other=-1 marks
        # them as non-label rows for _split
        node = b.column("node").cast(pa.int64())
        return pa.table({
            "key": node,
            "other": pa.compute.multiply(
                pa.compute.cast(pa.compute.is_valid(node), pa.int64()), -1),
            "lab": b.column("lab").cast(pa.int64()),
            "part": b.column("part").cast(pa.int64()),
        })

    def fold_update(g: pa.Table) -> pa.Table:
        lk, lv, pt = _split(g)
        out_lab = lv.copy()
        changed = np.zeros(len(lk), dtype=np.int64)
        if pt.num_rows:
            pn = np.asarray(pt.column("key")).astype(np.int64)
            pl = np.asarray(pt.column("lab")).astype(np.int64)
            pn, pl = _fold_pairs(pn, pl)
            idx = np.searchsorted(lk, pn)
            np.minimum.at(out_lab, idx, pl)
            changed[idx] = (out_lab[idx] < lv[idx]).astype(np.int64)
        return pa.table({"node": pa.array(lk), "label": pa.array(out_lab),
                         "changed": pa.array(changed)})

    def jump_request_rows(b: pa.Table) -> pa.Table:
        # keyed by the CURRENT label so the row lands where that
        # label's own label row lives; `other` carries the node
        lab = b.column("label").cast(pa.int64())
        return pa.table({
            "key": lab,
            "other": b.column("node").cast(pa.int64()),
            "lab": pa.nulls(b.num_rows, pa.int64()),
            "part": pa.compute.bit_wise_and(lab, int(mask)),
        })

    def jump(g: pa.Table) -> pa.Table:
        lk, lv, rt = _split(g)
        if rt.num_rows == 0:
            return pa.table({"node": pa.array([], pa.int64()),
                             "label": pa.array([], pa.int64())})
        nodes = np.asarray(rt.column("other")).astype(np.int64)
        cur = np.asarray(rt.column("key")).astype(np.int64)
        ll = lv[np.searchsorted(lk, cur)]  # label(label(n)) <= label(n)
        return pa.table({"node": pa.array(nodes), "label": pa.array(ll)})

    converged = False
    for _ in range(max_iters):
        lab_stream = labels.map_batches(label_rows, batch_format="pyarrow")
        phase1 = (
            lab_stream.union(edges.map_batches(edge_rows, batch_format="pyarrow"))
            .repartition(n_parts)
            .groupby("part").map_groups(attach_a, batch_format="pyarrow")
        )
        proposals = (
            lab_stream.union(phase1)
            .repartition(n_parts)
            .groupby("part").map_groups(attach_b_propose, batch_format="pyarrow")
        )
        updated = (
            lab_stream.union(proposals.map_batches(prop_rows, batch_format="pyarrow"))
            .repartition(n_parts)
            .groupby("part").map_groups(fold_update, batch_format="pyarrow")
        ).materialize()
        n_changed = updated.sum("changed")
        labels = _sever(updated.select_columns(["node", "label"]).materialize())
        if not n_changed:
            converged = True
            break
        if shortcut:
            lab_stream2 = labels.map_batches(label_rows, batch_format="pyarrow")
            labels = _sever((
                lab_stream2.union(labels.map_batches(jump_request_rows,
                                                     batch_format="pyarrow"))
                .repartition(n_parts)
                .groupby("part").map_groups(jump, batch_format="pyarrow")
            ).materialize())
    if not converged:
        # silent truncation would return WRONG components (a chain of
        # length > max_iters without shortcutting, e.g.); fail loudly
        raise RuntimeError(
            f"connected_components_ds did not converge in {max_iters} "
            "rounds; raise max_iters (or keep shortcut=True — label "
            "distance halves per round, so log2(diameter) rounds suffice)")
    return labels.map_batches(
        lambda b: pa.table({"node": b.column("node"),
                            "component": b.column("label")}),
        batch_format="pyarrow")

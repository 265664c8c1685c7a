"""Count-sized exchange widths (``fold.exchange_width``): the sizing
rule itself, and proof that the width is scheduling only — LSH edges,
MinHash survivors, SimHash pairs, connected-component labels, MinHash
index matches, edit-distance pairs, triangle counts, and the
``fold.exchange`` reduces of bucket_fold, cap_per_key and
grouped_sketch are bit-identical whether an input runs as one
partition or as many. Every exchange is sized from a row count: a
free one, or over a lazy input the count of its materialized map side,
so the graph operators and the edit-distance join run width 1 over a
small lazy input, and prepare_corpus's exchanges are width 1 with or
without free counts. At width 1, LSH pairing with its verification
and exact dedup each run as one pass, with the outputs of the wider
plans."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from presto_bloomfilter_ray.functions import (components, dedup,
                                              dedup_index, editjoin, fold,
                                              graph)
from presto_bloomfilter_ray.functions.fold import _pow2, exchange_width


def test_width_is_one_partition_per_rows_per_part_without_floor():
    assert fold.ROWS_PER_PART == 250_000
    assert exchange_width(0, 64) == 1
    assert exchange_width(249_999, 64) == 1
    assert exchange_width(250_000, 64) == 2
    assert exchange_width(3 * 250_000, 64) == 4  # 4 partitions, rounded up


@pytest.mark.parametrize("cap", [1, 4, 48, 64, 100])
def test_width_never_above_pow2_cap(cap):
    for rows in (0, 1, 10**6, 10**9, 10**12):
        w = exchange_width(rows, cap)
        assert w <= _pow2(cap)
        assert w & (w - 1) == 0  # '& (n - 1)' masks need a power of two


def test_non_pow2_cap_rounds_up():
    assert exchange_width(10**9, 48) == 64


# ------------------------------------------------- width invariance

def _corpus(seed=5):
    """Near-dup families (word substitutions), exact copies, and one
    template of 70 copies — above pair_cutoff, so it pairs as a star."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(400)]
    rows, i = [], 0
    for _ in range(20):
        words = list(rng.choice(vocab, 60))
        for v in range(4):
            w = list(words)
            for pos in rng.choice(60, v, replace=False):
                w[pos] = str(rng.choice(vocab))
            rows.append({"doc_id": i, "text": " ".join(w)})
            i += 1
        rows.append({"doc_id": i, "text": " ".join(words)})
        i += 1
    template = "shared boilerplate footer text for every page " * 8
    for _ in range(70):
        rows.append({"doc_id": i, "text": template})
        i += 1
    return rows


def _spy(monkeypatch, module):
    """Record every width ``module`` asks ``exchange_width`` for."""
    widths = []

    def spy(rows, cap):
        w = fold.exchange_width(rows, cap)
        widths.append(w)
        return w

    monkeypatch.setattr(module, "exchange_width", spy)
    return widths


def _narrow_and_wide(monkeypatch, module, rows, run):
    """``run()`` at the default width (1 here), then again with
    ``ROWS_PER_PART`` lowered so ``rows`` spans 4 partitions."""
    widths = _spy(monkeypatch, module)
    narrow = run()
    assert widths and set(widths) == {1}
    widths.clear()
    monkeypatch.setattr(fold, "ROWS_PER_PART", max(1, rows // 3))
    wide = run()
    assert widths and min(widths) >= 4
    return narrow, wide


def _sorted(df, cols):
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_lsh_pairs_and_survivors_width_invariant(ray_session, monkeypatch):
    import ray.data as rd

    rows = _corpus()
    ds = rd.from_items(rows)
    cols = ["a", "b", "est_jaccard"]

    narrow, wide = _narrow_and_wide(
        monkeypatch, dedup, len(rows) * 32,
        lambda: _sorted(dedup.lsh_candidate_pairs(ds, min_est=0.5)
                        .to_pandas(), cols))
    assert len(narrow) > 0
    pd.testing.assert_frame_equal(narrow, wide)

    def survivors():
        kept, dup_map = dedup.minhash_dedup(ds, threshold=0.8)
        return sorted(r["doc_id"] for r in kept.take_all()), dup_map

    monkeypatch.setattr(fold, "ROWS_PER_PART", 250_000)
    (ids_n, map_n), (ids_w, map_w) = _narrow_and_wide(
        monkeypatch, dedup, len(rows) * 32, survivors)
    assert len(ids_n) < len(rows)
    assert ids_n == ids_w and map_n == map_w


def test_simhash_pairs_width_invariant(ray_session, monkeypatch):
    import ray.data as rd

    rows = _corpus()
    ds = rd.from_items(rows)
    cols = ["a", "b", "hamming"]
    narrow, wide = _narrow_and_wide(
        monkeypatch, dedup, len(rows) * 4,
        lambda: _sorted(dedup.simhash_candidate_pairs(ds).to_pandas(), cols))
    assert len(narrow) > 0
    pd.testing.assert_frame_equal(narrow, wide)


def test_components_ds_labels_width_invariant(ray_session, monkeypatch):
    import ray.data as rd

    rng = np.random.default_rng(2)
    a = rng.integers(0, 300, 400).astype(np.int64)
    b = rng.integers(0, 300, 400).astype(np.int64)
    edges = pd.DataFrame({"a": a[a != b], "b": b[a != b]})
    cols = ["node", "component"]
    narrow, wide = _narrow_and_wide(
        monkeypatch, components, len(edges),
        lambda: _sorted(components.connected_components_ds(
            rd.from_pandas(edges)).to_pandas().astype("int64"), cols))
    ref = _sorted(components.connected_components(edges).astype("int64"), cols)
    pd.testing.assert_frame_equal(narrow, ref)
    pd.testing.assert_frame_equal(narrow, wide)


def test_index_probe_width_invariant(ray_session, monkeypatch, tmp_path):
    import ray.data as rd

    rows = _corpus()
    t = pd.DataFrame(rows)
    idx_dir = str(tmp_path / "idx")
    dedup_index.minhash_index_build(rd.from_pandas(t.iloc[::2]), idx_dir)
    probe = rd.from_pandas(t)
    cols = ["doc_id", "match_id", "est_jaccard"]
    narrow, wide = _narrow_and_wide(
        monkeypatch, dedup_index, len(rows) * 32,
        lambda: _sorted(dedup_index.minhash_index_probe(
            probe, idx_dir, threshold=0.5).to_pandas(), cols))
    assert (narrow["doc_id"] != narrow["match_id"]).any()
    pd.testing.assert_frame_equal(narrow, wide)


def _lazy(df: pd.DataFrame):
    """``df`` as a Dataset whose row count Ray cannot know without
    running it."""
    import ray.data as rd

    ds = rd.from_pandas(df).map_batches(lambda b: b, batch_format="pyarrow")
    assert ds._meta_count() is None
    return ds


def _every_exchange_narrow_and_wide(monkeypatch, run):
    """``run()`` with every ``partition_map`` at width 1, then again
    with ``ROWS_PER_PART`` at 1, so every exchange of at least 2 rows
    spans at least 4 partitions (the callers' caps here are 4)."""
    widths = _all_widths(monkeypatch)
    narrow = run()
    assert widths and set(widths) == {(1, None)}, widths
    widths.clear()
    monkeypatch.setattr(fold, "ROWS_PER_PART", 1)
    wide = run()
    assert widths and min(w for w, _ in widths) >= 4, widths
    return narrow, wide


def test_edit_pairs_width_invariant(ray_session, monkeypatch):
    """The gram count and pairing folds and both verification attaches
    are count-sized over a lazy input."""
    ds = _lazy(pd.DataFrame(_corpus()))
    cols = ["a", "b", "dist"]

    def run():
        pairs, stats = editjoin.edit_distance_pairs(ds, max_dist=2, q=4,
                                                    n_parts=4)
        assert stats["capped_grams"] == 0
        return _sorted(pairs.to_pandas(), cols)

    narrow, wide = _every_exchange_narrow_and_wide(monkeypatch, run)
    assert len(narrow) > 0
    pd.testing.assert_frame_equal(narrow, wide)


def test_triangle_count_width_invariant(ray_session, monkeypatch):
    rng = np.random.default_rng(4)
    edges = _lazy(pd.DataFrame({"src": rng.integers(0, 60, 600),
                                "dst": rng.integers(0, 60, 600)}))
    narrow, wide = _every_exchange_narrow_and_wide(
        monkeypatch, lambda: graph.triangle_count(edges, num_partitions=4))
    assert narrow > 0
    assert narrow == wide


def _graph_edges(seed=11, n=40, m=240):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({"src": rng.integers(0, n, m),
                         "dst": rng.integers(0, n, m)})


_GRAPH_RUNS = {
    "pagerank": lambda e, lim: graph.pagerank(
        e, iters=2, broadcast_limit=lim, num_partitions=4),
    "hits": lambda e, lim: graph.hits(
        e, iters=2, broadcast_limit=lim, num_partitions=4),
    "kcore": lambda e, lim: graph.kcore(
        e, 3, broadcast_limit=lim, num_partitions=4),
    "bfs": lambda e, lim: graph.bfs_distances(
        e, [0, 1], max_hops=2, num_partitions=4),
}


@pytest.mark.parametrize("op,tier_limit", [
    ("pagerank", 2_000_000), ("pagerank", 0), ("hits", 2_000_000),
    ("hits", 0), ("kcore", 2_000_000), ("kcore", 0), ("bfs", None)],
    ids=["pagerank-broadcast", "pagerank-dataset", "hits-broadcast",
         "hits-dataset", "kcore-broadcast", "kcore-sharded", "bfs"])
def test_graph_exchanges_count_sized_over_lazy_input(ray_session, monkeypatch,
                                                     op, tier_limit):
    """Every exchange of the graph operators over a lazy edge input,
    the per-iteration folds and the dataset tier's joins included,
    is count-sized: width 1 on a small graph, at least 4 partitions
    with ``ROWS_PER_PART`` lowered, with equal results."""
    edges = _lazy(_graph_edges())

    def run():
        out = _GRAPH_RUNS[op](edges, tier_limit).to_pandas()
        return _sorted(out.astype("int64"), sorted(out.columns))

    narrow, wide = _every_exchange_narrow_and_wide(monkeypatch, run)
    assert len(narrow) > 0
    pd.testing.assert_frame_equal(narrow, wide)


def _exchange_widths(monkeypatch):
    """Record the ``(width, coalesce)`` of every ``partition_map``
    ``fold.exchange`` runs."""
    widths = []
    original = fold.partition_map

    def spy(ds, fn, *, key, width, coalesce=None):
        widths.append((width, coalesce))
        return original(ds, fn, key=key, width=width, coalesce=coalesce)

    monkeypatch.setattr(fold, "partition_map", spy)
    return widths


def _exchange_narrow_and_wide(monkeypatch, rows, run):
    """``run()`` on an input whose row count Ray knows (so the exchange
    is count-sized to 1 partition), then again with ``ROWS_PER_PART``
    lowered so ``rows`` spans at least 4 partitions."""
    widths = _exchange_widths(monkeypatch)
    narrow = run()
    assert widths and set(widths) == {(1, None)}
    widths.clear()
    monkeypatch.setattr(fold, "ROWS_PER_PART", max(1, rows // 3))
    wide = run()
    assert widths and min(w for w, _ in widths) >= 4
    return narrow, wide


def test_exchange_sized_from_free_count_only(ray_session, monkeypatch):
    """A count Ray knows without running the input sizes the width; a
    lazy input is sized from the count of its materialized map side."""
    import ray.data as rd

    widths = _exchange_widths(monkeypatch)
    t = pd.DataFrame({"k": np.arange(5_000) % 300, "v": np.ones(5_000, int)})
    free = rd.from_pandas([t.iloc[:2_000], t.iloc[2_000:]])
    lazy = free.map_batches(lambda b: b, batch_format="pyarrow")
    assert free._meta_count() == 5_000 and lazy._meta_count() is None
    got = [_sorted(fold.bucket_fold(ds, ["k"], [("v", "sum", "s")])
                   .to_pandas(), ["k", "s"]) for ds in (free, lazy)]
    assert widths == [(1, None), (1, None)]
    pd.testing.assert_frame_equal(got[0], got[1])


def test_bucket_fold_width_invariant(ray_session, monkeypatch):
    import ray.data as rd

    rng = np.random.default_rng(6)
    n = 3000
    t = pd.DataFrame({"k": rng.integers(0, 500, n), "k2": rng.integers(0, 3, n),
                      "v": rng.integers(-50, 50, n)})
    cols = ["k", "k2", "s", "mn", "n"]
    narrow, wide = _exchange_narrow_and_wide(
        monkeypatch, n,
        lambda: _sorted(fold.bucket_fold(
            rd.from_pandas(t), ["k", "k2"],
            [("v", "sum", "s"), ("v", "min", "mn"), (None, "count", "n")])
            .to_pandas(), cols))
    ref = (t.groupby(["k", "k2"]).agg(s=("v", "sum"), mn=("v", "min"),
                                      n=("v", "size")).reset_index())
    pd.testing.assert_frame_equal(narrow, _sorted(ref, cols), check_dtype=False)
    pd.testing.assert_frame_equal(narrow, wide)


def test_cap_per_key_width_invariant(ray_session, monkeypatch):
    import ray.data as rd

    rng = np.random.default_rng(7)
    n = 4000
    hosts = np.minimum(rng.zipf(1.3, n), 300)  # a few hot hosts
    t = pd.DataFrame({"host": [f"h{h}" for h in hosts],
                      "doc_id": rng.permutation(n)})
    cols = ["host", "doc_id"]
    narrow, wide = _exchange_narrow_and_wide(
        monkeypatch, n,
        lambda: _sorted(dedup.cap_per_key(rd.from_pandas(t), "host",
                                          "doc_id", k=5).to_pandas(), cols))
    ref = _sorted(t.sort_values("doc_id").groupby("host").head(5), cols)
    pd.testing.assert_frame_equal(narrow, ref)
    pd.testing.assert_frame_equal(narrow, wide)


def test_grouped_sketch_width_invariant(ray_session, monkeypatch):
    import ray.data as rd

    from presto_bloomfilter_ray import HyperLogLog
    from presto_bloomfilter_ray.engine import grouped_sketch

    rng = np.random.default_rng(8)
    n = 3000
    langs = np.minimum(rng.zipf(1.5, n), 20)
    t = pd.DataFrame({"lang": [f"l{x}" for x in langs],
                      "url": [f"u{x}" for x in rng.integers(0, 2000, n)]})

    def run():
        g = grouped_sketch(rd.from_pandas(t), key="lang", col="url",
                           factory=lambda: HyperLogLog(10))
        return _sorted(g.to_pandas(), ["lang", "sketch"])

    narrow, wide = _exchange_narrow_and_wide(monkeypatch, n, run)
    assert len(narrow) == t["lang"].nunique()
    pd.testing.assert_frame_equal(narrow, wide)


# ------------------------------------------- pre keeps the free count

def _hoster():
    """A per-block map deriving a key column, as prepare's host cap
    (built in a closure so workers get it by value)."""
    def host(b):
        import pyarrow as pa

        return b.append_column("h", pa.array(
            [f"h{i % 37}" for i in b.column("doc_id").to_pylist()]))

    return host


def test_bucket_fold_pre_equals_mapped_input(ray_session, monkeypatch):
    import ray.data as rd

    widths = _exchange_widths(monkeypatch)
    t = pd.DataFrame({"doc_id": np.arange(3_000), "v": np.arange(3_000) % 7})
    ds = rd.from_pandas([t.iloc[:1_000], t.iloc[1_000:]])
    cols = ["h", "s", "n"]
    _host = _hoster()
    aggs = [("v", "sum", "s"), (None, "count", "n")]
    got = _sorted(fold.bucket_fold(ds, ["h"], aggs, pre=_host).to_pandas(),
                  cols)
    ref = _sorted(fold.bucket_fold(ds.map_batches(_host, batch_format="pyarrow"),
                                   ["h"], aggs).to_pandas(), cols)
    pd.testing.assert_frame_equal(got, ref)
    assert len(got) == 37
    # pre keeps the free count; the mapped input is counted after its
    # map side: both count-sized
    assert widths == [(1, None), (1, None)]


def test_cap_per_key_pre_equals_mapped_input(ray_session, monkeypatch):
    import ray.data as rd

    widths = _exchange_widths(monkeypatch)
    rng = np.random.default_rng(9)
    t = pd.DataFrame({"doc_id": rng.permutation(3_000)})
    ds = rd.from_pandas([t.iloc[:1_000], t.iloc[1_000:]])
    cols = ["doc_id", "h"]
    _host = _hoster()
    got = _sorted(dedup.cap_per_key(ds, "h", "doc_id", 4, pre=_host)
                  .to_pandas(), cols)
    ref = _sorted(dedup.cap_per_key(
        ds.map_batches(_host, batch_format="pyarrow"), "h", "doc_id", 4)
        .to_pandas(), cols)
    pd.testing.assert_frame_equal(got, ref)
    assert len(got) == 37 * 4
    assert widths == [(1, None), (1, None)]


def _all_widths(monkeypatch):
    """Record the ``(width, coalesce)`` of every ``partition_map`` any
    functions module runs, ``fold.exchange`` and ``co_attach`` included."""
    import sys

    widths = []
    original = fold.partition_map

    def spy(ds, fn, *, key, width, coalesce=None):
        widths.append((_pow2(width), coalesce))
        return original(ds, fn, key=key, width=width, coalesce=coalesce)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("presto_bloomfilter_ray.")
                and getattr(mod, "partition_map", None) is original):
            monkeypatch.setattr(mod, "partition_map", spy)
    return widths


def _prepare_ids(tmp_path):
    import ray.data as rd

    from presto_bloomfilter_ray.pipelines import prepare_corpus

    t = pd.DataFrame(_corpus())
    t["url"] = [f"https://h{i % 6}.example.com/p/{i}" for i in t["doc_id"]]
    ds = rd.from_pandas([t.iloc[:60], t.iloc[60:]])
    out, metrics = prepare_corpus(
        ds, id_col="doc_id", text_col="text", url_col="url",
        blocked_hosts=["h5.example.com"], host_cap=4,
        work_dir=str(tmp_path))
    ids = sorted(out.to_pandas()["doc_id"])
    return ids, [m["rows"] for m in metrics]


def test_prepare_exchanges_width_one_same_survivors(ray_session, monkeypatch,
                                                    tmp_path):
    """Over a small input every exchange of prepare_corpus runs at
    width 1 (sort-free), and still does, with the same survivors, when
    Ray knows no free count (each exchange counts its map side)."""
    from ray.data import Dataset

    widths = _all_widths(monkeypatch)
    ids, rows = _prepare_ids(tmp_path / "a")
    assert widths and set(widths) == {(1, None)}, widths
    widths.clear()
    monkeypatch.setattr(Dataset, "_meta_count", lambda self: None)
    lazy_ids, lazy_rows = _prepare_ids(tmp_path / "b")
    assert widths and set(widths) == {(1, None)}, widths
    assert ids == lazy_ids and rows == lazy_rows
    # each exchange stage (exact, near, host cap) removes rows
    assert rows[1] > rows[2] > rows[3] > rows[4], rows


# --------------------------------------- fused width-1 dedup stages

def _plan_ops(ds):
    """Names of every logical operator in ``ds``'s plan."""
    def walk(op):
        yield type(op).__name__
        for dep in op.input_dependencies:
            yield from walk(dep)
    return list(walk(ds._logical_plan.dag))


def test_lsh_width_one_is_one_pass(ray_session, monkeypatch):
    """At width 1, pairing, screen and estimate are one map over one
    block of the signature table: one Repartition, no Union, no Sort.
    Wider, the pairing exchange and both verification co_attaches
    keep their sorts."""
    import ray.data as rd

    rows = _corpus()
    ds = rd.from_items(rows)
    ops = _plan_ops(dedup.lsh_candidate_pairs(ds, min_est=0.5))
    assert ops.count("Repartition") == 1, ops
    assert "Union" not in ops and "Sort" not in ops, ops
    monkeypatch.setattr(fold, "ROWS_PER_PART", len(rows) * 32 // 3)
    wide = _plan_ops(dedup.lsh_candidate_pairs(ds, min_est=0.5))
    assert wide.count("Sort") == 3 and wide.count("Union") == 2, wide


def test_minhash_join_width_invariant(ray_session, monkeypatch):
    import ray.data as rd

    t = pd.DataFrame(_corpus())
    a_ds = rd.from_pandas(t.iloc[::2])
    b_ds = rd.from_pandas(t.iloc[1::2])
    cols = ["a_id", "b_id", "est_jaccard"]
    narrow, wide = _narrow_and_wide(
        monkeypatch, dedup, len(t) * 32,
        lambda: _sorted(dedup.minhash_join(a_ds, b_ds, threshold=0.5)
                        .to_pandas(), cols))
    assert len(narrow) > 0
    assert set(narrow["a_id"]) <= set(t["doc_id"].iloc[::2])
    pd.testing.assert_frame_equal(narrow, wide)


def _keyset_builds(monkeypatch):
    """Record the ``broadcast_limit`` of every ``KeySet.build``."""
    from presto_bloomfilter_ray.functions.keyset import KeySet

    limits = []
    original = KeySet.build.__func__

    def spy(cls, *args, **kwargs):
        limits.append(kwargs["broadcast_limit"])
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(KeySet, "build", classmethod(spy))
    return limits


def _exact_inputs():
    """Text groups whose min id is duplicated (both copies survive),
    empty and NULL texts (one group each), all duplicates, and empty."""
    return {
        "dup_ids": pd.DataFrame({
            "doc_id": [5, 3, 3, 7, 1, 9, 3, 6, 8, 4, 4, 2],
            "text": ["a b", "A  b", "a b", "c", "C", "d", "d", "x",
                     "y", "y", "y", "q\tr"]}),
        "empty_and_null": pd.DataFrame({
            "doc_id": [4, 1, 7, 2, 9, 3, 8],
            "text": ["", None, "", None, "  ", "z", None]}),
        "all_dups": pd.DataFrame({"doc_id": np.arange(40)[::-1],
                                  "text": ["same text"] * 40}),
        "empty": pa.table({"doc_id": pa.array([], pa.int64()),
                           "text": pa.array([], pa.string())}),
    }


@pytest.mark.parametrize("case", list(_exact_inputs()))
def test_exact_dedup_single_pass_equals_keyset_plan(ray_session, monkeypatch,
                                                    case):
    """The single-pass exact dedup keeps the rows the bucket_fold +
    KeySet plan keeps (forced by hiding the free count), ties on a
    duplicated min id included."""
    import ray.data as rd
    from ray.data import Dataset

    t = _exact_inputs()[case]
    if isinstance(t, pd.DataFrame):
        t = pa.Table.from_pandas(t, preserve_index=False).cast(pa.schema(
            [("doc_id", pa.int64()), ("text", pa.string())]))
    half = t.num_rows // 2
    ds = rd.from_arrow([t.slice(0, half), t.slice(half)])
    limits = _keyset_builds(monkeypatch)

    def kept():
        out = dedup.exact_dedup(ds).to_pandas()
        return sorted(out["doc_id"]) if len(out) else []

    one = kept()
    assert limits == []  # no keep-map: one pass
    monkeypatch.setattr(Dataset, "_meta_count", lambda self: None)
    wide = kept()
    assert one == wide
    expected = {"dup_ids": [1, 2, 3, 3, 3, 4, 4, 6],
                "empty_and_null": [1, 3, 4, 9],
                "all_dups": [0], "empty": []}[case]
    assert one == expected


def test_exact_dedup_gates_keep_the_keyset_plan(ray_session, monkeypatch,
                                               tmp_path):
    """broadcast_limit=0 (the sharded set) and an input above one
    block's bytes still build the KeySet, with the same survivors."""
    import ray.data as rd
    from ray.data import DataContext

    t = pd.DataFrame({"doc_id": np.arange(300),
                      "text": [f"t{i % 40}" for i in range(300)]})
    ds = rd.from_pandas([t.iloc[:150], t.iloc[150:]])
    limits = _keyset_builds(monkeypatch)
    ref = sorted(dedup.exact_dedup(ds).to_pandas()["doc_id"])
    assert ref == list(range(40)) and limits == []
    sharded = sorted(dedup.exact_dedup(
        ds, broadcast_limit=0, work_dir=str(tmp_path)).to_pandas()["doc_id"])
    assert limits == [0] and sharded == ref
    limits.clear()
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size",
                        1024)
    small_blocks = sorted(dedup.exact_dedup(ds).to_pandas()["doc_id"])
    assert limits == [2_000_000] and small_blocks == ref


def test_exact_dedup_single_pass_keeps_block_count(ray_session, monkeypatch):
    """The single pass gathers its input into one block and splits the
    survivors back into the input's block count, so the stages after it
    run as many tasks as on the KeySet plan's output."""
    import ray.data as rd

    t = pd.DataFrame({"doc_id": np.arange(300),
                      "text": [f"t{i % 40}" for i in range(300)]})
    ds = rd.from_pandas([t.iloc[i * 100:(i + 1) * 100] for i in range(3)])
    limits = _keyset_builds(monkeypatch)
    out = dedup.exact_dedup(ds).materialize()
    assert limits == [] and out.num_blocks() == 3
    assert sorted(out.to_pandas()["doc_id"]) == list(range(40))
    one = dedup.exact_dedup(rd.from_pandas(t)).materialize()
    assert limits == [] and one.num_blocks() == 1


# --------------------------------- projections ride as pre, not a map

def test_skew_report_and_drift_count_sized(ray_session, monkeypatch):
    """skew_report and categorical_drift project their input inside the
    fold (``pre``), so a free count sizes the fold to width 1; without
    free counts each fold counts its map side, also width 1, with the
    same results."""
    import ray.data as rd
    from ray.data import Dataset

    from presto_bloomfilter_ray.functions import categorical_drift, skew_report

    rng = np.random.default_rng(12)
    n = 4_000
    t = pd.DataFrame({"k": rng.zipf(1.4, n) % 200, "c": rng.integers(0, 5, n),
                      "junk": rng.random(n)})
    a = rd.from_pandas([t.iloc[:2_000], t.iloc[2_000:]])
    b = rd.from_pandas(t.iloc[::3])
    widths = _exchange_widths(monkeypatch)

    def run():
        report, tops = skew_report(a, "k", top_k=5)
        return report, tops, categorical_drift(a, b, "k", "c")

    free = run()
    assert widths == [(1, None)] * 3, widths
    widths.clear()
    monkeypatch.setattr(Dataset, "_meta_count", lambda self: None)
    counted = run()
    assert widths == [(1, None)] * 3, widths
    for x, y in zip(free, counted):
        pd.testing.assert_frame_equal(x, y)

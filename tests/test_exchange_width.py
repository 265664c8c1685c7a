"""Count-sized exchange widths (``fold.exchange_width``): the sizing
rule itself, and proof that the width is scheduling only — LSH edges,
MinHash survivors, SimHash pairs, connected-component labels, MinHash
index matches, edit-distance pairs, triangle counts, and the
``fold.exchange`` reduces of bucket_fold, cap_per_key and
grouped_sketch are bit-identical whether an input runs as one
partition or as many. A caller's per-block map passed as ``pre``
keeps the input's free row count, so prepare_corpus's exchanges are
count-sized (width 1 on a small input) with the survivors of the
lazy 64-bucket plan."""
import numpy as np
import pandas as pd
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


def _co_widths(monkeypatch, module):
    """Record the partition count of every ``co_attach`` ``module``
    runs."""
    widths = []
    original = module.co_attach

    def spy(*args, n_parts, **kwargs):
        widths.append(_pow2(n_parts))
        return original(*args, n_parts=n_parts, **kwargs)

    monkeypatch.setattr(module, "co_attach", spy)
    return widths


def test_edit_pairs_width_invariant(ray_session, monkeypatch):
    import ray.data as rd

    ds = rd.from_pandas(pd.DataFrame(_corpus()))
    widths = _co_widths(monkeypatch, editjoin)
    cols = ["a", "b", "dist"]
    out = {}
    for n_parts in (1, 8):
        widths.clear()
        pairs, stats = editjoin.edit_distance_pairs(
            ds, max_dist=2, q=4, n_parts=n_parts, num_buckets=8)
        out[n_parts] = _sorted(pairs.to_pandas(), cols)
        assert widths == [n_parts, n_parts]
        assert stats["capped_grams"] == 0
    assert len(out[1]) > 0
    pd.testing.assert_frame_equal(out[1], out[8])


def test_triangle_count_width_invariant(ray_session, monkeypatch):
    import ray.data as rd

    rng = np.random.default_rng(4)
    edges = pd.DataFrame({"src": rng.integers(0, 60, 600),
                          "dst": rng.integers(0, 60, 600)})
    widths = _co_widths(monkeypatch, fold)
    counts = {}
    for n in (1, 8):
        widths.clear()
        counts[n] = graph.triangle_count(rd.from_pandas(edges),
                                         num_partitions=n)
        assert widths == [n]
    assert counts[1] > 0
    assert counts[1] == counts[8]


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
    lazy input keeps one partition per bucket over its own blocks."""
    import ray.data as rd

    widths = _exchange_widths(monkeypatch)
    t = pd.DataFrame({"k": np.arange(5_000) % 300, "v": np.ones(5_000, int)})
    free = rd.from_pandas([t.iloc[:2_000], t.iloc[2_000:]])
    lazy = free.map_batches(lambda b: b, batch_format="pyarrow")
    assert free._meta_count() == 5_000 and lazy._meta_count() is None
    got = [_sorted(fold.bucket_fold(ds, ["k"], [("v", "sum", "s")])
                   .to_pandas(), ["k", "s"]) for ds in (free, lazy)]
    assert widths == [(1, None), (fold.NUM_BUCKETS, 0)]
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
    # pre keeps the free count: count-sized; the mapped input is lazy
    assert widths == [(1, None), (fold.NUM_BUCKETS, 0)]


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
    assert widths == [(1, None), (fold.NUM_BUCKETS, 0)]


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
    width 1 (sort-free), and the survivors equal those of the lazy
    64-bucket plan the exact-dedup and host-cap exchanges ran on when
    their caller mapped the input first."""
    from ray.data import Dataset

    widths = _all_widths(monkeypatch)
    ids, rows = _prepare_ids(tmp_path / "a")
    assert widths and set(widths) == {(1, None)}, widths
    widths.clear()
    monkeypatch.setattr(Dataset, "_meta_count", lambda self: None)
    lazy_ids, lazy_rows = _prepare_ids(tmp_path / "b")
    assert widths.count((fold.NUM_BUCKETS, 0)) == 2, widths
    assert ids == lazy_ids and rows == lazy_rows
    # each exchange stage (exact, near, host cap) removes rows
    assert rows[1] > rows[2] > rows[3] > rows[4], rows

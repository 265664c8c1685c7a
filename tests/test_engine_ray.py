"""Distributed == serial contracts through real ray.data pipelines
(FIXTURES.md §3), plus the broadcast semi-join conformance
(run_tests.sh:123 analog)."""

import numpy as np
import pyarrow as pa

from presto_bloomfilter_ray import BloomFilter, HyperLogLog, TDigest, deserialize
from presto_bloomfilter_ray.engine import (
    SketchAgg,
    build_sketch,
    contains_column,
    grouped_sketch,
    merge_serialized_column,
    semi_join,
)


def _docs(ray_session, sf_dir):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet")


def test_aggregate_udaf_distributed_equals_serial(ray_session, sf_dir, duck):
    ds = _docs(ray_session, sf_dir)
    res = ds.aggregate(SketchAgg(lambda: HyperLogLog(12), on="text", alias_name="h"))
    dist = deserialize(res["h"])
    texts = [r[0] for r in duck.sql("select text from documents").fetchall()]
    serial = HyperLogLog(12).update_arrow(pa.array(texts))
    assert np.array_equal(dist.regs, serial.regs)


def test_build_sketch_tree_equals_serial(ray_session, sf_dir, duck):
    ds = _docs(ray_session, sf_dir)
    dist = build_sketch(ds, "text", lambda: BloomFilter(10_000))
    texts = [r[0] for r in duck.sql("select text from documents").fetchall()]
    serial = BloomFilter(10_000).update_arrow(pa.array(texts))
    assert np.array_equal(dist.bits, serial.bits)


def test_grouped_sketch_equals_per_group_serial(ray_session, sf_dir, duck):
    ds = _docs(ray_session, sf_dir)
    g = grouped_sketch(ds, key="lang", col="text", factory=lambda: BloomFilter(5000))
    got = {r["lang"]: deserialize(r["sketch"]) for r in g.take_all()}
    for lang, sk in got.items():
        texts = [r[0] for r in duck.sql(
            "select text from documents where lang = ?", params=[lang]).fetchall()]
        serial = BloomFilter(5000).update_arrow(pa.array(texts))
        assert np.array_equal(sk.bits, serial.bits), lang


def test_semi_and_anti_join_conformance(ray_session, sf_dir, duck):
    import ray.data as rd

    nation = rd.read_parquet(f"{sf_dir}/nation.parquet")
    bf = build_sketch(nation.filter(expr="n_regionkey == 2"), "n_name",
                      lambda: BloomFilter(1000, 1e-9))
    expect = duck.sql("select count(*) from nation where n_regionkey=2").fetchone()[0]
    assert semi_join(nation, "n_name", bf).count() == expect
    assert semi_join(nation, "n_name", bf, anti=True).count() == 25 - expect


def test_contains_column(ray_session, sf_dir):
    import ray.data as rd

    nation = rd.read_parquet(f"{sf_dir}/nation.parquet")
    bf = build_sketch(nation.filter(expr="n_regionkey == 0"), "n_name",
                      lambda: BloomFilter(1000, 1e-9))
    df = contains_column(nation, "n_name", bf).to_pandas()
    assert df["contains"].sum() == (df["n_regionkey"] == 0).sum()


def test_merge_serialized_column(ray_session):
    """bloom_filter_from_string aggregation shape (BloomFilterFromString.java)."""
    import ray.data as rd

    parts = []
    for chunk in (["a", "b"], ["c"], ["d", "e"]):
        parts.append({"sketch": BloomFilter(100).update_arrow(pa.array(chunk)).serialize()})
    ds = rd.from_items(parts)
    merged = merge_serialized_column(ds)
    assert all(merged.might_contain(x) for x in "abcde")
    assert not merged.might_contain("zzz")


def test_tdigest_through_ray_pipeline(ray_session, sf_dir, duck):
    ds = _docs(ray_session, sf_dir)
    td = build_sketch(ds, "n_chars", lambda: TDigest(200))
    vals = np.array([r[0] for r in duck.sql("select n_chars from documents").fetchall()])
    for q in (0.1, 0.5, 0.9):
        rank_err = abs((vals <= td.quantile(q)).mean() - q)
        assert rank_err < 3 * td.rank_error_bound()


def test_adaptive_merge_tree_bounds_driver_fold(ray_session):
    """Round-2 verdict #5: with merge_rounds=None (default) the fan-in
    tree must leave <= fan_in envelopes for the driver fold BY
    CONSTRUCTION — here 10^4 synthetic one-item HLL partials."""
    import pyarrow as pa
    import ray.data as rd

    from presto_bloomfilter_ray import HyperLogLog, deserialize
    from presto_bloomfilter_ray.engine.agg import _merge_tree

    n = 10_000
    blobs = [HyperLogLog(10).update_arrow(pa.array([f"item-{i}"])).serialize()
             for i in range(n)]
    partials = rd.from_arrow(pa.table(
        {"sketch": pa.array(blobs, type=pa.large_binary())}))
    out = _merge_tree(partials, fan_in=32, merge_rounds=None)
    n_left = out.count()
    assert n_left <= 32
    acc = None
    for r in out.take_all():
        sk = deserialize(r["sketch"])
        acc = sk if acc is None else acc.merge(sk)
    est = acc.estimate()
    assert abs(est - n) / n <= 3 * HyperLogLog(10).relative_error_bound()

    # explicit int depth still honored (tuning/back-compat): depth 0 is
    # a no-op tree
    assert _merge_tree(partials, fan_in=32, merge_rounds=0).count() == n

"""Edge-path coverage: finalize modes, cache eviction, empty inputs,
window validation."""

import numpy as np
import pyarrow as pa
import pytest

from presto_bloomfilter_ray import BloomFilter, HyperLogLog, deserialize
from presto_bloomfilter_ray.engine import SketchAgg, build_sketch, grouped_sketch
from presto_bloomfilter_ray.engine.ops import _CACHE, _CACHE_MAX, get_or_load


def test_sketchagg_estimate_finalize(ray_session, sf_dir):
    import ray.data as rd

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    res = docs.aggregate(
        SketchAgg(lambda: HyperLogLog(12), on="text", alias_name="est",
                  finalize_mode="estimate")
    )
    assert isinstance(res["est"], float) and res["est"] > 0


def test_sketchagg_sketch_finalize(ray_session, sf_dir):
    import ray.data as rd

    nation = rd.read_parquet(f"{sf_dir}/nation.parquet")
    res = nation.aggregate(
        SketchAgg(lambda: BloomFilter(100), on="n_name", alias_name="bf",
                  finalize_mode="sketch")
    )
    assert isinstance(res["bf"], BloomFilter)
    assert res["bf"].might_contain("NATION_0")
    assert not res["bf"].might_contain("not-a-nation")


def test_aggregate_over_empty_selection(ray_session, sf_dir):
    import ray.data as rd

    nation = rd.read_parquet(f"{sf_dir}/nation.parquet")
    empty = nation.filter(expr="n_regionkey == 999")
    bf = build_sketch(empty, "n_name", lambda: BloomFilter(100))
    assert bf.bits.sum() == 0  # empty filter with the requested params
    assert bf.n == 100
    g = grouped_sketch(empty, key="n_regionkey", col="n_name",
                       factory=lambda: BloomFilter(100))
    assert g.count() == 0


def test_cache_eviction_lru():
    _CACHE.clear()
    envs = [BloomFilter(100 + i).serialize() for i in range(_CACHE_MAX + 5)]
    for e in envs:
        get_or_load(e)
    assert len(_CACHE) == _CACHE_MAX  # bounded, reference-parity max 40
    # most recent still hits; oldest was evicted
    assert get_or_load(envs[-1]) is get_or_load(envs[-1])


def test_sliding_window_step_must_divide_size():
    from presto_bloomfilter_ray.functions.windows import explode_sliding_windows

    t = pa.table({"ts": pa.array([0], type=pa.timestamp("us"))})
    with pytest.raises(ValueError):
        explode_sliding_windows(t, "ts", size_s=3600, step_s=1000)


def test_bloom_envelope_kind_mismatch():
    env = HyperLogLog(8).serialize()
    sk = deserialize(env)
    with pytest.raises(TypeError):
        BloomFilter(100).merge(sk)  # type: ignore[arg-type]


def test_salted_grouped_sketch_matches_unsalted(ray_session, sf_dir, duck):
    import ray.data as rd

    from presto_bloomfilter_ray.engine import salted_grouped_sketch

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["lang", "text"])
    g = salted_grouped_sketch(docs, key="lang", col="text",
                              factory=lambda: BloomFilter(5000), salts=4)
    got = {r["lang"]: deserialize(r["sketch"]) for r in g.take_all()}
    import pyarrow as _pa

    for lang, sk in got.items():
        texts = [r[0] for r in duck.sql(
            "select text from documents where lang = ?", params=[lang]).fetchall()]
        serial = BloomFilter(5000).update_arrow(_pa.array(texts))
        assert np.array_equal(sk.bits, serial.bits), lang


def test_build_sketch_actor_pool_path(ray_session, sf_dir, duck):
    import ray.data as rd

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    pooled = build_sketch(docs, "text", lambda: BloomFilter(5000), concurrency=2)
    plain = build_sketch(docs, "text", lambda: BloomFilter(5000))
    assert np.array_equal(pooled.bits, plain.bits)


def test_grouped_sketch_skips_null_keys(ray_session):
    import ray.data as rd

    from presto_bloomfilter_ray.engine import grouped_sketch

    ds = rd.from_items([
        {"k": "a", "v": "1"}, {"k": None, "v": "2"},
        {"k": "b", "v": "3"}, {"k": "a", "v": "4"},
    ])
    g = grouped_sketch(ds, key="k", col="v", factory=lambda: BloomFilter(100))
    rows = {r["k"]: deserialize(r["sketch"]) for r in g.take_all()}
    assert set(rows) == {"a", "b"}
    assert rows["a"].might_contain("1") and rows["a"].might_contain("4")
    assert not rows["a"].might_contain("2")  # the null-keyed row's value


def test_transient_envelope_roundtrip_and_cache_bypass():
    """Combine-tree envelopes (compress=False, hashed=False) round-trip
    to the same sketch as canonical ones, and the probe cache refuses to
    key on their zeroed digest (all transients would collide)."""
    import pyarrow as _pa

    from presto_bloomfilter_ray.engine.ops import _CACHE, get_or_load
    from presto_bloomfilter_ray.sketches.base import read_hash

    bf = BloomFilter(1000, 0.01).update_arrow(_pa.array(["x", "y", "z"]))
    canonical = bf.serialize()
    transient = bf.serialize(compress=False, hashed=False)
    assert read_hash(transient) == b"\x00" * 32
    assert read_hash(canonical) != b"\x00" * 32
    a, b = deserialize(canonical), deserialize(transient)
    assert np.array_equal(a.bits, b.bits)
    # canonicalizing a transient restores a verified envelope
    assert deserialize(b.serialize()).might_contain("x")
    before = len(_CACHE)
    got = get_or_load(transient)
    assert got.might_contain("y") and len(_CACHE) == before  # not cached


def test_sketchagg_native_path_transient_combine(ray_session):
    """ds.aggregate(SketchAgg) must emit a CANONICAL envelope even though
    its combine tree carries transient ones."""
    import pyarrow as _pa
    import ray.data as rd

    from presto_bloomfilter_ray.engine import SketchAgg
    from presto_bloomfilter_ray.sketches.base import read_hash

    ds = rd.from_arrow(_pa.table({"k": [f"v{i}" for i in range(500)]})).repartition(7)
    res = ds.aggregate(SketchAgg(lambda: BloomFilter(1000, 0.01), on="k",
                                 alias_name="bf"))
    env = res["bf"]
    assert read_hash(env) != b"\x00" * 32  # finalize canonicalized
    sk = deserialize(env)
    assert all(sk.might_contain(f"v{i}") for i in range(0, 500, 37))
    assert not sk.might_contain("absent-key")


@pytest.mark.parametrize("key", ["ki", "ks"])
def test_grouped_sketch_key_dtype_and_envelopes_match_serial(ray_session, key):
    """The bucketed merge keeps the key's Arrow type and yields envelopes
    byte-identical to a serial build of each group."""
    import ray
    import ray.data as rd

    from presto_bloomfilter_ray.engine import grouped_sketch

    rng = np.random.default_rng(21)
    n = 3000
    ki = rng.integers(0, 40, n)
    t = pa.table({"ki": pa.array(ki, pa.int64()),
                  "ks": pa.array([f"k{i}" for i in ki], pa.string()),
                  "v": pa.array([f"v{i}" for i in rng.integers(0, 500, n)])})
    ds = rd.from_arrow(t).repartition(5)
    for factory in (lambda: BloomFilter(1000), lambda: HyperLogLog(10)):
        g = grouped_sketch(ds, key=key, col="v", factory=factory)
        blocks = [b for b in ray.get(g.to_arrow_refs()) if b.num_rows]
        assert {b.schema.field(key).type for b in blocks} == {t.schema.field(key).type}
        got = pa.concat_tables(blocks).to_pylist()
        assert len(got) == 40
        for r in got:
            vals = t.filter(pa.compute.equal(t.column(key), r[key])).column("v")
            assert r["sketch"] == factory().update_arrow(vals).serialize(), r[key]


def test_grouped_sketch_finalize_to_python_objects(ray_session):
    import ray.data as rd

    from presto_bloomfilter_ray.engine import grouped_sketch

    ds = rd.from_items([{"k": i % 3, "v": f"x{i}"} for i in range(30)])
    g = grouped_sketch(ds, key="k", col="v", factory=lambda: BloomFilter(100),
                       finalize=lambda s: s)
    rows = {r["k"]: r["sketch"] for r in g.take_all()}
    assert set(rows) == {0, 1, 2}
    assert isinstance(rows[1], BloomFilter) and rows[1].might_contain("x4")

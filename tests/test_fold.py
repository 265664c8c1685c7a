"""bucket_fold (functions/fold.py): bit-identity with Ray's
groupby().aggregate for every supported op, dtypes included; exchange:
one reducer call per non-empty bucket, each key in exactly one call."""
import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from presto_bloomfilter_ray.functions.fold import (NUM_BUCKETS, bucket_fold,
                                                   exchange)


def _data(seed, n=60_000, n_keys=5_000):
    rng = np.random.default_rng(seed)
    return pa.table({
        "k": pa.array(rng.integers(0, n_keys, n), pa.int64()),
        "k2": pa.array(rng.integers(0, 3, n), pa.int64()),
        "v": pa.array(rng.integers(-100, 100, n), pa.int64()),
        "f": pa.array(rng.random(n)),
    })


def _norm(df, keys):
    return df.sort_values(keys).reset_index(drop=True)


def test_single_key_all_ops_match_ray_aggregate(ray_session):
    from ray.data.aggregate import Count, Max, Min, Sum

    t = _data(1)
    ds = rd.from_arrow(t).repartition(8)
    got = _norm(bucket_fold(
        ds, ["k"],
        [("v", "sum", "s"), ("v", "min", "mn"), ("v", "max", "mx"),
         (None, "count", "n")], num_buckets=8).to_pandas(), ["k"])
    ref = _norm(ds.groupby("k").aggregate(
        Sum("v", alias_name="s"), Min("v", alias_name="mn"),
        Max("v", alias_name="mx"), Count(alias_name="n"))
        .to_pandas(), ["k"])[got.columns]
    assert got.equals(ref)
    assert [str(d) for d in got.dtypes] == [str(d) for d in ref.dtypes]


def test_two_key_and_float_max(ray_session):
    from ray.data.aggregate import Max, Sum

    t = _data(2)
    ds = rd.from_arrow(t).repartition(8)
    got = _norm(bucket_fold(
        ds, ["k", "k2"], [("f", "max", "fm"), ("v", "sum", "s")],
        num_buckets=4).to_pandas(), ["k", "k2"])
    ref = _norm(ds.groupby(["k", "k2"]).aggregate(
        Max("f", alias_name="fm"), Sum("v", alias_name="s"))
        .to_pandas(), ["k", "k2"])[got.columns]
    assert got.equals(ref)


def test_clustered_keys_spread_across_buckets(ray_session):
    """Sequential ids must not all land in one bucket — the avalanche
    hash matters when keys are clustered (mod would stripe them)."""
    import polars as pl

    t = pa.table({"k": pa.array(np.arange(4096), pa.int64()),
                  "v": pa.array(np.ones(4096, np.int64))})
    out = bucket_fold(rd.from_arrow(t).repartition(4), ["k"],
                      [("v", "sum", "v")], num_buckets=8).to_pandas()
    assert len(out) == 4096 and (out["v"] == 1).all()


def test_empty_input(ray_session):
    t = _data(3).slice(0, 0)
    out = bucket_fold(rd.from_arrow(t), ["k"], [("v", "sum", "s")],
                      num_buckets=4).materialize()
    assert out.count() == 0


def test_unsupported_op_raises(ray_session):
    with pytest.raises(ValueError, match="unsupported op"):
        bucket_fold(rd.from_arrow(_data(4)), ["k"],
                    [("v", "mean", "m")])


def _tagger():
    """exchange reducer: per-key row count and sum, stamped with an id
    unique to this call (built in a closure so workers get it by value)."""
    def tag_call(g: pa.Table) -> pa.Table:
        import uuid

        import polars as pl

        t = (pl.from_arrow(g).group_by("k")
             .agg(n=pl.len().cast(pl.Int64), s=pl.col("v").sum()).to_arrow())
        return t.append_column("call",
                               pa.array([uuid.uuid4().hex] * t.num_rows))

    return tag_call


def test_exchange_one_call_per_bucket_matches_map_groups(ray_session):
    t = _data(5, n=40_000, n_keys=5_000)
    ds = rd.from_arrow(t).repartition(6)
    out = exchange(ds, ["k"], _tagger()).to_pandas()
    # each key in exactly one call; ≤ 64 calls at 5k keys
    assert out["k"].is_unique
    assert out["call"].nunique() <= NUM_BUCKETS == 64

    def per_key(g: pa.Table) -> pa.Table:
        return pa.table({"k": g.column("k").slice(0, 1),
                         "n": pa.array([g.num_rows], pa.int64()),
                         "s": pa.array([pa.compute.sum(g.column("v")).as_py()],
                                       pa.int64())})

    ref = ds.groupby("k").map_groups(per_key, batch_format="pyarrow").to_pandas()
    got = _norm(out.drop(columns=["call"]), ["k"])
    ref = _norm(ref, ["k"])[got.columns]
    assert got.equals(ref)
    assert [str(d) for d in got.dtypes] == [str(d) for d in ref.dtypes]


def test_exchange_pre_runs_map_side_and_bucket_is_dropped(ray_session):
    t = _data(6, n=5_000, n_keys=50)
    out = exchange(rd.from_arrow(t).repartition(3), ["k"], lambda g: g,
                   pre=lambda b: b.filter(pa.compute.greater(b["v"], 0)),
                   num_buckets=4).materialize()
    assert out.count() == int(np.sum(t.column("v").to_numpy() > 0))
    assert out.schema().names == t.column_names  # no stray _b


def test_exchange_empty_input(ray_session):
    t = _data(3).slice(0, 0)
    out = exchange(rd.from_arrow(t), ["k"], _tagger()).materialize()
    assert out.count() == 0
    assert out.take_all() == []


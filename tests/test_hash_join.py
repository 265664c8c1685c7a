"""Native hash join sized to the cluster: aggregator count arithmetic
and the scoping of the setting to the join."""

import pandas as pd
import pyarrow as pa

from presto_bloomfilter_ray.engine.ops import hash_join, join_aggregators

GiB, MiB = 1 << 30, 1 << 20


def test_join_aggregators_fit_cpus_and_memory():
    # 16 partitions of 128 MiB blocks ask 4 GiB + 0.625 GiB per aggregator
    assert join_aggregators(16, 1, 10.75 * GiB, 128 * MiB) == 1
    assert join_aggregators(16, 16, 10.75 * GiB, 128 * MiB) == 10
    assert join_aggregators(16, 64, 64 * GiB, 128 * MiB) == 16
    assert join_aggregators(8, 3.5, 64 * GiB, 128 * MiB) == 3
    # a cluster too small for even one still gets one, never zero
    assert join_aggregators(16, 8, 1 * GiB, 128 * MiB) == 1
    # no target block size: Ray asks no memory, only CPUs bound it
    assert join_aggregators(16, 4, 0, None) == 4


def test_hash_join_matches_pandas_and_leaves_contexts(ray_session):
    import ray
    import ray.data as rd
    from ray.data import DataContext

    session = DataContext.get_current().max_hash_shuffle_aggregators
    left = rd.from_arrow(pa.table({"k": list(range(40)),
                                   "x": [i * 10 for i in range(40)]}))
    right = rd.from_arrow(pa.table({"rk": [i % 25 for i in range(60)],
                                    "y": list(range(60))}))
    left_cap = left.context.max_hash_shuffle_aggregators
    got = hash_join(left, right, "left_outer", 4, on=("k",),
                    right_on=("rk",)).to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), how="left",
                                  left_on="k", right_on="rk")
    cols = ["k", "x", "y"]  # Ray keeps the left key column only
    norm = lambda df: (df[cols].astype("float64").sort_values(cols)  # noqa: E731
                       .reset_index(drop=True))
    pd.testing.assert_frame_equal(norm(got), norm(want))
    res = ray.cluster_resources()
    joined = hash_join(left, right, "inner", 4, on=("k",), right_on=("rk",))
    assert joined.context.max_hash_shuffle_aggregators == join_aggregators(
        4, res["CPU"], res.get("memory", 0),
        joined.context.target_max_block_size)
    assert DataContext.get_current().max_hash_shuffle_aggregators == session
    assert left.context.max_hash_shuffle_aggregators == left_cap

"""Exact distributed quantile: DuckDB quantile_disc parity, rank
semantics, narrowing rounds, duplicates, nulls, guards."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from presto_bloomfilter_ray.functions import exact_quantile


def _ds(values, blocks=8):
    import ray.data as rd

    t = pa.table({"x": pa.array(values, type=pa.float64())})
    return rd.from_arrow(t).repartition(blocks)


QS = [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]


def _duck_disc(values, q):
    return duckdb.sql(
        f"SELECT quantile_disc(x, {q}) FROM (SELECT unnest(?) AS x)",
        params=[list(map(float, values))],
    ).fetchone()[0]


def test_matches_duckdb_quantile_disc_uniform(ray_session):
    rng = np.random.default_rng(3)
    vals = rng.uniform(-1e6, 1e6, size=20_000)
    ds = _ds(vals)
    got = exact_quantile(ds, "x", QS, pull_limit=500)
    for q, g in zip(QS, got):
        assert g == _duck_disc(vals, q), q
        assert g in vals  # disc returns an actual element


def test_matches_duckdb_on_skewed_and_duplicated(ray_session):
    rng = np.random.default_rng(4)
    # lognormal + heavy duplicate mass at two spikes
    vals = np.concatenate([
        rng.lognormal(0, 3, size=8_000),
        np.full(5_000, 42.0),
        np.full(3_000, -7.5),
    ])
    ds = _ds(vals)
    got = exact_quantile(ds, "x", QS, pull_limit=200)
    for q, g in zip(QS, got):
        assert g == _duck_disc(vals, q), q


def test_small_n_every_rank(ray_session):
    # tiny columns exercise the ceil(q*n) rank rule exactly
    vals = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    ds = _ds(vals, blocks=2)
    for q in [0.0, 0.2, 0.21, 0.4, 0.5, 0.6, 0.8, 0.99, 1.0]:
        assert exact_quantile(ds, "x", q, pull_limit=2) == \
            _duck_disc(vals, q), q


def test_narrowing_actually_rounds(ray_session):
    # pull_limit far below n forces >= 1 histogram round; answers must
    # still be exact
    rng = np.random.default_rng(5)
    vals = rng.normal(0, 1, size=50_000)
    ds = _ds(vals, blocks=16)
    g = exact_quantile(ds, "x", 0.5, pull_limit=100, n_bins=64)
    assert g == _duck_disc(vals, 0.5)


def test_nulls_and_nans_ignored(ray_session):
    import ray.data as rd

    vals = [1.0, None, 2.0, float("nan"), 3.0, None]
    t = pa.table({"x": pa.array(vals, type=pa.float64())})
    ds = rd.from_arrow(t)
    assert exact_quantile(ds, "x", 0.5) == 2.0


def test_all_equal_column(ray_session):
    ds = _ds(np.full(10_000, 3.25))
    assert exact_quantile(ds, "x", [0.1, 0.9], pull_limit=100) == \
        [3.25, 3.25]


def test_validation_and_empty(ray_session):
    ds = _ds([1.0])
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        exact_quantile(ds, "x", 1.5)
    import ray.data as rd

    empty = rd.from_arrow(pa.table({"x": pa.array([None, None],
                                                  type=pa.float64())}))
    with pytest.raises(ValueError, match="no non-null"):
        exact_quantile(empty, "x", 0.5)


def test_integer_column(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(6)
    vals = rng.integers(0, 1_000, size=30_000)
    t = pa.table({"x": pa.array(vals, type=pa.int64())})
    ds = rd.from_arrow(t).repartition(8)
    got = exact_quantile(ds, "x", [0.5, 0.95], pull_limit=500)
    assert got == [_duck_disc(vals, 0.5), _duck_disc(vals, 0.95)]


@pytest.mark.parametrize("sign", [1, -1])
def test_integer_magnitude_above_2_53_raises(ray_session, sign):
    """float64 holds every integer up to 2^53 exactly: 2^53 itself is
    answered, 2^53 + 1 (which rounds onto 2^53) raises."""
    import ray.data as rd

    edge = sign * (1 << 53)
    ok = rd.from_arrow(pa.table({"x": pa.array([1, 2, edge], pa.int64())}))
    assert exact_quantile(ok, "x", 1.0 if sign > 0 else 0.0) == float(edge)
    bad = rd.from_arrow(pa.table(
        {"x": pa.array([1, 2, edge + sign], pa.int64())}))
    with pytest.raises(ValueError, match=r"2\^53"):
        exact_quantile(bad, "x", 0.5)


# -------------------------------------------------- grouped variant
from presto_bloomfilter_ray.functions import grouped_exact_quantile


def _duck_group(df_t, qs):
    cols = ", ".join(f"quantile_disc(x, {q}) AS q{i}"
                     for i, q in enumerate(qs))
    return duckdb.sql(
        f"SELECT g, {cols} FROM df_t GROUP BY g ORDER BY g").df()


def test_grouped_matches_duckdb_mixed_distributions(ray_session):
    import pandas as pd
    import ray.data as rd

    rng = np.random.default_rng(21)
    n = 100_000
    keys = rng.choice(["a", "b", "c", "dd"], size=n)
    vals = np.where(keys == "a", rng.lognormal(0, 2, n),
                    rng.normal(100, 30, n))
    df_t = pd.DataFrame({"g": keys, "x": vals})
    ds = rd.from_arrow(pa.Table.from_pandas(df_t)).repartition(8)
    qs = [0.0, 0.5, 0.95, 1.0]
    got = grouped_exact_quantile(ds, "x", qs, "g", pull_limit=300) \
        .sort_values("g").reset_index(drop=True)
    exp = _duck_group(df_t, qs)
    for i, q in enumerate(qs):
        assert (got[f"q_{q}"].to_numpy() == exp[f"q{i}"].to_numpy()).all(), q


def test_grouped_integer_keys_and_degenerate_group(ray_session):
    import pandas as pd
    import ray.data as rd

    rng = np.random.default_rng(22)
    df_t = pd.DataFrame({
        "g": np.r_[np.zeros(5_000, dtype=np.int64),
                   np.ones(5_000, dtype=np.int64),
                   np.full(3_000, 2, dtype=np.int64)],
        "x": np.r_[rng.uniform(0, 1, 5_000), rng.normal(5, 1, 5_000),
                   np.full(3_000, 7.25)],  # all-equal group
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df_t)).repartition(4)
    got = grouped_exact_quantile(ds, "x", 0.5, "g", pull_limit=100) \
        .sort_values("g").reset_index(drop=True)
    exp = _duck_group(df_t, [0.5])
    assert (got["q_0.5"].to_numpy() == exp["q0"].to_numpy()).all()
    assert got["q_0.5"].iloc[2] == 7.25


def test_grouped_nulls_and_guards(ray_session):
    import ray.data as rd

    t = pa.table({"g": pa.array(["a", "a", None, "b"]),
                  "x": pa.array([1.0, None, 3.0, 2.0])})
    got = grouped_exact_quantile(rd.from_arrow(t), "x", 1.0, "g")
    got = got.sort_values("g").reset_index(drop=True)
    assert got["q_1.0"].tolist() == [1.0, 2.0]
    with pytest.raises(ValueError, match="max_keys"):
        big = rd.from_arrow(pa.table({
            "g": pa.array(np.arange(100, dtype=np.int64)),
            "x": pa.array(np.arange(100, dtype=np.float64))}))
        grouped_exact_quantile(big, "x", 0.5, "g", max_keys=10)


def test_grouped_negative_spanning_forced_rounds(ray_session):
    """Groups whose values straddle the float sign boundary, with a
    tiny pull_limit to force several narrowing rounds — exercises the
    survivor-interval bisection over the ordered-float lattice on both
    sides of zero (negative floats order reversed in raw bits)."""
    import pandas as pd
    import ray.data as rd

    rng = np.random.default_rng(33)
    n = 60_000
    keys = rng.choice(["neg", "mix", "tiny"], size=n)
    vals = np.where(
        keys == "neg", -rng.lognormal(0, 3, n),          # all negative, heavy tail
        np.where(keys == "mix", rng.normal(0, 1e-3, n),  # straddles zero, tiny scale
                 rng.uniform(-5e-308, 5e-308, n)))        # subnormal-range straddle
    df_t = pd.DataFrame({"g": keys, "x": vals})
    ds = rd.from_arrow(pa.Table.from_pandas(df_t)).repartition(6)
    qs = [0.01, 0.5, 0.99]
    got = grouped_exact_quantile(ds, "x", qs, "g", pull_limit=50) \
        .sort_values("g").reset_index(drop=True)
    exp = _duck_group(df_t, qs)
    for i, q in enumerate(qs):
        assert (got[f"q_{q}"].to_numpy() == exp[f"q{i}"].to_numpy()).all(), q


@pytest.mark.parametrize("sign", [1, -1])
def test_grouped_integer_magnitude_above_2_53_raises(ray_session, sign):
    """The grouped path keeps the scalar path's bound: 2^53 is answered
    exactly, 2^53 + 1 raises, and a float column holding the same
    magnitudes is not integral and is answered."""
    import ray.data as rd

    edge = sign * (1 << 53)
    q = 1.0 if sign > 0 else 0.0

    def run(x, qq, typ=pa.int64()):
        t = pa.table({"g": pa.array([0] * len(x), pa.int64()),
                      "x": pa.array(x, typ)})
        return grouped_exact_quantile(rd.from_arrow(t), "x", qq, "g")

    assert run([1, 2, edge], q)[f"q_{q}"].tolist() == [float(edge)]
    with pytest.raises(ValueError, match=r"2\^53"):
        run([1, 2, edge + sign], 0.5)
    far = float(edge + 2 * sign)  # a float64 neighbour of 2^53
    assert run([1.0, 2.0, far], q, pa.float64())[f"q_{q}"].tolist() == [far]

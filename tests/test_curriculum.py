"""curriculum_export: band-then-hash order vs a SQL window mirror,
null trailing, torn export refused, int64 scores past 2^53 refused."""
import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from presto_bloomfilter_ray.functions import (
    curriculum_export,
    read_curriculum,
)


def _docs(n=2_000, with_nulls=False):
    rng = np.random.default_rng(17)
    score = rng.integers(10, 500, n).astype("float64")
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                       "score": score})
    if with_nulls:
        df.loc[df.index[:7], "score"] = np.nan
    return df


def test_order_matches_sql_mirror(ray_session, tmp_path):
    import ray.data as rd

    df = _docs()
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(5)
    out = str(tmp_path / "cur")
    man = curriculum_export(ds, out, "doc_id", "score",
                            n_bands=4, n_shards=8)
    assert man["rows"] == len(df)
    got = read_curriculum(out).to_pandas()
    exp = duckdb.sql("""
        WITH c AS (
            SELECT quantile_disc(score, 0.25) c1,
                   quantile_disc(score, 0.50) c2,
                   quantile_disc(score, 0.75) c3 FROM df
        )
        SELECT doc_id, score FROM df, c
        ORDER BY 3 - ((score >= c1)::int + (score >= c2)::int
                      + (score >= c3)::int),
                 (doc_id * 2654435761) % 4294967296, doc_id
    """).df()
    assert got["doc_id"].tolist() == exp["doc_id"].astype(int).tolist()


def test_nulls_trail_and_torn_refused(ray_session, tmp_path):
    import ray.data as rd

    df = _docs(300, with_nulls=True)
    ds = rd.from_arrow(pa.Table.from_pandas(df))
    out = str(tmp_path / "cur2")
    curriculum_export(ds, out, "doc_id", "score", n_bands=3, n_shards=4)
    got = read_curriculum(out).to_pandas()
    assert len(got) == 300
    assert got["score"].tail(7).isna().all()  # nulls in the last band
    # torn export: remove one piece → loud refusal
    pieces = sorted(p for p in os.listdir(out) if p.startswith("band-"))
    os.remove(os.path.join(out, pieces[0]))
    with pytest.raises(FileNotFoundError, match="incomplete"):
        read_curriculum(out)


def test_single_band_equals_shuffled_order(ray_session, tmp_path):
    """n_bands=1 degenerates to the plain hash-shuffle order."""
    import ray.data as rd

    from presto_bloomfilter_ray.functions import (
        read_shuffled,
        shuffled_export,
    )

    df = _docs(500)
    ds = rd.from_arrow(pa.Table.from_pandas(df))
    out1 = str(tmp_path / "c1")
    out2 = str(tmp_path / "s1")
    curriculum_export(ds, out1, "doc_id", "score",
                      n_bands=1, n_shards=8)
    shuffled_export(ds.select_columns(["doc_id"]), out2, "doc_id",
                    n_shards=8)
    a = read_curriculum(out1).to_pandas()["doc_id"].tolist()
    b = read_shuffled(out2).to_pandas()["doc_id"].tolist()
    assert a == b


def test_integer_score_above_2_53_raises(ray_session, tmp_path):
    """Cutoffs compare as float64, so an int64 score past 2^53 could
    band unlike SQL: refused before anything is written."""
    import ray.data as rd

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "score": pa.array([1, 1 << 53, (1 << 53) + 1], pa.int64())}))
    out = str(tmp_path / "big")
    with pytest.raises(ValueError, match=r"2\^53"):
        curriculum_export(ds, out, "doc_id", "score", n_bands=2, n_shards=2)
    assert not any(p.startswith("band-") for p in os.listdir(out))

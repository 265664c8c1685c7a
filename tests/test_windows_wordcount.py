"""Windowed aggregates + distributed word count contracts."""

import pytest
import numpy as np
import pandas as pd
import pyarrow as pa


def test_tumbling_matches_sql(ray_session, sf_dir, duck):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import tumbling_aggregate

    ev = rd.read_parquet(f"{sf_dir}/events.parquet")
    mine = (
        tumbling_aggregate(ev, "ts", ["event_type"], size_s=3600, value_col="value")
        .to_pandas()
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )
    theirs = duck.sql("""
        SELECT event_type, date_trunc('hour', ts) AS window_start,
               count(*) AS n_events, sum(value) AS sum_value
        FROM events GROUP BY 1, 2 ORDER BY 1, 2
    """).df()
    assert mine["n_events"].tolist() == theirs["n_events"].tolist()
    assert np.allclose(mine["sum_value"], theirs["sum_value"])


def test_sliding_covers_each_event_fan_times(ray_session, sf_dir):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import sliding_aggregate

    ev = rd.read_parquet(f"{sf_dir}/events.parquet")
    n = ev.count()
    agg = sliding_aggregate(ev, "ts", ["event_type"], size_s=3600, step_s=1800)
    total = sum(r["n_events"] for r in agg.take_all())
    assert total == 2 * n  # fan-out = size/step = 2


def test_cumulative_aggregate_matches_sql(ray_session, sf_dir, duck):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import cumulative_aggregate

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    cum = cumulative_aggregate(ev, "ts", "user_id", "value",
                               order_cols=["event_id"])
    mine = (cum.to_pandas().sort_values("event_id").reset_index(drop=True))
    theirs = duck.sql("""
        SELECT event_id, CAST(row_number() OVER w AS BIGINT) AS running_n,
               sum(value) OVER w AS running_sum
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                     ROWS UNBOUNDED PRECEDING)
        ORDER BY event_id
    """).df()
    assert mine["running_n"].tolist() == theirs["running_n"].tolist()
    assert np.allclose(mine["running_sum"], theirs["running_sum"])


def test_funnel_ordering_semantics(ray_session):
    import pandas as pd
    import ray.data as rd

    from presto_bloomfilter_ray.functions import funnel_counts

    def t(s):
        return pd.Timestamp(s)

    rows = [
        # u1 completes the funnel in order
        ("u1", "signup", t("2024-01-01 10:00")),
        ("u1", "click", t("2024-01-01 11:00")),
        ("u1", "purchase", t("2024-01-01 12:00")),
        # u2 clicks BEFORE signing up: click must not count; no purchase
        ("u2", "click", t("2024-01-02 08:00")),
        ("u2", "signup", t("2024-01-02 09:00")),
        # u3 signup only
        ("u3", "signup", t("2024-01-03 10:00")),
        # u4 purchase before click: purchase must not count
        ("u4", "signup", t("2024-01-04 10:00")),
        ("u4", "purchase", t("2024-01-04 10:30")),
        ("u4", "click", t("2024-01-04 11:00")),
        # u5 never signs up
        ("u5", "click", t("2024-01-05 10:00")),
        ("u5", "purchase", t("2024-01-05 11:00")),
        # u6 same-timestamp progression counts (>= semantics)
        ("u6", "signup", t("2024-01-06 10:00")),
        ("u6", "click", t("2024-01-06 10:00")),
        ("u6", "purchase", t("2024-01-06 10:00")),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "event_type", "ts"])
    ds = rd.from_pandas(df).repartition(3)
    out = funnel_counts(ds, "ts", "user_id", "event_type",
                        ["signup", "click", "purchase"], num_partitions=2)
    assert out["stage"].tolist() == ["signup", "click", "purchase"]
    # signup: u1 u2 u3 u4 u6; click-after-signup: u1 u4 u6;
    # purchase-after-that-click: u1 u6
    assert out["n_keys"].tolist() == [5, 3, 2]


def test_funnel_join_tier_matches_broadcast(ray_session):
    """The join-tier scale path agrees with the broadcast tier when
    partitions are populated (the tier only engages above
    broadcast_limit keys; tiny key sets stay on the broadcast path —
    Ray 2.49's hash join mishandles empty partitions)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from presto_bloomfilter_ray.functions import funnel_counts

    rng = np.random.default_rng(5)
    n = 600
    df = pd.DataFrame({
        "user_id": rng.integers(0, 200, size=n),
        "event_type": rng.choice(["s", "c", "p"], size=n),
        "ts": pd.to_datetime(rng.integers(0, 50, size=n) * 3_600_000_000,
                             unit="us"),
    })
    kw = dict(num_partitions=2)
    a = funnel_counts(rd.from_pandas(df), "ts", "user_id", "event_type",
                      ["s", "c", "p"], **kw)
    b = funnel_counts(rd.from_pandas(df), "ts", "user_id", "event_type",
                      ["s", "c", "p"], broadcast_limit=0, **kw)
    assert a["n_keys"].tolist() == b["n_keys"].tolist()


def test_funnel_attribution_window(ray_session):
    import pandas as pd
    import ray.data as rd

    from presto_bloomfilter_ray.functions import funnel_counts

    rows = [
        ("u1", "signup", pd.Timestamp("2024-01-01 10:00")),
        ("u1", "click", pd.Timestamp("2024-01-01 11:00")),    # in window
        ("u2", "signup", pd.Timestamp("2024-01-02 10:00")),
        ("u2", "click", pd.Timestamp("2024-01-02 12:30")),    # too late
    ]
    df = pd.DataFrame(rows, columns=["user_id", "event_type", "ts"])
    out = funnel_counts(rd.from_pandas(df), "ts", "user_id", "event_type",
                        ["signup", "click"], num_partitions=2,
                        max_delay_s=7200)
    assert out["n_keys"].tolist() == [2, 1]
    # join-tier path must agree
    out2 = funnel_counts(rd.from_pandas(df), "ts", "user_id", "event_type",
                         ["signup", "click"], num_partitions=2,
                         max_delay_s=7200, broadcast_limit=0)
    assert out2["n_keys"].tolist() == [2, 1]


def test_funnel_empty_stage_short_circuits(ray_session):
    import pandas as pd
    import ray.data as rd

    from presto_bloomfilter_ray.functions import funnel_counts

    df = pd.DataFrame({
        "user_id": ["a", "b"],
        "event_type": ["view", "view"],
        "ts": [pd.Timestamp("2024-01-01"), pd.Timestamp("2024-01-02")],
    })
    out = funnel_counts(rd.from_pandas(df), "ts", "user_id", "event_type",
                        ["signup", "click"], num_partitions=2)
    assert out["n_keys"].tolist() == [0, 0]


def test_session_windows_matches_sql(ray_session, sf_dir, duck):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import session_windows

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "user_id", "event_id"])
    sess = session_windows(ev, "ts", "user_id", gap_s=1800,
                           order_cols=["event_id"]).to_pandas()
    n_sessions_mine = sess.groupby("user_id")["session_id"].max().sort_index()
    theirs = duck.sql("""
        WITH flagged AS (
            SELECT user_id, ts,
                   CASE WHEN lag(ts) OVER w IS NULL
                             OR epoch(ts) - epoch(lag(ts) OVER w) > 1800
                        THEN 1 ELSE 0 END AS is_new
            FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        )
        SELECT user_id, sum(is_new) AS n_sessions FROM flagged GROUP BY user_id
        ORDER BY user_id
    """).df().set_index("user_id")["n_sessions"]
    assert n_sessions_mine.astype(int).tolist() == theirs.astype(int).tolist()
    # sessions partition all events exactly once
    assert sess["n_events"].sum() == ev.count()


def test_word_count_matches_sql(ray_session, sf_dir, duck):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import word_count

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    mine = word_count(docs, top_k=15).to_pandas()
    theirs = duck.sql("""
        SELECT word, count(*) AS n FROM (
            SELECT unnest(regexp_extract_all(text, '\\S+')) AS word FROM documents
        ) GROUP BY word ORDER BY n DESC, word ASC LIMIT 15
    """).df()
    assert mine["word"].tolist() == theirs["word"].tolist()
    assert mine["n"].astype(int).tolist() == theirs["n"].astype(int).tolist()


def test_pmi_bigrams_matches_sql(ray_session, sf_dir, duck):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import pmi_bigrams

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    mine = pmi_bigrams(docs, top_k=10, min_count=2)
    theirs = duck.sql("""
        WITH tok AS (SELECT regexp_extract_all(text, '\\S+') AS l
                     FROM documents),
        uc AS (SELECT w1, count(*) AS c FROM (
                   SELECT unnest(l) AS w1 FROM tok) GROUP BY w1),
        bc AS (SELECT p[1] AS w1, p[2] AS w2, count(*) AS c12 FROM (
                   SELECT unnest(list_filter(list_zip(l, l[2:]),
                                 x -> x[2] IS NOT NULL)) AS p FROM tok)
               GROUP BY 1, 2),
        tots AS (SELECT (SELECT CAST(sum(c) AS DOUBLE) FROM uc) AS T,
                        (SELECT CAST(sum(c12) AS DOUBLE) FROM bc) AS B)
        SELECT bc.w1, bc.w2, c12,
               round(ln((c12 / B) / ((u1.c / T) * (u2.c / T))), 6) AS pmi
        FROM bc, tots JOIN uc u1 ON bc.w1 = u1.w1
                      JOIN uc u2 ON bc.w2 = u2.w1
        WHERE c12 >= 2 ORDER BY pmi DESC, bc.w1, bc.w2 LIMIT 10
    """).df()
    assert mine["w1"].tolist() == theirs["w1"].tolist()
    assert mine["w2"].tolist() == theirs["w2"].tolist()
    assert mine["pmi"].tolist() == theirs["pmi"].tolist()
    # the distributed-join scale path must agree with the broadcast path
    joined = pmi_bigrams(docs, top_k=10, min_count=2, broadcast_limit=0,
                         num_partitions=2)
    assert joined["w1"].tolist() == theirs["w1"].tolist()
    assert joined["pmi"].tolist() == theirs["pmi"].tolist()


def test_pmi_bigrams_no_cross_doc_pairs(ray_session):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import pmi_bigrams

    # 'b a' would be a bigram only if doc boundaries leaked
    t = pa.table({"text": ["a b", "a b", "a b"]})
    out = pmi_bigrams(rd.from_arrow(t).repartition(1), top_k=10,
                      min_count=1)
    assert out[["w1", "w2"]].values.tolist() == [["a", "b"]]
    assert out["c12"].tolist() == [3]


def test_vocab_stats_matches_sql(ray_session, sf_dir, duck):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import vocab_stats

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["text", "lang"])
    mine = vocab_stats(docs, key_col="lang")
    theirs = duck.sql("""
        WITH tok AS (
            SELECT lang, unnest(regexp_extract_all(text, '\\S+')) AS term
            FROM documents
        ), tc AS (SELECT lang, term, count(*) AS n FROM tok GROUP BY 1, 2)
        SELECT lang, CAST(sum(n) AS BIGINT) AS n_tokens, count(*) AS n_types,
               CAST(count(*) FILTER (WHERE n = 1) AS BIGINT) AS n_hapax,
               round(count(*) / CAST(sum(n) AS DOUBLE), 6) AS ttr
        FROM tc GROUP BY lang ORDER BY lang
    """).df()
    for col in ["n_tokens", "n_types", "n_hapax"]:
        assert mine[col].astype(int).tolist() == theirs[col].astype(int).tolist(), col
    assert mine["ttr"].tolist() == theirs["ttr"].tolist()
    # hapax can never exceed types; types never exceed tokens
    assert (mine["n_hapax"] <= mine["n_types"]).all()
    assert (mine["n_types"] <= mine["n_tokens"]).all()


def test_cosine_neardup_pairs_exact(ray_session, sf_dir, duck):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import cosine_neardup_pairs

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    mine = cosine_neardup_pairs(emb, threshold=0.45)
    theirs = duck.sql("""
        SELECT a.vec_id AS a, b.vec_id AS b
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
        WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
        ORDER BY a, b
    """).df()
    assert mine["a"].astype(int).tolist() == theirs["a"].astype(int).tolist()
    assert mine["b"].astype(int).tolist() == theirs["b"].astype(int).tolist()


def test_grouped_sketchagg_through_groupby(ray_session, sf_dir, duck):
    """GROUP BY + SketchAgg via the native ds.groupby().aggregate() API
    (the reference's grouped-state path, BloomFilterStateFactory.java:48-91)."""
    import ray.data as rd

    from presto_bloomfilter_ray import BloomFilter, deserialize
    from presto_bloomfilter_ray.engine import SketchAgg

    nation = rd.read_parquet(f"{sf_dir}/nation.parquet")
    out = nation.groupby("n_regionkey").aggregate(
        SketchAgg(lambda: BloomFilter(1000, 1e-9), on="n_name", alias_name="bf")
    ).take_all()
    assert len(out) == 5
    for row in out:
        bf = deserialize(row["bf"])
        names = [r[0] for r in duck.sql(
            "select n_name from nation where n_regionkey = ?",
            params=[row["n_regionkey"]]).fetchall()]
        others = [r[0] for r in duck.sql(
            "select n_name from nation where n_regionkey <> ?",
            params=[row["n_regionkey"]]).fetchall()]
        assert all(bf.might_contain(n) for n in names)
        assert not any(bf.might_contain(n) for n in others)


def test_connected_components_matches_union_find(ray_session):
    import pandas as pd

    from presto_bloomfilter_ray.functions.components import connected_components

    rng = np.random.default_rng(11)
    E = pd.DataFrame({"a": rng.integers(0, 200, 300), "b": rng.integers(0, 200, 300)})
    out = connected_components(E)
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(E["a"], E["b"]):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    members = {}
    for x in set(E["a"]) | set(E["b"]):
        members.setdefault(find(int(x)), set()).add(int(x))
    canon = {x: min(m) for m in members.values() for x in m}
    assert dict(zip(out["node"], out["component"])) == canon


def test_native_join_matches_sql(ray_session, sf_dir, duck):
    import ray.data as rd
    from ray.data.aggregate import Count

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    cust = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    joined = orders.join(cust, "inner", 8, on=("o_custkey",), right_on=("c_custkey",))
    mine = (joined.groupby("c_nationkey").aggregate(Count(alias_name="n"))
            .to_pandas().sort_values("c_nationkey").reset_index(drop=True))
    theirs = duck.sql("""
        SELECT c_nationkey, count(*) AS n FROM orders JOIN customer
        ON o_custkey = c_custkey GROUP BY c_nationkey ORDER BY c_nationkey
    """).df()
    assert mine["n"].astype(int).tolist() == theirs["n"].astype(int).tolist()


def test_asof_join_matches_duckdb(ray_session, sf_dir, duck):
    import ray.data as rd

    from presto_bloomfilter_ray.functions.asof import asof_join

    signups = duck.sql(
        "select user_id, ts, event_id from events where event_type='signup'"
    ).df()
    purchases = rd.read_parquet(f"{sf_dir}/events.parquet").filter(
        expr="event_type == 'view'"
    )
    joined = asof_join(purchases, signups, key="user_id", ts="ts",
                       value_cols=["event_id"]).to_pandas()
    theirs = duck.sql("""
        WITH p AS (SELECT * FROM events WHERE event_type='view'),
             s AS (SELECT user_id, ts FROM events WHERE event_type='signup')
        SELECT count(s.ts) AS n FROM p ASOF LEFT JOIN s
          ON p.user_id = s.user_id AND p.ts >= s.ts
    """).fetchone()[0]
    assert int(joined["ts_r"].notna().sum()) == int(theirs)
    # matched right ts is never after the left ts
    m = joined["ts_r"].notna()
    assert (joined.loc[m, "ts_r"] <= joined.loc[m, "ts"]).all()


def test_asof_forward_direction(ray_session):
    import pandas as pd
    import ray.data as rd

    from presto_bloomfilter_ray.functions.asof import asof_join

    left = rd.from_items([
        {"k": "a", "ts": pd.Timestamp("2020-01-01 00:05"), "x": 1},
        {"k": "a", "ts": pd.Timestamp("2020-01-01 00:20"), "x": 2},
    ])
    right = pd.DataFrame({
        "k": ["a", "a"],
        "ts": [pd.Timestamp("2020-01-01 00:10"), pd.Timestamp("2020-01-01 00:30")],
        "v": [10, 30],
    })
    out = asof_join(left, right, key="k", ts="ts", value_cols=["v"],
                    direction="forward").to_pandas().sort_values("x")
    assert out["v_r"].tolist() == [10, 30]  # next right row at/after each left ts


def test_asof_string_keys_match_pandas(ray_session):
    """Property: the dictionary-encoded string-key probe path agrees
    with pd.merge_asof on random (key, ts) data, nulls unmatched."""
    import pandas as pd
    import ray.data as rd

    from presto_bloomfilter_ray.functions.asof import asof_join

    rng = np.random.default_rng(7)
    keys = np.array(["alpha", "b", "cc", "ddd", "e", "zz"])
    for trial in range(3):
        n_l, n_r = 120, 40
        lk = keys[rng.integers(0, len(keys), n_l)].astype(object)
        lk[rng.random(n_l) < 0.1] = None  # null keys stay unmatched
        left = pd.DataFrame({
            "k": lk,
            "ts": pd.to_datetime(rng.integers(0, 10_000, n_l), unit="s"),
            "row": np.arange(n_l),
        })
        right = pd.DataFrame({
            "k": keys[rng.integers(0, len(keys) - 1, n_r)],  # 'zz' absent
            "ts": pd.to_datetime(rng.integers(0, 10_000, n_r), unit="s"),
            "v": rng.integers(0, 1000, n_r),
        })
        got = (asof_join(rd.from_pandas(left).repartition(3), right,
                         key="k", ts="ts", value_cols=["v"])
               .to_pandas().sort_values("row").reset_index(drop=True))
        oracle = pd.merge_asof(
            left.dropna(subset=["k"]).sort_values("ts", kind="stable"),
            right.sort_values("ts", kind="stable").astype({"v": "float64"}),
            on="ts", by="k", direction="backward",
        ).sort_values("row").set_index("row")["v"]
        ours = got.set_index("row")["v_r"].astype("float64")
        assert ours.reindex(oracle.index).equals(oracle)
        assert got.loc[got["k"].isna(), "v_r"].isna().all()


def test_range_join_bands(ray_session):
    import pandas as pd
    import ray.data as rd

    from presto_bloomfilter_ray.functions.asof import range_join

    left = rd.from_items([{"v": x} for x in (5.0, 15.0, 25.0, 99.0)])
    bands = pd.DataFrame({"lo": [0.0, 10.0, 20.0], "hi": [10.0, 20.0, 30.0],
                          "band": ["a", "b", "c"]})
    out = range_join(left, bands, on="v", value_cols=["band"]).to_pandas()
    got = dict(zip(out["v"], out["band"]))
    assert got == {5.0: "a", 15.0: "b", 25.0: "c", 99.0: None}
    with pytest.raises(ValueError):
        range_join(left, pd.DataFrame({"lo": [0.0, 5.0], "hi": [10.0, 15.0],
                                       "band": ["x", "y"]}), on="v")


def test_tumbling_handles_ns_timestamps(ray_session):
    """timestamp[ns] input (pandas' parquet default) must produce the
    same windows as timestamp[us] — the key assignment normalizes units
    before the int64 cast."""
    import ray.data as rd

    from presto_bloomfilter_ray.functions import tumbling_aggregate

    ts = pd.to_datetime(
        ["2024-01-01 00:10:00", "2024-01-01 00:50:00", "2024-01-01 01:10:00"]
    )
    outs = {}
    for unit in ("us", "ns"):
        tbl = pa.table({
            "ts": pa.array(ts).cast(pa.timestamp(unit)),
            "k": ["a", "a", "a"],
            "value": [1.0, 2.0, 3.0],
        })
        ds = rd.from_arrow(tbl)
        outs[unit] = (
            tumbling_aggregate(ds, "ts", ["k"], size_s=3600, value_col="value")
            .to_pandas().sort_values("window_start").reset_index(drop=True)
        )
    assert outs["us"]["n_events"].tolist() == [2, 1]
    pd.testing.assert_frame_equal(outs["us"], outs["ns"])


def test_cosine_neardup_ivf_subset_and_recall(ray_session, sf_dir):
    """IVF-bucketed near-dup pairs: exact precision (subset of the
    brute-force result at the same threshold), high recall with
    multi-probe assignment."""
    import ray.data as rd

    from presto_bloomfilter_ray.functions import (
        cosine_neardup_pairs,
        cosine_neardup_pairs_ivf,
    )

    emb = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                          columns=["vec_id", "embedding"])
    exact = cosine_neardup_pairs(emb, threshold=0.45)
    exact_set = set(zip(exact["a"].astype(int), exact["b"].astype(int)))
    ivf = cosine_neardup_pairs_ivf(emb, threshold=0.45, ncentroids=8,
                                   assign_m=3).to_pandas()
    ivf_set = set(zip(ivf["a"].astype(int), ivf["b"].astype(int)))
    assert ivf_set <= exact_set  # precision exact
    assert len(ivf_set & exact_set) / max(1, len(exact_set)) >= 0.8
    # sims are true cosines
    by_pair = dict(zip(zip(ivf["a"].astype(int), ivf["b"].astype(int)), ivf["sim"]))
    assert all(v >= 0.45 for v in by_pair.values())


def test_asof_join_bucketed_matches_broadcast(ray_session, sf_dir, duck):
    """Bucketed (both-sides-Dataset) as-of join must agree with the
    broadcast path and with DuckDB ASOF, including unmatched rows."""
    import ray.data as rd

    from presto_bloomfilter_ray.functions import asof_join, asof_join_bucketed

    ev = rd.read_parquet(f"{sf_dir}/events.parquet")
    purchases = ev.filter(expr="event_type == 'purchase'")
    signups_ds = ev.filter(expr="event_type == 'signup'").select_columns(
        ["user_id", "ts", "event_id"])
    signups_df = duck.sql(
        "select user_id, ts, event_id from events where event_type = 'signup'"
    ).df()

    b = asof_join_bucketed(purchases, signups_ds, key="user_id", ts="ts",
                           value_cols=["event_id"]).to_pandas()
    a = asof_join(ev.filter(expr="event_type == 'purchase'"), signups_df,
                  key="user_id", ts="ts", value_cols=["event_id"]).to_pandas()
    key = ["user_id", "ts", "event_id"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    assert a["ts_r"].astype("int64").tolist() == b["ts_r"].astype("int64").tolist()
    assert (a["event_id_r"].fillna(-1).astype("int64").tolist()
            == b["event_id_r"].fillna(-1).astype("int64").tolist())


def test_asof_join_bucketed_forward(ray_session):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import asof_join_bucketed

    left = rd.from_pandas(pd.DataFrame({
        "k": ["a", "a", "b"],
        "ts": pd.to_datetime(["2024-01-01 00:00", "2024-01-01 02:00",
                              "2024-01-01 00:00"]).astype("datetime64[us]"),
    }))
    right = rd.from_pandas(pd.DataFrame({
        "k": ["a", "a"],
        "ts": pd.to_datetime(["2024-01-01 01:00", "2024-01-01 03:00"]).astype("datetime64[us]"),
        "v": [10, 20],
    }))
    out = asof_join_bucketed(left, right, key="k", ts="ts", value_cols=["v"],
                             direction="forward").to_pandas()
    out = out.sort_values(["k", "ts"]).reset_index(drop=True)
    assert out["v_r"].fillna(-1).tolist() == [10.0, 20.0, -1]


def test_asof_join_bucketed_random_matches_pandas(ray_session):
    """Property check: on random keyed/timestamped data, the bucketed
    as-of join must reproduce pandas' merge_asof exactly (both
    directions), including unmatched lefts and duplicate timestamps."""
    import ray.data as rd

    from presto_bloomfilter_ray.functions import asof_join_bucketed

    rng = np.random.default_rng(77)
    n_l, n_r = 500, 300
    left = pd.DataFrame({
        "k": rng.integers(0, 12, n_l),
        "ts": pd.to_datetime(rng.integers(0, 10_000, n_l), unit="s").astype("datetime64[us]"),
        "payload": rng.integers(0, 1000, n_l),
    })
    right = pd.DataFrame({
        "k": rng.integers(0, 15, n_r),  # some keys absent on the left
        "ts": pd.to_datetime(rng.integers(0, 10_000, n_r), unit="s").astype("datetime64[us]"),
        "v": rng.integers(0, 1000, n_r),
    })
    for direction in ("backward", "forward"):
        mine = asof_join_bucketed(
            rd.from_pandas(left), rd.from_pandas(right),
            key="k", ts="ts", value_cols=["v"], direction=direction,
        ).to_pandas().sort_values(["k", "ts", "payload"]).reset_index(drop=True)
        r2 = right.sort_values("ts", kind="stable").copy()
        r2["ts_r"] = r2["ts"]
        r2 = r2.rename(columns={"v": "v_r"})
        ref = pd.merge_asof(
            left.sort_values("ts", kind="stable"), r2,
            on="ts", by="k", direction=direction,
        ).sort_values(["k", "ts", "payload"]).reset_index(drop=True)
        assert len(mine) == len(ref) == n_l
        assert mine["v_r"].fillna(-1).tolist() == ref["v_r"].fillna(-1).tolist(), direction
        assert (mine["ts_r"].astype("int64").tolist()
                == ref["ts_r"].astype("int64").tolist()), direction


def test_asof_join_null_and_huge_int_keys(ray_session):
    """Round-2 advice: a NULLABLE int64 key must not take the float64
    fast path (keys above 2^53 would merge adjacent ids and match the
    wrong entry); null-key rows stay unmatched."""
    import pandas as pd
    import ray.data as rd

    from presto_bloomfilter_ray.functions.asof import asof_join

    big = 2**60
    # adjacent huge keys: float64 would collapse big+1 / big+2
    right = pd.DataFrame({
        "k": [big + 1, big + 2],
        "ts": pd.to_datetime([100, 200], unit="s").astype("datetime64[us]"),
        "v": ["first", "second"],
    })
    left = pa.table({
        "k": pa.array([big + 1, big + 2, None, big + 2], type=pa.int64()),
        "ts": pa.array(
            pd.to_datetime([150, 250, 150, 150], unit="s").astype("datetime64[us]")),
    })
    out = (asof_join(rd.from_arrow(left), right, key="k", ts="ts",
                     value_cols=["v"])
           .to_pandas())
    assert out["v_r"].tolist() == ["first", "second", None, None]
    # null key row matched nothing even though its ts would match
    assert out.loc[2, "ts_r"] is pd.NaT or pd.isna(out.loc[2, "ts_r"])


def test_asof_join_vectorized_value_types(ray_session):
    """pc.take value attach must preserve Arrow value types (round-2
    verdict #4: no object-dtype per-row materialization)."""
    import pandas as pd
    import ray.data as rd

    from presto_bloomfilter_ray.functions.asof import asof_join, range_join

    right = pd.DataFrame({
        "k": [1, 1, 2],
        "ts": pd.to_datetime([10, 20, 15], unit="s").astype("datetime64[us]"),
        "name": ["a", "b", "c"],
        "score": [1.5, 2.5, 3.5],
    })
    left = pa.table({
        "k": pa.array([1, 2, 3], type=pa.int64()),
        "ts": pa.array(pd.to_datetime([25, 16, 25], unit="s").astype("datetime64[us]")),
    })
    out = asof_join(rd.from_arrow(left), right, key="k", ts="ts",
                    value_cols=["name", "score"])
    tbl = pa.Table.from_pandas(out.to_pandas())
    got = out.to_pandas()
    assert got["name_r"].tolist() == ["b", "c", None]
    assert got["score_r"].fillna(-1).tolist() == [2.5, 3.5, -1]
    # range_join too: string labels attach as strings, nulls outside bands
    bands = pd.DataFrame({"lo": [0.0, 10.0], "hi": [10.0, 20.0],
                          "band": ["low", "high"]})
    orders = rd.from_arrow(pa.table({"x": pa.array([5.0, 15.0, 99.0])}))
    rj = range_join(orders, bands, on="x", value_cols=["band"]).to_pandas()
    assert rj["band"].tolist() == ["low", "high", None]


def test_funnel_quoted_stage_names_match_sql(ray_session):
    """Stage names are compared as values, never spliced into a filter
    expression: names with quotes match the DuckDB oracle on the
    broadcast and the co-partitioned tier."""
    import duckdb
    import ray.data as rd

    from presto_bloomfilter_ray.functions import funnel_counts

    rng = np.random.default_rng(11)
    n = 400
    stages = ["it's", "c", 'o\'neil\'s "p"']
    df = pd.DataFrame({
        "user_id": rng.integers(0, 60, size=n),
        "event_type": rng.choice(stages + ["other"], size=n),
        "ts": pd.to_datetime(rng.integers(0, 40, size=n) * 3_600_000_000,
                             unit="us"),
    })
    con = duckdb.connect()
    con.register("events", df)
    ref = con.execute("""
        WITH s1 AS (SELECT user_id, min(ts) AS t FROM events
                    WHERE event_type = ? GROUP BY user_id),
             s2 AS (SELECT e.user_id, min(e.ts) AS t
                    FROM events e JOIN s1 USING (user_id)
                    WHERE e.event_type = ? AND e.ts >= s1.t
                    GROUP BY e.user_id),
             s3 AS (SELECT e.user_id, min(e.ts) AS t
                    FROM events e JOIN s2 USING (user_id)
                    WHERE e.event_type = ? AND e.ts >= s2.t
                    GROUP BY e.user_id)
        SELECT (SELECT count(*) FROM s1), (SELECT count(*) FROM s2),
               (SELECT count(*) FROM s3)
    """, stages).fetchone()
    assert min(ref) > 0
    for limit in (2_000_000, 0):
        out = funnel_counts(rd.from_pandas(df), "ts", "user_id",
                            "event_type", stages, num_partitions=2,
                            broadcast_limit=limit)
        assert out["stage"].tolist() == stages
        assert out["n_keys"].tolist() == list(ref), limit

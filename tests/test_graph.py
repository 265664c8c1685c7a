"""PageRank (functions/graph.py): integer recurrence, tier parity,
and the generated SQL mirror."""
import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from presto_bloomfilter_ray.functions import pagerank, pagerank_sql_mirror


def _random_edges(seed, n_edges=4000, n_src=90, n_dst=110):
    """Multigraph with guaranteed dangling nodes (ids ≥ n_src appear
    only as destinations)."""
    rng = np.random.default_rng(seed)
    return pa.table({
        "src": pa.array(rng.integers(0, n_src, n_edges), pa.int64()),
        "dst": pa.array(rng.integers(0, n_dst, n_edges), pa.int64()),
    })


def _oracle(t: pa.Table, iters: int):
    con = duckdb.connect()
    con.register("raw", t)
    edges_sql = ("SELECT src, dst, CAST(count(*) AS BIGINT) AS w "
                 "FROM raw GROUP BY src, dst")
    return con.execute(pagerank_sql_mirror(edges_sql, iters=iters)).df()


#: broadcast_limit per tier: the node count picks the tier, and 0
#: sends any graph to the dataset tier
_TIER_LIMIT = {"broadcast": 2_000_000, "dataset": 0}


def _run(t, tier, iters=3, **kw):
    return (pagerank(rd.from_arrow(t), iters=iters,
                     broadcast_limit=_TIER_LIMIT[tier],
                     num_partitions=4, **kw)
            .to_pandas().sort_values("node").reset_index(drop=True))


@pytest.mark.parametrize("tier", ["broadcast", "dataset"])
def test_matches_sql_mirror(ray_session, tier):
    t = _random_edges(11)
    got = _run(t, tier)
    ref = _oracle(t, 3)
    assert got["node"].tolist() == ref["node"].tolist()
    assert got["rank_micro"].tolist() == ref["rank_micro"].tolist()


def test_backends_bit_identical(ray_session):
    t = _random_edges(12)
    a = _run(t, "broadcast")
    b = _run(t, "dataset")
    assert a["rank_micro"].tolist() == b["rank_micro"].tolist()


def test_weights_equal_parallel_edges(ray_session):
    """An edge with w=3 must behave exactly like three parallel
    edges."""
    raw = pa.table({"src": pa.array([0, 0, 0, 1], pa.int64()),
                    "dst": pa.array([1, 1, 1, 2], pa.int64())})
    agg = pa.table({"src": pa.array([0, 1], pa.int64()),
                    "dst": pa.array([1, 2], pa.int64()),
                    "w": pa.array([3, 1], pa.int64())})
    a = _run(raw, "broadcast")
    b = _run(agg, "broadcast", weight_col="w")
    assert a["rank_micro"].tolist() == b["rank_micro"].tolist()


def test_mass_conserved_up_to_floor_leak(ray_session):
    """Total rank stays within the floor-leak bound of scale: each of
    the k iterations loses < N + |E| + 2N units (per-node teleport and
    dangling floors, per-edge payout floors)."""
    t = _random_edges(13)
    got = _run(t, "broadcast")
    n_nodes = got.shape[0]
    n_edge_rows = 4000
    total = int(got["rank_micro"].sum())
    leak_bound = 3 * (3 * n_nodes + n_edge_rows)
    assert 10 ** 12 - leak_bound <= total <= 10 ** 12


def test_zero_iters_is_uniform(ray_session):
    t = _random_edges(14)
    got = _run(t, "broadcast", iters=0)
    n = got.shape[0]
    assert (got["rank_micro"] == 10 ** 12 // n).all()


def test_empty_edges(ray_session):
    t = pa.table({"src": pa.array([], pa.int64()),
                  "dst": pa.array([], pa.int64())})
    got = pagerank(rd.from_arrow(t), iters=3, num_partitions=4).to_pandas()
    assert got.empty


def test_dangling_mass_recycles(ray_session):
    """Chain 0→1→2: node 2 is dangling; its mass must come back via
    the dangling term (rank of 0 stays positive forever)."""
    t = pa.table({"src": pa.array([0, 1], pa.int64()),
                  "dst": pa.array([1, 2], pa.int64())})
    got = _run(t, "broadcast", iters=8)
    ranks = dict(zip(got["node"], got["rank_micro"]))
    assert ranks[0] > 10 ** 10  # ≫ 0: teleport + recycled dangling mass
    assert ranks[2] > ranks[0]  # sink accumulates the chain's flow
    ref = _oracle(t, 8)
    assert got["rank_micro"].tolist() == ref["rank_micro"].tolist()


# ---------------- HITS ----------------

from presto_bloomfilter_ray.functions import hits, hits_sql_mirror  # noqa: E402


def _hits_oracle(t: pa.Table, iters: int):
    con = duckdb.connect()
    con.register("raw", t)
    edges_sql = ("SELECT src, dst, CAST(count(*) AS BIGINT) AS w "
                 "FROM raw GROUP BY src, dst")
    return con.execute(hits_sql_mirror(edges_sql, iters=iters)).df()


def _hits_run(t, tier, iters=3, **kw):
    return (hits(rd.from_arrow(t), iters=iters,
                 broadcast_limit=_TIER_LIMIT[tier],
                 num_partitions=4, **kw)
            .to_pandas().sort_values("node").reset_index(drop=True))


@pytest.mark.parametrize("tier", ["broadcast", "dataset"])
def test_hits_matches_sql_mirror(ray_session, tier):
    t = _random_edges(21)
    got = _hits_run(t, tier)
    ref = _hits_oracle(t, 3)
    assert got["node"].tolist() == ref["node"].tolist()
    assert got["hub_score"].tolist() == ref["hub_score"].tolist()
    assert got["auth_score"].tolist() == ref["auth_score"].tolist()


def test_hits_backends_bit_identical(ray_session):
    t = _random_edges(22)
    a = _hits_run(t, "broadcast")
    b = _hits_run(t, "dataset")
    assert a["hub_score"].tolist() == b["hub_score"].tolist()
    assert a["auth_score"].tolist() == b["auth_score"].tolist()


def test_hits_star_graph(ray_session):
    """A star u→{v1..v9}: u is the only hub, the leaves split the
    authority mass ≈ evenly; leaves have zero hub score."""
    t = pa.table({"src": pa.array([0] * 9, pa.int64()),
                  "dst": pa.array(list(range(1, 10)), pa.int64())})
    got = _hits_run(t, "broadcast")
    hub = dict(zip(got["node"], got["hub_score"]))
    auth = dict(zip(got["node"], got["auth_score"]))
    assert hub[0] > 0 and all(hub[v] == 0 for v in range(1, 10))
    assert auth[0] == 0
    leaf_auths = {auth[v] for v in range(1, 10)}
    assert len(leaf_auths) == 1  # symmetric leaves, identical scores
    # division-first rescale normalizes to scale within a (1 ± 1/denom)
    # factor (denom = total // scale), not exactly ≤ scale
    assert 0.8 * 10 ** 6 < sum(auth.values()) < 1.25 * 10 ** 6


def test_hits_empty_edges(ray_session):
    t = pa.table({"src": pa.array([], pa.int64()),
                  "dst": pa.array([], pa.int64())})
    # to_pandas() on an empty Dataset drops the column schema (same
    # Ray behavior as test_empty_edges above) — check emptiness only
    got = hits(rd.from_arrow(t), iters=3, num_partitions=4).to_pandas()
    assert len(got) == 0


def test_hits_weights_equal_parallel_edges(ray_session):
    raw = pa.table({"src": pa.array([0, 0, 0, 1], pa.int64()),
                    "dst": pa.array([1, 1, 1, 2], pa.int64())})
    agg = pa.table({"src": pa.array([0, 1], pa.int64()),
                    "dst": pa.array([1, 2], pa.int64()),
                    "w": pa.array([3, 1], pa.int64())})
    a = _hits_run(raw, "broadcast")
    b = _hits_run(agg, "broadcast", weight_col="w")
    assert a["hub_score"].tolist() == b["hub_score"].tolist()
    assert a["auth_score"].tolist() == b["auth_score"].tolist()


# ---------------- personalized PageRank ----------------


def _ppr_oracle(t: pa.Table, iters: int, seeds):
    con = duckdb.connect()
    con.register("raw", t)
    edges_sql = ("SELECT src, dst, CAST(count(*) AS BIGINT) AS w "
                 "FROM raw GROUP BY src, dst")
    return con.execute(
        pagerank_sql_mirror(edges_sql, iters=iters, seeds=seeds)).df()


@pytest.mark.parametrize("tier", ["broadcast", "dataset"])
def test_personalized_matches_sql_mirror(ray_session, tier):
    t = _random_edges(31)
    seeds = [0, 5, 17, 105]  # 105 only appears as a destination
    got = _run(t, tier, seeds=seeds)
    ref = _ppr_oracle(t, 3, seeds)
    assert got["node"].tolist() == ref["node"].tolist()
    assert got["rank_micro"].tolist() == ref["rank_micro"].tolist()


def test_personalized_uniform_seed_set_equals_default(ray_session):
    """seeds = every node must reproduce the uniform recurrence
    bit-for-bit (the personalized formula degenerates to it)."""
    t = _random_edges(32)
    all_nodes = sorted(set(t.column("src").to_pylist())
                       | set(t.column("dst").to_pylist()))
    a = _run(t, "broadcast")
    b = _run(t, "broadcast", seeds=all_nodes)
    assert a["rank_micro"].tolist() == b["rank_micro"].tolist()


def test_personalized_mass_concentrates_on_seed_side(ray_session):
    """Chain 0→1→2→3: personalizing on 0 must rank 0 and its
    descendants above the same nodes in a reversed personalization."""
    t = pa.table({"src": pa.array([0, 1, 2], pa.int64()),
                  "dst": pa.array([1, 2, 3], pa.int64())})
    fwd = _run(t, "broadcast", seeds=[0]).set_index("node")["rank_micro"]
    rev = _run(t, "broadcast", seeds=[3]).set_index("node")["rank_micro"]
    assert fwd[0] > rev[0] and rev[3] > fwd[3]
    # non-seed, non-reachable-from-seed nodes hold no teleport mass
    assert rev[0] == 0  # node 0 has no in-edges and isn't the seed


def test_personalized_absent_seeds_raise(ray_session):
    t = _random_edges(33)
    with pytest.raises(ValueError, match="no seed"):
        _run(t, "broadcast", seeds=[10_000_000])
    with pytest.raises(ValueError, match="no seed"):
        _run(t, "dataset", seeds=[10_000_000])


# ---------------- triangle counting ----------------

from presto_bloomfilter_ray.functions import (  # noqa: E402
    triangle_count,
    triangle_count_sql,
)


def _tri_oracle(t: pa.Table) -> int:
    con = duckdb.connect()
    con.register("raw", t)
    return int(con.execute(
        triangle_count_sql("SELECT src, dst FROM raw")).fetchone()[0])


def test_triangle_known_graph(ray_session):
    # K4 has 4 triangles; direction/duplicates/self-loops must not matter
    src = [0, 0, 0, 1, 1, 2, 2, 3, 0]
    dst = [1, 2, 3, 2, 3, 3, 1, 3, 0]  # (2,1) dup of (1,2); (3,3)... keep
    t = pa.table({"src": pa.array(src, pa.int64()),
                  "dst": pa.array(dst, pa.int64())})
    got = triangle_count(rd.from_arrow(t), num_partitions=4)
    assert got == 4 == _tri_oracle(t)


@pytest.mark.parametrize("tier_limit", [2_000_000, 1])
def test_triangle_random_matches_oracle(ray_session, tier_limit):
    """Both the broadcast-degree tier and the join tier (forced via
    broadcast_limit=1) must match the SQL oracle exactly."""
    t = _random_edges(41, n_edges=3000, n_src=60, n_dst=70)
    got = triangle_count(rd.from_arrow(t), num_partitions=4,
                         broadcast_limit=tier_limit)
    assert got == _tri_oracle(t)


def test_triangle_hub_star_has_none(ray_session):
    """A pure star (hub → leaves) has no triangles AND must not emit a
    quadratic wedge set from the hub: degree orientation points every
    edge INTO the hub, so leaves (degree 1) emit nothing."""
    t = pa.table({"src": pa.array([0] * 50, pa.int64()),
                  "dst": pa.array(list(range(1, 51)), pa.int64())})
    assert triangle_count(rd.from_arrow(t), num_partitions=4) == 0


def test_triangle_empty_and_ids_guard(ray_session):
    e = pa.table({"src": pa.array([], pa.int64()),
                  "dst": pa.array([], pa.int64())})
    assert triangle_count(rd.from_arrow(e), num_partitions=4) == 0
    big = pa.table({"src": pa.array([1 << 31], pa.int64()),
                    "dst": pa.array([1], pa.int64())})
    with pytest.raises(Exception, match="2\\^31"):
        triangle_count(rd.from_arrow(big), num_partitions=4)


# ---------------- k-core ----------------

from presto_bloomfilter_ray.functions import kcore, kcore_sql  # noqa: E402


def _kcore_oracle(t: pa.Table, k: int, rounds: int = 8):
    con = duckdb.connect()
    con.register("raw", t)
    return con.execute(
        kcore_sql("SELECT src, dst FROM raw", k, max_rounds=rounds)).df()


def _kcore_run(t, k, **kw):
    return (kcore(rd.from_arrow(t), k, num_partitions=4, **kw)
            .to_pandas().sort_values("node").reset_index(drop=True))


def test_kcore_known_graph(ray_session):
    """K4 plus a pendant path: the 3-core is exactly the K4 (deg 3
    each); the path peels away."""
    src = [0, 0, 0, 1, 1, 2, 3, 4]
    dst = [1, 2, 3, 2, 3, 3, 4, 5]
    t = pa.table({"src": pa.array(src, pa.int64()),
                  "dst": pa.array(dst, pa.int64())})
    got = _kcore_run(t, 3)
    assert got["node"].tolist() == [0, 1, 2, 3]
    assert got["deg"].tolist() == [3, 3, 3, 3]
    ref = _kcore_oracle(t, 3)
    assert got["node"].tolist() == ref["node"].tolist()
    assert got["deg"].tolist() == ref["deg"].tolist()


@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("tier_limit", [2_000_000, 1])
def test_kcore_random_matches_oracle(ray_session, k, tier_limit):
    t = _random_edges(51, n_edges=2500, n_src=70, n_dst=80)
    got = kcore(rd.from_arrow(t), k, num_partitions=4,
                broadcast_limit=tier_limit).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)
    ref = _kcore_oracle(t, k)
    assert got["node"].tolist() == ref["node"].tolist()
    assert got["deg"].tolist() == ref["deg"].tolist()


def test_kcore_path_hits_round_guard(ray_session):
    """A 30-path with k=2 peels one layer from each end per round —
    it cannot converge in 3 rounds and must raise LOUDLY (silent
    truncation would disagree with the oracle)."""
    n = 30
    t = pa.table({"src": pa.array(list(range(n - 1)), pa.int64()),
                  "dst": pa.array(list(range(1, n)), pa.int64())})
    with pytest.raises(RuntimeError, match="fixpoint"):
        kcore(rd.from_arrow(t), 2, num_partitions=4, max_rounds=3)
    # with enough rounds the 2-core of a path is empty
    got = kcore(rd.from_arrow(t), 2, num_partitions=4,
                max_rounds=20).to_pandas()
    assert len(got) == 0


def test_kcore_everything_survives(ray_session):
    """A triangle is its own 2-core — zero peeling, early fixpoint."""
    t = pa.table({"src": pa.array([0, 1, 2], pa.int64()),
                  "dst": pa.array([1, 2, 0], pa.int64())})
    got = _kcore_run(t, 2)
    assert got["node"].tolist() == [0, 1, 2]
    assert got["deg"].tolist() == [2, 2, 2]


# ---------------------------------------------------------------- BFS

from presto_bloomfilter_ray.functions import bfs_distances, bfs_sql  # noqa: E402


def _bfs_oracle(t: pa.Table, seeds, hops, directed=True):
    con = duckdb.connect()
    con.register("edges_t", t)
    return con.execute(bfs_sql("SELECT src, dst FROM edges_t", seeds,
                               max_hops=hops, directed=directed)).df()


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("hops", [0, 1, 3, 6])
def test_bfs_matches_sql_mirror(ray_session, directed, hops):
    t = _random_edges(11, n_edges=2000, n_src=300, n_dst=300)
    got = (bfs_distances(rd.from_arrow(t), [3, 7, 42], max_hops=hops,
                         directed=directed, num_partitions=4)
           .to_pandas().sort_values("node").reset_index(drop=True))
    ref = _bfs_oracle(t, [3, 7, 42], hops, directed)
    pd.testing.assert_frame_equal(got, ref, check_dtype=True)


def test_bfs_path_graph_exact_distances(ray_session):
    """0→1→…→9: dist(v) = v; max_hops beyond the diameter is the
    identity (early fixpoint, the kcore contract)."""
    t = pa.table({"src": pa.array(list(range(9)), pa.int64()),
                  "dst": pa.array(list(range(1, 10)), pa.int64())})
    got = (bfs_distances(rd.from_arrow(t), [0], max_hops=25,
                         num_partitions=4)
           .to_pandas().sort_values("node"))
    assert got["dist"].tolist() == list(range(10))


def test_bfs_isolated_seed_reports_dist_zero(ray_session):
    """A seed absent from the edge table is still dist 0 (the SQL
    mirror's d0 semantics)."""
    t = _random_edges(5, n_edges=200, n_src=50, n_dst=50)
    got = (bfs_distances(rd.from_arrow(t), [99_999], max_hops=3,
                         num_partitions=4).to_pandas())
    assert got["node"].tolist() == [99_999]
    assert got["dist"].tolist() == [0]
    ref = _bfs_oracle(t, [99_999], 3)
    pd.testing.assert_frame_equal(
        got.sort_values("node").reset_index(drop=True), ref,
        check_dtype=True)


def test_bfs_undirected_reaches_backwards(ray_session):
    """Edge 5→3 only: directed BFS from 3 stays put, undirected walks
    the reverse edge."""
    t = pa.table({"src": pa.array([5], pa.int64()),
                  "dst": pa.array([3], pa.int64())})
    d = bfs_distances(rd.from_arrow(t), [3], max_hops=2,
                      num_partitions=2).to_pandas()
    assert d["node"].tolist() == [3]
    u = (bfs_distances(rd.from_arrow(t), [3], max_hops=2, directed=False,
                       num_partitions=2).to_pandas().sort_values("node"))
    assert u["node"].tolist() == [3, 5]
    assert u["dist"].tolist() == [0, 1]


def test_bfs_min_distance_wins_on_multi_source(ray_session):
    """Two seeds on a path: every node takes the NEARER seed."""
    t = pa.table({"src": pa.array(list(range(9)), pa.int64()),
                  "dst": pa.array(list(range(1, 10)), pa.int64())})
    got = (bfs_distances(rd.from_arrow(t), [0, 9], max_hops=25,
                         num_partitions=4)
           .to_pandas().sort_values("node"))
    ref = _bfs_oracle(t, [0, 9], 25)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), ref, check_dtype=True)
    assert got["dist"].max() == 8  # node 8 is 8 hops from seed 0

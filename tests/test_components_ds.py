"""Fully distributed connected components (labels-as-Dataset backend)
and the zero-driver-state minhash dedup path built on it."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from presto_bloomfilter_ray.functions import (
    connected_components,
    connected_components_ds,
    minhash_dedup,
)


def _random_graph(n_nodes, n_edges, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    b = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    keep = a != b
    return pd.DataFrame({"a": a[keep], "b": b[keep]})


@pytest.mark.parametrize("seed,n_nodes,n_edges", [
    (1, 50, 40),      # forest of small components
    (2, 200, 400),    # mostly one giant component
    (3, 1000, 300),   # many singleton-ish pieces
])
def test_ds_backend_matches_driver_backend(ray_session, seed, n_nodes, n_edges):
    import ray.data as rd

    edges = _random_graph(n_nodes, n_edges, seed)
    ref = connected_components(edges).sort_values("node").reset_index(drop=True)
    got = (connected_components_ds(rd.from_pandas(edges), n_parts=8)
           .to_pandas().sort_values("node").reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got.astype("int64"), ref.astype("int64"))


def test_ds_backend_chain_and_star(ray_session):
    """Worst-case diameter (a path graph) and best-case (a star) both
    converge to the component minimum."""
    import ray.data as rd

    chain = pd.DataFrame({"a": np.arange(30, dtype=np.int64),
                          "b": np.arange(1, 31, dtype=np.int64)})
    out = connected_components_ds(rd.from_pandas(chain), n_parts=4).to_pandas()
    assert (out["component"] == 0).all() and len(out) == 31
    star = pd.DataFrame({"a": np.full(20, 100, dtype=np.int64),
                         "b": np.arange(101, 121, dtype=np.int64)})
    out2 = connected_components_ds(rd.from_pandas(star), n_parts=4).to_pandas()
    assert (out2["component"] == 100).all() and len(out2) == 21


def test_ds_backend_empty_edges(ray_session):
    import ray.data as rd

    empty = rd.from_pandas(pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                         "b": pd.Series([], dtype="int64")}))
    out = connected_components_ds(empty).to_pandas()
    assert len(out) == 0


def test_minhash_dedup_dataset_backend_matches_driver(ray_session, tmp_path):
    """cc_backend='dataset': clustering AND removal run with zero
    driver state; kept rows must match the driver backend exactly and
    the returned labels Dataset must agree with dup_map."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    vocab = [f"tok{j}" for j in range(300)]
    texts = [" ".join(rng.choice(vocab, size=30)) for _ in range(40)]
    rows = [{"doc_id": i, "text": texts[int(rng.integers(0, 40))]}
            for i in range(250)]
    ds = rd.from_items(rows).repartition(5)
    kept_drv, dup_map = minhash_dedup(ds, threshold=0.9)
    kept_ds, labels = minhash_dedup(ds, threshold=0.9, cc_backend="dataset",
                                    work_dir=str(tmp_path / "cc-shards"))
    ids_drv = sorted(r["doc_id"] for r in kept_drv.take_all())
    ids_ds = sorted(r["doc_id"] for r in kept_ds.take_all())
    assert ids_ds == ids_drv
    lab_df = labels.to_pandas()
    got_map = dict(zip(lab_df["node"].astype(int),
                       lab_df["component"].astype(int)))
    assert got_map == dup_map


def test_minhash_dedup_unknown_backend_raises(ray_session):
    import ray.data as rd

    ds = rd.from_items([{"doc_id": 0, "text": "x"}])
    with pytest.raises(ValueError):
        minhash_dedup(ds, cc_backend="nope")


def test_pointer_jumping_beats_diameter(ray_session):
    """Pointer jumping converges path graphs in O(log d) rounds: a
    200-node chain with max_iters=20 (<< diameter) succeeds on both
    backends; on the Dataset backend, a max_iters below the rounds the
    chain needs raises instead of silently returning wrong labels."""
    import ray.data as rd

    chain = pd.DataFrame({"a": np.arange(200, dtype=np.int64),
                          "b": np.arange(1, 201, dtype=np.int64)})
    drv = connected_components(chain, max_iters=20)
    assert (drv["component"] == 0).all() and len(drv) == 201
    dsb = connected_components_ds(rd.from_pandas(chain), max_iters=20,
                                  n_parts=4).to_pandas()
    assert (dsb["component"] == 0).all() and len(dsb) == 201
    with pytest.raises(RuntimeError, match="converge"):
        connected_components_ds(rd.from_pandas(chain), max_iters=3,
                                n_parts=4)

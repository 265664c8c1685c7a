"""Sharded anti-join removal — the dedup scale path (round-2 verdict #1).

Above ``broadcast_limit`` the removed-id / keep-map table is hash-
partitioned into sorted parquet shards written DISTRIBUTED, and the
filter stage loads only the shards each batch touches — replacing the
driver-set + per-task broadcast that cannot survive web-scale
duplication rates. These tests prove the shard path kicks in and is
bit-identical to the broadcast path on a high-duplication corpus.
"""

import os

import numpy as np
import pytest

from presto_bloomfilter_ray.functions import exact_dedup, minhash_dedup
from presto_bloomfilter_ray.functions.dedup import _min_bands_screen
from presto_bloomfilter_ray.functions.keyset import (
    _n_shards_for,
    _pow2,
    _shard_lookup,
    _write_key_shards,
)


def _all_shards(root):
    out = []
    for dirpath, _, files in os.walk(root):
        out.extend(os.path.join(dirpath, f) for f in files
                   if f.endswith(".parquet"))
    return out


def _high_dup_corpus(n_docs=600, n_distinct=80, seed=11):
    """~87% duplicate corpus: every distinct text repeated many times.
    Distinct texts are genuinely dissimilar (random word draws), so
    LSH buckets stay within exact-dup groups."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{j:03d}" for j in range(400)]
    texts = [" ".join(rng.choice(vocab, size=40, replace=True))
             for _ in range(n_distinct)]
    rows = [{"doc_id": i, "text": texts[int(rng.integers(0, n_distinct))]}
            for i in range(n_docs)]
    return rows


def test_exact_dedup_sharded_matches_broadcast(ray_session, tmp_path):
    import ray.data as rd

    rows = _high_dup_corpus()
    ds = rd.from_items(rows).repartition(7)
    kept_bcast = sorted(r["doc_id"] for r in exact_dedup(
        ds, broadcast_limit=10**9).take_all())
    work = str(tmp_path / "exact-shards")
    kept_shard = sorted(r["doc_id"] for r in exact_dedup(
        ds, broadcast_limit=0, work_dir=work).take_all())
    assert kept_shard == kept_bcast
    assert len(kept_shard) == 80  # one per distinct text
    # the shard path actually ran: shards exist on disk (each build
    # writes into a fresh uuid subdirectory of work_dir)
    shards = [f for f in _all_shards(work)]
    assert len(shards) >= 8


def test_minhash_dedup_sharded_matches_broadcast(ray_session, tmp_path):
    import ray.data as rd

    rows = _high_dup_corpus(n_docs=300, n_distinct=30)
    ds = rd.from_items(rows).repartition(5)
    kept_bcast, map_bcast = minhash_dedup(ds, threshold=0.9,
                                          broadcast_limit=10**9)
    work = str(tmp_path / "mh-shards")
    kept_shard, map_shard = minhash_dedup(ds, threshold=0.9,
                                          broadcast_limit=0, work_dir=work)
    ids_b = sorted(r["doc_id"] for r in kept_bcast.take_all())
    ids_s = sorted(r["doc_id"] for r in kept_shard.take_all())
    assert ids_s == ids_b
    assert map_shard == map_bcast
    assert len(ids_s) <= 30 + 5  # near-dup collapse bounded by distinct count
    shards = [f for f in _all_shards(work)]
    assert len(shards) >= 8


def test_shard_lookup_roundtrip(ray_session, tmp_path):
    """Direct contract of the shard machinery: membership + keep values
    survive the distributed write, including negative hash keys."""
    import pyarrow as pa

    import ray.data as rd

    keys = np.array([-(2**62) - 5, -17, 0, 3, 9, 2**62 + 1], dtype=np.int64)
    keeps = np.arange(100, 106, dtype=np.int64)
    work = str(tmp_path / "kv")
    _write_key_shards(
        rd.from_arrow(pa.table({"key": keys, "keep": keeps})),
        work, n_shards=8, has_keep=True)
    probe = np.array([-17, 4, 2**62 + 1, 0, 12345], dtype=np.int64)
    found, keep = _shard_lookup(probe, work, 8, has_keep=True)
    assert found.tolist() == [True, False, True, True, False]
    assert keep[found].tolist() == [101, 105, 102]


def test_work_dir_reuse_is_safe(ray_session, tmp_path):
    """Reusing one work_dir across builds with DIFFERENT data must not
    serve stale shards (each build writes a fresh uuid subdirectory;
    a stale shard for a now-empty part would silently drop rows, and
    the per-worker cache is keyed by directory)."""
    import ray.data as rd

    work = str(tmp_path / "shared-work")
    # build 1: heavy duplication — many shards with many keys
    ds1 = rd.from_items(_high_dup_corpus(n_docs=400, n_distinct=20, seed=1))
    out1 = sorted(r["doc_id"] for r in exact_dedup(
        ds1, broadcast_limit=0, work_dir=work).take_all())
    assert len(out1) == 20
    # build 2, SAME work_dir: all-unique corpus — nothing may be dropped
    rows2 = [{"doc_id": i, "text": f"completely unique body {i}"}
             for i in range(100)]
    ds2 = rd.from_items(rows2)
    deduped2 = exact_dedup(ds2, broadcast_limit=0, work_dir=work)
    # no duplicate groups → exact_dedup short-circuits; every row kept
    assert sorted(r["doc_id"] for r in deduped2.take_all()) == list(range(100))
    # build 3, SAME work_dir: a different duplicate structure
    rows3 = [{"doc_id": i, "text": f"t{i % 7}"} for i in range(70)]
    out3 = sorted(r["doc_id"] for r in exact_dedup(
        rd.from_items(rows3), broadcast_limit=0,
        work_dir=work).take_all())
    assert out3 == list(range(7))


def test_pow2_and_shard_sizing():
    assert [_pow2(n) for n in (1, 2, 3, 48, 64, 65)] == [1, 2, 4, 64, 64, 128]
    assert _n_shards_for(10) == 8
    assert _n_shards_for(50_000_000) == 32  # ~2M entries per shard
    assert _n_shards_for(10**11) == 4096  # capped


def test_min_bands_screen_derivation():
    """Screen strength from the exact binomial tail + deterministic cap
    (round-2 advice: the fixed rule's tail claim was off ~5 orders)."""
    from math import comb

    for bands, num_perm, min_est in [(32, 128, 0.8), (32, 128, 0.9),
                                     (16, 64, 0.7), (8, 128, 0.95)]:
        m = _min_bands_screen(bands, num_perm, min_est)
        r = num_perm // bands
        p = min_est ** r
        # tail: P(Binom(bands, p) < m) < 1e-5 at exactly the threshold.
        # m == 1 is 'no screen' (a candidate needs >= 1 collision to
        # exist at all) — its tail is LSH's inherent recall, not the
        # screen's drop probability.
        if m > 1:
            tail = sum(comb(bands, j) * p**j * (1 - p) ** (bands - j)
                       for j in range(m))
            assert tail < 1e-5
        # deterministic cap: any pair passing est >= min_est has at
        # least bands - ceil((1-min_est)*num_perm) intact bands
        assert m <= max(1, bands - int(np.ceil((1 - min_est) * num_perm)))
        assert m >= 1


@pytest.mark.parametrize("n_parts", [48, 100])
def test_non_pow2_parts_are_rounded(ray_session, monkeypatch, n_parts):
    """Non-power-of-two n_parts must not silently skew bucketing
    (round-2 advice: '& (n-1)' with n=48 reaches only 32 buckets).
    One row per partition lets these 21 docs reach the full n_parts
    width instead of the single partition their size would get."""
    import ray.data as rd

    from presto_bloomfilter_ray.functions import fold, lsh_candidate_pairs

    monkeypatch.setattr(fold, "ROWS_PER_PART", 1)

    rows = [{"doc_id": i, "text": f"totally unique text {i} " * 10}
            for i in range(20)]
    rows.append({"doc_id": 100, "text": rows[0]["text"]})
    ds = rd.from_items(rows)
    edges = lsh_candidate_pairs(ds, min_est=0.9, n_parts=n_parts).to_pandas()
    assert (0, 100) in set(zip(edges["a"], edges["b"]))


def test_shard_lookup_fuzz_no_ray(tmp_path):
    """Property check of the lookup math against a Python dict oracle —
    shards written directly (no Ray), random int64 keys incl. negatives
    and boundary values."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60,
                      unique=True),
        probes=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60),
        n_shards=st.sampled_from([1, 2, 8, 64]),
    )
    def check(keys, probes, n_shards):
        import json
        import tempfile

        d = tempfile.mkdtemp(dir=str(tmp_path))
        keeps = {k: i for i, k in enumerate(keys)}
        arr = np.array(keys, dtype=np.int64)
        parts = arr & np.int64(n_shards - 1)
        manifest = {"n_shards": n_shards, "has_keep": True, "parts": {}}
        for p in np.unique(parts):
            m = parts == p
            order = np.argsort(arr[m])
            pq.write_table(
                pa.table({"key": pa.array(arr[m][order]),
                          "keep": pa.array(
                              np.array([keeps[k] for k in arr[m][order]],
                                       dtype=np.int64))}),
                os.path.join(d, f"shard-{int(p):05d}.parquet"))
            manifest["parts"][str(int(p))] = int(m.sum())
        with open(os.path.join(d, "MANIFEST.json"), "w") as f:
            json.dump(manifest, f)
        pr = np.array(probes, dtype=np.int64)
        found, keep = _shard_lookup(pr, d, n_shards, has_keep=True)
        for i, k in enumerate(probes):
            assert bool(found[i]) == (k in keeps)
            if found[i]:
                assert keep[i] == keeps[k]

    check()


def test_manifest_makes_missing_state_loud(ray_session, tmp_path):
    """A worker that cannot see the manifest must RAISE, not silently
    treat every shard as empty (multi-node non-shared work_dir hazard)."""
    import pyarrow as pa
    import ray.data as rd

    from presto_bloomfilter_ray.functions.keyset import (
        _MANIFEST_NAME,
        _load_manifest,
        _MANIFEST_CACHE,
    )

    work = str(tmp_path / "kv2")
    _write_key_shards(
        rd.from_arrow(pa.table({"key": np.arange(10, dtype=np.int64)})),
        work, n_shards=4, has_keep=False)
    # manifest present: a part absent from it is a genuinely empty part
    m = _load_manifest(work)
    assert m["n_shards"] == 4 and sum(m["parts"].values()) == 10
    os.remove(os.path.join(work, _MANIFEST_NAME))
    _MANIFEST_CACHE.pop(work, None)
    with pytest.raises(FileNotFoundError, match="manifest missing"):
        _shard_lookup(np.array([1, 2], dtype=np.int64), work, 4,
                      has_keep=False)


def test_co_partitioned_anti_join_matches_map_only(ray_session, tmp_path):
    """The corpus-shuffle plan (the >cache-cap regime) must produce the
    same rows as the map-only lookup plan, for both dedup variants."""
    import ray.data as rd

    rows = _high_dup_corpus(n_docs=500, n_distinct=60, seed=3)
    ds = rd.from_items(rows).repartition(6)
    a = sorted(r["doc_id"] for r in exact_dedup(
        ds, broadcast_limit=0, work_dir=str(tmp_path / "a"),
        co_partition=False).take_all())
    b = sorted(r["doc_id"] for r in exact_dedup(
        ds, broadcast_limit=0, work_dir=str(tmp_path / "b"),
        co_partition=True).take_all())
    assert a == b and len(a) == 60
    m1, _ = minhash_dedup(ds, threshold=0.9, broadcast_limit=0,
                          work_dir=str(tmp_path / "c"), co_partition=False)
    m2, _ = minhash_dedup(ds, threshold=0.9, broadcast_limit=0,
                          work_dir=str(tmp_path / "d"), co_partition=True)
    assert (sorted(r["doc_id"] for r in m1.take_all())
            == sorted(r["doc_id"] for r in m2.take_all()))


def test_cleanup_shard_dirs(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data as rd

    from presto_bloomfilter_ray.functions import cleanup_shard_dirs

    work = str(tmp_path / "kv3")
    _write_key_shards(
        rd.from_arrow(pa.table({"key": np.arange(5, dtype=np.int64)})),
        work, n_shards=2, has_keep=False)
    assert os.path.exists(work)
    removed = cleanup_shard_dirs()
    assert work in removed and not os.path.exists(work)


def test_exact_then_minhash_composition_preserves_semantics(ray_session):
    """exact_dedup -> minhash_dedup keeps exactly the rows a direct
    minhash_dedup keeps (a component's min id is always an exact-group
    representative) — the documented mirror-heavy-corpus fast path."""
    import ray.data as rd

    rng = np.random.default_rng(21)
    vocab = [f"t{j:03d}" for j in range(300)]
    base = [" ".join(rng.choice(vocab, size=35)) for _ in range(25)]
    # near-dup variants of some texts + heavy exact duplication of all
    variants = [t.replace(vocab[0], vocab[1]) if vocab[0] in t else t + " zz"
                for t in base[:10]]
    pool = base + variants
    rows = [{"doc_id": i, "text": pool[int(rng.integers(0, len(pool)))]}
            for i in range(400)]
    ds = rd.from_items(rows).repartition(5)
    direct, _ = minhash_dedup(ds, threshold=0.7)
    composed, _ = minhash_dedup(exact_dedup(ds), threshold=0.7)
    assert (sorted(r["doc_id"] for r in composed.take_all())
            == sorted(r["doc_id"] for r in direct.take_all()))

"""Persistent incremental MinHash-LSH index contracts."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from presto_bloomfilter_ray.functions import (
    minhash_index_append,
    minhash_index_build,
    minhash_index_dedup,
    minhash_index_probe,
    repair_index,
)

WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
         "hotel", "india", "juliet", "kilo", "lima", "mike", "november"]


def _doc(rng, n=60):
    return " ".join(rng.choice(WORDS, size=n))


def _perturb(rng, text, k=3):
    toks = text.split()
    for i in rng.choice(len(toks), size=k, replace=False):
        toks[i] = rng.choice(WORDS)
    return " ".join(toks)


def _corpus(seed=0, n=40):
    rng = np.random.default_rng(seed)
    return [_doc(rng) for _ in range(n)]


def test_index_build_probe_append(ray_session, tmp_path):
    import ray.data as rd

    rng = np.random.default_rng(1)
    base = _corpus(seed=2)
    idx_dir = str(tmp_path / "idx")
    corpus = pa.table({"doc_id": pa.array(range(len(base)), pa.int64()),
                       "text": pa.array(base)})
    m = minhash_index_build(rd.from_arrow(corpus).repartition(3), idx_dir)
    assert m["n_docs"] == len(base) and m["gen"] == 1

    # increment: 3 exact copies, 3 light perturbations, 4 fresh docs
    new_texts = ([base[i] for i in (0, 5, 9)] +
                 [_perturb(rng, base[i]) for i in (1, 6, 11)] +
                 [_doc(rng) for _ in range(4)])
    new_ids = list(range(100, 100 + len(new_texts)))
    new = pa.table({"doc_id": pa.array(new_ids, pa.int64()),
                    "text": pa.array(new_texts)})
    new_ds = rd.from_arrow(new).repartition(2)

    matches = minhash_index_probe(new_ds, idx_dir, threshold=0.95).to_pandas()
    got = dict(zip(matches["doc_id"].astype(int),
                   matches["match_id"].astype(int)))
    # exact copies share every band -> guaranteed match at est 1.0
    assert got[100] == 0 and got[101] == 5 and got[102] == 9
    assert (matches.loc[matches["doc_id"] <= 102, "est_jaccard"] == 1.0).all()
    # fresh random docs never reach est 0.95
    assert not (matches["doc_id"] >= 106).any()

    novel, mm = minhash_index_dedup(new_ds, idx_dir, threshold=0.95)
    kept = sorted(r["doc_id"] for r in novel.take_all())
    matched = set(mm.to_pandas()["doc_id"].astype(int))
    assert set(kept) | matched == set(new_ids)
    assert set(kept) & matched == set()
    assert {100, 101, 102} <= matched

    # append commits a new generation; appended docs now self-match
    m2 = minhash_index_append(new_ds, idx_dir)
    assert m2["gen"] == 2 and m2["n_docs"] == len(base) + len(new_texts)
    re_m = minhash_index_probe(rd.from_arrow(new), idx_dir,
                               threshold=0.95).to_pandas()
    self_rows = re_m[re_m["doc_id"] == re_m["match_id"]]
    assert set(self_rows["doc_id"].astype(int)) == set(new_ids)
    assert (self_rows["est_jaccard"] == 1.0).all()


def test_index_crash_append_invisible_and_repair(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    base = _corpus(seed=3, n=10)
    idx_dir = str(tmp_path / "idx")
    corpus = pa.table({"doc_id": pa.array(range(10), pa.int64()),
                       "text": pa.array(base)})
    minhash_index_build(rd.from_arrow(corpus), idx_dir,
                        band_shards=4, sig_shards=4)

    # simulate a crashed append: gen-2 band + sig chunks for ghost doc
    # 999 (same content as base[0]) exist, but the manifest still says
    # gen 1 -> the ghost must be invisible to probes
    from presto_bloomfilter_ray.functions.dedup import MinHasher
    from presto_bloomfilter_ray.functions.dedup_index import _read_manifest, _write_manifest

    mh = MinHasher(128, 32, 5)
    sig = mh.signatures(pa.array([base[0]]))
    bh = mh.band_hashes(sig).reshape(-1).astype(np.int64)
    fake_paths = []
    for h in np.unique(bh & 3):
        pdir = os.path.join(idx_dir, "bands", f"part-{int(h):05d}")
        os.makedirs(pdir, exist_ok=True)
        sel = bh[(bh & 3) == h]
        t = pa.table({"band_hash": pa.array(np.sort(sel)),
                      "doc_id": pa.array(np.full(len(sel), 999, np.int64))})
        fp = os.path.join(pdir, "chunk-g0002-deadbeef.parquet")
        pq.write_table(t, fp)
        fake_paths.append(fp)
    pdir = os.path.join(idx_dir, "sigs", "part-00003")  # 999 & 3
    os.makedirs(pdir, exist_ok=True)
    fake = pa.table({
        "doc_id": pa.array([999], pa.int64()),
        "sig": pa.FixedSizeListArray.from_arrays(
            pa.array((sig[0] & np.uint64(0xFFFF)).astype(np.uint16)), 128),
    })
    fp = os.path.join(pdir, "chunk-g0002-deadbeef.parquet")
    pq.write_table(fake, fp)
    fake_paths.append(fp)

    probe_doc = pa.table({"doc_id": pa.array([777], pa.int64()),
                          "text": pa.array([base[0]])})
    m = minhash_index_probe(rd.from_arrow(probe_doc), idx_dir,
                            threshold=0.9).to_pandas()
    assert 999 not in set(m["match_id"].astype(int))  # ghost gen ignored
    assert 0 in set(m["match_id"].astype(int))        # committed doc found

    # committing the generation (what a completed append does) flips
    # the ghost visible — proves gen-gating, not chunk loss
    man = _read_manifest(idx_dir)
    man["gen"] = 2
    _write_manifest(idx_dir, man)
    m2 = minhash_index_probe(rd.from_arrow(probe_doc), idx_dir,
                             threshold=0.9).to_pandas()
    assert 999 in set(m2["match_id"].astype(int))

    man["gen"] = 1
    _write_manifest(idx_dir, man)
    assert sorted(repair_index(idx_dir)) == sorted(fake_paths)
    assert not os.path.exists(fp)
    assert repair_index(idx_dir) == []  # healthy index: no-op

    with pytest.raises(FileExistsError):
        minhash_index_build(rd.from_arrow(corpus), idx_dir)


def test_index_hot_bucket_cap_and_sharded_dedup(ray_session, tmp_path):
    import ray.data as rd

    # 30 identical docs in the index: every band bucket has 30 entries.
    # With max_per_band=4 a matching probe must still verify (the cap
    # limits fan-out, not recall of "any match").
    text = _doc(np.random.default_rng(7))
    idx_dir = str(tmp_path / "hot")
    corpus = pa.table({"doc_id": pa.array(range(30), pa.int64()),
                       "text": pa.array([text] * 30)})
    minhash_index_build(rd.from_arrow(corpus), idx_dir)
    probe = pa.table({"doc_id": pa.array([500], pa.int64()),
                      "text": pa.array([text])})
    m = minhash_index_probe(rd.from_arrow(probe), idx_dir, threshold=0.9,
                            max_per_band=4).to_pandas()
    assert len(m) >= 1 and (m["est_jaccard"] == 1.0).all()
    assert len(m) <= 4  # fan-out bounded by the cap, not bucket size

    # forced sharded anti-join path == broadcast path
    novel_b, _ = minhash_index_dedup(rd.from_arrow(probe), idx_dir,
                                     threshold=0.9)
    novel_s, _ = minhash_index_dedup(rd.from_arrow(probe), idx_dir,
                                     threshold=0.9, broadcast_limit=0,
                                     work_dir=str(tmp_path / "aj"))
    assert (sorted(r["doc_id"] for r in novel_b.take_all())
            == sorted(r["doc_id"] for r in novel_s.take_all()) == [])


def test_index_other_version_refused_before_any_write(ray_session, tmp_path):
    """A manifest of another format version (v1 held 128-permutation
    signatures, which do not compare with one-permutation ones) is
    refused by append, probe and dedup — before any chunk is written."""
    import json

    import ray.data as rd

    idx_dir = str(tmp_path / "old")
    corpus = pa.table({"doc_id": pa.array(range(8), pa.int64()),
                       "text": pa.array(_corpus(seed=5, n=8))})
    assert minhash_index_build(rd.from_arrow(corpus), idx_dir)["version"] == 2
    path = os.path.join(idx_dir, "MANIFEST.json")
    with open(path) as f:
        man = json.load(f)
    man["version"] = 1
    with open(path, "w") as f:
        json.dump(man, f)

    def listing():
        return sorted((root, tuple(sorted(files)))
                      for root, _, files in os.walk(idx_dir))

    before = listing()
    more = pa.table({"doc_id": pa.array([100, 101], pa.int64()),
                     "text": pa.array(_corpus(seed=6, n=2))})
    for call in (lambda: minhash_index_append(rd.from_arrow(more), idx_dir),
                 lambda: minhash_index_probe(rd.from_arrow(more), idx_dir),
                 lambda: minhash_index_dedup(rd.from_arrow(more), idx_dir)):
        with pytest.raises(ValueError, match=r"version 1.*version 2.*rebuild"):
            call()
    assert listing() == before
    with open(path) as f:
        assert json.load(f) == man

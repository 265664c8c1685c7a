"""Persistent incremental MinHash-LSH dedup index.

The batch :func:`~.dedup.minhash_dedup` answers "which docs in THIS
corpus duplicate each other". Continuous web-scale ingestion needs the
other question: "which of these NEW docs near-duplicate anything we
already kept" — without re-signing the whole corpus per increment.
This module persists the LSH state once and probes increments against
it, the near-dup analog of the reference's Bloom build → persist →
probe-later loop (reference: BloomFilterPersist + bloom_filter_load,
persist-service/server.go PUT/GET semantics, re-expressed for
signatures instead of bitsets).

On-disk layout (all writes atomic tmp+rename, manifest written LAST):

    index_dir/
      MANIFEST.json                      params + n_docs + generation
      bands/part-00042/chunk-g0001-<uuid>.parquet   (band_hash, doc_id)
      sigs/part-00007/chunk-g0001-<uuid>.parquet    (doc_id, sig u16[P])

Both tables are hash-partitioned (``key & (shards-1)``) so a probe
partition touches exactly one shard directory; chunks-per-shard makes
:func:`minhash_index_append` a pure chunk write — no shard rewrite.
Crash contract: every chunk carries its generation in the filename and
readers only load ``gen <= manifest.gen``, so a crashed append is
invisible; rerun :func:`repair_index` then retry it.

Scale shape of :func:`minhash_index_probe` (the hot path):

* signatures of the increment: one vectorized stateless pass
  (:meth:`~.dedup.MinHasher.sign`), materialized as a spillable Dataset;
* band join: increment band rows ``(new_id, band_hash)`` — ~16 B each —
  are co-partitioned with the index's band shards; each partition does
  one sorted ``searchsorted`` probe against its (worker-LRU-cached)
  shard, emitting id-pair candidates capped at ``max_per_band`` per
  (row, band) so a template-spam bucket cannot go quadratic;
* verification: phase A attaches the increment signature to each
  deduped candidate with :func:`~.fold.co_attach`, as
  :func:`~.dedup._verify_pairs` does (one signature crosses the wire
  per edge); phase B co-partitions candidates with the index's SIG shards
  and estimates Jaccard from the stored truncated signatures. Neither
  signatures nor candidates ever touch the driver.
"""

from __future__ import annotations

import json
import os
import re
import uuid
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .dedup import (MinHasher, _band_screen, _min_bands_screen, _sig_array,
                    _sig_matrix, _sig_type)
from .fold import _pow2, co_attach, exchange_width, partition_map
from .keyset import KeySet, _n_shards_for

_MANIFEST = "MANIFEST.json"
# v2: one-permutation signatures (v1 stored 128-permutation ones; the
# two do not compare, so a v1 index must be rebuilt)
_VERSION = 2
_CHUNK_RE = re.compile(r"^chunk-g(\d+)-[0-9a-f]+\.parquet$")
_IDX_CACHE: Dict = {}  # (dir, kind, part, gen) -> sorted arrays
_IDX_CACHE_CAP = 256


# --------------------------------------------------------------- manifest

def _read_manifest(index_dir: str) -> Dict:
    path = os.path.join(index_dir, _MANIFEST)
    try:
        with open(path) as f:
            m = json.load(f)
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no index manifest at {path}: build did not complete, or "
            "index_dir is not on storage shared with this worker") from None
    if m.get("version") != _VERSION:
        raise ValueError(
            f"index at {index_dir} has format version {m.get('version')}, "
            f"this code reads version {_VERSION}: its signatures do not "
            "compare; rebuild it with minhash_index_build")
    return m


def _write_manifest(index_dir: str, m: Dict) -> None:
    tmp = os.path.join(index_dir, f".{_MANIFEST}.tmp-{uuid.uuid4().hex[:8]}")
    with open(tmp, "w") as f:
        json.dump(m, f)
    os.replace(tmp, os.path.join(index_dir, _MANIFEST))


def repair_index(index_dir: str) -> List[str]:
    """Delete chunks from generations NEWER than the manifest's (the
    debris of a crashed :func:`minhash_index_append`). Returns the
    removed paths. Safe to run any time; a no-op on a healthy index."""
    gen = _read_manifest(index_dir)["gen"]
    removed = []
    for kind in ("bands", "sigs"):
        root = os.path.join(index_dir, kind)
        if not os.path.isdir(root):
            continue
        for part in os.listdir(root):
            pdir = os.path.join(root, part)
            for fn in os.listdir(pdir):
                mm = _CHUNK_RE.match(fn)
                if mm and int(mm.group(1)) > gen:
                    os.remove(os.path.join(pdir, fn))
                    removed.append(os.path.join(pdir, fn))
    return removed


# --------------------------------------------------------------- chunk IO

def _write_chunks(rows_ds, root: str, kind: str, n_shards: int, gen: int,
                  key: str, id_col: str) -> int:
    """Hash-partition ``rows_ds`` on ``key & (n_shards - 1)`` and write
    one chunk per non-empty part, sorted by ``(key, id_col)``. Returns
    row count."""
    import pyarrow.parquet as pq

    def write_part(p: int, g: pa.Table) -> pa.Table:
        g = g.sort_by([(key, "ascending"), (id_col, "ascending")])
        pdir = os.path.join(root, kind, f"part-{p:05d}")
        os.makedirs(pdir, exist_ok=True)
        final = os.path.join(pdir, f"chunk-g{gen:04d}-{uuid.uuid4().hex[:8]}.parquet")
        tmp = f"{final}.tmp"
        pq.write_table(g, tmp)
        os.replace(tmp, final)
        return pa.table({"n": pa.array([g.num_rows], pa.int64())})

    out = partition_map(rows_ds, write_part, key=key, width=n_shards)
    return int(sum(r["n"] for r in out.take_all()))


def _load_part(index_dir: str, kind: str, part: int, gen: int,
               num_perm: int) -> Tuple[np.ndarray, np.ndarray]:
    """Worker-LRU-memoized shard read: all chunks of ``part`` with
    generation ≤ ``gen``, concatenated and re-sorted once.

    bands → (band_hash sorted, doc_id aligned);
    sigs  → (doc_id sorted, (n, num_perm) uint16 matrix aligned)."""
    import pyarrow.parquet as pq

    ck = (index_dir, kind, part, gen)
    hit = _IDX_CACHE.get(ck)
    if hit is not None:
        _IDX_CACHE.pop(ck)
        _IDX_CACHE[ck] = hit  # LRU refresh
        return hit
    pdir = os.path.join(index_dir, kind, f"part-{part:05d}")
    tables = []
    if os.path.isdir(pdir):
        for fn in sorted(os.listdir(pdir)):
            m = _CHUNK_RE.match(fn)
            if m and int(m.group(1)) <= gen:
                tables.append(pq.read_table(os.path.join(pdir, fn)))
    if not tables:
        empty = np.zeros(0, dtype=np.int64)
        hit = (empty, empty if kind == "bands"
               else np.zeros((0, num_perm), dtype=np.uint16))
    else:
        t = pa.concat_tables(tables)
        if kind == "bands":
            keys = np.asarray(t.column("band_hash"))
            vals = np.asarray(t.column("doc_id"))
            order = np.argsort(keys, kind="stable")
            hit = (keys[order], vals[order])
        else:
            keys = np.asarray(t.column("doc_id"))
            sigs = _sig_matrix(t, num_perm)
            order = np.argsort(keys, kind="stable")
            hit = (keys[order], sigs[order])
    if len(_IDX_CACHE) >= _IDX_CACHE_CAP:
        _IDX_CACHE.pop(next(iter(_IDX_CACHE)))
    _IDX_CACHE[ck] = hit
    return hit


# --------------------------------------------------------------- build

def _ingest(sig_ds, index_dir: str, m: Dict, gen: int) -> int:
    """Write one generation of band + sig chunks from a signature
    Dataset. Shared by build and append."""
    bands, id_col = m["bands"], m["id_col"]

    def band_rows(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column(id_col)).astype(np.int64)
        bh = np.asarray(b.column("band_hash").combine_chunks().flatten()
                        ).reshape(len(ids), bands).reshape(-1)
        return pa.table({
            "band_hash": pa.array(bh),
            "doc_id": pa.array(np.repeat(ids, bands)),
        })

    def sig_rows(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b.column(id_col).cast(pa.int64()),
                         "sig": b.column("sig")})

    _write_chunks(sig_ds.select_columns([id_col, "band_hash"])
                  .map_batches(band_rows, batch_format="pyarrow"),
                  index_dir, "bands", m["band_shards"], gen,
                  "band_hash", "doc_id")
    n = _write_chunks(sig_ds.select_columns([id_col, "sig"])
                      .map_batches(sig_rows, batch_format="pyarrow"),
                      index_dir, "sigs", m["sig_shards"], gen,
                      "doc_id", "doc_id")
    return n


def minhash_index_build(ds, index_dir: str, *, num_perm: int = 128,
                        bands: int = 32, shingle_k: int = 5,
                        text_col: str = "text", id_col: str = "doc_id",
                        band_shards: Optional[int] = None,
                        sig_shards: Optional[int] = None,
                        expected_docs: int = 1_000_000) -> Dict:
    """Build a fresh index over ``ds`` (ids must be unique int64 across
    the index's lifetime). Shard counts default from ``expected_docs``
    — size them for the corpus the index will GROW to, they are fixed
    at build time. Returns the manifest."""
    if os.path.exists(os.path.join(index_dir, _MANIFEST)):
        raise FileExistsError(
            f"index already exists at {index_dir}; use "
            "minhash_index_append to grow it")
    os.makedirs(index_dir, exist_ok=True)
    m = {
        "version": _VERSION, "num_perm": num_perm, "bands": bands,
        "shingle_k": shingle_k, "id_col": id_col, "text_col": text_col,
        "band_shards": _pow2(band_shards or
                             _n_shards_for(expected_docs * bands)),
        "sig_shards": _pow2(sig_shards or _n_shards_for(expected_docs)),
        "n_docs": 0, "gen": 0,
    }
    sig_ds = MinHasher(num_perm, bands, shingle_k, text_col, id_col).sign(ds)
    m["n_docs"] = _ingest(sig_ds, index_dir, m, gen=1)
    m["gen"] = 1
    _write_manifest(index_dir, m)
    return m


def minhash_index_append(ds, index_dir: str) -> Dict:
    """Add ``ds``'s docs to an existing index (params come from the
    manifest). One chunk write per touched shard; the manifest's
    generation bump is the commit point. Single writer at a time."""
    m = _read_manifest(index_dir)
    gen = m["gen"] + 1
    sig_ds = MinHasher(m["num_perm"], m["bands"], m["shingle_k"],
                       m["text_col"], m["id_col"]).sign(ds)
    n = _ingest(sig_ds, index_dir, m, gen=gen)
    m["n_docs"] += n
    m["gen"] = gen
    _write_manifest(index_dir, m)
    return m


# --------------------------------------------------------------- probe

def minhash_index_probe(new_ds, index_dir: str, *, threshold: float = 0.8,
                        max_per_band: int = 64,
                        n_parts: int = 64):
    """→ Dataset ``(doc_id, match_id, est_jaccard)``: for each doc of
    ``new_ds``, the indexed docs whose estimated Jaccard ≥ threshold.
    Probing docs already in the index yields their self-match (filter
    ``doc_id != match_id`` if unwanted).

    ``max_per_band`` caps candidates per (new row, band): a true
    near-dup pair collides in ~``bands × j^rows_per_band`` bands, so it
    survives a hot-bucket cap with overwhelming probability, while an
    uncapped template bucket of size B would emit B pairs per band.
    The band-collision screen (:func:`~.dedup._min_bands_screen`) is
    relaxed one notch here because capping can hide collisions."""
    m = _read_manifest(index_dir)
    num_perm, bands, gen = m["num_perm"], m["bands"], m["gen"]
    id_col = m["id_col"]
    bshards, sshards = m["band_shards"], m["sig_shards"]
    fsl = _sig_type(num_perm)

    new_sig = MinHasher(num_perm, bands, m["shingle_k"], m["text_col"],
                        id_col).sign(new_ds)
    n_parts = exchange_width(new_sig.count() * bands, n_parts)

    def explode(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column(id_col)).astype(np.int64)
        bh = np.asarray(b.column("band_hash").combine_chunks().flatten()
                        ).reshape(len(ids), bands).reshape(-1)
        return pa.table({
            id_col: pa.array(np.repeat(ids, bands)),
            "band_hash": pa.array(bh),
        })

    def band_join(p: int, g: pa.Table) -> pa.Table:
        bh_sorted, idx_ids = _load_part(index_dir, "bands", p, gen, num_perm)
        h = np.asarray(g.column("band_hash"))
        nid = np.asarray(g.column(id_col))
        lo = np.searchsorted(bh_sorted, h, side="left")
        hi = np.searchsorted(bh_sorted, h, side="right")
        caps = np.minimum(hi - lo, max_per_band)
        total = int(caps.sum())
        if total == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        row_of = np.repeat(np.arange(len(h)), caps)
        within = np.arange(total) - np.repeat(np.cumsum(caps) - caps, caps)
        return pa.table({
            "a": pa.array(nid[row_of]),                       # new doc
            "b": pa.array(idx_ids[lo[row_of] + within]),      # index doc
        })

    edges = partition_map(
        new_sig.select_columns([id_col, "band_hash"])
        .map_batches(explode, batch_format="pyarrow"),
        band_join, key="band_hash", width=bshards,
        coalesce=min(bshards, n_parts))

    # verification phase A — the co_attach of _verify_pairs.attach_a:
    # dedupe (a,b), band-collision screen, attach the NEW side's
    # signature
    min_bands = max(1, _min_bands_screen(bands, num_perm, threshold) - 1)

    def attach_new(sigs: pa.Table, e: pa.Table) -> pa.Table:
        a, b = _band_screen(np.asarray(e.column("a")),
                            np.asarray(e.column("b")), min_bands)
        pos = np.searchsorted(np.asarray(sigs.column(id_col)), a)
        return pa.table({
            "new_id": pa.array(a, pa.int64()),
            "idx_id": pa.array(b, pa.int64()),
            "sig": _sig_array(_sig_matrix(sigs, num_perm)[pos], num_perm),
        })

    cands = co_attach(new_sig, edges, attach_new, left_key=id_col,
                      right_key="a", n_parts=n_parts,
                      left_schema=[(id_col, pa.int64()), ("sig", fsl)],
                      right_schema=[("a", pa.int64()), ("b", pa.int64())])

    # phase B: co-partitioned with the index SIG shards — one shard
    # read per partition, vectorized searchsorted + mean-equal estimate
    def verify(p: int, g: pa.Table) -> pa.Table:
        skeys, S = _load_part(index_dir, "sigs", p, gen, num_perm)
        idx = np.asarray(g.column("idx_id"))
        pos = np.clip(np.searchsorted(skeys, idx), 0, max(0, len(skeys) - 1))
        found = skeys[pos] == idx if len(skeys) else np.zeros(len(idx), bool)
        sig_new = _sig_matrix(g, num_perm)
        est = np.zeros(len(idx), dtype=np.float64)
        if found.any():
            est[found] = (sig_new[found] == S[pos[found]]).mean(axis=1)
        ok = found & (est >= threshold)
        sel = pa.array(np.flatnonzero(ok))
        return pa.table({
            "doc_id": pc.take(g.column("new_id"), sel),
            "match_id": pc.take(g.column("idx_id"), sel),
            "est_jaccard": pa.array(est[ok]),
        })

    return partition_map(cands, verify, key="idx_id", width=sshards,
                         coalesce=min(sshards, n_parts))


def minhash_index_dedup(new_ds, index_dir: str, *, threshold: float = 0.8,
                        broadcast_limit: int = 2_000_000,
                        work_dir: Optional[str] = None,
                        **probe_kwargs):
    """Incremental-ingest filter: → ``(novel_ds, matches_ds)`` where
    ``novel_ds`` is ``new_ds`` minus every doc with an index match.
    Matched ids form a :class:`~.keyset.KeySet`, as in
    :func:`~.dedup.minhash_dedup` — sorted broadcast probe below
    ``broadcast_limit`` matched ids, sharded anti-join above it."""
    id_col = _read_manifest(index_dir)["id_col"]
    matches = minhash_index_probe(new_ds, index_dir, threshold=threshold,
                                  **probe_kwargs).materialize()
    matched = KeySet.build(matches, "doc_id",
                           broadcast_limit=broadcast_limit,
                           work_dir=work_dir, prefix="minhash-index-dedup-")
    if matched.n == 0:
        return new_ds, matches
    novel = matched.filter(
        new_ds, lambda b: np.asarray(b.column(id_col)).astype(np.int64),
        lambda b, keys, found, kv: ~found)
    return novel, matches

"""Deduplication operators for web-scale corpora.

Exact, MinHash+LSH, SimHash and n-gram-Jaccard dedup over a documents
table. Partitioning contracts (100 TB design notes):

* **exact**: one all-to-all shuffle keyed by a 64-bit content hash —
  per-key groups are tiny (true duplicates), so skew is bounded by the
  actual duplicate multiplicity.
* **minhash/simhash**: signatures are computed map-side (vectorized,
  flat-hash + ``reduceat``); only (band, band_hash, doc_id) candidate
  rows shuffle — a few dozen bytes per doc instead of the text.
  Candidate pairing AND verification are distributed: the LSH bucket
  space is coarsely hash-partitioned (``bucket & (n_parts-1)``) and one
  ``groupby(part).map_groups`` processes every bucket of a partition
  vectorized (boundary ``diff`` + repeat/offset pair generation — no
  per-bucket Python dispatch, no driver materialization). Small buckets
  emit ALL pairs (so near-dup pairs not involving the bucket hub are
  found); buckets above ``pair_cutoff`` fall back to star edges
  (hub → members), bounding the edge set by docs × bands even on
  template-heavy corpora. Jaccard verification attaches signatures to
  edges through two co-partitioned shuffles (sig rows and edge rows
  union-grouped on the same key space) — each signature crosses the
  wire once per phase; no broadcast, no driver dict. The final
  connected-components step runs on the verified edge set (min-label
  propagation over the edge Dataset).
"""

from __future__ import annotations

import os
import tempfile
import uuid
from typing import Dict, List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..sketches.hashing import hash64


def _pow2(n: int) -> int:
    """Round up to a power of two. The ``& (n - 1)`` partition masks
    used throughout this module reach every bucket id only for
    power-of-two counts (e.g. n=48 → mask 0b101111 → 32 reachable
    buckets with heavy skew); rounding keeps co-partitioning correct
    AND parallelism at the requested level."""
    n = int(n)
    return 1 << max(0, n - 1).bit_length()


# ------------------------------------------------- sharded anti-join
# The scale path for dedup REMOVAL. A web corpus at 100 TB is 30-50 %
# near-duplicate, so the removed-id / keep-map table can reach 10^10
# entries (~80 GB) — no driver set or per-task broadcast survives that.
# The map is hash-partitioned by ``key & (n_shards - 1)`` into sorted
# parquet shards on shared storage (written DISTRIBUTED — the map never
# touches the driver) plus a completeness MANIFEST, then removal runs
# one of two ways:
#
# * shard count ≤ the per-worker cache cap: a map-only filter — each
#   batch loads the shards its keys hash into, LRU-memoized per worker.
#   Total worker-resident bytes are bounded by cap × shard size; keys
#   are uniform hashes / arbitrary ids, so workers converge on holding
#   the shards of the partitions they process.
# * shard count ABOVE the cap (the 10^10-entry regime, where per-batch
#   uniform keys would touch every shard and thrash any cache): the
#   CORPUS is co-partitioned on the same ``key & mask`` (one shuffle)
#   so each partition reads EXACTLY ONE shard — the classic
#   distributed hash anti-join.
#
# The manifest makes missing state loud: a filter worker that cannot
# see the manifest (work_dir not on shared storage in a multi-node
# run) raises instead of silently treating every shard as empty.

_SHARD_CACHE: Dict = {}  # (shard_dir, part) -> (sorted keys, keep); LRU
_SHARD_CACHE_CAP = 256
_MANIFEST_CACHE: Dict = {}  # shard_dir -> manifest dict
_MANIFEST_NAME = "MANIFEST.json"
_CREATED_SHARD_DIRS: List[str] = []  # this process's builds, for cleanup


def _write_key_shards(kv_ds, shard_dir: str, n_shards: int,
                      has_keep: bool) -> None:
    """Hash-partition a (key[, keep]) Dataset into ``n_shards`` sorted
    parquet shards plus a completeness manifest — the build half of the
    sharded anti-join. One repartition + groupby over the (small
    relative to the corpus) key table; shard writes are atomic
    (tmp + rename) and the manifest is written LAST, so readers either
    see a complete build or fail loudly."""
    import json

    import pyarrow.parquet as pq

    os.makedirs(shard_dir, exist_ok=True)
    mask = n_shards - 1

    def tag(b: pa.Table) -> pa.Table:
        key = b.column("key").cast(pa.int64())
        out = {"key": key, "part": pc.bit_wise_and(key, mask)}
        if has_keep:
            out["keep"] = b.column("keep").cast(pa.int64())
        return pa.table(out)

    def write_shard(g: pa.Table) -> pa.Table:
        p = int(g.column("part")[0].as_py())
        keys = np.asarray(g.column("key"))
        order = np.argsort(keys)
        cols = {"key": pa.array(keys[order])}
        if has_keep:
            cols["keep"] = pa.array(np.asarray(g.column("keep"))[order])
        final = os.path.join(shard_dir, f"shard-{p:05d}.parquet")
        tmp = f"{final}.tmp-{uuid.uuid4().hex[:8]}"
        pq.write_table(pa.table(cols), tmp)
        os.replace(tmp, final)
        return pa.table({"part": pa.array([p]), "n": pa.array([len(keys)])})

    summary = (kv_ds.map_batches(tag, batch_format="pyarrow")
        .repartition(n_shards)  # coalesce before groupby (PERF.md §12)
        .groupby("part").map_groups(write_shard, batch_format="pyarrow")
    ).to_pandas()  # ≤ n_shards tiny rows
    manifest = {"n_shards": int(n_shards), "has_keep": bool(has_keep),
                "parts": {str(int(p)): int(n)
                          for p, n in zip(summary.get("part", []),
                                          summary.get("n", []))}}
    tmp = os.path.join(shard_dir, f".{_MANIFEST_NAME}.tmp-{uuid.uuid4().hex[:8]}")
    with open(tmp, "w") as f:
        json.dump(manifest, f)
    os.replace(tmp, os.path.join(shard_dir, _MANIFEST_NAME))
    _CREATED_SHARD_DIRS.append(shard_dir)


def cleanup_shard_dirs() -> List[str]:
    """Remove every shard directory built by THIS process's dedup calls
    (they otherwise persist under /tmp or the caller's ``work_dir`` —
    the full keep-map as parquet), and drop this process's cached
    manifests/shards for them. Call only AFTER the returned deduped
    Datasets have been fully consumed: their filter stages read the
    shards lazily. (Worker processes keep their own caches; those are
    bounded by ``_SHARD_CACHE_CAP`` and die with the worker.)"""
    import shutil

    removed = []
    while _CREATED_SHARD_DIRS:
        d = _CREATED_SHARD_DIRS.pop()
        shutil.rmtree(d, ignore_errors=True)
        _MANIFEST_CACHE.pop(d, None)
        for ck in [k for k in _SHARD_CACHE if k[0] == d]:
            _SHARD_CACHE.pop(ck, None)
        removed.append(d)
    return removed


def _load_manifest(shard_dir: str) -> Dict:
    import json

    m = _MANIFEST_CACHE.get(shard_dir)
    if m is None:
        path = os.path.join(shard_dir, _MANIFEST_NAME)
        try:
            with open(path) as f:
                m = json.load(f)
        except FileNotFoundError:
            raise FileNotFoundError(
                f"sharded anti-join manifest missing at {path}: the shard "
                "build did not complete, or work_dir is not on storage "
                "shared with this worker (multi-node runs need a shared "
                "filesystem / object-store path)") from None
        if len(_MANIFEST_CACHE) >= _SHARD_CACHE_CAP:  # bound long-lived procs
            _MANIFEST_CACHE.pop(next(iter(_MANIFEST_CACHE)))
        _MANIFEST_CACHE[shard_dir] = m
    return m


def _load_shard(shard_dir: str, part: int,
                has_keep: bool) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-worker LRU-memoized shard load. The manifest distinguishes
    a genuinely empty part (absent from the manifest) from missing
    state (no manifest → raise)."""
    import pyarrow.parquet as pq

    ck = (shard_dir, part)
    hit = _SHARD_CACHE.get(ck)
    if hit is not None:
        # LRU refresh: re-insert so cyclic access doesn't evict the
        # working set in FIFO order
        _SHARD_CACHE.pop(ck)
        _SHARD_CACHE[ck] = hit
        return hit
    manifest = _load_manifest(shard_dir)
    if str(int(part)) not in manifest["parts"]:
        hit = (np.zeros(0, dtype=np.int64), None)
    else:
        t = pq.read_table(os.path.join(shard_dir, f"shard-{part:05d}.parquet"))
        hit = (np.asarray(t.column("key")),
               np.asarray(t.column("keep")) if has_keep else None)
    if len(_SHARD_CACHE) >= _SHARD_CACHE_CAP:
        _SHARD_CACHE.pop(next(iter(_SHARD_CACHE)))
    _SHARD_CACHE[ck] = hit
    return hit


def _sharded_anti_join(ds, shard_dir: str, n_shards: int, has_keep: bool,
                       key_of, keep_mask,
                       co_partition: Optional[bool] = None):
    """Filter ``ds`` against a shard table, picking the physical plan
    by shard count (see the module-section comment above):

    * map-only per-batch lookups with the per-worker LRU when the
      shard count fits the cache cap;
    * otherwise co-partition the CORPUS on the same ``key & mask``
      (one shuffle) so every partition reads exactly one shard — the
      distributed hash anti-join, immune to cache thrash under
      uniform keys.

    ``key_of(batch) → int64 keys``; ``keep_mask(batch, keys, found,
    keep_vals) → bool survivors``.
    """
    if co_partition is None:
        co_partition = n_shards > _SHARD_CACHE_CAP

    if not co_partition:
        def filt(b: pa.Table) -> pa.Table:
            keys = key_of(b)
            found, kv = _shard_lookup(keys, shard_dir, n_shards, has_keep)
            return b.filter(pa.array(keep_mask(b, keys, found, kv)))

        return ds.map_batches(filt, batch_format="pyarrow")

    def tag(b: pa.Table) -> pa.Table:
        keys = key_of(b)
        b = b.append_column("_aj_key", pa.array(keys))
        return b.append_column("_aj_part",
                               pa.array(keys & np.int64(n_shards - 1)))

    def filt_group(g: pa.Table) -> pa.Table:
        keys = np.asarray(g.column("_aj_key"))
        found, kv = _shard_lookup(keys, shard_dir, n_shards, has_keep)
        out = g.filter(pa.array(keep_mask(g, keys, found, kv)))
        return out.drop_columns(["_aj_key", "_aj_part"])

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .repartition(min(n_shards, 512))  # coalesce (PERF.md §12)
        .groupby("_aj_part").map_groups(filt_group, batch_format="pyarrow")
    )


def _shard_lookup(keys: np.ndarray, shard_dir: str, n_shards: int,
                  has_keep: bool) -> Tuple[np.ndarray, np.ndarray]:
    """→ (found mask, keep values) for a batch of int64 keys, touching
    only the shards the batch's keys hash into."""
    n = len(keys)
    found = np.zeros(n, dtype=bool)
    keep = np.zeros(n, dtype=np.int64)
    parts = keys & np.int64(n_shards - 1)
    for p in np.unique(parts):
        sk, kv = _load_shard(shard_dir, int(p), has_keep)
        if len(sk) == 0:
            continue
        m = parts == p
        sel = keys[m]
        idx = np.searchsorted(sk, sel)
        idx_c = np.clip(idx, 0, len(sk) - 1)
        hit = sk[idx_c] == sel
        found[m] = hit
        if kv is not None:
            kv_sel = np.zeros(len(sel), dtype=np.int64)
            kv_sel[hit] = kv[idx_c[hit]]
            keep[m] = kv_sel
    return found, keep


def _n_shards_for(n_entries: int, target_per_shard: int = 2_000_000) -> int:
    """Shards sized ~target entries (≈16-32 MB sorted int64 pairs),
    power of two, capped so tiny maps don't fan into thousands of
    files and huge maps don't exceed 4096 shards."""
    return min(4096, _pow2(max(8, -(-n_entries // target_per_shard))))


def _fresh_shard_dir(work_dir: Optional[str], prefix: str) -> str:
    """A UNIQUE directory per shard build. Two hazards make reuse of a
    caller's directory unsafe: (1) a re-run with different data only
    overwrites parts that currently have keys — a stale shard for a
    now-empty part would silently drop rows; (2) the per-worker shard
    cache is keyed by (dir, part) and would serve the previous build.
    So ``work_dir`` is treated as a PARENT (shared storage at scale)
    and each build gets a fresh uuid subdirectory."""
    if work_dir is None:
        return tempfile.mkdtemp(prefix=prefix)
    os.makedirs(work_dir, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=work_dir)


def normalize_text(text_col) -> pa.ChunkedArray:
    """Lowercase + collapse whitespace — shared by all dedup variants."""
    out = pc.utf8_lower(pc.replace_substring_regex(text_col, r"\s+", " "))
    return out if isinstance(out, pa.ChunkedArray) else pa.chunked_array([out])


def add_content_hash(batch: pa.Table, col: str = "text",
                     out_col: str = "content_hash") -> pa.Table:
    """64-bit hash of the normalized text (vectorized)."""
    h = hash64(normalize_text(batch.column(col)), 0xDED0)
    return batch.append_column(out_col, pa.array(h.astype(np.int64)))


def dedup_lines_keep_first(ds, text_col: str = "text",
                           id_col: str = "doc_id", sep: str = "\n",
                           broadcast_limit: int = 2_000_000,
                           num_partitions: int = 8):
    """Corpus-level line/paragraph dedup keeping the FIRST occurrence
    (RefinedWeb-style repetition removal): a line is kept only in the
    document with the smallest ``(id, position)`` that contains it;
    every later copy anywhere in the corpus is dropped. Unlike
    `remove_boilerplate_lines` (which drops ALL copies of hot lines),
    the first occurrence always survives, so no content is lost.

    Scale shape: pass 1 emits ``(line_hash, packed_position)`` pairs
    pre-combined per batch (the shuffle carries 16 B per distinct line
    per batch, NEVER line text); a ``groupby(hash).min`` picks global
    winners. When the winner table fits ``broadcast_limit`` it is
    broadcast once (``ray.put``) and pass 2 is ONE vectorized
    ``map_batches`` over the ORIGINAL documents: re-split, probe the
    sorted winner array with ``searchsorted``, rebuild kept text with
    ``ListArray.from_arrays`` + ``binary_join`` — corpus text never
    crosses a shuffle and no per-doc Python runs. Above the limit the
    exploded table joins the winner Dataset co-partitioned by hash and
    a per-doc ``map_groups`` rebuilds (text crosses two shuffles —
    unavoidable when the winner side itself needs a shuffle join).
    Positions pack as ``id·2³¹ + idx`` — requires ``id < 2³²`` and
    ``< 2³¹`` lines per doc (asserted).

    Returns one row per document: ``(id, n_lines, n_kept, text)``.
    """
    import ray

    def _positions(b: pa.Table):
        """Split a batch of docs into flat lines + packed positions."""
        col = b.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        parts = pc.split_pattern(pc.fill_null(col, ""), sep)
        flat = pc.list_flatten(parts)
        n_lines = np.asarray(pc.list_value_length(parts)).astype(np.int64)
        parents = np.asarray(pc.list_parent_indices(parts))
        starts = np.repeat(np.concatenate(([0], np.cumsum(n_lines)[:-1])),
                           n_lines)
        idx = np.arange(len(parents), dtype=np.int64) - starts
        doc_ids = np.asarray(b.column(id_col).cast(pa.int64()))
        ids = doc_ids[parents] if len(parents) else np.zeros(0, np.int64)
        if len(ids) and (ids.max() >= (1 << 32) or idx.max() >= (1 << 31)):
            raise ValueError("dedup_lines_keep_first position packing "
                             "requires id < 2^32 and < 2^31 lines/doc")
        h = hash64(flat, 0x11E5).astype(np.int64)
        packed = ids * (1 << 31) + idx
        return flat, ids, idx, h, packed, doc_ids, n_lines, parents

    def min_pairs(b: pa.Table) -> pa.Table:
        import polars as pl

        _, _, _, h, packed, _, _, _ = _positions(b)
        t = pl.DataFrame({"h": h, "packed": packed})
        return (t.group_by("h").agg(win=pl.col("packed").min()).to_arrow()
                .cast(pa.schema([("h", pa.int64()), ("win", pa.int64())])))

    from .fold import bucket_fold

    winners = bucket_fold(
        ds.map_batches(min_pairs, batch_format="pyarrow"),
        ["h"], [("win", "min", "win")]).materialize()
    n_distinct = winners.count()

    if n_distinct <= broadcast_limit:
        empty = pa.table({"h": pa.array([], pa.int64()),
                          "win": pa.array([], pa.int64())})
        wt = pa.concat_tables(
            [empty] + [pa.table(b) for b in winners.iter_batches(
                batch_format="pyarrow", batch_size=None)])
        wh = np.asarray(wt.column("h"))
        order = np.argsort(wh)
        ref = ray.put((wh[order], np.asarray(wt.column("win"))[order]))

        def rebuild_map(b: pa.Table) -> pa.Table:
            wh_sorted, win_sorted = ray.get(ref)
            flat, _, _, h, packed, doc_ids, n_lines, parents = _positions(b)
            if len(h):
                i = np.searchsorted(wh_sorted, h)
                keep = packed == win_sorted[i]
            else:
                keep = np.zeros(0, bool)
            kept_flat = flat.filter(pa.array(keep))
            n_kept = (np.bincount(parents[keep], minlength=len(b))
                      .astype(np.int64) if len(parents)
                      else np.zeros(len(b), np.int64))
            offsets = np.concatenate(([0], np.cumsum(n_kept))).astype(np.int32)
            texts = pc.binary_join(
                pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                         kept_flat), sep)
            return pa.table({
                id_col: pa.array(doc_ids), "n_lines": pa.array(n_lines),
                "n_kept": pa.array(n_kept), text_col: texts,
            })

        return ds.map_batches(rebuild_map, batch_format="pyarrow")

    # winner table too big to broadcast: co-partitioned join + per-doc rebuild
    def explode(b: pa.Table) -> pa.Table:
        flat, ids, idx, h, packed, _, _, _ = _positions(b)
        return pa.table({
            "h": pa.array(h), "packed": pa.array(packed),
            "doc": pa.array(ids), "idx": pa.array(idx), "line": flat,
        })

    lines = ds.map_batches(explode, batch_format="pyarrow")
    flagged = lines.join(
        winners, "inner", num_partitions, on=("h",), right_on=("h",))
    flagged = flagged.map_batches(
        lambda b: b.append_column(
            "keep", pc.equal(b.column("packed"), b.column("win"))),
        batch_format="pyarrow")

    def rebuild(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("idx", kind="stable")
        kept = g.loc[g["keep"], "line"]
        return pd.DataFrame({
            id_col: [int(g["doc"].iloc[0])],
            "n_lines": np.array([len(g)], dtype=np.int64),
            "n_kept": np.array([int(g["keep"].sum())], dtype=np.int64),
            text_col: [sep.join(kept.tolist())],
        })

    return flagged.groupby("doc").map_groups(rebuild, batch_format="pandas")


def exact_dedup(ds, col: str = "text", id_col: str = "doc_id",
                broadcast_limit: int = 2_000_000,
                work_dir: Optional[str] = None,
                co_partition: Optional[bool] = None):
    """Keep the min-``id_col`` row per distinct normalized text.

    Deterministic (min id), matching a SQL ``row_number() over
    (partition by text order by id) = 1`` oracle.

    Scale design: the shuffle carries only (content_hash, id) PAIRS
    (16 bytes/row), aggregated with a vectorized Count+Min — never the
    text, and never per-group Python. Only hashes with count > 1 (the
    actual duplicate groups) form the keep-map. Removal has two paths:

    * ``|map| <= broadcast_limit``: collect + ``ray.put`` once, probe
      with sorted ``searchsorted`` per batch — the small-side fast path.
    * above the limit (web corpora are 30-50 % duplicate, so the map
      can reach 10^10 entries): the keep-map NEVER touches the driver —
      it is hash-partitioned into sorted shards (``_write_key_shards``,
      fully distributed) under ``work_dir`` (shared storage at scale)
      and removal is a sharded anti-join: each batch loads only the
      shards its hashes land in, memoized per worker.
    """
    import ray

    def hash_pairs(b: pa.Table) -> pa.Table:
        h = hash64(normalize_text(b.column(col)), 0xDED0)
        return pa.table({"content_hash": pa.array(h.astype(np.int64)),
                         id_col: b.column(id_col)})

    def only_dups(b: pa.Table) -> pa.Table:
        # fused filter(n > 1) + column projection: one stage on top of
        # the groupby output instead of two lazy operators (the r3
        # filter(expr) + select_columns chain cost a visible scheduling
        # hit at small scale — PERF.md §23)
        keep = pc.greater(b.column("n"), 1)
        return pa.table({
            "content_hash": b.column("content_hash").cast(pa.int64()),
            "keep_id": b.column("keep_id").cast(pa.int64()),
        }).filter(keep)

    from .fold import bucket_fold

    dups_ds = (
        bucket_fold(ds.map_batches(hash_pairs, batch_format="pyarrow"),
                    ["content_hash"],
                    [(None, "count", "n"), (id_col, "min", "keep_id")])
        .map_batches(only_dups, batch_format="pyarrow")
        .materialize()
    )
    n_dups = dups_ds.count()  # metadata-only on a materialized dataset
    if n_dups == 0:
        return ds

    if n_dups <= broadcast_limit:
        dups = pa.concat_tables(
            [pa.table({"content_hash": pa.array([], pa.int64()),
                       "keep_id": pa.array([], pa.int64())})]
            + [pa.table(b).select(["content_hash", "keep_id"])
               for b in dups_ds.iter_batches(batch_format="pyarrow",
                                             batch_size=None)])
        dh = np.asarray(dups.column("content_hash"))
        order = np.argsort(dh)
        dup_hashes = dh[order]
        keep_ids = np.asarray(dups.column("keep_id"))[order]
        ref = ray.put((dup_hashes, keep_ids))

        def drop_losers(b: pa.Table) -> pa.Table:
            dh, ki = ray.get(ref)
            h = hash64(normalize_text(b.column(col)), 0xDED0).astype(np.int64)
            idx = np.searchsorted(dh, h)
            idx_c = np.clip(idx, 0, len(dh) - 1)
            in_dup = dh[idx_c] == h
            ids = np.asarray(b.column(id_col))
            keep = ~in_dup | (ids == ki[idx_c])
            return b.filter(pa.array(keep))

        return ds.map_batches(drop_losers, batch_format="pyarrow")

    # sharded anti-join path: keep-map stays distributed end to end
    shard_dir = _fresh_shard_dir(work_dir, "exact-dedup-shards-")
    n_shards = _n_shards_for(n_dups)
    kv = dups_ds.map_batches(
        lambda b: pa.table({"key": b.column("content_hash"),
                            "keep": b.column("keep_id")}),
        batch_format="pyarrow")
    _write_key_shards(kv, shard_dir, n_shards, has_keep=True)

    def key_of(b: pa.Table) -> np.ndarray:
        return hash64(normalize_text(b.column(col)), 0xDED0).astype(np.int64)

    def keep_mask(b: pa.Table, keys, found, keep_id) -> np.ndarray:
        ids = np.asarray(b.column(id_col)).astype(np.int64)
        return ~found | (ids == keep_id)

    return _sharded_anti_join(ds, shard_dir, n_shards, True, key_of,
                              keep_mask, co_partition)


# ----------------------------------------------------------------- MinHash
class MinHasher:
    """Actor-pool stage: MinHash signatures + LSH band keys per doc.

    Fully vectorized, no per-shingle Python: the batch's texts are
    normalized and viewed as ONE flat byte array; char-``shingle_k``-gram
    hashes come from a rolling polynomial over the padded bytes
    (``k-1`` sentinel bytes between docs so windows never cross a doc
    boundary) finished with splitmix64; ``num_perm`` permutations are
    odd-multiplier affine maps over Z/2^64 (bijections), min-reduced per
    doc with ``np.minimum.reduceat``.

    Emits ONE row per doc: (id, sig fixed-list, band_hash fixed-list) —
    band rows are exploded WITHOUT the signature downstream, so the
    LSH shuffle carries ~16 bytes per (doc, band), not the signature.
    """

    _POLY = np.uint64(1099511628211)
    _SENTINEL = np.uint64(0x1F)

    def __init__(self, num_perm: int = 128, bands: int = 32, shingle_k: int = 5,
                 text_col: str = "text", id_col: str = "doc_id"):
        if num_perm % bands:
            raise ValueError("bands must divide num_perm")
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.k = shingle_k
        self.text_col = text_col
        self.id_col = id_col
        rng = np.random.default_rng(1337)  # fixed: identical in every actor
        self.a = (rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
        self.b = rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64)

    @staticmethod
    def _splitmix(z: np.ndarray) -> np.ndarray:
        z = (z + np.uint64(0x9E3779B97F4A7C15))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def _shingle_stream(self, texts):
        """→ (flat shingle hashes, per-doc reduce starts, empty-doc mask).

        Windows whose span would cross into the next doc's bytes are
        masked to uint64-max so they never win a min — doc signatures
        are therefore independent of batch composition and order.
        """
        if not isinstance(texts, (pa.Array, pa.ChunkedArray)):
            texts = pa.array(list(texts), type=pa.large_string())
        arr = normalize_text(texts)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = arr.cast(pa.large_string())
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
            arr.offset : arr.offset + len(arr) + 1
        ]
        data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
        lens = np.diff(offs)
        n = len(lens)
        k = self.k
        pad = k - 1
        nbytes = int(offs[-1] - offs[0])
        total = nbytes + pad * n
        padded = np.full(total, self._SENTINEL, dtype=np.uint64)
        row_of = np.repeat(np.arange(n, dtype=np.int64), lens)
        src = np.arange(nbytes, dtype=np.int64)
        padded[src + pad * row_of] = data[offs[0] + src]
        # rolling degree-(k-1) polynomial over the padded stream
        m = max(0, total - k + 1)
        acc = np.zeros(m, dtype=np.uint64)
        for j in range(k):
            acc = acc * self._POLY + padded[j : m + j]
        sh = self._splitmix(acc)
        padded_starts = (offs[:-1] - offs[0]) + pad * np.arange(n, dtype=np.int64)
        # validity mask: a window is a real shingle iff it lies FULLY
        # inside its doc's byte span. Everything else — windows crossing
        # into the next doc's bytes AND the trailing windows that
        # overlap the final doc's sentinel pad — must never win a min
        # under ANY permutation (the mask is re-applied per perm in
        # ``signatures`` because an affine map scrambles sentinels).
        # The old boundary-walk masked only BETWEEN-doc windows, so the
        # last doc of every batch carried k-1 garbage shingles: signatures
        # depended on batch position, and short docs' jaccard estimates
        # were biased low (caught by ngram_jaccard_check at sf0.1).
        if m > 0:
            pos = np.arange(m, dtype=np.int64)
            doc_of = np.searchsorted(padded_starts, pos, side="right") - 1
            rel = pos - padded_starts[doc_of]
            valid = rel <= (lens[doc_of] - k)
            # docs shorter than one shingle keep exactly their first
            # window (doc bytes + deterministic sentinel tail) as a
            # content fingerprint — batch-position-independent, and
            # distinct contents still get distinct shingles
            short = (lens[doc_of] > 0) & (lens[doc_of] < k)
            valid |= short & (rel == 0)
            contam = ~valid
        else:
            contam = np.zeros(0, dtype=bool)
        starts = np.minimum(padded_starts, max(0, m - 1))
        return sh, starts, (lens == 0), contam

    def signatures(self, texts) -> np.ndarray:
        sh, starts, empty_mask, contam = self._shingle_stream(texts)
        n = len(starts)
        sig = np.empty((n, self.num_perm), dtype=np.uint64)
        if sh.size == 0:
            sig[:] = self._splitmix(self.b)[None, :]
            return sig
        UMAX = np.uint64(0xFFFFFFFFFFFFFFFF)
        any_contam = bool(contam.any())
        for p in range(self.num_perm):
            v = self.a[p] * sh + self.b[p]
            if any_contam:
                v[contam] = UMAX
            sig[:, p] = np.minimum.reduceat(v, starts)
        if empty_mask.any():
            sig[empty_mask] = self._splitmix(self.b)[None, :]
        return sig

    def band_hashes(self, sig: np.ndarray) -> np.ndarray:
        """(n_docs, bands) uint64 — hash of each band's signature rows.

        The band index is folded into the seed, so hashes are globally
        unique per (band, chunk-value) and grouping on the hash alone
        suffices (cross-band collisions only create extra candidates,
        which verification discards)."""
        n = sig.shape[0]
        out = np.empty((n, self.bands), dtype=np.uint64)
        for b in range(self.bands):
            chunk = sig[:, b * self.rows_per_band : (b + 1) * self.rows_per_band]
            acc = np.full(n, 0xCBF29CE484222325, dtype=np.uint64) ^ self._splitmix(
                np.array([b + 1], dtype=np.uint64)
            )[0]
            for r in range(self.rows_per_band):
                acc = (acc ^ chunk[:, r]) * np.uint64(0x100000001B3)
            out[:, b] = acc
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(self.id_col))
        sig = self.signatures(batch.column(self.text_col))
        bh = self.band_hashes(sig)
        # the emitted signature is TRUNCATED to 16 bits per perm: it is
        # used only for est_jaccard equality counting downstream, where
        # a truncation false-match costs 2^-16 per perm (est bias
        # ≤ (1−j)/65536 — far below the binomial noise) but cuts the
        # verification shuffle payload 4× (the sort of sig rows was the
        # superlinear term at 200k docs: 63 s → 21 s end-to-end)
        return pa.table({
            self.id_col: pa.array(ids),
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array((sig & np.uint64(0xFFFF)).astype(np.uint16).reshape(-1)),
                self.num_perm),
            "band_hash": pa.FixedSizeListArray.from_arrays(
                pa.array(bh.reshape(-1).astype(np.int64)), self.bands),
        })


def _bucket_boundaries(sort_keys: np.ndarray, ids: np.ndarray):
    """Sort rows by (bucket, id), drop (bucket, id) duplicates, return
    (bucket-sorted ids, per-bucket starts, per-bucket sizes)."""
    order = np.lexsort((ids, sort_keys))
    k, i = sort_keys[order], ids[order]
    keep = np.ones(len(k), dtype=bool)
    if len(k) > 1:
        keep[1:] = (np.diff(k) != 0) | (i[1:] != i[:-1])
    k, i = k[keep], i[keep]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(k)) + 1)) if len(k) else np.zeros(0, np.int64)
    sizes = np.diff(np.concatenate((starts, [len(k)]))).astype(np.int64)
    return i, starts.astype(np.int64), sizes


def _pairs_from_buckets(ids_sorted: np.ndarray, starts: np.ndarray,
                        sizes: np.ndarray, cutoff: int):
    """Vectorized candidate-pair generation over MANY buckets at once —
    no Python loop over buckets (they number in the billions at scale).

    Buckets with ``size <= cutoff`` emit ALL within-bucket pairs, so
    similar pairs not involving the bucket's min-id hub are still found.
    Larger buckets emit star edges (hub → members): g-1 edges instead
    of g(g-1)/2, bounding blowup on template-heavy corpora (union-find
    connectivity through the hub still reaches every member).
    Returns (a, b) with a < b (ids ascending within bucket).
    """
    n = len(ids_sorted)
    if n == 0:
        e = np.zeros(0, dtype=np.int64)
        return e, e.copy()
    small = sizes <= cutoff
    bucket_start_of = np.repeat(starts, sizes)
    pos = np.arange(n, dtype=np.int64) - bucket_start_of
    # --- all pairs (small buckets): element i closes `pos` pairs with
    # the earlier elements of its bucket, indices start .. start+pos-1
    counts = np.where(np.repeat(small, sizes), pos, 0)
    total = int(counts.sum())
    b_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    first_pair = np.cumsum(counts) - counts
    a_idx = (np.arange(total, dtype=np.int64) - np.repeat(first_pair, counts)
             + np.repeat(bucket_start_of, counts))
    a_small, b_small = ids_sorted[a_idx], ids_sorted[b_idx]
    # --- star edges (large buckets): hub = bucket min id
    member = np.repeat(~small, sizes) & (pos > 0)
    a_large = np.repeat(ids_sorted[starts], sizes)[member]
    b_large = ids_sorted[member]
    return (np.concatenate([a_small, a_large]).astype(np.int64),
            np.concatenate([b_small, b_large]).astype(np.int64))


def _sig_type(num_perm: int):
    return pa.list_(pa.uint16(), num_perm)


def _verify_pairs(sig_ds, edges, num_perm: int, id_col: str, n_parts: int,
                  min_est: float = 0.0, min_bands: int = 1):
    """Distributed signature verification: estimate Jaccard for every
    candidate edge WITHOUT broadcasting signatures or touching the
    driver.

    Two co-partitioned shuffles: phase A unions signature rows
    ``(key=id, sig)`` with edge rows ``(key=a, other=b)`` grouped on
    ``key & (n_parts-1)`` and attaches ``sig_a`` via one vectorized
    ``searchsorted`` per partition; phase B repeats keyed by ``b`` and
    emits ``(a, b, est_jaccard)``. Each signature crosses the wire once
    per phase; each edge carries one signature through phase B only.

    Phase A also DEDUPES edges and applies the ``min_bands``
    band-collision screen: every copy of a pair (one per colliding
    band) has the same ``a``, hence the same partition — so run-length
    counting inside the group replaces a whole extra
    ``groupby(a, b)`` shuffle.
    """
    fsl = _sig_type(num_perm)

    def sig_rows(b: pa.Table) -> pa.Table:
        key = b.column(id_col).cast(pa.int64())
        return pa.table({
            "key": key,
            "other": pa.nulls(b.num_rows, pa.int64()),
            "sig": b.column("sig"),
            "part": pc.bit_wise_and(key, n_parts - 1),
        })

    def edge_rows(b: pa.Table) -> pa.Table:
        key = b.column("a").cast(pa.int64())
        return pa.table({
            "key": key,
            "other": b.column("b").cast(pa.int64()),
            "sig": pa.nulls(b.num_rows, fsl),
            "part": pc.bit_wise_and(key, n_parts - 1),
        })

    def _split(g: pa.Table):
        is_edge = pc.is_valid(g.column("other"))
        sig_t = g.filter(pc.invert(is_edge))
        edge_t = g.filter(is_edge)
        skeys = np.asarray(sig_t.column("key"))
        order = np.argsort(skeys)
        skeys = skeys[order]
        S = np.asarray(
            sig_t.column("sig").combine_chunks().flatten()
        ).reshape(sig_t.num_rows, num_perm)[order]
        return skeys, S, edge_t

    def attach_a(g: pa.Table) -> pa.Table:
        skeys, S, edge_t = _split(g)
        if edge_t.num_rows == 0:
            return pa.table({"key": pa.array([], pa.int64()),
                             "other": pa.array([], pa.int64()),
                             "sig": pa.array([], fsl),
                             "part": pa.array([], pa.int64())})
        a = np.asarray(edge_t.column("key"))
        b = np.asarray(edge_t.column("other"))
        # dedupe (a, b) + band-collision screen via run-length counts
        order = np.lexsort((b, a))
        a, b = a[order], b[order]
        first = np.ones(len(a), dtype=bool)
        if len(a) > 1:
            first[1:] = (np.diff(a) != 0) | (b[1:] != b[:-1])
        starts = np.flatnonzero(first)
        n_bands = np.diff(np.append(starts, len(a)))
        keep = starts[n_bands >= min_bands]
        a_u, b_u = a[keep], b[keep]
        sig_a = S[np.searchsorted(skeys, a_u)]
        return pa.table({
            "key": pa.array(b_u),  # re-key by b for phase B
            "other": pa.array(a_u),
            "sig": pa.FixedSizeListArray.from_arrays(
                pa.array(sig_a.reshape(-1)), num_perm),
            "part": pa.array(b_u & np.int64(n_parts - 1)),
        })

    def verify_b(g: pa.Table) -> pa.Table:
        skeys, S, edge_t = _split(g)
        if edge_t.num_rows == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "est_jaccard": pa.array([], pa.float64())})
        sig_b = S[np.searchsorted(skeys, np.asarray(edge_t.column("key")))]
        sig_a = np.asarray(
            edge_t.column("sig").combine_chunks().flatten()
        ).reshape(edge_t.num_rows, num_perm)
        est = (sig_a == sig_b).mean(axis=1)
        ok = est >= min_est  # fold the caller's threshold into the stage
        return pa.table({"a": pc.take(edge_t.column("other"), pa.array(np.flatnonzero(ok))),
                         "b": pc.take(edge_t.column("key"), pa.array(np.flatnonzero(ok))),
                         "est_jaccard": pa.array(est[ok])})

    # coalesce before each groupby: the sort-based shuffle fragments
    # every input block into every output partition, so hundreds of
    # tiny upstream blocks (parquet SplitBlocks × map fan-out) make it
    # quadratic in fragments — measured 16.6 s for a trivial
    # groupby over 291 small blocks vs 0.8 s after repartition(32) at
    # 200k docs. One block per hash partition is the natural layout;
    # raise ``n_parts`` with cluster size.
    sigs = sig_ds.map_batches(sig_rows, batch_format="pyarrow")
    phase_a = (
        sigs.union(edges.map_batches(edge_rows, batch_format="pyarrow"))
        .repartition(n_parts)
        .groupby("part").map_groups(attach_a, batch_format="pyarrow")
    )
    return (
        sigs.union(phase_a)
        .repartition(n_parts)
        .groupby("part").map_groups(verify_b, batch_format="pyarrow")
    )


def _min_bands_screen(bands: int, num_perm: int, min_est: float,
                      tail: float = 1e-5) -> int:
    """Band-collision screen strength: require ≥ m colliding bands
    before a pair pays the verification shuffle.

    m is the largest value with ``P(Binom(bands, min_est^r) < m) <
    tail`` (exact binomial CDF, r = rows per band): a TRUE pair at
    exactly the threshold is dropped pre-verification with probability
    < ``tail``; pairs above the threshold lose far less. m is further
    capped at the DETERMINISTIC bound ``bands - (1-min_est)*num_perm``:
    any pair whose signature agreement would pass verification
    (est ≥ min_est ⇒ ≤ (1-min_est)*num_perm mismatched perms, each
    breaking at most one band) has at least that many intact bands —
    so below the cap the screen cannot drop a pair verification would
    keep (up to the 2^-16/perm sig-truncation slack)."""
    from math import comb

    r = num_perm // bands
    p = min_est ** r
    cdf = 0.0
    best = 1
    for m in range(1, bands + 1):
        cdf += comb(bands, m - 1) * (p ** (m - 1)) * ((1.0 - p) ** (bands - m + 1))
        if cdf < tail:
            best = m
        else:
            break
    det_cap = max(1, bands - int(np.ceil((1.0 - min_est) * num_perm)))
    return max(1, min(best, det_cap))


def lsh_candidate_pairs(ds, num_perm: int = 128, bands: int = 32,
                        shingle_k: int = 5, text_col: str = "text",
                        id_col: str = "doc_id", concurrency: Optional[int] = None,
                        pair_cutoff: int = 64, n_parts: int = 64,
                        min_est: float = 0.0):
    """documents → signatures (one materialized pass) → (band_hash, id)
    explode → coarse-partitioned vectorized pairing → distributed
    signature verification. Returns a **Dataset** (a, b, est_jaccard) —
    nothing is materialized on the driver.

    Scale notes: the LSH shuffle moves only (id, band_hash) rows; the
    pairing partitions are ``band_hash & (n_parts-1)`` so each
    ``map_groups`` call processes ~#buckets/n_parts buckets in one
    vectorized pass (raise ``n_parts`` with cluster size). Signatures
    are materialized as a Dataset (spillable), never collected.
    """
    n_parts = _pow2(n_parts)  # '& (n-1)' masks need a power of two
    kwargs = {"batch_format": "pyarrow"}
    if concurrency:
        kwargs["concurrency"] = concurrency
        sig_ds = ds.map_batches(
            MinHasher, fn_constructor_kwargs=dict(
                num_perm=num_perm, bands=bands, shingle_k=shingle_k,
                text_col=text_col, id_col=id_col), **kwargs)
    else:
        mh = MinHasher(num_perm, bands, shingle_k, text_col, id_col)
        sig_ds = ds.map_batches(mh, **kwargs)
    sig_ds = sig_ds.materialize()
    # adapt the exchange width to the candidate-row volume: each sort
    # partition carries fixed scheduling latency, so a small corpus
    # must not pay for 64 of them (measured at 5k docs: 7.6 s → 3.5 s,
    # identical edges). The caller's n_parts is the UPPER bound — the
    # scale knob to raise with cluster size; ~250k band rows per
    # partition keeps partitions CPU-bound at any size.
    n_docs = sig_ds.count()
    n_parts = _pow2(min(n_parts, max(4, (n_docs * bands) // 250_000 + 1)))

    def explode(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_col)).astype(np.int64)
        bh = np.asarray(batch.column("band_hash").combine_chunks().flatten()).reshape(len(ids), bands)
        flat_bh = bh.reshape(-1)
        return pa.table({
            id_col: pa.array(np.repeat(ids, bands)),
            "band_hash": pa.array(flat_bh),
            "part": pa.array(flat_bh & np.int64(n_parts - 1)),
        })

    def emit_pairs(g: pa.Table) -> pa.Table:
        bh = np.asarray(g.column("band_hash"))
        ids = np.asarray(g.column(id_col))
        ids_sorted, starts, sizes = _bucket_boundaries(bh, ids)
        a, b = _pairs_from_buckets(ids_sorted, starts, sizes, pair_cutoff)
        return pa.table({"a": pa.array(a), "b": pa.array(b)})

    pairs = (
        sig_ds.select_columns([id_col, "band_hash"])
        .map_batches(explode, batch_format="pyarrow")
        .repartition(n_parts)  # see _verify_pairs: avoid fragment blowup
        .groupby("part").map_groups(emit_pairs, batch_format="pyarrow")
    )
    # a pair found by several bands must verify once, not per band — and
    # the band-collision COUNT is itself a free jaccard screen that
    # drops the flood of low-jaccard template-bucket pairs BEFORE each
    # would drag a signature through the verification shuffle. Both the
    # dedupe and the screen run INSIDE verification's phase A (same
    # partitioning). The screen strength is DERIVED, not guessed: see
    # _min_bands_screen (the previous fixed 0.25x-expectation rule had
    # a ~1e-4 drop tail at threshold 0.8 / 32 bands, five orders looser
    # than its comment claimed — round-2 advice).
    min_bands = 1
    if min_est > 0:
        min_bands = _min_bands_screen(bands, num_perm, min_est)
    return _verify_pairs(sig_ds, pairs, num_perm, id_col, n_parts, min_est,
                         min_bands)


def minhash_dedup(ds, threshold: float = 0.8, num_perm: int = 128,
                  bands: int = 32, shingle_k: int = 5,
                  text_col: str = "text", id_col: str = "doc_id",
                  distributed_cc: bool = True,
                  broadcast_limit: int = 2_000_000,
                  work_dir: Optional[str] = None,
                  cc_backend: str = "driver",
                  co_partition: Optional[bool] = None):
    """Near-dup removal: keep one representative (min id) per connected
    component of the ≥threshold candidate graph. Returns (deduped_ds,
    dup_map) where dup_map maps candidate id → its component's kept id.

    End-to-end distributed: candidate generation, verification
    (:func:`lsh_candidate_pairs` — edge Dataset, no driver rows) and
    clustering (min-label propagation over the edge Dataset). With the
    default ``cc_backend="driver"`` the only driver state is the
    component label table (one int per CANDIDATE node — bounded by
    real near-duplication, not corpus size) used to build ``dup_map``
    and the removed-id filter; ``distributed_cc=False`` swaps in a
    driver union-find over the collected edge list (debug / tiny
    inputs).

    ``cc_backend="dataset"`` removes even that: clustering runs as
    :func:`~.components.connected_components_ds` (labels stay a
    hash-partitioned Dataset), the removed-id set flows straight into
    the sharded anti-join (:func:`_write_key_shards`) without EVER
    touching the driver, and the second return value is the labels
    **Dataset** ``(node, component)`` instead of a dict — the path for
    corpora whose candidate-node set itself outgrows driver memory.

    **Mirror-heavy corpora: run :func:`exact_dedup` FIRST.** m exact
    copies of one text share identical signatures, so every band
    bucket gains an m-clique — candidate rows grow as
    ``distinct_texts × m² × bands`` (measured: a corpus with every
    text ×40 produces ~10^8 candidate pairs and times out where the
    distinct corpus takes seconds; multiplicity > ``pair_cutoff``
    degrades to star edges but the zone just below it is quadratic).
    The composition is SEMANTICS-PRESERVING: exact_dedup keeps each
    text group's min id, and a component's min id is always such a
    representative (exact copies have est_jaccard 1 and id > their
    group min), so ``minhash_dedup(exact_dedup(ds))`` keeps exactly
    the rows ``minhash_dedup(ds)`` would — test-pinned.
    """
    if cc_backend not in ("driver", "dataset"):
        raise ValueError(f"unknown cc_backend: {cc_backend!r}")
    edges = lsh_candidate_pairs(ds, num_perm, bands, shingle_k, text_col,
                                id_col, min_est=threshold).materialize()
    if edges.count() == 0:
        if cc_backend == "driver":
            return ds, {}
        # keep the documented contract: second value is ALWAYS a
        # (node, component) Dataset on this backend, empty here
        import ray.data as rd

        return ds, rd.from_arrow(pa.table(
            {"node": pa.array([], pa.int64()),
             "component": pa.array([], pa.int64())}))

    if cc_backend == "dataset":
        from .components import connected_components_ds

        labels = connected_components_ds(edges).materialize()
        removed_kv = labels.filter(expr="node != component").map_batches(
            lambda b: pa.table({"key": b.column("node")}),
            batch_format="pyarrow").materialize()
        n_removed = removed_kv.count()
        if n_removed == 0:
            return ds, labels
        shard_dir = _fresh_shard_dir(work_dir, "minhash-dedup-shards-")
        n_shards = _n_shards_for(n_removed)
        _write_key_shards(removed_kv, shard_dir, n_shards, has_keep=False)
        deduped = _sharded_anti_join(
            ds, shard_dir, n_shards, False,
            lambda b: np.asarray(b.column(id_col)).astype(np.int64),
            lambda b, keys, found, kv: ~found, co_partition)
        return deduped, labels

    if distributed_cc:
        from .components import connected_components

        cc = connected_components(edges)
        dup_map = dict(zip(cc["node"].astype(int), cc["component"].astype(int)))
    else:
        # union-find over the (small, collected) candidate edge set
        pdf = edges.to_pandas()
        parent: Dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in zip(pdf["a"].astype(np.int64), pdf["b"].astype(np.int64)):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                if ra < rb:
                    parent[rb] = ra
                else:
                    parent[ra] = rb
        dup_map = {x: find(x) for x in list(parent)}
    removed = {x for x, r in dup_map.items() if r != x}
    if not removed:
        return ds, {}
    removed_arr = np.array(sorted(removed), dtype=np.int64)

    if len(removed_arr) <= broadcast_limit:
        import ray

        removed_ref = ray.put(removed_arr)

        def drop_dups(batch: pa.Table) -> pa.Table:
            import ray as _ray

            rem = _ray.get(removed_ref)
            ids = np.asarray(batch.column(id_col)).astype(np.int64)
            # sorted-probe, not np.isin (which re-sorts per batch)
            idx = np.clip(np.searchsorted(rem, ids), 0, len(rem) - 1)
            return batch.filter(pa.array(rem[idx] != ids))

        return ds.map_batches(drop_dups, batch_format="pyarrow"), dup_map

    # sharded anti-join path: above the broadcast limit the removed-id
    # table is hash-partitioned into sorted shards and each filter
    # batch loads only the shards its ids land in (per-worker memo) —
    # no per-task re-broadcast of a multi-GB set. (The component label
    # table still transits the driver once — the stated ~16 B/node
    # contract of connected_components; the filter stage is what must
    # not replicate it across the cluster.)
    import ray.data as rd

    shard_dir = _fresh_shard_dir(work_dir, "minhash-dedup-shards-")
    n_shards = _n_shards_for(len(removed_arr))
    _write_key_shards(rd.from_arrow(pa.table({"key": removed_arr})),
                      shard_dir, n_shards, has_keep=False)
    deduped = _sharded_anti_join(
        ds, shard_dir, n_shards, False,
        lambda b: np.asarray(b.column(id_col)).astype(np.int64),
        lambda b, keys, found, kv: ~found, co_partition)
    return deduped, dup_map


# ----------------------------------------------------------------- SimHash
def simhash64(texts) -> np.ndarray:
    """64-bit Charikar SimHash per doc, vectorized end to end: Arrow
    lowercase + regex tokenize → flat token hashes → per-bit ±1 votes
    → segmented sum by doc → sign. Accepts an Arrow array/chunked
    array or a Python sequence; docs with no tokens hash as the single
    empty token (stable sentinel signature)."""
    if isinstance(texts, pa.ChunkedArray):
        arr = texts.combine_chunks()
    elif isinstance(texts, pa.Array):
        arr = texts
    else:
        arr = pa.array([t if t is not None else "" for t in texts],
                       type=pa.large_string())
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    arr = pc.fill_null(arr, "")
    toks = pc.split_pattern_regex(pc.utf8_lower(arr), r"\s+")
    flat = pc.list_flatten(toks)
    parents = np.asarray(pc.list_parent_indices(toks))
    nonempty = np.asarray(pc.not_equal(flat, ""))
    flat = flat.filter(pa.array(nonempty))
    parents = parents[nonempty]
    h = hash64(flat, 0x51AA) if len(flat) else np.zeros(0, dtype=np.uint64)
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int8)
    votes = bits * 2 - 1  # ±1
    # segmented per-doc sum (parents sorted ascending; docs may be absent)
    sums = np.zeros((n, 64), dtype=np.int64)
    if len(parents):
        starts = np.concatenate(([0], np.flatnonzero(np.diff(parents)) + 1))
        present = parents[starts]
        sums[present] = np.add.reduceat(votes, starts, axis=0)
    # token-less docs: signature of the single empty token (parity with
    # the original ``toks or [""]`` rule)
    absent = np.flatnonzero(~np.isin(np.arange(n), parents[starts] if len(parents) else []))
    if len(absent):
        h0 = hash64(pa.array([""], type=pa.large_string()), 0x51AA)[0]
        empty_votes = (((np.uint64(h0) >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).astype(np.int8) * 2 - 1)
        sums[absent] = empty_votes
    sig_bits = (sums > 0).astype(np.uint64)
    return (sig_bits << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1, dtype=np.uint64)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x = a ^ b
    cnt = np.zeros(x.shape, dtype=np.uint64)
    for _ in range(64):
        cnt += x & np.uint64(1)
        x >>= np.uint64(1)
    return cnt


def simhash_candidate_pairs(ds, max_hamming: int = 3, text_col: str = "text",
                            id_col: str = "doc_id", pair_cutoff: int = 64,
                            n_parts: int = 64):
    """SimHash near-dup candidate pairs as a **Dataset** (a, b, hamming):
    4×16-bit chunk LSH (two equal chunks guaranteed when hamming ≤ 3 —
    pigeonhole over 4 chunks), verified by full 64-bit hamming distance.

    Fully distributed, same topology as :func:`lsh_candidate_pairs`:
    the bucket space is coarsely partitioned (``bucket & (n_parts-1)``)
    and each partition pairs + verifies ALL its buckets in one
    vectorized pass — the 64-bit simhash travels WITH the bucket row,
    so verification needs no second shuffle. Buckets above
    ``pair_cutoff`` fall back to star edges (hub → members).
    A pair found by several chunks is folded to its min hamming.
    """
    from .fold import bucket_fold

    def sigs(batch: pa.Table) -> pa.Table:
        sh = simhash64(batch.column(text_col))  # arrow in, no row loop
        ids = np.asarray(batch.column(id_col)).astype(np.int64)
        # bucket key = chunk index folded with chunk value (distinct per chunk)
        chunk_vals = np.stack(
            [((sh >> np.uint64(16 * c)) & np.uint64(0xFFFF))
             | np.uint64((c + 1) << 48) for c in range(4)], axis=1
        ).astype(np.int64)
        flat = chunk_vals.reshape(-1)
        return pa.table({
            id_col: pa.array(np.repeat(ids, 4)),
            "bucket": pa.array(flat),
            "simhash": pa.array(np.repeat(sh.astype(np.int64), 4)),
        })

    sig_rows = ds.map_batches(sigs, batch_format="pyarrow").materialize()
    # adapt the exchange width to the data (see lsh_candidate_pairs);
    # the caller's n_parts stays the upper bound / scale knob
    n_parts = _pow2(min(n_parts, max(4, sig_rows.count() // 250_000 + 1)))

    def add_part(batch: pa.Table) -> pa.Table:
        flat = np.asarray(batch.column("bucket"))
        return batch.append_column("part", pa.array(flat & np.int64(n_parts - 1)))

    def pair_and_verify(g: pa.Table) -> pa.Table:
        buckets = np.asarray(g.column("bucket"))
        ids = np.asarray(g.column(id_col))
        sh = np.asarray(g.column("simhash")).astype(np.uint64)
        order = np.lexsort((ids, buckets))
        b_s, i_s, h_s = buckets[order], ids[order], sh[order]
        keep = np.ones(len(b_s), dtype=bool)
        if len(b_s) > 1:
            keep[1:] = (np.diff(b_s) != 0) | (i_s[1:] != i_s[:-1])
        b_s, i_s, h_s = b_s[keep], i_s[keep], h_s[keep]
        starts = (np.concatenate(([0], np.flatnonzero(np.diff(b_s)) + 1))
                  if len(b_s) else np.zeros(0, np.int64)).astype(np.int64)
        sizes = np.diff(np.concatenate((starts, [len(b_s)]))).astype(np.int64)
        # pair INDICES (not ids) so the simhash rides along for verification
        idx = np.arange(len(i_s), dtype=np.int64)
        a_pos, b_pos = _pairs_from_buckets(idx, starts, sizes, pair_cutoff)
        if len(a_pos) == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64()),
                             "hamming": pa.array([], pa.int64())})
        d = hamming64(h_s[a_pos], h_s[b_pos]).astype(np.int64)
        ok = d <= max_hamming
        return pa.table({"a": pa.array(i_s[a_pos[ok]]),
                         "b": pa.array(i_s[b_pos[ok]]),
                         "hamming": pa.array(d[ok])})

    pairs = (
        sig_rows.map_batches(add_part, batch_format="pyarrow")
        .repartition(n_parts)  # see _verify_pairs: avoid fragment blowup
        .groupby("part").map_groups(pair_and_verify, batch_format="pyarrow")
    )
    return bucket_fold(pairs, ["a", "b"],
                       [("hamming", "min", "hamming")], num_buckets=n_parts)


def simhash_candidates(ds, max_hamming: int = 3, text_col: str = "text",
                       id_col: str = "doc_id", pair_cutoff: int = 64,
                       n_parts: int = 64) -> pd.DataFrame:
    """Collected convenience wrapper around
    :func:`simhash_candidate_pairs` — returns the (small, verified)
    pair set as a pandas DataFrame (a, b, hamming) sorted by (a, b)."""
    out = simhash_candidate_pairs(ds, max_hamming, text_col, id_col,
                                  pair_cutoff, n_parts).to_pandas()
    if out.empty:
        return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                             "b": pd.Series([], dtype="int64"),
                             "hamming": pd.Series([], dtype="int64")})
    return out.sort_values(["a", "b"]).reset_index(drop=True)


# ------------------------------------------------------------ exact verify
def ngram_jaccard(a: str, b: str, n: int = 5) -> float:
    """Exact char-n-gram Jaccard — the verify step behind MinHash."""
    sa = {a[i : i + n] for i in range(max(1, len(a) - n + 1))}
    sb = {b[i : i + n] for i in range(max(1, len(b) - n + 1))}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def cap_per_key(ds, key_col: str, order_col: str, k: int):
    """Keep the ``k`` smallest ``order_col`` rows per ``key_col`` — the
    per-host document cap every Common-Crawl pipeline runs so hot
    domains can't dominate the training mix (selection is deterministic:
    smallest ``order_col`` wins; pass a unique id column for stable
    results).

    Scale design (100 TB): two-phase partial top-k over one bucketed
    :func:`~.fold.exchange`. Phase 1 prunes INSIDE ``map_batches`` —
    lexsort each block by (key-hash, order), run-rank, keep rank < k —
    so the only shuffle moves at most ``k × blocks-containing-key``
    candidate rows per key instead of the corpus (a 10^8-doc host ships
    ~k rows per input block, not 10^8). Phase 2 runs the SAME vectorized
    cap once per hash bucket of the key (≤ 64 reducer calls at any host
    count); it is exact because every row of a key lands in one bucket.
    Run boundaries compare the REAL key of adjacent sorted rows, so
    key-hash collisions cannot over-prune. Null keys form one group.
    The output keeps the input schema. Carry only the columns you need
    into ``ds`` (id + key) and semi-join the survivors back against the
    full table — candidate rows travel whole.
    """
    from .fold import exchange

    if k < 1:
        raise ValueError("k must be >= 1")

    def local_cap(b: pa.Table) -> pa.Table:
        if b.num_rows <= k:
            return b
        keys = b.column(key_col)
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        kh = hash64(keys, 0xCA9).astype(np.int64)
        vals = np.asarray(b.column(order_col))
        order = np.lexsort((vals, kh))
        kh_s = kh[order]
        new_run = np.ones(len(kh_s), dtype=bool)
        if len(kh_s) > 1:
            new_run[1:] = kh_s[1:] != kh_s[:-1]
            # break runs on the actual key too: equal hashes from
            # DIFFERENT keys must not share a candidate budget
            same_hash = ~new_run[1:]
            if same_hash.any():
                ks = keys.take(pa.array(order))
                neq = np.asarray(
                    pc.not_equal(ks.slice(1), ks.slice(0, len(ks) - 1)))
                new_run[1:] |= same_hash & neq.astype(bool)
        run_id = np.cumsum(new_run) - 1
        starts = np.flatnonzero(new_run)
        rank = np.arange(len(kh_s)) - starts[run_id]
        keep_sorted = rank < k
        keep_idx = np.sort(order[keep_sorted])
        return b.take(pa.array(keep_idx))

    return exchange(ds, [key_col], local_cap, pre=local_cap)


def minhash_join(a_ds, b_ds, *, threshold: float = 0.8,
                 num_perm: int = 128, bands: int = 32, shingle_k: int = 5,
                 text_col: str = "text", id_col: str = "doc_id",
                 n_parts: int = 64, pair_cutoff: int = 64):
    """Cross-corpus near-duplicate JOIN: pairs ``(a_id, b_id,
    est_jaccard ≥ threshold)`` with ``a_id`` from ``a_ds`` and
    ``b_id`` from ``b_ds`` only — the "which docs in the new crawl
    near-duplicate the existing corpus" question (fuzzy record
    linkage). Returns a Dataset; nothing materializes on the driver.

    Implementation is pure reuse of the single-corpus LSH machinery:
    ids are parity-tagged (A → 2·id, B → 2·id+1), the tagged union
    runs :func:`lsh_candidate_pairs`, and a map-side filter keeps only
    cross-parity pairs before untagging — same shuffle volume as one
    LSH pass over |A|+|B|, no new exchange.

    Completeness contract: identical normalized texts always share
    every band, so duplicate CLUSTERS are always discovered — but
    buckets larger than ``pair_cutoff`` degrade to star edges around
    the bucket-min id (the hot-bucket guard against quadratic pair
    expansion), and a star edge whose hub lands on the same side as a
    member emits no cross pair for that member. All pairs are
    complete for clusters ≤ ``pair_cutoff``; raise it when exhaustive
    pairing of mega-clusters (e.g. boilerplate duplicated 10^5×)
    matters more than the quadratic blowup it costs.
    """
    def _tag(offset: int):
        def tag(b: pa.Table) -> pa.Table:
            ids = np.asarray(b.column(id_col), dtype=np.int64)
            if (ids < 0).any():
                raise ValueError("minhash_join requires non-negative ids")
            return b.drop_columns([id_col]).append_column(
                "_tid", pa.array(ids * 2 + offset))
        return tag

    a_t = a_ds.map_batches(_tag(0), batch_format="pyarrow",
                           batch_size=None)
    b_t = b_ds.map_batches(_tag(1), batch_format="pyarrow",
                           batch_size=None)
    # min_est=threshold arms the derived band-collision screen and the
    # in-shuffle estimate filter, so sub-threshold candidates are
    # discarded BEFORE dragging signatures through the verification
    # shuffles (cross_only's est >= threshold below is then a no-op
    # safety filter) — the same scale contract as the single-corpus path
    pairs = lsh_candidate_pairs(
        a_t.union(b_t), num_perm=num_perm, bands=bands,
        shingle_k=shingle_k, text_col=text_col, id_col="_tid",
        n_parts=n_parts, pair_cutoff=pair_cutoff, min_est=threshold)

    def cross_only(b: pa.Table) -> pa.Table:
        x = np.asarray(b.column("a"), dtype=np.int64)
        y = np.asarray(b.column("b"), dtype=np.int64)
        est = np.asarray(b.column("est_jaccard"), dtype=np.float64)
        m = ((x ^ y) & 1).astype(bool) & (est >= threshold)
        x, y, est = x[m], y[m], est[m]
        a_id = np.where((x & 1) == 0, x, y) >> 1
        b_id = np.where((x & 1) == 1, x, y) >> 1
        return pa.table({"a_id": pa.array(a_id),
                         "b_id": pa.array(b_id),
                         "est_jaccard": pa.array(est)})

    return pairs.map_batches(cross_only, batch_format="pyarrow",
                             batch_size=None)

"""Exact int64 key sets: build once, probe wherever rows flow.

The exact counterpart of the Bloom build → probe loop. A :class:`KeySet`
holds a set of int64 keys, optionally with one int64 value per key
(a keep id, a winning position), in one of two tiers chosen at build
time by its size:

* **broadcast** (``n <= broadcast_limit``): one sorted array in the
  object store (``ray.put`` once); every probe is a ``searchsorted``.
  The ``KeySet`` holds only the ``ObjectRef``, so a stage closure that
  captures it ships a few bytes per task, never the keys.
* **sharded** (above the limit): hash-partitioned sorted parquet shards
  plus a manifest under a fresh directory, written distributed — the
  set never touches the driver. Probes load only the shards their keys
  hash into, memoized per worker.

Callers (exact, line, MinHash, index and semantic dedup, boilerplate
lines, repeated substrings) build with :meth:`KeySet.build` and then
either probe per batch with :meth:`KeySet.lookup` or drop rows with
:meth:`KeySet.filter`; none of them branches on the tier.
"""

from __future__ import annotations

import os
import tempfile
import uuid
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa

from .fold import _pow2, partition_map

__all__ = ["KeySet", "cleanup_shard_dirs"]


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
    sharded anti-join. One partition_map over the (small relative to
    the corpus) key table; shard writes are atomic
    (tmp + rename) and the manifest is written LAST, so readers either
    see a complete build or fail loudly."""
    import json

    import pyarrow.parquet as pq

    os.makedirs(shard_dir, exist_ok=True)
    kv_cols = ["key", "keep"] if has_keep else ["key"]

    def cast(b: pa.Table) -> pa.Table:
        return pa.table({c: b.column(c).cast(pa.int64()) for c in kv_cols})

    def write_shard(p: int, g: pa.Table) -> pa.Table:
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

    summary = partition_map(kv_ds.map_batches(cast, batch_format="pyarrow"),
                            write_shard, key="key", width=n_shards
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


# ------------------------------------------------------------ the owner
class KeySet:
    """An exact int64 key set (with optional int64 values), broadcast
    or sharded. Build with :meth:`build`; probe with :meth:`lookup` on
    workers or drop rows with :meth:`filter`. ``tier`` is
    ``"broadcast"`` or ``"sharded"``; ``n`` is the number of keys the
    set was built from. A key listed more than once must carry the
    same value each time."""

    def __init__(self, tier: str, n: int, has_values: bool, *, ref=None,
                 shard_dir: Optional[str] = None, n_shards: int = 0):
        self.tier = tier
        self.n = n
        self.has_values = has_values
        self._ref = ref  # broadcast: ObjectRef of (sorted keys, values)
        self.shard_dir = shard_dir
        self.n_shards = n_shards

    @staticmethod
    def broadcasts(n: int, broadcast_limit: int) -> bool:
        """Whether :meth:`build` puts a set of ``n`` keys on the
        broadcast tier, for a caller that can skip building a set it
        would only broadcast (``exact_dedup``'s single pass)."""
        return n <= broadcast_limit

    @classmethod
    def build(cls, src, key: str, value: Optional[str] = None, *,
              broadcast_limit: int, work_dir: Optional[str] = None,
              prefix: str = "keyset-") -> "KeySet":
        """``src`` is a materialized Dataset or an in-driver
        ``pa.Table``; ``key`` (and ``value``) name its int64 columns.
        At or below ``broadcast_limit`` keys the set is collected once
        and broadcast sorted; above it, it is written as shards under a
        fresh ``prefix`` directory in ``work_dir`` (shared storage at
        scale) without touching the driver. A table source runs no Ray
        Data execution on the broadcast tier."""
        import ray

        is_table = isinstance(src, pa.Table)
        n = src.num_rows if is_table else src.count()
        has_values = value is not None
        if cls.broadcasts(n, broadcast_limit):
            parts = [src] if is_table else list(src.iter_batches(
                batch_format="pyarrow", batch_size=None))
            parts = [t for t in parts if t.num_rows]

            def column(c: str) -> np.ndarray:
                return np.concatenate(
                    [np.zeros(0, np.int64)]
                    + [np.asarray(t.column(c).cast(pa.int64())) for t in parts])

            keys = column(key)
            order = np.argsort(keys)
            vals = column(value)[order] if has_values else None
            return cls("broadcast", n, has_values,
                       ref=ray.put((keys[order], vals)))
        if is_table:
            import ray.data as rd

            src = rd.from_arrow(src)
        cols = {"key": key, "keep": value} if has_values else {"key": key}
        kv = src.map_batches(
            lambda b: pa.table({c: b.column(s) for c, s in cols.items()}),
            batch_format="pyarrow")
        shard_dir = _fresh_shard_dir(work_dir, prefix)
        n_shards = _n_shards_for(n)
        _write_key_shards(kv, shard_dir, n_shards, has_keep=has_values)
        return cls("sharded", n, has_values, shard_dir=shard_dir,
                   n_shards=n_shards)

    def lookup(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """→ ``(found, values)`` for a batch of int64 keys; ``values``
        is 0 where a key is absent or the set carries no values. Runs
        on workers."""
        if self.tier == "sharded":
            return _shard_lookup(keys, self.shard_dir, self.n_shards,
                                 self.has_values)
        import ray

        sk, sv = ray.get(self._ref)
        values = np.zeros(len(keys), dtype=np.int64)
        if len(sk) == 0:
            return np.zeros(len(keys), dtype=bool), values
        idx = np.clip(np.searchsorted(sk, keys), 0, len(sk) - 1)
        found = sk[idx] == keys
        if sv is not None:
            values[found] = sv[idx[found]]
        return found, values

    def filter(self, ds, key_of, keep_mask,
               co_partition: Optional[bool] = None):
        """Keep the rows of ``ds`` where ``keep_mask(batch, keys, found,
        values)`` holds, with ``keys = key_of(batch)``. The plan is one
        map stage of per-batch lookups (for shards, through the
        per-worker LRU) unless the set is sharded and ``co_partition``
        holds (default: more shards than the worker cache holds). Then
        the CORPUS is co-partitioned on the shards' ``key & mask`` (one
        shuffle) so every partition reads exactly one shard — the
        distributed hash anti-join, immune to cache thrash under
        uniform keys (see the module-section comment above)."""
        if co_partition is None:
            co_partition = self.n_shards > _SHARD_CACHE_CAP
        if self.tier == "broadcast" or not co_partition:
            def filt(b: pa.Table) -> pa.Table:
                keys = key_of(b)
                found, values = self.lookup(keys)
                return b.filter(pa.array(keep_mask(b, keys, found, values)))

            return ds.map_batches(filt, batch_format="pyarrow")

        def tag(b: pa.Table) -> pa.Table:
            return b.append_column("_aj_key", pa.array(key_of(b)))

        def filt_group(_part: int, g: pa.Table) -> pa.Table:
            keys = np.asarray(g.column("_aj_key"))
            found, values = self.lookup(keys)
            out = g.filter(pa.array(keep_mask(g, keys, found, values)))
            return out.drop_columns(["_aj_key"])

        return partition_map(ds.map_batches(tag, batch_format="pyarrow"),
                             filt_group, key="_aj_key", width=self.n_shards,
                             coalesce=min(self.n_shards, 512))

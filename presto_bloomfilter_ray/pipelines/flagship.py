"""Flagship pipeline: the north-star sketch suite over web pages.

One pass over a Common-Crawl-style parquet table builds, in a single
``map_batches``-shaped stage per input shard:

* Bloom over ``url``          (reference A1 semantics at web scale)
* HLL distinct ``url`` and distinct ``url_host``
* count-min heavy hitters over ``url_host``
* t-digest + KLL quantiles of ``length(text)``
* per-``lang`` Bloom over ``url_host`` (grouped, skew-proof: partial
  sketches per (shard, lang), merged at the end — SURVEY §4)

Scale + resumability design: the unit of work is an input FILE shard
(stable identity across runs, unlike Ray block ids). Each shard task
reads only the columns it needs, builds all partials in one pass,
writes one envelope per sketch under
``checkpoints/<run_id>/suite/part-N/<name>`` plus a ``.done`` commit
marker and a lineage record, and is skipped entirely on re-run when the
marker exists (north_rule: resume with no double-count). The merge
stage unions the per-shard envelopes through a two-level parallel tree
— envelope sizes are data-independent, so the reduce is
O(#shards × sketch bytes) regardless of row count or skew.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from ..engine.store import open_store
from ..sketches import KLL, BloomFilter, CountMin, HyperLogLog, TDigest, deserialize
from ..sketches.base import merge_envelopes
from ..sources.webpages import url_host

SUITE_COLUMNS = ["url", "text", "lang"]


#: per-lang Bloom sizing: hosts are drawn from a bounded host universe
#: (N_HOSTS), so a fixed small n per lang suffices and keeps the per-
#: shard partial bitsets (and the merge traffic) small
LANG_BLOOM_N = 20_000


def _suite_factories(n_hint: int):
    return {
        "bloom_url": lambda: BloomFilter(max(n_hint, 1000), 0.01),
        # dense from the start: 16M urls densify immediately anyway, and
        # the host universe is bounded (N_HOSTS) with LARGE per-host
        # groups — sparse would only add a compaction sort per (host,
        # shard) serialize (measured: ~7% on the 2-cpu suite). Sparse
        # stays the default for corpus-cardinality keys (PERF §28).
        "hll_url": lambda: HyperLogLog(14, sparse=False),
        "hll_host": lambda: HyperLogLog(14, sparse=False),
        # ε=1e-3 bounds heavy-hitter error at 0.1% of stream length —
        # ample for Zipf hosts — at 1/10 the counter matrix (152 KB vs
        # 1.5 MB per shard partial through checkpoint + merge)
        "cm_host": lambda: CountMin(1e-3, 1e-3),
        "td_textlen": lambda: TDigest(200),
        "kll_textlen": lambda: KLL(200),
    }


def build_shard_partials(table: pa.Table, n_hint: int) -> Dict[str, bytes]:
    """All partial sketches for one shard, one vectorized pass."""
    facts = _suite_factories(n_hint)
    url = table.column("url")
    host = url_host(url)
    textlen = pc.utf8_length(table.column("text"))
    out: Dict[str, bytes] = {}
    out["bloom_url"] = facts["bloom_url"]().update_arrow(url).serialize()
    out["hll_url"] = facts["hll_url"]().update_arrow(url).serialize()
    out["hll_host"] = facts["hll_host"]().update_arrow(host).serialize()
    out["cm_host"] = facts["cm_host"]().update_arrow(host).serialize()
    out["td_textlen"] = facts["td_textlen"]().update_arrow(textlen).serialize()
    out["kll_textlen"] = facts["kll_textlen"]().update_arrow(textlen).serialize()

    # per-lang bloom over host: sort by lang, split runs (vectorized)
    order = pc.sort_indices(table.column("lang"))
    langs = table.column("lang").take(order).combine_chunks()
    hosts_sorted = host.take(order) if isinstance(host, pa.ChunkedArray) else pa.chunked_array([host]).take(order)
    codes = np.asarray(langs.dictionary_encode().indices)
    if len(codes):
        starts = np.concatenate(([0], np.flatnonzero(np.diff(codes)) + 1, [len(codes)]))
        for i in range(len(starts) - 1):
            lo, hi = int(starts[i]), int(starts[i + 1])
            lang = langs[lo].as_py()
            sk = BloomFilter(LANG_BLOOM_N, 0.01).update_arrow(hosts_sorted.slice(lo, hi - lo))
            out[f"lang_bloom/{lang}"] = sk.serialize()
    return out


def _cap_worker_threads() -> None:
    """Inside a Ray worker, intra-op thread pools must be 1: Ray already
    runs one process per CPU, and pyarrow/polars would otherwise each
    start a machine-width pool PER WORKER (N^2 threads — measured 13x
    per-task inflation at 32-way concurrency in this sandbox)."""
    try:
        if pa.cpu_count() > 1:
            pa.set_cpu_count(1)
            pa.set_io_thread_count(2)
    except Exception:
        pass


def shard_key(files: List[str]) -> str:
    """Content-based shard identity: a hash of the file list, NOT a
    positional index — so resume keys stay valid when the input
    directory GROWS (incremental ingest: new files become new shards;
    existing shards keep their checkpoints)."""
    import hashlib

    h = hashlib.sha256("\x00".join(sorted(files)).encode()).hexdigest()[:16]
    return h


def _part_prefix(run_id: str, key: str) -> str:
    return f"checkpoints/{run_id}/suite/part-{key}"


@ray.remote
def _process_shard(
    files: List[str], part_id: int, store_root: str, run_id: str, n_hint: int
) -> Dict:
    """One resumable unit: read shard files → partials → checkpoint.

    Checkpoint layout: one envelope file per sketch name under the
    partition directory, plus a ``.done`` marker written LAST — the
    marker is the commit point, so a crash mid-write is simply re-done
    (atomic per-file writes, no partial state observable)."""
    _cap_worker_threads()
    store = open_store(store_root)
    key = shard_key(files)
    prefix = _part_prefix(run_id, key)
    done_key = f"{prefix}.done"
    lineage_key = f"lineage/{run_id}/suite/part-{key}.json"
    if store.exists(done_key):
        lineage = json.loads(store.get(lineage_key).decode())
        lineage["resumed"] = True
        lineage["partition"] = part_id  # ordinal in the CURRENT file set
        return lineage
    t0 = time.time()
    table = pa.concat_tables(
        [pq.read_table(f, columns=SUITE_COLUMNS) for f in files]
    )
    partials = build_shard_partials(table, n_hint)
    lineage = {
        "run_id": run_id,
        "stage": "suite",
        "partition": part_id,
        "shard_key": key,
        "files": files,
        "rows": table.num_rows,
        "input_bytes": int(table.nbytes),
        "sketch_bytes": int(sum(len(v) for v in partials.values())),
        "sketch_names": sorted(partials),
        "wall_s": round(time.time() - t0, 4),
        "docs_per_sec": round(table.num_rows / max(1e-9, time.time() - t0), 1),
        "resumed": False,
    }
    for name, env in partials.items():
        store.put(f"{prefix}/{name}", env)
    store.put(lineage_key, json.dumps(lineage).encode())
    store.put(done_key, b"ok")
    return lineage


class MergedSketches:
    """Lazy mapping over the suite's persisted merged sketches:
    ``view["hll_url"]`` loads + deserializes from the store ON ACCESS,
    so callers that only read the summary never pull the multi-MB Bloom
    envelopes to the driver."""

    def __init__(self, store_root: str, run_id: str, names):
        self._store_root = store_root
        self._run_id = run_id
        self._names = list(names)

    def __getitem__(self, name: str):
        if name not in self._names:
            raise KeyError(name)
        return open_store(self._store_root).load(
            f"merged/{self._run_id}/{name}")

    def get(self, name: str, default=None):
        try:
            return self[name]
        except KeyError:
            return default

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __iter__(self):
        return iter(self._names)

    def keys(self):
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)


def run_suite(
    input_dir: str,
    store_root: str = "/tmp/sketch-store",
    run_id: str = "default",
    n_hint: int = 1_000_000,
    max_shards: Optional[int] = None,
) -> Dict:
    """Run (or resume) the flagship suite. Returns summary estimates +
    lineage. Ray must already be initialized by the caller."""
    import glob
    import os

    files = sorted(glob.glob(os.path.join(input_dir, "*.parquet")))
    if not files:  # gen-style layouts nest files one directory down
        files = sorted(glob.glob(
            os.path.join(input_dir, "**", "*.parquet"), recursive=True))
    if not files:
        raise FileNotFoundError(f"no parquet files under {input_dir}")
    # shard = one file (stable resume identity); large deployments would
    # group row-groups instead — same key scheme.
    shards = [[f] for f in files]
    if max_shards and len(shards) > max_shards:
        merged: List[List[str]] = [[] for _ in range(max_shards)]
        for i, s in enumerate(shards):
            merged[i % max_shards].extend(s)
        shards = merged

    import time as _time

    _t0 = _time.perf_counter()
    futures = [
        _process_shard.remote([str(f) for f in s], i, store_root, run_id, n_hint)
        for i, s in enumerate(shards)
    ]

    # merge partials with a two-level parallel tree per sketch name:
    # level 1 folds chunks of ≤32 shard envelopes concurrently (a 5 MB
    # bloom bitset folded over 10^2..10^5 shards would otherwise be one
    # serial task — a fixed tail that caps scaling); level 2 folds the
    # ≤⌈B/32⌉ chunk results. Deeper trees for 10^5+ shards are the same
    # task repeated.
    store = open_store(store_root)

    @ray.remote
    def _merge_chunk(name: str, keys: List[str]):
        _cap_worker_threads()
        st = open_store(store_root)
        paths = [f"{_part_prefix(run_id, k)}/{name}" for k in keys]
        acc = merge_envelopes(st.get(p) for p in paths if st.exists(p))
        if acc is None:
            return None
        # TRANSIENT envelope (no gzip, no sha) for the chunk→finalize
        # hop: it travels through the object store, not to disk, and
        # the finalize fold would otherwise re-inflate every chunk's
        # multi-MB Bloom bitset — a measured serial tail (~2.8 s of the
        # 5.3 s merge phase at 16M docs) that caps scaling efficiency.
        return acc.serialize(compress=False, hashed=False)

    # level 2 runs as one remote task per name: it folds that name's
    # chunk envelopes AND persists the merged sketch from inside the
    # task. Only the few SMALL envelopes the summary needs (HLL /
    # digest estimates) return to the driver — the 10s-of-MB Bloom
    # bitsets never touch it. (Driver-side level-2 folding was a
    # measured serial tail: ~3.4 s fixed regardless of cluster width,
    # i.e. a direct scaling-efficiency cap — PERF.md §11.)
    SMALL = {"hll_url", "hll_host", "td_textlen", "kll_textlen"}

    @ray.remote
    def _finalize_name(name: str, *envs):
        _cap_worker_threads()
        acc = merge_envelopes(envs)
        if acc is None:
            return None
        st = open_store(store_root)
        st.persist(acc, f"merged/{run_id}/{name}")
        return acc.serialize() if name in SMALL else b""

    lineages = ray.get(futures)
    _t_shards = _time.perf_counter() - _t0
    _t0 = _time.perf_counter()
    names: set = set()
    for ln in lineages:
        names.update(ln.get("sketch_names", []))

    chunk = 32
    shard_keys = [shard_key([str(f) for f in s]) for s in shards]
    final_futs = {}
    for name in sorted(names):
        chunk_futs = [
            _merge_chunk.remote(name, shard_keys[i : i + chunk])
            for i in range(0, len(shard_keys), chunk)
        ]
        final_futs[name] = _finalize_name.remote(name, *chunk_futs)
    finals = dict(zip(final_futs, ray.get(list(final_futs.values()))))
    present = sorted(n for n, env in finals.items() if env is not None)
    small_sk: Dict[str, object] = {
        n: deserialize(env) for n, env in finals.items()
        if env and n in SMALL
    }

    td: TDigest = small_sk["td_textlen"]  # type: ignore[assignment]
    kll: KLL = small_sk["kll_textlen"]  # type: ignore[assignment]
    summary = {
        "rows": int(sum(l["rows"] for l in lineages)),
        "partitions": len(shards),
        "resumed_partitions": int(sum(1 for l in lineages if l.get("resumed"))),
        "distinct_urls_hll": float(small_sk["hll_url"].estimate()),
        "distinct_hosts_hll": float(small_sk["hll_host"].estimate()),
        "textlen_p50_td": float(td.quantile(0.5)),
        "textlen_p99_td": float(td.quantile(0.99)),
        "textlen_p50_kll": float(kll.quantile(0.5)),
        "langs": sorted(
            k.split("/", 1)[1] for k in present if k.startswith("lang_bloom/")
        ),
        "phase_sec": {"shards": round(_t_shards, 3),
                      "merge": round(_time.perf_counter() - _t0, 3)},
    }
    store.put(f"lineage/{run_id}/summary.json", json.dumps(summary).encode())
    return {"summary": summary, "lineage": lineages,
            "sketches": MergedSketches(store_root, run_id, present)}

"""End-to-end training-corpus preparation — the composition a
Common-Crawl-scale user actually runs, wired from the engine's own
operators in their documented scale configurations:

1. **URL hygiene**: host blocklist via the project's Bloom filter
   (broadcast once, pure map probe — ``functions/urls.py host_filter``).
2. **Quality gates**: quality score ≥ ``quality_min``, byte entropy in
   ``entropy_band``, length in ``length_band`` — ONE vectorized map
   pass, the same gate definitions the ``quality_gate_pipeline`` query
   oracle-checks.
3. **Exact dedup**: 16 B/row hash-pair shuffle, tiered
   broadcast/sharded-anti-join removal (``functions/dedup.py``).
4. **Near dedup**: MinHash-LSH with verification and connected-
   component representative selection.
5. **Per-host cap**: two-phase partial top-k so hot domains can't
   dominate the mix (``cap_per_key``).

Each stage's output is materialized (a block boundary, so the row
count and the next stage never re-run its lineage; 2.3× on the 1M-doc
composition, PERF §33), its rows are counted from the materialized
blocks' metadata, and the stage is wall-clocked — the per-stage
lineage/metrics surface the north rule asks pipelines to emit.

**Checkpoint/resume** (the north rule's "resumes from per-partition
checkpoints after failure"): pass ``checkpoint_dir`` and every stage's
output is persisted as partitioned parquet (one file per block) under
``{checkpoint_dir}/{idx:02d}-{stage}/`` with a ``_MANIFEST.json``
written LAST via tmp+rename — the commit marker, same generation
pattern as ``functions/dedup_index.py``. A crashed stage leaves no
manifest and is recomputed into a fresh directory on the next run; a
re-run with the same parameters skips every committed prefix stage
(``resumed: true`` in its metric record) and continues from the first
uncommitted one. Each stage's manifest pins a rolling signature of the
stage chain + parameters, so changing any upstream knob invalidates
that stage and everything after it. The caller owns input identity
(same ``docs`` between runs), as with any checkpoint contract.

Returns ``(dataset, metrics)`` where metrics is an ordered list of
``{"stage", "rows", "wall_s", "resumed"}`` records.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import time
import uuid
from typing import Iterable, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.dedup import cap_per_key, exact_dedup, minhash_dedup
from ..functions.text import byte_entropy, quality_score
from ..functions.urls import host_filter


def _gate_fn(quality_min: float, entropy_band, length_band, text_col: str):
    lo_e, hi_e = entropy_band
    lo_n, hi_n = length_band

    def gates(b: pa.Table) -> pa.Table:
        b = quality_score(b, text_col)
        b = byte_entropy(b, text_col)
        q = np.asarray(b.column("quality"), dtype=np.float64)
        ent = np.asarray(pc.fill_null(b.column("entropy"), -1.0), dtype=np.float64)
        nc = np.asarray(pc.utf8_length(b.column(text_col)), dtype=np.int64)
        keep = (q >= quality_min) & (ent >= lo_e) & (ent <= hi_e) \
            & (nc >= lo_n) & (nc <= hi_n)
        return b.drop_columns(["quality", "entropy"]).filter(pa.array(keep))

    return gates


def prepare_corpus(
    docs,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    url_col: Optional[str] = None,
    blocked_hosts: Iterable[str] = (),
    quality_min: float = 0.35,
    entropy_band: Tuple[float, float] = (3.0, 6.5),
    length_band: Tuple[int, int] = (20, 1_000_000),
    minhash_threshold: float = 0.8,
    host_cap: Optional[int] = None,
    work_dir: Optional[str] = None,
    cc_backend: str = "driver",
    checkpoint_dir: Optional[str] = None,
    keep_stages: str = "all",
):
    """Run the five-stage preparation chain over ``docs``.

    ``url_col=None`` skips the URL stages (blocklist + host cap);
    ``host_cap=None`` skips only the cap. Stage parameters default to
    permissive bands suitable for the synthetic corpora; production
    callers tune them like any C4/Gopher-style recipe.

    ``checkpoint_dir`` enables per-stage parquet checkpoints with
    crash-safe resume (module docstring). On a multi-node cluster it
    must point at storage every worker can reach (object store / NFS),
    like any Ray Data write path.

    ``keep_stages``: ``"all"`` keeps every stage's checkpoint data
    (any mid-chain parameter change can re-run from its predecessor);
    ``"latest"`` garbage-collects a stage's data directory once its
    SUCCESSOR commits (manifests stay — the resume prefix check is
    intact). Crash-resume only ever reads the LAST committed stage,
    so "latest" halves-to-fifths the checkpoint footprint (a 100 TB
    corpus cannot afford five full copies); the trade is that
    changing a mid-chain parameter then requires recomputing from the
    start instead of from that stage's predecessor.
    """
    import ray

    if keep_stages not in ("all", "latest"):
        raise ValueError("keep_stages must be 'all' or 'latest'")
    metrics: List[dict] = []
    # rolling signature of the stage chain: any parameter change
    # invalidates that stage's checkpoint and every later one
    sig = hashlib.sha256(b"prepare_corpus/v1").hexdigest()
    idx = 0
    resuming = checkpoint_dir is not None  # inside the committed prefix
    prev_data: Optional[str] = None  # last committed stage's data dir
    docs_at = -1  # index of the committed stage whose output docs holds

    def run_stage(name: str, params: dict, compute) -> None:
        nonlocal docs, sig, idx, resuming, prev_data, docs_at
        sig = hashlib.sha256(
            (sig + name + json.dumps(params, sort_keys=True)).encode()
        ).hexdigest()
        t0 = time.time()
        if checkpoint_dir is None:
            # stage outputs are consumed more than once (the metric
            # count + the next stage); without a block boundary Ray
            # re-executes the upstream lineage on every consumer.
            # Materializing pins blocks in the object store (which
            # spills under pressure) — measured 2.3× on the 1M-doc
            # composition (PERF §33). checkpoint_dir achieves the
            # same truncation via on-disk parquet, plus resume.
            docs = compute(docs).materialize()
            rows = docs.count()
            metrics.append({"stage": name, "rows": rows,
                            "wall_s": round(time.time() - t0, 2),
                            "resumed": False})
            idx += 1
            return
        # a crash between a GC's rename and its rmtree (below) leaves
        # ".data-gc-*" debris nothing reads; reclaim it as stages start
        for dead in glob.glob(os.path.join(checkpoint_dir, "*", ".data-gc-*")):
            shutil.rmtree(dead, ignore_errors=True)
        d = os.path.join(checkpoint_dir, f"{idx:02d}-{name}")
        man = os.path.join(d, "_MANIFEST.json")
        if resuming and os.path.exists(man):
            with open(man) as f:
                m = json.load(f)
            if m.get("sig") == sig:
                data_dir = os.path.join(d, "data")
                if os.path.exists(data_dir):
                    docs = ray.data.read_parquet(data_dir)
                    prev_data = d
                    docs_at = idx
                # else: keep_stages="latest" GC'd this stage's data —
                # docs_at stays behind, so a later invalidated stage
                # can DETECT that docs is not its true predecessor
                # output (the guard below) instead of silently
                # recomputing from a non-adjacent older checkpoint
                metrics.append({"stage": name, "rows": int(m["rows"]),
                                "wall_s": round(time.time() - t0, 2),
                                "resumed": True})
                idx += 1
                return
        # first uncommitted (or invalidated) stage: recompute from here
        # on — but ONLY if docs is the true output of stage idx-1. A
        # bare "prev_data is not None" check is NOT enough: with
        # keep_stages="latest" an OLDER stage may still hold data (a
        # prior keep_stages="all" run) while the immediate
        # predecessor's data was GC'd, and recomputing from that
        # non-adjacent checkpoint would silently skip the stages
        # between and commit a wrong corpus under a valid signature.
        if resuming and idx > 0 and docs_at != idx - 1:
            raise RuntimeError(
                f"stage {idx:02d}-{name} is invalidated but docs "
                f"holds stage {docs_at} output, not its predecessor's "
                f"(stage {idx - 1}'s data was garbage-collected, "
                f"keep_stages='latest'); clear {checkpoint_dir} and "
                f"re-run from scratch")
        resuming = False
        if os.path.exists(d):
            shutil.rmtree(d)  # crashed partial write or stale params
        docs = compute(docs)
        os.makedirs(d, exist_ok=True)
        tmp = os.path.join(d, f"data-tmp-{uuid.uuid4().hex[:8]}")
        docs.write_parquet(tmp)
        os.rename(tmp, os.path.join(d, "data"))  # atomic data commit
        docs = ray.data.read_parquet(os.path.join(d, "data"))
        rows = docs.count()
        mtmp = man + ".tmp"
        with open(mtmp, "w") as f:
            json.dump({"sig": sig, "rows": rows, "stage": name}, f)
        os.rename(mtmp, man)  # manifest last = the commit marker
        if keep_stages == "latest" and prev_data is not None:
            # successor is committed → the predecessor's data is dead
            # weight (its manifest stays: the resume prefix check and
            # row metrics survive the GC). Rename-then-delete: the
            # rename is atomic, so a crash mid-GC leaves either the
            # complete data dir or none — never a partial dir a later
            # resume would read as a complete checkpoint. Dot-prefixed
            # debris is never read (loaders look only for "data").
            dead = os.path.join(prev_data,
                                f".data-gc-{uuid.uuid4().hex[:8]}")
            try:
                os.rename(os.path.join(prev_data, "data"), dead)
            except FileNotFoundError:
                pass
            else:
                shutil.rmtree(dead, ignore_errors=True)
        prev_data = d
        docs_at = idx
        metrics.append({"stage": name, "rows": rows,
                        "wall_s": round(time.time() - t0, 2),
                        "resumed": False})
        idx += 1

    if url_col is not None and blocked_hosts:
        hosts = sorted(blocked_hosts)
        run_stage(
            "host_blocklist", {"hosts": hosts, "url_col": url_col},
            lambda ds: host_filter(ds, hosts, url_col=url_col))

    run_stage(
        "quality_gates",
        {"q": quality_min, "ent": list(entropy_band),
         "len": list(length_band), "col": text_col},
        lambda ds: ds.map_batches(
            _gate_fn(quality_min, entropy_band, length_band, text_col),
            batch_format="pyarrow", batch_size=None))

    run_stage(
        "exact_dedup", {"col": text_col, "id": id_col},
        lambda ds: exact_dedup(ds, col=text_col, id_col=id_col,
                               work_dir=work_dir))

    run_stage(
        "minhash_dedup",
        {"thr": minhash_threshold, "col": text_col, "id": id_col},
        lambda ds: minhash_dedup(
            ds, threshold=minhash_threshold, text_col=text_col,
            id_col=id_col, work_dir=work_dir, cc_backend=cc_backend)[0])

    if url_col is not None and host_cap is not None:
        def add_host(b: pa.Table) -> pa.Table:
            x = b.column(url_col)
            if isinstance(x, pa.ChunkedArray):
                x = x.combine_chunks()
            st = pc.extract_regex(
                x, r"^[A-Za-z][A-Za-z0-9+.-]*://(?P<host>[^/?#:]*)")
            return b.append_column("_host", pc.struct_field(st, "host"))

        run_stage(
            "host_cap", {"cap": host_cap, "url_col": url_col, "id": id_col},
            lambda ds: cap_per_key(ds, "_host", id_col, host_cap,
                                   pre=add_host).drop_columns(["_host"]))

    return docs, metrics

"""Persisted BM25 inverted index: build once, search many — the
retrieval analog of the reference's Bloom build → persist → load →
probe loop (`run_tests.sh:124-125`), at postings level.

:func:`bm25_search` re-reads and re-tokenizes the corpus per query;
fine for one-off analytics, wrong for a retrieval service. The index
splits the cost:

* **build** (once): one tokenization pass → per-batch polars
  (term, doc, tf) combine → postings hash-sharded BY TERM into sorted
  parquet shards (so a query term's postings live in exactly one
  shard), plus a (doc_id, dl) doc-stats table and a meta.json holding
  (N, Σdl, shard count, generation). The shuffle carries
  (term_hash, doc, tf) triples — never text.
* **append** (:func:`bm25_index_append`): new docs become ONE new
  generation-tagged chunk per touched shard — no shard rewrite, no
  corpus re-tokenization. The meta's generation bump is the commit
  point; readers only load ``gen <= meta.gen``, so a crashed append is
  invisible (:func:`bm25_index_repair` removes the debris). Same crash
  contract as the MinHash index (functions/dedup_index.py), the
  reference's persist→load→probe loop (`run_tests.sh:124-125`) at
  postings level.
* **search** (per query): reads ONLY the ≤ Q shards the query terms
  hash to, with a term-level parquet row filter (predicate pushdown),
  joins the query-term postings against the doc-stats table
  (key-partitioned hash join — the doc table is corpus-sized and never
  broadcast), and scores vectorized. Query cost scales with the query
  terms' posting lists, not the corpus.

Score parity is BIT-EXACT with :func:`bm25_search` /
`bm25_sql_mirror`: identical tf/dl definitions (an alnum query term's
``(?i)\\b t \\b`` occurrence count equals its count among lowercased
``[A-Za-z0-9]+`` words — what the postings store), identical idf and
denominator expressions, and an exact summation plan — each query term
contributes to its OWN accumulator column (one nonzero row per doc per
column, so distributed Sum order cannot perturb it) and the final
cross-term add runs in fixed term order.
"""

from __future__ import annotations

import json
import os
import re
import uuid
from typing import Dict, List, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .fold import bucket_fold, join, partition_map
from .search import _terms_of
from .text import TOKEN_RE

__all__ = ["bm25_index_build", "bm25_index_append", "bm25_index_repair",
           "bm25_index_search"]

#: generation-gated chunk names, the same crash contract as the MinHash
#: index (functions/dedup_index.py): every append writes chunks tagged
#: with its generation; the meta.json gen bump is the commit point;
#: readers only load gen <= meta gen, so a crashed append is invisible
_CHUNK_RE = re.compile(r"^chunk-g(\d+)-[0-9a-f]+\.parquet$")


def _valid_chunk_paths(d: str, gen) -> List[str]:
    """Chunk files under ``d`` committed at or before ``gen``. ``gen``
    None (a pre-append v1 index) accepts every parquet file."""
    if not os.path.isdir(d):
        return []
    out = []
    for fn in sorted(os.listdir(d)):
        if not fn.endswith(".parquet"):
            continue
        m = _CHUNK_RE.match(fn)
        if gen is None or (m and int(m.group(1)) <= gen):
            out.append(os.path.join(d, fn))
    return out


def _term_shard(terms, n_shards: int) -> np.ndarray:
    from ..sketches.hashing import hash64

    if not isinstance(terms, (pa.Array, pa.ChunkedArray)):
        terms = pa.array([str(t) for t in terms], type=pa.large_string())
    return (hash64(terms.cast(pa.large_string()), 0xB25)
            % np.uint64(n_shards)).astype(np.int64)


def _ingest(ds, root: str, n_shards: int, gen: int, text_col: str,
            id_col: str) -> Dict:
    """Write one GENERATION of postings + doc-stats chunks from ``ds``.
    Shared by build and append; fully distributed (the postings shuffle
    carries (term, doc, tf) triples, never text; doc chunks are written
    per block with no shuffle). Returns ``{"n_docs", "sum_dl"}``."""
    import polars as pl
    import pyarrow.parquet as pq

    def postings(batch: pa.Table) -> pa.Table:
        txt = pc.utf8_lower(batch.column(text_col))
        # lowercased \w-runs: a run equals an (alnum-only) query term
        # exactly when the query-side case-insensitive \b-delimited
        # pattern matches there — RE2's \b counts '_' as a word char,
        # so runs split on [^a-z0-9_] (runs containing '_' can never
        # equal a query term and are kept only for honesty)
        parts = pc.split_pattern_regex(pc.fill_null(txt, ""), "[^a-z0-9_]+")
        flat = pc.list_flatten(parts)
        parent = pc.list_parent_indices(parts)
        keep = pc.not_equal(flat, "")
        flat = pc.filter(flat, keep)
        parent = pc.filter(parent, keep)
        ids = pc.take(batch.column(id_col).cast(pa.int64()), parent)
        t = pl.DataFrame({"term": pl.from_arrow(flat),
                          "doc": pl.from_arrow(ids)})
        agg = (t.group_by(["term", "doc"])
               .agg(tf=pl.len().cast(pl.Int64))).to_arrow()
        shard = _term_shard(agg["term"].combine_chunks().cast(pa.string()),
                            n_shards)
        return agg.append_column("shard", pa.array(shard))

    def write_shard(s: int, g: pa.Table) -> pa.Table:
        g = g.sort_by([("term", "ascending"), ("doc", "ascending")])
        pdir = os.path.join(root, "postings", f"shard={s}")
        os.makedirs(pdir, exist_ok=True)
        final = os.path.join(
            pdir, f"chunk-g{gen:04d}-{uuid.uuid4().hex[:8]}.parquet")
        pq.write_table(g.drop_columns(["shard"]), f"{final}.tmp")
        os.replace(f"{final}.tmp", final)
        return pa.table({"n": pa.array([g.num_rows], pa.int64())})

    partition_map(ds.map_batches(postings, batch_format="pyarrow"),
                  write_shard, key="shard", width=n_shards).materialize()

    def doc_stats_chunk(batch: pa.Table) -> pa.Table:
        txt = batch.column(text_col)
        t = pa.table({
            "doc": batch.column(id_col).cast(pa.int64()),
            "dl": pc.fill_null(pc.count_substring_regex(txt, TOKEN_RE),
                               0).cast(pa.int64()),
        })
        if t.num_rows:
            pdir = os.path.join(root, "docs")
            os.makedirs(pdir, exist_ok=True)
            final = os.path.join(
                pdir, f"chunk-g{gen:04d}-{uuid.uuid4().hex[:8]}.parquet")
            pq.write_table(t, f"{final}.tmp")
            os.replace(f"{final}.tmp", final)
        return pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "sum_dl": pa.array([int(np.sum(np.asarray(t.column("dl"))))
                                if t.num_rows else 0], pa.int64()),
        })

    parts = (ds.map_batches(doc_stats_chunk, batch_format="pyarrow")
             .take_all())
    return {"n_docs": int(sum(r["n"] for r in parts)),
            "sum_dl": int(sum(r["sum_dl"] for r in parts))}


def bm25_index_build(ds, root: str, *, text_col: str = "text",
                     id_col: str = "doc_id", n_shards: int = 16) -> str:
    """Build the index under ``root`` (fresh directory). Returns root.

    Doc ids must stay unique across the index's lifetime (appends
    included) — a re-appended id would double-count its postings."""
    if os.path.exists(os.path.join(root, "meta.json")):
        raise FileExistsError(
            f"index already exists at {root}; use bm25_index_append")
    n_shards = 1 << max(0, n_shards - 1).bit_length()  # pow2, mask-safe
    os.makedirs(os.path.join(root, "postings"), exist_ok=True)
    os.makedirs(os.path.join(root, "docs"), exist_ok=True)
    stats = _ingest(ds, root, n_shards, 1, text_col, id_col)
    meta = {"n_docs": stats["n_docs"], "sum_dl": stats["sum_dl"],
            "n_shards": n_shards, "text_col": text_col, "id_col": id_col,
            "gen": 1, "version": 2}
    _write_meta(root, meta)
    return root


def _write_meta(root: str, meta: Dict) -> None:
    tmp = os.path.join(root, f".meta.json.tmp-{uuid.uuid4().hex[:8]}")
    with open(tmp, "w") as f:
        json.dump(meta, f)
    os.replace(tmp, os.path.join(root, "meta.json"))


def bm25_index_append(ds, root: str) -> Dict:
    """Add ``ds``'s docs to an existing index (tokenization params come
    from the meta). One chunk per touched postings shard plus one doc
    chunk per block; the meta's generation bump is the commit point —
    a crash before it leaves the index readable at the old generation
    (run :func:`bm25_index_repair` to drop the debris, then retry).
    Single writer at a time. Returns the updated meta."""
    with open(os.path.join(root, "meta.json")) as f:
        meta = json.load(f)
    if "gen" not in meta:
        raise ValueError(
            "v1 index lacks generation-tagged chunks; rebuild it with "
            "the current bm25_index_build to enable appends")
    gen = meta["gen"] + 1
    stats = _ingest(ds, root, meta["n_shards"], gen,
                    meta["text_col"], meta["id_col"])
    meta["n_docs"] += stats["n_docs"]
    meta["sum_dl"] += stats["sum_dl"]
    meta["gen"] = gen
    _write_meta(root, meta)
    return meta


def bm25_index_repair(root: str) -> List[str]:
    """Delete chunks from generations NEWER than the meta's (debris of
    a crashed append). Returns removed paths; no-op on a healthy
    index."""
    with open(os.path.join(root, "meta.json")) as f:
        gen = json.load(f).get("gen")
    if gen is None:
        return []
    removed = []
    for kind in ("postings", "docs"):
        kroot = os.path.join(root, kind)
        if not os.path.isdir(kroot):
            continue
        dirs = ([os.path.join(kroot, d) for d in os.listdir(kroot)
                 if os.path.isdir(os.path.join(kroot, d))]
                if kind == "postings" else [kroot])
        for d in dirs:
            for fn in os.listdir(d):
                m = _CHUNK_RE.match(fn)
                if m and int(m.group(1)) > gen:
                    os.remove(os.path.join(d, fn))
                    removed.append(os.path.join(d, fn))
    return removed


def bm25_index_search(root: str, query: Union[str, Sequence[str]], *,
                      k1: float = 1.2, b: float = 0.75, top_k: int = 10,
                      round_digits: int = 6, num_partitions: int = 8,
                      dl_broadcast_limit: int = 2_000_000):
    """Search a built index: → pandas ``(doc_id, score)`` top-k,
    bit-identical to ``bm25_search`` over the same corpus/query."""
    import pandas as pd
    import ray.data as rd

    with open(os.path.join(root, "meta.json")) as f:
        meta = json.load(f)
    terms = _terms_of(query)
    bad = [t for t in terms
           if not all(c in "abcdefghijklmnopqrstuvwxyz0123456789_"
                      for c in t)]
    if bad:
        # postings store [a-z0-9_]-run words, so any other term can
        # never match one — reject instead of silently scoring 0
        # (bm25_search accepts such terms via its regex path)
        raise ValueError(
            f"index search terms must be [a-z0-9_] words, got {bad!r}; "
            "use bm25_search for free-form patterns")
    Q = len(terms)
    shards = _term_shard(terms, meta["n_shards"])

    # only the query terms' shards are opened; the row filter prunes
    # further at the parquet scan
    # a shard dir that was never written just means no corpus word
    # hashed there: zero postings for its terms (df=0, contribution 0 —
    # exactly bm25_search's absent-term behavior)
    gen = meta.get("gen")  # None on a v1 index: accept all chunk files
    shard_dirs = sorted({os.path.join(root, "postings", f"shard={s}")
                         for s in shards.tolist()})
    paths = [p for d in shard_dirs for p in _valid_chunk_paths(d, gen)]
    if not paths:
        import pandas as pd
        return pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                             "score": pd.array([], dtype="float64")})
    import pyarrow.dataset as pads

    post = rd.read_parquet(paths, columns=["term", "doc", "tf"],
                           filter=pads.field("term").isin(terms))

    term_set = pa.array(terms, type=pa.string())

    def tag_q(batch: pa.Table) -> pa.Table:
        qs = pc.index_in(batch.column("term").cast(pa.string()),
                         value_set=term_set).cast(pa.int64())
        return pa.table({"doc": batch.column("doc"),
                         "q": qs, "tf": batch.column("tf")})

    post = post.map_batches(tag_q, batch_format="pyarrow")

    # df per term: a tiny per-batch fold (≤ Q rows per batch)
    def df_partial(batch: pa.Table) -> pa.Table:
        c = np.bincount(np.asarray(batch.column("q")), minlength=Q)
        return pa.table({f"df_{i}": pa.array([int(c[i])], pa.int64())
                         for i in range(Q)})

    dfs = post.map_batches(df_partial, batch_format="pyarrow").sum(
        [f"df_{i}" for i in range(Q)])
    if dfs is None:
        return pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                             "score": pd.array([], dtype="float64")})
    if not isinstance(dfs, dict):  # single-column sum returns a scalar
        dfs = {"sum(df_0)": dfs}
    df = np.array([(dfs[f"sum(df_{i})"] or 0) for i in range(Q)],
                  dtype=np.float64)
    N = meta["n_docs"]
    avgdl = meta["sum_dl"] / N  # same expression as bm25_search
    idf = np.log((N - df + 0.5) / (df + 0.5) + 1.0)

    # dl attach: the doc-stats table broadcast up to the limit,
    # co-partitioned above it
    docs = rd.read_parquet(
        _valid_chunk_paths(os.path.join(root, "docs"), gen))
    joined = join(post, docs, on="doc", how="inner", n_parts=num_partitions,
                  broadcast_limit=dl_broadcast_limit)

    def contrib_cols(batch: pa.Table) -> pa.Table:
        dl = np.asarray(batch.column("dl"), dtype=np.float64)
        tf = np.asarray(batch.column("tf"), dtype=np.float64)
        q = np.asarray(batch.column("q"))
        denom_base = k1 * ((1.0 - b) + (b * dl) / avgdl)
        c = idf[q] * (tf * (k1 + 1.0)) / (tf + denom_base)
        cols = {"doc": batch.column("doc")}
        for i in range(Q):
            cols[f"c_{i}"] = pa.array(np.where(q == i, c, 0.0),
                                      type=pa.float64())
        return pa.table(cols)

    per_doc = bucket_fold(
        joined.map_batches(contrib_cols, batch_format="pyarrow"),
        ["doc"], [(f"c_{i}", "sum", f"c_{i}") for i in range(Q)])

    def local_topk(batch: pa.Table) -> pa.Table:
        # fixed q-order cross-term add — the oracle's operation order
        acc = np.zeros(batch.num_rows, dtype=np.float64)
        for i in range(Q):
            acc = acc + np.asarray(batch.column(f"c_{i}"), dtype=np.float64)
        score = np.round(acc, round_digits)
        ids = np.asarray(batch.column("doc"))
        order = np.lexsort((ids, -score))[:top_k]
        return pa.table({"doc_id": pa.array(ids[order]),
                         "score": pa.array(score[order], pa.float64())})

    cands = per_doc.map_batches(local_topk, batch_format="pyarrow").take_all()
    out = pd.DataFrame(cands) if cands else pd.DataFrame(
        {"doc_id": [], "score": []})
    out = (out.sort_values(["score", "doc_id"], ascending=[False, True])
           .head(top_k).reset_index(drop=True))
    return out.astype({"doc_id": "int64", "score": "float64"})

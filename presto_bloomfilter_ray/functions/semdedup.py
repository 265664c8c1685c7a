"""SemDeDup — semantic deduplication over an embedding column.

Abbas et al. 2023 ("SemDeDup: Data-efficient learning at web-scale
through semantic deduplication"): cluster document embeddings with
k-means and drop all but one of every group of semantically
near-identical items (pairwise cosine above a threshold) — unlike
MinHash (lexical overlap) this catches paraphrases and re-renderings
of the same content.

Ray-Data shape — composed from machinery this repo already tunes:

* **Candidate pairs come from the IVF multi-probe path**
  (:func:`~.similarity.cosine_neardup_pairs_ivf`): bounded-sample
  k-means centroids, each vector assigned to its ``assign_m`` nearest
  clusters (multi-probe recovers the boundary-straddling pairs the
  paper's single-assignment misses — measured 0.29 → ≥0.8 recall on
  the near-isotropic synthetic embeddings), per-cluster chunked
  matmuls, flops O(Σ g_c²) not N². Precision is exact (true cosine),
  so the pair set is a subset of brute force.
* **The keep rule is deterministic and order-free**: pairs are
  emitted as (a < b); the drop set is exactly the distinct larger-id
  members — "keep the smallest id of every detected duplicate
  relation", the same rule as ``exact_dedup``.
* **Tagging probes a** :class:`~.keyset.KeySet` of drop ids, like
  dedup removal: the set is proportional to TRUE semantic
  duplication, broadcast as a sorted array below ``broadcast_limit``,
  else hash-sharded to parquet and probed with the per-worker LRU.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

from .keyset import KeySet
from .similarity import cosine_neardup_pairs_ivf

__all__ = ["semdedup"]


def semdedup(ds, threshold: float = 0.9, vec_col: str = "embedding",
             id_col: str = "vec_id", *, ncentroids: int = 16,
             assign_m: int = 3, sample_fraction: float = 0.2, seed: int = 7,
             chunk: int = 1024, drop_col: str = "is_semdup",
             broadcast_limit: int = 2_000_000,
             work_dir: Optional[str] = None):
    """Tag semantic duplicates: returns the input Dataset (original
    columns) + a boolean ``drop_col`` — True for every item with a
    smaller-id cosine-duplicate in some shared IVF cluster. Filter on
    it to dedup; keep it for observability."""
    pairs = cosine_neardup_pairs_ivf(
        ds, threshold=threshold, vec_col=vec_col, id_col=id_col,
        ncentroids=ncentroids, assign_m=assign_m,
        sample_fraction=sample_fraction, seed=seed, chunk=chunk)
    drop = KeySet.build(
        (pairs.select_columns(["b"]).groupby("b").count()
         .select_columns(["b"])).materialize(),
        "b", broadcast_limit=broadcast_limit, work_dir=work_dir,
        prefix="semdedup-shards-")

    def tag(b: pa.Table) -> pa.Table:
        hit, _ = drop.lookup(np.asarray(b.column(id_col), dtype=np.int64))
        return b.append_column(drop_col, pa.array(hit))

    return ds.map_batches(tag, batch_format="pyarrow")

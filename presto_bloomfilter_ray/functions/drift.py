"""Distribution drift between two corpus snapshots.

Retraining pipelines need to know WHERE a new crawl diverges from the
previous one — which cohorts' category mix moved — before expensive
downstream stages run. :func:`categorical_drift` compares, per key
(cohort, hour, language, host bucket …), the categorical distribution
of a column across two snapshots and reports the **total-variation
distance** ``TV = ½ Σ_c |p_a(c) - p_b(c)``:

* each snapshot contributes one
  :func:`~.fold.bucket_fold` count pass — map-side pre-folded, the
  exchange is bounded by ``keys × categories`` (the vocabulary), never
  by rows;
* the aligned count tables are vocabulary-sized and come to the driver
  (the same bounded-exchange contract as vocab_stats / TF-IDF /
  NB training);
* TV is computed in EXACT integer arithmetic —
  ``tv_ppm = Σ|c_a·n_b − c_b·n_a| · 10⁶ // (2·n_a·n_b)`` with
  arbitrary-precision Python ints — so a SQL engine recomputes the
  identical value with HUGEINT math (no float rounding to drift the
  oracle). A key present in only one snapshot is total drift by
  definition (``tv_ppm = 10⁶``).

TV is the right default for pipeline gating: bounded in [0, 1],
symmetric, defined for zero-probability categories (KL is not), and
exactly rational given integer counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from .fold import bucket_fold

__all__ = ["categorical_drift"]


def categorical_drift(ds_a, ds_b, key_col: str, cat_col: str, *,
                      max_cells: int = 2_000_000) -> pd.DataFrame:
    """Per-key total-variation drift of ``cat_col``'s distribution
    between snapshots ``ds_a`` and ``ds_b``.

    Returns a DataFrame ``(key_col, n_a, n_b, tv_ppm)`` sorted by
    ``key_col``. ``max_cells`` bounds the driver-side aligned count
    table (keys × categories cells per snapshot) — beyond it this
    operator's contract is violated and it raises loudly rather than
    pulling unbounded state.
    """
    if "__drift_n" in (key_col, cat_col):
        raise ValueError("column name __drift_n is reserved")

    def counts(ds):
        # the projection rides as ``pre``, keeping the free row count
        t = bucket_fold(ds, [key_col, cat_col], [(None, "count", "__drift_n")],
                        pre=lambda b: b.select([key_col, cat_col])).to_pandas()
        if len(t) > max_cells:
            raise ValueError(
                f"categorical_drift: {len(t)} (key, category) cells "
                f"exceeds max_cells={max_cells}; this operator pulls "
                "the vocabulary-sized count table to the driver")
        return t

    ca = counts(ds_a).rename(columns={"__drift_n": "ca"})
    cb = counts(ds_b).rename(columns={"__drift_n": "cb"})
    j = ca.merge(cb, on=[key_col, cat_col], how="outer")
    j["ca"] = j["ca"].fillna(0).astype("int64")
    j["cb"] = j["cb"].fillna(0).astype("int64")

    rows = []
    for key, g in j.groupby(key_col, sort=True):
        n_a = int(g["ca"].sum())
        n_b = int(g["cb"].sum())
        if n_a == 0 or n_b == 0:
            tv = 1_000_000  # single-sided key: total drift
        else:
            # exact rational arithmetic (Python ints are unbounded, so
            # c·n products cannot overflow at any corpus size)
            num = sum(abs(int(c_a) * n_b - int(c_b) * n_a)
                      for c_a, c_b in zip(g["ca"], g["cb"]))
            tv = (num * 1_000_000) // (2 * n_a * n_b)
        rows.append({key_col: key, "n_a": n_a, "n_b": n_b,
                     "tv_ppm": int(tv)})
    out = pd.DataFrame(rows)
    out["n_a"] = out["n_a"].astype("int64")
    out["n_b"] = out["n_b"].astype("int64")
    out["tv_ppm"] = out["tv_ppm"].astype("int64")
    return out

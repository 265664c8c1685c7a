"""Exact distributed order statistics — no global sort, no value shuffle.

The sketch family answers quantile queries approximately (t-digest /
KLL, rank error ≤ published bounds). Sometimes the pipeline needs the
EXACT order statistic — billing cutoffs, SLA percentiles, reproducing
a SQL ``quantile_disc`` — and the naive exact plans are the two worst
operators at 100 TB: a global ``sort`` (all-to-all of every value) or
a driver ``take_all``. :func:`exact_quantile` instead runs the classic
iterative histogram-narrowing selection (distributed quickselect with
a 4096-ary pivot fan-out):

1. one fold pass for ``(count, min, max)`` — three scalars per block;
2. per round, every block histograms its values into ``n_bins`` bins
   over the current interval (pure map side), partials are summed on
   the driver (one ``n_bins``-long int row per BLOCK, bounded by block
   count, never by rows); the bin containing the target rank becomes
   the next interval;
3. when the candidate interval holds ≤ ``pull_limit`` rows, pull just
   those rows and finish with an exact ``np.partition``.

Each round shrinks the candidate set ~``n_bins``×, so 10^12 rows
resolve in 3 rounds of map-only passes + one tiny pull. Values never
shuffle; the only driver state is ``blocks × n_bins`` int64 partials
per round.

Float discipline: bins are assigned with ``np.searchsorted`` against
ONE shared edge array per round — the same floats that become the next
interval's bounds — so a value can never straddle rounds (floor-divide
binning can disagree with ``lo + i*width`` by one ulp and silently
drop boundary rows from the rank arithmetic).

Rank semantics match DuckDB/Postgres ``quantile_disc`` /
``percentile_disc``: the returned value is the element at 1-based rank
``ceil(q · n)`` of the sorted non-null column (``q = 0`` → rank 1).
The driver query's oracle IS that SQL function, compared value-exact.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["exact_quantile", "grouped_exact_quantile"]

#: largest magnitude below which float64 holds every integer exactly;
#: above it neighbouring integers share one float
_EXACT_INT = 1 << 53


def _too_big(c) -> bool:
    """Whether integral column ``c`` holds a value with |v| > 2^53."""
    if not (pa.types.is_integer(c.type) and len(c)):
        return False
    mm = pc.min_max(c)
    return any(x is not None and abs(x) > _EXACT_INT
               for x in (mm["min"].as_py(), mm["max"].as_py()))


def _check_exact(big, col: str) -> None:
    """Raise if any of the :func:`_too_big` flags ``big`` is set."""
    if big.any():
        raise ValueError(
            f"integral column {col!r} holds a value with |v| > 2^53; "
            "float64 cannot order it exactly, so the result would not "
            "match quantile_disc")


def _minmax_count(ds, col: str):
    def part(b: pa.Table) -> pa.Table:
        c = b.column(col)
        v = np.asarray(c, dtype=np.float64)
        v = v[~np.isnan(v)]
        return pa.table({"n": pa.array([v.size], type=pa.int64()),
                         "lo": pa.array([float(v.min()) if v.size else np.inf]),
                         "hi": pa.array([float(v.max()) if v.size else -np.inf]),
                         "big": pa.array([_too_big(c)])})

    parts = ds.map_batches(part, batch_format="pyarrow",
                           batch_size=None).to_pandas()
    _check_exact(parts["big"], col)
    return (int(parts["n"].sum()), float(parts["lo"].min()),
            float(parts["hi"].max()))


def _in_interval(v: np.ndarray, lo: float, hi: float,
                 hi_inc: bool) -> np.ndarray:
    return v[(v >= lo) & ((v <= hi) if hi_inc else (v < hi))]


def exact_quantile(ds, col: str, q: Union[float, Sequence[float]], *,
                   n_bins: int = 4096, pull_limit: int = 1_000_000,
                   max_rounds: int = 16) -> Union[float, List[float]]:
    """Exact ``quantile_disc`` of a numeric Dataset column (nulls/NaNs
    ignored, like SQL). ``q`` may be a scalar or a sequence; each
    quantile narrows independently (rounds are cheap map-only passes
    and len(q) is small).

    Values are compared as float64, which is exact for every integer
    with ``|v| <= 2^53``; an integral column holding a larger magnitude
    raises ``ValueError`` instead of returning a value SQL would not.

    Raises on an empty column. ``max_rounds`` is a loud-failure guard:
    hitting it means the interval stopped shrinking below
    ``pull_limit`` candidates — raise rather than silently pulling an
    unbounded row set to the driver. If the interval collapses below
    float64 resolution first, the remaining candidates are
    indistinguishable and the shared value is returned directly.
    """
    qs = [float(q)] if np.isscalar(q) else [float(x) for x in q]
    if any(not (0.0 <= x <= 1.0) for x in qs):
        raise ValueError(f"quantiles must be in [0, 1], got {qs}")
    n, lo0, hi0 = _minmax_count(ds, col)
    if n == 0:
        raise ValueError(f"exact_quantile: column {col!r} has no "
                         "non-null values")

    out: List[float] = []
    for qq in qs:
        k = max(1, math.ceil(qq * n))  # 1-based target rank (disc)
        lo, hi = lo0, hi0
        hi_inc = True  # the global top edge is inclusive (== max)
        below = 0  # rows strictly below lo, globally
        inside = n
        rounds = 0
        while inside > pull_limit and hi > lo:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError(
                    f"exact_quantile: interval [{lo}, {hi}] still holds "
                    f"{inside} candidates after {max_rounds} rounds "
                    f"(pull_limit={pull_limit}); raise pull_limit or "
                    "inspect the column for adversarial float spread")
            edges = np.linspace(lo, hi, n_bins + 1)
            inner = edges[1:-1]
            if inner.size == 0 or edges[1] <= lo or edges[-2] >= hi:
                break  # interval below float resolution: values equal

            def hist(b: pa.Table, lo=lo, hi=hi, hi_inc=hi_inc,
                     inner=inner) -> pa.Table:
                v = np.asarray(b.column(col), dtype=np.float64)
                v = _in_interval(v[~np.isnan(v)], lo, hi, hi_inc)
                if v.size == 0:
                    h = np.zeros(n_bins, dtype=np.int64)
                else:
                    idx = np.searchsorted(inner, v, side="right")
                    h = np.bincount(idx, minlength=n_bins).astype(np.int64)
                return pa.table({"h": pa.array([h.tolist()],
                                               type=pa.list_(pa.int64()))})

            parts = ds.map_batches(hist, batch_format="pyarrow",
                                   batch_size=None).to_pandas()
            total = np.zeros(n_bins, dtype=np.int64)
            for row in parts["h"]:
                total += np.asarray(row, dtype=np.int64)
            cum = below + np.cumsum(total)
            b_i = int(np.searchsorted(cum, k, side="left"))
            if b_i > 0:
                below = int(cum[b_i - 1])
                lo = float(edges[b_i])
            if b_i < n_bins - 1:
                hi = float(edges[b_i + 1])
                hi_inc = False
            inside = int(total[b_i])

        if hi <= lo:
            out.append(lo)  # all remaining candidates share one value
            continue
        if inside > pull_limit:
            out.append(lo)  # below-resolution break above: values equal
            continue

        def pull(b: pa.Table, lo=lo, hi=hi, hi_inc=hi_inc) -> pa.Table:
            v = np.asarray(b.column(col), dtype=np.float64)
            return pa.table(
                {"v": pa.array(_in_interval(v[~np.isnan(v)], lo, hi,
                                            hi_inc))})

        vals = ds.map_batches(pull, batch_format="pyarrow",
                              batch_size=None).to_pandas()["v"].to_numpy()
        r = k - below  # rank within the pulled interval, 1-based
        if not (1 <= r <= vals.size):
            raise RuntimeError(
                f"exact_quantile internal rank error: r={r}, "
                f"pulled={vals.size} (q={qq}, k={k}, below={below})")
        out.append(float(np.partition(vals, r - 1)[r - 1]))
    return out[0] if np.isscalar(q) else out


def grouped_exact_quantile(ds, col: str, q, key_col: str, *,
                           n_bins: int = 1024,
                           pull_limit: int = 200_000,
                           max_rounds: int = 16,
                           max_keys: int = 65_536):
    """Exact per-group ``quantile_disc`` — every group narrows
    SIMULTANEOUSLY in the same map-only passes (one histogram pass per
    round covers all groups × all quantiles), instead of re-scanning
    the dataset once per group the way a naive loop over
    :func:`exact_quantile` would.

    Float discipline differs from the scalar path: instead of
    filtering by narrowed ``[lo, hi]`` floats (whose ulp-level
    disagreement with binning can drop boundary rows), each group's
    state is its original ``(lo0, hi0)`` plus the integer BIN PATH
    chosen so far. A row's membership is "recomputing every round's
    bin with the identical float expression reproduces the path" — the
    same ops on the same floats give the same bits everywhere, so
    membership is exact by construction.

    ``key_col`` cardinality must be ≤ ``max_keys`` (driver state is
    ``groups × quantiles`` small arrays + one ``groups × n_bins``
    histogram per round — the bounded-key-cardinality contract, like
    every GROUP BY quantile). Returns a pandas DataFrame with
    ``key_col`` and one ``q_<quantile>`` column per requested
    quantile; group ranks use the same ``ceil(q·n)`` rule as
    :func:`exact_quantile`.

    Values are compared as float64, as in :func:`exact_quantile`:
    exact for every integer with ``|v| <= 2^53``, and an integral
    column holding a larger magnitude raises ``ValueError``.
    """
    import math

    import pandas as pd

    from .fold import bucket_fold

    qs = [float(q)] if np.isscalar(q) else [float(x) for x in q]
    if any(not (0.0 <= x <= 1.0) for x in qs):
        raise ValueError(f"quantiles must be in [0, 1], got {qs}")

    def clean(b: pa.Table) -> pa.Table:
        v = np.asarray(b.column(col), dtype=np.float64)
        ok = ~np.isnan(v)
        import pyarrow.compute as pc
        ok &= ~np.asarray(pc.is_null(b.column(key_col)).combine_chunks()
                          if isinstance(b.column(key_col), pa.ChunkedArray)
                          else pc.is_null(b.column(key_col)))
        return pa.table({"k": b.column(key_col).filter(pa.array(ok)),
                         "v": pa.array(v[ok]),
                         "big": pa.array(np.full(int(ok.sum()),
                                                 _too_big(b.column(col))))})

    kv = ds.map_batches(clean, batch_format="pyarrow",
                        batch_size=None).materialize()
    stats = bucket_fold(kv, ["k"], [("v", "min", "lo"), ("v", "max", "hi"),
                                    (None, "count", "n"),
                                    ("big", "max", "big")]).to_pandas()
    _check_exact(stats["big"], col)
    K = len(stats)
    if K == 0:
        raise ValueError(f"grouped_exact_quantile: no non-null rows")
    if K > max_keys:
        raise ValueError(
            f"grouped_exact_quantile: {K} groups exceeds max_keys="
            f"{max_keys}; this operator's driver state is per-group")
    stats = stats.sort_values("k").reset_index(drop=True)
    keys_sorted = stats["k"].to_numpy()
    _kindex = pd.Index(keys_sorted)  # C-speed hash lookup (string keys
    # through np.searchsorted would fall back to per-row PyObject
    # comparisons — the hot-path ban)

    def _gidx(b: pa.Table) -> np.ndarray:
        """Per-batch group index of every row. Dictionary-encode the
        key column first (Arrow C++ hash over native buffers) and
        resolve only the ≤K DICTIONARY values through the pandas
        indexer — resolving rows directly would PyObject-hash every
        string once per round (measured: the dominant cost at 256M
        rows, ~20 s/round of pure unicode hashing)."""
        import pyarrow.compute as pc
        kcol = b.column("k")
        if isinstance(kcol, pa.ChunkedArray):
            kcol = kcol.combine_chunks()
        enc = pc.dictionary_encode(kcol)
        uniq = _kindex.get_indexer(enc.dictionary.to_pandas())
        return uniq[np.asarray(enc.indices)]

    # Re-materialize as (g int32, v float64): the group index is
    # resolved ONCE here instead of once per histogram round, and the
    # string key column stops crossing every subsequent pass.
    def add_g(b: pa.Table) -> pa.Table:
        return pa.table({
            "g": pa.array(_gidx(b).astype(np.int32)),
            "v": b.column("v"),
        })

    kv = kv.map_batches(add_g, batch_format="pyarrow",
                        batch_size=None).materialize()

    lo0 = stats["lo"].to_numpy(dtype=np.float64)
    hi0 = stats["hi"].to_numpy(dtype=np.float64)
    n_g = stats["n"].to_numpy(dtype=np.int64)

    Q = len(qs)
    T = K * Q  # track (g, j) = group g, quantile j
    k_rank = np.maximum(
        1, np.ceil(np.multiply.outer(n_g.astype(np.float64), qs))
    ).astype(np.int64).reshape(T)
    below = np.zeros(T, dtype=np.int64)
    inside = np.repeat(n_g, Q)
    # bin path per track; -1 = inactive depth
    paths = np.full((T, max_rounds), -1, dtype=np.int32)
    depth = np.zeros(T, dtype=np.int32)
    t_lo = np.repeat(lo0, Q)
    t_hi = np.repeat(hi0, Q)
    # interval history: the (lo, hi) the histogram used at each depth
    h_lo = np.zeros((T, max_rounds), dtype=np.float64)
    h_hi = np.zeros((T, max_rounds), dtype=np.float64)

    # Survivor set per track = rows whose bin at EVERY recorded depth
    # equals the chosen bin, with bins computed in the identical float
    # expression the histogram used. Each per-depth bin function is
    # monotone non-decreasing in v (trunc of an increasing affine map,
    # then a min-clip), so the bin VECTOR is lexicographically
    # monotone in v and the all-equal set is exactly one float
    # interval [A_t, B_t]. The driver bisects those two endpoints over
    # the float lattice (ordered-uint64 trick) — workers then test
    # membership with two compares instead of replaying the path
    # (which cost O(depth) full-array passes per round: the measured
    # dominant cost, quadratic in rounds).
    def _f2o(f):
        i = np.asarray(f, dtype=np.float64).view(np.uint64)
        neg = (i >> np.uint64(63)).astype(bool)
        return np.where(neg, ~i, i | np.uint64(1 << 63))

    def _o2f(o):
        o = np.asarray(o, dtype=np.uint64)
        pos = (o >> np.uint64(63)).astype(bool)
        bits = np.where(pos, o & np.uint64((1 << 63) - 1), ~o)
        return bits.view(np.float64)

    A = np.repeat(lo0, Q)
    B = np.repeat(hi0, Q)

    def _lex_cmp(tr, vals, side):
        """For each track tr[i], compare binvec(vals[i]) against its
        recorded path lexicographically. side='ge' → binvec >= path;
        side='le' → binvec <= path. Undecided (all equal) → True."""
        m_ = tr.size
        und = np.ones(m_, dtype=bool)
        res = np.zeros(m_, dtype=bool)
        d_of = depth[tr]
        with np.errstate(invalid="ignore", over="ignore"):
            for d in range(int(d_of.max(initial=0))):
                lev = und & (d_of > d)
                if not lev.any():
                    break
                lo = h_lo[tr, d]
                w = (h_hi[tr, d] - lo) / n_bins
                # clip BOTH ends, same expression as hist: a survivor
                # can sit one ulp below its track's lo once intervals
                # narrow near float resolution, and the two sides must
                # bin it identically for the interval argument to hold
                b = np.clip(((vals - lo) / w).astype(np.int64),
                            0, n_bins - 1)
                want = paths[tr, d]
                gt = lev & (b > want)
                lt = lev & (b < want)
                res |= gt if side == "ge" else lt
                und &= ~(gt | lt)
        return res | und

    def _refit_bounds(tr):
        """Exact float endpoints of each track's survivor interval —
        vectorized bisection over the ordered-uint64 float lattice."""
        lo_o = _f2o(lo0[tr // Q])
        hi_o = _f2o(hi0[tr // Q])
        # left edge: smallest v with binvec >= path
        L, H = lo_o.copy(), hi_o.copy()
        while True:
            open_ = L < H
            if not open_.any():
                break
            M = L + (H - L) // np.uint64(2)
            p = _lex_cmp(tr, _o2f(M), "ge")
            H = np.where(open_ & p, M, H)
            L = np.where(open_ & ~p, M + np.uint64(1), L)
        A[tr] = _o2f(L)
        # right edge: largest v with binvec <= path
        L, H = lo_o.copy(), hi_o.copy()
        while True:
            open_ = L < H
            if not open_.any():
                break
            M = L + (H - L + np.uint64(1)) // np.uint64(2)
            p = _lex_cmp(tr, _o2f(M), "le")
            L = np.where(open_ & p, M, L)
            H = np.where(open_ & ~p, M - np.uint64(1), H)
        B[tr] = _o2f(L)

    rounds = 0
    while (inside > pull_limit).any():
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"grouped_exact_quantile: {(inside > pull_limit).sum()} "
                f"tracks still above pull_limit after {max_rounds} rounds")
        active = inside > pull_limit
        # degenerate intervals can't subdivide: all values equal
        deg = active & ((t_hi - t_lo) <= 0)
        if deg.any():
            inside[deg] = 0
            active = inside > pull_limit

        def hist(b: pa.Table, active=active.copy(), A=A.copy(),
                 B=B.copy(), t_lo=t_lo.copy(), t_hi=t_hi.copy()
                 ) -> pa.Table:
            v = np.asarray(b.column("v"), dtype=np.float64)
            g_idx = np.asarray(b.column("g"), dtype=np.int64)
            out = np.zeros(T * n_bins, dtype=np.int64)
            for j in range(Q):
                t = g_idx * Q + j
                m = active[t] & (v >= A[t]) & (v <= B[t])
                if not m.any():
                    continue
                tm = t[m]
                lo = t_lo[tm]
                w = (t_hi[tm] - lo) / n_bins
                # clip both ends (matching _lex_cmp): [A, B] membership
                # admits rows an ulp outside [t_lo, t_hi] when widths
                # approach float resolution; a negative quotient must
                # land in bin 0, not crash the bincount
                bins = np.clip(((v[m] - lo) / w).astype(np.int64),
                               0, n_bins - 1)
                out += np.bincount(tm * n_bins + bins,
                                   minlength=T * n_bins)
            return pa.table({"h": pa.array([out.tolist()],
                                           type=pa.list_(pa.int64()))})

        parts = kv.map_batches(hist, batch_format="pyarrow",
                               batch_size=None).to_pandas()
        total = np.zeros(T * n_bins, dtype=np.int64)
        for row in parts["h"]:
            total += np.asarray(row, dtype=np.int64)
        hmat = total.reshape(T, n_bins)
        act = np.flatnonzero(active)
        for t in act:
            cum = below[t] + np.cumsum(hmat[t])
            b_i = int(np.searchsorted(cum, k_rank[t], side="left"))
            if b_i > 0:
                below[t] = int(cum[b_i - 1])
            h_lo[t, depth[t]] = t_lo[t]
            h_hi[t, depth[t]] = t_hi[t]
            paths[t, depth[t]] = b_i
            depth[t] += 1
            w = (t_hi[t] - t_lo[t]) / n_bins
            new_lo = t_lo[t] + b_i * w
            if b_i < n_bins - 1:
                t_hi[t] = new_lo + w
            t_lo[t] = new_lo
            inside[t] = int(hmat[t, b_i])
        _refit_bounds(act)

    # pull phase: per track, collect surviving values
    def pull(b: pa.Table, A=A.copy(), B=B.copy()) -> pa.Table:
        v = np.asarray(b.column("v"), dtype=np.float64)
        g_idx = np.asarray(b.column("g"), dtype=np.int64)
        ts, vs = [], []
        for j in range(Q):
            t = g_idx * Q + j
            m = (v >= A[t]) & (v <= B[t])
            ts.append(t[m])
            vs.append(v[m])
        return pa.table({"t": pa.array(np.concatenate(ts)),
                         "v": pa.array(np.concatenate(vs))})

    pulled = kv.map_batches(pull, batch_format="pyarrow",
                            batch_size=None).to_pandas()
    res = np.full(T, np.nan)
    order = np.argsort(pulled["t"].to_numpy(), kind="stable")
    pt = pulled["t"].to_numpy()[order]
    pv = pulled["v"].to_numpy()[order]
    starts = np.searchsorted(pt, np.arange(T))
    ends = np.searchsorted(pt, np.arange(T) + 1)
    for t in range(T):
        vals = pv[starts[t]:ends[t]]
        r = k_rank[t] - below[t]
        if vals.size == 0 and inside[t] == 0:
            res[t] = t_lo[t]  # degenerate all-equal interval
            continue
        if not (1 <= r <= vals.size):
            raise RuntimeError(
                f"grouped_exact_quantile rank error: track {t}, r={r}, "
                f"pulled={vals.size}")
        res[t] = np.partition(vals, r - 1)[r - 1]
    out = pd.DataFrame({key_col: keys_sorted})
    for j, qq in enumerate(qs):
        out[f"q_{qq}"] = res[j::Q] if Q > 1 else res
    return out

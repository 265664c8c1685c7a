"""Edit-distance similarity self-join — all pairs within byte-level
Levenshtein distance ``d`` (near-identical titles, urls, product
names; typo-class duplicates MinHash resemblance cannot see).

Classic q-gram filtering (Gravano et al., VLDB'01; Ed-Join family):
an edit operation touches at most ``q`` byte q-gram windows, so two
strings within distance ``d`` share at least ``max(|Da|, |Db|) - q*d``
DISTINCT q-grams (each destroyed window occurrence removes at most
one distinct gram) and differ in byte length by at most ``d``.
Candidates are exactly the pairs sharing >= 1 gram that survive the
count + length filters — plus the SHORT POOL: strings with <= q*d
distinct grams can reach distance d sharing zero grams, so they are
all-paired among themselves (bounded: only gram-poor strings qualify;
the pool is collected with a LOUD cap, never silently).

Distance is BYTE-level Levenshtein (equal to character-level on
ASCII; on multibyte UTF-8 an edited character costs up to 4 byte
edits — size ``d`` accordingly).

Scale shape (everything a Dataset, nothing corpus-sized on the
driver):

1. one map pass emits distinct ``(gram, doc)`` rows (vectorized
   rolling byte windows over the Arrow buffer, per-doc dedup via one
   ``np.unique``); a ``bucket_fold`` counts global gram frequencies;
2. PREFIX FILTERING (Ed-Join / the prefix-filter theorem): under any
   global total order of grams, two strings within distance d must
   share a gram among their ``q*d + 1`` smallest-ranked grams — so
   only those are emitted as blocking keys, cutting posting volume
   from O(corpus bytes) to O(docs * (qd+1)) and starving the
   quadratic expansion that full-gram blocking suffers on common
   grams. Rank is rarest-first when the gram vocabulary fits the
   broadcast budget, else a deterministic hash order (soundness needs
   only consistency);
3. a gram-hash-bucketed :func:`~.fold.exchange` expands within-gram pairs (the
   containment module's run-rank expansion), hot grams above
   ``hot_gram_cap`` dropped LOUDLY via the returned stats; a
   ``bucket_fold`` dedupes pairs;
4. two :func:`~.fold.co_attach` exchanges attach each side's text
   to its edges — each doc's text crosses the wire once per phase —
   apply the length filter, and verify survivors with a
   BATCH-VECTORIZED banded Levenshtein:
   the DP iterates byte rows in Python but each row is one numpy op
   over ``[pairs, 2d+1]``, so per-pair cost is C-speed regardless of
   candidate volume.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .containment import _expand_pairs
from .fold import bucket_fold, co_attach, exchange, exchange_width

__all__ = ["edit_distance_pairs", "banded_levenshtein"]

_PACK = np.int64(1) << np.int64(31)
_INF = np.int32(1 << 20)


def _padded_bytes(texts) -> Tuple[np.ndarray, np.ndarray]:
    """(matrix [n, Lmax] uint8 zero-padded, byte lengths [n]) — built
    from the Arrow buffers with one fancy-index gather, no per-row
    Python."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    arr = texts.cast(pa.large_binary())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    buf = np.frombuffer(arr.buffers()[2] or b"", dtype=np.uint8)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset: arr.offset + len(arr) + 1]
    lens = np.diff(offs)
    lmax = int(lens.max()) if len(lens) else 0
    if lmax == 0:
        return np.zeros((len(arr), 0), dtype=np.uint8), lens
    idx = offs[:-1, None] + np.arange(lmax)[None, :]
    mask = np.arange(lmax)[None, :] < lens[:, None]
    out = np.zeros((len(arr), lmax), dtype=np.uint8)
    np.copyto(out, buf[np.minimum(idx, buf.size - 1)], where=mask)
    return out, lens


def banded_levenshtein(A: np.ndarray, la: np.ndarray,
                       B: np.ndarray, lb: np.ndarray,
                       d: int) -> np.ndarray:
    """Byte-level Levenshtein per pair, capped at ``d``: returns int32
    distances with values > ``d`` clamped to ``d + 1``.

    Banded DP over columns ``k = j - i + d`` in ``[0, 2d]``; rows
    iterate in Python (max byte-length iterations) but every row is a
    vectorized op over ALL pairs, so cost is O(Lmax * pairs * d) in
    C. The only inner Python loop is over the 2d+1 band columns."""
    la = la.astype(np.int64)
    lb = lb.astype(np.int64)
    P = A.shape[0]
    res = np.full(P, d + 1, dtype=np.int32)
    if P == 0:
        return res
    w = 2 * d + 1
    ks = np.arange(w)
    # i = 0 row: D[0][j] = j for valid j in [0, lb]
    j0 = ks[None, :] - d
    prev = np.where((j0 >= 0) & (j0 <= lb[:, None]),
                    np.maximum(j0, 0), _INF).astype(np.int32)
    at = la == 0
    if at.any():
        kf = lb[at] + d
        ok = kf < w
        r = np.full(int(at.sum()), d + 1, dtype=np.int32)
        rows = np.flatnonzero(at)
        r[ok] = np.minimum(prev[rows[ok], kf[ok]], d + 1)
        res[at] = r
    lmax = int(la.max()) if P else 0
    rowsel = np.arange(P)[:, None]
    for i in range(1, lmax + 1):
        j = i + ks[None, :] - d  # j per band column at row i
        # substitution / match: prev[k] + cost(a[i-1], b[j-1])
        if B.shape[1]:
            bj = np.clip(j - 1, 0, B.shape[1] - 1)
            bchar = B[rowsel, bj]
        else:
            bchar = np.zeros((P, w), dtype=np.uint8)
        achar = (A[:, i - 1][:, None] if A.shape[1] >= i
                 else np.zeros((P, 1), dtype=np.uint8))
        diag = prev + (achar != bchar).astype(np.int32)
        # deletion from a: D[i-1][j] = prev[k+1]
        up = np.full((P, w), _INF, dtype=np.int32)
        up[:, :-1] = prev[:, 1:]
        cand = np.minimum(diag, up + 1)
        valid = (j >= 1) & (j <= lb[:, None])
        cand = np.where(valid, cand, _INF)
        cand = np.where(j == 0, i, cand)  # boundary D[i][0] = i
        # insertion into a: D[i][j-1] = cur[k-1] — left-to-right over
        # the BAND (<= 2d+1 columns), not the data
        cur = cand.copy()
        for k in range(1, w):
            np.minimum(cur[:, k], cur[:, k - 1] + 1, out=cur[:, k])
        cur = np.where(valid | (j == 0), cur, _INF)
        at = la == i
        if at.any():
            kf = lb[at] - i + d
            ok = (kf >= 0) & (kf < w)
            r = np.full(int(at.sum()), d + 1, dtype=np.int32)
            rows = np.flatnonzero(at)
            r[ok] = np.minimum(cur[rows[ok], kf[ok]], d + 1)
            res[at] = r
        live = la > i
        if not live.any():
            break
        prev = np.where(live[:, None], cur, prev)
    res[np.abs(la - lb) > d] = d + 1
    return res


def _doc_qgrams(b: pa.Table, id_col: str, text_col: str, q: int):
    """Distinct ``(gh, doc)`` gram rows + per-doc ``(doc, ng)``
    distinct-gram counts for one batch. Gram codes pack q bytes
    big-endian (q <= 7 → (doc << 56 | gram) fits int64 for the
    per-doc dedup)."""
    ids = np.asarray(b.column(id_col), dtype=np.int64)
    if len(ids) and ((ids < 0).any() or (ids >= int(_PACK)).any()):
        raise ValueError("edit_distance_pairs requires ids in [0, 2^31)")
    col = b.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    arr = col.cast(pa.large_binary())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    buf = np.frombuffer(arr.buffers()[2] or b"", dtype=np.uint8)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset: arr.offset + len(arr) + 1]
    ng = np.zeros(len(ids), dtype=np.int64)
    empty = pa.table({"gh": pa.array([], type=pa.int64()),
                      "doc": pa.array([], type=pa.int64())})
    if buf.size < q or len(ids) == 0:
        return empty, pa.table({"doc": pa.array(ids),
                                "ng": pa.array(ng)})
    code = np.zeros(buf.size - q + 1, dtype=np.int64)
    for j in range(q):
        code |= buf[j: buf.size - q + 1 + j].astype(np.int64) \
            << (8 * (q - 1 - j))
    idx = np.arange(code.size)
    doc_of = np.searchsorted(offs, idx, side="right") - 1
    safe = np.clip(doc_of, 0, len(arr) - 1)
    ok = (doc_of >= 0) & (doc_of < len(arr))
    ok &= (idx + q) <= offs[safe + 1]
    row = safe[ok]
    # per-doc distinct grams via lexsort + run heads (overflow-free
    # for any batch size and any q — packing row<<56|gram would wrap
    # int64 past 128 rows)
    codev = code[ok]
    order = np.lexsort((codev, row))
    r_s, c_s = row[order], codev[order]
    first = np.ones(r_s.size, dtype=bool)
    if r_s.size > 1:
        first[1:] = (r_s[1:] != r_s[:-1]) | (c_s[1:] != c_s[:-1])
    prow, gh = r_s[first], c_s[first]
    u, c = np.unique(prow, return_counts=True)
    ng[u] = c
    grams = pa.table({"gh": pa.array(gh), "doc": pa.array(ids[prow])})
    return grams, pa.table({"doc": pa.array(ids), "ng": pa.array(ng)})


class _CapCounter:
    def __init__(self):
        self.n = 0
        self.rows = 0

    def add(self, n, rows):
        self.n += int(n)
        self.rows += int(rows)

    def get(self):
        return self.n, self.rows


def edit_distance_pairs(ds, max_dist: int = 1, q: int = 3,
                        id_col: str = "doc_id", text_col: str = "text",
                        *, hot_gram_cap: int = 20_000,
                        n_parts: int = 32,
                        short_pool_cap: int = 200_000,
                        freq_vocab_limit: int = 4_000_000):
    """All pairs ``(a, b, dist)`` with ``a < b`` and byte-level
    Levenshtein ``dist <= max_dist``. Returns ``(pairs_ds, stats)``;
    ``stats['capped_grams']`` counts hot grams dropped — 0 means the
    result is EXACT; a non-zero count means pairs whose every shared
    gram was hot may be missing (loud, never silent). A single gram
    with a posting list of length L expands to L²/2 candidate pairs,
    so ``hot_gram_cap`` bounds worst-case pair volume per gram.

    SIZE ``q`` TO THE CORPUS: gram selectivity is what bounds the
    candidate count, and a fixed gram vocabulary dilutes linearly as
    the corpus grows — q=3 suits ~10^5 short strings; use q=4–5 at
    10^6+ (measured: 1M strings from a 50k-word vocabulary are
    quadratic at q=3 and linear at q=4).

    Every exchange (the gram count and pairing folds and the two
    verification attaches) is count-sized, at most ``n_parts``
    partitions.

    Ids must be unique, non-negative and < 2^31. ``q`` in [2, 7]."""
    import polars as pl
    import ray

    if not (2 <= q <= 7):
        raise ValueError("q must be in [2, 7]")
    if max_dist < 0:
        raise ValueError("max_dist must be >= 0")
    d = int(max_dist)
    qd = q * d

    grams = ds.map_batches(
        lambda b: _doc_qgrams(b, id_col, text_col, q)[0],
        batch_format="pyarrow", batch_size=None)

    # ---- prefix filtering (Ed-Join / Chaudhuri prefix-filter theorem)
    # Two strings within distance d share >= max(|Da|,|Db|) - q*d
    # distinct grams, so under ANY global total order of grams their
    # (q*d + 1)-prefixes must intersect: emitting only each doc's
    # q*d+1 smallest-ranked grams keeps candidates a provable superset
    # while cutting posting volume from O(bytes) to O(docs * (qd+1)).
    # Rank = global frequency (rarest first — minimizes collisions)
    # when the gram vocabulary fits the broadcast budget, else a
    # deterministic hash order (still sound: the theorem only needs
    # consistency, frequency is a performance heuristic).
    freq = bucket_fold(grams, ["gh"], [(None, "count", "n")],
                       num_buckets=n_parts)
    n_vocab = freq.count()
    # collect the vocabulary ONLY when it fits the broadcast budget —
    # pulling it first and checking after would OOM the driver at
    # exactly the scale the hash-rank fallback exists for
    _freq_parts = ([t for t in ray.get(freq.to_arrow_refs())
                    if t.num_columns and t.num_rows]
                   if n_vocab <= freq_vocab_limit else [])
    if _freq_parts:
        ft = pa.concat_tables(_freq_parts)
        vg = np.asarray(ft.column("gh"), dtype=np.int64)
        vn = np.asarray(ft.column("n"), dtype=np.int64)
        o = np.argsort(vg)
        rank_ref = ray.put((vg[o], vn[o]))

        def rank_of(gh: np.ndarray) -> np.ndarray:
            vgs, vns = ray.get(rank_ref)
            return vns[np.searchsorted(vgs, gh)]
    else:
        rank_ref = None

        def rank_of(gh: np.ndarray) -> np.ndarray:
            z = (gh.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15))
            z = ((z ^ (z >> np.uint64(30)))
                 * np.uint64(0xBF58476D1CE4E5B9))
            return (z ^ (z >> np.uint64(27))).astype(np.int64) & \
                np.int64((1 << 62) - 1)

    def prefix_rows(b: pa.Table) -> pa.Table:
        t, _ = _doc_qgrams(b, id_col, text_col, q)
        gh = np.asarray(t.column("gh"), dtype=np.int64)
        doc = np.asarray(t.column("doc"), dtype=np.int64)
        if gh.size == 0:
            return t
        r = rank_of(gh)
        order = np.lexsort((gh, r, doc))  # by doc, then rank, then gh
        doc_s, gh_s = doc[order], gh[order]
        starts = np.flatnonzero(np.r_[True, doc_s[1:] != doc_s[:-1]])
        lens = np.diff(np.append(starts, doc_s.size))
        within = np.arange(doc_s.size) - np.repeat(starts, lens)
        keep = within <= qd  # first q*d + 1 grams per doc
        return pa.table({"gh": pa.array(gh_s[keep]),
                         "doc": pa.array(doc_s[keep])})

    prefix_grams = ds.map_batches(prefix_rows, batch_format="pyarrow",
                                  batch_size=None)

    # ---- short pool: <= q*d distinct grams can match sharing none
    # (its own gram pass over ds — the verify exchanges stay gram-free)
    def pool_rows(b: pa.Table) -> pa.Table:
        _, st = _doc_qgrams(b, id_col, text_col, q)
        m = pc.less_equal(st.column("ng"), pa.scalar(qd, pa.int64()))
        kept = st.filter(m)
        pos = pc.index_in(kept.column("doc"),
                          value_set=b.column(id_col).cast(pa.int64()))
        return pa.table({
            "key": kept.column("doc"),
            "txt": b.column(text_col).cast(pa.large_string()).take(pos),
        })

    _pool_schema = pa.schema([("key", pa.int64()),
                              ("txt", pa.large_string())])
    # count the pool before collecting it (text included) to the
    # driver, as the vocabulary guard above does
    pool_ds = ds.map_batches(pool_rows, batch_format="pyarrow",
                             batch_size=None).materialize()
    n_pool = pool_ds.count()
    if n_pool > short_pool_cap:
        raise ValueError(
            f"short-string pool {n_pool} exceeds cap "
            f"{short_pool_cap}; gram-poor strings dominate — raise "
            "short_pool_cap or pre-filter")
    # empty upstream blocks surface as zero-column tables — drop them
    _pool_parts = [t for t in ray.get(pool_ds.to_arrow_refs())
                   if t.num_columns]
    pool_t = (pa.concat_tables(_pool_parts) if _pool_parts
              else _pool_schema.empty_table())
    pool_ids = np.sort(np.asarray(pool_t.column("key"), dtype=np.int64))
    pool_ref = ray.put(pool_ids)

    cap_counter = ray.remote(_CapCounter).remote()

    def pairs_of(g: pa.Table) -> pa.Table:
        t = pl.from_arrow(g).sort(["gh", "doc"])
        gh_v = t["gh"].to_numpy()
        doc = t["doc"].to_numpy()
        a, bb, n_cap, cap_rows = _expand_pairs(gh_v, doc, hot_gram_cap)
        if n_cap:
            ray.get(cap_counter.add.remote(n_cap, cap_rows))
        return pl.DataFrame({"key": a * _PACK + bb}).unique().to_arrow()

    keys = bucket_fold(exchange(prefix_grams, ["gh"], pairs_of,
                                num_buckets=n_parts),
                       ["key"], [], num_buckets=n_parts)

    def edge_rows(b: pa.Table) -> pa.Table:
        key = np.asarray(b.column("key"), dtype=np.int64)
        return pa.table({"a": pa.array(key // int(_PACK)),
                         "b": pa.array(key % int(_PACK))})

    # materialize edges so the hot-gram cap counts are final before
    # stats are read (pairs_of runs during THIS execution, not later)
    edges = keys.map_batches(edge_rows, batch_format="pyarrow",
                             batch_size=None).materialize()

    # ---- verification: two co_attach exchanges attach each side's
    # text to its edges. The corpus-sized doc side is deliberately NOT
    # materialized — each exchange re-streams it from the source rather
    # than pinning the whole corpus's text in the object store. Both
    # are sized from the doc and edge counts (phase A emits at most one
    # row per edge)
    width = exchange_width(ds.count() + edges.count(), n_parts)
    i64, txt = pa.int64(), pa.large_string()
    doc_schema = [(id_col, i64), (text_col, txt)]

    def attach_a(docs: pa.Table, e: pa.Table) -> pa.Table:
        a = np.asarray(e.column("a"))
        bb = np.asarray(e.column("b"))
        # pool-pool pairs are handled exhaustively by the short pool —
        # drop them here so a gram-sharing pool pair isn't emitted twice
        pids = ray.get(pool_ref)
        if pids.size:
            keep = ~(np.isin(a, pids) & np.isin(bb, pids))
            e, a = e.filter(pa.array(keep)), a[keep]
        pos = np.searchsorted(np.asarray(docs.column(id_col)), a)
        return pa.table({"b": e.column("b"), "a": e.column("a"),
                         "txt_a": docs.column(text_col).take(pos)})

    def verify_b(docs: pa.Table, e: pa.Table) -> pa.Table:
        bkey = np.asarray(e.column("b"))
        pos = np.searchsorted(np.asarray(docs.column(id_col)), bkey)
        A, la = _padded_bytes(e.column("txt_a"))
        B, lb = _padded_bytes(docs.column(text_col).take(pos))
        # length filter (the count filter is subsumed by prefix
        # filtering upstream; the banded DP itself is the exact check)
        keep = np.abs(la - lb) <= d
        dist = banded_levenshtein(A[keep], la[keep], B[keep], lb[keep], d)
        ok = dist <= d
        return pa.table({
            "a": pa.array(np.asarray(e.column("a"))[keep][ok], i64),
            "b": pa.array(bkey[keep][ok], i64),
            "dist": pa.array(dist[ok], pa.int32())})

    phase_a = co_attach(ds, edges, attach_a, left_key=id_col,
                        right_key="a", n_parts=width,
                        left_schema=doc_schema,
                        right_schema=[("a", i64), ("b", i64)])
    verified = co_attach(ds, phase_a, verify_b, left_key=id_col,
                         right_key="b", n_parts=width,
                         left_schema=doc_schema,
                         right_schema=[("b", i64), ("a", i64),
                                       ("txt_a", txt)])

    # ---- short pool: all-pairs among the (capped) pool. The DP runs
    # over DISTINCT strings (short strings collide massively) in
    # bounded tiles, never one triu over the raw rows — 100k identical
    # "ab" rows cost one 1-string DP plus the (semantically required)
    # id-pair expansion of the matching string groups.
    if pool_t.num_rows >= 2:
        ids = np.asarray(pool_t.column("key"), dtype=np.int64)
        raw = np.asarray(pool_t.column("txt"), dtype=object)
        ustr, inv = np.unique(raw, return_inverse=True)
        U = len(ustr)
        if U > 20_000:
            raise ValueError(
                f"{U} DISTINCT gram-poor strings in the short pool — "
                "the all-pairs verify is quadratic in distinct "
                "strings; pre-filter or raise q")
        M, ln = _padded_bytes(pa.array(ustr.tolist(),
                                       type=pa.large_string()))
        # matched distinct-string pairs (ui < uj), tiled to bound memory
        TILE = 2048
        mi, mj, md = [], [], []
        for i0 in range(0, U, TILE):
            i1 = min(i0 + TILE, U)
            for j0 in range(i0, U, TILE):
                j1 = min(j0 + TILE, U)
                ii, jj = np.meshgrid(np.arange(i0, i1),
                                     np.arange(j0, j1), indexing="ij")
                ii, jj = ii.ravel(), jj.ravel()
                m = ii < jj
                ii, jj = ii[m], jj[m]
                if not ii.size:
                    continue
                lf = np.abs(ln[ii] - ln[jj]) <= d  # length pre-filter
                ii, jj = ii[lf], jj[lf]
                if not ii.size:
                    continue
                dist = banded_levenshtein(M[ii], ln[ii], M[jj], ln[jj], d)
                ok = dist <= d
                mi.append(ii[ok]); mj.append(jj[ok]); md.append(dist[ok])
        # expand matched string pairs (and same-string groups, dist 0)
        # back to id pairs
        order = np.argsort(inv, kind="stable")
        inv_s, ids_s = inv[order], ids[order]
        starts = np.flatnonzero(np.r_[True, inv_s[1:] != inv_s[:-1]])
        ends = np.append(starts[1:], inv_s.size)
        group_of = np.full(U, -1, dtype=np.int64)
        group_of[inv_s[starts]] = np.arange(starts.size)
        aa_l, bb_l, dd_l = [], [], []
        ui_all = np.concatenate(mi) if mi else np.array([], np.int64)
        uj_all = np.concatenate(mj) if mj else np.array([], np.int64)
        dd_all = np.concatenate(md) if md else np.array([], np.int32)
        for ui, uj, dv in zip(ui_all, uj_all, dd_all):
            gi, gj = group_of[ui], group_of[uj]
            a_ids = ids_s[starts[gi]:ends[gi]]
            b_ids = ids_s[starts[gj]:ends[gj]]
            X, Y = np.meshgrid(a_ids, b_ids, indexing="ij")
            aa_l.append(np.minimum(X.ravel(), Y.ravel()))
            bb_l.append(np.maximum(X.ravel(), Y.ravel()))
            dd_l.append(np.full(X.size, dv, dtype=np.int32))
        for u in range(U):  # same-string groups: dist 0 within group
            g = group_of[u]
            grp = ids_s[starts[g]:ends[g]]
            if grp.size >= 2:
                X, Y = np.triu_indices(grp.size, k=1)
                aa_l.append(np.minimum(grp[X], grp[Y]))
                bb_l.append(np.maximum(grp[X], grp[Y]))
                dd_l.append(np.zeros(X.size, dtype=np.int32))
        if aa_l:
            import ray.data as rd

            pool_ds = rd.from_arrow(pa.table({
                "a": pa.array(np.concatenate(aa_l)),
                "b": pa.array(np.concatenate(bb_l)),
                "dist": pa.array(np.concatenate(dd_l))}))
            verified = verified.union(pool_ds)

    n_cap, cap_rows = ray.get(cap_counter.get.remote())
    return verified, {"capped_grams": n_cap, "capped_rows": cap_rows,
                      "short_pool": pool_t.num_rows}

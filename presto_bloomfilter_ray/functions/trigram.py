"""Trigram substring-search index — grep over a 100 TB corpus without
scanning it.

The classic code-search design (Cox, "Regular Expression Matching
with a Trigram Index", 2012 — the Google Code Search postings): index
every document's DISTINCT byte trigrams as posting rows
``(tri, doc_id)``, hash-partitioned by trigram into shard parquet. A
substring query touches only the shards its own trigrams hash to
(the IVF-bucket access pattern), intersects the posting lists
(a doc qualifies only if it contains EVERY query trigram — a superset
of the true matches, never a miss), and verifies candidates exactly
with one filtered ``match_substring`` pass over the docs.

Scale shape: build is one vectorized pass (rolling 3-byte codes over
the Arrow string buffer, per-doc dedup via one ``np.unique`` on
packed ``(doc, tri)`` int64s) plus one bounded groupby to shard the
postings; search reads ``O(query trigrams / n_shards)`` of the index
and only the candidate docs' text. Trigrams are BYTE trigrams (UTF-8
agnostic, standard for this index family); needles shorter than 3
bytes fall back to a full scan, loudly.
"""

from __future__ import annotations

import glob as _glob
import json
import os
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .fold import partition_map

__all__ = ["TrigramIndex"]


def _doc_trigrams(texts: pa.Array, ids: np.ndarray):
    """Distinct (doc_id, tri_code) pairs for a batch — fully
    vectorized over the Arrow string buffer. tri_code packs 3 bytes
    big-endian into 24 bits; pairs pack (doc << 24 | tri) into int64
    (requires doc_id < 2^39)."""
    if len(texts) == 0:
        return np.empty(0, dtype=np.int64)
    arr = texts.cast(pa.large_binary())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    buf = np.frombuffer(arr.buffers()[2] or b"", dtype=np.uint8)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
        arr.offset: arr.offset + len(arr) + 1]
    if buf.size < 3:
        return np.empty(0, dtype=np.int64)
    tri = (buf[:-2].astype(np.int64) << 16) | \
          (buf[1:-1].astype(np.int64) << 8) | buf[2:].astype(np.int64)
    # window i belongs to doc d iff offs[d] <= i and i+3 <= offs[d+1].
    # A sliced array's buffer may carry bytes outside [offs[0],
    # offs[-1]]: clip the gather and mask those windows out.
    idx = np.arange(tri.size)
    doc_of = np.searchsorted(offs, idx, side="right") - 1
    safe = np.clip(doc_of, 0, len(arr) - 1)
    ok = (doc_of >= 0) & (doc_of < len(arr))
    ok &= (idx + 3) <= offs[safe + 1]
    packed = (ids[safe[ok]] << 24) | tri[ok]
    return np.unique(packed)


def _needle_codes(needle: bytes) -> np.ndarray:
    b = np.frombuffer(needle, dtype=np.uint8)
    tri = (b[:-2].astype(np.int64) << 16) | \
          (b[1:-1].astype(np.int64) << 8) | b[2:].astype(np.int64)
    return np.unique(tri)


_CHUNK_RE_TMPL = r"tri-(\d{5})-g(\d{4})\.parquet$"
_CNT_RE_TMPL = r"cnt-(\d{5})-g(\d{4})\.parquet$"


class TrigramIndex:
    """Build / query / APPEND a sharded trigram posting index on disk.

    Chunks are generation-tagged (``tri-<shard>-g<gen>.parquet``) with
    the manifest's ``gen`` bump as the commit point — the same
    crashed-append-is-invisible discipline as the MinHash and BM25
    indexes (`dedup_index.py`, `search_index.py`): readers only load
    chunks with gen ≤ manifest gen; :meth:`repair` drops newer debris.
    """

    def __init__(self, root: str, n_shards: int = 64):
        self.root = root
        self.n_shards = n_shards

    # -------------------------------------------------------- ingest
    def _ingest(self, ds, gen: int, text_col: str, id_col: str):
        n_shards = self.n_shards

        def postings(b: pa.Table) -> pa.Table:
            ids = np.asarray(b.column(id_col), dtype=np.int64)
            if (ids < 0).any() or (ids >= (1 << 39)).any():
                raise ValueError("doc ids must be in [0, 2^39)")
            col = b.column(text_col)
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            packed = _doc_trigrams(col, ids)
            tri = packed & ((1 << 24) - 1)
            return pa.table({
                "tri": pa.array(tri.astype(np.int32)),
                "doc": pa.array(packed >> 24),
                "shard": pa.array((tri % n_shards).astype(np.int64)),
            })

        def write_shard(s: int, g: pa.Table) -> pa.Table:
            tri = np.asarray(g.column("tri"))
            doc = np.asarray(g.column("doc"))
            order = np.lexsort((doc, tri))
            out = pa.table({"tri": pa.array(tri[order]),
                            "doc": pa.array(doc[order])})
            import pyarrow.parquet as pq

            name = f"tri-{s:05d}-g{gen:04d}.parquet"
            tmp = os.path.join(self.root, "." + name + ".tmp")
            pq.write_table(out, tmp)
            os.replace(tmp, os.path.join(self.root, name))
            # posting-count sidecar: (tri, n) per distinct trigram —
            # the query planner's list-length table (Cox's planner
            # keeps only the RAREST trigrams; hot stopword-class
            # lists are never read). ≤ 2^24/n_shards rows per shard.
            ut, un = np.unique(tri, return_counts=True)
            cname = f"cnt-{s:05d}-g{gen:04d}.parquet"
            ctmp = os.path.join(self.root, "." + cname + ".tmp")
            pq.write_table(pa.table({"tri": pa.array(ut),
                                     "n": pa.array(un.astype(np.int64))}),
                           ctmp)
            os.replace(ctmp, os.path.join(self.root, cname))
            return pa.table({"shard": pa.array([s], type=pa.int64()),
                             "rows": pa.array([g.num_rows],
                                              type=pa.int64())})

        return partition_map(ds.map_batches(postings, batch_format="pyarrow",
                                            batch_size=None),
                             write_shard, key="shard",
                             width=n_shards).to_pandas()

    def _manifest(self):
        with open(os.path.join(self.root, "manifest.json")) as f:
            return json.load(f)

    def _write_manifest(self, m):
        mpath = os.path.join(self.root, "manifest.json")
        tmp = mpath + ".tmp"
        with open(tmp, "w") as f:
            json.dump(m, f)
        os.replace(tmp, mpath)

    # ---------------------------------------------------------- build
    def build(self, ds, text_col: str = "text", id_col: str = "doc_id"):
        os.makedirs(self.root, exist_ok=True)
        mpath = os.path.join(self.root, "manifest.json")
        if os.path.exists(mpath):          # invalidate before rewrite
            os.remove(mpath)
        for pat in ("tri-*.parquet", "cnt-*.parquet"):
            for stale in _glob.glob(os.path.join(self.root, pat)):
                os.remove(stale)
        stats = self._ingest(ds, 1, text_col, id_col)
        self._write_manifest({
            "n_shards": self.n_shards, "gen": 1,
            "text_col": text_col, "id_col": id_col,
            "postings": int(stats["rows"].sum())})
        return self

    # --------------------------------------------------------- append
    def append(self, ds):
        """Index additional docs: one new chunk per touched shard,
        manifest gen bump as the commit — a crash beforehand leaves
        the index readable at the old generation (:meth:`repair`
        removes the debris). Single writer at a time."""
        m = self._manifest()
        gen = m["gen"] + 1
        stats = self._ingest(ds, gen, m["text_col"], m["id_col"])
        m["postings"] += int(stats["rows"].sum())
        m["gen"] = gen
        self._write_manifest(m)
        return self

    def repair(self):
        """Drop chunks newer than the manifest generation (crashed
        appends). Returns removed paths."""
        import re as _re

        gen = self._manifest()["gen"]
        removed = []
        for tmpl, pat in ((_CHUNK_RE_TMPL, "tri-*.parquet"),
                          (_CNT_RE_TMPL, "cnt-*.parquet")):
            rx = _re.compile(tmpl)
            for p in _glob.glob(os.path.join(self.root, pat)):
                mm = rx.search(os.path.basename(p))
                if mm and int(mm.group(2)) > gen:
                    os.remove(p)
                    removed.append(p)
        return removed

    # --------------------------------------------------------- search
    def _chunks(self, prefix: str, tmpl: str, shard: int, cur_gen: int):
        """Committed chunk paths for one shard (gen ≤ manifest gen —
        crashed-append debris stays invisible)."""
        import re as _re

        rx = _re.compile(tmpl)
        out = []
        for p in sorted(_glob.glob(os.path.join(
                self.root, f"{prefix}-{shard:05d}-g*.parquet"))):
            mm = rx.search(os.path.basename(p))
            if mm is not None and int(mm.group(2)) <= cur_gen:
                out.append(p)
        return out

    def _tri_counts(self, codes: np.ndarray, manifest) -> Optional[np.ndarray]:
        """Total posting-list length per needle trigram, from the cnt
        sidecars. Returns None (→ no pruning) on a legacy index whose
        committed tri chunks lack matching cnt sidecars — an
        undercount could wrongly early-exit to zero candidates."""
        import pyarrow.parquet as pq

        n_shards, cur_gen = manifest["n_shards"], manifest["gen"]
        counts = np.zeros(codes.size, dtype=np.int64)
        for s in set(int(c % n_shards) for c in codes):
            tri_paths = self._chunks("tri", _CHUNK_RE_TMPL, s, cur_gen)
            cnt_paths = self._chunks("cnt", _CNT_RE_TMPL, s, cur_gen)
            if len(cnt_paths) < len(tri_paths):
                return None
            want = [int(x) for x in codes if x % n_shards == s]
            for p in cnt_paths:
                t = pq.read_table(p, filters=[("tri", "in", want)])
                tri = np.asarray(t.column("tri"), dtype=np.int64)
                idx = np.searchsorted(codes, tri)  # codes sorted (unique)
                counts[idx] += np.asarray(t.column("n"))
        return counts

    def candidates(self, needle: str,
                   max_tris: int = 8,
                   hot_cap: int = 8_000_000) -> Optional[np.ndarray]:
        """Doc ids containing EVERY selected trigram of ``needle`` (a
        superset of true substring matches — never a false negative).
        Returns None for needles under 3 bytes (no pruning possible).

        Planner (Cox): only the ``max_tris`` RAREST of the needle's
        trigrams are read — intersecting over ANY subset is still a
        superset of true matches (verification is exact), so hot
        stopword-class posting lists (``" th"`` is O(corpus)) are
        never pulled; cost is bounded by the rare-list sizes. A needle
        trigram absent from the corpus short-circuits to zero
        candidates without reading any posting list.

        ``hot_cap`` bounds the DRIVER, not just the rank order: any
        trigram whose total posting count exceeds it is never read at
        all (dropping a required trigram only widens the candidate
        superset — verification stays exact). If EVERY trigram of the
        needle is that hot (an all-stopword needle like ``"the and"``
        on a web corpus), this returns None and the caller runs the
        distributed full-verify scan — streaming O(corpus) through
        workers instead of materializing O(corpus) posting ids on one
        machine. Driver memory is thus ≤ max_tris × hot_cap ids
        regardless of needle or corpus."""
        nb = needle.encode("utf-8")
        if len(nb) < 3:
            return None
        codes = _needle_codes(nb)
        manifest = self._manifest()
        cur_gen = manifest["gen"]
        n_shards = manifest["n_shards"]

        counts = self._tri_counts(codes, manifest)
        if counts is not None:
            if (counts == 0).any():
                return np.empty(0, dtype=np.int64)
            cool = counts <= hot_cap
            if not cool.any():
                return None  # all-hot needle → distributed full scan
            codes, counts = codes[cool], counts[cool]
            if codes.size > max_tris:
                keep = np.argsort(counts, kind="stable")[:max_tris]
                codes = np.sort(codes[keep])
        need = len(codes)

        import pyarrow.parquet as pq

        all_d, all_c = [], []
        for s in sorted(set(int(c % n_shards) for c in codes)):
            want = codes[codes % n_shards == s]
            parts = [pq.read_table(p, filters=[("tri", "in",
                                                [int(x) for x in want])])
                     for p in self._chunks("tri", _CHUNK_RE_TMPL, s,
                                           cur_gen)]
            if not parts:
                continue  # shard had no postings
            t = pa.concat_tables(parts)
            doc = np.asarray(t.column("doc"))
            tri = np.asarray(t.column("tri"))
            # count DISTINCT matched trigrams per doc in this shard
            u = np.unique((doc << 24) | tri)
            d, c = np.unique(u >> 24, return_counts=True)
            all_d.append(d)
            all_c.append(c)
        if not all_d:
            return np.empty(0, dtype=np.int64)
        d = np.concatenate(all_d)
        ud, inv = np.unique(d, return_inverse=True)  # vectorized fold —
        tot = np.bincount(inv, weights=np.concatenate(all_c))  # no dict
        return ud[tot.astype(np.int64) == need]

    def search(self, ds, needle: str, text_col: str = "text",
               id_col: str = "doc_id", max_tris: int = 8,
               hot_cap: int = 8_000_000):
        """Exact substring search: index-pruned candidates, then one
        verification pass over ONLY the candidate docs (full scan
        fallback for sub-trigram or all-hot needles). Returns a
        Dataset of matching ``(id_col,)`` rows."""
        cand = self.candidates(needle, max_tris=max_tris,
                               hot_cap=hot_cap)

        def verify(b: pa.Table) -> pa.Table:
            ids = np.asarray(b.column(id_col), dtype=np.int64)
            if cand is not None:
                pos = np.searchsorted(cand, ids)
                pos[pos >= cand.size] = 0
                m = cand.size > 0
                keep = (cand[pos] == ids) if m else \
                    np.zeros(ids.size, dtype=bool)
                b = b.filter(pa.array(keep))
                ids = ids[keep]
            hit = pc.match_substring(b.column(text_col), needle)
            hit = pc.fill_null(hit, False)
            return pa.table({id_col: pa.array(
                ids[np.asarray(hit)])})

        return ds.map_batches(verify, batch_format="pyarrow",
                              batch_size=None)


def _required_literal(pattern: str):
    """Longest literal byte-string that EVERY match of ``pattern``
    must contain, or None. Conservative subset of Cox's trigram query
    planning: walk only the top-level concatenation; literal chars
    extend the current run; anything optional or branching (alt,
    star, ?, classes, anchors are run breaks) just breaks the run, so
    a returned literal is sound — a match cannot avoid it."""
    import re as _re

    try:
        parsed = _re.sre_parse.parse(pattern) if hasattr(_re, "sre_parse") \
            else __import__("re._parser", fromlist=["parse"]).parse(pattern)
    except Exception:
        return None
    # GLOBAL inline flags like '(?i)...' make every "literal" char
    # case-variant — an extracted literal would prune docs containing
    # only other casings (false negatives). Fall back to the unpruned
    # full-verify scan. Scoped '(?i:...)' groups are already safe:
    # they parse as SUBPATTERN, which breaks the literal run.
    if parsed.state.flags & (_re.IGNORECASE | _re.LOCALE):
        return None
    best, cur = "", ""
    for op, av in parsed:
        name = str(op)
        if name == "LITERAL":
            try:
                cur += chr(av)
            except ValueError:
                cur = ""
            continue
        if name == "MAX_REPEAT":
            lo, _hi, sub = av
            # a once-or-more repeat of a pure literal contributes one
            # mandatory copy; anything else breaks the run
            if lo >= 1 and all(str(o) == "LITERAL" for o, _ in sub):
                cur += "".join(chr(a) for _, a in sub)
                if len(cur) > len(best):
                    best = cur
                cur = ""   # what follows the repeat isn't contiguous
                continue
        if len(cur) > len(best):
            best = cur
        cur = ""
    if len(cur) > len(best):
        best = cur
    return best if len(best.encode("utf-8")) >= 3 else None


def _search_regex(self, ds, pattern: str, text_col: str = "text",
                  id_col: str = "doc_id", max_tris: int = 8,
                  hot_cap: int = 8_000_000):
    """Regex search with trigram pruning: if the pattern has a
    mandatory literal ≥ 3 bytes, prune to its posting candidates
    first; verify with RE2 (``match_substring_regex``) either way.
    Sound: candidates are a superset of true matches because every
    match must contain the extracted literal."""
    lit = _required_literal(pattern)
    cand = (self.candidates(lit, max_tris=max_tris, hot_cap=hot_cap)
            if lit is not None else None)

    def verify(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column(id_col), dtype=np.int64)
        if cand is not None:
            if cand.size == 0:
                return pa.table({id_col: pa.array([], type=pa.int64())})
            pos = np.searchsorted(cand, ids)
            pos[pos >= cand.size] = 0
            keep = cand[pos] == ids
            b = b.filter(pa.array(keep))
            ids = ids[keep]
        hit = pc.match_substring_regex(b.column(text_col), pattern)
        hit = pc.fill_null(hit, False)
        return pa.table({id_col: pa.array(ids[np.asarray(hit)])})

    return ds.map_batches(verify, batch_format="pyarrow",
                          batch_size=None)


TrigramIndex.search_regex = _search_regex

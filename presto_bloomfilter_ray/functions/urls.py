"""URL parsing, canonicalization and host filtering — the C4 /
RefinedWeb-style URL hygiene stage of a web-corpus pipeline.

The reference has no URL surface (its tests key on TPC-H columns); a
Common-Crawl-shaped engine needs one: crawl dumps contain the same page
under trivially different URLs (fragment, tracking params, default
port, case in scheme/host), and corpus policies filter by host.

Ray-Data-first: every step is an Arrow RE2 kernel
(``replace_substring_regex`` / ``extract_regex``) applied per batch —
no Python row loop. DuckDB's regex engine is RE2 too, so the SQL
mirror (:func:`canonicalize_sql`) is GENERATED from the same ordered
pattern list (`_CANON_STEPS`) — the oracle and the operator cannot
drift apart (the ``redact_pii`` / ``bm25_sql_mirror`` pattern).

Canonicalization steps, in order:

1. strip the fragment;
2. lowercase scheme + authority (RFC 3986 §6.2.2.1 — path stays
   case-sensitive);
3. drop default ports (``http://…:80``, ``https://…:443``);
4. drop ``utm_*`` tracking params (two passes: inner-then-trailing);
5. strip a dangling ``?`` / ``&``.
"""

from __future__ import annotations

from typing import Iterable, Optional

import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["url_parts", "canonicalize_url", "canonicalize_sql",
           "host_filter"]

# authority = everything between :// and the first /?#
_HEAD_RE = r"^[A-Za-z][A-Za-z0-9+.-]*://[^/?#]*"

# (pattern, replacement) applied IN ORDER with global replace; the
# lowercase step is the one non-replace step and is marked "LOWER".
_CANON_STEPS = [
    (r"#.*$", ""),                                   # 1. fragment
    ("LOWER", ""),                                   # 2. scheme+host
    (r"^(http://[^/?#:]*):80([/?#]|$)", r"\1\2"),    # 3. default ports
    (r"^(https://[^/?#:]*):443([/?#]|$)", r"\1\2"),
    # 4. tracking params — anchored to a param boundary so a param
    # NAMED xutm_a or a VALUE containing 'utm_' is never touched;
    # (…&)+ eats runs of consecutive utm params in one match
    (r"([?&])(utm_[^&#]*&)+", r"\1"),                #    inner utm_* runs
    (r"[?&]utm_[^&#]*$", ""),                        #    trailing utm_*
    (r"[?&]+$", ""),                                 # 5. dangling seps
]


def canonicalize_url(batch: pa.Table, col: str = "url",
                     out_col: str = "canonical_url") -> pa.Table:
    """Append the canonical form of ``batch[col]`` (steps above)."""
    x = batch.column(col)
    if isinstance(x, pa.ChunkedArray):
        x = x.combine_chunks()
    for pat, rep in _CANON_STEPS:
        if pat == "LOWER":
            head = pc.extract_regex(x, f"(?P<head>{_HEAD_RE})")
            head = pc.fill_null(pc.struct_field(head, "head"), "")
            rest = pc.replace_substring_regex(x, _HEAD_RE, "",
                                              max_replacements=1)
            x = pc.binary_join_element_wise(pc.utf8_lower(head), rest, "")
        else:
            x = pc.replace_substring_regex(x, pat, rep)
    return batch.append_column(out_col, x)


def canonicalize_sql(expr: str) -> str:
    """The DuckDB expression computing EXACTLY :func:`canonicalize_url`
    of ``expr`` — generated from the same `_CANON_STEPS`, so the SQL
    oracle and the Arrow kernels share one source of truth."""
    sql = expr
    for pat, rep in _CANON_STEPS:
        if pat == "LOWER":
            sql = (f"(lower(coalesce(regexp_extract({sql}, '{_HEAD_RE}'), ''))"
                   f" || regexp_replace({sql}, '{_HEAD_RE}', ''))")
        else:
            # DuckDB standard string literals don't process backslash
            # escapes, so the RE2 pattern/rewrite strings pass verbatim
            sql = f"regexp_replace({sql}, '{pat}', '{rep}', 'g')"
    return sql


def url_parts(batch: pa.Table, col: str = "url",
              prefix: str = "url_") -> pa.Table:
    """Append ``{prefix}scheme/host/path/query`` parsed from
    ``batch[col]`` in one RE2 pass. Unparseable URLs yield NULLs."""
    pat = (r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://(?P<host>[^/?#]*)"
           r"(?P<path>[^?#]*)(?:\?(?P<query>[^#]*))?")
    x = batch.column(col)
    if isinstance(x, pa.ChunkedArray):
        x = x.combine_chunks()
    st = pc.extract_regex(x, pat)
    for name in ["scheme", "host", "path", "query"]:
        batch = batch.append_column(prefix + name, pc.struct_field(st, name))
    return batch


def host_filter(ds, blocked_hosts: Iterable[str], url_col: str = "url",
                expected: Optional[int] = None, fpp: float = 1e-9):
    """Drop rows whose URL host is on a blocklist — the project's own
    Bloom filter in the URL-policy role: build once over the (small)
    blocklist, broadcast, probe hosts in a pure map stage. Bloom
    'false' is a definite negative, so no allowed row is ever dropped;
    ``fpp`` bounds wrongly-dropped rows."""
    from ..engine.ops import ContainsFilter
    from ..sketches.bloom import BloomFilter

    hosts = [h for h in blocked_hosts if h]
    bf = BloomFilter(expected or max(len(hosts), 10), fpp)
    bf.update_arrow(pa.array(hosts, type=pa.string()))

    probe = ContainsFilter(bf, "_host", mode="anti")

    def add_host_and_filter(batch: pa.Table) -> pa.Table:
        x = batch.column(url_col)
        if isinstance(x, pa.ChunkedArray):
            x = x.combine_chunks()
        st = pc.extract_regex(x, r"^[A-Za-z][A-Za-z0-9+.-]*://(?P<host>[^/?#:]*)")
        batch = batch.append_column("_host", pc.struct_field(st, "host"))
        return probe(batch).drop_columns(["_host"])

    return ds.map_batches(add_host_and_filter, batch_format="pyarrow")

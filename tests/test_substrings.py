"""Repeated-substring scrub contracts: brute-force reference equality,
unicode (codepoint) semantics, partitioning invariance, min_docs
distinct-doc semantics, broadcast == sharded path."""

import numpy as np
import pyarrow as pa
import pytest

from presto_bloomfilter_ray.functions import (
    hot_windows,
    scrub_repeated_substrings,
)

BANNER = "ACCEPT ALL COOKIES NOW"  # 22 chars > window
DOCS = [
    f"unique alpha text one {BANNER} tail alpha",
    f"{BANNER} unique beta body segment",
    "totally unique gamma document body",
    f"delta opening words {BANNER}",
    "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",  # within-doc repetition only
    "中文重复的横幅文字横幅文字横幅文字与众不同",
]


def _brute_scrub(texts, window, min_docs):
    """Independent serial reference: real substrings, set math."""
    from collections import defaultdict

    where = defaultdict(set)
    for d, t in enumerate(texts):
        for i in range(len(t) - window + 1):
            where[t[i:i + window]].add(d)
    hot = {g for g, ds in where.items() if len(ds) >= min_docs}
    out = []
    for t in texts:
        cut = np.zeros(len(t), dtype=bool)
        for i in range(len(t) - window + 1):
            if t[i:i + window] in hot:
                cut[i:i + window] = True
        out.append("".join(c for c, m in zip(t, cut) if not m))
    return out, len(hot)


def _ray_scrub(ray, texts, window=10, min_docs=2, parts=1, **hot_kw):
    import ray.data as rd

    t = pa.table({"rid": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    ds = rd.from_arrow(t).repartition(parts)
    hot = hot_windows(ds, "text", window=window, min_docs=min_docs, **hot_kw)
    out = (scrub_repeated_substrings(ds, hot, window=window,
                                     text_col="text", out_col="clean",
                                     removed_col="rm")
           .to_pandas().sort_values("rid"))
    return hot, list(out["clean"]), list(out["rm"])


def test_matches_brute_force(ray_session):
    want, n_hot = _brute_scrub(DOCS, 10, 2)
    hot, got, rm = _ray_scrub(ray_session, DOCS, window=10)
    assert hot.n == n_hot
    assert got == want
    assert rm == [len(a) - len(b) for a, b in zip(DOCS, want)]


def test_unique_corpus_untouched(ray_session):
    texts = ["one unique doc", "another quite different", "third body"]
    hot, got, rm = _ray_scrub(ray_session, texts, window=8)
    assert hot.n == 0
    assert got == texts and rm == [0, 0, 0]


def test_within_doc_repetition_not_hot(ray_session):
    # 'aaaa…' repeats within ONE doc only → min_docs=2 leaves it alone
    texts = ["a" * 50, "completely different content here"]
    hot, got, _ = _ray_scrub(ray_session, texts, window=10)
    assert hot.n == 0 and got == texts


def test_unicode_codepoint_semantics(ray_session):
    shared = "中文横幅中文横幅中文"  # 10 codepoints, 30 utf-8 bytes
    texts = [f"第一篇{shared}结尾", f"开头{shared}第二篇"]
    want, _ = _brute_scrub(texts, 10, 2)
    _, got, _ = _ray_scrub(ray_session, texts, window=10)
    assert got == want
    assert shared not in got[0] and shared not in got[1]


def test_partitioning_invariance(ray_session):
    w1 = _ray_scrub(ray_session, DOCS, window=10, parts=1)
    w3 = _ray_scrub(ray_session, DOCS, window=10, parts=3)
    assert w1[1:] == w3[1:]
    assert w1[0].n == w3[0].n


def test_sharded_path_matches_broadcast(ray_session, tmp_path):
    _, want, want_rm = _ray_scrub(ray_session, DOCS, window=10)
    hot, got, rm = _ray_scrub(ray_session, DOCS, window=10,
                              broadcast_limit=0, work_dir=str(tmp_path))
    assert hot.tier == "sharded"
    assert got == want and rm == want_rm


def test_null_and_empty_text(ray_session):
    import ray.data as rd

    t = pa.table({"rid": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array([None, "", "short"], pa.string())})
    ds = rd.from_arrow(t)
    hot = hot_windows(ds, "text", window=10)
    out = (scrub_repeated_substrings(ds, hot, window=10, out_col="clean",
                                     removed_col="rm")
           .to_pandas().sort_values("rid"))
    assert list(out["clean"]) == ["", "", "short"]
    assert list(out["rm"]) == [0, 0, 0]


def test_min_docs_threshold(ray_session):
    texts = [f"xx {BANNER} yy", f"zz {BANNER} ww", f"vv {BANNER} uu"]
    # the shared region is " BANNER " (len(BANNER)+2 chars) → three
    # windows of length len(BANNER) fit inside it
    hot3, got3, _ = _ray_scrub(ray_session, texts, window=len(BANNER),
                               min_docs=3)
    assert hot3.n == 3 and all(BANNER not in g for g in got3)
    hot4, got4, _ = _ray_scrub(ray_session, texts, window=len(BANNER),
                               min_docs=4)
    assert hot4.n == 0 and got4 == texts

"""Edit-distance similarity join: banded-DP parity with a reference
implementation, exact pair recovery vs brute force, short-pool and
hot-gram-cap behavior."""
import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from presto_bloomfilter_ray.functions import (
    banded_levenshtein,
    edit_distance_pairs,
)
from presto_bloomfilter_ray.functions.editjoin import _padded_bytes


def _ref_lev(a: bytes, b: bytes) -> int:
    """Textbook full-matrix Levenshtein (the oracle)."""
    m, n = len(a), len(b)
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]))
        prev = cur
    return prev[n]


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_banded_matches_reference(d):
    rng = np.random.default_rng(7)
    words = []
    for _ in range(200):
        n = rng.integers(0, 12)
        words.append(bytes(rng.integers(97, 100, size=n).tolist()))
    A_str = pa.array([w.decode() for w in words[:100]])
    B_str = pa.array([w.decode() for w in words[100:]])
    A, la = _padded_bytes(A_str)
    B, lb = _padded_bytes(B_str)
    got = banded_levenshtein(A, la, B, lb, d)
    for i in range(100):
        exp = _ref_lev(words[i], words[100 + i])
        assert got[i] == min(exp, d + 1), (words[i], words[100 + i], d)


def _corpus():
    texts = [
        "customer number one hundred",   # 0
        "customer number one hundrad",   # 1: 1 sub from 0
        "customer number one hundred!",  # 2: 1 insert from 0
        "totally different text here",   # 3
        "xy",                            # 4: short pool
        "xz",                            # 5: short pool, dist 1 from 4
        "aaaaaaaaaa",                    # 6: gram-poor (1 distinct gram)
        "aaaaabaaaa",                    # 7: 1 sub from 6
        "",                              # 8: empty
        "x",                             # 9: dist 1 from 4? lev(x, xy)=1
    ]
    return pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                         "text": texts})


def _brute(df, d):
    out = set()
    for i in range(len(df)):
        for j in range(i + 1, len(df)):
            dist = _ref_lev(df.text[i].encode(), df.text[j].encode())
            if dist <= d:
                out.add((i, j, dist))
    return out


@pytest.mark.parametrize("d", [1, 2])
def test_pairs_match_brute_force(ray_session, d):
    import ray.data as rd

    df = _corpus()
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(3)
    pairs, stats = edit_distance_pairs(ds, max_dist=d, q=3, n_parts=4)
    got = pairs.to_pandas()
    got_set = set(zip(got["a"].astype(int), got["b"].astype(int),
                      got["dist"].astype(int)))
    assert got_set == _brute(df, d)
    assert len(got) == len(got_set)  # no duplicate pairs
    assert stats["capped_grams"] == 0


def test_matches_duckdb_levenshtein(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(3)
    base = ["".join(rng.choice(list("abcde"), 12)) for _ in range(80)]
    # plant typo variants
    texts = list(base)
    for i in range(0, 40, 5):
        w = list(base[i])
        w[rng.integers(0, len(w))] = "z"
        texts.append("".join(w))
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    ds = rd.from_arrow(pa.Table.from_pandas(df)).repartition(4)
    pairs, stats = edit_distance_pairs(ds, max_dist=1, q=3, n_parts=4)
    got = pairs.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    exp = duckdb.sql("""
        SELECT x.doc_id AS a, y.doc_id AS b,
               levenshtein(x.text, y.text) AS dist
        FROM df x JOIN df y ON x.doc_id < y.doc_id
        WHERE levenshtein(x.text, y.text) <= 1
        ORDER BY a, b
    """).df()
    assert got["a"].tolist() == exp["a"].astype(int).tolist()
    assert got["b"].tolist() == exp["b"].astype(int).tolist()
    assert got["dist"].tolist() == exp["dist"].astype(int).tolist()


def test_hot_gram_cap_is_loud(ray_session):
    import ray.data as rd

    df = pd.DataFrame({
        "doc_id": np.arange(50, dtype=np.int64),
        "text": [f"shared prefix payload {i:04d}" for i in range(50)],
    })
    ds = rd.from_arrow(pa.Table.from_pandas(df))
    pairs, stats = edit_distance_pairs(ds, max_dist=1, q=3,
                                       hot_gram_cap=10, n_parts=4)
    pairs.count()  # drive execution
    assert stats["capped_grams"] > 0  # dropped grams are visible


def test_short_pool_cap_raises(ray_session, monkeypatch):
    """The cap fires on the pool's count, before any pool row (text
    included) reaches the driver."""
    import ray
    import ray.data as rd
    from ray.data import Dataset

    collected = []
    orig = Dataset.to_arrow_refs

    def spy(self, *args, **kwargs):
        refs = orig(self, *args, **kwargs)
        collected.extend(t.column_names for t in ray.get(refs))
        return refs

    monkeypatch.setattr(Dataset, "to_arrow_refs", spy)
    df = pd.DataFrame({"doc_id": np.arange(30, dtype=np.int64),
                       "text": ["ab"] * 30})
    ds = rd.from_arrow(pa.Table.from_pandas(df))
    with pytest.raises(ValueError, match="short-string pool"):
        edit_distance_pairs(ds, max_dist=1, short_pool_cap=5)
    assert not any("txt" in names for names in collected)


def test_banded_fuzz_hypothesis():
    """Property: banded DP == full-matrix reference, clamped at d+1,
    for arbitrary byte strings including empty and multibyte."""
    from hypothesis import given, settings, strategies as st

    bs = st.binary(min_size=0, max_size=24)

    @settings(max_examples=300, deadline=None)
    @given(a=bs, b=bs, d=st.integers(min_value=0, max_value=4))
    def prop(a, b, d):
        A, la = _padded_bytes(pa.array([a], type=pa.binary()))
        B, lb = _padded_bytes(pa.array([b], type=pa.binary()))
        got = banded_levenshtein(A, la, B, lb, d)[0]
        assert got == min(_ref_lev(a, b), d + 1)

    prop()

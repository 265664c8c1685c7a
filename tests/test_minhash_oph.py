"""One-permutation MinHash with optimal densification: estimator
accuracy against exact n-gram Jaccard, densification completeness and
determinism of the signature."""

import numpy as np
import pyarrow as pa

from presto_bloomfilter_ray.functions.dedup import MinHasher, ngram_jaccard

UMAX = np.iinfo(np.uint64).max
LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz "))


def _text(rng, n_bytes):
    # lowercase letters and single spaces: normalize_text leaves it as is
    t = "".join(rng.choice(LETTERS, size=n_bytes))
    return " ".join(t.split()).ljust(n_bytes, "q")


def _mutate(rng, text, n_edits):
    chars = list(text)
    for i in rng.choice(len(chars), size=n_edits, replace=False):
        chars[i] = "x" if chars[i] != "x" else "y"
    return "".join(chars)


def _pairs(rng):
    """(a, b) pairs whose exact 5-gram Jaccard spans 0.5 .. 1.0, a
    third of them 40-120 bytes long (fewer shingles than bins)."""
    out = []
    for length in [*rng.integers(40, 121, size=200),
                   *rng.integers(300, 2001, size=400)]:
        a = _text(rng, int(length))
        # each edit breaks up to 5 shingles: aim the edit count at the
        # whole 0.5 .. 1.0 grid
        b = _mutate(rng, a, int(rng.integers(0, max(2, length // 14))))
        j = ngram_jaccard(a, b, 5)
        if j >= 0.5:
            out.append((a, b, j))
    return out


def _sig16(mh, texts):
    batch = pa.table({"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                      "text": pa.array(texts, pa.large_string())})
    sig = mh(batch).column("sig").combine_chunks().flatten()
    return np.asarray(sig).reshape(len(texts), mh.num_perm)


def test_estimate_tracks_exact_jaccard():
    rng = np.random.default_rng(2012)
    pairs = _pairs(rng)
    js = np.array([j for _, _, j in pairs])
    short = np.array([len(a) <= 120 for a, _, _ in pairs])
    assert len(pairs) >= 300 and short.sum() >= 100
    assert js.min() < 0.6 and (js == 1.0).any()
    mh = MinHasher(128, 32, 5)
    # every pair in ONE batch, a/b interleaved: the estimate must not
    # lean on batch position either
    S = _sig16(mh, [t for a, b, _ in pairs for t in (a, b)])
    est = (S[0::2] == S[1::2]).mean(axis=1)
    sigma = np.sqrt(js * (1 - js) / 128)
    err = est - js
    worst = np.argmax(np.abs(err) - 4 * sigma)
    assert (np.abs(err) <= 4 * sigma + 0.03).all(), (js[worst], est[worst])
    for sel in (short, ~short):
        bound = 3 * np.sqrt(np.mean(sigma[sel] ** 2)) / np.sqrt(sel.sum())
        assert abs(err[sel].mean()) <= bound, (err[sel].mean(), bound)


def test_one_shingle_doc_fills_every_bin():
    mh = MinHasher(128, 32, 5)
    for text in ["abcde", "ab", "zzzzzzzzzz"]:  # one window each
        h, _ = mh._shingle_stream([text])
        assert len(np.unique(h)) == 1
        sig = mh.signatures([text])[0]
        assert (sig == h[0]).all(), text


def test_probe_sequence_reaches_every_bin():
    """Densification of ANY doc ends: every bin's probe sequence visits
    every bin, so even a doc whose one shingle sits in any single bin
    gets all its empty bins filled."""
    for num_perm in (128, 96):
        mh = MinHasher(num_perm, 32, 5)
        seen = np.zeros((num_perm, num_perm), dtype=bool)
        for t0 in range(1, 4096, mh._PROBES):
            J = mh._probe(t0)
            seen[np.arange(num_perm)[:, None], J] = True
        assert seen.all(), num_perm


def test_equal_shingle_sets_equal_signatures_anywhere():
    mh = MinHasher(128, 32, 5)
    rng = np.random.default_rng(3)
    same = ["aaaaaa", "aaaaaaaaaaa"]  # both only ever shingle "aaaaa"
    long_a = _text(rng, 400)
    fillers = [_text(rng, int(n)) for n in rng.integers(0, 300, size=9)]
    ref = mh.signatures([same[0]])[0]
    ref_long = mh.signatures([long_a])[0]
    for pos in range(len(fillers) + 1):
        batch = fillers[:pos] + [same[1], long_a] + fillers[pos:]
        sig = mh.signatures(batch)
        assert np.array_equal(sig[pos], ref)
        assert np.array_equal(sig[pos + 1], ref_long)


def test_no_nonempty_doc_keeps_an_unfilled_bin():
    mh = MinHasher(128, 32, 5)
    rng = np.random.default_rng(11)
    texts = ["", "a", "abcd", "abcde", "   "] + [
        _text(rng, int(n)) for n in rng.integers(1, 400, size=300)]
    h, starts = mh._shingle_stream(texts)
    counts = np.diff(np.append(starts, len(h)))
    sig = mh.signatures(texts)
    empty = mh.signatures([""])[0]
    for d, (s, c) in enumerate(zip(starts, counts)):
        if c == 0:
            assert np.array_equal(sig[d], empty)
        else:
            # every bin holds one of the doc's own shingle hashes
            assert np.isin(sig[d], h[s:s + c]).all(), texts[d]
            assert (sig[d] != UMAX).all()
    # only "" is empty: whitespace collapses to one space, a 1-byte doc
    assert counts[:5].tolist() == [0, 1, 1, 1, 1] and (counts == 0).sum() == 1


def test_num_perm_not_a_power_of_two(ray_session):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import minhash_dedup

    mh = MinHasher(96, 32, 5)
    rng = np.random.default_rng(5)
    base = _text(rng, 800)
    near = _mutate(rng, base, 3)
    sig = mh.signatures([base, near, "abc"])
    assert sig.shape == (3, 96) and mh.band_hashes(sig).shape == (3, 32)
    # every bin is reachable by a multiply-high of the top bits
    h, _ = mh._shingle_stream([_text(rng, 20000)])
    assert set(mh._bin_of(h).tolist()) == set(range(96))
    ds = rd.from_items([{"doc_id": 1, "text": base}, {"doc_id": 2, "text": near},
                        {"doc_id": 3, "text": _text(rng, 800)}])
    deduped, dup_map = minhash_dedup(ds, threshold=0.8, num_perm=96, bands=32)
    assert sorted(r["doc_id"] for r in deduped.take_all()) == [1, 3]
    assert dup_map == {1: 1, 2: 1}

"""Text / dedup / fingerprint operator contracts."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from presto_bloomfilter_ray.functions import (
    LangId,
    add_text_stats,
    exact_dedup,
    fingerprint64,
    minhash_dedup,
    ngram_jaccard,
    quality_score,
    simhash64,
    simhash_candidates,
    token_count,
)


def test_token_count_matches_sql_semantics(duck):
    texts = [r[0] for r in duck.sql("select text from documents limit 200").fetchall()]
    mine = np.asarray(token_count(pa.array(texts)))
    theirs = np.array([
        r[0] for r in duck.sql(
            "select len(regexp_extract_all(text, '\\S+')) from documents limit 200"
        ).fetchall()
    ])
    assert np.array_equal(mine, theirs)


def test_text_stats_columns():
    t = pa.table({"text": ["Hello, world! the cat", "", "one two"]})
    out = add_text_stats(t)
    assert out.column("n_tokens").to_pylist() == [4, 0, 2]
    assert out.column("n_chars").to_pylist() == [21, 0, 7]
    q = quality_score(out)
    s = q.column("quality").to_pylist()
    assert all(0.0 <= x <= 1.0 for x in s)


def test_exact_dedup_keeps_min_id(ray_session):
    import ray.data as rd

    ds = rd.from_items([
        {"doc_id": 3, "text": "same  text"},
        {"doc_id": 1, "text": "same text"},   # same after normalization
        {"doc_id": 2, "text": "Other"},
    ])
    out = exact_dedup(ds).to_pandas().sort_values("doc_id")
    assert out["doc_id"].tolist() == [1, 2]


def test_minhash_flags_near_duplicates(ray_session):
    import ray.data as rd

    base = "the quick brown fox jumps over the lazy dog " * 20
    near = base.replace("lazy", "sleepy")
    far = "completely different content about other topics " * 20
    ds = rd.from_items([
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": near},
        {"doc_id": 3, "text": far},
    ])
    deduped, dup_map = minhash_dedup(ds, threshold=0.5)
    kept = sorted(r["doc_id"] for r in deduped.take_all())
    assert kept == [1, 3]
    assert dup_map.get(2) == 1


def test_simhash_hamming_properties():
    a = simhash64(["the quick brown fox jumps over the lazy dog"] )
    b = simhash64(["the quick brown fox jumps over the lazy cat"])
    c = simhash64(["totally unrelated words about databases and sketches"])
    from presto_bloomfilter_ray.functions.dedup import hamming64

    assert hamming64(a, b)[0] < hamming64(a, c)[0]
    assert hamming64(a, a)[0] == 0


def test_simhash_candidates_finds_exact_dup(ray_session):
    import ray.data as rd

    t = "repeated content for simhash duplicate detection " * 10
    ds = rd.from_items([
        {"doc_id": 1, "text": t},
        {"doc_id": 2, "text": t},
        {"doc_id": 3, "text": "something else entirely different here"},
    ])
    pairs = simhash_candidates(ds)
    assert {(int(r.a), int(r.b)) for r in pairs.itertuples()} == {(1, 2)}


def test_ngram_jaccard():
    assert ngram_jaccard("abcdef", "abcdef") == 1.0
    assert ngram_jaccard("abcdef", "uvwxyz") == 0.0
    assert 0.0 < ngram_jaccard("abcdefgh", "abcdefxx") < 1.0


def test_fingerprint_deterministic_and_normalizing():
    f1 = fingerprint64(pa.array(["Hello   World"]))
    f2 = fingerprint64(pa.array(["hello world"]))
    assert f1[0].as_py() == f2[0].as_py()
    f3 = fingerprint64(pa.array(["different"]))
    assert f1[0].as_py() != f3[0].as_py()


def test_langid_stage(ray_session):
    import ray.data as rd

    ds = rd.from_items([
        {"text": "the cat and the dog went to the market for food and water"},
        {"text": "der Hund und die Katze gehen mit dem Mann auf der Strasse"},
        {"text": "le chat et le chien dans la maison pour les enfants"},
    ])
    out = ds.map_batches(LangId, batch_format="pyarrow", concurrency=1).to_pandas()
    assert out["lang_pred"].tolist() == ["en", "de", "fr"]


def test_clean_text_normalizer(duck):
    from presto_bloomfilter_ray.functions.text import clean_text

    t = pa.table({"text": ["  hello\x00\x01  world \n\t x ", "café"]})
    out = clean_text(t).column("text").to_pylist()
    assert out[0] == "hello world x"
    assert out[1] == "café"  # NFC composes e + combining accent
    # matches DuckDB's normalizer on the same input
    d = duck.sql(
        "select trim(regexp_replace(regexp_replace(nfc_normalize('  hello' || chr(1) || '  world \n\t x '), '[\\x01-\\x08]', '', 'g'), '\\s+', ' ', 'g'))"
    ).fetchone()[0]
    assert d == "hello world x"


def test_pairs_from_buckets_allpairs_and_star():
    """ADVICE recall fix: small buckets emit ALL pairs (near-dup pairs
    not involving the bucket hub are found); large buckets emit star
    edges bounding blowup."""
    import numpy as np

    from presto_bloomfilter_ray.functions.dedup import _pairs_from_buckets

    ids = np.array([1, 2, 3, 10, 20], dtype=np.int64)  # buckets [1,2,3], [10,20]
    starts = np.array([0, 3], dtype=np.int64)
    sizes = np.array([3, 2], dtype=np.int64)
    a, b = _pairs_from_buckets(ids, starts, sizes, cutoff=4)
    pairs = sorted(zip(a.tolist(), b.tolist()))
    assert pairs == [(1, 2), (1, 3), (2, 3), (10, 20)]  # (2,3) ∉ star set
    a, b = _pairs_from_buckets(ids, starts, sizes, cutoff=2)
    pairs = sorted(zip(a.tolist(), b.tolist()))
    assert pairs == [(1, 2), (1, 3), (10, 20)]  # star for the size-3 bucket
    assert all(x < y for x, y in pairs)


def test_minhash_dedup_distributed_equals_unionfind(ray_session):
    """The default distributed clustering must agree with the driver
    union-find on kept set and dup_map."""
    import ray.data as rd

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 15
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base.replace("kappa", "lambda")},
        {"doc_id": 3, "text": base.replace("alpha", "omega")},
        {"doc_id": 4, "text": "unrelated material entirely different " * 20},
    ]
    ds = rd.from_items(rows)
    kept_d, map_d = minhash_dedup(ds, threshold=0.5, distributed_cc=True)
    kept_u, map_u = minhash_dedup(ds, threshold=0.5, distributed_cc=False)
    ids_d = sorted(r["doc_id"] for r in kept_d.take_all())
    ids_u = sorted(r["doc_id"] for r in kept_u.take_all())
    assert ids_d == ids_u == [1, 4]
    assert {k: v for k, v in map_d.items() if k != v} == \
           {k: v for k, v in map_u.items() if k != v} == {2: 1, 3: 1}


def test_lsh_candidate_pairs_returns_dataset_no_driver_rows(ray_session):
    """lsh_candidate_pairs streams an edge Dataset — exact duplicates
    must appear with est_jaccard 1.0."""
    import ray.data as rd

    from presto_bloomfilter_ray.functions.dedup import lsh_candidate_pairs

    t = "identical content repeated for the lsh candidate test " * 10
    ds = rd.from_items([
        {"doc_id": 7, "text": t},
        {"doc_id": 9, "text": t},
        {"doc_id": 11, "text": "something wholly different from the others"},
    ])
    edges = lsh_candidate_pairs(ds)
    assert not isinstance(edges, pd.DataFrame)  # Dataset contract
    rows = edges.take_all()
    got = {(r["a"], r["b"]): r["est_jaccard"] for r in rows}
    assert got[(7, 9)] == 1.0


def test_minhash_no_phantom_suffix_shingles():
    """Every doc's shingle set must be EXACTLY its len-k+1 in-doc byte
    windows — the k-1 windows spanning the doc suffix + sentinel pad
    are masked (they used to slip through as phantom shingles, biasing
    short-doc jaccard estimates low: 0.85 est vs 0.98 exact on
    130-byte near-dups)."""
    from presto_bloomfilter_ray.functions.dedup import MinHasher

    mh = MinHasher(num_perm=16, bands=4, shingle_k=5)
    texts = ["hello world this is a document", "tiny", "", "abcd efgh ijkl"]
    sh, starts, empty_mask, contam = mh._shingle_stream(
        pa.array(texts, type=pa.large_string()))
    valid = ~contam
    # windows per doc = runs between starts
    bounds = list(starts) + [len(sh)]
    for i, t in enumerate(texts):
        n_valid = int(valid[bounds[i]:bounds[i + 1]].sum())
        L = len(t.lower().encode())
        if L == 0:
            assert n_valid == 0
        elif L < 5:
            assert n_valid == 1  # content-fingerprint window
        else:
            assert n_valid == L - 5 + 1, (t, n_valid)
    # estimator consequence: two short docs differing by one word must
    # estimate close to their exact byte-5-gram jaccard
    a = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    b = a.replace("zeta", "zetb")
    mh128 = MinHasher(num_perm=128, bands=32, shingle_k=5)
    sig = mh128.signatures(pa.array([a, b], type=pa.large_string()))
    est = float((sig[0] == sig[1]).mean())
    exact = ngram_jaccard(a.encode(), b.encode(), 5)
    sigma = (exact * (1 - exact) / 128) ** 0.5
    assert abs(est - exact) <= 4 * sigma + 0.03, (est, exact)


def test_bpe_token_count_matches_duckdb():
    """The BPE-ish pre-tokenizer pattern must count identically in
    Arrow and DuckDB (both RE2) — contractions, multibyte letters,
    digit runs, punctuation runs, empty/whitespace-only docs."""
    import duckdb

    from presto_bloomfilter_ray.functions.text import BPE_RE, bpe_token_count

    texts = ["I'll say it's 42 words, isn't it?", "汉字 multi-byte 123 !!",
             "", "   ", "don't-stop_now", "a" * 500, "1 2 3 ... x-y"]
    mine = bpe_token_count(pa.array(texts)).to_pylist()
    theirs = [duckdb.sql("select len(regexp_extract_all(?, ?))",
                         params=[t, BPE_RE]).fetchone()[0] for t in texts]
    assert mine == theirs


def test_boilerplate_line_removal(ray_session, duck):
    """C4-style boilerplate removal: lines occurring >= min_count times
    across the corpus are dropped from every document; surviving line
    order preserved; all-boilerplate docs become empty strings. Checked
    against a SQL mirror (string_split + count + reassembly)."""
    import ray.data as rd

    from presto_bloomfilter_ray.functions import (
        boilerplate_lines,
        remove_boilerplate_lines,
    )

    rows = [
        {"doc_id": 1, "text": "COOKIE BANNER\nreal content one\nFOOTER"},
        {"doc_id": 2, "text": "COOKIE BANNER\nreal content two\nFOOTER"},
        {"doc_id": 3, "text": "unique document\nwith its own lines"},
        {"doc_id": 4, "text": "COOKIE BANNER\nFOOTER"},  # all boilerplate
        {"doc_id": 5, "text": "no newline single unique line"},
    ]
    ds = rd.from_items(rows).repartition(3)
    hot = boilerplate_lines(ds, min_count=2)
    assert hot["kind"] == "array" and len(hot["hashes"]) == 2
    out = {r["doc_id"]: r["text"] for r in
           remove_boilerplate_lines(ds, hot).take_all()}
    assert out[1] == "real content one"
    assert out[2] == "real content two"
    assert out[3] == "unique document\nwith its own lines"
    assert out[4] == ""
    assert out[5] == "no newline single unique line"
    # sharded path (forced) produces identical output
    hot2 = boilerplate_lines(ds, min_count=2, broadcast_limit=0)
    assert hot2["kind"] == "shards"
    out2 = {r["doc_id"]: r["text"] for r in
            remove_boilerplate_lines(ds, hot2).take_all()}
    assert out2 == out


def test_repetition_signals_counts_and_duckdb_mirror(duck):
    from presto_bloomfilter_ray.functions.text import repetition_signals

    t = pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "a\nb\na\na\nc",        # 'a' ×3 → 2 dup lines, 2 dup chars
            "unique\nlines\nonly",  # no repetition
            "",                     # one empty line, no dups
            "xx\nxx",               # 1 dup line, 2 dup chars
        ],
    })
    out = repetition_signals(t)
    assert out.column("n_lines").to_pylist() == [5, 3, 1, 2]
    assert out.column("n_dup_lines").to_pylist() == [2, 0, 0, 1]
    assert out.column("dup_line_chars").to_pylist() == [2, 0, 0, 2]
    assert out.column("line_chars").to_pylist() == [5, 15, 0, 4]
    # SQL mirror: occurrences beyond a line's first within its doc
    duck.sql("CREATE OR REPLACE TABLE rdocs AS SELECT * FROM t")
    got = duck.sql("""
        WITH lines AS (
            SELECT doc_id, unnest(string_split(text, chr(10))) AS line
            FROM rdocs
        ), per AS (
            SELECT doc_id, line, count(*) AS cnt FROM lines
            GROUP BY doc_id, line
        )
        SELECT doc_id,
               sum(cnt)::BIGINT AS n_lines,
               sum(cnt - 1)::BIGINT AS n_dup_lines,
               sum((cnt - 1) * length(line))::BIGINT AS dup_line_chars,
               sum(cnt * length(line))::BIGINT AS line_chars
        FROM per GROUP BY doc_id ORDER BY doc_id
    """).df()
    for col in ["n_lines", "n_dup_lines", "dup_line_chars", "line_chars"]:
        assert list(got[col]) == out.column(col).to_pylist(), col


def test_redact_pii_matches_duckdb(duck):
    from presto_bloomfilter_ray.functions.text import PII_PATTERNS, redact_pii

    texts = [
        "mail bob.smith+x@example.co.uk now",
        "call 555-123-4567 or 555.987.6543",
        "server at 192.168.001.1 port 80",
        "none here",
        "combo a@b.io 10.0.0.255 555-000-1111",
    ]
    t = pa.table({"text": texts})
    out = redact_pii(t)
    clean = out.column("text").to_pylist()
    assert clean[0] == "mail <EMAIL> now"
    assert clean[1] == "call <PHONE> or <PHONE>"
    assert clean[2] == "server at <IP> port 80"
    assert clean[3] == "none here"
    assert clean[4] == "combo <EMAIL> <IP> <PHONE>"
    assert out.column("n_email").to_pylist() == [1, 0, 0, 0, 1]
    assert out.column("n_phone").to_pylist() == [0, 2, 0, 0, 1]
    assert out.column("n_ipv4").to_pylist() == [0, 0, 1, 0, 1]
    # same pattern strings give the same result in DuckDB (RE2 both sides)
    duck.sql("CREATE OR REPLACE TABLE pdocs AS SELECT * FROM t")
    expr = "text"
    for _, pat, tag in PII_PATTERNS:
        expr = f"regexp_replace({expr}, '{pat}', '{tag}', 'g')"
    got = duck.sql(f"SELECT {expr} AS clean FROM pdocs").df()
    assert list(got["clean"]) == clean


def test_cap_per_key(ray_session, duck):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import cap_per_key

    rng = np.random.default_rng(7)
    n = 2000
    keys = [f"host{int(i)}" for i in rng.integers(0, 12, n)]
    ids = rng.permutation(n).astype("int64")
    t = pa.table({"host": keys, "doc_id": ids})
    ds = rd.from_arrow(t).repartition(7)
    kept = cap_per_key(ds, "host", "doc_id", k=5).to_pandas()
    duck.sql("CREATE OR REPLACE TABLE capd AS SELECT * FROM t")
    want = duck.sql("""
        SELECT host, doc_id FROM capd
        QUALIFY row_number() OVER (PARTITION BY host ORDER BY doc_id) <= 5
    """).df()
    key = lambda d: d.sort_values(["host", "doc_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(key(kept), key(want))
    # k larger than every group: identity set
    all_kept = cap_per_key(ds, "host", "doc_id", k=10_000).to_pandas()
    assert sorted(all_kept["doc_id"]) == sorted(range(n))
    # map-side prune really bounds the shuffle: per batch ≤ k rows/key
    from presto_bloomfilter_ray.functions.dedup import cap_per_key as cpk
    import pytest
    with pytest.raises(ValueError):
        cpk(ds, "host", "doc_id", k=0)


def _cap_check(duck, t, k, n_blocks):
    """cap_per_key over ``t`` split into ``n_blocks`` blocks equals
    DuckDB's ``QUALIFY row_number() <= k`` and keeps the input schema."""
    import ray.data as rd

    from presto_bloomfilter_ray.functions import cap_per_key

    ds = rd.from_arrow(t)
    if n_blocks > 1:
        ds = ds.repartition(n_blocks)
    kept = cap_per_key(ds, "host", "doc_id", k=k).materialize()
    duck.register("capt", t)
    want = duck.sql(f"""
        SELECT * FROM capt
        QUALIFY row_number() OVER (PARTITION BY host ORDER BY doc_id) <= {k}
    """).arrow()
    duck.unregister("capt")
    got = pa.concat_tables(
        [b for b in ray.get(kept.to_arrow_refs()) if b.num_rows]
        or [t.slice(0, 0)])
    assert got.schema == t.schema  # no stray _b, dtypes kept
    order = [("doc_id", "ascending")]
    assert got.sort_by(order).equals(want.cast(t.schema).sort_by(order))
    return got


def _cap_table(keys, seed=3):
    n = len(keys)
    ids = np.random.default_rng(seed).permutation(n).astype("int64")
    return pa.table({
        "host": pa.array(keys, pa.string()),
        "doc_id": pa.array(ids, pa.int64()),
        "lang": pa.array([f"l{i % 3}" for i in range(n)], pa.large_string()),
        "score": pa.array(np.arange(n) % 7, pa.int32()),
    })


def test_cap_per_key_edges_match_duckdb(ray_session, duck):
    rng = np.random.default_rng(11)
    keys = [None if r < 2 else f"h{r}" for r in rng.integers(0, 15, 3000)]
    t = _cap_table(keys)
    # null keys form one group, capped like any other
    got = _cap_check(duck, t, 4, 5)
    assert got.column("host").null_count == 4
    # k >= every group: the identity set
    assert _cap_check(duck, t, 10_000, 5).num_rows == t.num_rows
    # empty input
    assert _cap_check(duck, t.slice(0, 0), 3, 1).num_rows == 0


def test_cap_per_key_zipf_hot_key_in_every_block(ray_session, duck):
    rng = np.random.default_rng(12)
    n = 20_000
    keys = np.minimum(rng.zipf(1.3, n), 4_000)
    keys[::5] = 1  # the hot key lands in every block
    t = _cap_table([f"host{k}" for k in keys], seed=4)
    got = _cap_check(duck, t, 3, 8)
    counts = np.unique(keys, return_counts=True)[1]
    assert got.num_rows == int(np.minimum(counts, 3).sum())


def test_decontaminate_no_false_negatives(ray_session):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import (
        benchmark_bloom,
        decontaminate,
        flag_contaminated,
    )

    bench = rd.from_items([
        {"text": "What is the capital of France?\nParis"},
        {"text": "2 + 2 =\n4"},
    ])
    corpus = rd.from_items([
        {"doc_id": 1, "text": "blog post\nWhat is the capital of France?\nmore"},
        {"doc_id": 2, "text": "clean doc\nnothing shared"},
        {"doc_id": 3, "text": "4\ntrailing"},          # shares the '4' line
        {"doc_id": 4, "text": "totally unrelated"},
        {"doc_id": 5, "text": "  \n\nParis"},           # blank lines + hit
    ]).repartition(3)

    bloom = benchmark_bloom(bench, expected_insertions=1000, fpp=1e-6)
    flags = {r["doc_id"]: r["c"] for r in
             flag_contaminated(corpus, bloom, flag_col="c").take_all()}
    assert flags[1] and flags[3] and flags[5]
    assert not flags[2] and not flags[4]

    kept = sorted(r["doc_id"] for r in decontaminate(
        corpus, bench, expected_insertions=1000, fpp=1e-6).take_all())
    assert kept == [2, 4]
    # blank/whitespace lines never poison the filter: a doc of only
    # blank lines stays clean even though the benchmark has none either
    blanks = rd.from_items([{"doc_id": 9, "text": "\n \n"}])
    f = flag_contaminated(blanks, bloom, flag_col="c").take_all()
    assert f[0]["c"] is False or f[0]["c"] == False  # noqa: E712


def test_decontaminate_ngram_unit(ray_session):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import decontaminate, flag_contaminated
    from presto_bloomfilter_ray.functions.decontaminate import (
        benchmark_bloom,
        explode_token_ngrams,
    )

    eval_q = ("Which planet is known as the red planet in our solar "
              "system according to astronomers today exactly")  # 15 tokens
    # two benchmark docs: a long question and a SHORT answer doc (<13
    # tokens — exercises the whole-doc-gram path on the build side)
    bench = rd.from_items([{"text": f"Q: {eval_q}?"}, {"text": "A: Mars"}])
    corpus = rd.from_items([
        # contaminated: contains the benchmark question verbatim
        # (case/punct differ — n-gram normalization must still match)
        {"doc_id": 1, "text": f"trivia dump!! {eval_q.upper()}, answer mars"},
        # clean: shares many individual words but no 13-token window
        {"doc_id": 2, "text": "the red planet is a nickname; astronomers "
                              "study our solar system and every planet"},
        # short exact copy of the short benchmark doc (<13 tokens:
        # whole-doc gram on both sides; case/punct differences wash out)
        {"doc_id": 3, "text": "a: mars"},
        {"doc_id": 4, "text": "completely unrelated content here"},
    ]).repartition(2)

    bloom = benchmark_bloom(bench, expected_insertions=10_000, fpp=1e-6,
                            unit="ngram")
    flags = {r["doc_id"]: r["c"] for r in
             flag_contaminated(corpus, bloom, flag_col="c",
                               unit="ngram").take_all()}
    assert flags[1], "verbatim 13-gram overlap must be flagged"
    assert not flags[2], "word-level overlap without a window is clean"
    assert flags[3], "short doc equal to a short benchmark line hits"
    assert not flags[4]

    kept = sorted(r["doc_id"] for r in decontaminate(
        corpus, bench, expected_insertions=10_000, fpp=1e-6,
        unit="ngram").take_all())
    assert kept == [2, 4]

    # gram extraction: window count and short-doc behavior
    t = pa.table({"text": ["one two three four five", "a b"]})
    g5 = explode_token_ngrams(t, n=5)
    assert g5.num_rows == 2  # one full window + one short-doc gram
    g2 = explode_token_ngrams(t, n=2)
    assert g2.num_rows == 4 + 1
    import pytest
    with pytest.raises(ValueError):
        explode_token_ngrams(t, n=0)


def test_hash_sample_deterministic_and_stratified(ray_session, duck):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import hash_sample
    from presto_bloomfilter_ray.functions.sampling import sample_mask

    n = 5000
    ids = np.arange(n, dtype=np.int64)
    langs = np.array(["en", "de", "fr"])[ids % 3]
    t = pa.table({"doc_id": ids, "lang": langs})
    ds = rd.from_arrow(t).repartition(5)

    # global fraction: repartition-stable, close to requested rate
    a = sorted(r["doc_id"] for r in
               hash_sample(ds, "doc_id", 0.3).take_all())
    b = sorted(r["doc_id"] for r in
               hash_sample(ds.repartition(2), "doc_id", 0.3).take_all())
    assert a == b
    assert abs(len(a) / n - 0.3) < 0.03

    # stratified: per-lang rates honored, SQL-exact
    kept = hash_sample(ds, "doc_id", key_col="lang",
                       fractions={"en": 0.5, "de": 0.1}).to_pandas()
    duck.sql("CREATE OR REPLACE TABLE sdocs AS SELECT * FROM t")
    want = duck.sql("""
        SELECT doc_id, lang FROM sdocs
        WHERE (doc_id * 2654435761) % 4294967296 <
              CAST((CASE lang WHEN 'en' THEN 0.5 WHEN 'de' THEN 0.1
                    ELSE 1.0 END) * 4294967296 AS BIGINT)
    """).df()
    assert sorted(kept["doc_id"]) == sorted(want["doc_id"])
    got_fr = (kept["lang"] == "fr").sum()
    assert got_fr == (langs == "fr").sum()  # default fraction 1.0

    import pytest
    with pytest.raises(ValueError):
        sample_mask(np.array([-1]), 0.5)
    with pytest.raises(ValueError):
        hash_sample(ds, "doc_id")
    with pytest.raises(ValueError):
        hash_sample(ds, "doc_id", fractions={"en": 0.5})


def test_tfidf_top_terms_matches_duckdb(ray_session, duck):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import tfidf_top_terms

    docs = duck.sql(
        "select doc_id, lang, text from documents limit 400").df()
    ds = rd.from_pandas(docs[["text", "lang"]]).repartition(4)
    mine = tfidf_top_terms(ds, top_k=3).reset_index(drop=True)

    duck.sql("CREATE OR REPLACE TABLE tdocs AS SELECT * FROM docs")
    want = duck.sql(r"""
        WITH toks AS (
            SELECT doc_id, lang,
                   unnest(regexp_extract_all(text, '\S+')) AS term
            FROM tdocs
        ), stats AS (
            SELECT lang, term, count(*) AS tf,
                   count(DISTINCT doc_id) AS df
            FROM toks GROUP BY 1, 2
        ), nd AS (SELECT lang, count(*) AS n_docs FROM tdocs GROUP BY 1)
        SELECT lang, term, tf, df,
               round(tf * ln(CAST(n_docs AS DOUBLE) / df), 6) AS score
        FROM stats JOIN nd USING (lang)
        QUALIFY row_number() OVER (
            PARTITION BY lang ORDER BY score DESC, term) <= 3
        ORDER BY lang, score DESC, term
    """).df()
    pd.testing.assert_frame_equal(mine, want, check_dtype=False)


def test_quantile_band_filter_bounds(ray_session):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import quantile_band_filter

    rng = np.random.default_rng(7)
    vals = rng.lognormal(5.0, 1.0, 20_000)
    ds = rd.from_arrow(pa.table({"n_chars": vals})).repartition(8)
    filtered, lo, hi, sk = quantile_band_filter(ds, "n_chars", 0.1, 0.9)
    assert lo < hi
    eps = sk.rank_error_bound()
    # empirical rank of each cutoff within the sketch's error bound
    assert abs((vals < lo).mean() - 0.1) <= 3 * eps
    assert abs((vals <= hi).mean() - 0.9) <= 3 * eps
    kept = filtered.count()
    assert abs(kept / len(vals) - 0.8) <= 6 * eps
    # reuse path: passing the sketch back skips pass 1, same cutoffs
    _, lo2, hi2, _ = quantile_band_filter(ds, "n_chars", 0.1, 0.9, sketch=sk)
    assert (lo2, hi2) == (lo, hi)

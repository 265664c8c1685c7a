"""End-to-end prepare_corpus composition: monotone stages, determinism,
checkpoint/resume."""

import json
import os

import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs(ray_session, sf_dir):
    import ray

    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "lang", "source"])


def test_prepare_monotone_and_deterministic(docs, tmp_path):
    from presto_bloomfilter_ray.pipelines import prepare_corpus

    out, metrics = prepare_corpus(
        docs, id_col="doc_id", text_col="text",
        work_dir=str(tmp_path / "a"))
    stages = [m["stage"] for m in metrics]
    assert stages == ["quality_gates", "exact_dedup", "minhash_dedup"]
    rows = [m["rows"] for m in metrics]
    assert all(r is not None for r in rows)
    assert rows == sorted(rows, reverse=True)  # each stage only drops
    assert out.count() == rows[-1]
    # deterministic: a second run returns the same surviving id set
    out2, metrics2 = prepare_corpus(
        docs, id_col="doc_id", text_col="text",
        work_dir=str(tmp_path / "b"))
    ids1 = sorted(r["doc_id"] for r in out.select_columns(["doc_id"]).take_all())
    ids2 = sorted(r["doc_id"] for r in out2.select_columns(["doc_id"]).take_all())
    assert ids1 == ids2
    assert [m["rows"] for m in metrics2] == rows


def test_prepare_url_stages(ray_session, tmp_path):
    import ray

    from presto_bloomfilter_ray.pipelines import prepare_corpus

    rows = []
    for i in range(200):
        host = f"h{i % 5}.example.com"
        rows.append({
            "doc_id": i,
            "url": f"https://{host}/p/{i}",
            "text": f"document body number {i} with enough words to pass "
                    f"the permissive gates and some variety {i * 7} {i * 13}",
        })
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    out, metrics = prepare_corpus(
        ds, id_col="doc_id", text_col="text", url_col="url",
        blocked_hosts=["h0.example.com"], host_cap=10,
        work_dir=str(tmp_path))
    stages = [m["stage"] for m in metrics]
    assert stages == ["host_blocklist", "quality_gates", "exact_dedup",
                      "minhash_dedup", "host_cap"]
    got = out.take_all()
    # blocklist: no h0 urls survive
    assert all("h0.example.com" not in r["url"] for r in got)
    # cap: ≤ 10 docs per host, and the kept ones are the smallest ids
    from collections import Counter

    per_host = Counter(r["url"].split("/")[2] for r in got)
    assert all(v <= 10 for v in per_host.values())
    kept_ids = sorted(r["doc_id"] for r in got)
    assert kept_ids[0] in (1, 2, 3, 4)  # smallest surviving ids win the cap
    assert "_host" not in out.schema().names


def _mini_docs():
    import ray

    rows = []
    for i in range(200):
        host = f"h{i % 5}.example.com"
        rows.append({
            "doc_id": i,
            "url": f"https://{host}/p/{i}",
            "text": f"document body number {i} with enough words to pass "
                    f"the permissive gates and some variety {i * 7} {i * 13}",
        })
    return ray.data.from_arrow(pa.Table.from_pylist(rows))


def test_prepare_checkpoint_resume(ray_session, tmp_path):
    from presto_bloomfilter_ray.pipelines import prepare_corpus

    ck = str(tmp_path / "ck")
    kw = dict(id_col="doc_id", text_col="text", url_col="url",
              blocked_hosts=["h0.example.com"], host_cap=10,
              work_dir=str(tmp_path / "w"), checkpoint_dir=ck)
    out1, m1 = prepare_corpus(_mini_docs(), **kw)
    assert [m["resumed"] for m in m1] == [False] * 5
    # every stage committed: data dir + manifest-last marker
    for i, m in enumerate(m1):
        d = os.path.join(ck, f"{i:02d}-{m['stage']}")
        assert os.path.exists(os.path.join(d, "data"))
        man = json.load(open(os.path.join(d, "_MANIFEST.json")))
        assert man["rows"] == m["rows"]
    ids1 = sorted(r["doc_id"] for r in out1.select_columns(["doc_id"]).take_all())

    # full resume: every stage skipped, identical output
    out2, m2 = prepare_corpus(_mini_docs(), **kw)
    assert [m["resumed"] for m in m2] == [True] * 5
    assert [m["rows"] for m in m2] == [m["rows"] for m in m1]
    ids2 = sorted(r["doc_id"] for r in out2.select_columns(["doc_id"]).take_all())
    assert ids2 == ids1

    # crash simulation: stage 2's manifest vanishes → prefix resumes,
    # stage 2 and everything after recompute
    os.remove(os.path.join(ck, "02-exact_dedup", "_MANIFEST.json"))
    out3, m3 = prepare_corpus(_mini_docs(), **kw)
    assert [m["resumed"] for m in m3] == [True, True, False, False, False]
    ids3 = sorted(r["doc_id"] for r in out3.select_columns(["doc_id"]).take_all())
    assert ids3 == ids1

    # parameter change invalidates that stage and the rest of the chain
    kw2 = dict(kw, quality_min=0.01)
    out4, m4 = prepare_corpus(_mini_docs(), **kw2)
    assert [m["resumed"] for m in m4] == [True, False, False, False, False]
    assert m4[0]["rows"] == m1[0]["rows"]


def test_prepare_keep_latest_gc(ray_session, tmp_path):
    """keep_stages='latest' drops every committed stage's data once
    its successor commits (manifests stay), crash-resume still works
    from the surviving latest checkpoint, and a mid-chain parameter
    change against a GC'd predecessor refuses loudly."""
    import pytest as _pytest

    from presto_bloomfilter_ray.pipelines import prepare_corpus

    ck = str(tmp_path / "ck")
    kw = dict(id_col="doc_id", text_col="text", url_col="url",
              blocked_hosts=["h0.example.com"], host_cap=10,
              work_dir=str(tmp_path / "w"), checkpoint_dir=ck,
              keep_stages="latest")
    out1, m1 = prepare_corpus(_mini_docs(), **kw)
    assert [m["resumed"] for m in m1] == [False] * 5
    # only the LAST stage keeps data; every manifest survives
    for i, m in enumerate(m1):
        d = os.path.join(ck, f"{i:02d}-{m['stage']}")
        assert os.path.exists(os.path.join(d, "_MANIFEST.json"))
        assert os.path.exists(os.path.join(d, "data")) == (i == 4)
    ids1 = sorted(r["doc_id"]
                  for r in out1.select_columns(["doc_id"]).take_all())

    # crash mid-stage-5 leaves stages 0-3 committed with stage 3's
    # data intact (GC fires only on the SUCCESSOR's commit): emulate
    # by running the 4-stage chain, then finishing the 5-stage one
    ck2 = str(tmp_path / "ck2")
    kw2 = dict(kw, checkpoint_dir=ck2)
    prepare_corpus(_mini_docs(), **dict(kw2, host_cap=None))
    assert os.path.exists(os.path.join(ck2, "03-minhash_dedup", "data"))
    out3, m3 = prepare_corpus(_mini_docs(), **kw2)
    assert [m["resumed"] for m in m3] == [True, True, True, True, False]
    ids3 = sorted(r["doc_id"]
                  for r in out3.select_columns(["doc_id"]).take_all())
    assert ids3 == ids1

    # a mid-chain parameter change with GC'd predecessors must refuse
    with _pytest.raises(RuntimeError, match="garbage-collected"):
        prepare_corpus(_mini_docs(), **dict(kw, quality_min=0.01))


def test_prepare_nonadjacent_checkpoint_refused(ray_session, tmp_path):
    """Mixed GC state: an OLD stage still has data (keep_stages='all'
    run) while the immediate predecessor's data was GC'd by a later
    keep_stages='latest' commit. Invalidating a stage after the gap
    must refuse loudly — recomputing from the non-adjacent older
    checkpoint would silently skip the stages between."""
    import pytest as _pytest

    from presto_bloomfilter_ray.pipelines import prepare_corpus

    ck = str(tmp_path / "ck")
    kw = dict(id_col="doc_id", text_col="text", url_col="url",
              blocked_hosts=["h0.example.com"], host_cap=10,
              work_dir=str(tmp_path / "w"), checkpoint_dir=ck)
    # run 1: keep everything
    prepare_corpus(_mini_docs(), **dict(kw, keep_stages="all"))
    # run 2: invalidate the LAST stage under keep_stages='latest' —
    # its commit GC's stage 3's data while stages 0-2 keep theirs
    prepare_corpus(_mini_docs(), **dict(kw, keep_stages="latest",
                                        host_cap=9))
    assert os.path.exists(os.path.join(ck, "02-exact_dedup", "data"))
    assert not os.path.exists(os.path.join(ck, "03-minhash_dedup",
                                           "data"))
    # run 3: invalidate the last stage AGAIN — docs now holds stage
    # 2's output when stage 4 recomputes, NOT stage 3's. Must refuse.
    with _pytest.raises(RuntimeError, match="holds stage 2 output"):
        prepare_corpus(_mini_docs(), **dict(kw, keep_stages="latest",
                                            host_cap=8))


def test_prepare_sweeps_gc_debris(ray_session, tmp_path):
    """A crash between the GC's rename and its rmtree leaves a
    '.data-gc-*' directory; the next run reclaims it when a stage
    starts, and the output is unchanged."""
    from presto_bloomfilter_ray.pipelines import prepare_corpus

    ck = str(tmp_path / "ck")
    kw = dict(id_col="doc_id", text_col="text", url_col="url",
              blocked_hosts=["h0.example.com"], host_cap=10,
              work_dir=str(tmp_path / "w"), checkpoint_dir=ck)
    out1, _ = prepare_corpus(_mini_docs(), **kw)
    ids1 = sorted(r["doc_id"] for r in out1.select_columns(["doc_id"]).take_all())
    debris = os.path.join(ck, "01-quality_gates", ".data-gc-0badc0de")
    os.makedirs(debris)
    with open(os.path.join(debris, "part-0.parquet"), "w") as f:
        f.write("dead checkpoint data")
    out2, m2 = prepare_corpus(_mini_docs(), **kw)
    assert not os.path.exists(debris)
    assert [m["resumed"] for m in m2] == [True] * 5
    ids2 = sorted(r["doc_id"] for r in out2.select_columns(["doc_id"]).take_all())
    assert ids2 == ids1

"""KeySet (functions/keyset.py): the one owner of the broadcast-or-
sharded exact key set. Tier-boundary equivalence, filter plans, the
broadcast tier's small closure footprint, and a guard that keeps the
shard machinery private to keyset.py."""

import ast
import os
import pickle

import numpy as np
import pyarrow as pa
import pytest

from presto_bloomfilter_ray.functions.keyset import KeySet

# negative keys, ±2^62, duplicate keys (carrying equal values)
KEYS = np.array([-(2**62), -17, -1, 0, 3, 3, 9, 2**62, 2**62 - 1, 41, 41, 41],
                dtype=np.int64)
VALS = np.array([5, 6, 7, 8, 9, 9, 10, 11, 12, 13, 13, 13], dtype=np.int64)
PROBE = np.array([3, -(2**62), 2**62, 2**62 + 1, -2, 41, 0, 8, -17, 9, 3],
                 dtype=np.int64)


def _oracle(keys, vals, probe):
    d = dict(zip(keys.tolist(), vals.tolist()))
    return (np.array([k in d for k in probe.tolist()], dtype=bool),
            np.array([d.get(k, 0) for k in probe.tolist()], dtype=np.int64))


@pytest.mark.parametrize("source", ["table", "dataset"])
def test_tier_boundary_identical_lookups(ray_session, tmp_path, source):
    import ray.data as rd

    t = pa.table({"k": KEYS, "v": VALS})
    src = t if source == "table" else rd.from_arrow(t).repartition(3).materialize()
    n = len(KEYS)
    want = _oracle(KEYS, VALS, PROBE)
    tiers = []
    for limit in (n - 1, n, n + 1):
        ks = KeySet.build(src, "k", "v", broadcast_limit=limit,
                          work_dir=str(tmp_path))
        assert ks.n == n
        tiers.append(ks.tier)
        found, values = ks.lookup(PROBE)
        assert found.tolist() == want[0].tolist()
        assert values.tolist() == want[1].tolist()
        e_found, e_values = ks.lookup(np.zeros(0, dtype=np.int64))
        assert len(e_found) == 0 and len(e_values) == 0
        # no value column: membership only, values all zero
        kn = KeySet.build(src, "k", broadcast_limit=limit,
                          work_dir=str(tmp_path))
        assert kn.tier == ks.tier
        found, values = kn.lookup(PROBE)
        assert found.tolist() == want[0].tolist()
        assert not values.any()
    assert tiers == ["sharded", "broadcast", "broadcast"]


def test_empty_set_every_tier(ray_session, tmp_path):
    import ray.data as rd

    t = pa.table({"k": pa.array([], pa.int64())})
    for src in (t, rd.from_arrow(t).materialize()):
        for limit in (-1, 0, 1):
            ks = KeySet.build(src, "k", broadcast_limit=limit,
                              work_dir=str(tmp_path))
            assert ks.n == 0
            assert ks.tier == ("sharded" if limit < 0 else "broadcast")
            found, values = ks.lookup(PROBE)
            assert not found.any() and not values.any()
            found, _ = ks.lookup(np.zeros(0, dtype=np.int64))
            assert len(found) == 0


def test_filter_plans_agree(ray_session, tmp_path):
    import ray.data as rd

    rng = np.random.default_rng(5)
    ids = rng.integers(-(2**40), 2**40, size=400).astype(np.int64)
    corpus = rd.from_arrow(pa.table({"id": ids})).repartition(4)
    drop = pa.table({"k": ids[::3]})

    def key_of(b):
        return np.asarray(b.column("id")).astype(np.int64)

    def keep_mask(b, keys, found, values):
        return ~found

    want = sorted(set(ids.tolist()) - set(ids[::3].tolist()))
    outs = []
    for limit, co in ((10**9, None), (0, False), (0, True)):
        ks = KeySet.build(drop, "k", broadcast_limit=limit,
                          work_dir=str(tmp_path))
        outs.append(sorted(ks.filter(corpus, key_of, keep_mask, co)
                           .to_pandas()["id"].tolist()))
    assert outs[0] == outs[1] == outs[2]
    assert sorted(set(outs[0])) == want


def test_broadcast_keyset_pickles_small(ray_session):
    """The broadcast tier holds only the ObjectRef: a stage closure
    capturing it ships a few bytes per task, never the keys."""
    import ray

    ks = KeySet.build(pa.table({"k": np.arange(1_000_000, dtype=np.int64)}),
                      "k", broadcast_limit=2_000_000)
    assert ks.tier == "broadcast" and ks.n == 1_000_000
    assert len(pickle.dumps(ks)) < 1024
    # measured over a lambda capturing nothing, so the test file's path
    # (pickled with both code objects) cancels out
    empty = len(ray.cloudpickle.dumps(lambda keys: keys))
    assert len(ray.cloudpickle.dumps(lambda keys: ks.lookup(keys))) - empty < 1024


# ------------------------------------------------------ regrowth guard
_FUNCTIONS = os.path.join(os.path.dirname(__file__), os.pardir,
                          "presto_bloomfilter_ray", "functions")
_PRIVATE = {"_write_key_shards", "_shard_lookup", "_sharded_anti_join",
            "_fresh_shard_dir"}
# the callers whose tier logic KeySet absorbed, and the keyed-join
# callers whose broadcast tier fold.join absorbed (it asks
# KeySet.broadcasts)
_CALLERS = {"dedup.py": ["exact_dedup", "dedup_lines_keep_first",
                         "minhash_dedup"],
            "dedup_index.py": ["minhash_index_dedup"],
            "semdedup.py": ["semdedup"],
            "text.py": ["boilerplate_lines", "remove_boilerplate_lines",
                        "pmi_bigrams"],
            "substrings.py": ["hot_windows", "scrub_repeated_substrings"],
            "sampling.py": ["attach_dup_cluster"],
            "windows.py": ["funnel_counts"],
            "containment.py": ["containment_pairs"],
            "graph.py": ["triangle_count", "kcore"],
            "search_index.py": ["bm25_index_search"],
            "joinplan.py": ["planned_join"]}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_shard_machinery_stays_in_keyset():
    """No functions module but keyset.py names the shard internals, and
    no key-set or keyed-join caller branches on ``broadcast_limit``
    (or a ``*_broadcast_limit``) itself. A caller
    that must know the tier asks :meth:`KeySet.broadcasts`, the one
    permitted tier query (``exact_dedup`` skips building a set it would
    only broadcast), so the tier rule stays in keyset.py."""
    offenders = []
    for fname in sorted(os.listdir(_FUNCTIONS)):
        if not fname.endswith(".py") or fname == "keyset.py":
            continue
        with open(os.path.join(_FUNCTIONS, fname)) as f:
            tree = ast.parse(f.read())
        offenders += [f"{fname}: {n}" for n in set(_names(tree)) & _PRIVATE]
        funcs = {n.name: n for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef)}
        for fn in _CALLERS.get(fname, []):
            for node in ast.walk(funcs[fn]):
                if (isinstance(node, ast.Compare)
                        and any(n.endswith("broadcast_limit")
                                for n in _names(node))):
                    offenders.append(f"{fname}: {fn} compares broadcast_limit")
    assert not offenders, offenders

"""One sketch-stage path: every envelope fold is
``sketches.base.merge_envelopes``, every broadcast Bloom probe is
``engine.ContainsFilter``, and the sketch, probe and MinHash stages
have no actor-pool option."""

import ast
import inspect
import os

import numpy as np
import pyarrow as pa
import pytest

from presto_bloomfilter_ray import KLL, TDigest, deserialize
from presto_bloomfilter_ray.sketches.base import merge_envelopes

_PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "presto_bloomfilter_ray")
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def _name(func):
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None)


def _fold_loops(tree):
    """Lines of the loops that both call ``deserialize`` and a
    ``.merge`` method: a hand-rolled envelope fold."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, _LOOPS):
            continue
        calls = [c.func for c in ast.walk(node) if isinstance(c, ast.Call)]
        if (any(_name(f) == "deserialize" for f in calls)
                and any(isinstance(f, ast.Attribute) and f.attr == "merge"
                        for f in calls)):
            out.append(node.lineno)
    return out


def _package_trees():
    for d, _, fs in os.walk(_PKG):
        for f in sorted(fs):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                with open(path) as fh:
                    yield os.path.relpath(path, _PKG), ast.parse(fh.read())


def test_envelope_folds_go_through_merge_envelopes():
    offenders = [f"{rel}:{line}" for rel, tree in _package_trees()
                 if rel != os.path.join("sketches", "base.py")
                 for line in _fold_loops(tree)]
    assert not offenders, offenders


def test_fold_guard_flags_hand_rolled_loops():
    src = '''
acc = None
for b in blobs:
    sk = deserialize(b)
    acc = sk if acc is None else acc.merge(sk)
out = [deserialize(a).merge(deserialize(b)) for a, b in pairs]
def combine(current, new):
    acc = deserialize(current)
    return acc.merge(deserialize(new))
frames = [a.merge(b, on="k") for a, b in pairs]
'''
    assert _fold_loops(ast.parse(src)) == [3, 6]


@pytest.mark.parametrize("factory", [lambda: KLL(64), lambda: TDigest(50)],
                         ids=["kll", "tdigest"])
def test_merge_envelopes_is_the_left_fold_in_order(factory):
    rng = np.random.default_rng(5)
    envs = [factory().update_arrow(pa.array(rng.normal(i, 1.0, 4000)))
            .serialize() for i in range(3)]
    a, b, c = (deserialize(e) for e in envs)
    want = a.merge(b).merge(c).serialize()
    got = merge_envelopes([None, envs[0], envs[1], None, envs[2]])
    assert got.serialize() == want
    assert merge_envelopes([]) is None and merge_envelopes([None]) is None


def _probe_sites(tree):
    """Qualified name of the def enclosing each ``contains_many`` call."""
    out = []

    def visit(node, qual):
        for child in ast.iter_child_nodes(node):
            q = qual
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                q = f"{qual}.{child.name}" if qual else child.name
            if (isinstance(child, ast.Call)
                    and _name(child.func) == "contains_many"):
                out.append(qual)
            visit(child, q)

    visit(tree, "")
    return out


def test_one_probe_body():
    """``engine/``, ``pipelines/`` and ``functions/urls.py`` probe a
    broadcast Bloom only in ``ContainsFilter.__call__``. The streaming
    dedup actor probes and inserts into its own mutable window filter,
    which is not a broadcast probe."""
    sites = {(rel, q) for rel, tree in _package_trees()
             if rel.startswith(("engine", "pipelines"))
             or rel == os.path.join("functions", "urls.py")
             for q in _probe_sites(tree)}
    assert sites == {
        (os.path.join("engine", "ops.py"), "ContainsFilter.__call__"),
        (os.path.join("pipelines", "streaming.py"), "DedupBucketState.ingest"),
    }, sites


def test_no_actor_pool_options():
    from presto_bloomfilter_ray import engine
    from presto_bloomfilter_ray.functions import dedup, dedup_index

    for fn in (engine.semi_join, engine.contains_column, engine.build_sketch,
               dedup.lsh_candidate_pairs, dedup_index.minhash_index_build,
               dedup_index.minhash_index_append,
               dedup_index.minhash_index_probe):
        assert "concurrency" not in inspect.signature(fn).parameters, fn
    assert not hasattr(engine, "SketchPartialBuilder")

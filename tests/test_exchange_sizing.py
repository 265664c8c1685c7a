"""One way to size an exchange: every width comes from a row count, so
only ``functions/fold.py`` takes a ``num_buckets`` (the cap of
``exchange`` and ``bucket_fold``), no call passes ``partition_map`` a
``coalesce=0`` (a sort over the input's own blocks), and the options
no caller set are gone."""

import ast
import importlib
import inspect
import os

import pytest

from test_sketch_paths import _name, _package_trees

_FOLD = os.path.join("functions", "fold.py")


def _num_buckets_defs(tree):
    """Names of the defs that take a ``num_buckets`` parameter."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs
            if any(p.arg == "num_buckets" for p in params):
                out.append(node.name)
    return out


def _coalesce_zero_calls(tree):
    """Lines of the ``partition_map`` calls passing ``coalesce=0``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and _name(node.func) == "partition_map"
            and any(k.arg == "coalesce" and isinstance(k.value, ast.Constant)
                    and k.value.value == 0 for k in node.keywords)]


def test_only_fold_takes_num_buckets():
    offenders = {rel: names for rel, tree in _package_trees()
                 if (names := _num_buckets_defs(tree))}
    assert set(offenders) == {_FOLD}, offenders
    assert sorted(offenders[_FOLD]) == ["append_bucket", "bucket_fold",
                                        "exchange"]


def test_partition_map_never_gets_coalesce_zero():
    offenders = [f"{rel}:{line}" for rel, tree in _package_trees()
                 for line in _coalesce_zero_calls(tree)]
    assert not offenders, offenders


def test_guards_flag_snippets():
    src = '''
def f(ds, num_buckets=64):
    return partition_map(ds, g, key="k", width=4, coalesce=0)
def g(ds, *, n_parts):
    return fold.partition_map(ds, g, key="k", width=4, coalesce=8)
def h(ds, *, num_buckets):
    return fold.partition_map(ds, g, key="k", width=1,
                              coalesce=0)
'''
    tree = ast.parse(src)
    assert _num_buckets_defs(tree) == ["f", "h"]
    assert _coalesce_zero_calls(tree) == [3, 7]


_PKG_NAME = "presto_bloomfilter_ray"

#: (module, function, option) of every option no caller set
_REMOVED = [
    *[(m, f, "num_buckets") for m, f in (
        ("functions.windows", "lag_deltas"),
        ("functions.windows", "transition_counts"),
        ("functions.windows", "cumulative_aggregate"),
        ("functions.windows", "session_windows"),
        ("functions.profile", "skew_report"),
        ("functions.drift", "categorical_drift"),
        ("functions.reconcile", "snapshot_delta"),
        ("functions.containment", "containment_pairs"),
        ("functions.sampling", "attach_dup_cluster"),
        ("functions.editjoin", "edit_distance_pairs"))],
    ("functions.components", "connected_components", "shuffle_rounds"),
    ("functions.components", "connected_components_ds", "shortcut"),
    *[(m, f, "concurrency") for m, f in (
        ("functions.similarity", "topk_cosine"),
        ("functions.similarity", "cosine_neardup_pairs"),
        ("functions.decontaminate", "flag_contaminated"),
        ("functions.decontaminate", "novelty_scores"),
        ("functions.zonemap", "build_zonemap"))],
    ("pipelines.prepare", "prepare_corpus", "materialize_stages"),
    ("pipelines.prepare", "prepare_corpus", "collect_metrics"),
    ("engine.agg", "grouped_sketch", "batch_size"),
    ("functions.fold", "exchange", "batch_size"),
]


@pytest.mark.parametrize("module,fn,option", _REMOVED,
                         ids=[f"{f}-{o}" for _, f, o in _REMOVED])
def test_removed_option_is_gone(module, fn, option):
    func = getattr(importlib.import_module(f"{_PKG_NAME}.{module}"), fn)
    assert option not in inspect.signature(func).parameters

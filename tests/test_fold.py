"""bucket_fold (functions/fold.py): bit-identity with Ray's
groupby().aggregate for every supported op, dtypes included; exchange:
one reducer call per non-empty bucket, each key in exactly one call;
partition_map: one call per non-empty ``key & (width - 1)`` partition
with the caller's columns, and no sort in a width-1 plan; co_attach:
equal to a pyarrow join, one schema into the shuffle, and every call
sees one partition."""
import ast
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

import ray.data as rd

from presto_bloomfilter_ray.functions import fold
from presto_bloomfilter_ray.functions.fold import (NUM_BUCKETS, _pow2,
                                                   bucket_fold, co_attach,
                                                   exchange, partition_map)

_FUNCTIONS = os.path.dirname(fold.__file__)


def _data(seed, n=60_000, n_keys=5_000):
    rng = np.random.default_rng(seed)
    return pa.table({
        "k": pa.array(rng.integers(0, n_keys, n), pa.int64()),
        "k2": pa.array(rng.integers(0, 3, n), pa.int64()),
        "v": pa.array(rng.integers(-100, 100, n), pa.int64()),
        "f": pa.array(rng.random(n)),
    })


def _norm(df, keys):
    return df.sort_values(keys).reset_index(drop=True)


def test_single_key_all_ops_match_ray_aggregate(ray_session):
    from ray.data.aggregate import Count, Max, Min, Sum

    t = _data(1)
    ds = rd.from_arrow(t).repartition(8)
    got = _norm(bucket_fold(
        ds, ["k"],
        [("v", "sum", "s"), ("v", "min", "mn"), ("v", "max", "mx"),
         (None, "count", "n")], num_buckets=8).to_pandas(), ["k"])
    ref = _norm(ds.groupby("k").aggregate(
        Sum("v", alias_name="s"), Min("v", alias_name="mn"),
        Max("v", alias_name="mx"), Count(alias_name="n"))
        .to_pandas(), ["k"])[got.columns]
    assert got.equals(ref)
    assert [str(d) for d in got.dtypes] == [str(d) for d in ref.dtypes]


def test_two_key_and_float_max(ray_session):
    from ray.data.aggregate import Max, Sum

    t = _data(2)
    ds = rd.from_arrow(t).repartition(8)
    got = _norm(bucket_fold(
        ds, ["k", "k2"], [("f", "max", "fm"), ("v", "sum", "s")],
        num_buckets=4).to_pandas(), ["k", "k2"])
    ref = _norm(ds.groupby(["k", "k2"]).aggregate(
        Max("f", alias_name="fm"), Sum("v", alias_name="s"))
        .to_pandas(), ["k", "k2"])[got.columns]
    assert got.equals(ref)


def test_clustered_keys_spread_across_buckets(ray_session):
    """Sequential ids must not all land in one bucket — the avalanche
    hash matters when keys are clustered (mod would stripe them)."""
    import polars as pl

    t = pa.table({"k": pa.array(np.arange(4096), pa.int64()),
                  "v": pa.array(np.ones(4096, np.int64))})
    out = bucket_fold(rd.from_arrow(t).repartition(4), ["k"],
                      [("v", "sum", "v")], num_buckets=8).to_pandas()
    assert len(out) == 4096 and (out["v"] == 1).all()


def test_empty_input(ray_session):
    t = _data(3).slice(0, 0)
    out = bucket_fold(rd.from_arrow(t), ["k"], [("v", "sum", "s")],
                      num_buckets=4).materialize()
    assert out.count() == 0


def test_unsupported_op_raises(ray_session):
    with pytest.raises(ValueError, match="unsupported op"):
        bucket_fold(rd.from_arrow(_data(4)), ["k"],
                    [("v", "mean", "m")])


def _tagger():
    """exchange reducer: per-key row count and sum, stamped with an id
    unique to this call (built in a closure so workers get it by value)."""
    def tag_call(g: pa.Table) -> pa.Table:
        import uuid

        import polars as pl

        t = (pl.from_arrow(g).group_by("k")
             .agg(n=pl.len().cast(pl.Int64), s=pl.col("v").sum()).to_arrow())
        return t.append_column("call",
                               pa.array([uuid.uuid4().hex] * t.num_rows))

    return tag_call


def test_exchange_one_call_per_bucket_matches_map_groups(ray_session):
    t = _data(5, n=40_000, n_keys=5_000)
    ds = rd.from_arrow(t).repartition(6)
    out = exchange(ds, ["k"], _tagger()).to_pandas()
    # each key in exactly one call; ≤ 64 calls at 5k keys
    assert out["k"].is_unique
    assert out["call"].nunique() <= NUM_BUCKETS == 64

    def per_key(g: pa.Table) -> pa.Table:
        return pa.table({"k": g.column("k").slice(0, 1),
                         "n": pa.array([g.num_rows], pa.int64()),
                         "s": pa.array([pa.compute.sum(g.column("v")).as_py()],
                                       pa.int64())})

    ref = ds.groupby("k").map_groups(per_key, batch_format="pyarrow").to_pandas()
    got = _norm(out.drop(columns=["call"]), ["k"])
    ref = _norm(ref, ["k"])[got.columns]
    assert got.equals(ref)
    assert [str(d) for d in got.dtypes] == [str(d) for d in ref.dtypes]


def test_exchange_pre_runs_map_side_and_bucket_is_dropped(ray_session):
    t = _data(6, n=5_000, n_keys=50)
    out = exchange(rd.from_arrow(t).repartition(3), ["k"], lambda g: g,
                   pre=lambda b: b.filter(pa.compute.greater(b["v"], 0)),
                   num_buckets=4).materialize()
    assert out.count() == int(np.sum(t.column("v").to_numpy() > 0))
    assert out.schema().names == t.column_names  # no stray _b


def test_exchange_empty_input(ray_session):
    t = _data(3).slice(0, 0)
    out = exchange(rd.from_arrow(t), ["k"], _tagger()).materialize()
    assert out.count() == 0
    assert out.take_all() == []


def _schemas(ds):
    import ray

    return {t.schema for t in ray.get(ds.to_arrow_refs())}


def test_no_schema_less_block_reaches_a_caller(ray_session):
    """Every output block of a count-sized exchange and of a width-1
    partition_map carries fn's schema: no schema-less empty block."""
    t = _data(8, n=6_000, n_keys=400)
    ds = rd.from_arrow([t.slice(0, 1_000), t.slice(1_000, 3_000),
                        t.slice(4_000)])
    want = pa.schema([("k", pa.int64()), ("n", pa.int64()),
                      ("s", pa.int64()), ("call", pa.string())])
    assert _schemas(exchange(ds, ["k"], _tagger())) == {want}
    assert _schemas(partition_map(ds, lambda part, rows: rows, key="k",
                                  width=1)) == {t.schema}


# ------------------------------------------------------------ partition_map

_EDGE = [-(1 << 62), -(1 << 62) + 1, -7, -1, 0, (1 << 62) - 1, 1 << 62]


def _keyed_rows(seed=0):
    """Rows keyed by int64 ``k`` (negative and ±2^62 included, repeats
    too), with two payload columns around the key."""
    rng = np.random.default_rng(seed)
    k = np.concatenate([rng.integers(-1000, 1000, 400), _EDGE, _EDGE])
    return pa.table({"v": pa.array([f"v{x}" for x in k]),
                     "k": pa.array(k, pa.int64()),
                     "w": pa.array(rng.random(len(k)))})


def _stamper():
    """partition_map fn: the rows it got, stamped with its ``part`` and
    an id unique to this call (built in a closure so workers get it by
    value)."""
    def stamp(part: int, rows: pa.Table) -> pa.Table:
        import uuid

        assert rows.column_names == ["v", "k", "w"]  # only _co_part dropped
        n = rows.num_rows
        return rows.append_column("part", pa.array(np.full(n, part))) \
            .append_column("call", pa.array([uuid.uuid4().hex] * n))

    return stamp


@pytest.mark.parametrize("width", [1, 6, 64])
def test_partition_map_one_call_per_partition(ray_session, width):
    t = _keyed_rows()
    out = _collect(partition_map(rd.from_arrow(t).repartition(5), _stamper(),
                                 key="k", width=width)).to_pandas()
    assert len(out) == t.num_rows
    assert sorted(out["k"]) == sorted(t.column("k").to_pylist())
    mask = _pow2(width) - 1
    assert (out["part"] == out["k"] & mask).all()
    calls = out.groupby("part")["call"].nunique()
    assert (calls == 1).all()  # one call per partition
    assert sorted(calls.index) == sorted(set(np.asarray(t.column("k")) & mask))


def test_partition_map_coalesce_keeps_groups(ray_session):
    t = _keyed_rows(1)

    def groups(**kw):
        out = _collect(partition_map(rd.from_arrow(t).repartition(7), _stamper(),
                                     key="k", width=64, **kw)).to_pandas()
        return sorted(zip(out["part"], out["k"], out["v"]))

    assert groups(coalesce=4) == groups()


def test_partition_map_keeps_caller_columns(ray_session):
    t = _keyed_rows(2)
    out = partition_map(rd.from_arrow(t), lambda part, rows: rows, key="k",
                        width=8).materialize()
    assert out.schema().names == t.column_names  # no stray _co_part
    assert sorted(out.to_pandas()["k"]) == sorted(t.column("k").to_pylist())


def test_partition_map_key_must_be_int64(ray_session):
    t = pa.table({"k": pa.array([1, 2, 3], pa.int32())})
    with pytest.raises(Exception, match="must be int64"):
        partition_map(rd.from_arrow(t), lambda part, rows: rows, key="k",
                      width=4).materialize()


def test_partition_map_empty_input(ray_session):
    """Empty input, materialized or mapped to empty blocks, at width 1
    (sort-free) and 8: ``fn`` is never called and the output has no
    rows."""
    def boom(part: int, rows: pa.Table) -> pa.Table:
        raise AssertionError(f"called on {rows.num_rows} rows")

    t = _keyed_rows()
    for ds in (rd.from_arrow(t.slice(0, 0)),
               rd.from_arrow(t).repartition(3).map_batches(
                   lambda b: b.slice(0, 0), batch_format="pyarrow")):
        for width in (1, 8):
            out = partition_map(ds, boom, key="k", width=width).materialize()
            assert out.count() == 0


def _ops(ds):
    """Names of every logical operator in ``ds``'s plan."""
    def walk(op):
        yield type(op).__name__
        for dep in op.input_dependencies:
            yield from walk(dep)
    return list(walk(ds._logical_plan.dag))


def test_width_one_plans_have_no_sort(ray_session):
    """A width-1 partition_map, a width-1 co_attach and a count-sized
    exchange over a small materialized input run one map over one
    block: no sort, while a wider partition_map keeps the sort."""
    t = _keyed_rows(3)
    ds = rd.from_arrow(t).repartition(5).materialize()
    left, right = _sides(3)
    plans = {
        "partition_map": partition_map(ds, _stamper(), key="k", width=1),
        "co_attach": co_attach(
            rd.from_arrow(left), rd.from_arrow(right), _attach_v(1),
            left_key="k", right_key="rk", n_parts=1,
            left_schema=_L_SCHEMA, right_schema=_R_SCHEMA),
        "exchange": exchange(rd.from_arrow(_data(9, n=3_000)), ["k"],
                             _tagger()),
    }
    for name, plan in plans.items():
        ops = _ops(plan)
        assert "Sort" not in ops, (name, ops)
        assert ops.count("Repartition") == 1, (name, ops)
    assert "Sort" in _ops(partition_map(ds, _stamper(), key="k", width=2))


# ------------------------------------------------------------ co_attach

_L_SCHEMA = [("k", pa.int64()), ("v", pa.string())]
_R_SCHEMA = [("rid", pa.int64()), ("rk", pa.int64())]


def _sides(seed=0):
    """Left: a keyed table (unique keys, negative and ±2^62 included).
    Right: rows keyed into it, some on keys the left lacks.
    Right keys are all even, so odd partitions hold left rows only."""
    rng = np.random.default_rng(seed)
    lk = np.unique(np.concatenate([rng.integers(-500, 500, 300), _EDGE]))
    left = pa.table({"k": pa.array(lk, pa.int64()),
                     "v": pa.array([f"v{k}" for k in lk]),
                     "junk": pa.array(np.zeros(len(lk)))})
    rk = np.concatenate([rng.choice(lk, 200), rng.integers(-900, 900, 100),
                         _EDGE])
    rk = rk[rk % 2 == 0]
    right = pa.table({"rid": pa.array(np.arange(len(rk)), pa.int64()),
                      "rk": pa.array(rk, pa.int64())})
    return left, right


def _attach_v(width):
    """co_attach fn: the left ``v`` of each right row (null when its key
    is absent), plus the partition ids this call saw and its sizes."""
    def fn(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lk = np.asarray(lt.column("k"))
        assert (np.diff(lk) > 0).all()  # left arrives sorted by key
        assert lt.column_names == ["k", "v"]
        assert rt.column_names == ["rid", "rk"]
        rk = np.asarray(rt.column("rk"))
        pos = np.minimum(np.searchsorted(lk, rk), max(len(lk) - 1, 0))
        found = lk[pos] == rk if len(lk) else np.zeros(len(rk), bool)
        v = (lt.column("v").take(pa.array(pos)) if len(lk)
             else pa.nulls(len(rk), pa.string()))
        parts = np.unique(np.concatenate([lk, rk]) & (width - 1))
        return pa.table({
            "rid": rt.column("rid"), "rk": rt.column("rk"),
            "v": pc.if_else(pa.array(found), v, pa.scalar(None, pa.string())),
            "n_parts_seen": pa.array(np.full(len(rk), len(parts))),
            "n_left": pa.array(np.full(len(rk), lt.num_rows)),
        }) if len(rk) else pa.table({
            "rid": pa.array([-1], pa.int64()), "rk": pa.array([0], pa.int64()),
            "v": pa.nulls(1, pa.string()),
            "n_parts_seen": pa.array([len(parts)]),
            "n_left": pa.array([lt.num_rows])})
    return fn


def _oracle(left, right):
    j = right.join(left.select(["k", "v"]), keys="rk", right_keys="k",
                   join_type="left outer")
    return j.select(["rid", "rk", "v"]).sort_by("rid").to_pylist()


def _collect(ds) -> pa.Table:
    import ray

    return pa.concat_tables([t for t in ray.get(ds.to_arrow_refs())
                             if t.num_rows])


def _run(left_t, right_t, n_parts):
    return _collect(co_attach(rd.from_arrow(left_t).repartition(3),
                              rd.from_arrow(right_t).repartition(2),
                              _attach_v(_pow2(n_parts)), left_key="k",
                              right_key="rk", n_parts=n_parts,
                              left_schema=_L_SCHEMA,
                              right_schema=_R_SCHEMA))


@pytest.mark.parametrize("n_parts", [1, 6, 64])
def test_co_attach_equals_join_oracle(ray_session, n_parts):
    left, right = _sides()
    out = _run(left, right, n_parts)
    assert set(pc.unique(out.column("n_parts_seen")).to_pylist()) == {1}
    got = out.filter(pc.greater_equal(out.column("rid"), 0))
    assert (got.select(["rid", "rk", "v"]).sort_by("rid").to_pylist()
            == _oracle(left, right))
    # right keys are even: with ≥ 2 partitions the odd ones hold left
    # rows only and still get one call each, with an empty right side
    mask = _pow2(n_parts) - 1
    left_only = (set(np.asarray(left.column("k")) & mask)
                 - set(np.asarray(right.column("rk")) & mask))
    assert (len(left_only) > 0) == (n_parts > 1)
    marks = out.filter(pc.less(out.column("rid"), 0))
    assert marks.num_rows == len(left_only)
    assert all(n > 0 for n in marks.column("n_left").to_pylist())


@pytest.mark.parametrize("empty", ["left", "right"])
def test_co_attach_empty_side(ray_session, empty):
    left, right = _sides(1)
    if empty == "left":
        left = left.slice(0, 0)
    else:
        right = right.slice(0, 0)
    out = _run(left, right, 8)
    got = out.filter(pc.greater_equal(out.column("rid"), 0))
    assert (got.select(["rid", "rk", "v"]).sort_by("rid").to_pylist()
            == _oracle(left, right))
    if empty == "left":
        assert got.num_rows == right.num_rows and got.column("v").null_count == got.num_rows
    else:
        assert got.num_rows == 0


def test_co_attach_sides_share_one_schema(ray_session, monkeypatch):
    """Both tagged sides reach the shuffle with one schema: every block
    of the union co_attach repartitions has the same columns and types,
    even though the sides' payload columns differ."""
    from ray.data import Dataset

    seen = []
    original = Dataset.repartition

    def spy(self, *args, **kwargs):
        mat = self.materialize()
        seen.extend(t.schema for t in ray_session.get(mat.to_arrow_refs())
                    if t.num_rows)
        return original(mat, *args, **kwargs)

    monkeypatch.setattr(Dataset, "repartition", spy)
    left, right = _sides(2)
    co_attach(rd.from_arrow(left), rd.from_arrow(right),
              lambda lt, rt: pa.table({"n": [rt.num_rows]}),
              left_key="k", right_key="rk", n_parts=4,
              left_schema=_L_SCHEMA, right_schema=_R_SCHEMA).materialize()
    assert len(seen) >= 2
    assert all(s == seen[0] for s in seen)
    assert "junk" not in seen[0].names  # only the declared columns ride


def test_co_attach_same_name_other_type_is_kept_apart(ray_session):
    """A right column named like a left column but of another type is
    carried separately, and each side gets its own values back."""
    left = pa.table({"k": pa.array([1, 2], pa.int64()),
                     "x": pa.array(["a", "b"])})
    right = pa.table({"rk": pa.array([2, 1], pa.int64()),
                      "x": pa.array([20.0, 10.0])})

    def fn(lt, rt):
        pos = np.searchsorted(np.asarray(lt.column("k")),
                              np.asarray(rt.column("rk")))
        return pa.table({"x_left": lt.column("x").take(pa.array(pos)),
                         "x_right": rt.column("x")})

    out = co_attach(rd.from_arrow(left), rd.from_arrow(right), fn,
                    left_key="k", right_key="rk", n_parts=1,
                    left_schema=[("k", pa.int64()), ("x", pa.string())],
                    right_schema=[("rk", pa.int64()), ("x", pa.float64())])
    assert sorted(_collect(out).to_pylist(), key=lambda r: r["x_right"]) == [
        {"x_left": "a", "x_right": 10.0}, {"x_left": "b", "x_right": 20.0}]


def test_co_attach_key_must_be_int64():
    with pytest.raises(ValueError, match="int64"):
        co_attach(None, None, None, left_key="k", right_key="rk", n_parts=4,
                  left_schema=[("k", pa.int32())], right_schema=_R_SCHEMA)


def _chain(node):
    """Method names along a call chain, outermost first:
    ``x.union(y).repartition(n).groupby("part")`` →
    [("groupby", call), ("repartition", call), ("union", call)], plus
    the base expression."""
    out = []
    while isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        out.append((node.func.attr, node))
        node = node.func.value
    return out, node


#: the one map_groups outside fold.py: the k-means fold groups on k
#: clusters, not on a partition of the key space
_OWN_MAP_GROUPS = {("similarity.py", "kmeans_fit")}
#: partition columns of hand-rolled exchanges that partition_map owns
_PART_COLS = {"part", "_b", "_aj_part"}


def _map_groups_calls(tree):
    """(enclosing top-level name, line) of every ``.map_groups(...)``
    call in a module."""
    return [(getattr(top, "name", None), node.lineno) for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "map_groups"]


def _exchange_offenders(functions_dir):
    """Hand-rolled partitioned exchanges in the functions modules other
    than fold.py:

    * a ``.union(...)`` whose result (directly or through a local name)
      goes through ``[.repartition(...)].groupby("part")``, or a private
      ``_split`` of a tagged union (co_attach's shape);
    * a ``.repartition(...)`` chained into ``.groupby(...)``, directly
      or through a local name, or a ``groupby`` on ``"part"``, ``"_b"``
      or ``"_aj_part"`` (partition_map's and exchange's shape);
    * any ``.map_groups(...)`` but the ones named in
      :data:`_OWN_MAP_GROUPS` (by module and top-level function)."""
    offenders = []
    for fname in sorted(os.listdir(functions_dir)):
        if not fname.endswith(".py") or fname == "fold.py":
            continue
        with open(os.path.join(functions_dir, fname)) as f:
            tree = ast.parse(f.read())
        # local names bound to a union's / a repartition's result
        unioned, repartitioned = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                methods = [m for m, _ in _chain(node.value)[0]]
                names = {t.id for t in node.targets
                         if isinstance(t, ast.Name)}
                if "union" in methods:
                    unioned |= names
                if methods[:1] == ["repartition"]:
                    repartitioned |= names
        offenders += [f"{fname}:{line} map_groups"
                      for owner, line in _map_groups_calls(tree)
                      if (fname, owner) not in _OWN_MAP_GROUPS]
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_split":
                offenders.append(f"{fname}:{node.lineno} _split")
            if not isinstance(node, ast.Call):
                continue
            chain, base = _chain(node)
            if not chain or chain[0][0] != "groupby":
                continue
            args = chain[0][1].args
            col = (args[0].value if args and isinstance(args[0], ast.Constant)
                   else None)
            rest = [m for m, _ in chain[1:]]
            name = base.id if not rest and isinstance(base, ast.Name) else None
            after = rest
            while after and after[0] == "repartition":
                after = after[1:]
            if col == "part" and ((after and after[0] == "union")
                                  or (not after and name in unioned)):
                offenders.append(f"{fname}:{node.lineno} union → groupby")
            if rest[:1] == ["repartition"] or name in repartitioned:
                offenders.append(f"{fname}:{node.lineno} repartition → groupby")
            if col in _PART_COLS:
                offenders.append(f"{fname}:{node.lineno} groupby({col!r})")
    return offenders


def test_co_partition_exchange_stays_in_fold():
    """No functions module but fold.py hand-rolls a partitioned
    exchange or a ``map_groups`` (the k-means fold aside): co_attach,
    partition_map and exchange own them, and fold.py's one
    ``map_groups`` is partition_map's."""
    offenders = _exchange_offenders(_FUNCTIONS)
    assert not offenders, offenders
    with open(os.path.join(_FUNCTIONS, "fold.py")) as f:
        owners = [o for o, _ in _map_groups_calls(ast.parse(f.read()))]
    assert owners == ["partition_map"], owners


# ------------------------------------------------------------- fold.join
#: Dataset.join's join types
_JOIN_TYPES = {"inner", "left_outer", "right_outer", "full_outer",
               "left_semi", "right_semi", "left_anti", "right_anti"}
_REPO = os.path.dirname(os.path.dirname(_FUNCTIONS))


def _join_calls(tree):
    """(line, what) of every keyed join that bypasses ``fold.join``: a
    ``Dataset.join`` call (a ``.join(`` whose second positional
    argument is a join-type string, or which passes ``join_type=`` or
    ``on=``; ``fold.join(...)`` aside) and any use of the name
    ``hash_join``."""
    out = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.alias,
                                                    ast.FunctionDef))
                else node.value if isinstance(node, ast.Constant)
                else None)
        if name == "hash_join":
            out.append((node.lineno if hasattr(node, "lineno") else 0,
                        "hash_join"))
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"):
            continue
        base = node.func.value
        if isinstance(base, ast.Name) and base.id == "fold":
            continue
        args, kws = node.args, {k.arg for k in node.keywords}
        if ((len(args) > 1 and isinstance(args[1], ast.Constant)
             and args[1].value in _JOIN_TYPES)
                or kws & {"join_type", "on"}):
            out.append((node.lineno, "Dataset.join"))
    return out


def _join_offenders(root):
    paths = [os.path.join(d, f)
             for d, _, fs in os.walk(os.path.join(root,
                                                  "presto_bloomfilter_ray"))
             for f in fs if f.endswith(".py")]
    offenders = []
    for path in sorted(paths) + [os.path.join(root, "__ray_entry__.py")]:
        with open(path) as f:
            tree = ast.parse(f.read())
        offenders += [f"{os.path.relpath(path, root)}:{line} {what}"
                      for line, what in _join_calls(tree)]
    return offenders


def test_keyed_joins_go_through_fold_join():
    """Neither the package nor the driver queries call Ray's native
    ``Dataset.join`` or name ``hash_join``: ``fold.join`` is the one
    keyed join."""
    offenders = _join_offenders(_REPO)
    assert not offenders, offenders


def test_join_guard_flags_native_joins():
    src = '''
ds.join(r, "inner", 4, on=("k",))
ds.join(r, join_type="left_outer", num_partitions=2)
ds.join(r, "left_outer", 8)
from presto_bloomfilter_ray.engine import hash_join
hash_join(a, b, "inner", 16, on=("k",))
", ".join(names)
os.path.join(a, b)
frame.join(other, left_on="k", right_on="k", how="left")
fold.join(a, b, on="k", how="inner", n_parts=4, broadcast_limit=0)
join(a, b, on="k", how="inner", n_parts=4, broadcast_limit=0)
'''
    assert [line for line, _ in _join_calls(ast.parse(src))] == [
        2, 3, 4, 5, 6]


_INT_L = pa.table({
    "k": pa.array([None, -5, -(2**62), 2**62, 0, 7, 7, 3, None, 11],
                  pa.int64()),
    "v": pa.array(range(10), pa.int64()),
    "s": pa.array([f"l{i}" for i in range(10)]),
})
_INT_R = pa.table({
    "rk": pa.array([7, 7, None, -(2**62), 2**62, 3, 99, -5, None, 2**62],
                   pa.int64()),
    "v": pa.array(range(100, 110), pa.int64()),
    "w": pa.array([None, "a", "b", "c", "d", "e", "f", "g", "h", "i"]),
})
_STR_L = pa.table({"w": pa.array(["x", "y", None, "x", "z", "", "q"]),
                   "n": pa.array(range(7), pa.int64())})
_STR_R = pa.table({"w": pa.array(["x", "x", None, "z", "", "m"]),
                   "n": pa.array(range(50, 56), pa.int32())})

#: case → (left, right, on, right_on)
_JOIN_CASES = {
    "int": (_INT_L, _INT_R, "k", "rk"),
    "str": (_STR_L, _STR_R, "w", None),
    "empty_left": (_INT_L.slice(0, 0), _INT_R, "k", "rk"),
    "empty_right": (_INT_L, _INT_R.slice(0, 0), "k", "rk"),
    "null_right_keys": (_INT_L, _INT_R.filter(pc.is_null(_INT_R["rk"])),
                        "k", "rk"),
}


def _join_oracle(left, right, on, right_on, how):
    """DuckDB's join of the two tables, in fold.join's column layout."""
    import duckdb

    right_on = right_on or on
    cols = [f'R."{c}" AS "{c}_r"' if c in left.column_names
            else f'R."{c}"' for c in right.column_names if c != right_on]
    con = duckdb.connect()
    con.register("L", left)
    con.register("R", right)
    kind = "JOIN" if how == "inner" else "LEFT JOIN"
    return con.execute(
        f'SELECT L.*, {", ".join(cols)} FROM L {kind} R '
        f'ON L."{on}" = R."{right_on}"').arrow().to_pylist()


def _blocks(t, n):
    return rd.from_arrow(t).repartition(n) if t.num_rows else rd.from_arrow(t)


def _rows_sorted(rows):
    return sorted(rows, key=lambda r: [(v is None, v if v is not None
                                        else 0) for v in r.values()])


@pytest.mark.parametrize("case", sorted(_JOIN_CASES))
@pytest.mark.parametrize("tier", ["broadcast", "shuffle_1", "shuffle_8"])
@pytest.mark.parametrize("how", ["inner", "left_outer"])
def test_join_equals_duckdb(ray_session, monkeypatch, case, tier, how):
    import ray

    left, right, on, right_on = _JOIN_CASES[case]
    if tier == "shuffle_8":  # a count-sized width of 8 partitions
        monkeypatch.setattr(fold, "ROWS_PER_PART", 2)
    # an empty table keeps its schema only unrepartitioned (Ray drops
    # the schema of an empty repartition)
    out = fold.join(_blocks(left, 2), _blocks(right, 3), on=on,
                    right_on=right_on, how=how, n_parts=8,
                    broadcast_limit=10**6 if tier == "broadcast" else 0)
    tables = [t for t in ray.get(out.to_arrow_refs()) if t.num_columns]
    got = [r for t in tables for r in t.to_pylist()]
    assert _rows_sorted(got) == _rows_sorted(
        _join_oracle(left, right, on, right_on, how))
    right_on = right_on or on
    want = pa.schema(list(left.schema) + [
        f.with_name(f"{f.name}_r" if f.name in left.column_names
                    else f.name)
        for f in right.schema if f.name != right_on])
    for t in tables:
        assert t.schema == want, (t.schema, want)


def test_join_broadcast_keeps_left_blocks_and_order(ray_session):
    import ray

    left = rd.from_arrow(_INT_L).repartition(3).materialize()
    out = fold.join(left, rd.from_arrow(_INT_R), on="k", right_on="rk",
                    how="left_outer", n_parts=8, broadcast_limit=10**6)
    tables = ray.get(out.to_arrow_refs())
    assert len(tables) == left.num_blocks()
    got = [r["v"] for t in tables for r in t.to_pylist()]
    assert got == sorted(got)  # left order, duplicates adjacent


@pytest.mark.parametrize("how", ["inner", "left_outer"])
def test_join_rejects_schemaless_empty_right(ray_session, how):
    """Ray drops the schema of an empty repartitioned table: the join
    cannot know the right's columns, so it raises instead of returning
    the left's columns only."""
    right = rd.from_arrow(_INT_R.slice(0, 0)).repartition(3)
    with pytest.raises(ValueError, match="right side"):
        fold.join(rd.from_arrow(_INT_L), right, on="k", right_on="rk",
                  how=how, n_parts=4, broadcast_limit=10**6)


def test_join_rejects_other_how(ray_session):
    with pytest.raises(ValueError, match="inner"):
        fold.join(rd.from_arrow(_INT_L), rd.from_arrow(_INT_R), on="k",
                  right_on="rk", how="semi", n_parts=4, broadcast_limit=0)

"""As-of join tiers against a brute-force oracle: the broadcast
``asof_join`` and the co-partitioned ``asof_join_bucketed`` (1 and 8
partitions) run one kernel, so they return the same rows, and each
row is the latest (backward) or next (forward) right row of its key.

Right values are a function of ``(key, ts)``, so rows tied on both
carry equal values and every tier's answer is unique; the broadcast
tier's ``rid`` also shows which tied row it took (the last in the
right side's order going backward, the first going forward)."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

_CASES = ["string_keys_with_nulls", "int64_keys_above_2_53", "ties",
          "empty_right", "left_block_in_ms"]
_BIG = 1 << 53


def _inputs(case, rng):
    """(left blocks, right table) for one case; left rows carry a
    unique ``row`` id."""
    n_l, n_r = 150, 60
    if case == "string_keys_with_nulls":
        pool = np.array(["alpha", "b", "cc", "ddd", "zz"], dtype=object)
        lk, rk = pool[rng.integers(0, 5, n_l)], pool[rng.integers(0, 4, n_r)]
        lk[rng.random(n_l) < 0.1] = None
        rk[rng.random(n_r) < 0.1] = None  # a NULL right key matches nothing
        ktype = pa.string()
    else:
        # adjacent keys above 2^53 that a float64 would merge
        pool = np.array([_BIG + 1, _BIG + 2, _BIG + 3, -_BIG - 1, 7],
                        dtype=np.int64)
        lk, rk = pool[rng.integers(0, 5, n_l)], pool[rng.integers(0, 4, n_r)]
        ktype = pa.int64()
    span = 40 if case == "ties" else 10_000  # few timestamps: many ties
    lts = rng.integers(0, span, n_l) * 1_000_000
    rts = rng.integers(0, span, n_r) * 1_000_000
    if case == "empty_right":
        rk, rts = rk[:0], rts[:0]
    ties = {}  # one value per (key, ts): tied rows agree
    right = pa.table({
        "k": pa.array(list(rk), ktype),
        "ts": pa.array(rts, pa.timestamp("us")),
        "v": pa.array([ties.setdefault((k, int(t)), len(ties))
                       for k, t in zip(list(rk), rts)], pa.int64()),
        "rid": pa.array(np.arange(len(rk)), pa.int64()),
    })
    left = pa.table({"k": pa.array(list(lk), ktype),
                     "ts": pa.array(lts, pa.timestamp("us")),
                     "row": pa.array(np.arange(n_l), pa.int64())})
    blocks = [left.slice(0, 70), left.slice(70)]
    if case == "left_block_in_ms":
        blocks[1] = blocks[1].set_column(1, "ts", blocks[1].column("ts")
                                         .cast(pa.timestamp("ms")))
    return blocks, right


def _oracle(left, right, direction):
    """Per left row: (matched right ts in µs or None, value or None,
    the rids tied at that ts)."""
    rk = right.column("k").to_pylist()
    rts = right.column("ts").cast(pa.int64()).to_pylist()
    rv = right.column("v").to_pylist()
    out = {}
    for k, t, row in zip(left.column("k").to_pylist(),
                         left.column("ts").cast(pa.int64()).to_pylist(),
                         left.column("row").to_pylist()):
        cand = [j for j in range(len(rk)) if k is not None and rk[j] == k
                and (rts[j] <= t if direction == "backward" else rts[j] >= t)]
        if not cand:
            out[row] = (None, None, [])
            continue
        best = (max if direction == "backward" else min)(rts[j] for j in cand)
        tied = [j for j in cand if rts[j] == best]
        assert len({rv[j] for j in tied}) == 1
        out[row] = (best, rv[tied[0]], tied)
    return out


def _rows(ds):
    df = ds.to_pandas().sort_values("row").reset_index(drop=True)
    ts_r = [None if pd.isna(x) else int(pd.Timestamp(x).value // 1000)
            for x in df["ts_r"]]
    v_r = [None if pd.isna(x) else int(x) for x in df["v_r"]]
    return list(zip(df["row"].tolist(), ts_r, v_r)), df


@pytest.mark.parametrize("direction", ["backward", "forward"])
@pytest.mark.parametrize("case", _CASES)
def test_asof_tiers_match_brute_force(ray_session, case, direction):
    import ray.data as rd

    from presto_bloomfilter_ray.functions import asof_join, asof_join_bucketed

    blocks, right = _inputs(case, np.random.default_rng(_CASES.index(case)))
    left_ds = rd.from_arrow(blocks)
    want = _oracle(pa.concat_tables([b.cast(blocks[0].schema) for b in blocks]),
                   right, direction)
    expect = [(row, t, v) for row, (t, v, _) in sorted(want.items())]
    if case != "empty_right":
        assert any(t is not None for _, t, _ in expect)

    bcast, df = _rows(asof_join(left_ds, right.to_pandas(), key="k", ts="ts",
                                value_cols=["v", "rid"], direction=direction))
    assert bcast == expect
    # among tied right rows the broadcast tier takes the last (backward)
    # or the first (forward) in the right side's order
    for row, rid in zip(df["row"], df["rid_r"]):
        tied = want[row][2]
        if tied:
            assert int(rid) == (tied[-1] if direction == "backward" else tied[0])

    for n_buckets in (1, 8):
        got, _ = _rows(asof_join_bucketed(
            left_ds, rd.from_arrow(right), key="k", ts="ts",
            value_cols=["v"], direction=direction, n_buckets=n_buckets))
        assert got == bcast, n_buckets

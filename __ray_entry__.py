"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: no
``ray.init`` / ``ray.shutdown`` anywhere in the import chain or the
callables. Each ``queries()[name](sf_dir)`` is compared against
``oracle_sql()[name]`` via DuckDB at sf=0.01 (row count + schema +
order-insensitive value hash); estimate-style sketch queries omit the
oracle on purpose (the driver then records a rows-only check and the
pytest suite asserts the published error bounds instead).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _rd():
    import ray.data as rd

    return rd


def _add_cents(col: str, out: str = "_cents", scale: float = 100.0):
    """Money columns have fixed 2dp precision: summing them as scaled
    int64 is exact and associative, so distributed combine order can
    never land a cent away from the SQL oracle's sum (the matching
    oracle side is ``sum(CAST(round(col * 100) AS BIGINT)) / 100.0``)."""

    def add(b: pa.Table) -> pa.Table:
        return b.append_column(out, pc.round(
            pc.multiply(b[col], pa.scalar(scale))).cast(pa.int64()))

    return add


def _read(sf_dir: str, table: str, columns=None):
    return _rd().read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


#: right-side rows up to which the join queries broadcast (the
#: package's default tier limit)
_JOIN_BROADCAST_LIMIT = 2_000_000


# --------------------------------------------------------------------- bloom
def _bloom_semijoin_nation(sf_dir: str):
    """Reference e2e conformance query (run_tests.sh:123): build a Bloom
    filter over a 3-name dim subset, semi-join nation against it."""
    from presto_bloomfilter_ray import BloomFilter
    from presto_bloomfilter_ray.engine import build_sketch, semi_join

    nation = _read(sf_dir, "nation")
    build_side = nation.filter(expr="n_regionkey == 1")
    bf = build_sketch(build_side, "n_name", lambda: BloomFilter(1000, 1e-9))
    return (
        semi_join(nation, "n_name", bf)
        .select_columns(["n_nationkey", "n_name"])
    )


def _bloom_semijoin_orders(sf_dir: str):
    """customers ⋈ orders rewrite from the reference README (README.md:6-38):
    bloom over the small side's keys, probe the fact table, aggregate."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray import BloomFilter
    from presto_bloomfilter_ray.engine import build_sketch, semi_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    build_side = cust.filter(expr="c_nationkey == 5")
    bf = build_sketch(build_side, "c_custkey", lambda: BloomFilter(100_000, 1e-9), batch_size=100_000)
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderstatus", "o_totalprice"])
    probed = semi_join(orders, "o_custkey", bf).map_batches(
        _add_cents("o_totalprice"), batch_format="pyarrow")
    agg = probed.groupby("o_orderstatus").aggregate(
        Count(alias_name="n_orders"), Sum("_cents", alias_name="_tp")
    )
    df = agg.to_pandas()
    df["total_price"] = (df["_tp"] / 100.0).round(2)
    return df[["o_orderstatus", "n_orders", "total_price"]]


def _bloom_antijoin_customer(sf_dir: str):
    """Anti-join via Bloom: customers with no orders. Bloom 'false' is a
    definite negative, so the kept side is exact up to FPP (p=1e-9)."""
    from presto_bloomfilter_ray import BloomFilter
    from presto_bloomfilter_ray.engine import build_sketch, semi_join

    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    bf = build_sketch(orders, "o_custkey", lambda: BloomFilter(250_000, 1e-9), batch_size=65_536)
    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    kept = semi_join(cust, "c_custkey", bf, anti=True)
    return pd.DataFrame({"n_no_orders": [kept.count()]})


def _cbf_delete_semijoin(sf_dir: str):
    """Counting-Bloom deletion as a distributed operation. The
    reference's filter is insert-only — retracting keys means rebuilding
    and re-persisting the whole filter (the persist-service round-trip,
    ``run_tests.sh:123-125``). With counters, retraction is itself
    UDAF-shaped: build the base filter over two nations' customers with
    the normal map/combine pipeline, build a SECOND filter over the
    nation to retract (same (n,p) → same positions), subtract
    counter-wise once on the driver, and semi-join orders against the
    result. p=1e-9 and disjoint nation memberships make the outcome
    exactly the nation-5-only semijoin (asserted via underflows == 0)."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.engine import build_sketch, semi_join
    from presto_bloomfilter_ray.sketches import CountingBloomFilter

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    factory = lambda: CountingBloomFilter(100_000, 1e-9)
    keep = build_sketch(cust.filter(expr="c_nationkey == 5"), "c_custkey",
                        factory, batch_size=100_000)
    drop = build_sketch(cust.filter(expr="c_nationkey == 10"), "c_custkey",
                        factory, batch_size=100_000)
    cbf = keep.merge(drop).subtract(drop)
    assert cbf.underflows == 0 and cbf.stuck == 0
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderstatus", "o_totalprice"])
    probed = semi_join(orders, "o_custkey", cbf).map_batches(
        _add_cents("o_totalprice"), batch_format="pyarrow")
    agg = probed.groupby("o_orderstatus").aggregate(
        Count(alias_name="n_orders"), Sum("_cents", alias_name="_tp")
    )
    df = agg.to_pandas()
    df["total_price"] = (df["_tp"] / 100.0).round(2)
    return df[["o_orderstatus", "n_orders", "total_price"]]


def _cuckoo_retract_semijoin(sf_dir: str):
    """The CBF retraction query re-expressed on the cuckoo filter
    (sketches/cuckoo.py — Fan et al. 2014): same deletion-without-
    rebuild capability the reference's insert-only filter lacks, at a
    fraction of the counting filter's 16-bit-per-position cost. The
    base filter is built DISTRIBUTED over two nations' customers
    (cuckoo merge re-inserts (bucket, fp) slots, membership is
    merge-tree-invariant); the retract side's keys — the small side,
    broadcast-scale by construction — are removed driver-side with
    ``remove_arrow``. fp_bits=32 puts the FPP at 1.9e-9, so the
    surviving semijoin is exactly the nation-5-only oracle; cuckoo
    stores items (not bits), so the retained element count is asserted
    EXACTLY, not estimated."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.engine import build_sketch, semi_join
    from presto_bloomfilter_ray.sketches import CuckooFilter

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    both = cust.filter(expr="c_nationkey == 5").union(
        cust.filter(expr="c_nationkey == 10"))
    cf = build_sketch(both, "c_custkey", lambda: CuckooFilter(100_000, fp_bits=32),
                      batch_size=100_000)
    drop_keys = cust.filter(expr="c_nationkey == 10").select_columns(
        ["c_custkey"]).to_pandas()["c_custkey"]
    cf.remove_arrow(pa.array(drop_keys))
    keep_n = cust.filter(expr="c_nationkey == 5").count()
    assert cf.underflows == 0 and cf.approx_element_count() == keep_n
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderstatus", "o_totalprice"])
    probed = semi_join(orders, "o_custkey", cf).map_batches(
        _add_cents("o_totalprice"), batch_format="pyarrow")
    agg = probed.groupby("o_orderstatus").aggregate(
        Count(alias_name="n_orders"), Sum("_cents", alias_name="_tp")
    )
    df = agg.to_pandas()
    df["total_price"] = (df["_tp"] / 100.0).round(2)
    return df[["o_orderstatus", "n_orders", "total_price"]]


def _ams_f2_events(sf_dir: str):
    """Second frequency moment of the per-user event distribution via
    the AMS/count sketch (sketches/ams.py) — distributed build through
    the same map-partials → combine-tree path as every other sketch —
    alongside the EXACT F2 (groupby count + sum of squares, fully
    distributed). Completes the frequency-moment family: F0=HLL,
    F1=count, F2=AMS, heavy hitters=CM/Misra–Gries."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.engine import build_sketch
    from presto_bloomfilter_ray.sketches import AMSSketch

    ev = _read(sf_dir, "events", columns=["user_id"])
    sk = build_sketch(ev, "user_id", lambda: AMSSketch(2048, 5), batch_size=None)
    counts = ev.groupby("user_id").aggregate(Count(alias_name="c"))

    def sq(b: pa.Table) -> pa.Table:
        c = b.column("c").cast(pa.int64())
        return pa.table({"c2": pc.multiply(c, c)})

    f2_exact = int(counts.map_batches(sq, batch_format="pyarrow").sum("c2"))
    rel = abs(sk.estimate_f2() - f2_exact) / max(f2_exact, 1)
    ok = bool(rel <= 3 * sk.relative_error_bound())
    return pd.DataFrame({"f2_exact": [f2_exact], "ams_within_bound": [ok]})


def _fd_embedding_spectrum(sf_dir: str):
    """Frequent-Directions sketch (sketches/fd.py) over the embeddings
    table: the corpus's covariance spectrum without materializing the
    (n × d) matrix. Built distributed via build_sketch on the
    list<float> column; validated against the EXACT Gram matrix
    (one (d × d) partial per batch, summed on the driver — d=64, so
    each partial is 32 KB regardless of corpus size). ‖A‖_F² is
    tracked exactly (additive scalar) and the top eigenvalue must sit
    within the published 2‖A‖_F²/ℓ spectral bound (Weyl)."""
    import numpy as np

    from presto_bloomfilter_ray.engine import build_sketch
    from presto_bloomfilter_ray.sketches import FrequentDirections
    from presto_bloomfilter_ray.sketches.fd import rows_from_arrow

    emb = _read(sf_dir, "embeddings", columns=["embedding"])
    fd = build_sketch(emb, "embedding",
                      lambda: FrequentDirections(ell=64, dim=64),
                      batch_size=None)

    def gram_partial(b: pa.Table) -> pa.Table:
        rows = rows_from_arrow(b.column("embedding"), 64)
        g = rows.T @ rows
        return pa.table({"g": pa.array([g.ravel().tolist()],
                                       type=pa.list_(pa.float64()))})

    parts = emb.map_batches(gram_partial, batch_format="pyarrow").take_all()
    gram = np.sum([np.asarray(r["g"]).reshape(64, 64) for r in parts], axis=0)
    top_exact = float(np.linalg.eigvalsh(gram)[-1])
    top_fd = float(fd.cov_eigvals()[0])
    ok = bool(abs(top_fd - top_exact) <= fd.error_bound())
    return pd.DataFrame({
        "frobenius_sq": [round(fd.frobenius_sq(), 3)],
        "fd_within_bound": [ok],
    })


def _priority_sample_orders(sf_dir: str):
    """Weighted (priority) sampling as a mergeable sketch
    (sketches/priority.py): keep k orders biased by price, estimate any
    subset's total price from the sample via the Horvitz–Thompson
    max(w, τ) weights. Built distributed through build_sketch on a
    struct<item, weight> column; validated against the EXACT subset
    weight (odd order keys) computed distributed with scaled-int sums."""
    from presto_bloomfilter_ray.engine import build_sketch
    from presto_bloomfilter_ray.sketches import PrioritySample

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def add_struct(b: pa.Table) -> pa.Table:
        item = b.column("o_orderkey").cast(pa.large_string()).combine_chunks()
        s = pa.StructArray.from_arrays(
            [item, b.column("o_totalprice").combine_chunks()],
            names=["item", "weight"])
        return pa.table({"iw": s})

    sk = build_sketch(orders.map_batches(add_struct, batch_format="pyarrow"),
                      "iw", lambda: PrioritySample(k=4096), batch_size=None)
    cents = orders.map_batches(_add_cents("o_totalprice"), batch_format="pyarrow")

    def odd_cents(b: pa.Table) -> pa.Table:
        odd = pc.equal(pc.bit_wise_and(b.column("o_orderkey"), pa.scalar(1)), 1)
        return pa.table({"c": pc.if_else(odd, b.column("_cents"), pa.scalar(0, pa.int64()))})

    odd_exact = int(cents.map_batches(odd_cents, batch_format="pyarrow").sum("c")) / 100.0
    total_exact = int(cents.sum("_cents")) / 100.0
    est = sk.estimate_subset(lambda v: int(v) % 2 == 1)
    ok = bool(abs(est - odd_exact) / max(odd_exact, 1.0) <= 0.15)
    return pd.DataFrame({
        "total_price_exact": [round(total_exact, 2)],
        "priority_est_within_tol": [ok],
    })


def _bloom_params(sf_dir: str):
    """Parameter introspection goldens (TestBloomFilterQueries.java:64-74)."""
    from presto_bloomfilter_ray import BloomFilter
    from presto_bloomfilter_ray.engine import (
        from_base64,
        get_expected_insertions,
        get_false_positive_percentage,
        to_base64,
    )

    bf = BloomFilter(10, 0.1234)
    rt = from_base64(to_base64(bf))  # to_string → from_string round-trip
    return pd.DataFrame({
        "expected_insertions": [get_expected_insertions(rt.serialize())],
        "fpp": [get_false_positive_percentage(rt.serialize())],
    })


def _bloom_persist_load(sf_dir: str):
    """Reference e2e persist/load conformance (run_tests.sh:124-125):
    build a filter, persist it to the store, load it back, semi-join —
    same result as building fresh."""
    from presto_bloomfilter_ray import BloomFilter
    from presto_bloomfilter_ray.engine import SketchStore, build_sketch, semi_join

    nation = _read(sf_dir, "nation")
    bf = build_sketch(nation.filter(expr="n_regionkey == 1"), "n_name",
                      lambda: BloomFilter(1000, 1e-9))
    store = SketchStore("/tmp/sketch-store-queries-kv")
    persisted = store.persist(bf, "queries/region1-names")
    loaded = store.load("queries/region1-names")
    out = semi_join(nation, "n_name", loaded).select_columns(
        ["n_nationkey", "n_name"]).to_pandas()
    out["persisted"] = bool(persisted)
    return out.sort_values("n_nationkey").reset_index(drop=True)


def _bloom_from_string_merge(sf_dir: str):
    """Reference A6 ``bloom_filter_from_string`` as an aggregation
    (BloomFilterFromString.java:30-38): serialize one base64 filter per
    region, merge the COLUMN of serialized filters distributed, and
    semi-join nation against the union — equivalent to no filter at all
    (every region's names are in the union; no false negatives)."""
    from presto_bloomfilter_ray import BloomFilter
    from presto_bloomfilter_ray.engine import (
        build_sketch,
        from_base64,
        merge_serialized_column,
        semi_join,
        to_base64,
    )

    nation = _read(sf_dir, "nation")
    strings = []
    for rk in range(5):
        bf = build_sketch(nation.filter(expr=f"n_regionkey == {rk}"), "n_name",
                          lambda: BloomFilter(1000, 1e-9))
        strings.append(to_base64(bf))
    sk_ds = _rd().from_items(
        [{"sketch": from_base64(s).serialize()} for s in strings])
    merged = merge_serialized_column(sk_ds)
    out = semi_join(nation, "n_name", merged).select_columns(
        ["n_nationkey", "n_name"])
    return out


def _grouped_bloom_membership(sf_dir: str):
    """Grouped aggregation contract: per-region Bloom over n_name; every
    nation must test positive against its own region's filter (no false
    negatives — the deterministic half of the contract)."""
    from presto_bloomfilter_ray import BloomFilter, deserialize
    from presto_bloomfilter_ray.engine import grouped_sketch

    nation = _read(sf_dir, "nation")
    g = grouped_sketch(nation, key="n_regionkey", col="n_name",
                       factory=lambda: BloomFilter(1000, 1e-9))
    filters = {r["n_regionkey"]: deserialize(r["sketch"]) for r in g.take_all()}
    rows = nation.select_columns(["n_nationkey", "n_name", "n_regionkey"]).take_all()
    return pd.DataFrame({
        "n_nationkey": [r["n_nationkey"] for r in rows],
        "contained": [bool(filters[r["n_regionkey"]].might_contain(r["n_name"])) for r in rows],
    }).sort_values("n_nationkey").reset_index(drop=True)


# ---------------------------------------------------------------- relational
def _scalable_bloom_ingest(sf_dir: str):
    """Scalable Bloom filter (Almeida et al. 2007; sketches/scalable.py)
    — the reference's Bloom semantics without a known n: geometric
    stage growth with tightening per-stage error, built through the
    SAME map_batches-partials + merge-tree path as the plain filter
    (same-index stage OR is associative). Deterministic checks: exact
    key count (SQL), zero false negatives on a full semi-join probe
    (structural Bloom guarantee), measured FPP on disjoint probes
    within the achieved bit-density estimate + binomial slack, and the
    filter actually grew past stage 0."""
    from presto_bloomfilter_ray import ScalableBloomFilter
    from presto_bloomfilter_ray.engine import build_sketch, semi_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey"])
    sbf = build_sketch(orders, "o_orderkey",
                       lambda: ScalableBloomFilter(64, 0.02),
                       batch_size=4096)
    n_keys = orders.count()
    no_fn = semi_join(orders, "o_orderkey", sbf).count() == n_keys
    probes = 50_000
    disjoint = pa.array([f"zz-{i}" for i in range(probes)])
    fp = float(sbf.contains_many(disjoint).sum()) / probes
    est = sbf.get_false_positive_percentage()
    fpp_ok = fp <= est + 4 * (max(est, 1e-4) / probes) ** 0.5 + 0.005
    return pd.DataFrame({
        "n_keys": [int(n_keys)],
        "no_false_negatives": [bool(no_fn)],
        "fpp_within_estimate": [bool(fpp_ok)],
        "grew_stages": [bool(sbf.n_stages >= 2)],
    })


def _iblt_reconcile_custkeys(sf_dir: str):
    """Set reconciliation via IBLT (Goodrich–Mitzenmacher;
    sketches/iblt.py): two snapshots of the customer key set — all
    customers vs. customers outside nation 3 — are each summarized by
    a map_batches-partials + merge-tree IBLT build (24 B/cell, NEVER
    shuffling the keys), subtracted on the driver so shared keys cancel
    exactly, and peeled to recover the symmetric difference's actual
    fingerprints; a final broadcast map pass binds fingerprints back to
    key values. Output is the EXACT key list — the oracle is a plain
    WHERE clause, not a TRUE-flag check."""
    from presto_bloomfilter_ray.engine import build_sketch
    from presto_bloomfilter_ray.sketches import IBLT

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    snap_a = build_sketch(cust, "c_custkey", lambda: IBLT(4096),
                          batch_size=65_536)
    snap_b = build_sketch(cust.filter(expr="c_nationkey != 3"), "c_custkey",
                          lambda: IBLT(4096), batch_size=65_536)
    a_only, b_only, ok = snap_a.subtract(snap_b).decode()
    if not ok or b_only.size:
        raise RuntimeError("IBLT decode failed — diff exceeds cell budget")
    fps = np.sort(a_only)

    def probe(b: pa.Table) -> pa.Table:
        hit = np.isin(IBLT.fingerprints(b.column("c_custkey")), fps)
        return b.select(["c_custkey"]).filter(pa.array(hit))

    out = cust.map_batches(probe, batch_format="pyarrow", batch_size=None)
    return out.to_pandas().sort_values("c_custkey").reset_index(drop=True)


def _q1_lineitem(sf_dir: str):
    """TPC-H Q1 shape. The shipdate predicate is pushed INTO the read
    (pyarrow dataset expression → row-group pruning + per-fragment
    filtering), so filtered rows never leave the scan."""
    from ray.data.aggregate import Count, Mean, Sum

    li = _rd().read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount"],
        filter=(pc.field("l_shipdate") <= pd.Timestamp("1998-09-02")),
    )

    def prep(b: pa.Table) -> pa.Table:
        # money columns carry fixed decimal precision (2dp price, 2dp
        # discount ⇒ 4dp product): summing them as SCALED INTEGERS is
        # exact and ASSOCIATIVE, so the distributed combine order can
        # never straddle a rounding boundary the SQL oracle lands on
        # differently (observed: one cent off at sf0.001)
        disc = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        b = b.append_column("_sbp_c", pc.round(pc.multiply(
            b["l_extendedprice"], pa.scalar(100.0))).cast(pa.int64()))
        return b.append_column("_sdp_c", pc.round(pc.multiply(
            disc, pa.scalar(10_000.0))).cast(pa.int64()))

    agg = (
        li.map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("_sbp_c", alias_name="_sbp"),
            Sum("_sdp_c", alias_name="_sdp"),
            Mean("l_quantity", alias_name="_aq"),
            Count(alias_name="n_rows"),
        )
    )
    df = agg.to_pandas()
    df["sum_qty"] = df["sum_qty"].round(2)
    df["sum_base_price"] = (df["_sbp"] / 100.0).round(2)
    # half-cent ties (sum ends in ...50 of the 1e-4 scale) round
    # half-UP in integer space — float round() would banker's-round
    # while SQL rounds away from zero
    df["sum_disc_price"] = ((df["_sdp"] + 50) // 100) / 100.0
    df["avg_qty"] = df["_aq"].round(4)
    return df[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
               "sum_disc_price", "avg_qty", "n_rows"]]


def _events_hourly(sf_dir: str):
    """Tumbling 1h windows via the windows operator (dogfooded)."""
    from presto_bloomfilter_ray.functions import tumbling_aggregate

    ev = _read(sf_dir, "events", columns=["ts", "event_type", "value"])
    agg = tumbling_aggregate(ev, "ts", ["event_type"], size_s=3600,
                             value_col="value")
    df = agg.to_pandas().rename(columns={"window_start": "hour"})
    df["sum_value"] = df["sum_value"].round(4)
    df["hour"] = df["hour"].astype("datetime64[us]")  # oracle emits us
    return df[["event_type", "hour", "n_events", "sum_value"]]


def _zscore_totalprice_by_status(sf_dir: str):
    """Group-wise standardization (functions/features.py
    standardize_by_key): per-status moments fold as exact scaled-int
    sums, z derived in one fixed expression order — the SQL mirror
    recomputes the identical expression from the identical int sums,
    so per-row z values match bit-for-bit. Folded per status with
    z·1e6 int sums (associative-exact)."""
    from ray.data.aggregate import Count, Max, Min, Sum

    from presto_bloomfilter_ray.functions import standardize_by_key

    orders = _read(sf_dir, "orders", columns=["o_orderstatus", "o_totalprice"])
    zd = standardize_by_key(orders, "o_orderstatus", "o_totalprice")

    def fold_cols(b: pa.Table) -> pa.Table:
        zmicro = pc.round(pc.multiply(b["z"], pa.scalar(1e6))).cast(pa.int64())
        outlier = pc.cast(pc.greater(pc.abs(b["z"]), pa.scalar(2.0)),
                          pa.int64())
        return pa.table({"o_orderstatus": b["o_orderstatus"],
                         "z": b["z"], "z_micro": zmicro,
                         "outlier": outlier})

    agg = (zd.map_batches(fold_cols, batch_format="pyarrow")
           .groupby("o_orderstatus")
           .aggregate(Count(alias_name="n"),
                      Sum("z_micro", alias_name="z_micro_sum"),
                      Min("z", alias_name="min_z"),
                      Max("z", alias_name="max_z"),
                      Sum("outlier", alias_name="n_outliers")))
    return agg


def _mad_outliers_by_status(sf_dir: str):
    """Robust per-status outlier counts via median absolute deviation
    (functions/features.py mad_outliers_by_key): exact interpolated
    medians — numpy and DuckDB median() compute the identical double —
    and the |v-med| > 3·MAD rule evaluated unrounded on both engines."""
    from presto_bloomfilter_ray.functions import mad_outliers_by_key

    orders = _read(sf_dir, "orders", columns=["o_orderstatus", "o_totalprice"])
    out = mad_outliers_by_key(orders, "o_orderstatus", "o_totalprice",
                              k=3.0).to_pandas()
    return out.sort_values("o_orderstatus").reset_index(drop=True)


def _ntile_quartiles_by_status(sf_dir: str):
    """Exact NTILE(4) bucketing per status (functions/features.py
    ntile_by_key — SQL NTILE size semantics, ties made deterministic
    by orderkey), folded to per-(status, quartile) count + cents-exact
    sum. The oracle is DuckDB's own NTILE over the same ordering."""
    from ray.data.aggregate import Count, Max, Min, Sum

    from presto_bloomfilter_ray.functions import ntile_by_key

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderstatus", "o_totalprice"])
    tiled = ntile_by_key(orders, "o_orderstatus", "o_totalprice", 4,
                         order_cols=["o_orderkey"])
    agg = (tiled.map_batches(_add_cents("o_totalprice"),
                             batch_format="pyarrow")
           .groupby(["o_orderstatus", "tile"])
           .aggregate(Count(alias_name="n"),
                      Sum("_cents", alias_name="_tp"),
                      Min("o_totalprice", alias_name="min_price"),
                      Max("o_totalprice", alias_name="max_price")))
    df = agg.to_pandas()
    df["total_price"] = (df["_tp"] / 100.0).round(2)
    return df[["o_orderstatus", "tile", "n", "total_price",
               "min_price", "max_price"]]


def _embedding_dim_stats(sf_dir: str):
    """List-column explode with ordinals (functions/features.py
    explode_list — unnest WITH ORDINALITY) + per-dimension fold over
    the embedding vectors: count, min, max, and an exact scaled-int
    sum per dimension."""
    from ray.data.aggregate import Count, Max, Min, Sum

    from presto_bloomfilter_ray.functions import explode_list

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    flat = explode_list(emb, "embedding", keep_cols=["vec_id"])

    def add_micro(b: pa.Table) -> pa.Table:
        return b.append_column("v_micro", pc.round(
            pc.multiply(b["value"].cast(pa.float64()),
                        pa.scalar(1e6))).cast(pa.int64()))

    agg = (flat.map_batches(add_micro, batch_format="pyarrow")
           .groupby("pos")
           .aggregate(Count(alias_name="n"),
                      Sum("v_micro", alias_name="v_micro_sum"),
                      Min("v_micro", alias_name="v_micro_min"),
                      Max("v_micro", alias_name="v_micro_max")))
    return agg


def _global_sort_orders(sf_dir: str):
    """True global sort (the range-partitioned all-to-all ds.sort
    operator, not a per-group sort): top-50 orders by totalprice with
    a deterministic tie-break."""
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_totalprice", "o_orderstatus"])
    top = (orders.sort(["o_totalprice", "o_orderkey"],
                       descending=[True, False])
           .limit(50))
    return top.to_pandas()


def _left_join_order_counts(sf_dir: str):
    """LEFT OUTER keyed join (functions/fold.py join, how
    'left_outer'): per-customer order counts INCLUDING zero-order
    customers, folded to a histogram of customers per order count."""
    from ray.data.aggregate import Count

    from presto_bloomfilter_ray.functions.fold import join

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderkey"])
    joined = join(cust, orders, on="c_custkey", right_on="o_custkey",
                  how="left_outer", n_parts=16,
                  broadcast_limit=_JOIN_BROADCAST_LIMIT)

    def per_cust(b: pa.Table) -> pa.Table:
        has = pc.is_valid(b.column("o_orderkey")).cast(pa.int64())
        return pa.table({"c_custkey": b.column("c_custkey"), "has": has})

    from ray.data.aggregate import Sum

    per = (joined.map_batches(per_cust, batch_format="pyarrow")
           .groupby("c_custkey").aggregate(Sum("has", alias_name="n_orders")))
    hist = per.groupby("n_orders").aggregate(Count(alias_name="n_customers"))
    return hist


def _three_way_split(sf_dir: str):
    """Deterministic train/val/test split via disjoint hash_sample
    bands (the mixture/stratified machinery's threshold hash used as
    a splitter): reproducible, repartition-stable, and SQL-exact —
    the oracle recomputes the identical multiplicative-hash bands."""
    from presto_bloomfilter_ray.functions.sampling import sample_mask

    docs = _read(sf_dir, "documents", columns=["doc_id", "lang"])

    def split(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column("doc_id"), dtype=np.uint64)
        in_train = sample_mask(ids, 0.8)
        in_trainval = sample_mask(ids, 0.9)
        part = np.where(in_train, "train",
                        np.where(in_trainval, "val", "test"))
        return pa.table({"lang": b.column("lang"),
                         "part": pa.array(part.tolist(), type=pa.string())})

    from ray.data.aggregate import Count

    agg = (docs.map_batches(split, batch_format="pyarrow")
           .groupby(["lang", "part"]).aggregate(Count(alias_name="n")))
    return agg


def _leakage_safe_split(sf_dir: str):
    """Cluster-aware train/val/test split (functions/sampling.py
    cluster_split): every document is assigned a split by its
    exact-duplicate cluster REPRESENTATIVE's hash band (rep = min
    doc_id over the normalized-text group, attached scale-honest via
    bucket_fold + tiered broadcast/join), so duplicate documents can
    never straddle train/test — the eval-contamination failure mode of
    row-wise splitting. The no-straddle property is audited in-engine
    (per-rep min/max split-rank fold must agree); the oracle recomputes
    the identical rep (window min over the same normalization) and the
    identical hash bands."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions import cluster_split
    from presto_bloomfilter_ray.functions.fold import bucket_fold

    docs = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    split = cluster_split(
        docs, [("train", 0.8), ("val", 0.9), ("test", 1.0)])

    def code(b: pa.Table) -> pa.Table:
        part = b.column("part")
        pc_rank = pc.add(
            pc.cast(pc.equal(part, "val"), pa.int64()),
            pc.multiply(pc.cast(pc.equal(part, "test"), pa.int64()),
                        pa.scalar(2, type=pa.int64())))
        return pa.table({"rep": b.column("rep"), "_pc": pc_rank})

    split = split.materialize()  # audit + aggregate share one pass
    mm = bucket_fold(split.map_batches(code, batch_format="pyarrow",
                                       batch_size=None),
                     ["rep"], [("_pc", "min", "lo"), ("_pc", "max", "hi")])
    straddles = mm.filter(expr="lo != hi").count()
    assert straddles == 0, f"{straddles} clusters straddle splits"

    agg = split.groupby(["lang", "part"]).aggregate(
        Count(alias_name="n"), Sum("doc_id", alias_name="sum_ids"))
    return agg


def _custkey_set_ops(sf_dir: str):
    """Exact distributed set algebra (functions/features.py
    set_op_counts) over customer vs orders custkeys — the exact
    complement of the Theta-sketch overlap query: map-side distinct +
    provenance tags, one groupby(key).max, per-batch counter fold."""
    from presto_bloomfilter_ray.functions import set_op_counts

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    return set_op_counts(cust, "c_custkey", orders, "o_custkey")


def _rollup_lang_source(sf_dir: str):
    """GROUP BY ROLLUP (functions/features.py rollup_counts): the
    corpus aggregates once at (lang, source); every coarser level
    re-aggregates the previous level's tiny result. Matches DuckDB's
    native ROLLUP including the NULL fill."""
    from presto_bloomfilter_ray.functions import rollup_counts

    docs = _read(sf_dir, "documents", columns=["lang", "source", "n_chars"])
    return rollup_counts(docs, ["lang", "source"], sum_cols=["n_chars"])


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def _events_pivot_hourly(sf_dir: str):
    """Categorical pivot (functions/features.py pivot_counts): hourly ×
    event-type count matrix — one-hot map-side, one groupby(hour).sum.
    SQL mirror is explicit CASE sums over the same fixed category
    list."""
    from presto_bloomfilter_ray.functions import pivot_counts
    from presto_bloomfilter_ray.functions.windows import add_tumbling_window

    ev = _read(sf_dir, "events", columns=["ts", "event_type"])
    ev = ev.map_batches(
        lambda b: add_tumbling_window(b, "ts", 3600, out_col="hour"),
        batch_format="pyarrow")
    out = pivot_counts(ev, "hour", "event_type", _EVENT_TYPES).to_pandas()
    out["hour"] = out["hour"].astype("datetime64[us]")
    return out.sort_values("hour").reset_index(drop=True)


def _event_transition_counts(sf_dir: str):
    """Per-user event-type transition matrix (functions/windows.py
    transition_counts — the lead()-OVER shape): per-key vectorized
    pairing emits ≤ states² rows per user, so the exchange is
    transition-matrix-sized."""
    from presto_bloomfilter_ray.functions import transition_counts

    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "event_type", "ts"])
    agg = transition_counts(ev, "ts", "user_id", "event_type",
                            order_cols=["event_id"])
    return agg


def _browse_edges(sf_dir: str):
    """The page browse graph shared by the graph queries: each user's
    consecutive events (by ``ts``, then ``event_id``) give one
    ``from_state`` → ``to_state`` page edge (pages = the JSON ``k``
    prop), weighted by its count ``n`` (functions/windows.py
    transition_counts)."""
    from presto_bloomfilter_ray.functions import transition_counts
    from presto_bloomfilter_ray.functions.jsonops import json_extract_fields

    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "ts", "props"])

    def extract(b: pa.Table) -> pa.Table:
        return json_extract_fields(
            b, "props", {"page": ("$.k", "int64")}).drop_columns(["props"])

    return transition_counts(
        ev.map_batches(extract, batch_format="pyarrow"),
        "ts", "user_id", "page", order_cols=["event_id"])


def _pagerank_browse_graph(sf_dir: str):
    """PageRank over the browse graph: each user's consecutive events
    define page→page edges (pages = the JSON ``k`` prop), then 3 power
    iterations of the integer recurrence (functions/graph.py pagerank —
    broadcast tier here; the dataset tier is equality-tested against it
    in tests/test_graph.py). The oracle is GENERATED from the same
    constants by pagerank_sql_mirror, so ranks match bit-for-bit."""
    from presto_bloomfilter_ray.functions import pagerank

    return pagerank(_browse_edges(sf_dir), iters=3, src_col="from_state",
                    dst_col="to_state", weight_col="n")


_PAGERANK_EDGES_SQL = """
    SELECT src, dst, CAST(count(*) AS BIGINT) AS w FROM (
        SELECT TRY_CAST(json_extract_string(props, '$.k') AS BIGINT) AS src,
               lead(TRY_CAST(json_extract_string(props, '$.k') AS BIGINT))
                   OVER (PARTITION BY user_id ORDER BY ts, event_id) AS dst
        FROM events
    ) WHERE dst IS NOT NULL GROUP BY src, dst
"""


#: personalized-PageRank teleport set (pages 0-99 exist at every sf)
_PPR_SEEDS = [3, 7, 42]


def _pagerank_personalized_pages(sf_dir: str):
    """Personalized PageRank: the teleport term (restart + dangling
    redistribution) flows only to seed pages — the seed-expansion
    primitive for crawl-frontier / topic-conditioned quality. Same
    browse-graph edges as `pagerank_browse_graph`; oracle GENERATED
    with the identical seed set by pagerank_sql_mirror(seeds=...)."""
    from presto_bloomfilter_ray.functions import pagerank

    return pagerank(_browse_edges(sf_dir), iters=3, src_col="from_state",
                    dst_col="to_state", weight_col="n", seeds=_PPR_SEEDS)


def _triangle_count_pages(sf_dir: str):
    """Exact triangle count of the undirected page browse graph
    (functions/graph.py triangle_count — degree-ordered wedges, bucket
    folds, co-partitioned closure; oracle is a plain 3-way self-join:
    the count is a pure integer, nothing to mirror)."""
    import pandas as pd

    from presto_bloomfilter_ray.functions import triangle_count

    n = triangle_count(_browse_edges(sf_dir), src_col="from_state",
                       dst_col="to_state")
    return pd.DataFrame({"n_triangles": pd.Series([n], dtype="int64")})


def _kcore_pages(sf_dir: str):
    """3-core of the undirected page browse graph (functions/graph.py
    kcore — peeling via bucket folds + tiered survivor filters; oracle
    GENERATED with the same 8-round unroll by kcore_sql, CTEs
    MATERIALIZED so DuckDB doesn't exponentially inline the chain)."""
    from presto_bloomfilter_ray.functions import kcore

    return kcore(_browse_edges(sf_dir), 3, src_col="from_state",
                 dst_col="to_state")


def _hits_browse_graph(sf_dir: str):
    """Kleinberg HITS (hubs/authorities) over the same per-user
    consecutive-event page graph as `pagerank_browse_graph` — 3
    iterations of the division-first integer recurrence
    (functions/graph.py hits; broadcast tier here, dataset tier
    equality-tested in tests/test_graph.py). Oracle GENERATED from the
    same constants by hits_sql_mirror: bit-exact."""
    from presto_bloomfilter_ray.functions import hits

    return hits(_browse_edges(sf_dir), iters=3, src_col="from_state",
                dst_col="to_state", weight_col="n")


def _bfs_hops_pages(sf_dir: str):
    """Multi-source BFS hop distances from the seed pages over the
    directed page browse graph (functions/graph.py bfs_distances —
    frontier broadcast per round, successors made distinct with a
    bucket fold so the exchange is new-frontier-sized, never
    edge-sized). Oracle GENERATED with the same 4-round unroll by
    bfs_sql (chained MATERIALIZED CTEs, the kcore_sql discipline)."""
    from presto_bloomfilter_ray.functions import bfs_distances

    return bfs_distances(_browse_edges(sf_dir), _PPR_SEEDS, max_hops=4,
                         src_col="from_state", dst_col="to_state")


def _interarrival_stats(sf_dir: str):
    """Per-user inter-event gaps (functions/windows.py lag_deltas — the
    lag()-OVER window shape), folded per the later event's type. Gaps
    are summed as exact µs int64 (recovered from the seconds float by
    round(x·1e6): the µs integer survives the /1e6 round-trip)."""
    from ray.data.aggregate import Max, Min, Sum

    from presto_bloomfilter_ray.functions import lag_deltas

    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "event_type", "ts"])
    d = lag_deltas(ev, "ts", "user_id", order_cols=["event_id"])

    def to_us(b: pa.Table) -> pa.Table:
        gap_us = pc.round(pc.multiply(b["delta_s"], pa.scalar(1e6))).cast(
            pa.int64())
        valid = pc.is_valid(gap_us).cast(pa.int64())
        return pa.table({"event_type": b["event_type"],
                         "gap_us": gap_us, "valid": valid})

    agg = (d.map_batches(to_us, batch_format="pyarrow")
           .groupby("event_type")
           .aggregate(Sum("valid", alias_name="n_gaps"),
                      Sum("gap_us", alias_name="sum_gap_us"),
                      Min("gap_us", alias_name="min_gap_us"),
                      Max("gap_us", alias_name="max_gap_us")))
    return agg


def _cumulative_user_spend(sf_dir: str):
    """Per-user running purchase count/total in event-time order
    (functions/windows.py cumulative_aggregate) — the SQL
    window-function shape, one output row per purchase. Money
    accumulates as scaled int64 cents so the running sum matches the
    SQL mirror exactly at every row."""
    from presto_bloomfilter_ray.functions import cumulative_aggregate

    ev = (_read(sf_dir, "events",
                columns=["event_id", "user_id", "event_type", "ts", "value"])
          .filter(expr="event_type == 'purchase'")
          .map_batches(_add_cents("value"), batch_format="pyarrow"))
    cum = cumulative_aggregate(ev, "ts", "user_id", "_cents",
                               order_cols=["event_id"])
    df = cum.to_pandas()
    df["running_spend"] = (df["running_sum"] / 100.0).round(2)
    df["ts"] = df["ts"].astype("datetime64[us]")
    return df[["user_id", "event_id", "ts", "running_n", "running_spend"]]


def _format_ingest_stats(sf_dir: str):
    """Format-adapting ingestion (sources/textio.py): the documents
    table round-trips through partitioned JSONL AND CSV sinks, is read
    back by the native distributed readers, normalized to the
    canonical schema, and aggregated — both format paths must agree
    with each other and with the parquet oracle exactly."""
    import shutil
    import uuid

    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.sources import (
        read_documents,
        write_documents_csv,
        write_documents_jsonl,
    )

    base = f"/tmp/textio-{uuid.uuid4().hex[:8]}"

    def agg(ds):
        return (ds.groupby("lang")
                .aggregate(Count(alias_name="n_docs"),
                           Sum("n_chars", alias_name="sum_chars"))
                .to_pandas().sort_values("lang").reset_index(drop=True))

    try:
        docs = read_documents(f"{sf_dir}/documents.parquet")
        write_documents_jsonl(docs, f"{base}/jsonl")
        write_documents_csv(docs, f"{base}/csv")
        via_jsonl = agg(read_documents(f"{base}/jsonl", fmt="jsonl"))
        via_csv = agg(read_documents(f"{base}/csv", fmt="csv"))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    out = via_jsonl.copy()
    out["sum_chars"] = out["sum_chars"].astype("int64")
    out["formats_agree"] = bool(
        via_jsonl.equals(via_csv.astype(via_jsonl.dtypes.to_dict())))
    return out[["lang", "n_docs", "sum_chars", "formats_agree"]]


def _funnel_signup_click_purchase(sf_dir: str):
    """Strict ordered funnel (functions/windows.py funnel_counts):
    signup → click-after-first-signup → purchase-after-that-click, one
    distributed pass per stage (filter → key-partitioned join against
    the previous first-reach table → min fold). SQL mirror chains the
    same min-aggregation joins."""
    from presto_bloomfilter_ray.functions import funnel_counts

    ev = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])
    return funnel_counts(ev, ts_col="ts", key_col="user_id",
                         stage_col="event_type",
                         stages=["signup", "click", "purchase"])


def _funnel_windowed_24h(sf_dir: str):
    """Attribution-window funnel (functions/windows.py funnel_counts
    max_delay_s): each step must convert within 24 h of the previous
    first-reach — the standard marketing-funnel semantics."""
    from presto_bloomfilter_ray.functions import funnel_counts

    ev = _read(sf_dir, "events", columns=["user_id", "event_type", "ts"])
    return funnel_counts(ev, ts_col="ts", key_col="user_id",
                         stage_col="event_type",
                         stages=["signup", "click", "purchase"],
                         max_delay_s=24 * 3600)


def _json_props_stats(sf_dir: str):
    """Vectorized JSON extraction (functions/jsonops.py): pull a typed
    field and a missing path out of the ``events.props`` JSON column in
    one polars kernel pass inside ``map_batches``, then aggregate per
    event type. The missing-path column must be all-NULL (the operator's
    lenient semantics), which the oracle checks via the count delta."""
    from ray.data.aggregate import Count, Max, Min, Sum

    from presto_bloomfilter_ray.functions import json_extract_fields

    ev = _read(sf_dir, "events", columns=["event_type", "props"])

    def extract(b: pa.Table) -> pa.Table:
        b = json_extract_fields(b, "props", {
            "k": ("$.k", pa.int64()),
            "missing": ("$.not_there", None),
        })
        return b.append_column(
            "miss_null", pc.is_null(b["missing"]).cast(pa.int64()))

    agg = (
        ev.map_batches(extract, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n_events"),
            Sum("k", alias_name="sum_k"),
            Min("k", alias_name="min_k"),
            Max("k", alias_name="max_k"),
            Sum("miss_null", alias_name="n_missing_null"),
        )
    )
    return agg


def _topk_orders_per_status(sf_dir: str):
    """Top-3 orders by totalprice per status — sort-within-group via
    ``groupby().map_groups`` (deterministic ties by orderkey)."""
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderstatus", "o_totalprice"])

    def top3(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["o_totalprice", "o_orderkey"],
                             ascending=[False, True]).head(3)

    return orders.groupby("o_orderstatus").map_groups(top3, batch_format="pandas")


def _grouped_quantiles_totalprice(sf_dir: str):
    """Per-status t-digest quantiles of o_totalprice — grouped sketching
    with a non-Bloom sketch through the same partial-shuffling path.
    The exact per-status rank of each estimate (DuckDB) must sit within
    the digest's published rank-error bound → boolean columns the
    driver can oracle-check."""
    import duckdb

    from presto_bloomfilter_ray import TDigest, deserialize
    from presto_bloomfilter_ray.engine import grouped_sketch

    orders = _read(sf_dir, "orders", columns=["o_orderstatus", "o_totalprice"])
    g = grouped_sketch(orders, key="o_orderstatus", col="o_totalprice",
                       factory=lambda: TDigest(200))
    rows = sorted(g.take_all(), key=lambda r: r["o_orderstatus"])
    con = duckdb.sql(
        f"select o_orderstatus, o_totalprice from '{sf_dir}/orders.parquet'"
    ).df()
    out = []
    for r in rows:
        sk = deserialize(r["sketch"])
        vals = con.loc[con["o_orderstatus"] == r["o_orderstatus"],
                       "o_totalprice"].to_numpy()
        ok = {}
        for q, name in [(0.5, "p50_rank_ok"), (0.95, "p95_rank_ok")]:
            rank = float((vals <= float(sk.quantile(q))).mean())
            ok[name] = bool(abs(rank - q) <= 3 * sk.rank_error_bound())
        out.append({"o_orderstatus": r["o_orderstatus"], **ok})
    return pd.DataFrame(out)


def _join_orders_customer_nation(sf_dir: str):
    """Keyed inner join (functions/fold.py join: the customer table
    broadcast, or both sides co-partitioned on the key) + grouped
    aggregate (a bucket fold) — revenue per customer nation."""
    from presto_bloomfilter_ray.functions.fold import bucket_fold, join

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    joined = join(orders, cust, on="o_custkey", right_on="c_custkey",
                  how="inner", n_parts=16,
                  broadcast_limit=_JOIN_BROADCAST_LIMIT)
    agg = bucket_fold(joined, ["c_nationkey"],
                      [(None, "count", "n_orders"), ("_cents", "sum", "_tp")],
                      pre=_add_cents("o_totalprice"))
    df = agg.to_pandas()
    df["c_nationkey"] = df["c_nationkey"].astype(np.int64)  # int32 column
    df["total_price"] = (df["_tp"] / 100.0).round(2)
    return df[["c_nationkey", "n_orders", "total_price"]]


def _asof_purchase_after_signup(sf_dir: str):
    """As-of join: each purchase event joined to the user's latest prior
    signup; per-type stats. Oracle = DuckDB native ASOF JOIN."""
    import duckdb

    from presto_bloomfilter_ray.functions.asof import asof_join

    signups = duckdb.sql(
        f"select user_id, ts, event_id from '{sf_dir}/events.parquet' "
        "where event_type = 'signup'"
    ).df()
    purchases = _read(sf_dir, "events").filter(expr="event_type == 'purchase'")
    joined = asof_join(purchases, signups, key="user_id", ts="ts",
                       value_cols=["event_id"])
    df = joined.to_pandas()
    matched = df["ts_r"].notna()
    delay = (df.loc[matched, "ts"].astype("int64")
             - df.loc[matched, "ts_r"].astype("int64")) / 1_000_000
    return pd.DataFrame({
        "n_purchases": [len(df)],
        "n_with_prior_signup": [int(matched.sum())],
        "sum_delay_s": [round(float(delay.sum()), 1)],
    })


def _asof_events_bucketed(sf_dir: str):
    """As-of join with BOTH sides as Datasets (no broadcast): every
    click joined to the user's latest prior event of any other type —
    a right side the size of the event log itself, too large to
    broadcast at scale. Both sides co-partitioned on the hashed key,
    one polars join_asof per partition; oracle = DuckDB native ASOF
    JOIN."""
    from presto_bloomfilter_ray.functions import asof_join_bucketed

    ev = _read(sf_dir, "events")
    clicks = ev.filter(expr="event_type == 'click'")
    others = ev.filter(expr="event_type != 'click'").select_columns(
        ["user_id", "ts", "event_id"])
    j = asof_join_bucketed(clicks, others, key="user_id", ts="ts",
                           value_cols=["event_id"]).to_pandas()
    matched = j["ts_r"].notna()
    delay = (j.loc[matched, "ts"].astype("int64")
             - j.loc[matched, "ts_r"].astype("int64")) / 1_000_000
    return pd.DataFrame({
        "n_clicks": [len(j)],
        "n_with_prior": [int(matched.sum())],
        "sum_delay_s": [round(float(delay.sum()), 1)],
    })


def _range_join_price_bands(sf_dir: str):
    """Non-equi range join: classify orders into price bands (broadcast
    interval probe), count + sum per band."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions.asof import range_join

    bands = pd.DataFrame({
        "lo": [0.0, 50_000.0, 150_000.0, 300_000.0],
        "hi": [50_000.0, 150_000.0, 300_000.0, 10_000_000.0],
        "band": ["small", "medium", "large", "jumbo"],
    })
    orders = _read(sf_dir, "orders", columns=["o_totalprice"])
    joined = range_join(orders, bands, on="o_totalprice", value_cols=["band"]
                        ).map_batches(_add_cents("o_totalprice"),
                                      batch_format="pyarrow")
    agg = joined.groupby("band").aggregate(
        Count(alias_name="n_orders"), Sum("_cents", alias_name="_tp")
    )
    df = agg.to_pandas()
    df["total_price"] = (df["_tp"] / 100.0).round(2)
    return df[["band", "n_orders", "total_price"]]


def _q5_revenue_by_nation(sf_dir: str):
    """TPC-H Q5-shaped multi-join: lineitem ⋈ orders ⋈ customer ⋈ nation,
    revenue per nation name — a chain of keyed joins
    (functions/fold.py join) feeding a grouped aggregate (a bucket
    fold)."""
    from presto_bloomfilter_ray.functions.fold import bucket_fold, join

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def revenue(b: pa.Table) -> pa.Table:
        # 2dp price × 2dp discount ⇒ exact at 4dp; scaled-int sum is
        # associative (see _add_cents)
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        rev_c = pc.round(pc.multiply(rev, pa.scalar(10_000.0))).cast(pa.int64())
        return b.append_column("revenue", rev_c).select(["l_orderkey", "revenue"])

    li = li.map_batches(revenue, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    kw = dict(how="inner", n_parts=16, broadcast_limit=_JOIN_BROADCAST_LIMIT)
    j = join(li, orders, on="l_orderkey", right_on="o_orderkey", **kw)
    j = join(j, cust, on="o_custkey", right_on="c_custkey", **kw)
    j = join(j, nation, on="c_nationkey", right_on="n_nationkey", **kw)
    df = bucket_fold(j, ["n_name"], [("revenue", "sum", "_r")]).to_pandas()
    df["revenue"] = ((df["_r"] + 50) // 100) / 100.0  # half-up ties, see q1
    return df[["n_name", "revenue"]]


def _union_distinct_orderkeys(sf_dir: str):
    """Set-op built-ins: union two key columns, distinct-count them.

    Distributed distinct: map-side per-batch dedupe (combiner) → one
    hash-shuffled groupby whose GROUP COUNT is the answer — ``count()``
    reads block metadata; no key list ever reaches the driver (the
    previous ``ds.unique()`` pulled every distinct key)."""
    from ray.data.aggregate import Count

    orders = _read(sf_dir, "orders", columns=["o_orderkey"]).map_batches(
        lambda b: b.rename_columns(["k"]), batch_format="pyarrow")
    li = _read(sf_dir, "lineitem", columns=["l_orderkey"]).map_batches(
        lambda b: b.rename_columns(["k"]), batch_format="pyarrow")

    def batch_distinct(b: pa.Table) -> pa.Table:
        return pa.table({"k": pa.array(np.unique(np.asarray(b.column("k"))))})

    n = (
        orders.union(li)
        .map_batches(batch_distinct, batch_format="pyarrow")
        .groupby("k").aggregate(Count(alias_name="_n"))
        .count()
    )
    return pd.DataFrame({"n_distinct": [n]})


def _top_sources(sf_dir: str):
    from ray.data.aggregate import Count

    docs = _read(sf_dir, "documents", columns=["source"])
    agg = docs.groupby("source").aggregate(Count(alias_name="n_docs"))
    return (
        agg.sort(["n_docs", "source"], descending=[True, False]).limit(10)
    )


# -------------------------------------------------------------------- dedup
def _exact_dedup_documents(sf_dir: str):
    from ray.data.aggregate import Sum

    from presto_bloomfilter_ray.functions import exact_dedup

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    deduped = exact_dedup(docs)

    # pre-aggregate per batch so the groupby shuffles (lang, count)
    # rows, never the deduped text (which would otherwise ride the
    # sort-based shuffle)
    def partial_counts(b: pa.Table) -> pa.Table:
        import polars as pl

        return (pl.from_arrow(b.select(["lang"]))
                .group_by("lang").agg(n_docs=pl.len()).to_arrow()
                .cast(pa.schema([("lang", pa.string()),
                                 ("n_docs", pa.int64())])))

    return (deduped.map_batches(partial_counts, batch_format="pyarrow")
            .groupby("lang").aggregate(Sum("n_docs", alias_name="n_docs")))


def _minhash_dedup_documents(sf_dir: str):
    """Near-dup dedup with deterministic acceptance checks: identical
    normalized texts ALWAYS share signatures (est_jaccard = 1 ≥ any
    threshold), so every exact-duplicate group must collapse to one
    representative; kept + removed must partition the corpus."""
    import duckdb

    from presto_bloomfilter_ray.functions import minhash_dedup

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    deduped, dup_map = minhash_dedup(docs, threshold=0.9)
    n_kept = deduped.count()
    removed = {k for k, v in dup_map.items() if k != v}
    n_docs = duckdb.sql(
        f"select count(*) from '{sf_dir}/documents.parquet'").fetchone()[0]
    # exact-duplicate groups (normalized text): all members join one
    # component (pairwise est_jaccard = 1), so at most ONE can survive —
    # possibly zero when the component's min-id representative is a
    # near-dup doc outside the exact group
    groups = duckdb.sql(
        f"""select list(doc_id) ids from '{sf_dir}/documents.parquet'
            group by lower(regexp_replace(text, '\\s+', ' ', 'g'))
            having count(*) > 1"""
    ).df()["ids"]
    exact_ok = all(
        sum(1 for i in ids if int(i) not in removed) <= 1 for ids in groups
    )
    return pd.DataFrame({
        "n_docs": [int(n_docs)],
        "partition_ok": [bool(n_kept + len(removed) == n_docs)],
        "exact_dups_collapsed": [bool(exact_ok)],
    })


def _minhash_index_incremental(sf_dir: str):
    """Incremental near-dup ingestion: build a persistent MinHash-LSH
    index over 3/4 of the corpus, probe the held-out quarter against it
    (never re-signing the corpus), then APPEND the increment and
    re-probe — the reference's Bloom build → persist → load → probe
    loop at signature level. Deterministic checks: the increment
    partitions into novel + matched; every match pairs a held-out doc
    with an indexed doc; each match's MinHash estimate sits within the
    binomial bound of the exact byte-5-gram Jaccard; after the append,
    every re-probed doc self-matches at est 1."""
    import shutil
    import tempfile

    import duckdb

    from presto_bloomfilter_ray.functions import (
        minhash_index_append,
        minhash_index_build,
        minhash_index_dedup,
        minhash_index_probe,
        ngram_jaccard,
    )

    thr = 0.9
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def held_out(keep: bool):
        def f(b: pa.Table) -> pa.Table:
            m = np.asarray(b.column("doc_id")) % 4 == 0
            return b.filter(pa.array(m if keep else ~m))
        return f

    corpus = docs.map_batches(held_out(False), batch_format="pyarrow")
    new = docs.map_batches(held_out(True), batch_format="pyarrow")
    idx_dir = tempfile.mkdtemp(prefix="mhidx-query-")
    try:
        minhash_index_build(corpus, idx_dir)
        novel, matches = minhash_index_dedup(new, idx_dir, threshold=thr)
        mdf = matches.to_pandas()
        n_new, n_novel = new.count(), novel.count()
        matched_ids = set(mdf["doc_id"].astype(int))
        partition_ok = n_novel + len(matched_ids) == n_new
        in_index_ok = bool((mdf["match_id"].astype(int) % 4 != 0).all()
                           and (mdf["doc_id"].astype(int) % 4 == 0).all())
        # precision: texts fetched for MATCHED ids only (bounded by true
        # near-duplication); exact Jaccard in byte space, like
        # _ngram_jaccard_check
        ids = sorted({*mdf["doc_id"].astype(int), *mdf["match_id"].astype(int)})
        texts = dict(duckdb.sql(
            f"select doc_id, lower(regexp_replace(text, '\\s+', ' ', 'g')) "
            f"from '{sf_dir}/documents.parquet' "
            f"where doc_id in ({','.join(map(str, ids)) or 'NULL'})"
        ).fetchall())
        prec_ok = True
        for a, b, est in zip(mdf["doc_id"].astype(int),
                             mdf["match_id"].astype(int),
                             mdf["est_jaccard"]):
            exact = ngram_jaccard(texts[a].encode(), texts[b].encode(), 5)
            sigma = max(0.02, (exact * (1 - exact) / 128) ** 0.5)
            prec_ok &= abs(est - exact) <= 4 * sigma + 0.05
        # append commit + self-probe
        minhash_index_append(new, idx_dir)
        sample = new.limit(50)
        re_m = minhash_index_probe(sample, idx_dir, threshold=thr).to_pandas()
        self_hits = set(re_m.loc[re_m["doc_id"] == re_m["match_id"],
                                 "doc_id"].astype(int))
        self_ok = {int(r["doc_id"]) for r in sample.take_all()} <= self_hits
    finally:
        shutil.rmtree(idx_dir, ignore_errors=True)
    return pd.DataFrame({
        "n_new": pd.array([n_new], dtype="int64"),
        "partition_ok": [bool(partition_ok)],
        "matches_in_index_ok": [in_index_ok],
        "precision_ok": [bool(prec_ok)],
        "append_selfmatch_ok": [bool(self_ok)],
    })


def _line_dedup_keep_first(sf_dir: str):
    """RefinedWeb-style line-level dedup keeping FIRST occurrence
    (functions/dedup.py dedup_lines_keep_first) over a derived
    multi-line corpus (groups of 4 documents newline-joined — the
    synthetic docs have no newlines of their own). Full per-document
    text comparison against the SQL mirror, which recomputes winners
    with the same (id·2³¹ + idx) packing."""
    from presto_bloomfilter_ray.functions import dedup_lines_keep_first

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def add_gid(b: pa.Table) -> pa.Table:
        gid = np.asarray(b.column("doc_id")) // 4
        return b.append_column("gid", pa.array(gid.astype(np.int64)))

    def join_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        return pd.DataFrame({"doc_id": [int(g["gid"].iloc[0])],
                             "text": ["\n".join(g["text"].tolist())]})

    corpus = (docs.map_batches(add_gid, batch_format="pyarrow")
              .groupby("gid").map_groups(join_group, batch_format="pandas"))
    out = dedup_lines_keep_first(corpus).to_pandas()
    return (out.sort_values("doc_id").reset_index(drop=True)
            [["doc_id", "n_lines", "n_kept", "text"]])


def _incremental_ingest_dedup(sf_dir: str):
    """The reference's persist → load → probe loop in the incremental-
    crawl dedup role: a Bloom filter built over yesterday's corpus is
    PERSISTED (SketchStore), loaded back by the next ingest run, and
    anti-probed by the new batch (second half of the corpus plus a
    simulated re-crawl of some old docs) — re-ingested duplicates are
    dropped in a pure map stage with no shuffle and no false
    negatives. Kept rows equal the SQL NOT-IN exactly (fpp 1e-9)."""
    import tempfile

    from presto_bloomfilter_ray import BloomFilter
    from presto_bloomfilter_ray.engine import (
        SketchStore,
        build_sketch,
        semi_join,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    half = docs.count() // 2
    old = docs.filter(expr=f"doc_id < {half}")

    def recrawl_mask(b: pa.Table) -> pa.Table:
        did = np.asarray(b.column("doc_id"))
        return b.filter(pa.array((did % 97 == 0) & (did < half)))

    reingest = docs.map_batches(recrawl_mask, batch_format="pyarrow")
    new = docs.filter(expr=f"doc_id >= {half}").union(reingest)

    bf = build_sketch(old, "text", lambda: BloomFilter(100_000, 1e-9))
    with tempfile.TemporaryDirectory() as d:
        store = SketchStore(d)
        store.put("daily/text_bloom", bf.serialize())
        loaded = store.load_and_merge(["daily/text_bloom"])
        kept = semi_join(new, "text", loaded, anti=True)
        df = (kept.select_columns(["doc_id"]).to_pandas()
              .sort_values("doc_id").reset_index(drop=True))
    df["loaded_from_store"] = True
    return df


def _exact_dedup_sharded(sf_dir: str):
    """exact_dedup with the sharded anti-join removal path FORCED
    (broadcast_limit=0): the keep-map never touches the driver — it is
    hash-partitioned into sorted shards and each filter batch loads
    only the shards its hashes land in. Must produce byte-identical
    results to the broadcast path / SQL oracle."""
    import tempfile

    from ray.data.aggregate import Count

    from presto_bloomfilter_ray.functions import exact_dedup

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    deduped = exact_dedup(docs, broadcast_limit=0,
                          work_dir=tempfile.mkdtemp(prefix="q-exact-shards-"))
    return deduped.groupby("lang").aggregate(Count(alias_name="n_docs"))


def _minhash_dedup_dataset_cc(sf_dir: str):
    """minhash_dedup on the ZERO-driver-state path: clustering via
    connected_components_ds (labels stay a hash-partitioned Dataset)
    and removal via the sharded anti-join. Checks the same
    deterministic contract as minhash_dedup_documents PLUS agreement
    with the driver-backend labels."""
    import tempfile

    from presto_bloomfilter_ray.functions import minhash_dedup

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    kept_drv, dup_map = minhash_dedup(docs, threshold=0.9)
    kept_ds, labels = minhash_dedup(
        docs, threshold=0.9, cc_backend="dataset",
        work_dir=tempfile.mkdtemp(prefix="q-mh-shards-"))
    n_docs = docs.count()
    n_kept = kept_ds.count()
    lab_df = labels.to_pandas()
    got_map = dict(zip(lab_df["node"].astype(int),
                       lab_df["component"].astype(int)))
    removed = sum(1 for k, v in got_map.items() if k != v)
    return pd.DataFrame({
        "n_docs": [int(n_docs)],
        "partition_ok": [bool(n_kept + removed == n_docs)],
        "matches_driver_backend": [bool(
            got_map == dup_map
            and n_kept == kept_drv.count())],
    })


def _simhash_candidates_documents(sf_dir: str):
    """SimHash candidates with a deterministic floor: identical
    normalized texts have identical simhashes (hamming 0), land in the
    same four chunk buckets, and — for groups within the all-pairs
    cutoff — every such pair must be reported."""
    import duckdb

    from presto_bloomfilter_ray.functions import simhash_candidates

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = simhash_candidates(docs, max_hamming=3)
    got = set(zip(pairs["a"].astype(int), pairs["b"].astype(int)))
    groups = duckdb.sql(
        f"""select list(doc_id) ids from '{sf_dir}/documents.parquet'
            group by lower(regexp_replace(text, '\\s+', ' ', 'g'))
            having count(*) > 1"""
    ).df()["ids"]
    expected = set()
    for ids in groups:
        ids = sorted(int(i) for i in ids)
        if len(ids) <= 64:  # pair_cutoff: all pairs guaranteed
            expected |= {(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]}
    return pd.DataFrame({
        "exact_dup_pairs_found": [bool(expected <= got)],
        "all_pairs_le_max_hamming": [bool((pairs["hamming"] <= 3).all())],
    })


def _ngram_jaccard_check(sf_dir: str):
    """Exact char-5-gram Jaccard as the verify step behind MinHash:
    for every LSH candidate pair at threshold 0.8, the MinHash
    estimate must sit within 4σ (σ = √(j(1−j)/128)) + hash-collision
    slack of the EXACT n-gram Jaccard on the normalized texts.
    Candidate pairs are bounded by true near-duplication (driver-safe);
    fixed seeds make the check deterministic."""
    import duckdb

    from presto_bloomfilter_ray.functions import lsh_candidate_pairs, ngram_jaccard

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    edges = lsh_candidate_pairs(docs, min_est=0.8).filter(
        expr="est_jaccard >= 0.8").to_pandas()
    cand_ids = sorted({*edges["a"].astype(int), *edges["b"].astype(int)})
    # fetch texts for CANDIDATE ids only — bounded by true near-
    # duplication, not corpus size
    texts = dict(duckdb.sql(
        f"select doc_id, lower(regexp_replace(text, '\\s+', ' ', 'g')) "
        f"from '{sf_dir}/documents.parquet' "
        f"where doc_id in ({','.join(map(str, cand_ids)) or 'NULL'})"
    ).fetchall())
    ok = True
    for a, b, est in zip(edges["a"].astype(int), edges["b"].astype(int),
                         edges["est_jaccard"]):
        # compare in BYTE space — MinHash shingles are rolling 5-BYTE
        # windows, so multi-byte scripts (zh) diverge from char n-grams
        exact = ngram_jaccard(texts[a].encode(), texts[b].encode(), 5)
        sigma = max(0.02, (exact * (1 - exact) / 128) ** 0.5)
        ok &= abs(est - exact) <= 4 * sigma + 0.05
    return pd.DataFrame({
        "n_verified_pairs_gt0": [bool(len(edges) > 0)],
        "est_within_binomial_bound": [bool(ok)],
    })


def _boilerplate_removal_stats(sf_dir: str):
    """C4-style boilerplate line removal over the corpus: lines
    occurring ≥ 3 times corpus-wide are dropped from every doc. The
    oracle mirrors the whole pipeline in SQL (string_split + global
    line counts + per-doc surviving-char sum)."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions import (
        boilerplate_lines,
        remove_boilerplate_lines,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    # the synthetic corpus has no naturally repeated lines, so append a
    # deterministic shared footer (mirrored in the oracle SQL) — every
    # doc then has exactly one corpus-hot line and the removal +
    # reassembly path is actually exercised by the driver check
    docs = docs.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("text"), "text",
            pc.binary_join_element_wise(
                b["text"].cast(pa.string()), "-- shared footer --", "\n")),
        batch_format="pyarrow")
    hot = boilerplate_lines(docs, min_count=3)
    cleaned = remove_boilerplate_lines(docs, hot, out_col="clean",
                                       dropped_col="n_dropped")

    def stats(b: pa.Table) -> pa.Table:
        # 'changed' = at least one line dropped — same definition as the
        # oracle's n_kept < n_lines (clean != text misses the degenerate
        # doc whose only line is empty AND hot: clean == text == "")
        changed = pc.cast(pc.greater(b["n_dropped"], 0), pa.int64())
        return pa.table({
            "changed": changed,
            "clean_chars": pc.utf8_length(b["clean"]).cast(pa.int64()),
        })

    agg = cleaned.map_batches(stats, batch_format="pyarrow").aggregate(
        Count(alias_name="n_docs"),
        Sum("changed", alias_name="n_changed"),
        Sum("clean_chars", alias_name="sum_clean_chars"),
    )
    return pd.DataFrame([agg])


def _pii_redaction_stats(sf_dir: str):
    """PII scrub stage over the corpus (emails / phones / IPv4 →
    tags): corpus-level audit metrics. The synthetic corpus carries no
    PII, so a deterministic PII footer is appended to every 5th doc
    (mirrored in the oracle SQL) — the redaction path actually fires."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions.text import redact_pii

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def inject(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"], dtype=np.int64)
        mask = pa.array(ids % 5 == 0)
        footer = pc.binary_join_element_wise(
            " contact u", pc.cast(b["doc_id"], pa.string()),
            "@ex.org or 555-123-4567 at 10.0.0.",
            pa.array((ids % 250).astype(str)), "")
        appended = pc.binary_join_element_wise(
            b["text"].cast(pa.string()), footer, "")
        return b.set_column(b.schema.get_field_index("text"), "text",
                            pc.if_else(mask, appended,
                                       b["text"].cast(pa.string())))

    red = docs.map_batches(inject, batch_format="pyarrow") \
              .map_batches(redact_pii, batch_format="pyarrow")

    def stats(b: pa.Table) -> pa.Table:
        hit = pc.or_(pc.or_(pc.greater(b["n_email"], 0),
                            pc.greater(b["n_phone"], 0)),
                     pc.greater(b["n_ipv4"], 0))
        return pa.table({
            "n_email": b["n_email"], "n_phone": b["n_phone"],
            "n_ipv4": b["n_ipv4"],
            "redacted": pc.cast(hit, pa.int64()),
            "clean_chars": pc.utf8_length(b["text"]).cast(pa.int64()),
        })

    agg = red.map_batches(stats, batch_format="pyarrow").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_email", alias_name="sum_email"),
        Sum("n_phone", alias_name="sum_phone"),
        Sum("n_ipv4", alias_name="sum_ipv4"),
        Sum("redacted", alias_name="n_docs_redacted"),
        Sum("clean_chars", alias_name="sum_clean_chars"),
    )
    return pd.DataFrame([agg])


def _stratified_sample_by_lang(sf_dir: str):
    """Deterministic per-language downsampling (the training-mix
    rebalance stage): multiplicative-hash threshold on doc_id, exact
    same arithmetic in the SQL mirror, so the oracle checks the
    precise selected set — reproducible sampling is the point."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions import hash_sample

    docs = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    mix = {"en": 0.5, "de": 0.25}  # other langs keep everything
    kept = hash_sample(docs, "doc_id", key_col="lang", fractions=mix,
                       default_fraction=1.0)
    return kept.groupby("lang").aggregate(
        Count(alias_name="n_kept"),
        Sum("doc_id", alias_name="sum_kept_ids"),
    )


def _mixture_sample_by_lang(sf_dir: str):
    """Temperature-mixture resampling (alpha=0.5): per-language counts
    → (c/total)^0.5 shares → capped per-stratum hash_sample fractions
    rounded to 6 digits — the rounding makes the data-driven
    fractions, and hence the exact selected row set, recomputable in
    SQL (counts → pow → round → floor-threshold)."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions import mixture_sample

    docs = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    sampled, _fracs = mixture_sample(docs, "doc_id", "lang", alpha=0.5)
    return sampled.groupby("lang").aggregate(
        Count(alias_name="n_kept"),
        Sum("doc_id", alias_name="sum_kept_ids"),
    )


def _bloom_decontaminate(sf_dir: str):
    """Benchmark decontamination with the project's own Bloom sketch —
    the canonical LLM-training use of ``bloom_filter`` +
    ``bloom_filter_contains``. Docs with ``doc_id % 97 == 0`` act as
    the held-out benchmark; every 11th remaining doc gets a benchmark
    line injected (deterministic, mirrored in SQL) so contamination
    actually exists. Emits the EXACT contaminated count (computed
    in-query from the benchmark's line-hash set — the benchmark side
    is small by nature, this is the realistic broadcast) plus two
    guarantee booleans: the bloom flags are a superset of the exact
    flags (no false negatives) and the false-positive overshoot is
    within the configured-fpp bound."""
    from ray.data.aggregate import Count, Min, Sum

    from presto_bloomfilter_ray.functions.decontaminate import (
        benchmark_bloom,
        explode_lines,
    )
    from presto_bloomfilter_ray.sketches.hashing import hash64

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def tag(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"], dtype=np.int64)
        bench = ids % 97 == 0
        inject = bench | ((ids % 11 == 0) & ~bench)
        secret = pc.binary_join_element_wise(
            "SECRET EVAL ITEM ", pa.array((ids % 5).astype(str)), "")
        appended = pc.binary_join_element_wise(
            b["text"].cast(pa.string()), secret, "\n")
        txt = pc.if_else(pa.array(inject), appended,
                         b["text"].cast(pa.string()))
        out = b.set_column(b.schema.get_field_index("text"), "text", txt)
        return out.append_column("is_bench", pa.array(bench))

    tagged = docs.map_batches(tag, batch_format="pyarrow")
    bench_ds = tagged.map_batches(
        lambda b: b.filter(b["is_bench"].combine_chunks()
                           if isinstance(b["is_bench"], pa.ChunkedArray)
                           else b["is_bench"]),
        batch_format="pyarrow")
    corpus = tagged.map_batches(
        lambda b: b.filter(pc.invert(
            b["is_bench"].combine_chunks()
            if isinstance(b["is_bench"], pa.ChunkedArray)
            else b["is_bench"])),
        batch_format="pyarrow")

    fpp = 1e-4
    bloom = benchmark_bloom(bench_ds, expected_insertions=100_000, fpp=fpp)
    # exact reference: the benchmark's distinct line hashes (small side)
    bench_hashes = np.unique(np.concatenate([
        hash64(t["line"], 0xDECA)
        for t in bench_ds.map_batches(explode_lines,
                                      batch_format="pyarrow")
                         .iter_batches(batch_format="pyarrow")
    ] or [np.zeros(0, dtype=np.uint64)]))

    import ray

    from presto_bloomfilter_ray.engine.ops import get_or_load

    env_ref = ray.put(bloom.serialize())
    bh_ref = ray.put(bench_hashes)

    def probe(b: pa.Table) -> pa.Table:
        bf = get_or_load(ray.get(env_ref))
        bh = ray.get(bh_ref)
        col = b.column("text")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.split_pattern(col, "\n")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = pc.list_flatten(lists)
        parents = np.asarray(pc.list_parent_indices(lists))
        ok = np.asarray(pc.greater_equal(
            pc.utf8_length(pc.utf8_trim_whitespace(flat)), 1))
        bloom_hit = bf.contains_many(flat) & ok
        h = hash64(flat, 0xDECA)
        if len(bh):
            idx = np.clip(np.searchsorted(bh, h), 0, len(bh) - 1)
            exact_hit = (bh[idx] == h) & ok
        else:
            exact_hit = np.zeros(len(h), dtype=bool)
        n = b.num_rows
        bloom_doc = np.bincount(parents[bloom_hit], minlength=n) > 0
        exact_doc = np.bincount(parents[exact_hit], minlength=n) > 0
        return pa.table({
            "bloom_flag": pa.array(bloom_doc.astype(np.int64)),
            "exact_flag": pa.array(exact_doc.astype(np.int64)),
            "superset": pa.array((bloom_doc | ~exact_doc).astype(np.int64)),
        })

    agg = corpus.map_batches(probe, batch_format="pyarrow").aggregate(
        Count(alias_name="n_docs"),
        Sum("exact_flag", alias_name="n_contaminated"),
        Sum("bloom_flag", alias_name="_n_bloom"),
        Min("superset", alias_name="_superset_min"),
    )
    n_docs = int(agg["n_docs"])
    n_exact = int(agg["n_contaminated"])
    n_bloom = int(agg["_n_bloom"])
    # expected FP docs ≈ clean docs × (1 - (1-fpp)^lines/doc); bound
    # generously — the check is "fpp didn't blow up", not a tight test
    fp_bound = 10 + int(5 * fpp * max(n_docs, 1) * 50)
    return pd.DataFrame([{
        "n_docs": n_docs,
        "n_contaminated": n_exact,
        "bloom_no_false_negatives": bool(agg["_superset_min"] == 1),
        "bloom_fp_within_bound": bool(0 <= n_bloom - n_exact <= fp_bound),
    }])


def _host_cap_sample(sf_dir: str):
    """Per-host document cap (≤ 10 docs per source, smallest doc_id
    wins) — the domain-balancing stage of a CC-style training-data
    pipeline, via the two-phase partial-top-k ``cap_per_key``. Emits
    per-source kept counts + a doc_id checksum so the oracle hash
    checks the exact selected set, not just its size."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions import cap_per_key

    docs = _read(sf_dir, "documents", columns=["source", "doc_id"])
    kept = cap_per_key(docs, "source", "doc_id", k=10)
    return kept.groupby("source").aggregate(
        Count(alias_name="n_kept"),
        Sum("doc_id", alias_name="sum_kept_ids"),
    )


def _repetition_filter_stats(sf_dir: str):
    """Gopher-style within-doc repetition signals over the corpus. The
    synthetic corpus has no repeated lines, so two identical marker
    lines are appended to every 3rd doc (mirrored in the oracle SQL) —
    the duplicate-detection path actually fires."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions.text import repetition_signals

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def inject(b: pa.Table) -> pa.Table:
        ids = np.asarray(b["doc_id"], dtype=np.int64)
        mask = pa.array(ids % 3 == 0)
        appended = pc.binary_join_element_wise(
            b["text"].cast(pa.string()), "R R R\nR R R", "\n")
        return b.set_column(b.schema.get_field_index("text"), "text",
                            pc.if_else(mask, appended,
                                       b["text"].cast(pa.string())))

    sig = docs.map_batches(inject, batch_format="pyarrow") \
              .map_batches(repetition_signals, batch_format="pyarrow")

    def stats(b: pa.Table) -> pa.Table:
        return pa.table({
            "n_lines": b["n_lines"], "n_dup_lines": b["n_dup_lines"],
            "dup_line_chars": b["dup_line_chars"],
            "flagged": pc.cast(pc.greater(b["n_dup_lines"], 0), pa.int64()),
        })

    agg = sig.map_batches(stats, batch_format="pyarrow").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_lines", alias_name="sum_lines"),
        Sum("n_dup_lines", alias_name="sum_dup_lines"),
        Sum("dup_line_chars", alias_name="sum_dup_chars"),
        Sum("flagged", alias_name="n_docs_flagged"),
    )
    return pd.DataFrame([agg])


# ---------------------------------------------------------------- text
def _text_stats_by_lang(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions import add_text_stats

    docs = _read(sf_dir, "documents", columns=["text", "lang"])
    agg = (
        docs.map_batches(lambda b: add_text_stats(b), batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_tokens", alias_name="sum_tokens"),
            Sum("n_chars", alias_name="sum_chars"),
        )
    )
    return agg


def _clean_text_stats(sf_dir: str):
    """Normalizer stage over the corpus: control-char strip + whitespace
    collapse + trim + NFC. Oracle mirrors the exact same pipeline in
    SQL (nfc_normalize + the same RE2 patterns), comparing changed-doc
    counts and total cleaned length."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions.text import clean_text

    docs = _read(sf_dir, "documents", columns=["text"])

    def stats(b: pa.Table) -> pa.Table:
        cleaned = clean_text(b, out_col="clean")
        changed = pc.cast(pc.invert(pc.equal(
            cleaned["clean"], b["text"])), pa.int64())
        return pa.table({
            "changed": changed,
            "clean_chars": pc.utf8_length(cleaned["clean"]),
        })

    agg = docs.map_batches(stats, batch_format="pyarrow").aggregate(
        Count(alias_name="n_docs"),
        Sum("changed", alias_name="n_changed"),
        Sum("clean_chars", alias_name="sum_clean_chars"),
    )
    return pd.DataFrame([agg])


def _quality_stats_by_lang(sf_dir: str):
    """Gopher/C4-style heuristic quality scoring as a first-class
    pipeline stage: per-lang doc counts above the keep threshold plus
    the mean score. The formula (length band × punctuation sanity ×
    stopword presence) is pure IEEE float arithmetic over regex counts,
    so the oracle replicates it EXACTLY in SQL (same RE2 counts, same
    operation order)."""
    from ray.data.aggregate import Count, Mean, Sum

    from presto_bloomfilter_ray.functions import quality_score

    docs = _read(sf_dir, "documents", columns=["text", "lang"])

    def score(b: pa.Table) -> pa.Table:
        b = quality_score(b)
        return b.append_column(
            "is_high", pc.cast(pc.greater_equal(b["quality"], pa.scalar(0.5)),
                               pa.int64()))

    agg = (
        docs.map_batches(score, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"),
                   Sum("is_high", alias_name="n_high_quality"),
                   Mean("quality", alias_name="_mq"))
    )
    df = agg.to_pandas()
    df["avg_quality"] = df["_mq"].round(6)
    return df[["lang", "n_docs", "n_high_quality", "avg_quality"]]


def _bpe_token_stats_by_lang(sf_dir: str):
    """Training-data token accounting: BPE-ish (GPT-2-style regex)
    tokens per language next to whitespace tokens — the token-count
    estimate a data pipeline budgets against. Exact oracle: the same
    RE2 pattern in DuckDB."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions.text import bpe_token_count, token_count

    docs = _read(sf_dir, "documents", columns=["text", "lang"])

    def counts(b: pa.Table) -> pa.Table:
        b = b.append_column("n_bpe", bpe_token_count(b.column("text")))
        return b.append_column("n_ws", token_count(b.column("text")))

    agg = (
        docs.map_batches(counts, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"),
                   Sum("n_bpe", alias_name="sum_bpe_tokens"),
                   Sum("n_ws", alias_name="sum_ws_tokens"))
    )
    return agg


def _word_count_top20(sf_dir: str):
    from presto_bloomfilter_ray.functions import word_count

    docs = _read(sf_dir, "documents", columns=["text"])
    return word_count(docs, top_k=20)


def _url_canonicalize_stats(sf_dir: str):
    """URL hygiene stage (functions/urls.py): two URLs per document —
    one messy (tracking params, fragment, default port, cased
    scheme/host; variant by doc_id % 3) and one already-clean — must
    collapse to ONE canonical form (n_distinct == n_docs, n_urls ==
    2·n_docs). The SQL oracle applies `canonicalize_sql`, GENERATED
    from the operator's own ordered pattern list, to the identically
    constructed strings — full string-value comparison per source."""
    from ray.data.aggregate import Count, Max, Min

    from presto_bloomfilter_ray.functions import canonicalize_url

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])

    def make_urls(b: pa.Table) -> pa.Table:
        did = b.column("doc_id")
        ds_ = did.cast(pa.string())
        src = b.column("source")
        v = np.asarray(did) % 3
        u0 = pc.binary_join_element_wise(
            pa.scalar("https://"), pc.utf8_upper(src),
            pa.scalar(".Example.com:443/d/"), ds_,
            pa.scalar("?utm_source=feed&id="), ds_, pa.scalar("#top"), "")
        u1 = pc.binary_join_element_wise(
            pa.scalar("https://"), src, pa.scalar(".example.com/d/"), ds_,
            pa.scalar("?id="), ds_, pa.scalar("&utm_campaign=x"), "")
        u2 = pc.binary_join_element_wise(
            pa.scalar("http://"), src, pa.scalar(".example.com:80/d/"), ds_,
            pa.scalar("?id="), ds_, "")
        messy = pc.if_else(pa.array(v == 0), u0,
                           pc.if_else(pa.array(v == 1), u1, u2))
        scheme = pc.if_else(pa.array(v == 2), pa.scalar("http://"),
                            pa.scalar("https://"))
        clean = pc.binary_join_element_wise(
            scheme, src, pa.scalar(".example.com/d/"), ds_,
            pa.scalar("?id="), ds_, "")
        one = pa.table({"source": src, "url": messy})
        two = pa.table({"source": src, "url": clean})
        return pa.concat_tables([one, two])

    urls = docs.map_batches(make_urls, batch_format="pyarrow")
    canon = urls.map_batches(canonicalize_url, batch_format="pyarrow")
    per_url = (canon.groupby(["source", "canonical_url"])
               .aggregate(Count(alias_name="n")))
    agg = (per_url.groupby("source")
           .aggregate(Count(alias_name="n_distinct"),
                      Min("canonical_url", alias_name="min_url"),
                      Max("canonical_url", alias_name="max_url")))
    df = agg.to_pandas()
    n_urls = canon.groupby("source").count().to_pandas().rename(
        columns={"count()": "n_urls"})
    df = df.merge(n_urls, on="source")
    return df[["source", "n_urls", "n_distinct", "min_url", "max_url"]]


def _quality_gate_pipeline(sf_dir: str):
    """The end-to-end quality-gate chain of a training-data cleaning
    pipeline in ONE map pass: quality score ≥ 0.5 → byte entropy in
    [3.5, 6.0] → length band [100, 500] chars, applied sequentially;
    per-lang survivor counts after each gate (monotone). Every gate's
    definition is the SQL-exact one its standalone query uses, so the
    whole chain oracle-checks."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions import byte_entropy, quality_score

    docs = _read(sf_dir, "documents", columns=["text", "lang", "n_chars"])

    def gates(b: pa.Table) -> pa.Table:
        b = quality_score(b, "text")
        b = byte_entropy(b, "text")
        q = np.asarray(b.column("quality"), dtype=np.float64)
        ent = np.asarray(
            pc.fill_null(b.column("entropy"), -1.0), dtype=np.float64)
        nc = np.asarray(b.column("n_chars"), dtype=np.int64)
        p1 = q >= 0.5
        p2 = p1 & (ent >= 3.5) & (ent <= 6.0)
        p3 = p2 & (nc >= 100) & (nc <= 500)
        return pa.table({
            "lang": b.column("lang"),
            "p1": pa.array(p1.astype(np.int64)),
            "p2": pa.array(p2.astype(np.int64)),
            "p3": pa.array(p3.astype(np.int64)),
        })

    agg = (docs.map_batches(gates, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Count(alias_name="n_docs"),
                      Sum("p1", alias_name="n_after_quality"),
                      Sum("p2", alias_name="n_after_entropy"),
                      Sum("p3", alias_name="n_after_length")))
    return agg


def _prepare_corpus_pipeline(sf_dir: str):
    """The full five-stage training-corpus preparation composition
    (pipelines/prepare.py prepare_corpus): quality gates → exact dedup
    → MinHash near-dedup, with per-stage row metrics. Deterministic
    checks: ``n_gated`` is SQL-exact (the same gate expressions the
    quality_gate_pipeline oracle proves, at this pipeline's thresholds);
    stage rows must be monotone non-increasing; the returned dataset's
    cardinality must equal the last stage metric; and every
    normalized-exact-duplicate group (whose members share quality /
    entropy / length, so the gates keep or drop them together) must
    collapse to at most one survivor."""
    import duckdb

    from presto_bloomfilter_ray.pipelines import prepare_corpus

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out, metrics = prepare_corpus(
        docs, id_col="doc_id", text_col="text",
        quality_min=0.35, entropy_band=(3.0, 6.5),
        length_band=(20, 1_000_000))
    rows = [m["rows"] for m in metrics]
    kept = {int(r["doc_id"])
            for r in out.select_columns(["doc_id"]).take_all()}
    groups = duckdb.sql(
        f"""select list(doc_id) ids from '{sf_dir}/documents.parquet'
            group by lower(regexp_replace(text, '\\s+', ' ', 'g'))
            having count(*) > 1"""
    ).df()["ids"]
    collapse_ok = all(
        sum(1 for i in ids if int(i) in kept) <= 1 for ids in groups)
    return pd.DataFrame({
        "n_gated": [int(rows[0])],
        "monotone_ok": [bool(rows == sorted(rows, reverse=True))],
        "final_stage_ok": [bool(len(kept) == rows[-1])],
        "exact_dups_collapsed": [bool(collapse_ok)],
    })


def _entropy_stats_by_lang(sf_dir: str):
    """Per-language byte-entropy quality screen (functions/text.py
    byte_entropy): zero-copy per-doc Shannon entropy in a map stage,
    then a per-lang fold. Per-doc entropies are rounded to 6 digits and
    summed as scaled int64 (the _add_cents trick) so the distributed
    sum is associative-exact against SQL."""
    from ray.data.aggregate import Max, Min, Sum

    from presto_bloomfilter_ray.functions import byte_entropy

    docs = _read(sf_dir, "documents", columns=["text", "lang"])

    def ent(b: pa.Table) -> pa.Table:
        b = byte_entropy(b, "text")
        micro = pc.round(pc.multiply(b["entropy"], pa.scalar(1e6))).cast(
            pa.int64())
        # count docs WITH an entropy (empty/null text → NULL), matching
        # the oracle's n_chars > 0 restriction
        valid = pc.is_valid(b["entropy"]).cast(pa.int64())
        return (b.append_column("ent_micro", micro)
                .append_column("has_ent", valid).drop_columns(["text"]))

    agg = (docs.map_batches(ent, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("has_ent", alias_name="n_docs"),
                      Sum("ent_micro", alias_name="ent_micro_sum"),
                      Min("entropy", alias_name="min_entropy"),
                      Max("entropy", alias_name="max_entropy")))
    return agg


def _profile_documents(sf_dir: str):
    """Column profiling (functions/profile.py profile_table): per-column
    row / null / exact-distinct counts in one pass — the exchange
    carries per-batch distinct 64-bit hashes, never values."""
    from presto_bloomfilter_ray.functions import profile_table

    return profile_table(_read(sf_dir, "documents"))


def _textlen_histogram(sf_dir: str):
    """Fixed-bin histogram of document lengths (functions/histogram.py):
    per-batch bincount partials (≤ n_bins+2 rows each), tiny groupby
    fold — no sort, no row shuffle. Bin arithmetic is the identical
    IEEE-double expression on both engines, underflow/overflow
    clamped to -1 / n_bins."""
    from presto_bloomfilter_ray.functions import histogram

    docs = _read(sf_dir, "documents", columns=["n_chars"])
    return histogram(docs, "n_chars", lo=50.0, hi=450.0, n_bins=8)


def _pmi_bigrams_top20(sf_dir: str):
    """Collocation extraction by PMI (functions/text.py pmi_bigrams):
    one tokenization pass emits combined unigram+bigram counts; the
    vocabulary attaches to the pruned bigram table via key-partitioned
    joins (never broadcast); PMI evaluates in the oracle's exact
    operation order."""
    from presto_bloomfilter_ray.functions import pmi_bigrams

    docs = _read(sf_dir, "documents", columns=["text"])
    return pmi_bigrams(docs, top_k=20, min_count=5)


def _vocab_stats_by_lang(sf_dir: str):
    """Per-language vocabulary statistics (functions/text.py
    vocab_stats): tokens, types, hapax legomena, type-token ratio —
    map-side (lang, term) combine, vocabulary-sized exchange, partial
    per-batch fold. SQL-exact."""
    from presto_bloomfilter_ray.functions import vocab_stats

    docs = _read(sf_dir, "documents", columns=["text", "lang"])
    return vocab_stats(docs, text_col="text", key_col="lang")


def _bpe_train_stats(sf_dir: str):
    """Distributed BPE tokenizer training: merges are learned from the
    word HISTOGRAM (one vocabulary-sized word_count exchange; the
    driver loop is corpus-size-independent), encoding is a map stage
    over per-batch distinct words. Checks: the distributed-histogram
    merges equal merges from a DuckDB-computed histogram (exchange
    exactness); the distributed encode total equals the serial
    histogram encode total (map-stage exactness); token totals respect
    the per-word [1, chars+1] bounds. Exact ints (n_word_types,
    total_ws_tokens) are SQL-recomputed by the oracle."""
    import duckdb

    from presto_bloomfilter_ray.functions import (
        bpe_encode_counts, bpe_encode_word, bpe_merges_from_histogram,
        bpe_train)
    from ray.data.aggregate import Sum

    N_MERGES = 40
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    model = bpe_train(docs, "text", n_merges=N_MERGES)

    hist = duckdb.sql(f"""
        SELECT w, count(*) AS n FROM (
            SELECT unnest(regexp_extract_all(text, '\\S+')) AS w
            FROM '{sf_dir}/documents.parquet')
        GROUP BY w ORDER BY n DESC, w ASC
    """).df()
    ref_merges = bpe_merges_from_histogram(hist["w"].tolist(),
                                           hist["n"].tolist(), N_MERGES)

    encoded = bpe_encode_counts(docs, model, "text", out_col="n_bpe")
    total_bpe = encoded.aggregate(Sum("n_bpe", alias_name="s"))["s"]
    ranks = model.ranks
    serial_total = int(sum(len(bpe_encode_word(w, ranks)) * int(c)
                           for w, c in zip(hist["w"], hist["n"])))
    total_ws = int(hist["n"].sum())
    total_chars = int(hist["w"].str.len().mul(hist["n"]).sum())
    return pd.DataFrame({
        "n_word_types": pd.array([len(hist)], dtype="int64"),
        "total_ws_tokens": pd.array([total_ws], dtype="int64"),
        "n_merges_learned": pd.array([len(model.merges)], dtype="int64"),
        "merges_match_histogram_oracle": [model.merges == ref_merges],
        "encode_total_matches_serial": [int(total_bpe) == serial_total],
        "token_total_bounds_ok": [
            total_ws <= int(total_bpe) <= total_chars + total_ws],
    })


def _semdedup_stats(sf_dir: str):
    """SemDeDup (Abbas et al. 2023) semantic dedup over embeddings:
    IVF multi-probe candidate pairs → drop every item with a
    smaller-id cosine-duplicate → broadcast/sharded tag stage. The
    exact global duplicate-member set is recomputed in-query with the
    brute-force path; the oracle recomputes the same exact counts with
    list_cosine_similarity and checks the subset/recall/consistency
    booleans (precision is exact by construction; recall ≥ 0.8 from
    multi-probe assignment — measured 1.0 here)."""
    from presto_bloomfilter_ray.functions import (
        cosine_neardup_pairs, semdedup)

    T = 0.45
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    tagged = semdedup(emb, threshold=T, ncentroids=8, assign_m=3).to_pandas()
    dropped = set(tagged.loc[tagged["is_semdup"], "vec_id"].astype(int))
    exact = cosine_neardup_pairs(emb, threshold=T)
    members = set(exact["b"].astype(int))
    recall = len(dropped & members) / max(1, len(members))
    return pd.DataFrame({
        "n_total": pd.array([len(tagged)], dtype="int64"),
        "n_semantic_dup_members": pd.array([len(members)], dtype="int64"),
        "dropped_subset_ok": [dropped <= members],
        "recall_ge_80pct": [bool(recall >= 0.8)],
        "count_consistent": [int(tagged["is_semdup"].sum()) == len(dropped)],
    })


def _perplexity_filter_by_lang(sf_dir: str):
    """CCNet-style LM quality filter: a conditional character-trigram
    model is trained distributed (three bounded hash-count exchanges,
    model size ≈ alphabet³ so it broadcasts at any corpus size), then
    every document is scored with a vectorized mean-NLL map stage and
    bucketed at a fixed fluency threshold. The oracle recomputes the
    identical model and per-doc scores from REAL substr n-grams."""
    from presto_bloomfilter_ray.functions import (
        score_perplexity, train_char_lm)

    THRESH = 0.78
    docs = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    lm = train_char_lm(docs, "text", alpha=0.5)
    scored = score_perplexity(docs, lm, "text", out_col="nll")

    def bucket(b: pa.Table) -> pa.Table:
        nll = np.asarray(b.column("nll"), dtype=np.float64)
        ids = np.asarray(b.column("doc_id"), dtype=np.int64)
        valid = ~np.isnan(nll)
        fluent = valid & (nll <= THRESH)
        return pa.table({
            "lang": b.column("lang"),
            "n_scored": pa.array(valid.astype(np.int64)),
            "n_fluent": pa.array(fluent.astype(np.int64)),
            "sum_fluent_ids": pa.array(np.where(fluent, ids, 0)),
        })

    out = (scored.map_batches(bucket, batch_format="pyarrow")
           .groupby("lang")
           .sum(["n_scored", "n_fluent", "sum_fluent_ids"])
           .to_pandas()
           .rename(columns={"sum(n_scored)": "n_scored",
                            "sum(n_fluent)": "n_fluent",
                            "sum(sum_fluent_ids)": "sum_fluent_ids"})
           .sort_values("lang").reset_index(drop=True))
    for c in ["n_scored", "n_fluent", "sum_fluent_ids"]:
        out[c] = out[c].astype("int64")
    return out


def _dsir_select_by_lang(sf_dir: str):
    """DSIR-style importance resampling (Xie et al. 2023): select 100
    documents whose unigram distribution is closest to the src0 target
    slice, via smoothed log-ratio weights + deterministic Gumbel
    top-k. Two vocabulary-sized count exchanges fit the model; scoring
    broadcasts the log-ratio table and keeps a local top-k per batch.
    The oracle recomputes weights, Gumbel keys (same multiplicative-
    hash uniform), rounding, and tie-break — the selected SET is
    hash-checked, not just its size."""
    from presto_bloomfilter_ray.functions import dsir_select

    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "lang", "text", "source"])

    def only_src0(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b.column("source"), "src0"))

    target = docs.map_batches(only_src0, batch_format="pyarrow")
    sel = dsir_select(docs, target, 100, "text", "doc_id").to_pandas()
    out = (sel.groupby("lang", as_index=False)
           .agg(n_sel=("doc_id", "size"), sum_ids=("doc_id", "sum"))
           .sort_values("lang").reset_index(drop=True))
    out["n_sel"] = out["n_sel"].astype("int64")
    out["sum_ids"] = out["sum_ids"].astype("int64")
    return out


def _substring_scrub_stats(sf_dir: str):
    """Corpus-level repeated-substring scrub (window-hash analog of
    Lee et al. 2021 ExactSubstr dedup): 20-char windows occurring in
    ≥2 distinct documents are cut everywhere. One vectorized rolling-
    hash pass per batch; the shuffle carries (window_hash, n_docs)
    pairs; the hot set broadcasts (or shards above the limit); the
    scrub is a pure map stage. All four output counts are exact
    integers the oracle recomputes by exploding REAL substrings — so
    the hash-level pipeline is checked against character-level truth
    (collision contract P ≈ n²/2⁶⁵)."""
    from ray.data.aggregate import Sum

    from presto_bloomfilter_ray.functions import (
        hot_windows, scrub_repeated_substrings)

    W = 20
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    hot = hot_windows(docs, "text", window=W, min_docs=2)
    scrubbed = scrub_repeated_substrings(
        docs, hot, window=W, text_col="text", out_col="text_clean",
        removed_col="n_removed", hot_starts_col="n_hot_starts")

    def agg(b: pa.Table) -> pa.Table:
        rem = np.asarray(b.column("n_removed"))
        hs = np.asarray(b.column("n_hot_starts"))
        return pa.table({
            "removed": pa.array([int(rem.sum())], pa.int64()),
            "hot_starts": pa.array([int(hs.sum())], pa.int64()),
            "affected": pa.array([int((rem > 0).sum())], pa.int64()),
        })

    a = (scrubbed.map_batches(agg, batch_format="pyarrow")
         .aggregate(Sum("removed", alias_name="removed"),
                    Sum("hot_starts", alias_name="hot_starts"),
                    Sum("affected", alias_name="affected")))
    return pd.DataFrame({
        "n_hot_windows": pd.array([hot.n], dtype="int64"),
        "n_hot_positions": pd.array([a["hot_starts"]], dtype="int64"),
        "n_docs_affected": pd.array([a["affected"]], dtype="int64"),
        "total_removed_chars": pd.array([a["removed"]], dtype="int64"),
    })


def _nb_langid_confusion(sf_dir: str):
    """Distributed multinomial Naive Bayes classifier (the fastText-
    style quality/domain-filter stage of a training-data pipeline):
    train on the doc_id%5!=0 split with `lang` labels (two vocabulary-
    sized exchanges, map-side (label,term) combine), broadcast the
    (V×L) log-prob matrix, score the held-out split in a pure map
    stage (searchsorted + np.add.at scatter). Output is the integer
    confusion matrix; the oracle recomputes the identical model and
    argmax in SQL (same \\S+ tokens, add-1 smoothing, round(score,6)
    before argmax, label-asc tie-break)."""
    from presto_bloomfilter_ray.functions import nb_predict, nb_train

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def split(keep_test: bool):
        def f(b: pa.Table) -> pa.Table:
            m = (np.asarray(b.column("doc_id")) % 5) == 0
            return b.filter(pa.array(m if keep_test else ~m))
        return f

    train = docs.map_batches(split(False), batch_format="pyarrow")
    test = docs.map_batches(split(True), batch_format="pyarrow")
    model = nb_train(train, "text", "lang", alpha=1.0)
    pred = nb_predict(test, model, "text", out_col="pred_lang")
    out = (pred.groupby(["lang", "pred_lang"]).count().to_pandas()
           .rename(columns={"lang": "true_lang", "count()": "n_docs"})
           .sort_values(["true_lang", "pred_lang"]).reset_index(drop=True))
    out["n_docs"] = out["n_docs"].astype("int64")
    return out[["true_lang", "pred_lang", "n_docs"]]


def _quantile_band_textlen(sf_dir: str):
    """Two-pass sketch-driven outlier-length filter: KLL quantile
    cutoffs (one streaming pass, broadcast scalars) then a pure map
    filter. Exact value: n_total; bound booleans: each cutoff's
    empirical rank within 3·rank_error of its target, kept fraction
    within (hi_q - lo_q) ± 6·rank_error, and the filtered Dataset's
    count consistent with the indicator counts."""
    from ray.data.aggregate import Sum

    from presto_bloomfilter_ray.functions import quantile_band_filter

    lo_q, hi_q = 0.05, 0.95
    docs = _read(sf_dir, "documents", columns=["n_chars"])
    filtered, lo, hi, sk = quantile_band_filter(docs, "n_chars", lo_q, hi_q)
    eps = sk.rank_error_bound()

    def counts(b: pa.Table) -> pa.Table:
        v = np.asarray(b.column("n_chars"), dtype=np.float64)
        return pa.table({"n": pa.array([len(v)], pa.int64()),
                         "n_lt_lo": pa.array([int((v < lo).sum())], pa.int64()),
                         "n_le_hi": pa.array([int((v <= hi).sum())], pa.int64())})

    agg = (docs.map_batches(counts, batch_format="pyarrow")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("n_lt_lo", alias_name="n_lt_lo"),
                      Sum("n_le_hi", alias_name="n_le_hi")))
    n, n_lt_lo, n_le_hi = agg["n"], agg["n_lt_lo"], agg["n_le_hi"]
    n_kept = filtered.count()
    return pd.DataFrame({
        "n_total": pd.array([n], dtype="int64"),
        "lo_rank_ok": [abs(n_lt_lo / n - lo_q) <= 3 * eps],
        "hi_rank_ok": [abs(n_le_hi / n - hi_q) <= 3 * eps],
        "kept_frac_ok": [abs(n_kept / n - (hi_q - lo_q)) <= 6 * eps],
        "filter_consistent": [n_kept == n_le_hi - n_lt_lo],
    })


def _tfidf_top_terms(sf_dir: str):
    """Per-language TF-IDF top-5 terms (tf · ln(n_docs/df), rounded
    before ranking) — map-side (lang, term) combine, vocabulary-sized
    exchange, local top-k. Oracle = the same definition in SQL."""
    from presto_bloomfilter_ray.functions import tfidf_top_terms

    docs = _read(sf_dir, "documents", columns=["text", "lang"])
    return tfidf_top_terms(docs, top_k=5)


def _bm25_search_documents(sf_dir: str):
    """BM25 top-10 retrieval for a 3-term query — text tokenized once
    into a narrow (doc_id, dl, tf[Q]) dataset, O(Q) stats fold,
    broadcast-idf vectorized scoring with per-batch local top-k.
    Oracle = `bm25_sql_mirror`, generated from the SAME patterns,
    operation order, rounding, and tie-break."""
    from presto_bloomfilter_ray.functions import bm25_search

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bm25_search(docs, _BM25_TERMS, top_k=10)


_BM25_TERMS = ["hash", "join", "filter"]
_BM25_IDX_TERMS = ["spark", "window", "merge", "sort"]


def _bm25_index_search_documents(sf_dir: str):
    """Persisted BM25 inverted index (functions/search_index.py): build
    term-sharded postings + doc-stats parquet once, then search by
    reading ONLY the query terms' shards (term-level predicate
    pushdown) and joining postings against the doc-stats table
    (key-partitioned, never broadcast). Scores are bit-identical to
    `bm25_search` / the generated SQL mirror: same tf/dl definitions,
    per-term accumulator columns (one nonzero row per doc per column,
    so distributed Sum order cannot perturb them), fixed term-order
    cross add."""
    import shutil
    import uuid

    from presto_bloomfilter_ray.functions import (
        bm25_index_build,
        bm25_index_search,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    root = f"/tmp/bm25-index-{uuid.uuid4().hex[:8]}"
    try:
        bm25_index_build(docs, root, n_shards=8)
        return bm25_index_search(root, _BM25_IDX_TERMS, top_k=10)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _bm25_index_incremental(sf_dir: str):
    """Incremental BM25 index: build over the even-id half of the
    corpus, APPEND the odd-id half (one generation-tagged chunk per
    touched shard, meta bump as commit point — functions/
    search_index.py bm25_index_append, the reference's persist→load→
    probe loop at postings level), then search. Because appended
    generations never share a doc with earlier ones, scores are
    bit-identical to a one-shot build over the whole corpus — so the
    oracle is the SAME generated SQL mirror as the one-shot query."""
    import shutil
    import uuid

    from presto_bloomfilter_ray.functions import (
        bm25_index_append,
        bm25_index_build,
        bm25_index_search,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def half(rem):
        return lambda b: b.filter(
            pc.equal(pc.bit_wise_and(b.column("doc_id").cast(pa.int64()), 1),
                     rem))

    root = f"/tmp/bm25-index-inc-{uuid.uuid4().hex[:8]}"
    try:
        bm25_index_build(docs.map_batches(half(0), batch_format="pyarrow"),
                         root, n_shards=8)
        bm25_index_append(docs.map_batches(half(1), batch_format="pyarrow"),
                          root)
        return bm25_index_search(root, _BM25_IDX_TERMS, top_k=10)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _pack_sequences_documents(sf_dir: str):
    """Token-budget sequence packing plan over documents (budget 64,
    16 hash partitions): over-budget docs split into budget-sized
    pieces, per-partition deterministic next-fit-decreasing. Exact
    columns (n_pieces, total_tokens) are SQL-computable from the same
    \\S+ token count; the bin-packing invariants (every pack ≤ budget,
    ceil(total/budget) ≤ n_packs ≤ 2·total/budget + n_parts) are
    emitted as bound booleans."""
    from presto_bloomfilter_ray.functions import pack_sequences, pack_stats

    budget, n_parts = 64, 16
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    plan = pack_sequences(docs, budget=budget, n_parts=n_parts)
    s = pack_stats(plan, budget=budget)
    total, n_packs = s["total_tokens"], s["n_packs"]
    return pd.DataFrame({
        "n_pieces": pd.array([s["n_pieces"]], dtype="int64"),
        "total_tokens": pd.array([total], dtype="int64"),
        "all_packs_within_budget": [s["max_pack_tokens"] <= budget],
        "pack_count_lower_ok": [n_packs >= -(-total // budget)],
        "pack_count_upper_ok": [n_packs <= 2 * total / budget + n_parts],
    })


def _events_sliding(sf_dir: str):
    """Sliding 1h windows stepping 30min over events (count + sum)."""
    from presto_bloomfilter_ray.functions import sliding_aggregate

    ev = _read(sf_dir, "events", columns=["ts", "event_type", "value"])
    agg = sliding_aggregate(ev, "ts", ["event_type"], size_s=3600, step_s=1800,
                            value_col="value")
    df = agg.to_pandas()
    df["sum_value"] = df["sum_value"].round(4)
    df["window_start"] = df["window_start"].astype("datetime64[us]")
    return df[["event_type", "window_start", "n_events", "sum_value"]]


def _sliding_hll_users(sf_dir: str):
    """Sketch × window composition: per sliding 2h/1h window, HLL
    distinct users through the grouped native aggregate, each window's
    estimate checked against the exact in-query DuckDB distinct count
    within the published 3·1.04/√m bound (small windows get the ±2
    absolute slack, as hll_per_host). Emits only deterministic
    columns."""
    import duckdb

    from presto_bloomfilter_ray import HyperLogLog
    from presto_bloomfilter_ray.engine import SketchAgg
    from presto_bloomfilter_ray.functions.windows import (
        explode_sliding_windows,
    )

    ev = _read(sf_dir, "events", columns=["ts", "user_id"])
    fanned = ev.map_batches(
        lambda b: explode_sliding_windows(b, "ts", size_s=7200, step_s=3600),
        batch_format="pyarrow")
    est = (fanned.groupby("window_start")
           .aggregate(SketchAgg(lambda: HyperLogLog(12), on="user_id",
                                alias_name="est", finalize_mode="estimate"))
           .to_pandas())
    exact = duckdb.sql(f"""
        WITH e AS (SELECT ts, user_id FROM '{sf_dir}/events.parquet'),
        fan AS (
            SELECT user_id, unnest([
                to_timestamp(floor(epoch(ts) / 3600) * 3600),
                to_timestamp((floor(epoch(ts) / 3600) - 1) * 3600)
            ]) AS window_start FROM e
        )
        SELECT window_start, count(DISTINCT user_id) AS n
        FROM fan GROUP BY window_start
    """).df()
    exact["window_start"] = exact["window_start"].dt.tz_localize(None)
    est["window_start"] = est["window_start"].astype("datetime64[us]")
    merged = est.merge(exact, on="window_start", how="outer")
    bound = 3 * HyperLogLog(12).relative_error_bound()
    diff = (merged["est"] - merged["n"]).abs()
    ok = (diff / merged["n"].clip(lower=1) <= bound) | (diff <= 2)
    return pd.DataFrame({
        "n_windows": [int(len(merged))],
        "all_windows_covered": [bool(merged["est"].notna().all()
                                     and merged["n"].notna().all())],
        "all_within_bound": [bool(ok.all())],
    })


def _url_blocklist_filter(sf_dir: str):
    """Bloom host-blocklist filtering over the generated webpages table
    (functions/urls.py host_filter — build once over the blocklist,
    broadcast, anti-probe hosts in a pure map stage). Kept/dropped
    counts equal the exact in-query DuckDB NOT-IN counts (Bloom false
    = definite negative; fpp 1e-9 on ~2k rows cannot flip a count)."""
    import duckdb

    from presto_bloomfilter_ray.functions import host_filter
    from presto_bloomfilter_ray.sources import ensure_webpages

    n_docs = duckdb.sql(
        f"select count(*) from '{sf_dir}/documents.parquet'").fetchone()[0]
    path = ensure_webpages(max(2000, int(n_docs) * 4))
    blocked = [f"host{i:05d}.example.com" for i in range(0, 40)]
    pages = _rd().read_parquet(path, columns=["url"])
    kept = host_filter(pages, blocked).count()
    total = pages.count()
    exact = duckdb.sql(f"""
        SELECT count(*) FROM '{path}/*.parquet'
        WHERE split_part(url, '/', 3) NOT IN (
            {",".join("'" + h + "'" for h in blocked)})
    """).fetchone()[0]
    return pd.DataFrame({
        "n_total": [int(total)],
        "n_kept_matches_exact": [bool(kept == int(exact))],
        "n_dropped_gt_0": [bool(total - kept > 0)],
    })


def _events_sessions(sf_dir: str):
    """Per-user 30-minute-gap sessionization, top-level stats."""
    from ray.data.aggregate import Count, Max, Sum

    from presto_bloomfilter_ray.functions import session_windows

    ev = _read(sf_dir, "events", columns=["ts", "user_id", "event_id"])
    sess = session_windows(ev, "ts", "user_id", gap_s=1800, order_cols=["event_id"])
    agg = sess.groupby("user_id").aggregate(
        Count(alias_name="n_sessions"),
        Sum("n_events", alias_name="n_events"),
        Max("session_id", alias_name="max_session_id"),
    )
    return agg


# --------------------------------------------------------------- multimodal
def _multimodal_image_features(sf_dir: str):
    """Multimodal plumbing over opaque binary columns: the webpages
    table's html bytes run through the actor-pool decode →
    feature-extract stages (decode itself is the documented
    deterministic stub — no image libs in this container; the Ray-side
    schema/batching/actor contract is what's exercised). Deterministic
    booleans: every row produces a fixed-size pixel tensor and feature
    vector, and the stub decode is content-deterministic (same bytes →
    same features)."""
    import duckdb

    from presto_bloomfilter_ray.functions.multimodal import (
        ImageDecode,
        ImageFeatures,
    )
    from presto_bloomfilter_ray.sources import ensure_webpages

    n_docs = duckdb.sql(
        f"select count(*) from '{sf_dir}/documents.parquet'").fetchone()[0]
    path = ensure_webpages(max(2000, int(n_docs) * 4))
    pages = _rd().read_parquet(path, columns=["url", "html"])
    out = (
        pages.map_batches(ImageDecode, fn_constructor_kwargs=dict(
            height=16, width=16, data_col="html"),
            batch_format="pyarrow", batch_size=256, concurrency=2)
        .map_batches(ImageFeatures, fn_constructor_kwargs=dict(
            height=16, width=16),
            batch_format="pyarrow", batch_size=256, concurrency=2)
    )
    feats = out.select_columns(["url", "features"]).to_pandas()
    dims = feats["features"].map(len).unique()
    # determinism: re-decode the first row and compare
    first = pages.take(1)[0]
    one = pa.table({"url": [first["url"]], "html": [first["html"]]})
    f2 = ImageFeatures(height=16, width=16)(
        ImageDecode(height=16, width=16, data_col="html")(one))
    same = np.allclose(
        np.asarray(f2.column("features")[0].as_py()),
        np.asarray(feats.loc[feats["url"] == first["url"], "features"].iloc[0]))
    return pd.DataFrame({
        "n_rows_ok": [bool(len(feats) == pages.count())],
        "feature_dim_fixed": [bool(len(dims) == 1 and dims[0] == 6)],
        "decode_deterministic": [bool(same)],
    })


def _multimodal_av_pipeline(sf_dir: str):
    """Audio/video plumbing over opaque binary columns: frame-sampling
    actor-pool stages (decode stubs — no ffmpeg in this container; the
    schema/batch/actor contract is what's exercised). Deterministic
    booleans: fixed-size outputs, bounded energies, content-determinism."""
    import duckdb

    from presto_bloomfilter_ray.functions.multimodal import (
        AudioFrameSample,
        VideoFrameSample,
    )
    from presto_bloomfilter_ray.sources import ensure_webpages

    n_docs = duckdb.sql(
        f"select count(*) from '{sf_dir}/documents.parquet'").fetchone()[0]
    path = ensure_webpages(max(2000, int(n_docs) * 4))
    pages = _rd().read_parquet(path, columns=["url", "html"])
    out = (
        pages.map_batches(AudioFrameSample, fn_constructor_kwargs=dict(
            n_frames=8, data_col="html"),
            batch_format="pyarrow", batch_size=128, concurrency=2)
        .map_batches(VideoFrameSample, fn_constructor_kwargs=dict(
            n_frames=2, height=8, width=8, data_col="html"),
            batch_format="pyarrow", batch_size=128, concurrency=2)
    )
    df = out.select_columns(["url", "frame_energy", "frames"]).to_pandas()
    e_dims = df["frame_energy"].map(len).unique()
    f_dims = df["frames"].map(len).unique()
    e_ok = all(0.0 <= v <= 1.0 for vec in df["frame_energy"] for v in vec)
    first = pages.take(1)[0]
    one = pa.table({"url": [first["url"]], "html": [first["html"]]})
    redo = AudioFrameSample(n_frames=8, data_col="html")(one)
    same = np.allclose(
        np.asarray(redo.column("frame_energy")[0].as_py()),
        np.asarray(df.loc[df["url"] == first["url"], "frame_energy"].iloc[0]))
    return pd.DataFrame({
        "n_rows_ok": [bool(len(df) == pages.count())],
        "audio_dim_fixed": [bool(len(e_dims) == 1 and e_dims[0] == 8)],
        "video_dim_fixed": [bool(len(f_dims) == 1 and f_dims[0] == 2 * 8 * 8 * 3)],
        "energies_bounded": [bool(e_ok)],
        "decode_deterministic": [bool(same)],
    })


def _multimodal_real_decode(sf_dir: str):
    """REAL (not stubbed) multimodal decode, end to end and exactly
    SQL-checkable: per document a solid-color P6 PPM image, a
    constant-amplitude PCM WAV clip and a 2-frame PPM video stream are
    synthesized from doc_id alone, then decoded by the real decoders
    (functions/multimodal.py: pure-numpy PPM parser, stdlib-wave PCM
    reader, PPM frame-stream sampler — strict=True, so any fake-decode
    fallback would raise). Because each payload is constant-valued,
    every decoded statistic is an exact function of doc_id: channel
    means are the solid color, window RMS is |amplitude| quantized to
    int16/32768 (exact in float32 AND in float64 sums — all values are
    multiples of 2^-15, so the oracle reproduces the sum bit-exactly),
    frame-0 mean is the first frame's gray level."""
    import io as _io
    import wave as _wave

    from presto_bloomfilter_ray.functions.multimodal import (
        AudioFrameSample,
        ImageDecode,
        ImageFeatures,
        VideoFrameSample,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id"])

    def _ppm_bytes(rgb, h=6, w=6):
        px = np.broadcast_to(np.array(rgb, np.uint8), (h, w, 3))
        return b"P6\n%d %d\n255\n" % (w, h) + px.tobytes()

    def _wav_bytes(amp, n=160):
        buf = _io.BytesIO()
        with _wave.open(buf, "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(
                np.clip(np.full(n, amp) * 32767, -32768, 32767)
                .astype("<i2").tobytes())
        return buf.getvalue()

    def synth(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column("doc_id"), dtype=np.int64)
        imgs = [_ppm_bytes((i * 7 % 256, i * 11 % 256, i * 13 % 256))
                for i in ids]
        wavs = [_wav_bytes((i % 50) / 100.0) for i in ids]
        vids = [_ppm_bytes((i * 17 % 256,) * 3, 4, 4)
                + _ppm_bytes((i * 19 % 256,) * 3, 4, 4) for i in ids]
        return pa.table({
            "doc_id": pa.array(ids),
            "img": pa.array(imgs, pa.large_binary()),
            "wav": pa.array(wavs, pa.large_binary()),
            "vid": pa.array(vids, pa.large_binary()),
        })

    class DecodeAll:
        """The four real decode stages FUSED into one actor pool: four
        chained pools would reserve 4 × concurrency CPUs and starve the
        upstream read/synth tasks on a small ray.init (the wedge the
        round-4 driver would hit at num_cpus=8); fusing also keeps the
        binary columns from making three extra object-store hops."""

        def __init__(self):
            self.stages = [
                ImageDecode(height=6, width=6, data_col="img", strict=True),
                ImageFeatures(height=6, width=6),
                AudioFrameSample(n_frames=4, data_col="wav", strict=True),
                VideoFrameSample(n_frames=2, height=4, width=4,
                                 data_col="vid", strict=True),
            ]

        def __call__(self, b: pa.Table) -> pa.Table:
            for stage in self.stages:
                b = stage(b)
            return b

    decoded = (
        docs.map_batches(synth, batch_format="pyarrow", batch_size=512)
        .map_batches(DecodeAll, batch_format="pyarrow", batch_size=512,
                     concurrency=2)
    )

    def partial(b: pa.Table) -> pa.Table:
        n = b.num_rows
        feats = np.asarray(b.column("features").combine_chunks().flatten(),
                           dtype=np.float64).reshape(n, 6)
        energy = np.asarray(
            b.column("frame_energy").combine_chunks().flatten(),
            dtype=np.float64).reshape(n, 4)
        frames = np.asarray(b.column("frames").combine_chunks().flatten(),
                            dtype=np.float64).reshape(n, 2, -1)
        return pa.table({
            "n_docs": pa.array([n], pa.int64()),
            "sum_mean_r": pa.array([int(np.rint(feats[:, 0]).sum())],
                                   pa.int64()),
            "sum_mean_g": pa.array([int(np.rint(feats[:, 1]).sum())],
                                   pa.int64()),
            "sum_mean_b": pa.array([int(np.rint(feats[:, 2]).sum())],
                                   pa.int64()),
            "sum_energy0": pa.array([float(energy[:, 0].sum())],
                                    pa.float64()),
            "sum_vid_f0": pa.array(
                [int(np.rint(frames[:, 0, :].mean(axis=1)).sum())],
                pa.int64()),
        })

    cols = ["n_docs", "sum_mean_r", "sum_mean_g", "sum_mean_b",
            "sum_energy0", "sum_vid_f0"]
    sums = decoded.map_batches(partial, batch_format="pyarrow").sum(cols)
    return pd.DataFrame({
        c: pd.array([sums[f"sum({c})"]],
                    dtype="float64" if c == "sum_energy0" else "int64")
        for c in cols
    })


# ---------------------------------------------------------------- similarity
def _trigram_search_documents(sf_dir: str):
    """Trigram substring index (functions/trigram.py TrigramIndex):
    sharded byte-trigram postings; a query reads only its own
    trigrams' shards, intersects posting lists (never a false
    negative), and verifies candidates exactly. Oracle is the plain
    LIKE scan — value-exact doc ids."""
    import shutil
    import uuid

    from presto_bloomfilter_ray.functions import TrigramIndex

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    root = f"/tmp/tri-index-{uuid.uuid4().hex[:8]}"
    try:
        idx = TrigramIndex(root, n_shards=16).build(docs)
        got = idx.search(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            "merge batch").to_pandas()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    out = got.sort_values("doc_id").reset_index(drop=True)
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


def _trigram_regex_documents(sf_dir: str):
    """Regex search through the trigram index (Cox-style literal
    extraction): 'merge (batch|sort)' must contain the literal
    'merge ', so posting candidates prune the corpus before the RE2
    verify. Oracle is the plain regexp scan — value-exact doc ids."""
    import shutil
    import uuid

    from presto_bloomfilter_ray.functions import TrigramIndex

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    root = f"/tmp/tri-re-{uuid.uuid4().hex[:8]}"
    try:
        idx = TrigramIndex(root, n_shards=16).build(docs)
        got = idx.search_regex(
            _read(sf_dir, "documents", columns=["doc_id", "text"]),
            "merge (batch|sort)").to_pandas()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    out = got.sort_values("doc_id").reset_index(drop=True)
    out["doc_id"] = out["doc_id"].astype("int64")
    return out


def _minhash_join_crawls(sf_dir: str):
    """Cross-corpus fuzzy join (functions/dedup.py minhash_join):
    split documents into 'existing corpus' (doc_id % 3 != 0) and 'new
    crawl' (doc_id % 3 == 0) and find near-dup pairs ACROSS the split.
    Deterministic checks: every exact cross duplicate (identical
    normalized text on both sides) must be found (est = 1 ≥
    threshold), every returned pair crosses the split, estimates ≥
    threshold."""
    import duckdb

    from presto_bloomfilter_ray.functions import minhash_join

    def _side(rem_zero: bool):
        def pick(t):
            ids = np.asarray(t.column("doc_id"))
            m = (ids % 3 == 0) if rem_zero else (ids % 3 != 0)
            return t.filter(pa.array(m))
        return pick

    a = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        _side(False), batch_format="pyarrow", batch_size=None)
    b = _read(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        _side(True), batch_format="pyarrow", batch_size=None)
    pairs = minhash_join(a, b, threshold=0.9).to_pandas()
    got = set(zip(pairs["a_id"].astype(int), pairs["b_id"].astype(int))) \
        if len(pairs) else set()
    exact = duckdb.sql(f"""
        WITH n AS (SELECT doc_id,
                          lower(regexp_replace(text, '\\s+', ' ', 'g')) t
                   FROM '{sf_dir}/documents.parquet')
        SELECT x.doc_id a_id, y.doc_id b_id
        FROM n x JOIN n y ON x.t = y.t
        WHERE x.doc_id % 3 != 0 AND y.doc_id % 3 = 0
    """).df()
    exact_pairs = set(zip(exact["a_id"].astype(int),
                          exact["b_id"].astype(int)))
    cross_ok = bool(all(ai % 3 != 0 and bi % 3 == 0 for ai, bi in got))
    return pd.DataFrame({
        "n_exact_cross_dups": [len(exact_pairs)],
        "exact_all_found": [bool(exact_pairs <= got)],
        "pairs_cross_split": [cross_ok],
        "est_ge_threshold": [bool((pairs["est_jaccard"] >= 0.9).all())
                             if len(pairs) else True],
    })


def _shuffled_export_order(sf_dir: str):
    """Deterministic global shuffle export (functions/shuffle.py):
    hash-range sharded write, concatenated shard files ARE the global
    pseudo-random order. Returns the first 20 rows WITH their rank so
    the driver's sorted compare still pins the order; the oracle
    recomputes the identical permutation as a window row_number."""
    import shutil
    import uuid

    from presto_bloomfilter_ray.functions import (
        read_shuffled,
        shuffled_export,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    out = f"/tmp/shuf-export-{uuid.uuid4().hex[:8]}"
    try:
        shuffled_export(docs, out, "doc_id", n_shards=16)
        head = read_shuffled(out).take(20)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return pd.DataFrame({
        "rank": np.arange(1, 21, dtype=np.int64),
        "doc_id": [int(r["doc_id"]) for r in head],
        "lang": [r["lang"] for r in head],
    })


def _zonemap_pruned_orders(sf_dir: str):
    """Zone-map read pruning (functions/zonemap.py): orders are laid
    out one parquet partition per order-year (the layout a
    date-partitioned ingest produces), a footer-only min/max zone map
    is built DISTRIBUTED over the files, and a 2-year revenue query
    reads ONLY the files the map cannot rule out — with the predicate
    re-applied per fragment, so stats are never trusted for
    exactness. At 100 TB this is the read-pruning catalog: footers
    once, a tiny stats table per corpus, a fraction of the files per
    range query. The run raises if the map failed to actually prune
    the year layout. Money sums ride scaled int64 cents (exact,
    associative) like q1."""
    import shutil
    import uuid

    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions import (
        build_zonemap,
        pruned_read,
        zonemap_prune,
    )

    orders = _read(sf_dir, "orders",
                   columns=["o_orderstatus", "o_totalprice", "o_orderdate"])

    def add_year(b: pa.Table) -> pa.Table:
        return b.append_column("o_year", pc.year(b["o_orderdate"]))

    out = f"/tmp/zonemap-orders-{uuid.uuid4().hex[:8]}"
    try:
        orders.map_batches(add_year, batch_format="pyarrow") \
              .write_parquet(out, partition_cols=["o_year"])
        lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-12-31")
        z = build_zonemap(out, "o_orderdate")
        kept = zonemap_prune(z, lo, hi)
        n_files = len(set(z.column("path").to_pylist()))
        if not (0 < len(kept) < n_files):
            raise RuntimeError(
                f"zone map did not prune: kept {len(kept)}/{n_files}")

        def cents(b: pa.Table) -> pa.Table:
            return b.append_column("_c", pc.round(pc.multiply(
                b["o_totalprice"], pa.scalar(100.0))).cast(pa.int64()))

        agg = (
            pruned_read(out, "o_orderdate", lo, hi, zonemap=z,
                        columns=["o_orderstatus", "o_totalprice",
                                 "o_orderdate"])
            .map_batches(cents, batch_format="pyarrow")
            .groupby("o_orderstatus")
            .aggregate(Count(alias_name="n_orders"),
                       Sum("_c", alias_name="_tc"))
        )
        df = agg.to_pandas()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    df["total_price"] = (df["_tc"] / 100.0).round(2)
    return df[["o_orderstatus", "n_orders", "total_price"]] \
        .sort_values("o_orderstatus").reset_index(drop=True)


def _curriculum_export_documents(sf_dir: str):
    """Deterministic curriculum training order (functions/shuffle.py
    curriculum_export): quality bands first (exact-quantile cutoffs on
    n_chars — longest-document band leads), the hash-shuffle
    pseudo-random order within each band; band/shard-sharded atomic
    write, manifest last, concatenated files ARE the order. Returns
    the first 20 rows WITH rank so the driver's sorted compare pins
    the order; the oracle recomputes the identical banding from
    quantile_disc cutoffs and the identical hash window."""
    import shutil
    import uuid

    from presto_bloomfilter_ray.functions import (
        curriculum_export,
        read_curriculum,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    out = f"/tmp/curriculum-{uuid.uuid4().hex[:8]}"
    try:
        curriculum_export(docs, out, "doc_id", "n_chars",
                          n_bands=4, n_shards=8)
        # read every file before the rmtree: a take(20) would leave
        # read tasks in flight on the removed directory
        head = read_curriculum(out).take_all()[:20]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return pd.DataFrame({
        "rank": np.arange(1, 21, dtype=np.int64),
        "doc_id": [int(r["doc_id"]) for r in head],
        "n_chars": [int(r["n_chars"]) for r in head],
    })


def _skew_report_events(sf_dir: str):
    """Shuffle-skew diagnostic (functions/profile.py skew_report):
    exact per-key group-size percentiles + deterministic heaviest
    keys for a prospective groupby key — the straggler forecast run
    BEFORE committing to the shuffle. Only a 16 B/row bucket_fold
    exchange; quantiles via sort-free histogram narrowing; top keys
    via per-block partial folds. Oracle recomputes everything from
    the plain GROUP BY."""
    from presto_bloomfilter_ray.functions import skew_report

    ev = _read(sf_dir, "events", columns=["user_id"])
    report, tops = skew_report(ev, "user_id", top_k=1)
    report["top1_key"] = np.int64(tops["user_id"][0])
    report["top1_cnt"] = np.int64(tops["cnt"][0])
    return report


def _clustered_read_orders(sf_dir: str):
    """Range-clustered ingest + catalog-served query
    (functions/zonemap.py cluster_by / read_clustered): orders are
    laid out as non-overlapping o_totalprice ranges (one sorted file
    per range, catalog + manifest-last commit), then a price-band
    revenue query is answered from the PERSISTED catalog — no footer
    reads at query time, only intersecting files stream. Exact money
    via scaled int64 cents. Oracle: plain range filter."""
    import shutil
    import uuid

    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions import cluster_by, read_clustered

    orders = _read(sf_dir, "orders",
                   columns=["o_orderstatus", "o_totalprice"])
    out = f"/tmp/clustered-orders-{uuid.uuid4().hex[:8]}"
    try:
        cluster_by(orders, "o_totalprice", out, n_files=8)

        def cents(b: pa.Table) -> pa.Table:
            return b.append_column("_c", pc.round(pc.multiply(
                b["o_totalprice"], pa.scalar(100.0))).cast(pa.int64()))

        agg = (
            read_clustered(out, 50_000.0, 150_000.0)
            .map_batches(cents, batch_format="pyarrow")
            .groupby("o_orderstatus")
            .aggregate(Count(alias_name="n_orders"),
                       Sum("_c", alias_name="_tc"))
        )
        df = agg.to_pandas()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    df["total_price"] = (df["_tc"] / 100.0).round(2)
    return df[["o_orderstatus", "n_orders", "total_price"]] \
        .sort_values("o_orderstatus").reset_index(drop=True)


def _snapshot_delta_documents(sf_dir: str):
    """Crawl-to-crawl snapshot delta (functions/reconcile.py
    snapshot_delta): two deterministic snapshots of the documents
    table (old drops doc_id%7==0; new drops doc_id%5==0 and rewrites
    text for doc_id%11==0) are diffed by exchanging ONLY
    (key, side, value-hash) rows — text never crosses the wire.
    Exact complement to the IBLT path (iblt_reconcile_custkeys):
    handles arbitrarily large diffs and VALUE changes. The oracle is
    the full outer join."""
    from presto_bloomfilter_ray.functions import snapshot_delta

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def keep_mod(m: int):
        def fn(b: pa.Table) -> pa.Table:
            ids = np.asarray(b.column("doc_id"), dtype=np.int64)
            return b.filter(pa.array(ids % m != 0))
        return fn

    old = docs.map_batches(keep_mod(7), batch_format="pyarrow",
                           batch_size=None)

    def rewrite(b: pa.Table) -> pa.Table:
        ids = np.asarray(b.column("doc_id"), dtype=np.int64)
        ch = ids % 11 == 0
        txt = b.column("text").to_pandas()
        txt[ch] = txt[ch] + " v2"
        return pa.table({"doc_id": b.column("doc_id"),
                         "text": pa.array(txt, type=pa.string())})

    new = docs.map_batches(keep_mod(5), batch_format="pyarrow",
                           batch_size=None) \
        .map_batches(rewrite, batch_format="pyarrow", batch_size=None)
    out = snapshot_delta(old, new, "doc_id", "text").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _edit_neighbors_customer(sf_dir: str):
    """Edit-distance similarity self-join (functions/editjoin.py):
    q-gram count/length filtering (Gravano/Ed-Join family) generates
    candidates inside gram-hash buckets, texts attach through two
    co-partitioned shuffles (never broadcast), and survivors are
    verified with a batch-vectorized banded Levenshtein DP. Exactness
    is asserted in-run: the hot-gram cap counter must be zero. The
    oracle is DuckDB's levenshtein over the brute-force self-join."""
    from presto_bloomfilter_ray.functions import edit_distance_pairs

    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_name", "c_nationkey"]) \
        .filter(expr="c_nationkey == 3")
    pairs, stats = edit_distance_pairs(
        cust, max_dist=1, q=3, id_col="c_custkey", text_col="c_name",
        n_parts=8)
    df = pairs.to_pandas()
    if stats["capped_grams"]:
        raise RuntimeError("hot-gram cap fired — result not exact")
    df["dist"] = df["dist"].astype(np.int64)
    return df.sort_values(["a", "b"]).reset_index(drop=True)


def _token_budget_by_lang(sf_dir: str):
    """Per-domain token-budget selection (functions/budget.py): keep
    each language's largest deterministic-hash-order prefix whose
    n_chars total fits the budget. The cutoff is found by weighted
    histogram narrowing over the hash-position axis (map-only passes,
    rows never shuffle); the oracle recomputes the identical rule as a
    window cumsum."""
    from presto_bloomfilter_ray.functions import token_budget_select

    docs = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])
    kept, _ = token_budget_select(
        docs, "doc_id", "lang", "n_chars", 200_000, pull_limit=500)
    from presto_bloomfilter_ray.functions.fold import bucket_fold

    out = bucket_fold(kept, ["lang"],
                      [(None, "count", "n_kept"),
                       ("n_chars", "sum", "chars_kept")]).to_pandas()
    out = out.sort_values("lang").reset_index(drop=True)
    out["n_kept"] = out["n_kept"].astype("int64")
    out["chars_kept"] = out["chars_kept"].astype("int64")
    return out[["lang", "n_kept", "chars_kept"]]


def _ann_topk_cosine(sf_dir: str):
    import duckdb

    from presto_bloomfilter_ray.functions import topk_cosine

    q = np.array(
        duckdb.sql(
            f"select embedding from '{sf_dir}/embeddings.parquet' where vec_id=0"
        ).fetchone()[0],
        dtype=np.float64,
    )
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    top = topk_cosine(emb, q, k=10)
    return top[["vec_id"]]


def _pq_topk_refined(sf_dir: str):
    """Product-quantization ANN (functions/pq.py): train codebooks on
    a bounded sample, encode every vector to m uint8 codes (32×
    compression), ADC-shortlist, exact-cosine rerank. With rerank ≥ n
    the result is EXACTLY the exact top-k by construction, so the
    oracle is the same SQL as ann_topk_cosine."""
    import duckdb

    from presto_bloomfilter_ray.functions import (
        pq_encode,
        pq_search_refined,
        pq_train,
    )

    q = np.array(
        duckdb.sql(
            f"select embedding from '{sf_dir}/embeddings.parquet' where vec_id=0"
        ).fetchone()[0],
        dtype=np.float64,
    )
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    books = pq_train(emb, m=8, nbits=8, seed=7)
    codes = pq_encode(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]), books)
    n = int(emb.count())
    top = pq_search_refined(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        codes, books, q, k=10, rerank=n)
    return top[["vec_id"]]


def _pq_adc_recall(sf_dir: str):
    """Raw ADC search over the compressed codes only (floats never
    read at query time): deterministic recall statement vs the exact
    top-k — the quantized scorer isn't SQL-expressible, so the oracle
    checks the derived booleans."""
    import duckdb

    from presto_bloomfilter_ray.functions import (
        pq_encode,
        pq_search,
        pq_train,
        topk_cosine,
    )

    q = np.array(
        duckdb.sql(
            f"select embedding from '{sf_dir}/embeddings.parquet' where vec_id=0"
        ).fetchone()[0],
        dtype=np.float64,
    )
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    exact_ids = set(topk_cosine(emb, q, k=10)["vec_id"].astype(int))
    books = pq_train(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        m=8, nbits=8, seed=7)
    codes = pq_encode(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]), books)
    adc = pq_search(codes, books, q, k=100)
    got = set(adc["vec_id"].astype(int))
    return pd.DataFrame({
        "k": [10],
        "shortlist": [100],
        "recall_ge_8_of_10": [bool(len(got & exact_ids) >= 8)],
        "code_bytes_per_vec": [8],
    })


def _pq_multiquery_consistency(sf_dir: str):
    """Batched ADC (functions/pq.py pq_search_many): one pass scores
    ALL queries per code batch (k-NN-join building block; PERF §44
    measures 11× over per-query rescans at 16M codes). Deterministic
    check: the batched result must equal per-query pq_search for
    every query."""
    from presto_bloomfilter_ray.functions import (
        pq_encode,
        pq_search,
        pq_search_many,
        pq_train,
    )

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    books = pq_train(emb, m=8, nbits=8, seed=7)
    codes = pq_encode(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        books).materialize()
    import duckdb

    qrows = duckdb.sql(
        f"select embedding from '{sf_dir}/embeddings.parquet' "
        f"where vec_id in (0, 1, 2) order by vec_id").fetchall()
    qs = np.array([r[0] for r in qrows], dtype=np.float64)
    many = pq_search_many(codes, books, qs, k=10)
    ok = True
    for qi in range(3):
        solo = pq_search(codes, books, qs[qi], k=10)
        sub = many[many["query_idx"] == qi]
        ok &= sub["vec_id"].tolist() == solo["vec_id"].tolist()
    return pd.DataFrame({
        "n_queries": [3],
        "k": [10],
        "batched_equals_per_query": [bool(ok)],
    })


def _ivfpq_topk_refined(sf_dir: str):
    """IVF + residual-PQ index (functions/pq.py IVFPQIndex): coarse
    route → residual ADC over 8-byte codes → exact rerank. Probing
    every bucket with rerank ≥ n recovers the exact top-k by
    construction, so the oracle is the exact-cosine SQL."""
    import shutil
    import uuid

    import duckdb

    from presto_bloomfilter_ray.functions import IVFPQIndex

    q = np.array(
        duckdb.sql(
            f"select embedding from '{sf_dir}/embeddings.parquet' where vec_id=0"
        ).fetchone()[0],
        dtype=np.float64,
    )
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n = int(emb.count())
    root = f"/tmp/ivfpq-{uuid.uuid4().hex[:8]}"
    try:
        idx = IVFPQIndex(root, ncentroids=8, m=8, nbits=8).build(
            _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]))
        top = idx.search(
            q, k=10, nprobe=8,
            refine_ds=_read(sf_dir, "embeddings",
                            columns=["vec_id", "embedding"]),
            rerank=n)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return top[["vec_id"]]


def _embedding_neardup(sf_dir: str):
    from presto_bloomfilter_ray.functions import cosine_neardup_pairs

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return cosine_neardup_pairs(emb, threshold=0.45)


def _ivf_neardup_recall(sf_dir: str):
    """IVF-bucketed near-dup pairs vs the exact broadcast result: the
    IVF path is precision-exact (true cosine inside buckets ⇒ subset of
    the brute-force pairs); multi-probe assignment keeps recall high.
    Emitted as deterministic booleans so the driver can oracle-check an
    approximate operator."""
    from presto_bloomfilter_ray.functions import (
        cosine_neardup_pairs,
        cosine_neardup_pairs_ivf,
    )

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    exact = cosine_neardup_pairs(emb, threshold=0.45)
    ivf = cosine_neardup_pairs_ivf(emb, threshold=0.45, ncentroids=8,
                                   assign_m=3).to_pandas()
    exact_set = set(zip(exact["a"].astype(int), exact["b"].astype(int)))
    ivf_set = set(zip(ivf["a"].astype(int), ivf["b"].astype(int)))
    recall = len(ivf_set & exact_set) / max(1, len(exact_set))
    return pd.DataFrame({
        "n_exact_pairs": [len(exact_set)],
        "ivf_subset_of_exact": [ivf_set <= exact_set],
        "recall_ge_80pct": [bool(recall >= 0.8)],
    })


def _kmeans_embeddings(sf_dir: str):
    """Distributed spherical k-means (functions/similarity.py
    kmeans_fit): Lloyd iterations as map_batches passes — the exchange
    is k partial rows per batch (count + coordinate sum + inertia),
    never vectors; driver state is the (k, d) centroid matrix.
    Deterministic checks: every vector assigned (counts sum to
    count(*)), inertia non-increasing across iterations, and the
    distributed assignment equals a serial numpy recompute with the
    same centroids (exchange exactness)."""
    from presto_bloomfilter_ray.functions import kmeans_assign, kmeans_fit

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    k = 8
    cents, info = kmeans_fit(emb, k=k, iters=4, batch_size=256)
    asn = kmeans_assign(emb, cents).select_columns(
        ["vec_id", "cluster", "embedding"]).to_pandas()
    m = np.stack(asn["embedding"].to_numpy()).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    serial = np.argmax(m @ cents.T.astype(np.float64), axis=1)
    inertia = info["inertia"]
    return pd.DataFrame({
        "n_vecs": [int(info["counts"].sum())],
        "n_clusters": [k],
        "all_assigned": [bool(len(asn) == int(info["counts"].sum()))],
        "inertia_monotone": [bool(all(
            b <= a + 1e-9 for a, b in zip(inertia, inertia[1:])))],
        "matches_serial": [bool((serial == asn["cluster"].to_numpy()).all())],
    })


def _ivf_ann_topk(sf_dir: str):
    """IVFIndex build → bucketed parquet → nprobe search, checked
    against exact brute-force top-k (recall ≥ 8/10 probing 6 of 8
    buckets — the synthetic embeddings have little cluster structure,
    so a deep probe is needed; real corpora cluster far better)."""
    import shutil
    import uuid

    import duckdb

    from presto_bloomfilter_ray.functions import IVFIndex, topk_cosine

    q = np.array(
        duckdb.sql(
            f"select embedding from '{sf_dir}/embeddings.parquet' where vec_id=0"
        ).fetchone()[0],
        dtype=np.float64,
    )
    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    exact_ids = set(topk_cosine(emb, q, k=10)["vec_id"].astype(int))
    root = f"/tmp/ivf-index-{uuid.uuid4().hex[:8]}"
    try:
        idx = IVFIndex(root, ncentroids=8).build(
            _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]))
        got = idx.search(q, k=10, nprobe=6)
        got_ids = set(got["vec_id"].astype(int))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return pd.DataFrame({
        "k": [10],
        "recall_ge_8_of_10": [bool(len(got_ids & exact_ids) >= 8)],
    })


def _theta_custkey_overlap(sf_dir: str):
    """Theta/KMV set algebra over two key sets — k above saturation, so
    the sketch is EXACT and SQL-checkable end to end."""
    from presto_bloomfilter_ray import ThetaSketch
    from presto_bloomfilter_ray.engine import build_sketch

    cust = _read(sf_dir, "customer", columns=["c_custkey"])
    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    tc = build_sketch(cust, "c_custkey", lambda: ThetaSketch(65536))
    to = build_sketch(orders, "o_custkey", lambda: ThetaSketch(65536))
    n_c = round(tc.estimate())
    n_common = round(tc.intersection_estimate(to))
    return pd.DataFrame({
        "n_customers": [n_c],
        "n_order_custkeys": [round(to.estimate())],
        "n_common": [n_common],
        "n_customers_no_orders": [round(tc.difference_estimate(to))],
    })


# ------------------------------------------------------------- sketch (est.)
# Estimate queries carry their own acceptance test: the exact reference
# is computed with DuckDB INSIDE the query and the published error
# bound is emitted as a boolean, so the driver's oracle compare becomes
# a deterministic pass/fail (same trick as theta_custkey_overlap).
def _hll_distinct(sf_dir: str):
    import duckdb

    from presto_bloomfilter_ray import HyperLogLog
    from presto_bloomfilter_ray.engine import build_sketch

    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    hll = build_sketch(orders, "o_custkey", lambda: HyperLogLog(14))
    est = float(hll.estimate())
    exact = duckdb.sql(
        f"select count(distinct o_custkey) from '{sf_dir}/orders.parquet'"
    ).fetchone()[0]
    rel_err = abs(est - exact) / max(1, exact)
    return pd.DataFrame({
        "n_distinct_exact": [int(exact)],
        "hll_err_within_bound": [bool(rel_err <= 3 * hll.relative_error_bound())],
    })


def _apbf_sliding_users(sf_dir: str):
    """Sliding-window membership via an age-partitioned Bloom filter
    (sketches/apbf.py): ONE map pass over events routes each row to its
    day epoch inside per-batch partial filters; the standard fan-in
    tree unions the epoch maps (merge never trims, so the tree is
    order-independent); one finalize `advance` trims to the 7-day
    window and physically drops expired bits. Deterministic checks:
    the window's exact distinct-user count (SQL), every recent user
    reads present (structural no-FN), every stale user reads absent
    (deterministic for this input at p=1e-6), and expired epochs hold
    zero bytes after the advance."""
    import duckdb

    from presto_bloomfilter_ray.engine import merge_serialized_column
    from presto_bloomfilter_ray.sketches import AgePartitionedBloom

    G = 7
    events = _read(sf_dir, "events", columns=["ts", "user_id"])

    def partial(b: pa.Table) -> pa.Table:
        f = AgePartitionedBloom(G, 100_000, 1e-6)
        d = np.asarray(b.column("ts").cast(pa.date32()).cast(pa.int32()))
        ids = b.column("user_id")
        for e in np.unique(d):
            f.update_at(int(e), ids.filter(pa.array(d == e)))
        return pa.table({"sketch": pa.array([f.serialize()],
                                            type=pa.large_binary())})

    f = merge_serialized_column(
        events.map_batches(partial, batch_format="pyarrow",
                           batch_size=None))
    n_epochs_before = len(f.stages)
    f.advance(to_epoch=f.current)  # trim to the window
    recent, stale = duckdb.sql(
        f"""WITH mx AS (SELECT max(CAST(ts AS DATE)) md
                        FROM '{sf_dir}/events.parquet'),
            r AS (SELECT DISTINCT user_id
                  FROM '{sf_dir}/events.parquet', mx
                  WHERE CAST(ts AS DATE) > mx.md - {G})
            SELECT (SELECT list(user_id) FROM r),
                   (SELECT list(DISTINCT user_id)
                    FROM '{sf_dir}/events.parquet'
                    WHERE user_id NOT IN (SELECT user_id FROM r))"""
    ).fetchone()
    recent_hit = f.contains_many(pa.array(recent, type=pa.int64()))
    stale_hit = (f.contains_many(pa.array(stale, type=pa.int64()))
                 if stale else np.zeros(0, dtype=bool))
    return pd.DataFrame({
        "n_recent_users": [len(recent)],
        "recent_all_present": [bool(recent_hit.all())],
        "stale_absent": [bool(not stale_hit.any())],
        "expired_trimmed": [bool(len(f.stages) <= min(G, n_epochs_before))],
    })


def _cm_join_size_estimate(sf_dir: str):
    """Join-cardinality estimation WITHOUT executing the join (Cormode
    & Muthukrishnan 2005 §4.2; sketches/countmin.py inner_product):
    Count-Min sketches over lineitem.l_partkey and a filtered part-key
    set, each built by the standard partial/merge-tree path, then one
    driver-side inner product. Deterministic checks: the exact join
    size is SQL-computed (also returned as a value column); CM's
    one-sided guarantee est ≥ exact must hold structurally; est must
    sit within the ε·N_a·N_b additive bound."""
    import duckdb

    from presto_bloomfilter_ray.engine import build_sketch
    from presto_bloomfilter_ray.sketches import CountMin

    li = _read(sf_dir, "lineitem", columns=["l_partkey"])
    part = _read(sf_dir, "part", columns=["p_partkey"])

    def keep_mod7(b: pa.Table) -> pa.Table:
        k = np.asarray(b.column("p_partkey"), dtype=np.int64)
        return b.filter(pa.array(k % 7 == 0))

    cm_a = build_sketch(li, "l_partkey", lambda: CountMin(1e-4, 1e-3),
                        batch_size=65_536)
    cm_b = build_sketch(part.map_batches(keep_mod7, batch_format="pyarrow",
                                         batch_size=None),
                        "p_partkey", lambda: CountMin(1e-4, 1e-3),
                        batch_size=65_536)
    est = cm_a.inner_product(cm_b)
    exact = duckdb.sql(
        f"""select count(*) from '{sf_dir}/lineitem.parquet' l
            join '{sf_dir}/part.parquet' p on l.l_partkey = p.p_partkey
            where p.p_partkey % 7 = 0""").fetchone()[0]
    return pd.DataFrame({
        "exact_join_size": [int(exact)],
        "est_ge_exact": [bool(est >= exact)],
        "est_within_bound": [bool(est <= exact
                                  + cm_a.inner_product_bound(cm_b))],
    })


def _cm_heavy_hitters(sf_dir: str):
    import duckdb

    from presto_bloomfilter_ray import CountMin
    from presto_bloomfilter_ray.engine import build_sketch

    docs = _read(sf_dir, "documents", columns=["lang"])
    cm = build_sketch(docs, "lang", lambda: CountMin(1e-4, 1e-3))
    exact = duckdb.sql(
        f"select lang, count(*) n from '{sf_dir}/documents.parquet' "
        "group by lang order by lang"
    ).df()
    n_total = int(exact["n"].sum())
    ests = cm.estimate_many(pa.array(exact["lang"].tolist()))
    true = exact["n"].to_numpy()
    # count-min guarantee: true <= est <= true + eps*N (w.p. 1-delta)
    ok = (ests >= true) & (ests <= true + cm.error_bound() * n_total)
    return pd.DataFrame({
        "lang": exact["lang"],
        "freq_exact": exact["n"].astype("int64"),
        "cm_within_bound": ok.astype(bool),
    })


def _hll_hosts_by_lang(sf_dir: str):
    """Grouped HLL via the NATIVE row-shuffle path (groupby + SketchAgg
    with estimate finalize) — the high-cardinality-key pattern."""
    import duckdb

    from presto_bloomfilter_ray import HyperLogLog
    from presto_bloomfilter_ray.engine import SketchAgg

    docs = _read(sf_dir, "documents", columns=["lang", "source"])
    out = docs.groupby("lang").aggregate(
        SketchAgg(lambda: HyperLogLog(12), on="source",
                  alias_name="est", finalize_mode="estimate")
    ).to_pandas().sort_values("lang").reset_index(drop=True)
    exact = duckdb.sql(
        f"select lang, count(distinct source) n from '{sf_dir}/documents.parquet' "
        "group by lang order by lang"
    ).df()
    bound = 3 * HyperLogLog(12).relative_error_bound()
    rel_err = (out["est"].to_numpy() - exact["n"].to_numpy()) / np.maximum(
        1, exact["n"].to_numpy())
    return pd.DataFrame({
        "lang": exact["lang"],
        "n_distinct_exact": exact["n"].astype("int64"),
        "hll_err_within_bound": (np.abs(rel_err) <= bound).astype(bool),
    })


def _salted_hll_sources_by_lang(sf_dir: str):
    """Grouped HLL via the SALTED row-shuffle path (hot-key pattern:
    rows spread over (key, salt) sub-groups before the hash shuffle,
    per-key salt partials merged in a second pass) — must land within
    the same published bound as the other grouped paths."""
    import duckdb

    from presto_bloomfilter_ray import HyperLogLog, deserialize
    from presto_bloomfilter_ray.engine import salted_grouped_sketch

    docs = _read(sf_dir, "documents", columns=["lang", "source"])
    g = salted_grouped_sketch(docs, key="lang", col="source",
                              factory=lambda: HyperLogLog(12), salts=8)
    rows = sorted(g.take_all(), key=lambda r: r["lang"])
    exact = duckdb.sql(
        f"select lang, count(distinct source) n from '{sf_dir}/documents.parquet' "
        "group by lang order by lang"
    ).df()
    bound = 3 * HyperLogLog(12).relative_error_bound()
    out = []
    for r, (_, ex) in zip(rows, exact.iterrows()):
        est = float(deserialize(r["sketch"]).estimate())
        out.append({
            "lang": r["lang"],
            "n_distinct_exact": int(ex["n"]),
            "salted_hll_within_bound": bool(
                abs(est - ex["n"]) / max(1, ex["n"]) <= bound),
        })
    return pd.DataFrame(out)


def _stream_aggregate_events(sf_dir: str):
    """Stream-shaped ingestion (iter_batches pull → per-bucket stateful
    actors holding running aggregates + per-key HLL): counts and sums
    are EXACT (oracle-matched values); the distinct estimate is bound-
    checked per key."""
    import duckdb

    from presto_bloomfilter_ray import HyperLogLog
    from presto_bloomfilter_ray.pipelines import stream_aggregate

    ev = _read(sf_dir, "events", columns=["event_type", "value", "user_id"])
    snap = stream_aggregate(ev, key_col="event_type", value_col="value",
                            distinct_col="user_id")
    exact = duckdb.sql(
        f"select event_type, count(*) n, round(sum(value), 4) s, "
        f"count(distinct user_id) d from '{sf_dir}/events.parquet' "
        "group by event_type order by event_type"
    ).df()
    bound = 3 * HyperLogLog(14).relative_error_bound()
    out = []
    for _, ex in exact.iterrows():
        st = snap[ex["event_type"]]
        out.append({
            "event_type": ex["event_type"],
            "n_events": int(st["n"]),
            "sum_value": round(float(st["sum"]), 4),
            "distinct_users_within_bound": bool(
                abs(st["distinct_est"] - ex["d"]) / max(1, ex["d"]) <= bound),
        })
    return pd.DataFrame(out)


def _stream_dedup_events(sf_dir: str):
    """Windowed streaming dedup (pipelines/streaming.py
    stream_dedup_window): the at-least-once-delivery shape — drop an
    event when its (user, event_type) key was already seen in the last
    7 day-epochs, processed in event-time order through key-hash-bucket
    actors each holding ONE age-partitioned Bloom filter (bounded by
    the window, not the stream). At fpp=1e-9 the sketch makes no false
    drops on this input (deterministic — seeded hashes), so the result
    EXACTLY matches the SQL anti-window-join oracle, per event type."""
    from ray.data.aggregate import Count

    from presto_bloomfilter_ray.pipelines import stream_dedup_window

    events = _read(sf_dir, "events",
                   columns=["event_id", "ts", "user_id", "event_type"])
    kept, _stats = stream_dedup_window(
        events, ["user_id", "event_type"], "ts", "event_id",
        generations=7)

    def flag(b: pa.Table) -> pa.Table:
        hit = np.isin(np.asarray(b.column("event_id")), kept)
        return b.filter(pa.array(hit)).select(["event_type"])

    out = events.map_batches(flag, batch_format="pyarrow", batch_size=None)
    return out.groupby("event_type").aggregate(Count(alias_name="n_kept"))


def _stream_windowed_events(sf_dir: str):
    """Watermark-finalized tumbling windows over the event stream
    (stateful per-bucket actors, bounded open-window state, late-event
    accounting). Input sorted by ts ⇒ zero late events and the result
    equals the exact batch tumbling aggregate — hash-checked against
    the SQL oracle; out-of-order/late semantics are pinned in pytest."""
    from presto_bloomfilter_ray.pipelines import stream_windowed_aggregate

    ev = _read(sf_dir, "events", columns=["ts", "event_type", "value"]).sort("ts")
    got, n_late = stream_windowed_aggregate(
        ev, ts_col="ts", key_col="event_type", value_col="value",
        size_s=3600, allowed_lateness_s=0, advance_every=4)
    got = got.rename(columns={"key": "event_type"})
    got["hour"] = pd.to_datetime(got["window_start"], unit="us").astype(
        "datetime64[us]")  # oracle emits us resolution
    got["sum_value"] = got["sum_value"].round(4)
    got["n_late"] = int(n_late)
    return got[["event_type", "hour", "n_events", "sum_value", "n_late"]]


def _quantiles_textlen(sf_dir: str):
    import duckdb

    from presto_bloomfilter_ray import KLL, TDigest
    from presto_bloomfilter_ray.engine import build_sketch

    docs = _read(sf_dir, "documents", columns=["n_chars"])
    td = build_sketch(docs, "n_chars", lambda: TDigest(200))
    kll = build_sketch(docs, "n_chars", lambda: KLL(200))
    vals = duckdb.sql(
        f"select n_chars from '{sf_dir}/documents.parquet'"
    ).df()["n_chars"].to_numpy()
    qs = [0.1, 0.5, 0.9, 0.99]
    rows = []
    for q in qs:
        td_rank = float((vals <= td.quantile(q)).mean())
        kll_rank = float((vals <= kll.quantile(q)).mean())
        rows.append({
            "q": q,
            "td_within_bound": bool(abs(td_rank - q) <= 3 * td.rank_error_bound()),
            "kll_within_bound": bool(abs(kll_rank - q) <= 3 * kll.rank_error_bound()),
        })
    return pd.DataFrame(rows)


def _planned_join_orders(sf_dir: str):
    """Sketch-driven join planning (functions/joinplan.py): one
    mergeable-statistics pass per side (exact count + Theta distinct of
    the key) picks the physical strategy — broadcast / Bloom-prefilter
    / shuffle — exactly the optimizer role the reference's Bloom
    filters play in Presto join pruning. customer is the small side at
    every sf, so the plan must resolve to broadcast (asserted), the
    join runs entirely map-side, and the result hash-matches the plain
    SQL inner join."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions import planned_join

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    out, plan = planned_join(orders, "o_custkey", cust, "c_custkey")
    assert plan["strategy"] == "broadcast", plan
    out = out.map_batches(_add_cents("o_totalprice"), batch_format="pyarrow")
    agg = out.groupby("c_nationkey").aggregate(
        Count(alias_name="n_orders"), Sum("_cents", alias_name="_tp"))
    df = agg.to_pandas()
    df["total_price"] = (df["_tp"] / 100.0).round(2)
    df["c_nationkey"] = df["c_nationkey"].astype("int32")  # parquet dtype
    return df[["c_nationkey", "n_orders", "total_price"]]


def _containment_pairs_documents(sf_dir: str):
    """Size-asymmetric near-dup detection (functions/containment.py):
    document pairs whose directional shingle containment
    inter/min(|A|,|B|) ≥ 0.8 — the quoted-article/wrapped-repost case
    Jaccard-based MinHash misses by construction. Exact tier
    (sample_mod=1); hot-shingle caps are asserted untriggered, so the
    pair set is EXACT and the oracle is a plain distinct-shingle
    self-join over the same window slices. cont_ppm is integer math on
    both sides."""
    from presto_bloomfilter_ray.functions import containment_pairs

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs, stats = containment_pairs(docs, k=5, tau=0.8)
    assert stats["capped_grams"] == 0, stats
    return pairs.to_pandas()[["a", "b", "inter", "size_a", "size_b",
                              "cont_ppm"]]


def _drift_events_hourly(sf_dir: str):
    """Snapshot drift gate (functions/drift.py categorical_drift):
    per-hour-of-day total-variation distance between the event-type
    mixes of two deterministic event halves (event_id parity plays the
    old/new crawl). Counts exchange vocabulary-bounded via bucket_fold;
    TV is exact integer rational arithmetic (ppm), so the DuckDB mirror
    recomputes the identical value with HUGEINT math — no float
    rounding in the oracle."""
    from presto_bloomfilter_ray.functions import categorical_drift

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "event_type"])

    def prep(parity: int):
        def f(b: pa.Table) -> pa.Table:
            ids = np.asarray(b.column("event_id"))
            m = ids % 2 == parity
            t = b.filter(pa.array(m))
            hour = pc.hour(t.column("ts")).cast(pa.int64())
            return pa.table({"hour": hour,
                             "event_type": t.column("event_type")})
        return f

    a = ev.map_batches(prep(0), batch_format="pyarrow")
    b = ev.map_batches(prep(1), batch_format="pyarrow")
    return categorical_drift(a, b, "hour", "event_type")


def _grouped_exact_quantiles_status(sf_dir: str):
    """Per-group EXACT order statistics (functions/quantiles.py
    grouped_exact_quantile): every o_orderstatus group narrows
    SIMULTANEOUSLY in shared map-only histogram passes (per round: ONE
    pass for all groups × both quantiles) — no per-group rescans, no
    sort, values never shuffle. Group membership across rounds is the
    recomputed integer bin path, exact by float-op identity.
    pull_limit=2000 forces real narrowing at every sf; the oracle is
    DuckDB quantile_disc GROUP BY, value-exact."""
    from presto_bloomfilter_ray.functions import grouped_exact_quantile

    orders = _read(sf_dir, "orders", columns=["o_orderstatus",
                                              "o_totalprice"])
    df = grouped_exact_quantile(orders, "o_totalprice", [0.5, 0.95],
                                "o_orderstatus", pull_limit=2_000)
    df = df.rename(columns={"q_0.5": "p50", "q_0.95": "p95"})
    return df[["o_orderstatus", "p50", "p95"]]


def _ngram_novelty_documents(sf_dir: str):
    """Memorization-risk screen (functions/decontaminate.py
    novelty_scores): fraction of each corpus doc's token 5-grams
    already present in a reference corpus (docs with doc_id % 29 == 0
    play the 'previous training set'). The reference side uses the
    EXACT broadcast tier (reference_gram_index — sorted uint64 gram
    hashes, value-exact); the Bloom tier shares the same scoring path
    for beyond-broadcast references. Scoring is a pure map stage; the
    corpus never shuffles. Novelty is emitted in integer parts per
    million ((sum_grams - sum_seen) * 1e6 // sum_grams) so the oracle
    comparison is exact-integer, not float-rounding-dependent."""
    from ray.data.aggregate import Count, Sum

    from presto_bloomfilter_ray.functions import (novelty_scores,
                                                  reference_gram_index)

    docs = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def part(keep_ref: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = np.asarray(b.column("doc_id"))
            m = (ids % 29 == 0) if keep_ref else (ids % 29 != 0)
            return b.filter(pa.array(m))
        return f

    ref = docs.map_batches(part(True), batch_format="pyarrow")
    corpus = docs.map_batches(part(False), batch_format="pyarrow")
    idx = reference_gram_index(ref, ngram=5)
    scored = novelty_scores(corpus, idx, ngram=5)
    agg = scored.groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_grams", alias_name="sum_grams"),
        Sum("n_seen", alias_name="sum_seen"))
    df = agg.to_pandas()
    df["novelty_ppm"] = ((df["sum_grams"] - df["sum_seen"]) * 1_000_000
                         // df["sum_grams"]).astype("int64")
    return df[["lang", "n_docs", "sum_grams", "sum_seen", "novelty_ppm"]]


def _exact_quantiles_totalprice(sf_dir: str):
    """EXACT distributed order statistics (functions/quantiles.py
    exact_quantile): iterative histogram-narrowing selection — per
    round one map-only n_bins histogram over the shrinking candidate
    interval (partials bounded by block count), final np.partition
    over a pulled interval of at most pull_limit rows. The exact
    counterpart of the t-digest/KLL queries: no global sort, no value
    shuffle, and the oracle IS DuckDB's quantile_disc, compared
    value-exact. pull_limit=2000 forces real narrowing rounds at every
    sf."""
    from presto_bloomfilter_ray.functions import exact_quantile

    orders = _read(sf_dir, "orders", columns=["o_totalprice"])
    p50, p90, p99 = exact_quantile(
        orders, "o_totalprice", [0.5, 0.9, 0.99], pull_limit=2_000)
    return pd.DataFrame({"p50": [p50], "p90": [p90], "p99": [p99]})


def _exact_topk_words(sf_dir: str):
    """Certified exact heavy hitters (functions/heavy.py): Misra–Gries
    candidate pass + broadcast exact recount, provably the true top-k
    when the k-th count clears the sketch's unseen-item bound. Words
    never shuffle; the oracle is the plain GROUP BY — value-exact."""
    from presto_bloomfilter_ray.functions import exact_heavy_hitters

    docs = _read(sf_dir, "documents", columns=["text"])

    def words(b: pa.Table) -> pa.Table:
        w = pc.list_flatten(pc.split_pattern_regex(b.column("text"), r"\s+"))
        return pa.table({"word": w.filter(pc.not_equal(w, ""))})

    ds = docs.map_batches(words, batch_format="pyarrow", batch_size=None)
    got = exact_heavy_hitters(ds, "word", k=20, capacity=2000)
    out = got.rename(columns={"item": "word"})[["word", "n"]]
    out["n"] = out["n"].astype("int64")
    return out


def _topk_words_misra_gries(sf_dir: str):
    """Misra-Gries heavy hitters over the corpus's words, built through
    the distributed merge tree. Deterministic contract vs exact DuckDB
    counts: every counter is a lower bound within N/k, and every word
    with true frequency > N/k is guaranteed tracked."""
    import duckdb

    from presto_bloomfilter_ray import TopK
    from presto_bloomfilter_ray.engine import build_sketch

    docs = _read(sf_dir, "documents", columns=["text"])

    def words(b: pa.Table) -> pa.Table:
        w = pc.list_flatten(pc.split_pattern_regex(b.column("text"), r"\s+"))
        return pa.table({"word": w.filter(pc.not_equal(w, ""))})

    ds = docs.map_batches(words, batch_format="pyarrow")
    sk = build_sketch(ds, "word", lambda: TopK(200))
    exact = duckdb.sql(f"""
        select word, count(*) n from (
            select unnest(regexp_extract_all(text, '\\S+')) word
            from '{sf_dir}/documents.parquet')
        group by word
    """).df()
    counts = dict(zip(exact["word"], exact["n"].astype(int)))
    n_total = int(exact["n"].sum())
    bound = n_total / 200
    tracked = dict(sk.top())
    lower_ok = all(c <= counts.get(w, 0) and counts.get(w, 0) - c <= bound
                   for w, c in tracked.items())
    heavy_ok = all(w in tracked for w, f in counts.items() if f > bound)
    return pd.DataFrame({
        "n_words": [n_total],
        "counters_within_bound": [bool(lower_ok and sk.total == n_total)],
        "all_heavy_hitters_tracked": [bool(heavy_ok)],
    })


def _topk_words_by_lang(sf_dir: str):
    """Per-lang Misra-Gries heavy hitters through the NATIVE grouped
    path (ds.groupby(lang).aggregate(SketchAgg(TopK))): the per-lang
    top word must be certified within each sketch's N_lang/k bound."""
    import duckdb

    from presto_bloomfilter_ray import TopK, deserialize
    from presto_bloomfilter_ray.engine import SketchAgg

    docs = _read(sf_dir, "documents", columns=["text", "lang"])

    def words(b: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(b.column("text"), r"\s+")
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks)
        lang = pc.take(b.column("lang"), parents)
        keep = pc.not_equal(flat, "")
        return pa.table({"lang": pc.filter(lang, keep),
                         "word": pc.filter(flat, keep)})

    out = (docs.map_batches(words, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(SketchAgg(lambda: TopK(100), on="word",
                                alias_name="sk"))).take_all()
    sketches = {r["lang"]: deserialize(r["sk"]) for r in out}
    exact = duckdb.sql(f"""
        select lang, word, count(*) n from (
            select lang, unnest(regexp_extract_all(text, '\\S+')) word
            from '{sf_dir}/documents.parquet')
        group by lang, word
    """).df()
    rows = []
    for lang in sorted(sketches):
        sk = sketches[lang]
        sub = exact[exact["lang"] == lang]
        counts = dict(zip(sub["word"], sub["n"].astype(int)))
        n_lang = int(sub["n"].sum())
        bound = n_lang / 100
        tracked = dict(sk.top())
        ok = (sk.total == n_lang
              and all(c <= counts.get(w, 0)
                      and counts.get(w, 0) - c <= bound
                      for w, c in tracked.items())
              and all(w in tracked for w, f in counts.items() if f > bound))
        rows.append({"lang": lang, "n_words": n_lang,
                     "mg_bound_holds": bool(ok)})
    return pd.DataFrame(rows)


def _bottomk_sample_orderkeys(sf_dir: str):
    """Mergeable deterministic uniform sampling (bottom-k by content
    hash, the KMV construction carrying values): sample 50 orderkeys
    from the distributed merge tree; the sample must be a subset of the
    true key set, exactly k items, and IDENTICAL on a re-run with a
    different partitioning (pure function of the item set)."""
    import duckdb

    from presto_bloomfilter_ray import BottomKSample
    from presto_bloomfilter_ray.engine import build_sketch

    orders = _read(sf_dir, "orders", columns=["o_orderkey"])
    s1 = build_sketch(orders, "o_orderkey", lambda: BottomKSample(50))
    s2 = build_sketch(orders.repartition(7), "o_orderkey",
                      lambda: BottomKSample(50))
    sample = s1.sample()
    true_keys = {str(r[0]) for r in duckdb.sql(
        f"select distinct o_orderkey from '{sf_dir}/orders.parquet'").fetchall()}
    return pd.DataFrame({
        "k": [50],
        "sample_is_subset": [bool(set(sample) <= true_keys)],
        "partitioning_invariant": [bool(sample == s2.sample())],
    })


def _hll_per_host(sf_dir: str):
    """HIGH-cardinality grouped sketching through the native row-shuffle
    path: per-``url_host`` HLL of distinct urls over the webpages table
    (thousands of Zipf-skewed host groups — the pattern where
    per-(key, block) partials would exceed row volume, SURVEY §2.1
    note). Exact per-host references via DuckDB in-query; emitted as
    bound-check booleans (the webpages table is not a registered view)."""
    import duckdb

    from presto_bloomfilter_ray import HyperLogLog
    from presto_bloomfilter_ray.engine import SketchAgg
    from presto_bloomfilter_ray.sources import ensure_webpages, url_host

    n_docs = duckdb.sql(
        f"select count(*) from '{sf_dir}/documents.parquet'").fetchone()[0]
    path = ensure_webpages(max(2000, int(n_docs) * 4))

    def add_host(b: pa.Table) -> pa.Table:
        return pa.table({"host": url_host(b.column("url")),
                         "url": b.column("url")})

    est = (
        _rd().read_parquet(path, columns=["url"])
        .map_batches(add_host, batch_format="pyarrow")
        .groupby("host")
        .aggregate(SketchAgg(lambda: HyperLogLog(12), on="url",
                             alias_name="est", finalize_mode="estimate"))
        .to_pandas()
    )
    exact = duckdb.sql(f"""
        select split_part(url, '/', 3) host, count(distinct url) n
        from '{path}/*.parquet' group by 1
    """).df()
    merged = est.merge(exact, on="host", how="outer")
    bound = 3 * HyperLogLog(12).relative_error_bound()
    diff = (merged["est"] - merged["n"]).abs()
    rel = diff / merged["n"].clip(lower=1)
    # the 1.04/√m bound is asymptotic; tiny groups (a handful of urls)
    # occasionally lose one count to a register collision — allow an
    # absolute slack of 2 there, the relative bound everywhere else
    ok = (rel <= bound) | (diff <= 2)
    return pd.DataFrame({
        "n_hosts_gt_500": [bool(len(merged) > 500)],
        "all_hosts_covered": [bool(merged["est"].notna().all()
                                   and merged["n"].notna().all())],
        "all_within_bound": [bool(ok.all())],
    })


def _webpages_suite(sf_dir: str):
    """Flagship north-star pipeline over the deterministic CC-style
    webpages table (generated at a size tied to sf via documents rows)."""
    import duckdb

    from presto_bloomfilter_ray.pipelines import run_suite
    from presto_bloomfilter_ray.sources import ensure_webpages

    import shutil
    import uuid

    from presto_bloomfilter_ray.pipelines import probe_and_write

    n_docs = duckdb.sql(f"select count(*) from '{sf_dir}/documents.parquet'").fetchone()[0]
    n_rows = max(2000, int(n_docs) * 4)
    path = ensure_webpages(n_rows)
    store_root = "/tmp/sketch-store-queries"
    res = run_suite(path, store_root=store_root,
                    run_id=f"q-{n_rows}", n_hint=n_rows)
    s = res["summary"]
    # close the reference's core loop: probe the table against the
    # just-persisted url bloom (no false negatives ⇒ all rows kept)
    probe_out = f"/tmp/probe-q-{uuid.uuid4().hex[:8]}"
    probe = probe_and_write(
        _rd().read_parquet(path, columns=["url"]),
        f"merged/q-{n_rows}/bloom_url", "url", probe_out,
        store_root=store_root, run_id=f"q-{n_rows}",
    )
    shutil.rmtree(probe_out, ignore_errors=True)
    # exact references from the deterministic generated table → the
    # suite's estimates become oracle-checkable booleans
    exact = duckdb.sql(f"""
        select count(*) as n_rows,
               count(distinct url) du,
               count(distinct split_part(url, '/', 3)) dh
        from '{path}/*.parquet'
    """).df().iloc[0]
    hll_bound = 3 * 1.04 / np.sqrt(2 ** 14)
    td_p50 = s["textlen_p50_td"]
    lens = duckdb.sql(
        f"select length(text) n from '{path}/*.parquet'").df()["n"].to_numpy()
    p50_rank = float((lens <= td_p50).mean())
    n_langs_exact = duckdb.sql(
        f"select count(distinct lang) from '{path}/*.parquet'").fetchone()[0]
    # every column is deterministic and oracle-checkable (round-2
    # verdict #3): ``rows`` equals greatest(2000, count(documents)*4)
    # in SQL; lang coverage and the sketch estimates become
    # exact-reference booleans (same pattern as hll_per_host)
    return pd.DataFrame({
        "rows": [int(s["rows"])],
        "n_langs_ok": [bool(len(s["langs"]) == int(n_langs_exact))],
        "hll_urls_ok": [bool(abs(s["distinct_urls_hll"] - exact["du"])
                             / max(1, exact["du"]) <= hll_bound)],
        "hll_hosts_ok": [bool(abs(s["distinct_hosts_hll"] - exact["dh"])
                              / max(1, exact["dh"]) <= hll_bound)],
        # TDigest(200) published bound: pi/(4*200) ≈ 0.0039 rank error
        "textlen_p50_rank_ok": [bool(abs(p50_rank - 0.5) <= 3 * np.pi / 800)],
        "probe_no_false_negatives": [bool(probe["rows_kept"] == int(exact["n_rows"]))],
    })


def _embed_documents_hashed(sf_dir: str):
    """Embedding GENERATION (functions/embed.py embed_documents): the
    actor-pool stage appends a deterministic feature-hashed trigram
    embedding (model loads once per actor; the hashed projection is
    the in-container stand-in — a real sentence-transformers model
    rides the same stage behind its try-import). The query unnests
    the nonzero (doc_id, dim, value) triples so the DuckDB oracle
    pins EVERY component exactly."""
    from presto_bloomfilter_ray.functions import embed_documents

    dim = 16
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    emb = embed_documents(ds, dim=dim, concurrency=2)

    def unnest(b: pa.Table) -> pa.Table:
        n = b.num_rows
        vals = np.asarray(b.column("embedding").combine_chunks().flatten()
                          ).reshape(n, dim).astype(np.int64)
        doc = np.repeat(np.asarray(b.column("doc_id")), dim)
        idx = np.tile(np.arange(dim, dtype=np.int64), n)
        flat = vals.reshape(-1)
        keep = flat != 0
        return pa.table({"doc_id": pa.array(doc[keep]),
                         "dim_idx": pa.array(idx[keep]),
                         "val": pa.array(flat[keep])})

    return emb.map_batches(unnest, batch_format="pyarrow")


# ---------------------------------------------------------------- contract
def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: per-lang grouped
    Bloom + global HLL/quantile sketches over documents, returned as a
    summary row per lang."""
    from ray.data.aggregate import Count

    from presto_bloomfilter_ray import BloomFilter, HyperLogLog, TDigest, deserialize
    from presto_bloomfilter_ray.engine import build_sketch, grouped_sketch

    sf_dir = "/root/testdata/sf0.001"
    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    hll = build_sketch(docs, "text", lambda: HyperLogLog(14))
    g = grouped_sketch(docs, key="lang", col="text",
                       factory=lambda: BloomFilter(10_000, 0.01))
    rows = g.take_all()
    counts = {
        r["lang"]: r["n_docs"]
        for r in docs.groupby("lang").aggregate(Count(alias_name="n_docs")).take_all()
    }
    out = pd.DataFrame({
        "lang": [r["lang"] for r in rows],
        "n_docs": [int(counts[r["lang"]]) for r in rows],
        "bloom_bytes": [len(r["sketch"]) for r in rows],
        "distinct_text_est_global": [float(hll.estimate())] * len(rows),
    })
    return out.sort_values("lang").reset_index(drop=True)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "bloom_semijoin_nation": _bloom_semijoin_nation,
        "bloom_semijoin_orders": _bloom_semijoin_orders,
        "bloom_antijoin_customer": _bloom_antijoin_customer,
        "cbf_delete_semijoin": _cbf_delete_semijoin,
        "cuckoo_retract_semijoin": _cuckoo_retract_semijoin,
        "ams_f2_events": _ams_f2_events,
        "fd_embedding_spectrum": _fd_embedding_spectrum,
        "priority_sample_orders": _priority_sample_orders,
        "bloom_params": _bloom_params,
        "bloom_persist_load": _bloom_persist_load,
        "bloom_from_string_merge": _bloom_from_string_merge,
        "grouped_bloom_membership": _grouped_bloom_membership,
        "scalable_bloom_ingest": _scalable_bloom_ingest,
        "iblt_reconcile_custkeys": _iblt_reconcile_custkeys,
        "q1_lineitem": _q1_lineitem,
        "events_hourly": _events_hourly,
        "json_props_stats": _json_props_stats,
        "funnel_signup_click_purchase": _funnel_signup_click_purchase,
        "funnel_windowed_24h": _funnel_windowed_24h,
        "format_ingest_stats": _format_ingest_stats,
        "cumulative_user_spend": _cumulative_user_spend,
        "interarrival_stats": _interarrival_stats,
        "event_transition_counts": _event_transition_counts,
        "pagerank_browse_graph": _pagerank_browse_graph,
        "pagerank_personalized_pages": _pagerank_personalized_pages,
        "triangle_count_pages": _triangle_count_pages,
        "kcore_pages": _kcore_pages,
        "hits_browse_graph": _hits_browse_graph,
        "bfs_hops_pages": _bfs_hops_pages,
        "zscore_totalprice_by_status": _zscore_totalprice_by_status,
        "events_pivot_hourly": _events_pivot_hourly,
        "ntile_quartiles_by_status": _ntile_quartiles_by_status,
        "mad_outliers_by_status": _mad_outliers_by_status,
        "rollup_lang_source": _rollup_lang_source,
        "custkey_set_ops": _custkey_set_ops,
        "left_join_order_counts": _left_join_order_counts,
        "three_way_split": _three_way_split,
        "leakage_safe_split": _leakage_safe_split,
        "embedding_dim_stats": _embedding_dim_stats,
        "global_sort_orders": _global_sort_orders,
        "topk_orders_per_status": _topk_orders_per_status,
        "grouped_quantiles_totalprice": _grouped_quantiles_totalprice,
        "join_orders_customer_nation": _join_orders_customer_nation,
        "q5_revenue_by_nation": _q5_revenue_by_nation,
        "asof_purchase_after_signup": _asof_purchase_after_signup,
        "asof_events_bucketed": _asof_events_bucketed,
        "range_join_price_bands": _range_join_price_bands,
        "union_distinct_orderkeys": _union_distinct_orderkeys,
        "top_sources": _top_sources,
        "exact_dedup_documents": _exact_dedup_documents,
        "exact_dedup_sharded": _exact_dedup_sharded,
        "incremental_ingest_dedup": _incremental_ingest_dedup,
        "line_dedup_keep_first": _line_dedup_keep_first,
        "minhash_dedup_documents": _minhash_dedup_documents,
        "minhash_index_incremental": _minhash_index_incremental,
        "minhash_dedup_dataset_cc": _minhash_dedup_dataset_cc,
        "simhash_candidates_documents": _simhash_candidates_documents,
        "ngram_jaccard_check": _ngram_jaccard_check,
        "text_stats_by_lang": _text_stats_by_lang,
        "word_count_top20": _word_count_top20,
        "vocab_stats_by_lang": _vocab_stats_by_lang,
        "pmi_bigrams_top20": _pmi_bigrams_top20,
        "textlen_histogram": _textlen_histogram,
        "profile_documents": _profile_documents,
        "entropy_stats_by_lang": _entropy_stats_by_lang,
        "quality_gate_pipeline": _quality_gate_pipeline,
        "prepare_corpus_pipeline": _prepare_corpus_pipeline,
        "url_canonicalize_stats": _url_canonicalize_stats,
        "tfidf_top_terms": _tfidf_top_terms,
        "bm25_search_documents": _bm25_search_documents,
        "bm25_index_search_documents": _bm25_index_search_documents,
        "bm25_index_incremental": _bm25_index_incremental,
        "pack_sequences_documents": _pack_sequences_documents,
        "mixture_sample_by_lang": _mixture_sample_by_lang,
        "quantile_band_textlen": _quantile_band_textlen,
        "nb_langid_confusion": _nb_langid_confusion,
        "substring_scrub_stats": _substring_scrub_stats,
        "dsir_select_by_lang": _dsir_select_by_lang,
        "perplexity_filter_by_lang": _perplexity_filter_by_lang,
        "semdedup_stats": _semdedup_stats,
        "bpe_train_stats": _bpe_train_stats,
        "bpe_token_stats_by_lang": _bpe_token_stats_by_lang,
        "quality_stats_by_lang": _quality_stats_by_lang,
        "clean_text_stats": _clean_text_stats,
        "boilerplate_removal_stats": _boilerplate_removal_stats,
        "bloom_decontaminate": _bloom_decontaminate,
        "stratified_sample_by_lang": _stratified_sample_by_lang,
        "host_cap_sample": _host_cap_sample,
        "pii_redaction_stats": _pii_redaction_stats,
        "repetition_filter_stats": _repetition_filter_stats,
        "events_sliding": _events_sliding,
        "sliding_hll_users": _sliding_hll_users,
        "url_blocklist_filter": _url_blocklist_filter,
        "events_sessions": _events_sessions,
        "trigram_search_documents": _trigram_search_documents,
        "trigram_regex_documents": _trigram_regex_documents,
        "minhash_join_crawls": _minhash_join_crawls,
        "shuffled_export_order": _shuffled_export_order,
        "zonemap_pruned_orders": _zonemap_pruned_orders,
        "edit_neighbors_customer": _edit_neighbors_customer,
        "snapshot_delta_documents": _snapshot_delta_documents,
        "clustered_read_orders": _clustered_read_orders,
        "skew_report_events": _skew_report_events,
        "curriculum_export_documents": _curriculum_export_documents,
        "embed_documents_hashed": _embed_documents_hashed,
        "token_budget_by_lang": _token_budget_by_lang,
        "ann_topk_cosine": _ann_topk_cosine,
        "pq_topk_refined": _pq_topk_refined,
        "ivfpq_topk_refined": _ivfpq_topk_refined,
        "pq_multiquery_consistency": _pq_multiquery_consistency,
        "pq_adc_recall": _pq_adc_recall,
        "embedding_neardup": _embedding_neardup,
        "multimodal_image_features": _multimodal_image_features,
        "multimodal_av_pipeline": _multimodal_av_pipeline,
        "multimodal_real_decode": _multimodal_real_decode,
        "ivf_neardup_recall": _ivf_neardup_recall,
        "ivf_ann_topk": _ivf_ann_topk,
        "kmeans_embeddings": _kmeans_embeddings,
        "theta_custkey_overlap": _theta_custkey_overlap,
        "hll_distinct_custkey": _hll_distinct,
        "hll_hosts_by_lang": _hll_hosts_by_lang,
        "salted_hll_sources_by_lang": _salted_hll_sources_by_lang,
        "stream_aggregate_events": _stream_aggregate_events,
        "stream_windowed_events": _stream_windowed_events,
        "stream_dedup_events": _stream_dedup_events,
        "cm_heavy_hitters": _cm_heavy_hitters,
        "cm_join_size_estimate": _cm_join_size_estimate,
        "apbf_sliding_users": _apbf_sliding_users,
        "quantiles_textlen": _quantiles_textlen,
        "exact_quantiles_totalprice": _exact_quantiles_totalprice,
        "ngram_novelty_documents": _ngram_novelty_documents,
        "grouped_exact_quantiles_status": _grouped_exact_quantiles_status,
        "drift_events_hourly": _drift_events_hourly,
        "containment_pairs_documents": _containment_pairs_documents,
        "planned_join_orders": _planned_join_orders,
        "topk_words_misra_gries": _topk_words_misra_gries,
        "exact_topk_words": _exact_topk_words,
        "topk_words_by_lang": _topk_words_by_lang,
        "bottomk_sample_orderkeys": _bottomk_sample_orderkeys,
        "hll_per_host": _hll_per_host,
        "webpages_suite": _webpages_suite,
    }


def oracle_sql() -> dict[str, str]:
    from presto_bloomfilter_ray.functions.graph import (
        bfs_sql,
        hits_sql_mirror,
        kcore_sql,
        pagerank_sql_mirror,
        triangle_count_sql,
    )
    from presto_bloomfilter_ray.functions.search import bm25_sql_mirror
    from presto_bloomfilter_ray.functions.urls import canonicalize_sql

    return {
        "bloom_semijoin_nation": """
            SELECT n_nationkey, n_name FROM nation
            WHERE n_name IN (SELECT n_name FROM nation WHERE n_regionkey = 1)
        """,
        "bloom_semijoin_orders": """
            SELECT o_orderstatus,
                   count(*) AS n_orders,
                   round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0, 2) AS total_price
            FROM orders
            WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_nationkey = 5)
            GROUP BY o_orderstatus
        """,
        "bloom_antijoin_customer": """
            SELECT count(*) AS n_no_orders FROM customer
            WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
        """,
        "cbf_delete_semijoin": """
            SELECT o_orderstatus,
                   count(*) AS n_orders,
                   round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0, 2) AS total_price
            FROM orders
            WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_nationkey = 5)
            GROUP BY o_orderstatus
        """,
        "cuckoo_retract_semijoin": """
            SELECT o_orderstatus,
                   count(*) AS n_orders,
                   round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0, 2) AS total_price
            FROM orders
            WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_nationkey = 5)
            GROUP BY o_orderstatus
        """,
        "ams_f2_events": """
            SELECT CAST(sum(c * c) AS BIGINT) AS f2_exact,
                   TRUE AS ams_within_bound
            FROM (SELECT count(*) AS c FROM events GROUP BY user_id)
        """,
        "fd_embedding_spectrum": """
            SELECT round(sum(CAST(v AS DOUBLE) * CAST(v AS DOUBLE)), 3) AS frobenius_sq,
                   TRUE AS fd_within_bound
            FROM (SELECT unnest(embedding) AS v FROM embeddings)
        """,
        "priority_sample_orders": """
            SELECT round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0, 2)
                       AS total_price_exact,
                   TRUE AS priority_est_within_tol
            FROM orders
        """,
        "bloom_params": """
            SELECT CAST(10 AS BIGINT) AS expected_insertions, 0.1234 AS fpp
        """,
        "bloom_persist_load": """
            SELECT n_nationkey, n_name, TRUE AS persisted FROM nation
            WHERE n_name IN (SELECT n_name FROM nation WHERE n_regionkey = 1)
            ORDER BY n_nationkey
        """,
        "bloom_from_string_merge": """
            SELECT n_nationkey, n_name FROM nation
        """,
        "grouped_bloom_membership": """
            SELECT CAST(n_nationkey AS BIGINT) AS n_nationkey,
                   TRUE AS contained FROM nation ORDER BY n_nationkey
        """,
        "scalable_bloom_ingest": """
            SELECT count(*) AS n_keys, TRUE AS no_false_negatives,
                   TRUE AS fpp_within_estimate, TRUE AS grew_stages
            FROM orders
        """,
        "iblt_reconcile_custkeys": """
            SELECT c_custkey FROM customer WHERE c_nationkey = 3
            ORDER BY c_custkey
        """,
        "q1_lineitem": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty,
                   round(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) / 100.0, 2)
                       AS sum_base_price,
                   ((sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) + 50) // 100) / 100.0
                       AS sum_disc_price,
                   round(avg(l_quantity), 4) AS avg_qty,
                   count(*) AS n_rows
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY l_returnflag, l_linestatus
        """,
        "events_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   count(*) AS n_events, round(sum(value), 4) AS sum_value
            FROM events GROUP BY event_type, date_trunc('hour', ts)
        """,
        "event_transition_counts": """
            WITH s AS (
                SELECT event_type AS from_state,
                       lead(event_type) OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS to_state
                FROM events
            )
            SELECT from_state, to_state, count(*) AS n
            FROM s WHERE to_state IS NOT NULL
            GROUP BY from_state, to_state
        """,
        # GENERATED from the operator's own integer-recurrence
        # constants (graph.py pagerank_sql_mirror) — ranks are pure
        # int64 floor arithmetic on both engines, so they match
        # bit-for-bit
        "pagerank_browse_graph": pagerank_sql_mirror(_PAGERANK_EDGES_SQL,
                                                     iters=3),
        "pagerank_personalized_pages": pagerank_sql_mirror(
            _PAGERANK_EDGES_SQL, iters=3, seeds=_PPR_SEEDS),
        # the triangle count needs no generated mirror: a pure-int
        # 3-way self-join over the distinct undirected edge set
        "kcore_pages": kcore_sql(
            _PAGERANK_EDGES_SQL.replace(
                "src, dst, CAST(count(*) AS BIGINT) AS w", "src, dst"),
            3),
        "triangle_count_pages": triangle_count_sql(
            _PAGERANK_EDGES_SQL.replace("src, dst, CAST(count(*) AS BIGINT) AS w",
                                        "src, dst")),
        # same generated-mirror discipline for HITS (division-first
        # rescale, non-negative int64 floors on both engines)
        "hits_browse_graph": hits_sql_mirror(_PAGERANK_EDGES_SQL, iters=3),
        # GENERATED with the operator's own unroll depth (bfs_sql,
        # MATERIALIZED chained CTEs); rounds past the fixpoint are the
        # identity on both engines
        "bfs_hops_pages": bfs_sql(
            _PAGERANK_EDGES_SQL.replace(
                "src, dst, CAST(count(*) AS BIGINT) AS w", "src, dst"),
            _PPR_SEEDS, max_hops=4),
        # identical fixed expression order as standardize_by_key:
        # mu=(s1/100.0)/n, var=(s2/10000.0)/n-mu*mu, z=round((v-mu)/sd,6)
        "zscore_totalprice_by_status": """
            WITH m AS (
                SELECT o_orderstatus, count(*) AS n,
                       sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS s1,
                       sum(CAST(round(o_totalprice * 100) AS BIGINT)
                           * CAST(round(o_totalprice * 100) AS BIGINT)) AS s2
                FROM orders GROUP BY o_orderstatus
            ), z AS (
                SELECT o.o_orderstatus,
                       round((o.o_totalprice - (s1 / 100.0) / n)
                             / sqrt((s2 / 10000.0) / n
                                    - ((s1 / 100.0) / n) * ((s1 / 100.0) / n)),
                             6) AS z
                FROM orders o JOIN m USING (o_orderstatus)
            )
            SELECT o_orderstatus, count(*) AS n,
                   CAST(sum(CAST(round(z * 1e6) AS BIGINT)) AS BIGINT)
                       AS z_micro_sum,
                   min(z) AS min_z, max(z) AS max_z,
                   CAST(count(*) FILTER (WHERE abs(z) > 2.0) AS BIGINT)
                       AS n_outliers
            FROM z GROUP BY o_orderstatus
        """,
        "embedding_dim_stats": """
            WITH f AS (
                SELECT generate_subscripts(embedding, 1) AS pos,
                       CAST(round(CAST(unnest(embedding) AS DOUBLE) * 1e6)
                            AS BIGINT) AS v_micro
                FROM embeddings
            )
            SELECT CAST(pos AS BIGINT) AS pos, count(*) AS n,
                   CAST(sum(v_micro) AS BIGINT) AS v_micro_sum,
                   min(v_micro) AS v_micro_min,
                   max(v_micro) AS v_micro_max
            FROM f GROUP BY pos ORDER BY pos
        """,
        "global_sort_orders": """
            SELECT o_orderkey, o_totalprice, o_orderstatus FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 50
        """,
        "left_join_order_counts": """
            WITH per AS (
                SELECT c_custkey, count(o_orderkey) AS n_orders
                FROM customer LEFT JOIN orders ON c_custkey = o_custkey
                GROUP BY c_custkey
            )
            SELECT n_orders, count(*) AS n_customers
            FROM per GROUP BY n_orders
        """,
        "three_way_split": """
            WITH s AS (
                SELECT lang,
                       CASE WHEN (doc_id * 2654435761) % 4294967296 <
                                 CAST(0.8 * 4294967296 AS BIGINT)
                            THEN 'train'
                            WHEN (doc_id * 2654435761) % 4294967296 <
                                 CAST(0.9 * 4294967296 AS BIGINT)
                            THEN 'val' ELSE 'test' END AS part
                FROM documents
            )
            SELECT lang, part, count(*) AS n FROM s GROUP BY lang, part
        """,
        "leakage_safe_split": """
            WITH rep AS (
                SELECT doc_id, lang,
                       min(doc_id) OVER (
                           PARTITION BY lower(regexp_replace(text, '\\s+', ' ', 'g'))
                       ) AS rep
                FROM documents
            ), s AS (
                SELECT lang, doc_id,
                       CASE WHEN (rep * 2654435761) % 4294967296 <
                                 CAST(0.8 * 4294967296 AS BIGINT)
                            THEN 'train'
                            WHEN (rep * 2654435761) % 4294967296 <
                                 CAST(0.9 * 4294967296 AS BIGINT)
                            THEN 'val' ELSE 'test' END AS part
                FROM rep
            )
            SELECT lang, part, count(*) AS n,
                   CAST(sum(doc_id) AS BIGINT) AS sum_ids
            FROM s GROUP BY lang, part
        """,
        "custkey_set_ops": """
            WITH l AS (SELECT DISTINCT c_custkey AS k FROM customer
                       WHERE c_custkey IS NOT NULL),
                 r AS (SELECT DISTINCT o_custkey AS k FROM orders
                       WHERE o_custkey IS NOT NULL)
            SELECT (SELECT count(*) FROM l) AS n_left,
                   (SELECT count(*) FROM r) AS n_right,
                   (SELECT count(*) FROM (SELECT k FROM l UNION
                                          SELECT k FROM r)) AS n_union,
                   (SELECT count(*) FROM (SELECT k FROM l INTERSECT
                                          SELECT k FROM r)) AS n_intersect,
                   (SELECT count(*) FROM (SELECT k FROM l EXCEPT
                                          SELECT k FROM r)) AS n_left_only,
                   (SELECT count(*) FROM (SELECT k FROM r EXCEPT
                                          SELECT k FROM l)) AS n_right_only
        """,
        "rollup_lang_source": """
            SELECT lang, source, count(*) AS n,
                   CAST(sum(n_chars) AS BIGINT) AS n_chars
            FROM documents GROUP BY ROLLUP(lang, source)
        """,
        "mad_outliers_by_status": """
            WITH m AS (
                SELECT o_orderstatus, median(o_totalprice) AS med
                FROM orders GROUP BY o_orderstatus
            ), d AS (
                SELECT o.o_orderstatus, m.med,
                       abs(o.o_totalprice - m.med) AS ad
                FROM orders o JOIN m USING (o_orderstatus)
            ), mm AS (
                SELECT o_orderstatus, median(ad) AS mad
                FROM d GROUP BY o_orderstatus
            )
            SELECT d.o_orderstatus, count(*) AS n,
                   round(any_value(d.med), 6) AS median,
                   round(any_value(mm.mad), 6) AS mad,
                   CAST(sum(CASE WHEN d.ad > 3.0 * mm.mad THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_outliers
            FROM d JOIN mm USING (o_orderstatus)
            GROUP BY d.o_orderstatus ORDER BY d.o_orderstatus
        """,
        "ntile_quartiles_by_status": """
            WITH t AS (
                SELECT o_orderstatus, o_totalprice,
                       CAST(ntile(4) OVER (PARTITION BY o_orderstatus
                            ORDER BY o_totalprice, o_orderkey) AS BIGINT)
                           AS tile
                FROM orders
            )
            SELECT o_orderstatus, tile, count(*) AS n,
                   round(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                         / 100.0, 2) AS total_price,
                   min(o_totalprice) AS min_price,
                   max(o_totalprice) AS max_price
            FROM t GROUP BY o_orderstatus, tile
        """,
        "events_pivot_hourly": """
            SELECT date_trunc('hour', ts) AS hour,
                   CAST(sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
                   CAST(sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
                   CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
                   CAST(sum(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
                   CAST(sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS BIGINT) AS n_view
            FROM events GROUP BY hour ORDER BY hour
        """,
        "interarrival_stats": """
            WITH d AS (
                SELECT event_type,
                       epoch_us(ts) - lag(epoch_us(ts)) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id)
                           AS gap_us
                FROM events
            )
            SELECT event_type,
                   CAST(count(gap_us) AS BIGINT) AS n_gaps,
                   CAST(sum(gap_us) AS BIGINT) AS sum_gap_us,
                   min(gap_us) AS min_gap_us,
                   max(gap_us) AS max_gap_us
            FROM d GROUP BY event_type
        """,
        "cumulative_user_spend": """
            SELECT user_id, event_id, ts,
                   CAST(row_number() OVER w AS BIGINT) AS running_n,
                   round(sum(CAST(round(value * 100) AS BIGINT)) OVER w
                         / 100.0, 2) AS running_spend
            FROM events WHERE event_type = 'purchase'
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS UNBOUNDED PRECEDING)
        """,
        "format_ingest_stats": """
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars,
                   TRUE AS formats_agree
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "funnel_windowed_24h": """
            WITH s1 AS (SELECT user_id, min(ts) AS t FROM events
                        WHERE event_type = 'signup' GROUP BY user_id),
                 s2 AS (SELECT e.user_id, min(e.ts) AS t
                        FROM events e JOIN s1 USING (user_id)
                        WHERE e.event_type = 'click' AND e.ts >= s1.t
                          AND e.ts <= s1.t + INTERVAL 24 HOUR
                        GROUP BY e.user_id),
                 s3 AS (SELECT e.user_id, min(e.ts) AS t
                        FROM events e JOIN s2 USING (user_id)
                        WHERE e.event_type = 'purchase' AND e.ts >= s2.t
                          AND e.ts <= s2.t + INTERVAL 24 HOUR
                        GROUP BY e.user_id)
            SELECT 'signup' AS stage, CAST(1 AS BIGINT) AS stage_idx,
                   (SELECT count(*) FROM s1) AS n_keys
            UNION ALL SELECT 'click', 2, (SELECT count(*) FROM s2)
            UNION ALL SELECT 'purchase', 3, (SELECT count(*) FROM s3)
        """,
        "funnel_signup_click_purchase": """
            WITH s1 AS (SELECT user_id, min(ts) AS t FROM events
                        WHERE event_type = 'signup' GROUP BY user_id),
                 s2 AS (SELECT e.user_id, min(e.ts) AS t
                        FROM events e JOIN s1 USING (user_id)
                        WHERE e.event_type = 'click' AND e.ts >= s1.t
                        GROUP BY e.user_id),
                 s3 AS (SELECT e.user_id, min(e.ts) AS t
                        FROM events e JOIN s2 USING (user_id)
                        WHERE e.event_type = 'purchase' AND e.ts >= s2.t
                        GROUP BY e.user_id)
            SELECT 'signup' AS stage, CAST(1 AS BIGINT) AS stage_idx,
                   (SELECT count(*) FROM s1) AS n_keys
            UNION ALL SELECT 'click', 2, (SELECT count(*) FROM s2)
            UNION ALL SELECT 'purchase', 3, (SELECT count(*) FROM s3)
        """,
        "json_props_stats": """
            SELECT event_type,
                   count(*) AS n_events,
                   CAST(sum(TRY_CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
                   min(TRY_CAST(json_extract_string(props, '$.k') AS BIGINT)) AS min_k,
                   max(TRY_CAST(json_extract_string(props, '$.k') AS BIGINT)) AS max_k,
                   CAST(count(*) - count(json_extract_string(props, '$.not_there')) AS BIGINT)
                       AS n_missing_null
            FROM events GROUP BY event_type
        """,
        "topk_orders_per_status": """
            SELECT o_orderkey, o_orderstatus, o_totalprice FROM orders
            QUALIFY row_number() OVER (
                PARTITION BY o_orderstatus
                ORDER BY o_totalprice DESC, o_orderkey ASC) <= 3
        """,
        "join_orders_customer_nation": """
            SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
                   count(*) AS n_orders,
                   round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0, 2) AS total_price
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_nationkey
        """,
        "range_join_price_bands": """
            WITH bands(lo, hi, band) AS (VALUES
                (0.0, 50000.0, 'small'), (50000.0, 150000.0, 'medium'),
                (150000.0, 300000.0, 'large'), (300000.0, 10000000.0, 'jumbo'))
            SELECT band, count(*) AS n_orders,
                   round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0, 2) AS total_price
            FROM orders JOIN bands
              ON o_totalprice >= lo AND o_totalprice < hi
            GROUP BY band
        """,
        "asof_purchase_after_signup": """
            WITH p AS (SELECT * FROM events WHERE event_type = 'purchase'),
                 s AS (SELECT user_id, ts FROM events WHERE event_type = 'signup')
            SELECT count(*) AS n_purchases,
                   count(s.ts) AS n_with_prior_signup,
                   round(coalesce(sum(epoch(p.ts) - epoch(s.ts)), 0), 1) AS sum_delay_s
            FROM p ASOF LEFT JOIN s
              ON p.user_id = s.user_id AND p.ts >= s.ts
        """,
        "asof_events_bucketed": """
            WITH c AS (SELECT * FROM events WHERE event_type = 'click'),
                 o AS (SELECT user_id, ts FROM events WHERE event_type != 'click')
            SELECT count(*) AS n_clicks,
                   count(o.ts) AS n_with_prior,
                   round(coalesce(sum(epoch(c.ts) - epoch(o.ts)), 0), 1) AS sum_delay_s
            FROM c ASOF LEFT JOIN o
              ON c.user_id = o.user_id AND c.ts >= o.ts
        """,
        "q5_revenue_by_nation": """
            SELECT n_name,
                   ((sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) + 50) // 100) / 100.0 AS revenue
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY n_name
        """,
        "union_distinct_orderkeys": """
            SELECT count(DISTINCT k) AS n_distinct FROM (
                SELECT o_orderkey AS k FROM orders
                UNION ALL SELECT l_orderkey AS k FROM lineitem
            )
        """,
        "top_sources": """
            SELECT source, count(*) AS n_docs FROM documents
            GROUP BY source ORDER BY n_docs DESC, source ASC LIMIT 10
        """,
        "curriculum_export_documents": """
            WITH c AS (
                SELECT quantile_disc(n_chars, 0.25) c1,
                       quantile_disc(n_chars, 0.50) c2,
                       quantile_disc(n_chars, 0.75) c3 FROM documents
            )
            SELECT CAST(row_number() OVER w AS BIGINT) AS rank,
                   doc_id, n_chars
            FROM documents, c
            WINDOW w AS (
                ORDER BY 3 - ((n_chars >= c1)::int + (n_chars >= c2)::int
                              + (n_chars >= c3)::int),
                         (doc_id * 2654435761) % 4294967296, doc_id)
            ORDER BY rank LIMIT 20
        """,
        "skew_report_events": """
            WITH c AS (SELECT user_id, count(*) AS cnt
                       FROM events GROUP BY user_id)
            SELECT count(*) AS n_keys,
                   CAST(sum(cnt) AS BIGINT) AS n_rows,
                   max(cnt) AS max_cnt,
                   quantile_disc(cnt, 0.5) AS p50,
                   quantile_disc(cnt, 0.9) AS p90,
                   quantile_disc(cnt, 0.99) AS p99,
                   (SELECT user_id FROM c
                    ORDER BY cnt DESC, user_id ASC LIMIT 1) AS top1_key,
                   (SELECT cnt FROM c
                    ORDER BY cnt DESC, user_id ASC LIMIT 1) AS top1_cnt
            FROM c
        """,
        "clustered_read_orders": """
            SELECT o_orderstatus,
                   count(*) AS n_orders,
                   round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0, 2) AS total_price
            FROM orders
            WHERE o_totalprice >= 50000.0 AND o_totalprice <= 150000.0
            GROUP BY o_orderstatus
            ORDER BY o_orderstatus
        """,
        "snapshot_delta_documents": """
            WITH old AS (
                SELECT doc_id, text FROM documents WHERE doc_id % 7 <> 0
            ), new AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 11 = 0 THEN text || ' v2'
                            ELSE text END AS text
                FROM documents WHERE doc_id % 5 <> 0
            )
            SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
                   CASE WHEN o.doc_id IS NULL THEN 'added'
                        WHEN n.doc_id IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id
            WHERE o.doc_id IS NULL OR n.doc_id IS NULL OR o.text <> n.text
            ORDER BY doc_id
        """,
        "edit_neighbors_customer": """
            SELECT x.c_custkey AS a, y.c_custkey AS b,
                   levenshtein(x.c_name, y.c_name) AS dist
            FROM customer x JOIN customer y ON x.c_custkey < y.c_custkey
            WHERE x.c_nationkey = 3 AND y.c_nationkey = 3
              AND levenshtein(x.c_name, y.c_name) <= 1
            ORDER BY a, b
        """,
        "zonemap_pruned_orders": """
            SELECT o_orderstatus,
                   count(*) AS n_orders,
                   round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0, 2) AS total_price
            FROM orders
            WHERE o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate <= TIMESTAMP '1997-12-31'
            GROUP BY o_orderstatus
            ORDER BY o_orderstatus
        """,
        "exact_dedup_documents": """
            SELECT lang, count(*) AS n_docs FROM (
                SELECT lang FROM documents
                QUALIFY row_number() OVER (
                    PARTITION BY lower(regexp_replace(text, '\\s+', ' ', 'g'))
                    ORDER BY doc_id) = 1
            ) GROUP BY lang
        """,
        # the sharded anti-join path must match the same exact-dedup
        # oracle bit for bit
        "exact_dedup_sharded": """
            SELECT lang, count(*) AS n_docs FROM (
                SELECT lang FROM documents
                QUALIFY row_number() OVER (
                    PARTITION BY lower(regexp_replace(text, '\\s+', ' ', 'g'))
                    ORDER BY doc_id) = 1
            ) GROUP BY lang
        """,
        "minhash_dedup_dataset_cc": """
            SELECT count(*) AS n_docs, TRUE AS partition_ok,
                   TRUE AS matches_driver_backend
            FROM documents
        """,
        "text_stats_by_lang": """
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(len(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS sum_tokens,
                   CAST(sum(length(text)) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang
        """,
        "clean_text_stats": """
            WITH c AS (
                SELECT text,
                       nfc_normalize(trim(regexp_replace(regexp_replace(
                           text, '[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f]', '', 'g'),
                           '\\s+', ' ', 'g'))) AS clean
                FROM documents
            )
            SELECT count(*) AS n_docs,
                   CAST(sum(CASE WHEN clean != text THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_changed,
                   CAST(sum(length(clean)) AS BIGINT) AS sum_clean_chars
            FROM c
        """,
        "stratified_sample_by_lang": """
            SELECT lang,
                   count(*) AS n_kept,
                   CAST(sum(doc_id) AS BIGINT) AS sum_kept_ids
            FROM documents
            WHERE (doc_id * 2654435761) % 4294967296 <
                  CAST((CASE lang WHEN 'en' THEN 0.5
                                  WHEN 'de' THEN 0.25
                                  ELSE 1.0 END) * 4294967296 AS BIGINT)
            GROUP BY lang
        """,
        "bloom_decontaminate": """
            WITH tagged AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 97 = 0 OR doc_id % 11 = 0
                            THEN text || chr(10) || 'SECRET EVAL ITEM ' ||
                                 (doc_id % 5)::VARCHAR
                            ELSE text END AS text,
                       doc_id % 97 = 0 AS is_bench
                FROM documents
            ), bench_lines AS (
                SELECT DISTINCT line FROM (
                    SELECT unnest(string_split(text, chr(10))) AS line
                    FROM tagged WHERE is_bench
                ) WHERE length(trim(line)) >= 1
            ), corpus_flag AS (
                SELECT t.doc_id,
                       max(CASE WHEN length(trim(l.line)) >= 1
                                 AND l.line IN (SELECT line FROM bench_lines)
                                THEN 1 ELSE 0 END) AS exact_flag
                FROM tagged t,
                     unnest(string_split(t.text, chr(10))) AS l(line)
                WHERE NOT t.is_bench
                GROUP BY t.doc_id
            )
            SELECT count(*) AS n_docs,
                   CAST(sum(exact_flag) AS BIGINT) AS n_contaminated,
                   TRUE AS bloom_no_false_negatives,
                   TRUE AS bloom_fp_within_bound
            FROM corpus_flag
        """,
        "host_cap_sample": """
            SELECT source,
                   count(*) AS n_kept,
                   CAST(sum(doc_id) AS BIGINT) AS sum_kept_ids
            FROM (
                SELECT source, doc_id FROM documents
                QUALIFY row_number() OVER (PARTITION BY source
                                           ORDER BY doc_id) <= 10
            ) GROUP BY source
        """,
        "pii_redaction_stats": """
            WITH docs AS (
                -- same deterministic PII footer the Ray side injects
                SELECT CASE WHEN doc_id % 5 = 0 THEN
                           text || ' contact u' || doc_id::VARCHAR ||
                           '@ex.org or 555-123-4567 at 10.0.0.' ||
                           (doc_id % 250)::VARCHAR
                       ELSE text END AS text
                FROM documents
            ), c AS (
                SELECT
                    len(regexp_extract_all(text,
                        '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))
                        AS n_email,
                    len(regexp_extract_all(text,
                        '\\b\\d{3}[-.]\\d{3}[-.]\\d{4}\\b')) AS n_phone,
                    len(regexp_extract_all(text,
                        '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b'))
                        AS n_ipv4,
                    length(
                      regexp_replace(regexp_replace(regexp_replace(text,
                        '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                        '<EMAIL>', 'g'),
                        '\\b\\d{3}[-.]\\d{3}[-.]\\d{4}\\b', '<PHONE>', 'g'),
                        '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b',
                        '<IP>', 'g')) AS clean_chars
                FROM docs
            )
            SELECT count(*) AS n_docs,
                   CAST(sum(n_email) AS BIGINT) AS sum_email,
                   CAST(sum(n_phone) AS BIGINT) AS sum_phone,
                   CAST(sum(n_ipv4) AS BIGINT) AS sum_ipv4,
                   CAST(sum(CASE WHEN n_email + n_phone + n_ipv4 > 0
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_docs_redacted,
                   CAST(sum(clean_chars) AS BIGINT) AS sum_clean_chars
            FROM c
        """,
        "repetition_filter_stats": """
            WITH docs AS (
                -- same deterministic duplicate-marker lines the Ray
                -- side injects into every 3rd doc
                SELECT doc_id,
                       CASE WHEN doc_id % 3 = 0
                            THEN text || chr(10) || 'R R R' || chr(10) || 'R R R'
                            ELSE text END AS text
                FROM documents
            ), lines AS (
                SELECT doc_id, unnest(string_split(text, chr(10))) AS line
                FROM docs
            ), per AS (
                -- occurrences beyond a line's first within its doc
                SELECT doc_id, line, count(*) AS cnt FROM lines
                GROUP BY doc_id, line
            ), per_doc AS (
                SELECT doc_id,
                       sum(cnt) AS n_lines,
                       sum(cnt - 1) AS n_dup_lines,
                       sum((cnt - 1) * length(line)) AS dup_line_chars
                FROM per GROUP BY doc_id
            )
            SELECT count(*) AS n_docs,
                   CAST(sum(n_lines) AS BIGINT) AS sum_lines,
                   CAST(sum(n_dup_lines) AS BIGINT) AS sum_dup_lines,
                   CAST(sum(dup_line_chars) AS BIGINT) AS sum_dup_chars,
                   CAST(sum(CASE WHEN n_dup_lines > 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_docs_flagged
            FROM per_doc
        """,
        "boilerplate_removal_stats": """
            WITH docs AS (
                -- same deterministic shared footer the Ray side appends
                SELECT doc_id, text || chr(10) || '-- shared footer --' AS text
                FROM documents
            ), lines AS (
                SELECT doc_id, unnest(string_split(text, chr(10))) AS line
                FROM docs
            ), hot AS (
                SELECT line FROM lines GROUP BY line HAVING count(*) >= 3
            ), per_doc AS (
                SELECT doc_id,
                       count(*) AS n_lines,
                       count(*) FILTER (WHERE line NOT IN
                           (SELECT line FROM hot)) AS n_kept,
                       coalesce(sum(length(line)) FILTER (WHERE line NOT IN
                           (SELECT line FROM hot)), 0) AS kept_chars
                FROM lines GROUP BY doc_id
            )
            -- 'changed' = a line was dropped (the operator emits the
            -- per-doc dropped count, so both sides share one
            -- definition; clean != text would disagree on the
            -- degenerate all-boilerplate empty doc)
            SELECT count(*) AS n_docs,
                   CAST(sum(CASE WHEN n_kept < n_lines THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_changed,
                   CAST(sum(kept_chars + CASE WHEN n_kept > 0
                                              THEN n_kept - 1 ELSE 0 END)
                        AS BIGINT) AS sum_clean_chars
            FROM per_doc
        """,
        "quality_stats_by_lang": """
            WITH s AS (
                SELECT lang,
                       len(regexp_extract_all(text, '\\S+')) AS nt,
                       len(regexp_extract_all(text, '[^\\w\\s]')) AS np_,
                       len(regexp_extract_all(text,
                           '(?i)\\b(?:the|and|of|a|to|in|is|it|that|for)\\b')) AS ns,
                       length(text) AS nc
                FROM documents
            ), q AS (
                SELECT lang,
                       0.5 * (least(greatest(nt / 50.0, 0), 1)
                              * least(greatest((10000 - nt) / 10000.0, 0), 1))
                       + 0.25 * least(greatest(1.0 - 4.0 * abs(
                             CAST(np_ AS DOUBLE) / greatest(nc, 1) - 0.05), 0), 1)
                       + 0.25 * least(greatest(
                             CAST(ns AS DOUBLE) / greatest(nt, 1) * 5.0, 0), 1)
                           AS quality
                FROM s
            )
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(CASE WHEN quality >= 0.5 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_high_quality,
                   round(avg(quality), 6) AS avg_quality
            FROM q GROUP BY lang
        """,
        "bpe_token_stats_by_lang": """
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(len(regexp_extract_all(text,
                       '''(?:[sdmt]|ll|ve|re)| ?\\p{L}+| ?\\p{N}+| ?[^\\s\\p{L}\\p{N}]+'))) AS BIGINT)
                       AS sum_bpe_tokens,
                   CAST(sum(len(regexp_extract_all(text, '\\S+'))) AS BIGINT)
                       AS sum_ws_tokens
            FROM documents GROUP BY lang
        """,
        "word_count_top20": """
            SELECT word, count(*) AS n FROM (
                SELECT unnest(regexp_extract_all(text, '\\S+')) AS word
                FROM documents
            ) GROUP BY word ORDER BY n DESC, word ASC LIMIT 20
        """,
        # the canonicalization expression is GENERATED from the
        # operator's own pattern list (functions/urls.py _CANON_STEPS)
        "url_canonicalize_stats": f"""
            WITH u AS (
                SELECT source, CASE CAST(doc_id % 3 AS INT)
                  WHEN 0 THEN 'https://' || upper(source) ||
                       '.Example.com:443/d/' || doc_id ||
                       '?utm_source=feed&id=' || doc_id || '#top'
                  WHEN 1 THEN 'https://' || source || '.example.com/d/' ||
                       doc_id || '?id=' || doc_id || '&utm_campaign=x'
                  ELSE 'http://' || source || '.example.com:80/d/' ||
                       doc_id || '?id=' || doc_id END AS url
                FROM documents
                UNION ALL
                SELECT source,
                       CASE WHEN doc_id % 3 = 2 THEN 'http://' ELSE 'https://' END
                       || source || '.example.com/d/' || doc_id ||
                       '?id=' || doc_id AS url
                FROM documents
            ), c AS (
                SELECT source, {canonicalize_sql('url')} AS canon FROM u
            )
            SELECT source, count(*) AS n_urls,
                   count(DISTINCT canon) AS n_distinct,
                   min(canon) AS min_url, max(canon) AS max_url
            FROM c GROUP BY source ORDER BY source
        """,
        # gates reuse the standalone queries' SQL-exact definitions:
        # quality (IEEE-order formula), per-doc char entropy (== byte
        # entropy on this ASCII corpus) rounded to 6, n_chars band
        "quality_gate_pipeline": """
            WITH s AS (
                SELECT doc_id AS rid, lang, n_chars,
                       len(regexp_extract_all(text, '\\S+')) AS nt,
                       len(regexp_extract_all(text, '[^\\w\\s]')) AS np_,
                       len(regexp_extract_all(text,
                           '(?i)\\b(?:the|and|of|a|to|in|is|it|that|for)\\b')) AS ns,
                       length(text) AS nc
                FROM documents
            ), q AS (
                SELECT rid, lang, n_chars,
                       0.5 * (least(greatest(nt / 50.0, 0), 1)
                              * least(greatest((10000 - nt) / 10000.0, 0), 1))
                       + 0.25 * least(greatest(1.0 - 4.0 * abs(
                             CAST(np_ AS DOUBLE) / greatest(nc, 1) - 0.05), 0), 1)
                       + 0.25 * least(greatest(
                             CAST(ns AS DOUBLE) / greatest(nt, 1) * 5.0, 0), 1)
                           AS quality
                FROM s
            ), ent AS (
                SELECT rid, round(log2(sum(n)) - sum(n * log2(n)) / sum(n), 6)
                           AS h
                FROM (
                    SELECT doc_id AS rid, c, count(*) AS n FROM (
                        SELECT doc_id, unnest(string_split(text, '')) AS c
                        FROM documents WHERE n_chars > 0
                    ) GROUP BY doc_id, c
                ) GROUP BY rid
            ), g AS (
                SELECT q.lang,
                       CASE WHEN q.quality >= 0.5 THEN 1 ELSE 0 END AS p1,
                       CASE WHEN q.quality >= 0.5 AND ent.h >= 3.5
                                 AND ent.h <= 6.0 THEN 1 ELSE 0 END AS p2,
                       CASE WHEN q.quality >= 0.5 AND ent.h >= 3.5
                                 AND ent.h <= 6.0 AND q.n_chars >= 100
                                 AND q.n_chars <= 500 THEN 1 ELSE 0 END AS p3
                FROM q LEFT JOIN ent ON q.rid = ent.rid
            )
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(p1) AS BIGINT) AS n_after_quality,
                   CAST(sum(p2) AS BIGINT) AS n_after_entropy,
                   CAST(sum(p3) AS BIGINT) AS n_after_length
            FROM g GROUP BY lang
        """,
        # per-doc char entropy == the operator's byte entropy (corpus is
        # pure ASCII); rounded per-doc then summed as scaled int so the
        # comparison is associative-exact
        "entropy_stats_by_lang": """
            WITH ch AS (
                SELECT doc_id, lang, unnest(string_split(text, '')) AS c
                FROM documents WHERE n_chars > 0
            ), cnt AS (
                SELECT doc_id, lang, c, count(*) AS n
                FROM ch GROUP BY doc_id, lang, c
            ), ent AS (
                SELECT doc_id, lang,
                       round(log2(sum(n)) - sum(n * log2(n)) / sum(n), 6) AS h
                FROM cnt GROUP BY doc_id, lang
            )
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(CAST(round(h * 1e6) AS BIGINT)) AS BIGINT)
                       AS ent_micro_sum,
                   min(h) AS min_entropy, max(h) AS max_entropy
            FROM ent GROUP BY lang
        """,
        "profile_documents": """
            SELECT 'doc_id' AS "column", count(*) AS n_rows,
                   count(*) - count(doc_id) AS n_null,
                   count(DISTINCT doc_id) AS n_distinct FROM documents
            UNION ALL SELECT 'text', count(*), count(*) - count(text),
                   count(DISTINCT text) FROM documents
            UNION ALL SELECT 'lang', count(*), count(*) - count(lang),
                   count(DISTINCT lang) FROM documents
            UNION ALL SELECT 'source', count(*), count(*) - count(source),
                   count(DISTINCT source) FROM documents
            UNION ALL SELECT 'n_chars', count(*), count(*) - count(n_chars),
                   count(DISTINCT n_chars) FROM documents
            ORDER BY "column"
        """,
        "textlen_histogram": """
            SELECT CAST(least(greatest(
                       floor((n_chars - 50.0) / ((450.0 - 50.0) / 8)),
                       -1), 8) AS BIGINT) AS bin,
                   count(*) AS n
            FROM documents WHERE n_chars IS NOT NULL
            GROUP BY bin ORDER BY bin
        """,
        "line_dedup_keep_first": """
            WITH c AS (
                SELECT doc_id // 4 AS id,
                       string_agg(text, chr(10) ORDER BY doc_id) AS text
                FROM documents GROUP BY doc_id // 4
            ), l AS (
                SELECT id,
                       generate_subscripts(string_split(text, chr(10)), 1)
                           - 1 AS idx,
                       unnest(string_split(text, chr(10))) AS line
                FROM c
            ), w AS (
                SELECT line, min(id * 2147483648 + idx) AS win
                FROM l GROUP BY line
            ), k AS (
                SELECT l.id, l.idx, l.line,
                       (l.id * 2147483648 + l.idx) = w.win AS keep
                FROM l JOIN w ON l.line = w.line
            )
            SELECT id AS doc_id, count(*) AS n_lines,
                   CAST(sum(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_kept,
                   coalesce(string_agg(line, chr(10) ORDER BY idx)
                            FILTER (WHERE keep), '') AS text
            FROM k GROUP BY id ORDER BY doc_id
        """,
        "incremental_ingest_dedup": """
            WITH old AS (
                SELECT doc_id, text FROM documents
                WHERE doc_id < (SELECT count(*) // 2 FROM documents)
            ), new AS (
                SELECT doc_id, text FROM documents
                WHERE doc_id >= (SELECT count(*) // 2 FROM documents)
                UNION ALL
                SELECT doc_id, text FROM old WHERE doc_id % 97 = 0
            )
            SELECT doc_id, TRUE AS loaded_from_store FROM new
            WHERE text NOT IN (SELECT text FROM old)
            ORDER BY doc_id
        """,
        "pmi_bigrams_top20": """
            WITH tok AS (
                SELECT regexp_extract_all(text, '\\S+') AS l FROM documents
            ), uc AS (
                SELECT w1, count(*) AS c FROM (
                    SELECT unnest(l) AS w1 FROM tok) GROUP BY w1
            ), bc AS (
                SELECT p[1] AS w1, p[2] AS w2, count(*) AS c12 FROM (
                    SELECT unnest(list_filter(list_zip(l, l[2:]),
                                  x -> x[2] IS NOT NULL)) AS p FROM tok)
                GROUP BY 1, 2
            ), tots AS (
                SELECT (SELECT CAST(sum(c) AS DOUBLE) FROM uc) AS T,
                       (SELECT CAST(sum(c12) AS DOUBLE) FROM bc) AS B
            )
            SELECT bc.w1, bc.w2, c12,
                   round(ln((c12 / B) / ((u1.c / T) * (u2.c / T))), 6) AS pmi
            FROM bc, tots
            JOIN uc u1 ON bc.w1 = u1.w1
            JOIN uc u2 ON bc.w2 = u2.w1
            WHERE c12 >= 5
            ORDER BY pmi DESC, bc.w1, bc.w2 LIMIT 20
        """,
        "vocab_stats_by_lang": """
            WITH tok AS (
                SELECT lang, unnest(regexp_extract_all(text, '\\S+')) AS term
                FROM documents
            ), tc AS (
                SELECT lang, term, count(*) AS n FROM tok GROUP BY lang, term
            )
            SELECT lang,
                   CAST(sum(n) AS BIGINT) AS n_tokens,
                   count(*) AS n_types,
                   CAST(count(*) FILTER (WHERE n = 1) AS BIGINT) AS n_hapax,
                   round(count(*) / CAST(sum(n) AS DOUBLE), 6) AS ttr
            FROM tc GROUP BY lang ORDER BY lang
        """,
        # recomputes the char-trigram LM and per-doc mean NLL exactly
        # from real substr n-grams: p(c3|c1c2) = (c_tri+0.5)/(c_bi+0.5A),
        # A = distinct corpus chars, round(-avg ln p, 6), fixed 0.78
        # fluency threshold; docs under 3 chars have no positions
        "perplexity_filter_by_lang": """
            WITH tri AS (SELECT doc_id, lang, substr(text, i, 3) AS g3,
                                substr(text, i, 2) AS g2
                         FROM (SELECT doc_id, lang,
                                      unnest(generate_series(1, len(text) - 2))
                                          AS i, text
                               FROM documents)),
                 tc AS (SELECT g3 AS g, count(*) AS c FROM tri GROUP BY 1),
                 bc AS (SELECT substr(text, i, 2) AS g, count(*) AS c
                        FROM (SELECT unnest(generate_series(1, len(text) - 1))
                                  AS i, text
                              FROM documents) GROUP BY 1),
                 al AS (SELECT CAST(count(DISTINCT substr(text, i, 1))
                                    AS DOUBLE) AS a
                        FROM (SELECT unnest(generate_series(1, len(text)))
                                  AS i, text
                              FROM documents)),
                 scored AS (SELECT t.doc_id, any_value(t.lang) AS lang,
                                   round(-avg(ln((tc.c + 0.5)
                                       / (bc.c + 0.5 * (SELECT a FROM al)))), 6)
                                       AS nll
                            FROM tri t JOIN tc ON t.g3 = tc.g
                                       JOIN bc ON t.g2 = bc.g
                            GROUP BY t.doc_id)
            SELECT lang, count(*) AS n_scored,
                   CAST(sum(CASE WHEN nll <= 0.78 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_fluent,
                   CAST(sum(CASE WHEN nll <= 0.78 THEN doc_id ELSE 0 END)
                        AS BIGINT) AS sum_fluent_ids
            FROM scored GROUP BY lang ORDER BY lang
        """,
        # recomputes the DSIR model and selection exactly: raw-vocab
        # add-1 smoothing for both unigram LMs, per-doc log-ratio sum,
        # Gumbel key from the same multiplicative-hash uniform,
        # round(key, 6), ORDER BY key DESC, doc_id ASC LIMIT 100
        "dsir_select_by_lang": r"""
            WITH tgt AS (SELECT text FROM documents WHERE source = 'src0'),
                 rt AS (SELECT unnest(regexp_extract_all(text, '\S+')) AS term
                        FROM documents),
                 rc AS (SELECT term, count(*) AS c FROM rt GROUP BY 1),
                 vs AS (SELECT CAST(count(*) AS DOUBLE) AS v FROM rc),
                 rtot AS (SELECT CAST(sum(c) AS DOUBLE) AS t FROM rc),
                 tt AS (SELECT unnest(regexp_extract_all(text, '\S+')) AS term
                        FROM tgt),
                 tc0 AS (SELECT term, count(*) AS c FROM tt GROUP BY 1),
                 tc AS (SELECT rc.term, coalesce(tc0.c, 0) AS c
                        FROM rc LEFT JOIN tc0 USING (term)),
                 ttot AS (SELECT CAST(sum(c) AS DOUBLE) AS t FROM tc),
                 lr AS (SELECT rc.term,
                               ln((tc.c + 1.0) / ((SELECT t FROM ttot)
                                                  + (SELECT v FROM vs)))
                             - ln((rc.c + 1.0) / ((SELECT t FROM rtot)
                                                  + (SELECT v FROM vs))) AS w
                        FROM rc JOIN tc USING (term)),
                 dt AS (SELECT doc_id,
                               unnest(regexp_extract_all(text, '\S+')) AS term
                        FROM documents),
                 dw AS (SELECT dt.doc_id, sum(lr.w) AS wsum
                        FROM dt JOIN lr USING (term) GROUP BY 1),
                 keyed AS (SELECT d.doc_id, d.lang,
                                  round(coalesce(dw.wsum, 0.0)
                                        - ln(-ln((((d.doc_id * 2654435761)
                                                   % 4294967296) + 0.5)
                                                 / 4294967296)), 6) AS key
                           FROM documents d
                           LEFT JOIN dw ON dw.doc_id = d.doc_id),
                 sel AS (SELECT * FROM keyed
                         ORDER BY key DESC, doc_id ASC LIMIT 100)
            SELECT lang, count(*) AS n_sel,
                   CAST(sum(doc_id) AS BIGINT) AS sum_ids
            FROM sel GROUP BY lang ORDER BY lang
        """,
        # recomputes hot windows and coverage from REAL substrings
        # (substr/len are codepoint-based like the Ray side's utf-32
        # window hashing): grams → count(DISTINCT doc_id) ≥ 2 → hot
        # start positions → distinct covered (doc, position) pairs
        "substring_scrub_stats": """
            WITH pos AS (SELECT doc_id,
                                unnest(generate_series(1, len(text) - 19)) AS i,
                                text
                         FROM documents),
                 grams AS (SELECT doc_id, i, substr(text, i, 20) AS g FROM pos),
                 hot AS (SELECT g FROM grams GROUP BY g
                         HAVING count(DISTINCT doc_id) >= 2),
                 hp AS (SELECT gr.doc_id, gr.i
                        FROM grams gr JOIN hot h ON gr.g = h.g),
                 cov AS (SELECT DISTINCT hp.doc_id, hp.i + s.o AS p
                         FROM hp CROSS JOIN
                              (SELECT unnest(generate_series(0, 19)) AS o) s)
            SELECT (SELECT count(*) FROM hot) AS n_hot_windows,
                   (SELECT count(*) FROM hp) AS n_hot_positions,
                   (SELECT count(DISTINCT doc_id) FROM hp) AS n_docs_affected,
                   (SELECT count(*) FROM cov) AS total_removed_chars
        """,
        # recomputes the NB model and argmax exactly: same \S+ tokens,
        # add-1 smoothing over the training vocabulary, prior + token
        # log-prob sum rounded to 6 before the argmax, label-asc ties;
        # OOV test tokens drop out via the inner join, docs with no
        # in-vocab tokens fall back to the prior argmax via LEFT JOIN
        "nb_langid_confusion": r"""
            WITH train AS (SELECT doc_id, lang, text FROM documents
                           WHERE doc_id % 5 <> 0),
                 test  AS (SELECT doc_id, lang, text FROM documents
                           WHERE doc_id % 5 = 0),
                 tt AS (SELECT lang AS label,
                               unnest(regexp_extract_all(text, '\S+')) AS term
                        FROM train),
                 ct AS (SELECT label, term, count(*) AS c FROM tt GROUP BY 1, 2),
                 vocab AS (SELECT DISTINCT term FROM tt),
                 vs AS (SELECT CAST(count(*) AS DOUBLE) AS v FROM vocab),
                 lt AS (SELECT label, CAST(sum(c) AS DOUBLE) AS tot
                        FROM ct GROUP BY 1),
                 prior AS (SELECT lang AS label,
                                  ln(count(*) / (SELECT CAST(count(*) AS DOUBLE)
                                                 FROM train)) AS lp
                           FROM train GROUP BY 1),
                 lp AS (SELECT l.label, v.term,
                               ln((coalesce(ct.c, 0) + 1.0)
                                  / (l.tot + (SELECT v FROM vs))) AS w
                        FROM vocab v CROSS JOIN lt l
                        LEFT JOIN ct ON ct.label = l.label AND ct.term = v.term),
                 tk AS (SELECT doc_id,
                               unnest(regexp_extract_all(text, '\S+')) AS term
                        FROM test),
                 sc AS (SELECT tk.doc_id, lp.label, sum(lp.w) AS s
                        FROM tk JOIN lp ON tk.term = lp.term GROUP BY 1, 2),
                 full_sc AS (SELECT te.doc_id, te.lang AS true_lang, p.label,
                                    round(p.lp + coalesce(sc.s, 0.0), 6) AS score
                             FROM test te CROSS JOIN prior p
                             LEFT JOIN sc ON sc.doc_id = te.doc_id
                                         AND sc.label = p.label),
                 pred AS (SELECT doc_id, true_lang, label AS pred_lang,
                                 row_number() OVER (PARTITION BY doc_id
                                     ORDER BY score DESC, label ASC) AS rn
                          FROM full_sc)
            SELECT true_lang, pred_lang, count(*) AS n_docs
            FROM pred WHERE rn = 1 GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # generated from the SAME patterns/op-order/rounding as the
        # Ray implementation — the two cannot drift independently
        "bm25_search_documents": bm25_sql_mirror(_BM25_TERMS),
        "bm25_index_search_documents": bm25_sql_mirror(_BM25_IDX_TERMS),
        "bm25_index_incremental": bm25_sql_mirror(_BM25_IDX_TERMS),
        # recomputes the temperature mix exactly: counts -> pow ->
        # round(6) -> floor threshold, mirroring temperature_fractions
        # + sample_mask operation-for-operation
        "mixture_sample_by_lang": """
            WITH c AS (SELECT lang, count(*) AS cnt FROM documents GROUP BY 1),
                 s AS (SELECT CAST(sum(cnt) AS DOUBLE) AS total FROM c),
                 w AS (SELECT lang, cnt,
                              pow(cnt / (SELECT total FROM s), 0.5) AS wt
                       FROM c),
                 f AS (SELECT lang, cnt,
                              round(least(1.0,
                                    wt / (SELECT sum(wt) FROM w)
                                       * (SELECT total FROM s) / cnt),
                                    6) AS frac
                       FROM w)
            SELECT d.lang, count(*) AS n_kept,
                   CAST(sum(d.doc_id) AS BIGINT) AS sum_kept_ids
            FROM documents d JOIN f ON d.lang = f.lang
            WHERE (d.doc_id * 2654435761) % 4294967296 <
                  CAST(floor(f.frac * 4294967296) AS BIGINT)
            GROUP BY d.lang
        """,
        "pack_sequences_documents": """
            WITH n AS (SELECT len(regexp_extract_all(text, '\\S+')) AS n
                       FROM documents)
            SELECT CAST(sum(CASE WHEN n > 0
                                 THEN CAST(ceil(n / 64.0) AS BIGINT)
                                 ELSE 0 END) AS BIGINT) AS n_pieces,
                   CAST(sum(n) AS BIGINT) AS total_tokens,
                   TRUE AS all_packs_within_budget,
                   TRUE AS pack_count_lower_ok,
                   TRUE AS pack_count_upper_ok
            FROM n
        """,
        "tfidf_top_terms": """
            WITH toks AS (
                SELECT doc_id, lang,
                       unnest(regexp_extract_all(text, '\\S+')) AS term
                FROM documents
            ), stats AS (
                SELECT lang, term, count(*) AS tf,
                       count(DISTINCT doc_id) AS df
                FROM toks GROUP BY 1, 2
            ), nd AS (
                SELECT lang, count(*) AS n_docs FROM documents GROUP BY 1
            ), scored AS (
                SELECT s.lang, s.term, s.tf, s.df,
                       round(s.tf * ln(CAST(nd.n_docs AS DOUBLE) / s.df), 6)
                           AS score
                FROM stats s JOIN nd USING (lang)
            )
            SELECT lang, term, tf, df, score
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY lang ORDER BY score DESC, term) AS rn
                  FROM scored)
            WHERE rn <= 5
            ORDER BY lang, score DESC, term
        """,
        "quantile_band_textlen": """
            SELECT CAST(count(*) AS BIGINT) AS n_total,
                   TRUE AS lo_rank_ok, TRUE AS hi_rank_ok,
                   TRUE AS kept_frac_ok, TRUE AS filter_consistent
            FROM documents
        """,
        "sliding_hll_users": """
            WITH fan AS (
                SELECT user_id, unnest([
                    to_timestamp(floor(epoch(ts) / 3600) * 3600),
                    to_timestamp((floor(epoch(ts) / 3600) - 1) * 3600)
                ]) AS window_start
                FROM events
            )
            SELECT count(DISTINCT window_start) AS n_windows,
                   TRUE AS all_windows_covered, TRUE AS all_within_bound
            FROM fan
        """,
        "url_blocklist_filter": """
            SELECT (SELECT CAST(greatest(2000, count(*) * 4) AS BIGINT)
                    FROM documents) AS n_total,
                   TRUE AS n_kept_matches_exact, TRUE AS n_dropped_gt_0
        """,
        "events_sliding": """
            WITH fan AS (SELECT 0 AS k UNION ALL SELECT 1)
            SELECT event_type,
                   to_timestamp(floor(epoch(ts) / 1800) * 1800 - k * 1800)
                       AT TIME ZONE 'UTC' AS window_start,
                   count(*) AS n_events,
                   round(sum(value), 4) AS sum_value
            FROM events CROSS JOIN fan
            GROUP BY 1, 2
        """,
        "events_sessions": """
            WITH flagged AS (
                SELECT user_id, ts, event_id,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR epoch(ts) - epoch(lag(ts) OVER w) > 1800
                            THEN 1 ELSE 0 END AS is_new
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), sessions AS (
                SELECT user_id, ts,
                       sum(is_new) OVER (PARTITION BY user_id
                                         ORDER BY ts, event_id
                                         ROWS UNBOUNDED PRECEDING) AS session_id
                FROM flagged
            )
            SELECT user_id,
                   count(DISTINCT session_id) AS n_sessions,
                   count(*) AS n_events,
                   CAST(max(session_id) AS BIGINT) AS max_session_id
            FROM sessions GROUP BY user_id
        """,
        "trigram_regex_documents": """
            SELECT doc_id FROM documents
            WHERE regexp_matches(text, 'merge (batch|sort)')
            ORDER BY doc_id
        """,
        "trigram_search_documents": """
            SELECT doc_id FROM documents
            WHERE text LIKE '%merge batch%' ORDER BY doc_id
        """,
        "minhash_join_crawls": """
            WITH n AS (SELECT doc_id,
                              lower(regexp_replace(text, '\\s+', ' ', 'g')) t
                       FROM documents)
            SELECT CAST(count(*) AS BIGINT) AS n_exact_cross_dups,
                   TRUE AS exact_all_found,
                   TRUE AS pairs_cross_split,
                   TRUE AS est_ge_threshold
            FROM n x JOIN n y ON x.t = y.t
            WHERE x.doc_id % 3 != 0 AND y.doc_id % 3 = 0
        """,
        "embed_documents_hashed": """
            WITH pos AS (
              SELECT d.doc_id, d.text,
                     unnest(range(1, length(d.text) - 1)) AS i
              FROM documents d
              WHERE length(d.text) >= 3
            ),
            tri AS (
              SELECT doc_id,
                     unicode(substr(text, CAST(i AS INT), 1)) * 65536
                   + unicode(substr(text, CAST(i AS INT) + 1, 1)) * 256
                   + unicode(substr(text, CAST(i AS INT) + 2, 1)) AS code
              FROM pos
            )
            SELECT doc_id, CAST(code % 16 AS BIGINT) AS dim_idx,
                   CAST(SUM(CASE WHEN (code // 16) % 2 = 0
                                 THEN 1 ELSE -1 END) AS BIGINT) AS val
            FROM tri GROUP BY doc_id, dim_idx HAVING val != 0
        """,
        "shuffled_export_order": """
            SELECT CAST(ROW_NUMBER() OVER (
                       ORDER BY (doc_id * 2654435761) % 4294967296, doc_id
                   ) AS BIGINT) AS rank,
                   doc_id, lang
            FROM documents
            ORDER BY rank LIMIT 20
        """,
        "token_budget_by_lang": """
            WITH c AS (
                SELECT lang, doc_id, n_chars,
                       SUM(n_chars) OVER (
                           PARTITION BY lang
                           ORDER BY (doc_id * 2654435761) % 4294967296,
                                    doc_id
                       ) AS cum
                FROM documents)
            SELECT lang, CAST(count(*) AS BIGINT) AS n_kept,
                   CAST(sum(n_chars) AS BIGINT) AS chars_kept
            FROM c WHERE cum <= 200000
            GROUP BY lang ORDER BY lang
        """,
        "ann_topk_cosine": """
            SELECT vec_id FROM (
                SELECT vec_id, list_cosine_similarity(
                    embedding,
                    (SELECT embedding FROM embeddings WHERE vec_id = 0)) AS s
                FROM embeddings ORDER BY s DESC, vec_id ASC LIMIT 10
            )
        """,
        "pq_topk_refined": """
            SELECT vec_id FROM (
                SELECT vec_id, list_cosine_similarity(
                    embedding,
                    (SELECT embedding FROM embeddings WHERE vec_id = 0)) AS s
                FROM embeddings ORDER BY s DESC, vec_id ASC LIMIT 10
            )
        """,
        "pq_multiquery_consistency": """
            SELECT CAST(3 AS BIGINT) AS n_queries,
                   CAST(10 AS BIGINT) AS k,
                   TRUE AS batched_equals_per_query
        """,
        "ivfpq_topk_refined": """
            SELECT vec_id FROM (
                SELECT vec_id, list_cosine_similarity(
                    embedding,
                    (SELECT embedding FROM embeddings WHERE vec_id = 0)) AS s
                FROM embeddings ORDER BY s DESC, vec_id ASC LIMIT 10
            )
        """,
        "pq_adc_recall": """
            SELECT CAST(10 AS BIGINT) AS k,
                   CAST(100 AS BIGINT) AS shortlist,
                   TRUE AS recall_ge_8_of_10,
                   CAST(8 AS BIGINT) AS code_bytes_per_vec
        """,
        "embedding_neardup": """
            SELECT a.vec_id AS a, b.vec_id AS b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
        """,
        "multimodal_image_features": """
            SELECT TRUE AS n_rows_ok, TRUE AS feature_dim_fixed,
                   TRUE AS decode_deterministic
        """,
        "multimodal_av_pipeline": """
            SELECT TRUE AS n_rows_ok, TRUE AS audio_dim_fixed,
                   TRUE AS video_dim_fixed, TRUE AS energies_bounded,
                   TRUE AS decode_deterministic
        """,
        "multimodal_real_decode": """
            SELECT CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum((doc_id * 7) % 256) AS BIGINT) AS sum_mean_r,
                   CAST(sum((doc_id * 11) % 256) AS BIGINT) AS sum_mean_g,
                   CAST(sum((doc_id * 13) % 256) AS BIGINT) AS sum_mean_b,
                   sum(trunc(((doc_id % 50) / 100.0) * 32767) / 32768.0)
                       AS sum_energy0,
                   CAST(sum((doc_id * 17) % 256) AS BIGINT) AS sum_vid_f0
            FROM documents
        """,
        "bpe_train_stats": """
            SELECT CAST(count(DISTINCT w) AS BIGINT) AS n_word_types,
                   CAST(count(*) AS BIGINT) AS total_ws_tokens,
                   CAST(40 AS BIGINT) AS n_merges_learned,
                   TRUE AS merges_match_histogram_oracle,
                   TRUE AS encode_total_matches_serial,
                   TRUE AS token_total_bounds_ok
            FROM (SELECT unnest(regexp_extract_all(text, '\\S+')) AS w
                  FROM documents)
        """,
        "semdedup_stats": """
            SELECT (SELECT count(*) FROM embeddings) AS n_total,
                   count(DISTINCT b.vec_id) AS n_semantic_dup_members,
                   TRUE AS dropped_subset_ok,
                   TRUE AS recall_ge_80pct,
                   TRUE AS count_consistent
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
        """,
        "ivf_neardup_recall": """
            SELECT count(*) AS n_exact_pairs,
                   TRUE AS ivf_subset_of_exact,
                   TRUE AS recall_ge_80pct
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45
        """,
        "ivf_ann_topk": """
            SELECT CAST(10 AS BIGINT) AS k, TRUE AS recall_ge_8_of_10
        """,
        "kmeans_embeddings": """
            SELECT count(*) AS n_vecs, CAST(8 AS BIGINT) AS n_clusters,
                   TRUE AS all_assigned, TRUE AS inertia_monotone,
                   TRUE AS matches_serial
            FROM embeddings
        """,
        "theta_custkey_overlap": """
            SELECT
              (SELECT count(DISTINCT c_custkey) FROM customer) AS n_customers,
              (SELECT count(DISTINCT o_custkey) FROM orders) AS n_order_custkeys,
              (SELECT count(DISTINCT o_custkey) FROM orders
               WHERE o_custkey IN (SELECT c_custkey FROM customer)) AS n_common,
              (SELECT count(*) FROM customer
               WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)) AS n_customers_no_orders
        """,
        # Estimate/non-SQL queries compute their exact reference with
        # DuckDB inside the query and emit published-bound booleans, so
        # the oracle is the exact value + constant TRUE flags (same
        # pattern as theta_custkey_overlap); the pytest suite holds the
        # finer-grained bound assertions.
        "hll_distinct_custkey": """
            SELECT count(DISTINCT o_custkey) AS n_distinct_exact,
                   TRUE AS hll_err_within_bound
            FROM orders
        """,
        "hll_hosts_by_lang": """
            SELECT lang,
                   CAST(count(DISTINCT source) AS BIGINT) AS n_distinct_exact,
                   TRUE AS hll_err_within_bound
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "salted_hll_sources_by_lang": """
            SELECT lang,
                   CAST(count(DISTINCT source) AS BIGINT) AS n_distinct_exact,
                   TRUE AS salted_hll_within_bound
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "stream_aggregate_events": """
            SELECT event_type,
                   count(*) AS n_events,
                   round(sum(value), 4) AS sum_value,
                   TRUE AS distinct_users_within_bound
            FROM events GROUP BY event_type ORDER BY event_type
        """,
        "stream_dedup_events": """
            WITH e AS (SELECT event_id, user_id, event_type, ts,
                              CAST(ts AS DATE) AS d FROM events)
            SELECT e.event_type, count(*) AS n_kept FROM e
            WHERE NOT EXISTS (SELECT 1 FROM e p
                WHERE p.user_id = e.user_id
                  AND p.event_type = e.event_type
                  AND (p.ts < e.ts
                       OR (p.ts = e.ts AND p.event_id < e.event_id))
                  AND p.d > e.d - 7 AND p.d <= e.d)
            GROUP BY e.event_type ORDER BY e.event_type
        """,
        "stream_windowed_events": """
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   count(*) AS n_events, round(sum(value), 4) AS sum_value,
                   CAST(0 AS BIGINT) AS n_late
            FROM events GROUP BY event_type, date_trunc('hour', ts)
        """,
        "cm_join_size_estimate": """
            SELECT count(*) AS exact_join_size, TRUE AS est_ge_exact,
                   TRUE AS est_within_bound
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            WHERE p.p_partkey % 7 = 0
        """,
        "apbf_sliding_users": """
            WITH mx AS (SELECT max(CAST(ts AS DATE)) md FROM events)
            SELECT count(DISTINCT user_id) AS n_recent_users,
                   TRUE AS recent_all_present, TRUE AS stale_absent,
                   TRUE AS expired_trimmed
            FROM events, mx WHERE CAST(ts AS DATE) > mx.md - 7
        """,
        "cm_heavy_hitters": """
            SELECT lang, CAST(count(*) AS BIGINT) AS freq_exact,
                   TRUE AS cm_within_bound
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "quantiles_textlen": """
            SELECT CAST(q AS DOUBLE) AS q,
                   TRUE AS td_within_bound, TRUE AS kll_within_bound
            FROM (VALUES (0.1), (0.5), (0.9), (0.99)) t(q)
        """,
        "exact_quantiles_totalprice": """
            SELECT quantile_disc(o_totalprice, 0.5) AS p50,
                   quantile_disc(o_totalprice, 0.9) AS p90,
                   quantile_disc(o_totalprice, 0.99) AS p99
            FROM orders
        """,
        "planned_join_orders": """
            SELECT c_nationkey,
                   count(*) AS n_orders,
                   round(sum(CAST(round(o_totalprice * 100) AS BIGINT)) / 100.0, 2) AS total_price
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_nationkey
        """,
        "containment_pairs_documents": """
            WITH toks AS (
                SELECT doc_id,
                       list_filter(string_split_regex(lower(text),
                                                      '[^a-z0-9]+'),
                                   x -> x <> '') AS t
                FROM documents
            ), g0 AS (
                SELECT DISTINCT doc_id,
                       array_to_string(t[i:i+4], ' ') AS gram
                FROM toks,
                     unnest(range(1, greatest(len(t) - 4, 1) + 1)) AS r(i)
                WHERE len(t) >= 1
            ), sz AS (
                SELECT doc_id, count(*) AS s FROM g0 GROUP BY doc_id
            ), pr AS (
                SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS inter
                FROM g0 x JOIN g0 y
                  ON x.gram = y.gram AND x.doc_id < y.doc_id
                GROUP BY x.doc_id, y.doc_id
            )
            SELECT p.a, p.b, p.inter,
                   CAST(sa.s AS BIGINT) AS size_a,
                   CAST(sb.s AS BIGINT) AS size_b,
                   CAST((p.inter * 1000000) // least(sa.s, sb.s) AS BIGINT)
                       AS cont_ppm
            FROM pr p
            JOIN sz sa ON sa.doc_id = p.a
            JOIN sz sb ON sb.doc_id = p.b
            WHERE (p.inter * 1000000) // least(sa.s, sb.s) >= 800000
        """,
        "drift_events_hourly": """
            WITH a AS (
                SELECT CAST(EXTRACT(hour FROM ts) AS BIGINT) AS h,
                       event_type AS e, count(*) AS c
                FROM events WHERE event_id % 2 = 0 GROUP BY 1, 2
            ), b AS (
                SELECT CAST(EXTRACT(hour FROM ts) AS BIGINT) AS h,
                       event_type AS e, count(*) AS c
                FROM events WHERE event_id % 2 = 1 GROUP BY 1, 2
            ), cells AS (
                SELECT h, e FROM a UNION SELECT h, e FROM b
            ), j AS (
                SELECT k.h, k.e,
                       coalesce(a.c, 0) AS ca, coalesce(b.c, 0) AS cb
                FROM cells k
                LEFT JOIN a ON a.h = k.h AND a.e = k.e
                LEFT JOIN b ON b.h = k.h AND b.e = k.e
            ), n AS (
                SELECT h, sum(ca) AS na, sum(cb) AS nb FROM j GROUP BY h
            )
            SELECT j.h AS hour,
                   CAST(n.na AS BIGINT) AS n_a,
                   CAST(n.nb AS BIGINT) AS n_b,
                   CASE WHEN n.na = 0 OR n.nb = 0 THEN CAST(1000000 AS BIGINT)
                        ELSE CAST(sum(abs(CAST(j.ca AS HUGEINT) * n.nb
                                          - CAST(j.cb AS HUGEINT) * n.na))
                                  * 1000000
                                  // (2 * CAST(n.na AS HUGEINT) * n.nb)
                                  AS BIGINT)
                   END AS tv_ppm
            FROM j JOIN n ON n.h = j.h
            GROUP BY j.h, n.na, n.nb
        """,
        "grouped_exact_quantiles_status": """
            SELECT o_orderstatus,
                   quantile_disc(o_totalprice, 0.5) AS p50,
                   quantile_disc(o_totalprice, 0.95) AS p95
            FROM orders GROUP BY o_orderstatus
        """,
        "ngram_novelty_documents": """
            WITH toks AS (
                SELECT doc_id, lang,
                       list_filter(string_split_regex(lower(text),
                                                      '[^a-z0-9]+'),
                                   x -> x <> '') AS t
                FROM documents
            ), rg AS (
                SELECT DISTINCT array_to_string(t[i:i+4], ' ') AS gram
                FROM toks,
                     unnest(range(1, greatest(len(t) - 4, 1) + 1)) AS r(i)
                WHERE doc_id % 29 = 0 AND len(t) >= 1
            ), cg AS (
                SELECT doc_id, lang, array_to_string(t[i:i+4], ' ') AS gram
                FROM toks,
                     unnest(range(1, greatest(len(t) - 4, 1) + 1)) AS r(i)
                WHERE doc_id % 29 <> 0 AND len(t) >= 1
            ), per_doc AS (
                SELECT doc_id, lang, count(*) AS n_grams,
                       sum(CASE WHEN gram IN (SELECT gram FROM rg)
                                THEN 1 ELSE 0 END) AS n_seen
                FROM cg GROUP BY doc_id, lang
            )
            SELECT d.lang,
                   count(*) AS n_docs,
                   CAST(coalesce(sum(p.n_grams), 0) AS BIGINT) AS sum_grams,
                   CAST(coalesce(sum(p.n_seen), 0) AS BIGINT) AS sum_seen,
                   CAST(((coalesce(sum(p.n_grams), 0) -
                          coalesce(sum(p.n_seen), 0)) * 1000000)
                        // coalesce(sum(p.n_grams), 0) AS BIGINT)
                       AS novelty_ppm
            FROM (SELECT doc_id, lang FROM documents
                  WHERE doc_id % 29 <> 0) d
            LEFT JOIN per_doc p USING (doc_id)
            GROUP BY d.lang
        """,
        "grouped_quantiles_totalprice": """
            SELECT DISTINCT o_orderstatus,
                   TRUE AS p50_rank_ok, TRUE AS p95_rank_ok
            FROM orders ORDER BY o_orderstatus
        """,
        "prepare_corpus_pipeline": """
            WITH s AS (
                SELECT doc_id AS rid,
                       len(regexp_extract_all(text, '\\S+')) AS nt,
                       len(regexp_extract_all(text, '[^\\w\\s]')) AS np_,
                       len(regexp_extract_all(text,
                           '(?i)\\b(?:the|and|of|a|to|in|is|it|that|for)\\b')) AS ns,
                       length(text) AS nc
                FROM documents
            ), q AS (
                SELECT rid, nc,
                       0.5 * (least(greatest(nt / 50.0, 0), 1)
                              * least(greatest((10000 - nt) / 10000.0, 0), 1))
                       + 0.25 * least(greatest(1.0 - 4.0 * abs(
                             CAST(np_ AS DOUBLE) / greatest(nc, 1) - 0.05), 0), 1)
                       + 0.25 * least(greatest(
                             CAST(ns AS DOUBLE) / greatest(nt, 1) * 5.0, 0), 1)
                           AS quality
                FROM s
            ), ent AS (
                SELECT rid, round(log2(sum(n)) - sum(n * log2(n)) / sum(n), 6)
                           AS h
                FROM (
                    SELECT doc_id AS rid, c, count(*) AS n FROM (
                        SELECT doc_id, unnest(string_split(text, '')) AS c
                        FROM documents WHERE length(text) > 0
                    ) GROUP BY doc_id, c
                ) GROUP BY rid
            )
            SELECT count(*) AS n_gated, TRUE AS monotone_ok,
                   TRUE AS final_stage_ok, TRUE AS exact_dups_collapsed
            FROM q LEFT JOIN ent ON q.rid = ent.rid
            WHERE q.quality >= 0.35 AND ent.h >= 3.0 AND ent.h <= 6.5
              AND q.nc >= 20 AND q.nc <= 1000000
        """,
        "minhash_dedup_documents": """
            SELECT count(*) AS n_docs, TRUE AS partition_ok,
                   TRUE AS exact_dups_collapsed
            FROM documents
        """,
        "minhash_index_incremental": """
            SELECT count(*) AS n_new, TRUE AS partition_ok,
                   TRUE AS matches_in_index_ok, TRUE AS precision_ok,
                   TRUE AS append_selfmatch_ok
            FROM documents WHERE doc_id % 4 = 0
        """,
        "simhash_candidates_documents": """
            SELECT TRUE AS exact_dup_pairs_found,
                   TRUE AS all_pairs_le_max_hamming
        """,
        "ngram_jaccard_check": """
            SELECT TRUE AS n_verified_pairs_gt0,
                   TRUE AS est_within_binomial_bound
        """,
        "exact_topk_words": """
            SELECT word, CAST(count(*) AS BIGINT) AS n FROM (
                SELECT unnest(regexp_extract_all(text, '\\S+')) AS word
                FROM documents)
            GROUP BY word ORDER BY n DESC, word ASC LIMIT 20
        """,
        "topk_words_misra_gries": """
            SELECT CAST(sum(len(regexp_extract_all(text, '\\S+'))) AS BIGINT)
                       AS n_words,
                   TRUE AS counters_within_bound,
                   TRUE AS all_heavy_hitters_tracked
            FROM documents
        """,
        "topk_words_by_lang": """
            SELECT lang,
                   CAST(sum(len(regexp_extract_all(text, '\\S+'))) AS BIGINT)
                       AS n_words,
                   TRUE AS mg_bound_holds
            FROM documents GROUP BY lang ORDER BY lang
        """,
        "bottomk_sample_orderkeys": """
            SELECT CAST(50 AS BIGINT) AS k, TRUE AS sample_is_subset,
                   TRUE AS partitioning_invariant
        """,
        "hll_per_host": """
            SELECT TRUE AS n_hosts_gt_500, TRUE AS all_hosts_covered,
                   TRUE AS all_within_bound
        """,
        # webpages_suite input is the generated webpages table (not a
        # registered driver view); exact references are computed inside
        # the query and surfaced as booleans, and the one value column
        # (rows) is a pure function of count(documents) — so the
        # flagship pipeline is fully oracle-checked too.
        "webpages_suite": """
            SELECT CAST(greatest(2000, count(*) * 4) AS BIGINT) AS rows,
                   TRUE AS n_langs_ok,
                   TRUE AS hll_urls_ok,
                   TRUE AS hll_hosts_ok,
                   TRUE AS textlen_p50_rank_ok,
                   TRUE AS probe_no_false_negatives
            FROM documents
        """,
    }

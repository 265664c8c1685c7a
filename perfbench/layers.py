"""Per-layer metrics of the traced run, and the end-to-end metric and
workload each one should move.

Time per layer is given as a share of the traced wall time: the layer's
self time (its spans minus their child spans) over the summed wall time
of the traced iterations. The seconds themselves, for every span name,
are in the ``*-layers.json`` table the traced run writes. Counts are per
iteration. A workload that never enters a layer reports 0 for it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .tracing import FAMILIES

# (name, unit, better, moves end-to-end metric, on workload)
Spec = Tuple[str, str, str, str, str]


def _specs() -> List[Spec]:
    out: List[Spec] = []
    for fam in FAMILIES.values():
        out += [(f"sketches.{fam}.insert_rows", "count", "lower", "norm_rows_per_s", "suite_build"),
                (f"sketches.{fam}.insert_share", "ratio", "lower", "norm_rows_per_s", "suite_build")]
    out += [
        ("sketches.bloom.probe_rows", "count", "lower", "norm_rows_per_s", "probe_semijoin"),
        ("sketches.bloom.probe_share", "ratio", "lower", "norm_rows_per_s", "probe_semijoin"),
        ("sketches.bloom.prefilter_reject_ratio", "ratio", "higher", "norm_rows_per_s",
         "probe_semijoin"),
        ("sketches.merge_calls", "count", "lower", "norm_rows_per_s", "suite_build,grouped_udaf"),
        ("sketches.merge_share", "ratio", "lower", "norm_rows_per_s", "suite_build,grouped_udaf"),
        ("sketches.serialize_calls", "count", "lower", "norm_rows_per_s", "suite_build,grouped_udaf"),
        ("sketches.serialize_bytes", "B", "lower", "norm_rows_per_s", "suite_build,grouped_udaf"),
        ("sketches.serialize_share", "ratio", "lower", "norm_rows_per_s", "suite_build,grouped_udaf"),
        ("sketches.deserialize_calls", "count", "lower", "norm_rows_per_s", "suite_build,grouped_udaf"),
        ("sketches.deserialize_share", "ratio", "lower", "norm_rows_per_s",
         "suite_build,grouped_udaf"),
        ("sketches.hll.rel_err", "ratio", "lower", "failed (HLL bound)",
         "suite_build,grouped_udaf"),
        ("sketches.quantile.rank_err", "ratio", "lower", "failed (rank bound)", "suite_build"),
        ("sketches.bloom.fpr", "ratio", "lower", "failed (fpr bound)", "probe_semijoin"),
        ("engine.store.put_calls", "count", "lower", "norm_rows_per_s", "suite_build"),
        ("engine.store.put_bytes", "B", "lower", "norm_rows_per_s", "suite_build"),
        ("engine.store.put_share", "ratio", "lower", "norm_rows_per_s", "suite_build"),
        ("engine.store.get_calls", "count", "lower", "norm_rows_per_s", "suite_build"),
        ("engine.store.get_bytes", "B", "lower", "norm_rows_per_s", "suite_build"),
        ("engine.store.get_share", "ratio", "lower", "norm_rows_per_s", "suite_build"),
        ("engine.store.bytes_per_row", "B/row", "lower", "norm_rows_per_s",
         "suite_build,probe_semijoin"),
        ("engine.ops.get_or_load_calls", "count", "lower", "norm_rows_per_s", "probe_semijoin"),
        ("engine.ops.cache_hit_ratio", "ratio", "higher", "norm_rows_per_s", "probe_semijoin"),
        ("engine.agg.aggregate_block_calls", "count", "lower", "norm_rows_per_s", "grouped_udaf"),
        ("engine.agg.combine_calls", "count", "lower", "norm_rows_per_s", "grouped_udaf"),
        ("engine.agg.combine_share", "ratio", "lower", "norm_rows_per_s", "grouped_udaf"),
        ("engine.agg.finalize_share", "ratio", "lower", "norm_rows_per_s", "grouped_udaf"),
        ("engine.agg.build_sketch_share", "ratio", "lower", "norm_rows_per_s", "grouped_udaf"),
        ("engine.agg.grouped_sketch_share", "ratio", "lower", "norm_rows_per_s", "grouped_udaf"),
        ("engine.agg.rowshuffle_share", "ratio", "lower", "norm_rows_per_s,driver_peak_rss_mb",
         "grouped_udaf"),
        ("pipelines.flagship.self_share", "ratio", "lower", "norm_rows_per_s", "suite_build"),
        ("pipelines.flagship.shards_share", "ratio", "lower", "norm_rows_per_s", "suite_build"),
        ("pipelines.flagship.merge_share", "ratio", "lower", "norm_rows_per_s", "suite_build"),
        ("pipelines.flagship.straggler_ratio", "ratio", "lower", "norm_rows_per_s", "suite_build"),
        ("pipelines.probe.self_share", "ratio", "lower", "norm_rows_per_s", "probe_semijoin"),
        ("pipelines.probe.selectivity", "ratio", "lower", "norm_rows_per_s", "probe_semijoin"),
    ]
    for span in STAGES:
        out += [(f"{span}_share", "ratio", "lower", "norm_rows_per_s", "prepare_corpus"),
                (f"{span}_removed_ratio", "ratio", "higher", "norm_rows_per_s", "prepare_corpus")]
    out += [
        ("ray.cpu_busy_share", "ratio", "higher", "norm_rows_per_s", "all"),
        ("trace.wall_s", "s", "lower", "norm_rows_per_s", "all"),
        ("trace.overhead_ratio", "ratio", "lower", "none (tracing cost)", "all"),
    ]
    return out


STAGES = ["functions.urls.host_filter", "functions.text.quality_gates",
          "functions.dedup.exact_dedup", "functions.dedup.minhash_dedup",
          "functions.dedup.cap_per_key"]
SPECS = _specs()
NAMES = [s[0] for s in SPECS]
UNITS = {s[0]: s[1] for s in SPECS}

# per-layer name -> accuracy figure a workload reports
_ACCURACY = {"sketches.hll.rel_err": "hll_rel_err",
             "sketches.quantile.rank_err": "quantile_rank_err",
             "sketches.bloom.fpr": "bloom_fpr",
             "engine.store.bytes_per_row": "store_bytes_per_row"}


def per_layer_metrics(layers: Dict[str, Dict[str, float]], *, n_iters: int, wall: float,
                      extras: Dict[str, float], accuracy: Dict[str, float],
                      cpu_busy_share: float, overhead_ratio: float) -> Dict[str, float]:
    """Every per-layer metric in NAMES, from the span table of the traced
    iterations and the figures the workload reports itself."""
    n = max(n_iters, 1)
    wall = max(wall, 1e-9)

    def get(span: str, key: str) -> float:
        return float(layers.get(span, {}).get(key, 0))

    def share(span: str) -> float:
        return get(span, "self_s") / wall

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: Dict[str, float] = {}
    for fam in FAMILIES.values():
        m[f"sketches.{fam}.insert_rows"] = get(f"sketches.{fam}.insert", "rows") / n
        m[f"sketches.{fam}.insert_share"] = share(f"sketches.{fam}.insert")
    m["sketches.bloom.probe_rows"] = get("sketches.bloom.probe", "rows") / n
    m["sketches.bloom.probe_share"] = share("sketches.bloom.probe")
    m["sketches.bloom.prefilter_reject_ratio"] = ratio(get("sketches.bloom.probe", "extra"),
                                                       get("sketches.bloom.probe", "rows"))
    for op in ("merge", "serialize", "deserialize"):
        m[f"sketches.{op}_calls"] = get(f"sketches.{op}", "calls") / n
        m[f"sketches.{op}_share"] = share(f"sketches.{op}")
    m["sketches.serialize_bytes"] = get("sketches.serialize", "bytes") / n
    for op in ("put", "get"):
        m[f"engine.store.{op}_calls"] = get(f"engine.store.{op}", "calls") / n
        m[f"engine.store.{op}_bytes"] = get(f"engine.store.{op}", "bytes") / n
        m[f"engine.store.{op}_share"] = share(f"engine.store.{op}")
    m["engine.ops.get_or_load_calls"] = get("engine.ops.get_or_load", "calls") / n
    m["engine.ops.cache_hit_ratio"] = ratio(get("engine.ops.get_or_load", "extra"),
                                            get("engine.ops.get_or_load", "calls"))
    for op in ("aggregate_block", "combine"):
        m[f"engine.agg.{op}_calls"] = get(f"engine.agg.{op}", "calls") / n
    for op in ("combine", "finalize", "build_sketch", "grouped_sketch", "rowshuffle"):
        m[f"engine.agg.{op}_share"] = share(f"engine.agg.{op}")
    m["pipelines.flagship.self_share"] = share("pipelines.flagship")
    per_iter_wall = wall / n
    m["pipelines.flagship.shards_share"] = extras.get(
        "pipelines.flagship.shards_s", 0.0) / per_iter_wall
    m["pipelines.flagship.merge_share"] = extras.get(
        "pipelines.flagship.merge_s", 0.0) / per_iter_wall
    m["pipelines.flagship.straggler_ratio"] = extras.get(
        "pipelines.flagship.straggler_ratio", 0.0)
    m["pipelines.probe.self_share"] = share("pipelines.probe")
    m["pipelines.probe.selectivity"] = extras.get("pipelines.probe.selectivity", 0.0)
    for span in STAGES:
        m[f"{span}_share"] = share(span)
        m[f"{span}_removed_ratio"] = extras.get(f"{span}_removed_ratio", 0.0)
    for name, key in _ACCURACY.items():
        m[name] = float(accuracy.get(key, 0.0))
    m["ray.cpu_busy_share"] = cpu_busy_share
    m["trace.wall_s"] = wall
    m["trace.overhead_ratio"] = overhead_ratio
    missing = set(NAMES) - set(m)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: m[k] for k in NAMES}

"""Sketch-driven join planning — the project's sketches as a query
optimizer, not just a filter.

The reference exists to prune joins: build a Bloom filter over one
side, probe the other (`README.md:6-38` of
RobinUS2/presto-bloomfilter). This module closes the loop by letting
the sketches CHOOSE the physical join strategy the way a distributed
optimizer would, from one cheap mergeable-statistics pass per side
(exact row count + Theta distinct sketch of the key — both through the
standard partial → merge-tree path, one scan each):

* **broadcast** — the smaller side fits the driver/worker budget:
  ship it once (``ray.put``) and hash-join every batch of the big side
  map-side. No shuffle at all.
* **bloom_prefilter** — both sides are big but the Theta
  INTERSECTION estimate says most of each side's keys have no partner
  (low join selectivity): build a Bloom filter over each side's keys,
  cross-semi-join both sides down to (approximately) the matching
  subset, then shuffle-join the survivors. The exchange shrinks by the
  estimated selectivity; Bloom false positives only let a bounded
  sliver of non-matching rows into the shuffle (the join itself stays
  exact — extra rows simply find no partner).
* **shuffle** — both sides big and mostly-overlapping: prefiltering
  would scan twice to remove nothing; go straight to the
  co-partitioned join.

Every tier runs :func:`~.fold.join` (its broadcast or its shuffle
tier).

``sketch_join_plan`` returns the decision WITH its evidence (counts,
distinct estimates, intersection estimate, predicted survival
fractions) so pipelines can log why a plan was chosen;
``planned_join`` executes it. Results are identical across plans
(inner-join semantics; tests pin all three paths against each other
and the driver query hash-matches a plain SQL join).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .keyset import KeySet

__all__ = ["sketch_join_plan", "planned_join"]


def _side_stats(ds, key: str, theta_k: int) -> Tuple[int, object]:
    from ..engine.agg import build_sketch
    from ..sketches.theta import ThetaSketch

    n = ds.count()
    sk = build_sketch(ds, key, lambda: ThetaSketch(theta_k),
                      batch_size=None)
    return n, sk


#: bits per key of a Bloom filter at the prefilter FPP (0.01); the
#: classic -ln(p)/(ln 2)^2
_PREFILTER_BITS_PER_KEY = 9.57
#: every map task emits a FULL-SIZE dense Bloom partial (a bitset's
#: size is fixed by (n, p), not by how many keys a block held), so the
#: build exchange is ~n_blocks × filter_bytes — the dominant and
#: easily-underestimated cost of prefiltering. Measured: two 32M-key
#: filters at 64 blocks cost 166 s vs the 19 s shuffle they tried to
#: save (PERF §38).
_FILTER_BLOCKS_FALLBACK = 32


def sketch_join_plan(left, lkey: str, right, rkey: str, *,
                     broadcast_limit: int = 1_000_000,
                     prefilter_below: float = 0.5,
                     theta_k: int = 4096) -> Dict:
    """Pick a physical inner-join strategy from sketch statistics.

    Decision rule (in order):

    1. ``min(rows) <= broadcast_limit`` → ``"broadcast"``;
    2. ``"bloom_prefilter"`` when BOTH hold — most keys on both sides
       are partnerless (``max(inter/d) <= prefilter_below``) AND the
       byte-cost model says pruning pays: prefiltering saves
       ``(1 - surv) × side_bytes`` of shuffle exchange per side but
       spends ``~4 × filter_bytes`` building/merging each Bloom
       envelope. On narrow rows (a 16-byte key pair) the filters cost
       more than the whole shuffle — selectivity alone is NOT a reason
       to prefilter; on wide rows (documents) the same selectivity
       saves gigabytes. Theta's intersection RSE is a few percent at
       k=4096 and a wrong call only wastes a map pass, never changes
       the answer;
    3. else ``"shuffle"``.
    """
    n_l, sk_l = _side_stats(left, lkey, theta_k)
    n_r, sk_r = _side_stats(right, rkey, theta_k)
    d_l = max(sk_l.estimate(), 1.0)
    d_r = max(sk_r.estimate(), 1.0)
    inter = sk_l.intersection_estimate(sk_r)
    surv_l = min(1.0, inter / d_l)
    surv_r = min(1.0, inter / d_r)
    bytes_l = max(int(left.size_bytes() or 0), 16 * n_l)
    bytes_r = max(int(right.size_bytes() or 0), 16 * n_r)
    try:
        n_blocks = max(int(left.num_blocks() or 0),
                       int(right.num_blocks() or 0),
                       1)
    except Exception:
        n_blocks = _FILTER_BLOCKS_FALLBACK
    filter_bytes = (_PREFILTER_BITS_PER_KEY / 8.0) * 1.2 * (d_l + d_r)
    est_shuffle = float(bytes_l + bytes_r)
    est_prefilter = (n_blocks * filter_bytes
                     + surv_l * bytes_l + surv_r * bytes_r)
    if KeySet.broadcasts(min(n_l, n_r), broadcast_limit):
        strategy = "broadcast"
    elif (max(surv_l, surv_r) <= prefilter_below
          and est_prefilter < 0.8 * est_shuffle):
        strategy = "bloom_prefilter"
    else:
        strategy = "shuffle"
    return {
        "strategy": strategy,
        "n_left": int(n_l), "n_right": int(n_r),
        "bytes_left": int(bytes_l), "bytes_right": int(bytes_r),
        "distinct_left_est": float(d_l), "distinct_right_est": float(d_r),
        "intersection_est": float(inter),
        "survival_left_est": float(surv_l),
        "survival_right_est": float(surv_r),
        "est_shuffle_mb": round(est_shuffle / 2**20, 1),
        "est_prefilter_mb": round(est_prefilter / 2**20, 1),
        "theta_rse": float(sk_l.relative_error_bound()),
    }


def planned_join(left, lkey: str, right, rkey: str, *,
                 broadcast_limit: int = 1_000_000,
                 prefilter_below: float = 0.5,
                 theta_k: int = 4096,
                 bloom_fpp: float = 1e-2,
                 num_partitions: int = 32,
                 plan: Optional[Dict] = None):
    """Execute the sketch-chosen inner join. Returns ``(ds, plan)``.
    ``plan`` may be passed in (e.g. reused across runs of the same
    snapshot); otherwise :func:`sketch_join_plan` computes it. All
    strategies return identical rows — the plan only changes HOW data
    moves. Joined columns are :func:`~.fold.join`'s: the shipped
    (smaller) side's non-key columns follow the other side's on the
    broadcast tiers, and the right's follow the left's on the shuffle
    tiers."""
    from ..engine.agg import build_sketch
    from ..engine.ops import semi_join
    from ..sketches.bloom import BloomFilter
    from .fold import join

    if plan is None:
        plan = sketch_join_plan(left, lkey, right, rkey,
                                broadcast_limit=broadcast_limit,
                                prefilter_below=prefilter_below,
                                theta_k=theta_k)

    def shuffle(l_ds, r_ds):
        return join(l_ds, r_ds, on=lkey, right_on=rkey, how="inner",
                    n_parts=num_partitions, broadcast_limit=0)

    def broadcast(l_ds, n_l, r_ds, n_r):
        # fold.join ships its right side: put the smaller one there
        if n_r <= n_l:
            return join(l_ds, r_ds, on=lkey, right_on=rkey, how="inner",
                        n_parts=num_partitions,
                        broadcast_limit=broadcast_limit)
        return join(r_ds, l_ds, on=rkey, right_on=lkey, how="inner",
                    n_parts=num_partitions, broadcast_limit=broadcast_limit)

    strategy = plan["strategy"]
    if strategy == "broadcast":
        return broadcast(left, plan["n_left"], right, plan["n_right"]), plan

    if strategy == "bloom_prefilter":
        # prefilter FPP is deliberately loose (1e-2 default): a false
        # positive only admits a row that finds no join partner, so the
        # filter can be ~3x smaller than an exactness-grade one
        n_bl = max(1024, int(plan["distinct_left_est"] * 1.2))
        n_br = max(1024, int(plan["distinct_right_est"] * 1.2))
        bf_l = build_sketch(left, lkey,
                            lambda: BloomFilter(n_bl, bloom_fpp),
                            batch_size=None)
        bf_r = build_sketch(right, rkey,
                            lambda: BloomFilter(n_br, bloom_fpp),
                            batch_size=None)
        left_kept = semi_join(left, lkey, bf_r).materialize()
        right_kept = semi_join(right, rkey, bf_l).materialize()
        # pruning often shrinks a side under the broadcast budget —
        # finish map-side instead of shuffling the survivors
        n_lk, n_rk = left_kept.count(), right_kept.count()
        plan = dict(plan, survivors_left=int(n_lk),
                    survivors_right=int(n_rk))
        if KeySet.broadcasts(min(n_lk, n_rk), broadcast_limit):
            plan["finish"] = "broadcast"
            return broadcast(left_kept, n_lk, right_kept, n_rk), plan
        plan["finish"] = "shuffle"
        return shuffle(left_kept, right_kept), plan

    return shuffle(left, right), plan

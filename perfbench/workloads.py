"""The four benchmark workloads: seeded inputs, one closed-loop
iteration, and the correctness checks on the outputs.

Every input is a pure function of ``--seed``: the seed picks the
row-index range of the web-pages generator and the duplicate, junk and
hit patterns. The program only ever sees the generated parquet (and,
for ``probe_semijoin``, the filter that set-up persists in the store).
Inputs are generated inside Ray tasks so the driver's memory stays the
workload's own.
"""

from __future__ import annotations

import glob
import os
import shutil
import uuid
from typing import Callable, Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray

from presto_bloomfilter_ray.engine.agg import SketchAgg, build_sketch, grouped_sketch
from presto_bloomfilter_ray.engine.store import open_store
from presto_bloomfilter_ray.pipelines import prepare as prepare_mod
from presto_bloomfilter_ray.pipelines import prepare_corpus, probe_and_write, run_suite
from presto_bloomfilter_ray.sketches import BloomFilter, HyperLogLog, deserialize
from presto_bloomfilter_ray.sources.webpages import make_batch, url_host

from .layers import STAGES
from .tracing import Recorder

Check = Tuple[str, bool, str]

# ------------------------------------------------------------------ sizes
SUITE_ROWS, SUITE_FILES = 100_000, 16
PROBE_FILTER_N, PROBE_FPP = 3_000_000, 0.01   # bitset 3.4 MiB
PROBE_ROWS, PROBE_FILES = 100_000, 4           # half members, half not
GROUPED_ROWS, GROUPED_FILES, GROUPED_HLL_P = 12_000, 4, 12
PREP_BASE, PREP_FILES = 1_200, 4
PREP_EXACT, PREP_NEAR, PREP_JUNK = 0.10, 0.10, 0.05  # shares of PREP_BASE
PREP_BLOCKED, PREP_HOST_CAP = 3, 20

N_HOSTS, ZIPF_S = 10_000, 1.1  # the web-pages generator's host universe


def _index_start(seed: int, salt: int) -> int:
    """Seeded first row index; 12-digit urls leave room up to 10^12."""
    rng = np.random.default_rng([seed, salt])
    return int(rng.integers(0, 900_000_000_000))


def _write_split(table: pa.Table, out_dir: str, n_files: int) -> List[str]:
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, n_files + 1).astype(int)
    paths = []
    for i in range(n_files):
        path = os.path.join(out_dir, f"part-{i:03d}.parquet")
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]), path)
        paths.append(path)
    return paths


def _fresh(parent: str, tag: str) -> str:
    path = os.path.join(parent, f"{tag}-{uuid.uuid4().hex[:8]}")
    os.makedirs(path)
    return path


def _dir_bytes(root: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(root, "**"), recursive=True)
               if os.path.isfile(p))


def _rank_error(sorted_vals: np.ndarray, estimate: float, q: float) -> float:
    """Normalized rank error of ``estimate`` as the ``q`` quantile; ties
    give an interval of ranks, and ``q`` inside it is no error."""
    n = sorted_vals.size
    lo = np.searchsorted(sorted_vals, estimate, side="left") / n
    hi = np.searchsorted(sorted_vals, estimate, side="right") / n
    return float(max(lo - q, q - hi, 0.0))


def _zipf_hosts(idx: np.ndarray, seed: int) -> np.ndarray:
    """Zipf host rank per row index (the generator's host distribution)."""
    ranks = np.arange(1, N_HOSTS + 1, dtype=np.float64) ** -ZIPF_S
    cdf = np.cumsum(ranks) / ranks.sum()
    u = np.random.default_rng([seed, 7]).random(idx.size)
    return np.minimum(np.searchsorted(cdf, u), N_HOSTS - 1)


def _urls(idx: np.ndarray, hosts: np.ndarray) -> pa.Array:
    """Urls in the generator's format: host rank and row index."""
    host_s = pc.utf8_lpad(pc.cast(pa.array(hosts.astype(np.int64)), pa.string()), 5, "0")
    id_s = pc.utf8_lpad(pc.cast(pa.array(idx.astype(np.int64)), pa.string()), 12, "0")
    return pc.binary_join_element_wise(
        pa.scalar("https://host"), host_s, pa.scalar(".example.com/p/"), id_s, "")


# ------------------------------------------------------ set-up tasks (Ray)
@ray.remote
def _gen_suite(out_dir: str, start: int) -> List[str]:
    """Web pages in SUITE_FILES shards; shard i is in generator order,
    ascending or descending text length for i % 3 = 0, 1, 2, so the
    quantile sketches see random, sorted and reversed streams."""
    paths = []
    per = SUITE_ROWS // SUITE_FILES
    os.makedirs(out_dir, exist_ok=True)
    for i in range(SUITE_FILES):
        t = make_batch(np.arange(start + i * per, start + (i + 1) * per, dtype=np.int64))
        t = t.select(["url", "text", "lang"])
        if i % 3:
            lengths = pc.utf8_length(t.column("text")).combine_chunks()
            order = "ascending" if i % 3 == 1 else "descending"
            t = t.take(pc.array_sort_indices(lengths, order=order))
        path = os.path.join(out_dir, f"part-{i:03d}.parquet")
        pq.write_table(t, path)
        paths.append(path)
    return paths


@ray.remote
def _gen_probe(out_dir: str, store_root: str, key: str, seed: int) -> List[str]:
    """Persist a Bloom filter over PROBE_FILTER_N member urls, and write
    a probe stream: half members, half urls from a disjoint range."""
    start = _index_start(seed, 2)
    members = np.arange(start, start + PROBE_FILTER_N, dtype=np.int64)
    member_hosts = _zipf_hosts(members, seed)
    bf = BloomFilter(PROBE_FILTER_N, PROBE_FPP)
    bf.update_arrow(_urls(members, member_hosts))
    open_store(store_root).persist(bf, key)
    del bf, members

    rng = np.random.default_rng([seed, 3])
    half = PROBE_ROWS // 2
    hit = start + rng.choice(PROBE_FILTER_N, half, replace=False)
    miss = start + PROBE_FILTER_N + rng.choice(20 * PROBE_ROWS, PROBE_ROWS - half,
                                               replace=False)
    idx = rng.permutation(np.concatenate([hit, miss]))
    # a member probe keeps the host it was inserted with
    hosts = np.where(idx < start + PROBE_FILTER_N,
                     member_hosts[np.clip(idx - start, 0, PROBE_FILTER_N - 1)],
                     _zipf_hosts(idx, seed + 1))
    table = pa.table({"url": _urls(idx, hosts),
                      "fetch_ts": pa.array(rng.integers(0, 2**40, idx.size))})
    return _write_split(table, out_dir, PROBE_FILES)


@ray.remote
def _gen_grouped(out_dir: str, start: int) -> List[str]:
    t = make_batch(np.arange(start, start + GROUPED_ROWS, dtype=np.int64))
    t = pa.table({"url": t.column("url"), "host": url_host(t.column("url")),
                  "lang": t.column("lang")})
    return _write_split(t, out_dir, GROUPED_FILES)


@ray.remote
def _gen_prepare(out_dir: str, seed: int) -> List[str]:
    """Web pages plus seeded exact duplicates (mirror urls), near
    duplicates (one word changed in a long text) and junk (low-entropy
    text the quality gate drops), shuffled."""
    start = _index_start(seed, 4)
    rng = np.random.default_rng([seed, 5])
    base = make_batch(np.arange(start, start + PREP_BASE, dtype=np.int64))
    texts = base.column("text").to_pylist()
    urls = base.column("url").to_pylist()
    langs = base.column("lang").to_pylist()
    ids = list(range(start, start + PREP_BASE))
    next_id = start + PREP_BASE

    def add(text: str, url_tag: str) -> None:
        nonlocal next_id
        texts.append(text)
        urls.append(f"https://mirror{next_id % 50:02d}.example.org/{url_tag}/{next_id:012d}")
        langs.append("en")
        ids.append(next_id)
        next_id += 1

    for src in rng.choice(PREP_BASE, int(PREP_EXACT * PREP_BASE), replace=False):
        add(texts[src], "copy")
    long_docs = [i for i in range(PREP_BASE) if texts[i].count(" ") >= 100]
    for j, src in enumerate(rng.choice(long_docs, int(PREP_NEAR * PREP_BASE), replace=False)):
        words = texts[src].split(" ")
        words[int(rng.integers(4, len(words)))] = f"variant{j}"
        add(" ".join(words), "near")
    for j in range(int(PREP_JUNK * PREP_BASE)):
        add("a" * int(rng.integers(200, 400)) + f" {j}", "junk")
    order = rng.permutation(len(ids))
    table = pa.table({"doc_id": pa.array(ids, pa.int64()), "url": pa.array(urls),
                      "text": pa.array(texts), "lang": pa.array(langs)}).take(order)
    return _write_split(table, out_dir, PREP_FILES)


@ray.remote
def warm_up() -> int:
    """First task of a session: the worker imports what the workloads use."""
    import presto_bloomfilter_ray.functions.dedup  # noqa: F401
    import presto_bloomfilter_ray.pipelines  # noqa: F401

    return os.getpid()


# ---------------------------------------------------------------- workloads
class Workload:
    """One seeded workload. ``setup`` writes inputs under a fresh
    directory; ``iterate`` runs the measured operation once and returns
    the input rows it processed; ``checks`` verifies the outputs."""

    name = ""

    def __init__(self, seed: int, work_dir: str, rec: Recorder):
        self.seed, self.work_dir, self.rec = seed, work_dir, rec
        self.data_dir = ""
        self.rows_in = 0

    def setup(self, data_dir: str) -> None:
        raise NotImplementedError

    def iterate(self, it: int) -> int:
        raise NotImplementedError

    def after_iteration(self) -> None:
        """Untimed bookkeeping after each measured iteration."""

    def checks(self) -> List[Check]:
        raise NotImplementedError

    def accuracy(self) -> Dict[str, float]:
        """Accuracy and size figures of the last iteration's outputs."""
        return {}

    def layer_extras(self) -> Dict[str, float]:
        """Per-layer figures the program reports itself, per iteration."""
        return {}

    def install_stage_markers(self) -> None:
        """Hook for workloads whose stages are traced by boundary."""


class SuiteBuild(Workload):
    """Cold ``run_suite``: every sketch family's insert, store puts and
    the flagship merge tree; a fresh store and run id per iteration."""

    name = "suite_build"

    def setup(self, data_dir):
        self.data_dir = data_dir
        self.files = ray.get(_gen_suite.remote(data_dir, _index_start(self.seed, 1)))
        self.rows_in = SUITE_ROWS
        self.last = self.prev_store = None
        self.store_bytes: List[int] = []
        self.phases: List[Tuple[float, float, float]] = []

    def iterate(self, it):
        store_root = _fresh(self.work_dir, "store")
        with self.rec.span("pipelines.flagship"):
            res = run_suite(self.data_dir, store_root=store_root,
                            run_id=f"run-{uuid.uuid4().hex[:12]}", n_hint=SUITE_ROWS)
        self.last = (store_root, res)
        walls = sorted(ln["wall_s"] for ln in res["lineage"])
        self.phases.append((res["summary"]["phase_sec"]["shards"],
                            res["summary"]["phase_sec"]["merge"],
                            walls[-1] / max(walls[len(walls) // 2], 1e-9)))
        return SUITE_ROWS

    def after_iteration(self):
        store_root = self.last[0]
        self.store_bytes.append(_dir_bytes(store_root))
        if self.prev_store:
            shutil.rmtree(self.prev_store, ignore_errors=True)
        self.prev_store = store_root

    def _exact(self):
        t = pa.concat_tables(pq.read_table(f, columns=["url", "text"]) for f in self.files)
        hosts = url_host(t.column("url"))
        textlen = np.sort(np.asarray(pc.utf8_length(t.column("text"))))
        return t.column("url"), hosts, textlen

    def checks(self):
        _, res = self.last
        sk = res["sketches"]
        urls, hosts, textlen = self._exact()
        out: List[Check] = []
        missing = int((~sk["bloom_url"].contains_many(urls)).sum())
        out.append(("every inserted url probes true", missing == 0, f"{missing} missing"))
        self._acc = {}
        for name, col in (("hll_url", urls), ("hll_host", hosts)):
            h = sk[name]
            exact = len(pc.unique(col))
            err = abs(h.estimate() - exact) / exact
            bound = 3 * h.relative_error_bound()
            self._acc[name] = err
            out.append((f"{name} within 3 sigma", err <= bound,
                        f"rel err {err:.5f}, bound {bound:.5f}"))
        for name in ("kll_textlen", "td_textlen"):
            q = sk[name]
            # merged over the shards: the tolerance the project's own
            # bound tests give merged sketches (3x the one-pass bound)
            bound = 3 * q.rank_error_bound()
            for p in (0.5, 0.99):
                err = _rank_error(textlen, float(q.quantile(p)), p)
                self._acc[f"{name}@{p}"] = err
                out.append((f"{name} p{int(p * 100)} rank error within 3x bound",
                            err <= bound, f"{err:.5f}, bound {bound:.5f}"))
        vals, counts = np.unique(np.asarray(hosts.to_pylist(), dtype=object),
                                 return_counts=True)
        top = str(vals[np.argmax(counts)])
        est = sk["cm_host"].estimate(top)
        out.append(("countmin never underestimates the top host", est >= counts.max(),
                    f"{top}: estimate {est}, exact {counts.max()}"))
        return out

    def accuracy(self):
        acc = self._acc
        return {
            "hll_rel_err": max(acc["hll_url"], acc["hll_host"]),
            "quantile_rank_err": max(v for k, v in acc.items() if "@" in k),
            "store_bytes_per_row": float(np.median(self.store_bytes)) / self.rows_in,
        }

    def layer_extras(self):
        shards, merge, straggler = (np.asarray(c) for c in zip(*self.phases))
        return {"pipelines.flagship.shards_s": float(shards.mean()),
                "pipelines.flagship.merge_s": float(merge.mean()),
                "pipelines.flagship.straggler_ratio": float(np.median(straggler))}


class ProbeSemijoin(Workload):
    """``probe_and_write`` of a url stream against a persisted Bloom
    filter larger than one core's L2; half the probes are members."""

    name = "probe_semijoin"
    KEY = "filters/urls"

    def setup(self, data_dir):
        self.data_dir = data_dir
        self.store_root = os.path.join(data_dir, "store")
        self.files = ray.get(_gen_probe.remote(os.path.join(data_dir, "stream"),
                                               self.store_root, self.KEY, self.seed))
        self.rows_in = PROBE_ROWS
        self.last_out = self.prev_out = None
        self.selectivity: List[float] = []

    def iterate(self, it):
        out_dir = os.path.join(_fresh(self.work_dir, "probe"), "out")
        with self.rec.span("pipelines.probe"):
            summary = probe_and_write(
                ray.data.read_parquet(self.files), self.KEY, "url", out_dir,
                store_root=self.store_root, run_id=f"run-{uuid.uuid4().hex[:12]}",
                input_paths=self.files)
        self.last_out = os.path.dirname(out_dir)
        self.selectivity.append(summary["selectivity"])
        return PROBE_ROWS

    def after_iteration(self):
        if self.prev_out:
            shutil.rmtree(self.prev_out, ignore_errors=True)
        self.prev_out = self.last_out

    def checks(self):
        start = _index_start(self.seed, 2)
        end = start + PROBE_FILTER_N

        def ids(paths):
            t = pa.concat_tables(pq.read_table(p, columns=["url"]) for p in paths)
            return np.asarray(pc.cast(pc.utf8_slice_codeunits(t.column("url"), -12),
                                      pa.int64()))

        probed = ids(self.files)
        kept = ids(glob.glob(os.path.join(self.last_out, "out", "*.parquet")))
        members = probed[(probed >= start) & (probed < end)]
        non_members = probed.size - members.size
        kept_members = np.isin(members, kept).sum()
        false_pos = int(((kept < start) | (kept >= end)).sum())
        self._fpr = false_pos / non_members
        return [
            ("every member row is kept", kept_members == members.size,
             f"{kept_members}/{members.size}"),
            ("false positives within configured p", self._fpr <= PROBE_FPP,
             f"fpr {self._fpr:.5f} over {non_members} non-members, p {PROBE_FPP}"),
        ]

    def accuracy(self):
        return {"bloom_fpr": self._fpr,
                "store_bytes_per_row": _dir_bytes(self.store_root) / self.rows_in}

    def layer_extras(self):
        return {"pipelines.probe.selectivity": float(np.median(self.selectivity))}


def _hll_factory():
    return HyperLogLog(GROUPED_HLL_P)


class GroupedUdaf(Workload):
    """The Ray-Data-native UDAF path: a global ``build_sketch``, a
    low-cardinality ``grouped_sketch`` (partial shuffle) and a
    high-cardinality ``groupby().aggregate(SketchAgg)`` (row shuffle)."""

    name = "grouped_udaf"

    def setup(self, data_dir):
        self.data_dir = data_dir
        self.files = ray.get(_gen_grouped.remote(data_dir, _index_start(self.seed, 6)))
        self.rows_in = GROUPED_ROWS

    def iterate(self, it):
        ds = ray.data.read_parquet(self.files)
        with self.rec.span("engine.agg.build_sketch"):
            bloom = build_sketch(ds, "url", lambda: BloomFilter(GROUPED_ROWS, 0.01))
        with self.rec.span("engine.agg.grouped_sketch"):
            per_lang = grouped_sketch(ds, "lang", "host", _hll_factory).take_all()
        with self.rec.span("engine.agg.rowshuffle"):
            per_host = ds.groupby("host").aggregate(
                SketchAgg(_hll_factory, on="url", alias_name="hll",
                          finalize_mode="estimate")).take_all()
        self.last = (bloom, per_lang, per_host)
        return GROUPED_ROWS

    def checks(self):
        bloom, per_lang, per_host = self.last
        t = pa.concat_tables(pq.read_table(f) for f in self.files)
        missing = int((~bloom.contains_many(t.column("url"))).sum())
        sigma = 1.04 / np.sqrt(1 << GROUPED_HLL_P)
        exact_lang = {r["lang"]: r["host_count_distinct"] for r in
                      t.group_by("lang").aggregate([("host", "count_distinct")]).to_pylist()}
        exact_host = {r["host"]: r["url_count_distinct"] for r in
                      t.group_by("host").aggregate([("url", "count_distinct")]).to_pylist()}
        lang_est = {r["lang"]: deserialize(r["sketch"]).estimate() for r in per_lang}
        host_est = {r["host"]: r["hll"] for r in per_host}
        lang_err = {k: abs(v - exact_lang[k]) / exact_lang[k] for k, v in lang_est.items()}
        host_err = {k: abs(v - exact_host[k]) / exact_host[k] for k, v in host_est.items()}
        self._errs = list(lang_err.values()) + list(host_err.values())

        def outside(est, exact):
            # 4 sigma, as thousands of groups share one pass/fail; plus 2
            # for small groups, where linear counting undercounts by one
            # per pair of keys that share a register
            return sum(abs(v - exact[k]) > 4 * sigma * exact[k] + 2 for k, v in est.items())

        bad_lang, bad_host = outside(lang_est, exact_lang), outside(host_est, exact_host)
        return [
            ("global bloom holds every url", missing == 0, f"{missing} missing"),
            ("one HLL per lang", set(lang_err) == set(exact_lang),
             f"{len(lang_err)}/{len(exact_lang)} langs"),
            ("one HLL per host", set(host_err) == set(exact_host),
             f"{len(host_err)}/{len(exact_host)} hosts"),
            ("per-lang HLL within 4 sigma + 2", bad_lang == 0,
             f"{bad_lang} outside, worst {max(lang_err.values()):.4f}"),
            ("per-host HLL within 4 sigma + 2", bad_host == 0,
             f"{bad_host} outside, worst {max(host_err.values()):.4f}"),
        ]

    def accuracy(self):
        return {"hll_rel_err": float(np.sqrt(np.mean(np.square(self._errs))))}


# stages of prepare_corpus: (its stage name, the function in the prepare
# module called when the stage starts, span name)
PREP_STAGES = list(zip(
    ["host_blocklist", "quality_gates", "exact_dedup", "minhash_dedup", "host_cap"],
    ["host_filter", "_gate_fn", "exact_dedup", "minhash_dedup", "cap_per_key"],
    STAGES))


class PrepareCorpus(Workload):
    """``prepare_corpus`` with a url blocklist and a per-host cap over
    docs with seeded exact and near duplicates and junk."""

    name = "prepare_corpus"

    def setup(self, data_dir):
        self.data_dir = data_dir
        self.files = ray.get(_gen_prepare.remote(data_dir, self.seed))
        self.rows_in = sum(pq.ParquetFile(f).metadata.num_rows for f in self.files)
        rng = np.random.default_rng([self.seed, 8])
        self.blocked = [f"host{r:05d}.example.com"
                        for r in sorted(rng.choice(np.arange(1, 30), PREP_BLOCKED,
                                                   replace=False))]
        self.id_sets: List[int] = []
        self.stage_rows: List[List[int]] = []
        self._stage = None

    def install_stage_markers(self):
        """Each stage function is called when its stage starts, and the
        stage ends where the next one starts (or prepare_corpus returns):
        a span per stage, recorded at those boundaries."""
        rec = self.rec

        def marker(orig, span_name):
            def start_stage(*args, **kwargs):
                if rec.on:
                    self._end_stage()
                    self._stage = rec.begin(span_name)
                return orig(*args, **kwargs)
            return start_stage

        for _, attr, span_name in PREP_STAGES:
            setattr(prepare_mod, attr, marker(getattr(prepare_mod, attr), span_name))

    def _end_stage(self):
        if self._stage is not None:
            self.rec.end(self._stage)
            self._stage = None

    def iterate(self, it):
        self.work = _fresh(self.work_dir, "prep")
        with self.rec.span("pipelines.prepare"):
            try:
                out, metrics = prepare_corpus(
                    ray.data.read_parquet(self.files), id_col="doc_id",
                    text_col="text", url_col="url", blocked_hosts=self.blocked,
                    host_cap=PREP_HOST_CAP, work_dir=self.work)
            finally:
                self._end_stage()
        self.out = pa.concat_tables(ray.get(out.to_arrow_refs()))
        self.stage_rows.append([m["rows"] for m in metrics])
        self.stage_names = [m["stage"] for m in metrics]
        return self.rows_in

    def after_iteration(self):
        shutil.rmtree(self.work, ignore_errors=True)
        ids = np.sort(np.asarray(self.out.column("doc_id")))
        self.id_sets.append(hash(ids.tobytes()))

    def checks(self):
        texts = self.out.column("text")
        hosts = url_host(self.out.column("url"))
        dup_texts = len(texts) - len(pc.unique(texts))
        per_host = self.out.append_column("h", hosts).group_by("h").aggregate([("h", "count")])
        worst_host = max(per_host.column("h_count").to_pylist())
        blocked_left = int(pc.sum(pc.is_in(hosts, pa.array(self.blocked))).as_py() or 0)
        removed = dict(zip(self.stage_names, self._removed_ratios()))
        return [
            ("same surviving ids on every iteration", len(set(self.id_sets)) == 1,
             f"{len(set(self.id_sets))} distinct id sets over {len(self.id_sets)} iterations"),
            ("no two survivors share a text", dup_texts == 0, f"{dup_texts} duplicate texts"),
            ("no blocked host survives", blocked_left == 0, f"{blocked_left} rows"),
            ("host cap holds", worst_host <= PREP_HOST_CAP, f"largest host {worst_host}"),
            ("both dedup stages remove rows",
             removed.get("exact_dedup", 0) > 0 and removed.get("minhash_dedup", 0) > 0,
             f"exact {removed.get('exact_dedup', 0):.4f}, "
             f"near {removed.get('minhash_dedup', 0):.4f}"),
        ]

    def _removed_ratios(self) -> List[float]:
        rows = [self.rows_in, *self.stage_rows[-1]]
        return [(a - b) / a if a else 0.0 for a, b in zip(rows, rows[1:])]

    def layer_extras(self):
        span = {stage: span_name for stage, _, span_name in PREP_STAGES}
        return {f"{span[s]}_removed_ratio": r
                for s, r in zip(self.stage_names, self._removed_ratios())}


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    w.name: w for w in (SuiteBuild, ProbeSemijoin, GroupedUdaf, PrepareCorpus)}

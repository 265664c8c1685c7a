"""Per-record scalar surface + broadcast semi-join probes.

Rebuilds the reference's scalar functions (SURVEY §2.2) Ray-Data-first:

* ``bloom_filter_contains`` → :class:`ContainsFilter`, the one probe:
  a stateless ``map_batches`` callable over a ``ray.put`` envelope,
  resolved per worker process through :func:`get_or_load` and probed
  vectorized per Arrow batch — the canonical Ray broadcast-small-side
  semi-join (SURVEY §3.2). ``semi_join``, ``contains_column``,
  ``functions.urls.host_filter`` and ``pipelines.probe_and_write`` all
  run it.
* ``to_string`` / ``from_string`` → :func:`to_base64` / :func:`from_base64`.
* ``get_expected_insertions`` / ``get_false_positive_percentage`` →
  :func:`get_expected_insertions` / :func:`get_false_positive_percentage`
  (header introspection, no payload decompress).
* the per-JVM Guava deserialization cache, max 40 entries, keyed by the
  sha256 prefix (``BloomFilterScalarFunctions.java:25, 46-61``) →
  :data:`_CACHE`, a per-worker-process LRU of the same size keyed by
  the envelope content hash.

Keyed joins are not here: ``functions/fold.py``'s ``join`` is the
package's one join (a broadcast or co-partitioned polars join).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Union

import pyarrow as pa

import ray

from ..sketches.base import Sketch, deserialize, from_base64 as _from_b64, read_hash, read_params

_CACHE_MAX = 40  # parity with the reference's Guava cache size
_CACHE: "OrderedDict[bytes, Sketch]" = OrderedDict()


def get_or_load(buf: bytes, *, mutable: bool = False) -> Sketch:
    """Content-hash-memoized deserialize (reference ``getOrLoadBloomFilter``).

    The cached instance is SHARED across callers in this worker process
    and keyed by the envelope's content hash — treat it as READ-ONLY
    (probe-side ``contains_many`` / ``pre_miss`` bookkeeping is fine;
    ``merge`` / ``update_arrow`` are not: they'd poison the cache for
    later probes of the same envelope). Callers that need to mutate pass
    ``mutable=True`` to get a fresh instance that bypasses the cache.
    """
    if mutable:
        return deserialize(buf)
    h = read_hash(buf)
    if h == b"\x00" * 32:  # transient (unhashed) envelope: not cacheable
        return deserialize(buf)
    sk = _CACHE.get(h)
    if sk is None:
        sk = deserialize(buf)
        _CACHE[h] = sk
        if len(_CACHE) > _CACHE_MAX:
            _CACHE.popitem(last=False)
    else:
        _CACHE.move_to_end(h)
    return sk


def _broadcast(sketch) -> "ray.ObjectRef":
    """``ray.put`` the envelope once; every task reads it from the local
    object store (ships once per node, not per batch)."""
    if isinstance(sketch, Sketch):
        return ray.put(sketch.serialize())
    if isinstance(sketch, (bytes, bytearray)):
        return ray.put(bytes(sketch))
    return sketch  # already an ObjectRef


class ContainsFilter:
    """The one Bloom probe: a stateless ``map_batches`` callable that
    keeps / drops / annotates rows by membership of ``col``.

    ``sketch`` (a Sketch, envelope bytes or a ``ray.put`` ObjectRef) is
    put in the object store once; each call resolves it through
    :func:`get_or_load`, so a worker process deserializes it once
    however many batches it probes (reference cache, S6).

    ``mode``:
      * ``"semi"``  — keep rows whose element might be in the filter
        (no false negatives ⇒ the kept side is a superset of the true
        semi-join, exact up to FPP).
      * ``"anti"``  — keep rows whose element is definitely NOT in the
        filter (Bloom "false" is definite ⇒ dropped-side exact; kept
        side can miss rows only at FPP rate — SURVEY §2.4 caveat).
        Null-element rows are KEPT in anti mode (null probe → False,
        the reference's rule) — note SQL ``NOT IN`` drops them, so
        filter nulls first when mirroring SQL three-valued logic.
      * ``"column"`` — append a boolean column ``out_col`` instead of
        filtering (the literal ``bloom_filter_contains`` scalar).
    """

    def __init__(
        self,
        sketch: Union[Sketch, bytes, "ray.ObjectRef"],
        col: str,
        mode: str = "semi",
        out_col: str = "contains",
    ):
        if mode not in ("semi", "anti", "column"):
            raise ValueError(f"bad mode {mode}")
        self.ref = _broadcast(sketch)
        self.col = col
        self.mode = mode
        self.out_col = out_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        sk = get_or_load(ray.get(self.ref))
        mask = sk.contains_many(batch.column(self.col))
        if self.mode == "semi":
            return batch.filter(pa.array(mask))
        if self.mode == "anti":
            return batch.filter(pa.array(~mask))
        return batch.append_column(self.out_col, pa.array(mask))


def _probe_stage(ds, probe: ContainsFilter, batch_size: Optional[int]):
    kwargs = {"batch_format": "pyarrow"}
    if batch_size is not None:
        kwargs["batch_size"] = batch_size
    return ds.map_batches(probe, **kwargs)


def semi_join(ds, col: str, sketch, *, anti: bool = False,
              batch_size: Optional[int] = None):
    """Broadcast Bloom semi/anti join — the reference's whole raison
    d'être (``README.md:6-38``, ``run_tests.sh:123``). ``sketch`` may be
    a Sketch, envelope bytes, or a ``ray.put`` ObjectRef."""
    return _probe_stage(
        ds, ContainsFilter(sketch, col, "anti" if anti else "semi"), batch_size)


def contains_column(ds, col: str, sketch, out_col: str = "contains",
                    batch_size: Optional[int] = None):
    """Append ``bloom_filter_contains(bf, col)`` as a boolean column."""
    return _probe_stage(ds, ContainsFilter(sketch, col, "column", out_col),
                        batch_size)


# ---------------------------------------------------------------- scalars
def to_base64(sketch: Union[Sketch, bytes]) -> str:
    """Reference ``to_string`` (``BloomFilterToStringScalarFunction.java:37-44``)."""
    if isinstance(sketch, Sketch):
        return sketch.to_base64()
    import base64

    return base64.b64encode(bytes(sketch)).decode("ascii")


def from_base64(s: str) -> Sketch:
    """Reference ``bloom_filter_from_string`` decode (single value)."""
    return _from_b64(s)


def get_expected_insertions(buf: Union[Sketch, bytes]) -> int:
    """Reference S3 (``BloomFilterGetExpectedInsertionsScalarFunction.java``)."""
    if isinstance(buf, Sketch):
        buf = buf.serialize()
    return int(read_params(bytes(buf))["n"])


def get_false_positive_percentage(buf: Union[Sketch, bytes]) -> float:
    """Reference S4 (``BloomFilterGetFalsePositivePercentageScalarFunction.java``)."""
    if isinstance(buf, Sketch):
        buf = buf.serialize()
    return float(read_params(bytes(buf))["p"])

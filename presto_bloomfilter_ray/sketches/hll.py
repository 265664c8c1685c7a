"""HyperLogLog — approximate distinct count (north_rule companion sketch).

No reference analog (the reference leaves ``count(distinct …)`` to
Presto, SURVEY §2.5); built to the published HLL algorithm
(Flajolet et al. 2007) with the standard small-range linear-counting
correction. Relative standard error ≈ 1.04/√m for m = 2^p registers.

Two representations, HLL++-style (Heule et al. 2013, public paper):

* **sparse** (the default starting state): a compacted, sorted
  ``uint32`` array of ``idx·64 + rank`` codes, one per touched
  register. A sketch over ``d`` distinct elements costs ``O(min(d, m))``
  entries instead of ``m`` bytes — the difference between 16 KB and a
  few dozen bytes per (key, batch) partial in
  :func:`~presto_bloomfilter_ray.engine.agg.grouped_sketch`, where
  corpus-cardinality keys each hold their own accumulator.
* **dense**: the classic ``m``-byte register array. A sketch densifies
  the moment its compacted sparse form would exceed ``m/4`` entries
  (memory parity: 4-byte codes × m/4 = m bytes) and never goes back.

The register CONTENT is identical in both forms, so estimates are
bit-identical and the representation is merge-path-independent: an
intermediate union's touched-register set is a subset of the final
union's, so whether a merge tree densifies depends only on the final
content, never on the tree shape — canonical serialization across
random merge trees holds (``tests/test_properties.py``).

Register update, compaction and estimation are fully vectorized
(numpy); merge is code-concat + max-compact (sparse) or elementwise
``max`` (dense) — associative and commutative either way.

Dense payloads are byte-compatible with the pre-sparse format (no
``sparse`` param key → dense), so previously persisted envelopes load
unchanged.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from .base import KIND_HLL, Sketch, register
from .hashing import hash64, normalize_elements

_SEED_HLL = 0xC2B2AE3D27D4EB4F


def _rank(h: np.ndarray, p: int) -> np.ndarray:
    """HLL rank (1 + leading zeros of the 64-p low bits, capped at 65-p)
    in closed form: ``65 - p - bit_length(h & (2^(64-p) - 1))``. The bit
    length comes from ``frexp``'s exponent of each 32-bit half, which
    converts to float64 exactly, so ranks are bit-exact."""
    low = h & np.uint64((1 << (64 - p)) - 1)
    hi = low >> np.uint64(32)
    bl = np.where(hi != 0,
                  np.frexp(hi.astype(np.float64))[1] + 32,
                  np.frexp((low & np.uint64(0xFFFFFFFF)).astype(np.float64))[1])
    return (65 - p - bl).astype(np.uint8)


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _compact(codes: np.ndarray) -> np.ndarray:
    """Canonical sparse form: sorted, one max-rank code per register.

    Codes are ``idx·64 + rank`` with rank in the low 6 bits, so after a
    plain sort the LAST code of each idx-run carries that register's max
    rank — one sort, no per-register Python.
    """
    if codes.size == 0:
        return codes
    codes = np.sort(codes)
    idx = codes >> np.uint32(6)
    last = np.empty(codes.size, dtype=bool)
    last[:-1] = idx[:-1] != idx[1:]
    last[-1] = True
    return codes[last]


@register(KIND_HLL)
class HyperLogLog(Sketch):
    __slots__ = ("p", "m", "_regs", "_codes", "_pending", "_pending_n")

    def __init__(
        self,
        precision: int = 14,
        _regs: Optional[np.ndarray] = None,
        _codes: Optional[np.ndarray] = None,
        sparse: bool = True,
    ):
        if not (4 <= precision <= 18):
            raise ValueError("precision must be in [4, 18]")
        self.p = int(precision)
        self.m = 1 << self.p
        if _regs is None and _codes is None and not sparse:
            # known-large groups: skip the sparse phase (and its
            # per-serialize compaction sort) and start dense
            _regs = np.zeros(self.m, dtype=np.uint8)
        self._regs = _regs  # dense registers, or None while sparse
        self._codes = (
            _codes if _codes is not None else np.empty(0, dtype=np.uint32)
        ) if _regs is None else None
        self._pending: List[np.ndarray] = []  # uncompacted sparse code chunks
        self._pending_n = 0

    # --------------------------------------------------------- representation
    @property
    def is_sparse(self) -> bool:
        return self._regs is None

    @property
    def _sparse_max(self) -> int:
        return self.m // 4  # 4-byte codes: densify at dense-memory parity

    def _flush(self) -> None:
        """Fold pending code chunks into the canonical compacted form;
        densify if the compacted form passed the parity threshold."""
        if self._regs is not None or not self._pending:
            return
        parts = self._pending + ([self._codes] if self._codes.size else [])
        self._pending = []
        self._pending_n = 0
        self._codes = _compact(np.concatenate(parts))
        if self._codes.size > self._sparse_max:
            self._densify()

    def _densify(self) -> None:
        regs = np.zeros(self.m, dtype=np.uint8)
        codes = self._codes
        regs[(codes >> np.uint32(6)).astype(np.int64)] = (
            codes & np.uint32(63)
        ).astype(np.uint8)
        self._regs = regs
        self._codes = None

    @property
    def regs(self) -> np.ndarray:
        """Dense register view (materialized on demand when sparse)."""
        if self._regs is None:
            self._flush()  # may densify
        if self._regs is not None:
            return self._regs
        regs = np.zeros(self.m, dtype=np.uint8)
        codes = self._codes
        regs[(codes >> np.uint32(6)).astype(np.int64)] = (
            codes & np.uint32(63)
        ).astype(np.uint8)
        return regs

    def memory_bytes(self) -> int:
        if self._regs is None:
            self._flush()  # may densify
        if self._regs is not None:
            return int(self._regs.nbytes)
        return int(self._codes.nbytes)

    # ----------------------------------------------------------------- update
    def update_arrow(self, array) -> "HyperLogLog":
        ca = normalize_elements(array)
        if len(ca) == 0:
            return self
        h = hash64(ca, _SEED_HLL)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rank = _rank(h, self.p)
        if self._regs is not None:
            np.maximum.at(self._regs, idx, rank)
            return self
        codes = (idx.astype(np.uint32) << np.uint32(6)) | rank.astype(np.uint32)
        self._pending.append(codes)
        self._pending_n += codes.size
        if self._pending_n > 2 * self._sparse_max:
            self._flush()
        return self

    # ------------------------------------------------------------------ merge
    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if self.p != other.p:
            raise ValueError(f"incompatible HLL precisions {self.p} vs {other.p}")
        if self._regs is None and other._regs is None:
            # lazy: adopt the other side's chunks and only compact past
            # the pending cap — a merge edge is O(1) amortized instead
            # of a sort per edge; serialization compacts canonically
            if other._codes is not None and other._codes.size:
                self._pending.append(other._codes)
                self._pending_n += other._codes.size
            if other._pending:
                self._pending.extend(other._pending)
                self._pending_n += other._pending_n
            if self._pending_n > 2 * self._sparse_max:
                self._flush()
            return self
        # at least one side is dense → result is dense (the dense side's
        # content already exceeded the parity threshold, so the union
        # does too — representation stays path-independent)
        if self._regs is None:
            self._flush()  # may densify self
        if self._regs is None:
            codes = self._codes
            self._codes = None
            self._regs = other._regs.copy()
        elif other._regs is not None:
            np.maximum(self._regs, other._regs, out=self._regs)
            return self
        else:
            other._flush()
            if other._regs is not None:
                np.maximum(self._regs, other._regs, out=self._regs)
                return self
            codes = other._codes
        idx = (codes >> np.uint32(6)).astype(np.int64)
        np.maximum.at(self._regs, idx, (codes & np.uint32(63)).astype(np.uint8))
        return self

    # --------------------------------------------------------------- estimate
    def estimate(self) -> float:
        m = self.m
        if self._regs is None:
            self._flush()
            if self._regs is None:  # still sparse after flush
                ranks = (self._codes & np.uint32(63)).astype(np.float64)
                zeros = m - self._codes.size
                raw = _alpha(m) * m * m / (zeros + np.sum(np.exp2(-ranks)))
                if raw <= 2.5 * m and zeros:
                    return m * math.log(m / zeros)
                return float(raw)
        raw = _alpha(m) * m * m / np.sum(np.exp2(-self._regs.astype(np.float64)))
        if raw <= 2.5 * m:
            zeros = int(np.count_nonzero(self._regs == 0))
            if zeros:
                return m * math.log(m / zeros)
        return float(raw)

    def relative_error_bound(self) -> float:
        return 1.04 / math.sqrt(self.m)

    # --------------------------------------------------------------- envelope
    def _params(self) -> Dict[str, Any]:
        if self._regs is None:
            self._flush()
            if self._regs is None:
                return {"precision": self.p, "sparse": 1}
        return {"precision": self.p}

    def _payload(self) -> bytes:
        if self._regs is None:
            self._flush()
            if self._regs is None:
                return self._codes.tobytes()
        return self._regs.tobytes()

    @classmethod
    def _from_parts(cls, params: Dict[str, Any], payload: bytes) -> "HyperLogLog":
        if params.get("sparse"):
            codes = np.frombuffer(payload, dtype=np.uint32).copy()
            return cls(params["precision"], _codes=codes)
        regs = np.frombuffer(payload, dtype=np.uint8).copy()
        return cls(params["precision"], _regs=regs)

    def __repr__(self) -> str:
        form = "sparse" if self.is_sparse else "dense"
        return f"HyperLogLog(p={self.p}, {form}, est={self.estimate():.1f})"

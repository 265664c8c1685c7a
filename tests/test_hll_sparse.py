"""Sparse HLL representation: register-content identity with dense,
path-independent densification, canonical serialization, memory win."""

import numpy as np
import pyarrow as pa

from presto_bloomfilter_ray import HyperLogLog, deserialize


def _col(n, start=0, prefix="e"):
    return pa.array([f"{prefix}{i}" for i in range(start, start + n)])


def _dense_clone(p, *cols):
    """Reference dense sketch: force densification up front."""
    h = HyperLogLog(p)
    h._flush()
    if h._regs is None:
        h._densify()
    for c in cols:
        h.update_arrow(c)
    return h


def test_small_sketch_stays_sparse_and_matches_dense():
    sp = HyperLogLog(14).update_arrow(_col(200))
    dn = _dense_clone(14, _col(200))
    assert sp.is_sparse and not dn.is_sparse
    assert np.array_equal(sp.regs, dn.regs)  # identical register content
    assert sp.estimate() == dn.estimate()  # bit-identical estimate
    assert sp.memory_bytes() < dn.memory_bytes() / 10


def test_densifies_past_parity_threshold():
    h = HyperLogLog(8)  # m=256, threshold 64 entries
    h.update_arrow(_col(5_000))
    h._flush()
    assert not h.is_sparse
    assert np.array_equal(h.regs, _dense_clone(8, _col(5_000)).regs)


def test_merge_path_independent_and_canonical():
    p = 10
    parts = [HyperLogLog(p).update_arrow(_col(50, i * 50)) for i in range(4)]

    def clone(s):
        return deserialize(s.serialize())

    left = clone(parts[0]).merge(clone(parts[1])).merge(clone(parts[2])).merge(clone(parts[3]))
    right = clone(parts[3]).merge(clone(parts[2]).merge(clone(parts[1]).merge(clone(parts[0]))))
    assert left.serialize() == right.serialize()  # canonical sparse bytes
    assert left.estimate() == right.estimate()


def test_merge_path_independent_across_densification():
    # partials whose union crosses the threshold: every tree shape must
    # land dense with the same registers
    p = 8  # threshold 64 codes
    parts = [HyperLogLog(p).update_arrow(_col(40, i * 40)) for i in range(6)]

    def clone(s):
        return deserialize(s.serialize())

    a = clone(parts[0])
    for q in parts[1:]:
        a.merge(clone(q))
    b = clone(parts[5])
    for q in reversed(parts[:5]):
        b.merge(clone(q))
    assert not a.is_sparse and not b.is_sparse
    assert np.array_equal(a.regs, b.regs)
    assert a.serialize() == b.serialize()


def test_mixed_sparse_dense_merges():
    big = HyperLogLog(8).update_arrow(_col(5_000))
    small = HyperLogLog(8).update_arrow(_col(30, 10_000))
    want = _dense_clone(8, _col(5_000), _col(30, 10_000)).regs
    d1 = deserialize(big.serialize()).merge(deserialize(small.serialize()))
    d2 = deserialize(small.serialize()).merge(deserialize(big.serialize()))
    assert np.array_equal(d1.regs, want)
    assert np.array_equal(d2.regs, want)
    assert not d1.is_sparse and not d2.is_sparse


def test_sparse_envelope_roundtrip():
    h = HyperLogLog(14).update_arrow(_col(500))
    buf = h.serialize()
    rt = deserialize(buf)
    assert rt.is_sparse
    assert rt.serialize() == buf
    assert rt.estimate() == h.estimate()
    # sparse envelope is far smaller than a dense one would be
    assert len(buf) < 16_384 / 4


def test_legacy_dense_envelope_loads():
    # envelopes without the sparse param key are dense payloads
    d = _dense_clone(10, _col(1_000))
    buf = d.serialize()
    rt = deserialize(buf)
    assert not rt.is_sparse
    assert np.array_equal(rt.regs, d.regs)


def test_estimate_accuracy_sparse_range():
    for n in (10, 100, 1_000):
        h = HyperLogLog(14).update_arrow(_col(n))
        assert abs(h.estimate() - n) / n <= 3 * h.relative_error_bound() + 0.02


def test_duplicates_do_not_grow_sparse_form():
    h = HyperLogLog(14)
    for _ in range(5):
        h.update_arrow(_col(100))
    h._flush()
    assert h.is_sparse
    assert h._codes.size <= 100


def _clz_rank(h, p):
    """The binary-search count-leading-zeros rank the closed form
    replaced: ``min(clz64(h << p), 64 - p) + 1``."""
    w = h << np.uint64(p)
    n = np.zeros(w.shape, dtype=np.uint64)
    x = w.copy()
    for shift, mask in ((32, 0xFFFFFFFF00000000), (16, 0xFFFF000000000000),
                        (8, 0xFF00000000000000), (4, 0xF000000000000000),
                        (2, 0xC000000000000000), (1, 0x8000000000000000)):
        hi = (x & np.uint64(mask)) == 0
        n += np.where(hi, np.uint64(shift), np.uint64(0))
        x = np.where(hi, x << np.uint64(shift), x)
    n[w == 0] = 64
    return (np.minimum(n, np.uint64(64 - p)) + np.uint64(1)).astype(np.uint8)


def test_closed_form_rank_matches_clz_rank():
    from presto_bloomfilter_ray.sketches.hll import _rank

    rng = np.random.default_rng(5)
    for p in (4, 12, 14, 18):
        edges = np.array([0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**32 - 1,
                          2**32, 2**(64 - p) - 1, 2**(64 - p), 2**64 - 1],
                         dtype=np.uint64)
        rand = rng.integers(0, 2**64, 50_000, dtype=np.uint64, endpoint=False)
        shifted = rand >> rng.integers(0, 64, rand.size).astype(np.uint64)
        for h in (edges, rand, shifted):
            assert np.array_equal(_rank(h, p), _clz_rank(h, p)), p

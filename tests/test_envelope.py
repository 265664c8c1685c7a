"""Envelope codec contracts (SURVEY §1.4 wire-format analog)."""

import pytest

from presto_bloomfilter_ray import (
    KLL,
    BloomFilter,
    CountMin,
    HyperLogLog,
    TDigest,
    deserialize,
    from_base64,
    read_hash,
    read_kind,
    read_params,
)


ALL = [
    lambda: BloomFilter(100),
    lambda: HyperLogLog(10),
    lambda: CountMin(1e-2, 1e-2),
    lambda: TDigest(100),
    lambda: KLL(128),
]


@pytest.mark.parametrize("factory", ALL)
def test_roundtrip_every_kind(factory):
    sk = factory()
    buf = sk.serialize()
    rt = deserialize(buf)
    assert type(rt) is type(sk)
    assert rt.serialize() == buf  # byte-stable round-trip


def test_kind_dispatch():
    kinds = {read_kind(f().serialize()) for f in ALL}
    assert len(kinds) == len(ALL)  # distinct kind ids


def test_read_hash_peek_no_payload():
    buf = BloomFilter(1000).serialize()
    h = read_hash(buf)
    assert len(h) == 32
    # stable across identical content
    assert h == read_hash(BloomFilter(1000).serialize())


def test_read_params_no_decompress():
    buf = BloomFilter(12345, 0.05).serialize()
    p = read_params(buf)
    assert p["n"] == 12345 and p["p"] == 0.05
    assert "gz" not in p  # codec flag stripped


def test_tamper_detection():
    buf = bytearray(BloomFilter(100).serialize())
    buf[-1] ^= 0xFF
    with pytest.raises(ValueError, match="hash mismatch"):
        deserialize(bytes(buf))


def test_bad_magic():
    with pytest.raises(ValueError, match="magic"):
        deserialize(b"XXXX" + b"\x00" * 64)


def test_base64_envelope():
    sk = HyperLogLog(8)
    rt = from_base64(sk.to_base64())
    assert rt.p == 8


def test_pickle_via_envelope():
    import pickle

    bf = BloomFilter(100)
    bf.put("robin")
    rt = pickle.loads(pickle.dumps(bf))
    assert rt.might_contain("robin")


def test_compressed_envelope_independent_of_wall_clock(monkeypatch):
    """gzip'd payloads carry no timestamp: the same sketch serializes to
    the same bytes (and content hash) at any time."""
    import time

    import pyarrow as pa

    bf = BloomFilter(5000).update_arrow(pa.array([f"x{i}" for i in range(100)]))
    first = bf.serialize()
    assert b'"gz":1' in first  # the payload is gzip'd
    monkeypatch.setattr(time, "time", lambda: 2_000_000_000.0)
    assert bf.serialize() == first

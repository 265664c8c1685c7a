"""Sketch protocol + versioned binary envelope.

Every sketch (Bloom, HLL, count-min, t-digest, KLL) is a mergeable
accumulator serialized into a self-describing binary envelope that can
live in a ``pyarrow.binary()`` cell, travel through the Ray object
store, or be persisted by :class:`~presto_bloomfilter_ray.engine.store.SketchStore`.

Envelope layout (all little-endian), design inspired by the reference's
wire format (``/root/reference/src/main/java/com/facebook/presto/bloomfilter/BloomFilter.java:43-50``
— sha256 header + params + gzipped payload) but deliberately NOT
byte-compatible (no Java object serialization; numpy-stable payloads):

.. code-block:: text

    magic   : 4  bytes  = b"RDS1"
    kind    : 1  byte   (sketch kind id, see REGISTRY)
    sha256  : 32 bytes  over (kind || params_json || payload)
    plen    : u32       length of params_json
    params  : plen bytes, canonical JSON (sorted keys)
    paylen  : u64       length of payload
    payload : paylen bytes (optionally gzip'd; flagged in params["gz"])

``read_hash`` peeks the 32-byte content hash without touching the
payload — the analog of the reference's ``readHash``
(``BloomFilter.java:409-415``) used for cheap memo keys.
"""

from __future__ import annotations

import base64
import gzip
import hashlib
import json
import struct
from typing import Any, Callable, Dict, Iterable, Optional, Type

MAGIC = b"RDS1"
_HDR = struct.Struct("<4sB32sI")  # magic, kind, sha256, params_len
_PAYLEN = struct.Struct("<Q")
_NO_HASH = b"\x00" * 32  # digest sentinel of transient (unhashed) envelopes

# kind ids — stable, serialized into every envelope
KIND_BLOOM = 1
KIND_HLL = 2
KIND_COUNTMIN = 3
KIND_TDIGEST = 4
KIND_KLL = 5
KIND_MINHASH = 6

_REGISTRY: Dict[int, Type["Sketch"]] = {}


def register(kind: int) -> Callable[[Type["Sketch"]], Type["Sketch"]]:
    def deco(cls: Type["Sketch"]) -> Type["Sketch"]:
        cls.KIND = kind
        _REGISTRY[kind] = cls
        return cls

    return deco


class Sketch:
    """Mergeable sketch protocol (reference extension surface analog:
    ``BloomFilterState`` SPI, ``BloomFilterState.java:21-30``).

    Subclasses implement ``_params()``, ``_payload()``,
    ``_from_parts(params, payload)``, ``update_arrow(array)``,
    ``merge(other)`` and an ``estimate``-style accessor.
    """

    KIND: int = 0
    #: gzip payloads larger than this (bloom bitsets compress extremely
    #: well when sparse; tiny payloads aren't worth the gzip header)
    GZIP_MIN = 512

    # -- subclass surface -------------------------------------------------
    def _params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _payload(self) -> bytes:
        raise NotImplementedError

    @classmethod
    def _from_parts(cls, params: Dict[str, Any], payload: bytes) -> "Sketch":
        raise NotImplementedError

    def update_arrow(self, array) -> "Sketch":  # pa.Array | pa.ChunkedArray
        raise NotImplementedError

    def merge(self, other: "Sketch") -> "Sketch":
        raise NotImplementedError

    # -- envelope codec ---------------------------------------------------
    def serialize(self, *, compress: bool = True, hashed: bool = True) -> bytes:
        """Canonical envelope by default (gzip'd payload + sha256).

        ``compress=False, hashed=False`` produces a TRANSIENT envelope —
        raw payload, zeroed digest — for accumulators inside an
        aggregation combine tree, where a full gzip+sha256 cycle per
        combine edge is pure overhead (the reference pays this per
        exchange, ``BloomFilterStateSerializer.java:29-46``; we only pay
        it once in finalize). ``deserialize`` accepts both forms (a
        zeroed digest skips verification). Persisted / user-facing
        envelopes should always be canonical.
        """
        params = dict(self._params())
        payload = self._payload()
        if compress and len(payload) >= self.GZIP_MIN:
            params["gz"] = 1
            payload = gzip.compress(payload, compresslevel=1, mtime=0)
        pj = json.dumps(params, sort_keys=True, separators=(",", ":")).encode()
        if hashed:
            digest = hashlib.sha256(bytes([self.KIND]) + pj + payload).digest()
        else:
            digest = _NO_HASH
        return (
            _HDR.pack(MAGIC, self.KIND, digest, len(pj))
            + pj
            + _PAYLEN.pack(len(payload))
            + payload
        )

    def to_base64(self) -> str:
        """Reference ``to_string`` analog (``BloomFilter.java:154-157``)."""
        return base64.b64encode(self.serialize()).decode("ascii")

    def __reduce__(self):  # compact pickling through the object store
        return (deserialize, (self.serialize(),))


def _split(buf: bytes):
    magic, kind, digest, plen = _HDR.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ValueError(f"bad sketch envelope magic {magic!r}")
    off = _HDR.size
    params = json.loads(buf[off : off + plen].decode())
    off += plen
    (paylen,) = _PAYLEN.unpack_from(buf, off)
    off += _PAYLEN.size
    payload = buf[off : off + paylen]
    return kind, digest, params, payload


def deserialize(buf: bytes) -> Sketch:
    kind, digest, params, payload = _split(buf)
    if digest != _NO_HASH:  # transient combine-tree envelopes skip the hash
        pj = json.dumps(params, sort_keys=True, separators=(",", ":")).encode()
        if hashlib.sha256(bytes([kind]) + pj + payload).digest() != digest:
            raise ValueError("sketch envelope content hash mismatch")
    if params.pop("gz", 0):
        payload = gzip.decompress(payload)
    cls = _REGISTRY.get(kind)
    if cls is None:
        raise ValueError(f"unknown sketch kind {kind}")
    return cls._from_parts(params, payload)


def merge_envelopes(blobs: Iterable[Optional[bytes]]) -> Optional[Sketch]:
    """Union of a sequence of envelopes (reference combine, A4): each is
    deserialized and merged into the first, left to right in arrival
    order; ``None`` entries are skipped. ``None`` when no envelope is
    left. The one fold every merge stage (partials, trees, store loads)
    goes through."""
    acc: Optional[Sketch] = None
    for b in blobs:
        if b is None:
            continue
        sk = deserialize(b)
        acc = sk if acc is None else acc.merge(sk)
    return acc


def from_base64(s: str) -> Sketch:
    """Reference ``bloom_filter_from_string`` decode path
    (``BloomFilter.java:108-114``)."""
    return deserialize(base64.b64decode(s))


def read_hash(buf: bytes) -> bytes:
    """Peek the 32-byte content hash without deserializing
    (reference ``readHash``, ``BloomFilter.java:409-415``)."""
    magic, _kind, digest, _plen = _HDR.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ValueError(f"bad sketch envelope magic {magic!r}")
    return digest


def read_params(buf: bytes) -> Dict[str, Any]:
    """Header introspection without payload decompress — backs the
    ``get_expected_insertions`` / ``get_false_positive_percentage``
    scalars (reference S3/S4)."""
    _kind, _digest, params, _payload = _split(buf)
    params.pop("gz", None)
    return params


def read_kind(buf: bytes) -> int:
    _magic, kind, _digest, _plen = _HDR.unpack_from(buf, 0)
    return kind

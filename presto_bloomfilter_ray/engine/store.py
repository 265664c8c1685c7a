"""SketchStore — persist/load + per-partition checkpoints.

Replaces the reference's HTTP persist-service (``persist-service/server.go:30-57``,
boltdb file backend ``file_backend.go:15-79``, pluggable backend
interface ``ibackend.go:10-29``) with a filesystem-backed KV: keys are
relative paths, values are envelope bytes, writes are atomic on local
filesystems (tmp + rename — the same guarantee boltdb transactions gave
the reference; on object stores a single PUT is already atomic).

Backend pluggability mirrors the reference's ``ibackend.go`` dispatch
(file vs cassandra, selected by config ``conf.go:10-31``): two
backends share one duck-typed surface —

* :class:`SketchStore` — ``pyarrow.fs``-backed (``/local/path``,
  ``s3://bucket/prefix``, or an explicit ``filesystem=``), atomic
  writes, durable; ALSO the checkpoint layer (deterministic
  ``run_id/stage/partition`` keys → re-runs skip completed partitions,
  SURVEY §3.3).
* :class:`ActorKVStore` — a Ray NAMED-ACTOR network KV: the in-cluster
  analog of the reference's persist-service
  (``persist-service/server.go:30-57`` — PUT/GET by key over the
  network). Any worker resolves the actor by name and round-trips
  envelopes without touching a filesystem. In-memory, job-lifetime —
  the demo/cache backend, not the durable one.

``open_store(uri)`` is the dispatch: ``actor://<name>`` → ActorKVStore,
anything else → SketchStore.
"""

from __future__ import annotations

import posixpath
import uuid
from typing import Dict, List, Optional

import pyarrow.fs as pafs

from ..sketches.base import Sketch, deserialize, merge_envelopes


class _StoreSugar:
    """Shared sketch-level surface over any key-value backend
    (the ``ibackend.go:10-29`` interface analog)."""

    def put(self, key: str, value: bytes) -> bool:  # pragma: no cover
        raise NotImplementedError

    def get(self, key: str) -> bytes:  # pragma: no cover
        raise NotImplementedError

    def persist(self, sketch: Sketch, key: str) -> bool:
        return self.put(key, sketch.serialize())

    def load(self, key: str) -> Sketch:
        return deserialize(self.get(key))

    def load_and_merge(self, keys) -> Optional[Sketch]:
        """Reference ``bloom_filter_load`` aggregation shape: load a
        sequence of persisted sketches and union them
        (``BloomFilterLoad.java:30-39``)."""
        return merge_envelopes(self.get(k) for k in keys)


class SketchStore(_StoreSugar):
    def __init__(self, root: str, filesystem: Optional[pafs.FileSystem] = None):
        if filesystem is not None:
            self.fs = filesystem
            self.root = root.rstrip("/")
        elif "://" in root:
            self.fs, path = pafs.FileSystem.from_uri(root)
            self.root = path.rstrip("/")
        else:
            import os

            self.fs = pafs.LocalFileSystem()
            self.root = os.path.abspath(root)
        self.fs.create_dir(self.root, recursive=True)

    def _path(self, key: str) -> str:
        p = posixpath.normpath(posixpath.join(self.root, key))
        if not p.startswith(self.root + "/") and p != self.root:
            raise ValueError(f"key escapes store root: {key}")
        return p

    def put(self, key: str, value: bytes) -> bool:
        """Atomic write (reference ``bloom_filter_persist`` → HTTP PUT,
        ``BloomFilterPersistScalarFunction.java:38-63``; a null key is
        a no-op returning True, matching the null-URL semantics)."""
        if key is None:
            return True
        path = self._path(key)
        parent = posixpath.dirname(path)
        self.fs.create_dir(parent, recursive=True)
        tmp = f"{parent}/.tmp-{uuid.uuid4().hex[:12]}"
        try:
            with self.fs.open_output_stream(tmp) as f:
                f.write(value)
            self.fs.move(tmp, path)  # rename on local fs → atomic commit
        except BaseException:
            try:
                self.fs.delete_file(tmp)
            except OSError:
                pass
            raise
        return True

    def get(self, key: str) -> bytes:
        """Reference ``bloom_filter_load`` fetch path (``BloomFilter.java:116-138``)."""
        with self.fs.open_input_stream(self._path(key)) as f:
            return f.read()

    def exists(self, key: str) -> bool:
        return self.fs.get_file_info(self._path(key)).type == pafs.FileType.File

    def delete(self, key: str) -> None:
        try:
            self.fs.delete_file(self._path(key))
        except (FileNotFoundError, OSError):
            pass

    def keys(self, prefix: str = "") -> List[str]:
        base = self._path(prefix) if prefix else self.root
        sel = pafs.FileSelector(base, recursive=True, allow_not_found=True)
        out: List[str] = []
        for info in self.fs.get_file_info(sel):
            if info.type != pafs.FileType.File:
                continue
            name = info.path.rsplit("/", 1)[-1]
            if name.startswith(".tmp-"):
                continue
            out.append(posixpath.relpath(info.path, self.root))
        return sorted(out)

    # checkpoint key layout lives with the pipeline that owns it
    # (``pipelines/flagship.py``: content-hashed shard keys + .done
    # commit markers under checkpoints/<run_id>/<stage>/)


class _KVActorImpl:
    """The server side of the named-actor KV (decorated lazily so
    importing this module never requires an initialized Ray)."""

    def __init__(self):
        self._d: Dict[str, bytes] = {}

    def put(self, key: str, value: bytes) -> bool:
        self._d[key] = bytes(value)
        return True

    def get(self, key: str):
        return self._d.get(key)

    def exists(self, key: str) -> bool:
        return key in self._d

    def delete(self, key: str) -> None:
        self._d.pop(key, None)

    def keys(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self._d if k.startswith(prefix))


class ActorKVStore(_StoreSugar):
    """Network KV backed by a Ray NAMED ACTOR — the reference
    persist-service analog (``server.go:30-57``): every worker in the
    cluster resolves the same actor by (name, namespace) and PUT/GETs
    envelope bytes over Ray RPC. In-memory and job-scoped; use
    :class:`SketchStore` for durable persistence."""

    NAMESPACE = "presto-bloomfilter-ray"

    def __init__(self, name: str = "sketch-kv"):
        import ray

        # detached: the actor must outlive the task that first created
        # it (a non-detached named actor dies with its creator's handle,
        # so a sketch persisted by one worker would vanish before
        # another loads it). It lives until ray.shutdown or ray.kill.
        self._actor = (
            ray.remote(_KVActorImpl)
            .options(name=name, namespace=self.NAMESPACE,
                     get_if_exists=True, num_cpus=0, lifetime="detached")
            .remote()
        )

    def put(self, key: str, value: bytes) -> bool:
        if key is None:  # null-URL no-op parity with SketchStore.put
            return True
        import ray

        return ray.get(self._actor.put.remote(key, value))

    def get(self, key: str) -> bytes:
        import ray

        out = ray.get(self._actor.get.remote(key))
        if out is None:
            raise FileNotFoundError(f"no such key in actor KV: {key}")
        return out

    def exists(self, key: str) -> bool:
        import ray

        return ray.get(self._actor.exists.remote(key))

    def delete(self, key: str) -> None:
        import ray

        ray.get(self._actor.delete.remote(key))

    def keys(self, prefix: str = "") -> List[str]:
        import ray

        return ray.get(self._actor.keys.remote(prefix))


def open_store(uri: str):
    """Backend dispatch (reference ``ibackend.go:18-29`` / ``conf.go``):
    ``actor://<name>`` → :class:`ActorKVStore`; ``http(s)://…`` →
    :class:`~.http_service.HttpStore` (the reference persist-service
    wire protocol); anything else (local path or pyarrow.fs URI) →
    :class:`SketchStore`."""
    if uri.startswith("actor://"):
        return ActorKVStore(uri[len("actor://"):] or "sketch-kv")
    if uri.startswith(("http://", "https://")):
        from .http_service import HttpStore

        return HttpStore(uri)
    return SketchStore(uri)

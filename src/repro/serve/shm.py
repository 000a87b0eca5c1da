"""Zero-copy checkpoint sharing over ``multiprocessing.shared_memory``.

A :class:`SharedCheckpoint` maps a checkpoint's state dict into **one**
shared-memory segment so that every replica process of a pool
(:mod:`repro.serve.pool`) serves from the same physical weight bytes:

* **publish** (pool parent) — load the checkpoint, rebuild the model,
  then lay every array of its state dict into the segment and record a
  manifest of (name, dtype, shape, offset) plus a blake2b digest of
  the payload.
* **attach** (replica worker) — map the segment by name, check the
  digest, and expose each array as a **read-only** NumPy view.
  :meth:`repro.serve.session.InferenceSession.from_shared` rebinds the
  rebuilt model's parameters to those views with zero copies.

Lifecycle: the publisher owns the segment and is the only process that
unlinks it (``close()``; a ``weakref.finalize`` guard unlinks at
interpreter shutdown even on abnormal exit paths, so no ``/dev/shm``
entry outlives the pool).  Attachers deliberately skip resource-tracker
registration — a worker that dies (or is SIGKILLed by the
fault-injection tests) must neither unlink the segment under the
survivors nor disturb the publisher's registration (see
``_suppress_tracking``).

Example::

    shared = SharedCheckpoint.publish("ckpt.npz")      # parent
    spec = shared.spec                                 # picklable
    # ... in the worker process ...
    attached = SharedCheckpoint.attach(spec)
    session = InferenceSession.from_shared(attached)
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import os
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Union

import numpy as np

from ..nn.checkpoint import Checkpoint, load_checkpoint

#: Byte alignment of each array inside the segment.
_ALIGN = 64

#: Distinguishes this package's segments in ``/dev/shm`` listings (the
#: CI leak check greps for it).
NAME_PREFIX = "reproshm"

_counter = itertools.count()


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _payload_digest(buf: memoryview, nbytes: int) -> str:
    return hashlib.blake2b(buf[:nbytes], digest_size=16).hexdigest()


@contextlib.contextmanager
def _suppress_tracking():
    """Attach a segment without registering it with the resource tracker.

    The tracker process is shared between the pool parent and its
    workers (the fd is inherited through both fork and spawn), and the
    parent already registered the segment at creation.  A worker that
    registered on attach — or unregistered afterwards — would corrupt
    that single shared entry: python 3.11 registers unconditionally on
    POSIX attach, and an unregister from a worker yanks the parent's
    registration, so an abnormal parent exit would then *leak* the
    segment in ``/dev/shm``.  Suppressing registration on the attach
    side keeps exactly one owner of record: the publisher.
    """
    original = resource_tracker.register

    def _register(name, rtype):
        if rtype != "shared_memory":   # pragma: no cover - other types
            original(name, rtype)

    resource_tracker.register = _register
    try:
        yield
    finally:
        resource_tracker.register = original


class SharedCheckpoint:
    """A checkpoint's state, resident in one shared segment.

    Build with :meth:`publish` (owner side) or :meth:`attach` (worker
    side); never directly.  ``spec`` round-trips the attachment info
    through pickling (it is what a pool sends to a spawned worker).
    """

    def __init__(self, shm: shared_memory.SharedMemory, manifest: dict,
                 *, owner: bool):
        self._shm = shm
        self.manifest = manifest
        self.owner = owner
        self._views: Optional[Dict[str, np.ndarray]] = None
        self._closed = False
        self._finalizer = None
        if owner:
            # unlink even on abnormal interpreter exit — no leaked
            # /dev/shm entries after a crashed pool parent
            self._finalizer = weakref.finalize(
                self, _cleanup_segment, shm)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, checkpoint: Union[str, os.PathLike, Checkpoint], *,
                name: Optional[str] = None) -> "SharedCheckpoint":
        """Lay a checkpoint's state dict into a fresh segment.

        ``checkpoint`` is a path (loaded via
        :func:`repro.nn.checkpoint.load_checkpoint`, fingerprint
        verified) or an already-loaded :class:`Checkpoint`.  The
        returned object is the segment's owner.
        """
        ckpt = checkpoint if isinstance(checkpoint, Checkpoint) \
            else load_checkpoint(checkpoint)
        state = ckpt.build_model().state_dict()

        arrays = []
        offset = 0
        for key in state:
            value = np.ascontiguousarray(state[key])
            offset = _aligned(offset)
            arrays.append({"name": str(key), "dtype": str(value.dtype),
                           "shape": list(value.shape), "offset": offset})
            offset += value.nbytes
        nbytes = max(1, offset)

        shm = _create_segment(name, nbytes)
        for entry in arrays:
            value = np.ascontiguousarray(state[entry["name"]])
            view = np.ndarray(value.shape, dtype=value.dtype,
                              buffer=shm.buf, offset=entry["offset"])
            view[...] = value
        manifest = {
            "format_version": 1,
            "fingerprint": ckpt.fingerprint,
            "meta": ckpt.meta,
            "nbytes": nbytes,
            "digest": _payload_digest(shm.buf, nbytes),
            "arrays": arrays,
        }
        return cls(shm, manifest, owner=True)

    @classmethod
    def attach(cls, spec: dict, *, verify: bool = True
               ) -> "SharedCheckpoint":
        """Map a published segment in this process (worker side).

        ``verify=True`` recomputes the payload digest against the
        manifest — a replica must refuse to serve from a torn or
        foreign segment rather than answer non-reproducibly.
        """
        with _suppress_tracking():
            shm = shared_memory.SharedMemory(name=spec["name"])
        manifest = spec["manifest"]
        if verify:
            actual = _payload_digest(shm.buf, int(manifest["nbytes"]))
            if actual != manifest["digest"]:
                shm.close()
                raise ValueError(
                    f"shared checkpoint {spec['name']} payload digest "
                    f"mismatch: manifest says {manifest['digest']}, "
                    f"segment hashes to {actual}")
        return cls(shm, manifest, owner=False)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def spec(self) -> dict:
        """Picklable attachment info: ship to workers, then
        :meth:`attach`."""
        return {"name": self._shm.name, "manifest": self.manifest}

    @property
    def state(self) -> Dict[str, np.ndarray]:
        """Name -> read-only zero-copy view over the segment."""
        if self._closed:
            raise ValueError("shared checkpoint is closed")
        if self._views is None:
            views: Dict[str, np.ndarray] = {}
            for entry in self.manifest["arrays"]:
                view = np.ndarray(tuple(entry["shape"]),
                                  dtype=np.dtype(entry["dtype"]),
                                  buffer=self._shm.buf,
                                  offset=entry["offset"])
                view.flags.writeable = False
                views[entry["name"]] = view
            self._views = views
        return self._views

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return int(self.manifest["nbytes"])

    @property
    def fingerprint(self) -> str:
        return self.manifest["fingerprint"]

    @property
    def meta(self) -> dict:
        return self.manifest["meta"]

    @property
    def model_spec(self) -> Optional[dict]:
        return self.meta.get("model")

    @property
    def gemm_spec(self) -> Optional[dict]:
        return self.meta.get("gemm")

    def gemm_config(self):
        """The datapath config the weights were trained for (or ``None``
        for the exact FP64 baseline)."""
        if self.gemm_spec is None:
            return None
        from ..emu.config import GemmConfig

        return GemmConfig.from_spec(self.gemm_spec)

    def verify(self) -> bool:
        """Does the segment payload still hash to the manifest digest?"""
        return _payload_digest(self._shm.buf,
                               self.nbytes) == self.manifest["digest"]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this process's mapping; the owner also unlinks.

        Safe to call twice.  If live NumPy views still pin the mapping
        (a worker's model parameters do, for the process's whole life)
        the unmap is skipped — the owner's unlink still removes the
        name, and the mapping goes away when the process exits.
        """
        if self._closed:
            return
        self._closed = True
        self._views = None
        if self._finalizer is not None:
            self._finalizer()
            return
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - views still exported
            pass

    def __enter__(self) -> "SharedCheckpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _create_segment(name: Optional[str],
                    nbytes: int) -> shared_memory.SharedMemory:
    """A fresh segment; generated names retry around stale leftovers."""
    if name is not None:
        return shared_memory.SharedMemory(name=name, create=True,
                                          size=nbytes)
    while True:
        candidate = f"{NAME_PREFIX}-{os.getpid()}-{next(_counter)}"
        try:
            return shared_memory.SharedMemory(name=candidate, create=True,
                                              size=nbytes)
        except FileExistsError:  # pragma: no cover - pid-reuse leftover
            continue


def _cleanup_segment(shm: shared_memory.SharedMemory) -> None:
    """Owner-side teardown: unmap (best effort) and unlink the name."""
    try:
        shm.close()
    except BufferError:  # pragma: no cover - views still exported
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass

"""Forward-only eval-mode inference plans with per-request SR keying.

An :class:`InferenceSession` owns a model and prepares it for serving:

1. **Eval mode** — ``model.eval()`` once; batch norm reads running
   statistics, dropout is identity.  Every non-GEMM op of the eval
   forward pass (softmax, LayerNorm, batch-norm-with-running-stats,
   activations, pooling) is then a per-sample function, which is what
   makes batch-composition invariance achievable at all.
2. **Per-request SR keying** — each request's random bits come from
   ``config.stream.spawn(request_key)``, where the key is a content
   hash of (input bytes, checkpoint fingerprint, datapath config).
   Every layer's GEMM is one :class:`repro.emu.QuantizedGemm`, armed
   with the micro-batch's request streams for one forward pass: the
   ``g``-th GEMM call runs sample ``i``'s slice under substream
   ``request_stream_i.spawn((g,))`` (DESIGN.md section 4), so the
   executor's draw-order contract also guarantees worker-count
   invariance.

The resulting invariant — pinned by ``tests/serve/test_session.py``
and documented in DESIGN.md section 8 — is that a request's logits are
a pure function of (checkpoint, datapath config, input bytes): the same
request served alone, in any batch, under any ``workers``, is bitwise
identical.  It also makes responses *cacheable* under the same content
key (:mod:`repro.serve.cache`).

Example::

    session = InferenceSession.from_checkpoint("ckpt.npz", workers=2)
    logits = session.predict(x)           # single sample, no batch dim
"""

from __future__ import annotations

import hashlib
import threading
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..emu.config import GemmConfig
from ..emu.parallel import QuantizedGemm
from ..nn.checkpoint import Checkpoint, load_checkpoint, state_fingerprint
from ..nn.module import Module
from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry


def request_content_key(fingerprint: str,
                        x: np.ndarray) -> Tuple[str, Tuple[int, ...]]:
    """(cache key, SR spawn key) of one validated request input.

    Both derive from one blake2b digest over the checkpoint
    fingerprint and the input's dtype/shape/bytes, so "same cache
    entry" and "same SR draws" are literally the same equivalence
    relation: cacheable responses are exactly the reproducible ones.
    Module-level so the replica pool's front router
    (:mod:`repro.serve.pool`) can key requests without building a
    model — routing by this hash is what lets per-replica caches and
    per-request SR keying survive sharding by construction.
    """
    x = np.ascontiguousarray(x)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(fingerprint.encode())
    digest.update(str(x.dtype).encode())
    digest.update(str(x.shape).encode())
    digest.update(x.tobytes())
    raw = digest.digest()
    spawn_key = tuple(int.from_bytes(raw[i:i + 4], "little")
                      for i in range(0, 16, 4))
    return digest.hexdigest(), spawn_key


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError("input values must be finite (no NaN or infinity)")
    return arr


def validate_payload(spec: Optional[dict], x) -> np.ndarray:
    """Coerce one request payload to a model input spec's dtype/shape.

    ``spec`` is the checkpoint sidecar's input description (``None``
    skips shape checks).  Float inputs must be finite: ``json.loads``
    accepts ``NaN`` and ``Infinity``, and logits computed from them
    would be neither meaningful nor valid JSON.  Module-level for the
    same reason as :func:`request_content_key`: the pool router
    validates before routing so malformed requests are rejected
    without crossing a process boundary.
    """
    if spec is None:
        arr = np.asarray(x)
        return arr if np.issubdtype(arr.dtype, np.integer) \
            else _finite(np.asarray(arr, np.float64))
    if spec.get("kind") == "tokens":
        arr = np.asarray(x)
        if not np.issubdtype(arr.dtype, np.integer) \
                and not np.all(np.mod(_finite(arr), 1) == 0):
            raise ValueError("token input must be integral")
        arr = arr.astype(np.int64)
        expect = (int(spec["seq_len"]),)
        if arr.shape != expect:
            raise ValueError(
                f"expected token shape {expect}, got {arr.shape}")
        vocab = int(spec["vocab_size"])
        if arr.min(initial=0) < 0 or arr.max(initial=0) >= vocab:
            raise ValueError(f"token ids must be in [0, {vocab})")
        return arr
    arr = np.asarray(x, np.float64)
    expect = tuple(int(v) for v in spec.get("shape", ()))
    if expect and arr.shape != expect:
        raise ValueError(
            f"expected input shape {expect}, got {arr.shape}")
    return _finite(arr)


class InferenceSession:
    """A trained model prepared as a servable forward-only plan.

    The session takes *ownership* of ``model``: it switches it to eval
    mode and rebinds every layer's gemm callable to one executor; the
    weights are left as they are.  Use :meth:`from_checkpoint` to build
    a fresh model from disk (the normal serving path).

    Parameters
    ----------
    model:
        The trained module (any :mod:`repro.models` architecture).
    config:
        Datapath config (``None`` = exact FP64 baseline).
    workers:
        Tiled-parallel GEMM workers: threads that run the executor's
        row blocks.
    fingerprint:
        Checkpoint identity for cache keys / ``/healthz``; computed
        from the weights when omitted.
    input_spec:
        Request payload description from the checkpoint's model spec
        (``{"kind": "image", "shape": [...]}`` or ``{"kind": "tokens",
        "seq_len": T, "vocab_size": V}``); enables validation.

    Example::

        session = InferenceSession(model, GemmConfig.sr(9, seed=3))
        alone = session.predict(x)
        a, b = session.predict_batch([x, y])
        assert np.array_equal(alone, a)   # batch-composition invariant
    """

    def __init__(self, model: Module, config: Optional[GemmConfig] = None, *,
                 workers: int = 1, fingerprint: Optional[str] = None,
                 input_spec: Optional[dict] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.config = config if config is not None else GemmConfig()
        self.model = model
        self.input_spec = input_spec
        self.workers = max(1, int(workers))
        if fingerprint is None:
            fingerprint = state_fingerprint(model.state_dict(),
                                            self._config_spec())
        self.fingerprint = fingerprint
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        #: lock-order: 80
        self._lock = threading.Lock()
        self._gemm = QuantizedGemm(self.config, workers=self.workers,
                                   registry=self.metrics)
        self._gemm.arm([])   # disarmed outside predict_batch
        for module in model.modules():
            if hasattr(module, "gemm"):
                module.gemm = self._gemm
        model.eval()

    # ------------------------------------------------------------------
    def _config_spec(self) -> dict:
        try:
            return self.config.to_spec()
        except (TypeError, ValueError):
            # non-serializable stream: fall back to the label (enough to
            # keep fingerprints distinct across formats/r)
            return {"label": self.config.label}

    # ------------------------------------------------------------------
    def content_key(self, x: np.ndarray) -> Tuple[str, Tuple[int, ...]]:
        """(cache key, spawn key) of one request input — see
        :func:`request_content_key`."""
        return request_content_key(self.fingerprint, x)

    def validate_input(self, x: np.ndarray) -> np.ndarray:
        """Coerce one request payload to the model's input dtype/shape
        — see :func:`validate_payload`."""
        return validate_payload(self.input_spec, x)

    # ------------------------------------------------------------------
    def predict_batch(self, inputs: Sequence[np.ndarray],
                      keys: Optional[Sequence[Tuple[int, ...]]] = None
                      ) -> List[np.ndarray]:
        """Serve one micro-batch; returns per-sample outputs.

        ``keys`` are the per-request spawn keys (from
        :meth:`content_key`); derived from the inputs when omitted.
        Each output is bit-identical to serving its input in any other
        micro-batch composition.
        """
        if len(inputs) == 0:
            return []
        arrays = [np.asarray(x) for x in inputs]
        if keys is None:
            keys = [self.content_key(x)[1] for x in arrays]
        if len(keys) != len(arrays):
            raise ValueError(f"{len(arrays)} inputs but {len(keys)} keys")
        batch = np.stack(arrays)
        if not np.issubdtype(batch.dtype, np.integer):
            batch = np.asarray(batch, np.float64)
        cm = _trace.span("serve/session", samples=len(arrays)) \
            if _trace.active else _trace.NULL
        with cm, self._lock:
            self._gemm.arm([self.config.stream.spawn(key) for key in keys])
            try:
                out = self.model(batch)
            finally:
                self._gemm.arm([])   # disarm until the next batch
        return [np.array(out[i]) for i in range(len(arrays))]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Serve one sample (no batch dimension)."""
        return self.predict_batch([x])[0]

    def warm(self, sample: Optional[np.ndarray] = None) -> bool:
        """Run one representative forward pass before real traffic.

        Faults in every code path so the first real request does not
        pay for it.  ``sample`` defaults to a zero input synthesized
        from the checkpoint's input spec; returns ``False`` (no-op)
        when neither is available.  Later logits are unaffected: each
        request's draws are keyed by its own content.
        """
        if sample is None:
            spec = self.input_spec or {}
            if spec.get("kind") == "tokens":
                sample = np.zeros(int(spec["seq_len"]), dtype=np.int64)
            elif spec.get("shape"):
                sample = np.zeros([int(v) for v in spec["shape"]])
            else:
                return False
        self.predict(np.asarray(sample))
        return True

    # ------------------------------------------------------------------
    @property
    def gemm_calls(self) -> int:
        return self._gemm.call_count

    @classmethod
    def from_checkpoint(cls, path, *, workers: int = 1) -> "InferenceSession":
        """Build a session from a checkpoint written by
        :func:`repro.nn.checkpoint.save_checkpoint` (the sidecar must
        carry a model spec)."""
        ckpt: Checkpoint = load_checkpoint(path)
        model = ckpt.build_model()
        return cls(model, ckpt.gemm_config(), workers=workers,
                   fingerprint=ckpt.fingerprint,
                   input_spec=(ckpt.model_spec or {}).get("input"))

    @classmethod
    def from_shared(cls, shared, *, workers: int = 1) -> "InferenceSession":
        """Build a session over an attached shared-memory checkpoint.

        ``shared`` is a :class:`repro.serve.shm.SharedCheckpoint`
        (attached in this process).  The model's parameters are rebound
        to the segment's read-only views with **zero copies**
        (:func:`repro.nn.checkpoint.rebind_parameters`): every replica
        of a pool reads the same physical weight bytes, and the session
        never writes to them.
        """
        from ..models.registry import build_model_from_spec
        from ..nn.checkpoint import rebind_parameters

        model_spec = shared.model_spec
        if model_spec is None:
            raise ValueError(
                "shared checkpoint carries no model spec; it was not "
                "published from a servable checkpoint")
        model = build_model_from_spec(model_spec)
        rebind_parameters(model, shared.state)
        return cls(model, shared.gemm_config(), workers=workers,
                   fingerprint=shared.fingerprint,
                   input_spec=(model_spec or {}).get("input"))

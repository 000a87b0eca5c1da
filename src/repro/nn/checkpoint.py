"""Named checkpoints: ``.npz`` weights + a JSON sidecar of config.

A checkpoint is two files written side by side:

* ``ckpt.npz`` — every parameter under its module-path-qualified name
  (:meth:`repro.nn.module.Module.named_parameters`), e.g.
  ``features.layers.0.weight``, then every buffer (batch-norm running
  statistics) the same way.  Named storage survives architecture
  refactors that keep layer names.
* ``ckpt.json`` — the sidecar: a model spec
  (:mod:`repro.models.registry`) that rebuilds the architecture, the
  :class:`repro.emu.GemmConfig` spec of the datapath the weights were
  trained for, and a content fingerprint over the weights + datapath
  that keys the serving response cache.

Example::

    from repro.models import simple_cnn_spec
    from repro.nn.checkpoint import save_checkpoint, load_checkpoint

    spec = simple_cnn_spec(num_classes=10, in_channels=3, width=8,
                           image_size=8)
    save_checkpoint(model, "ckpt.npz", model_spec=spec,
                    gemm_config=GemmConfig.sr(9, seed=3))
    ckpt = load_checkpoint("ckpt.npz")
    model = ckpt.build_model()            # weights restored
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .module import Module, _state_entry

#: Bumped when the on-disk layout changes incompatibly.
FORMAT_VERSION = 1


def _sidecar_path(path) -> Path:
    return Path(path).with_suffix(".json")


def state_fingerprint(state: dict, gemm_spec: Optional[dict]) -> str:
    """Content hash of a named state dict + datapath spec.

    Stable across processes and save/load round trips: parameters are
    hashed in sorted-name order as raw float64 bytes, then the
    JSON-canonicalized gemm spec is folded in.  Used as the checkpoint
    identity in ``/healthz`` and in serving cache keys, so two servers
    answer identically exactly when their fingerprints match.
    """
    digest = hashlib.sha256()
    for name in sorted(state):
        value = np.ascontiguousarray(np.asarray(state[name], np.float64))
        digest.update(name.encode())
        digest.update(str(value.shape).encode())
        digest.update(value.tobytes())
    digest.update(json.dumps(gemm_spec, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def rebind_parameters(model: Module, state: dict) -> None:
    """Zero-copy load: point the model's parameters *at* ``state``.

    The copying loader (:meth:`repro.nn.module.Module.load_state_dict`)
    writes each array into the parameter's own buffer — correct for
    training, wasteful for serving replicas that should all read one
    physical copy of the weights.  This rebinds ``param.data`` to the
    state's arrays directly (they may be read-only views over a
    :mod:`multiprocessing.shared_memory` segment; nothing in an
    eval-mode forward pass writes to parameters).  Buffers (batch-norm
    running statistics) are small and owned per-module, so they are
    copied, not rebound.

    Raises ``KeyError`` on a missing parameter or buffer and
    ``ValueError`` on a shape mismatch, as the copying loader does — a
    shared segment published from a different architecture must fail
    loudly, not serve garbage.
    """
    for name, param in model.named_parameters():
        param.data = _state_entry(state, name, "parameter",
                                  param.data.shape)
    for name, buffer in model.named_buffers():
        buffer[...] = _state_entry(state, name, "buffer", buffer.shape)


def save_checkpoint(model: Module, path, *, model_spec: Optional[dict] = None,
                    gemm_config=None, extra: Optional[dict] = None) -> str:
    """Write ``path`` (``.npz``) + its JSON sidecar; returns the fingerprint.

    ``model_spec`` should come from :mod:`repro.models.registry` when the
    checkpoint is meant to be served (``python -m repro.serve`` needs it
    to rebuild the architecture); ``gemm_config`` records the emulated
    datapath (``None`` = exact FP64 baseline).
    """
    path = Path(path)
    state = model.state_dict()   # parameters + buffers, named
    gemm_spec = gemm_config.to_spec() if gemm_config is not None else None
    fingerprint = state_fingerprint(state, gemm_spec)
    meta = {
        "format_version": FORMAT_VERSION,
        "fingerprint": fingerprint,
        "model": model_spec,
        "gemm": gemm_spec,
        "parameters": {name: list(value.shape)
                       for name, value in state.items()},
        "extra": extra or {},
    }
    np.savez(path, **state)
    _sidecar_path(path).write_text(json.dumps(meta, indent=2) + "\n",
                                   encoding="utf-8")
    return fingerprint


class CheckpointMeta:
    """The sidecar fields of :class:`Checkpoint` and of its shared-memory
    copy (:class:`repro.serve.shm.SharedCheckpoint`), read from one
    ``meta`` dict, and the model rebuilt from them and ``state``."""

    meta: dict
    state: dict
    #: Rebind the parameters to ``state``'s arrays instead of copying
    #: them in (:func:`rebind_parameters`).
    zero_copy = False

    @property
    def fingerprint(self) -> str:
        return self.meta["fingerprint"]

    @property
    def model_spec(self) -> Optional[dict]:
        return self.meta.get("model")

    @property
    def gemm_spec(self) -> Optional[dict]:
        return self.meta.get("gemm")

    @property
    def input_spec(self) -> Optional[dict]:
        """What a request payload must be (``validate_payload``)."""
        return (self.model_spec or {}).get("input")

    def gemm_config(self):
        """The datapath config the weights were trained for (or ``None``
        for the exact FP64 baseline)."""
        if self.gemm_spec is None:
            return None
        from ..emu.config import GemmConfig

        return GemmConfig.from_spec(self.gemm_spec)

    def build_model(self) -> Module:
        """Rebuild the architecture from the sidecar spec and load the
        weights into it."""
        from ..models.registry import build_model_from_spec

        if self.model_spec is None:
            raise ValueError(
                f"checkpoint {self.fingerprint} has no model spec; pass "
                "model_spec= to save_checkpoint to make it servable")
        model = build_model_from_spec(self.model_spec)
        if self.zero_copy:
            rebind_parameters(model, self.state)
        else:
            model.load_state_dict(self.state)
        return model


@dataclass
class Checkpoint(CheckpointMeta):
    """A loaded checkpoint: named state + sidecar metadata."""

    state: dict
    meta: dict
    path: Path


def load_checkpoint(path, *, verify: bool = True) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    ``verify=True`` recomputes the weight fingerprint and fails loudly
    on a mismatch with the sidecar (a corrupted or hand-edited file
    would otherwise silently serve wrong answers).
    """
    path = Path(path)
    with np.load(path) as archive:
        state = {name: np.asarray(archive[name], np.float64)
                 for name in archive.files}
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise FileNotFoundError(
            f"checkpoint sidecar {sidecar} not found next to {path}")
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    if verify:
        actual = state_fingerprint(state, meta.get("gemm"))
        recorded = meta.get("fingerprint")
        if actual != recorded:
            raise ValueError(
                f"checkpoint {path} fingerprint mismatch: sidecar says "
                f"{recorded}, weights hash to {actual}")
    return Checkpoint(state=state, meta=meta, path=path)

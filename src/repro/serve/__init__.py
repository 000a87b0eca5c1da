"""`repro.serve` — batched SR-inference serving.

Takes a trained :class:`repro.nn.Module` and serves it over HTTP:

* :class:`repro.serve.session.InferenceSession` turns the model into
  a forward-only eval plan, and SR randomness is keyed per request via
  ``RandomBitStream.spawn(request_key)``, so a request's logits are
  bit-identical regardless of which micro-batch it lands in and of the
  worker count (the one-stream-per-group rule of the DESIGN.md frozen
  draw-order contract).
* :class:`repro.serve.batcher.MicroBatcher` coalesces concurrent
  single-sample requests into batched GEMMs on the tiled-parallel
  datapath (``max_batch_size``, ``max_delay_ms``).
* :class:`repro.serve.cache.ResponseCache` is a content-keyed LRU over
  (input bytes, checkpoint fingerprint, datapath config).
* :mod:`repro.serve.server` is a stdlib ``ThreadingHTTPServer`` JSON
  API (``/predict``, ``/healthz``, ``/stats``, ``/metrics``, pooled
  ``/reload``), launched via ``python -m repro.serve --checkpoint
  ckpt.npz``.  Counters live in metrics registries; ``/metrics``
  renders their merged snapshot and ``/stats`` is
  :func:`repro.serve.server.stats_view` of the same snapshot.
* :class:`repro.serve.pool.ReplicaPool` shards serving across worker
  processes that all read **one** zero-copy shared-memory copy of the
  checkpoint (:class:`repro.serve.shm.SharedCheckpoint`),
  routed by the same content hash that keys SR draws and the response
  cache — so *which replica answers is unobservable*, crashed workers
  respawn, and checkpoint reloads drain-and-swap with zero drops
  (``--replicas N``).

Quickstart: ``docs/serving.md``.
"""

from .batcher import MicroBatcher
from .cache import ResponseCache
from .pool import ReplicaError, ReplicaPool
from .server import ServerApp, make_server, stats_view
from .session import InferenceSession
from .shm import SharedCheckpoint

__all__ = [
    "InferenceSession",
    "MicroBatcher",
    "ResponseCache",
    "ServerApp",
    "make_server",
    "stats_view",
    "ReplicaPool",
    "ReplicaError",
    "SharedCheckpoint",
]

"""CLI: serve a checkpoint over HTTP.

Example::

    python -m repro.serve --checkpoint ckpt.npz --workers 2 --port 8000
    python -m repro.serve --checkpoint ckpt.npz --replicas 4 --port 8000

``--replicas 1`` (the default) runs the single-process server;
``--replicas N`` runs the sharded multi-process pool
(:class:`repro.serve.pool.ReplicaPool`): N worker processes over one
zero-copy shared-memory checkpoint, content-hash routing, automatic
respawn of crashed workers, and drain-and-swap ``POST /reload``.
Answers are bit-identical either way — replication, like worker count
and micro-batching, is invisible in the logits.
"""

from __future__ import annotations

import argparse
import sys

from ..emu.parallel import resolve_workers
from .pool import ReplicaPool
from .server import ServerApp, make_server
from .session import InferenceSession


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a trained checkpoint on the emulated SR "
                    "datapath (micro-batching + response cache).")
    parser.add_argument("--checkpoint", required=True,
                        help=".npz checkpoint written by "
                             "repro.nn.checkpoint.save_checkpoint "
                             "(JSON sidecar required)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8000,
                        help="0 picks an ephemeral port (printed on start)")
    parser.add_argument("--workers", default="1",
                        help="tiled-parallel GEMM workers (results are "
                             "bit-identical for any value); 'auto' = "
                             "os.cpu_count()")
    parser.add_argument("--backend", choices=("thread", "process"),
                        default="thread",
                        help="tiled-parallel scheduler backend")
    parser.add_argument("--max-batch-size", type=int, default=8)
    parser.add_argument("--max-delay-ms", type=float, default=2.0)
    parser.add_argument("--cache-size", type=int, default=1024,
                        help="LRU response-cache entries (0 disables; "
                             "per replica when pooled)")
    parser.add_argument("--replicas", type=int, default=1,
                        help="worker processes sharing one zero-copy "
                             "shared-memory checkpoint (1 = "
                             "single-process server); requests are "
                             "routed by content hash, so answers are "
                             "bit-identical for any value")
    parser.add_argument("--start-method", default="spawn",
                        choices=("spawn", "fork", "forkserver"),
                        help="multiprocessing start method for pool "
                             "replicas")
    parser.add_argument("--handler-threads", type=int, default=None,
                        help="concurrent handlers per replica "
                             "(default: --max-batch-size)")
    parser.add_argument("--no-warm", action="store_true",
                        help="skip the pre-traffic warmup forward pass "
                             "in each replica")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        raise SystemExit(f"--workers: {exc}")
    if args.replicas < 1:
        raise SystemExit(f"--replicas must be >= 1, got {args.replicas}")
    if args.replicas > 1:
        app = ReplicaPool(
            args.checkpoint, replicas=args.replicas, workers=workers,
            backend=args.backend,
            max_batch_size=args.max_batch_size,
            max_delay_ms=args.max_delay_ms,
            cache_entries=args.cache_size,
            handler_threads=args.handler_threads,
            warm=not args.no_warm, start_method=args.start_method)
        banner = (f"replicas={args.replicas} workers={workers} "
                  f"[{app.fingerprint}] config '{app.config_label}'")
    else:
        session = InferenceSession.from_checkpoint(
            args.checkpoint, workers=workers, backend=args.backend)
        app = ServerApp(session, max_batch_size=args.max_batch_size,
                        max_delay_ms=args.max_delay_ms,
                        cache_entries=args.cache_size)
        banner = (f"[{session.fingerprint}] config "
                  f"'{session.config.label}' workers={workers}")
    server = make_server(app, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"repro.serve: checkpoint {args.checkpoint} {banner}",
          flush=True)
    print(f"serving on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        app.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

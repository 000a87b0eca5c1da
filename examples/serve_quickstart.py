"""Serving quickstart: train a tiny CNN, checkpoint it, serve requests.

Two modes::

    # write a servable checkpoint (then: python -m repro.serve --checkpoint ckpt.npz)
    python examples/serve_quickstart.py --train ckpt.npz

    # or run the whole loop in process: train -> save -> load -> serve
    python examples/serve_quickstart.py

The in-process demo exercises the full serving stack (frozen session,
micro-batcher, response cache) and prints the invariance check the
subsystem is built around: the same request served alone, in a batch,
and under a different worker count produces bit-identical logits.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro.data import loaders_for, make_cifar10_like
from repro.emu import GemmConfig
from repro.models import SimpleCNN, simple_cnn_spec
from repro.nn import Trainer, save_checkpoint
from repro.serve import InferenceSession, ServerApp


def train_and_save(path: Path, *, n_train: int, epochs: int,
                   width: int) -> None:
    dataset = make_cifar10_like(n_train, max(n_train // 4, 32), 8, seed=0)
    model = SimpleCNN(dataset.num_classes, 3, width, seed=1)
    train_loader, test_loader = loaders_for(dataset, batch_size=64, seed=0)
    trainer = Trainer(model, lr=0.05, epochs=epochs, weight_decay=1e-4,
                      log=print)
    result = trainer.fit(train_loader, test_loader)
    spec = simple_cnn_spec(num_classes=dataset.num_classes, in_channels=3,
                           width=width, image_size=8, seed=1)
    fingerprint = save_checkpoint(
        model, path, model_spec=spec,
        gemm_config=GemmConfig.sr(9, seed=3),
        extra={"final_accuracy": result.final_accuracy})
    print(f"checkpoint: {path} [{fingerprint}] "
          f"(final accuracy {100 * result.final_accuracy:.1f}%)")


def serve_demo(path: Path, metrics_out: Path | None = None) -> None:
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 8, 8))
    others = [rng.normal(size=(3, 8, 8)) for _ in range(3)]

    session1 = InferenceSession.from_checkpoint(path, workers=1)
    alone = session1.predict(x)
    in_batch = session1.predict_batch([others[0], x, others[1]])[1]
    session2 = InferenceSession.from_checkpoint(path, workers=2)
    other_workers = session2.predict(x)

    print("serving config:", session1.config.label)
    print("alone == in batch of 3:  ", np.array_equal(alone, in_batch))
    print("workers=1 == workers=2:  ", np.array_equal(alone, other_workers))

    app = ServerApp(session2, max_batch_size=4, max_delay_ms=2.0,
                    cache_entries=64)
    try:
        for payload in (x, others[2], x):      # repeat x -> cache hit
            body = app.predict_json({"input": payload})
            print(f"predict key={body['key'][:12]}... "
                  f"cached={body['cached']} "
                  f"argmax={int(np.argmax(body['logits']))}")
        stats = app.stats()
        print(f"cache hit rate: {stats['cache']['hit_rate']:.2f}  "
              f"batches: {stats['batcher']['batches']}")
        if metrics_out is not None:
            metrics_out.write_text(app.metrics_text())
            print(f"metrics exposition -> {metrics_out}")
    finally:
        app.close()
    print("PASS" if np.array_equal(alone, in_batch)
          and np.array_equal(alone, other_workers) else "FAIL")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train", metavar="PATH", default=None,
                        help="train + write a checkpoint to PATH and exit")
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--n-train", type=int, default=256)
    parser.add_argument("--width", type=int, default=4)
    parser.add_argument("--trace", metavar="TRACE.json", default=None,
                        help="record the demo as Chrome trace_event "
                             "JSON (chrome://tracing / "
                             "'python -m repro.obs summarize')")
    parser.add_argument("--metrics", metavar="METRICS.txt", default=None,
                        help="write the demo server's /metrics "
                             "Prometheus exposition to this path")
    args = parser.parse_args()

    if args.train:
        train_and_save(Path(args.train), n_train=args.n_train,
                       epochs=args.epochs, width=args.width)
        return

    def demo() -> None:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ckpt.npz"
            train_and_save(path, n_train=args.n_train, epochs=args.epochs,
                           width=args.width)
            serve_demo(path, metrics_out=Path(args.metrics)
                       if args.metrics else None)

    if args.trace:
        from repro.obs import tracing

        with tracing() as recorder:
            demo()
        count = recorder.export_chrome(args.trace)
        print(f"trace: {count} spans -> {args.trace}")
    else:
        demo()


if __name__ == "__main__":
    main()

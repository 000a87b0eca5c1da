#!/usr/bin/env python
"""Train a tiny transformer with low-precision MAC GEMMs — quickstart.

The attention counterpart of ``train_resnet.py``: a
sequence-classification transformer whose every GEMM — Q/K/V/output
projections, the per-head ``Q K^T`` and ``A V`` batched products, the
MLP and the classifier head — runs through the emulated SR MAC
(softmax/LayerNorm stay FP32; see DESIGN.md section 6).  Compares the
FP32 baseline against the paper's FP12 (E6M5) accumulator with r-bit
stochastic rounding.

The GEMMs execute on the tiled-parallel datapath
(`QuantizedGemm`), so re-running with any ``--workers`` value
reproduces the same result bit for bit.

Run:  python examples/train_transformer.py [--epochs 2] [--rbits 13] [--workers 1]
"""

import argparse
import time

from repro.data import make_sequence_classification, sequence_loaders_for
from repro.emu import GemmConfig, QuantizedGemm
from repro.models import TinyTransformer
from repro.nn import Trainer


def train(label, gemm_config, dataset, args):
    gemm = QuantizedGemm(gemm_config, workers=args.workers) \
        if gemm_config is not None else None
    model = TinyTransformer(dataset.vocab_size, dataset.num_classes,
                            d_model=args.d_model, n_heads=args.heads,
                            depth=1, max_len=dataset.seq_len,
                            gemm=gemm, seed=1)
    train_loader, test_loader = sequence_loaders_for(dataset, batch_size=64,
                                                     seed=0)
    trainer = Trainer(
        model, lr=0.05, momentum=0.9, weight_decay=1e-4,
        epochs=args.epochs, loss_scale_init=1024.0,
        log=lambda msg: print(f"  [{label}] {msg}"),
    )
    start = time.time()  # reprolint: disable=DET-CLOCK  progress only
    result = trainer.fit(train_loader, test_loader)
    print(f"{label:<28} final accuracy {100 * result.final_accuracy:5.2f}%  "
          f"({time.time() - start:.0f}s)")  # reprolint: disable=DET-CLOCK
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--rbits", type=int, default=13)
    parser.add_argument("--d-model", type=int, default=32)
    parser.add_argument("--heads", type=int, default=4)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--n-train", type=int, default=256)
    parser.add_argument("--seq-len", type=int, default=16)
    args = parser.parse_args()

    dataset = make_sequence_classification(
        args.n_train, max(64, args.n_train // 4), seq_len=args.seq_len,
        vocab_size=16, num_classes=4, seed=0)
    print(f"dataset: {dataset.name}, {dataset.train_tokens.shape[0]} train / "
          f"{dataset.test_tokens.shape[0]} test, seq_len {dataset.seq_len}, "
          f"vocab {dataset.vocab_size}\n")

    train("FP32 baseline", None, dataset, args)
    train(
        f"SR E6M5 r={args.rbits} attention",
        GemmConfig.sr(args.rbits, seed=3),
        dataset, args,
    )


if __name__ == "__main__":
    main()

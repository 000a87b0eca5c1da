"""Transformer workload benchmark: wall clock + accuracy JSON report.

Times one FP32-baseline and one SR (E6M5, ``--rbits``) training run of
the :mod:`repro.experiments.transformer` workload at a given scale and
worker count, and records the final accuracies alongside the
wall-clock numbers — the attention counterpart of
``bench_parallel.py``.  Also asserts the workload's determinism
contract inline: one training step at ``workers=1`` must be
bit-identical to the same step at ``--workers``.

Run standalone for the JSON report::

    PYTHONPATH=src python benchmarks/bench_transformer.py
    PYTHONPATH=src python benchmarks/bench_transformer.py --scale tiny --workers 2 --json transformer.json

Like the sibling bench files, the pytest-benchmark variant (one
forward/backward step, reduced size) is collected only when the file
is passed explicitly::

    PYTHONPATH=src python -m pytest benchmarks/bench_transformer.py
"""

import argparse
import json
import os
import sys
import time

import numpy as np
import pytest

from _machine import machine_info

from repro.data import make_sequence_classification, sequence_loaders_for
from repro.emu import GemmConfig, QuantizedGemm, resolve_workers
from repro.experiments.transformer import (
    TRANSFORMER_SCALES,
    make_dataset,
    train_transformer_once,
)
from repro.models import TinyTransformer
from repro.nn import Trainer

SEED = 1


def _step_state(scale, rbits, workers):
    """Run one training step; returns the parameter state afterwards."""
    dataset = make_sequence_classification(
        scale.batch_size, 8, seq_len=scale.seq_len,
        vocab_size=scale.vocab_size, num_classes=scale.num_classes, seed=0)
    gemm = QuantizedGemm(GemmConfig.sr(rbits, seed=SEED), workers=workers)
    model = TinyTransformer(dataset.vocab_size, dataset.num_classes,
                            d_model=scale.d_model, n_heads=scale.n_heads,
                            depth=scale.depth, max_len=dataset.seq_len,
                            gemm=gemm, seed=SEED)
    trainer = Trainer(model, lr=scale.lr, epochs=1)
    trainer.train_batch(dataset.train_tokens, dataset.train_labels)
    return model.state_dict()

def run_benchmark(scale_name="tiny", workers=2, rbits=13):
    scale = TRANSFORMER_SCALES[scale_name]

    # The determinism contract only says something at workers > 1; at
    # workers=1 the comparison (and the pool-run section) would just
    # duplicate the serial run.
    if workers > 1:
        state1 = _step_state(scale, rbits, workers=1)
        state_n = _step_state(scale, rbits, workers=workers)
        assert all(np.array_equal(state1[k], state_n[k]) for k in state1), \
            "transformer step not bit-identical across worker counts"

    runs = [
        ("fp32_baseline", None, 1),
        (f"sr_r{rbits}_workers1", GemmConfig.sr(rbits, seed=SEED), 1),
    ]
    if workers > 1:
        runs.append((f"sr_r{rbits}_workers{workers}",
                     GemmConfig.sr(rbits, seed=SEED), workers))
    dataset = make_dataset(scale)
    sections = {}
    for label, config, n in runs:
        start = time.perf_counter()
        accuracy = train_transformer_once(dataset, scale, config, seed=SEED,
                                          workers=n)
        sections[label] = {
            "seconds": time.perf_counter() - start,
            "final_accuracy_percent": accuracy,
        }
    base = sections[f"sr_r{rbits}_workers1"]["seconds"]
    return {
        "benchmark": "transformer_workload",
        "machine": machine_info(),
        "scale": scale_name,
        "workers_resolved": workers,
        "rbits": rbits,
        "cpu_count": os.cpu_count(),
        "epochs": scale.epochs,
        "step_bit_identity_workers": [1, workers] if workers > 1 else None,
        "runs": sections,
        "speedup_vs_sr_workers1": {
            name: base / section["seconds"]
            for name, section in sections.items()
        },
    }


class TestTransformerStepWallClock:
    """One fwd/bwd training step wired into pytest-benchmark."""

    @pytest.fixture(scope="class")
    def setup(self):
        dataset = make_sequence_classification(32, 8, seq_len=8,
                                               vocab_size=8, num_classes=4,
                                               seed=0)
        gemm = QuantizedGemm(GemmConfig.sr(9, seed=SEED), workers=1)
        model = TinyTransformer(dataset.vocab_size, dataset.num_classes,
                                d_model=16, n_heads=2, depth=1,
                                max_len=dataset.seq_len, gemm=gemm, seed=SEED)
        trainer = Trainer(model, lr=0.05, epochs=1)
        return trainer, dataset

    def test_sr_train_step(self, benchmark, setup):
        trainer, dataset = setup
        benchmark(lambda: trainer.train_batch(dataset.train_tokens,
                                              dataset.train_labels))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny",
                        choices=sorted(TRANSFORMER_SCALES))
    parser.add_argument("--workers", default="2",
                        help="parallel worker count to benchmark")
    parser.add_argument("--rbits", type=int, default=13)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the JSON report to this file")
    args = parser.parse_args(argv)
    workers = resolve_workers(args.workers)
    report = run_benchmark(args.scale, workers, args.rbits)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    if workers > 1:
        sr_key = f"sr_r{args.rbits}_workers{workers}"
        print(f"\ntransformer/{args.scale}: SR speedup at "
              f"workers={workers}: "
              f"{report['speedup_vs_sr_workers1'][sr_key]:.2f}x "
              f"({os.cpu_count()} CPUs visible); step bit-identity across "
              f"workers verified", file=sys.stderr)
    else:
        base = report["runs"][f"sr_r{args.rbits}_workers1"]["seconds"]
        print(f"\ntransformer/{args.scale}: serial SR run {base:.1f}s "
              f"(workers=1: no pool section, no bit-identity comparison)",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

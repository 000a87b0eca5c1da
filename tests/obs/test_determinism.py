"""The observability contract: tracing cannot perturb a single bit.

Spans and counters never touch a PRNG, so enabling the tracer around
any workload must reproduce the untraced result *bitwise* — across the
SR datapath (several ``r``), RN, the tiled-parallel executor, and a
training step.  The disabled path must also be cheap enough to leave
permanently compiled into the hot loops; the microbenchmark here pins
a generous CI-safe budget (the honest numbers live in
``benchmarks/bench_obs.py`` / ``BENCH_obs.json``).
"""

import time

import numpy as np
import pytest

from repro.emu import GemmConfig, QuantizedGemm
from repro.emu.parallel import ParallelQuantizedGemm
from repro.fp.formats import FP12_E6M5
from repro.obs import tracing
from repro.obs import trace as trace_mod

CONFIGS = {
    "sr_r4": lambda: GemmConfig.sr(4, seed=3),
    "sr_r9": lambda: GemmConfig.sr(9, seed=3),
    "sr_r13": lambda: GemmConfig.sr(13, seed=3),
    "rn_e6m5": lambda: GemmConfig.rn(FP12_E6M5),
}


def _operands(seed=0, m=12, k=16, n=10):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((m, k)), rng.standard_normal((k, n)))


class TestGemmBitwise:
    @pytest.mark.parametrize("key", sorted(CONFIGS))
    def test_traced_equals_untraced_serial(self, key):
        a, b = _operands()
        plain = QuantizedGemm(CONFIGS[key]())(a, b)
        with tracing() as rec:
            traced = QuantizedGemm(CONFIGS[key]())(a, b)
        assert traced.tobytes() == plain.tobytes()
        assert any(e["name"] == "emu/gemm" for e in rec.events())

    @pytest.mark.parametrize("key", ["sr_r9", "rn_e6m5"])
    def test_traced_equals_untraced_parallel(self, key):
        a, b = _operands(m=70)   # > BLOCK_ROWS: several tiles
        plain = ParallelQuantizedGemm(CONFIGS[key](), workers=2)(a, b)
        with tracing() as rec:
            traced = ParallelQuantizedGemm(CONFIGS[key](),
                                           workers=2)(a, b)
        assert traced.tobytes() == plain.tobytes()
        (event,) = [e for e in rec.events() if e["name"] == "emu/gemm"]
        assert event["args"]["tiles"] >= 2

    def test_counters_match_traced_and_untraced(self):
        a, b = _operands()
        plain_gemm = QuantizedGemm(CONFIGS["sr_r9"]())
        plain_gemm(a, b)
        with tracing():
            traced_gemm = QuantizedGemm(CONFIGS["sr_r9"]())
            traced_gemm(a, b)
        assert plain_gemm.metrics.snapshot()["counters"] == \
            traced_gemm.metrics.snapshot()["counters"]


class TestTrainerBitwise:
    def _train(self):
        from repro.data import loaders_for, make_cifar10_like
        from repro.models import MLP
        from repro.nn import Trainer

        dataset = make_cifar10_like(48, 16, 8, seed=0)
        gemm = QuantizedGemm(GemmConfig.sr(9, seed=3))
        channels, height, width = dataset.image_shape
        model = MLP(channels * height * width, [16, 8],
                    dataset.num_classes, gemm=gemm, seed=1)
        train_loader, _ = loaders_for(dataset, batch_size=16, seed=0)
        trainer = Trainer(model, lr=0.05, epochs=1, weight_decay=1e-4)
        for images, labels in train_loader():
            trainer.train_batch(images, labels)
        return [p.data.tobytes() for p in model.parameters()]

    def test_traced_training_step_is_bitwise_identical(self):
        plain = self._train()
        with tracing() as rec:
            traced = self._train()
        assert traced == plain
        names = {e["name"] for e in rec.events()}
        assert {"train/step", "train/forward",
                "train/backward", "train/update"} <= names


class TestDisabledOverhead:
    #: CI-safe per-hook budget for the *disabled* path (the honest
    #: number is ~tens of ns; see BENCH_obs.json).
    BUDGET_US = 5.0

    def test_disabled_guard_overhead_is_negligible(self):
        assert trace_mod.active is False
        iterations = 200_000

        def hooked():
            cm = trace_mod.span("bench/hook") if trace_mod.active \
                else trace_mod.NULL
            with cm:
                pass

        # warm up, then take the best of a few runs to shed scheduler
        # noise — this is an upper bound, not a benchmark
        best = float("inf")
        for _ in range(3):
            start = time.monotonic()
            for _ in range(iterations):
                hooked()
            best = min(best, time.monotonic() - start)
        per_call_us = 1e6 * best / iterations
        assert per_call_us < self.BUDGET_US, \
            f"disabled tracing hook costs {per_call_us:.3f}us/call"

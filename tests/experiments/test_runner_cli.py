"""CLI runner tests (fast experiments only)."""

import pytest

from repro.experiments.runner import ALL, main, run_experiment


class TestRunnerCli:
    def test_hardware_experiments_via_main(self, capsys):
        assert main(["table2", "table5"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Table V" in out
        assert "(paper)" in out

    def test_fig5_and_validation(self, capsys):
        run_experiment("fig5", "tiny")
        run_experiment("validation", "tiny")
        out = capsys.readouterr().out
        assert "area_um2" in out
        assert "PASS" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(SystemExit):
            run_experiment("table9", "tiny")

    def test_all_list_covers_every_artifact(self):
        assert set(ALL) == {"table1", "table2", "table3", "table4",
                            "table5", "fig5", "validation", "transformer"}

    def test_table1_headline_output(self, capsys):
        run_experiment("table1", "tiny")
        out = capsys.readouterr().out
        assert "headline savings" in out
        assert "vs_fp32" in out

    def test_workers_flag_accepted(self, capsys):
        """--workers parses and flows through (hardware tables ignore it)."""
        assert main(["table5", "--workers", "2"]) == 0
        assert "Table V" in capsys.readouterr().out

    def test_workers_flag_rejects_nonpositive(self):
        with pytest.raises(SystemExit):
            main(["table5", "--workers", "0"])


class TestTransformerExperiment:
    def test_runner_emits_accuracy_table(self, capsys, monkeypatch):
        """The full runner path at a micro scale (tier-1-friendly)."""
        from repro.experiments import transformer as tx

        micro = tx.TransformerScale("tiny", 32, 16, 8, 8, 4, 1, 32,
                                    d_model=16, n_heads=2, depth=1,
                                    lr=0.05, weight_decay=1e-4)
        monkeypatch.setitem(tx.TRANSFORMER_SCALES, "tiny", micro)
        monkeypatch.setattr(tx, "TRANSFORMER_ROWS",
                            [("FP32 Baseline", "baseline", None),
                             ("SR W/ Sub", "sr", 9)])
        run_experiment("transformer", "tiny", workers=2)
        out = capsys.readouterr().out
        assert "accuracy vs r" in out
        assert "FP32 Baseline" in out
        assert "vs FP32" in out

    def test_build_transformer_gemm_always_parallel(self):
        """The transformer runner builds its GEMM with the shared
        ``build_gemm``: workers=1 still selects the tiled executor — the
        draw order the workload's bit-identity acceptance relies on."""
        from repro.emu import GemmConfig, QuantizedGemm
        from repro.experiments import training
        from repro.experiments import transformer as tx

        assert tx.build_gemm is training.build_gemm
        assert tx.build_gemm(None) is None
        gemm = tx.build_gemm(GemmConfig.sr(9), workers=1)
        assert isinstance(gemm, QuantizedGemm)
        assert gemm.scheduler.workers == 1


class TestParallelTraining:
    def test_build_gemm_selects_executor(self):
        from repro.emu import GemmConfig, ParallelQuantizedGemm, QuantizedGemm
        from repro.experiments.training import build_gemm

        assert build_gemm(None) is None
        assert ParallelQuantizedGemm is QuantizedGemm
        for workers in (1, 2):
            gemm = build_gemm(GemmConfig.sr(9), workers=workers)
            assert isinstance(gemm, QuantizedGemm)
            assert gemm.scheduler.workers == workers

    def test_train_once_with_workers(self):
        """A short training run through the tiled-parallel executor."""
        from repro.data import make_cifar10_like
        from repro.emu import GemmConfig
        from repro.experiments.training import TrainingScale, train_once

        scale = TrainingScale("testing", 64, 32, 8, 1, 32, "mlp", 16,
                              lr=0.05, weight_decay=1e-4)
        dataset = make_cifar10_like(64, 32, 8, seed=0)
        accuracy = train_once(dataset, scale, GemmConfig.sr(9, seed=1),
                              seed=1, workers=2)
        assert 0.0 <= accuracy <= 100.0

    def test_workers_do_not_change_logits(self):
        """``workers`` is the executor's whole schedule and moves no
        bit: a full model forward through ``build_gemm`` agrees exactly."""
        import numpy as np

        from repro.data import make_cifar10_like
        from repro.emu import GemmConfig
        from repro.experiments.training import (TrainingScale, build_gemm,
                                                build_model)

        scale = TrainingScale("testing", 64, 32, 8, 1, 32, "mlp", 16,
                              lr=0.05, weight_decay=1e-4)
        dataset = make_cifar10_like(64, 32, 8, seed=0)

        def logits(workers):
            gemm = build_gemm(GemmConfig.sr(9, seed=1), workers)
            model = build_model(scale, dataset, gemm, seed=1)
            return model.forward(dataset.test_images[:4])

        assert np.array_equal(logits(1), logits(2))

    def test_workers_do_not_change_training(self):
        """A short ``train_once`` run reaches the same accuracy at
        workers 1 and 2."""
        from repro.data import make_cifar10_like
        from repro.emu import GemmConfig
        from repro.experiments.training import TrainingScale, train_once

        scale = TrainingScale("testing", 48, 24, 8, 1, 32, "mlp", 16,
                              lr=0.05, weight_decay=1e-4)
        dataset = make_cifar10_like(48, 24, 8, seed=0)
        accuracies = [train_once(dataset, scale, GemmConfig.sr(9, seed=1),
                                 seed=1, workers=workers)
                      for workers in (1, 2)]
        assert accuracies[0] == accuracies[1]

"""Tests of the SR-MAC benchmark itself.

Run from the repository root::

    python3 -m pytest srbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

if not run._bootstrap():
    pytest.skip("the program is not importable", allow_module_level=True)

import layers  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from repro import obs  # noqa: E402
from repro.emu import GemmConfig, ParallelQuantizedGemm  # noqa: E402
from repro.emu import engine as emu_engine  # noqa: E402
from repro.models import SimpleCNN  # noqa: E402

RUN = os.path.join(BENCH, "run.py")


def _run(*args, cwd=ROOT, timeout=240):
    done = subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)
    return done


def _result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def _event(name, ts, dur, tid=1):
    return {"name": name, "ts_us": float(ts), "dur_us": float(dur),
            "tid": tid, "args": {}}


def test_self_time_of_a_hand_built_span_tree():
    events = [
        _event("a", 0, 100),           # children b, c
        _event("b", 10, 30),
        _event("c", 50, 40),           # child d
        _event("d", 60, 10),
        _event("e", 0, 50, tid=2),     # another thread: not a child of a
        _event("f", 100, 5),           # starts as a ends: a sibling
    ]
    self_us, parent = layers.self_times(events)
    assert self_us == [30.0, 30.0, 30.0, 10.0, 50.0, 5.0]
    assert parent == [-1, 0, 0, 2, -1, -1]


def test_tally_attributes_draws_to_the_enclosing_engine_call():
    events = [
        _event("emu/engine.gemm", 0, 100),
        _event("prng/bulk_draws", 10, 20),
        _event("emu/engine.reduce", 200, 50),
        _event("prng/bulk_draws", 210, 10),
    ]
    events[1]["args"]["n"] = 64
    events[3]["args"]["n"] = 8
    tally = layers.LayerTally()
    tally.add(events)
    assert tally.gemm_draws == 64
    assert tally.n["prng/bulk_draws"] == 72
    assert tally.self_s["emu/engine.gemm"] == pytest.approx(80e-6)
    assert tally.total_s["emu/engine.reduce"] == pytest.approx(50e-6)


def test_samples_per_s_is_a_median():
    one = workloads.Phase(durations=[1.0, 2.0, 8.0], sizes=[4, 4, 4])
    assert one.samples_per_s(concurrent=False) == 2.0
    # three load segments: the second ran at a quarter of the others
    pool = workloads.Phase(rates=[128.0, 32.0, 120.0])
    assert pool.samples_per_s(concurrent=True) == 120.0


def test_speed_probe_scales_each_time_by_the_reference_just_taken():
    probe = workloads.SpeedProbe()
    assert probe.reference() > 0.0
    ref = workloads.REFERENCE_S
    times = iter([ref, 2 * ref, 0.5 * ref])
    probe.reference = lambda: next(times)
    assert [probe.scale() for _ in range(3)] == [1.0, 0.5, 2.0]
    assert probe.scales == [1.0, 0.5, 2.0]


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _class_state():
    owners = [emu_engine.SequentialEngine, layers._parallel.TileScheduler,
              layers._parallel.ParallelQuantizedGemm,
              layers._streams.SoftwareStream, emu_engine]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_wrappers_are_restored_and_bit_neutral():
    before = _class_state()
    x = np.random.default_rng(5).normal(size=(4, 3, 8, 8))

    def forward():
        gemm = ParallelQuantizedGemm(GemmConfig.sr(13, seed=2), workers=1)
        model = SimpleCNN(10, 3, 4, gemm=gemm, seed=2)
        return model, model(x)

    _, plain = forward()
    with layers.Instrumentation() as inst:
        model, traced = forward()
        inst.wrap_model(model)
        assert "forward" in vars(model.head)
        model(x)
        names = {event["name"] for event in inst.drain()}
    assert {"prng/bulk_draws", "prng/spawn", "fp/quantize",
            "emu/engine.gemm", "emu/sched.run", "emu/pgemm.gemm_rows",
            "nn/patch_rows", "nn/model.forward",
            "nn/features.layers.0.forward"} <= names
    assert np.array_equal(plain, traced)
    assert inst.restored()
    assert not obs.trace.active
    assert "forward" not in vars(model.head)
    for owner, state in before:
        assert dict(vars(owner)) == state


def test_module_metrics_cover_both_models_modules():
    cnn = workloads.TrainCNN("train_cnn").build(0).model
    transformer = workloads.TrainTransformer("train_transformer").build(0)
    paths = [p for model in (cnn, transformer.model)
             for p, _ in layers.named_modules(model)]
    expected = {(path, method) for path in paths
                for method in ("forward", "backward")}
    assert {(path, method) for _, path, method
            in spec.module_metrics()} == expected


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", spec.workload_names())
def test_minimal_run_of_each_workload(name):
    done = _run("--workload", name, "--seed", "1", "--seconds", "0")
    assert done.returncode == 0, done.stderr
    result = _result(done)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= spec.GATE_OPS[name] + 1
    metrics = result["metrics"]
    assert list(metrics) == list(spec.units("end_to_end"))
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_traced_run_reports_every_layer_metric():
    done = _run("--workload", "serve_batch", "--seconds", "0",
                "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = _result(done)
    assert result["correct"]
    assert list(result["metrics"]) == list(spec.units("per_layer"))
    assert result["metrics"]["serve.engine_calls_per_sample"]["value"] > 0


def test_wrong_pinned_digest_fails_every_operation():
    done = _run("--workload", "serve_batch", "--seconds", "0",
                "--expect-digest", "0" * 64)
    assert done.returncode == 0, done.stderr
    result = _result(done)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert "failed_frac 1 " in done.stdout


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "srbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "srbench/run.py", "--workload", "train_cnn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout.strip() == ""

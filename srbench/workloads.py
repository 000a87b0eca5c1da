"""The four workloads and the run that measures one of them.

Each run sets its workload up several times (at least
:data:`SETUP_REPEATS`, and for at least :data:`SETUP_SECONDS`; the
median is ``setup_s``), runs the output-bit gate on the default-seed inputs
(which doubles as the warm-up), then measures operations on inputs made
from ``--seed`` for ``--seconds``:

* untraced (``--trace 0``): one phase, the end-to-end metrics;
* traced (``--trace 1``): the gate again under tracing (its digest must
  still match), a traced phase for the per-layer metrics, then an
  untraced phase with every wrapper removed, whose throughput against
  the traced phase's is ``trace.overhead_frac``.

End-to-end times are in seconds of the reference machine: right before
each timed set-up, operation or load segment a :class:`SpeedProbe`
measures how fast the shared host runs, and the time is scaled by it.

Every operation is checked as it completes: training losses must be
finite, serving logits finite, and an input served a second time must
get the bits it got the first time (from another batch position in
``serve_batch``, from the response cache in ``serve_pool``).  A gate
digest that differs from the pinned one fails every operation of the
run.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Callable, List, Optional

import numpy as np

from repro.data import loaders_for, make_cifar10_like
from repro.data.sequences import (
    make_sequence_classification,
    sequence_loaders_for,
)
from repro.emu import GemmConfig, ParallelQuantizedGemm
from repro.experiments.training import SCALES
from repro.experiments.transformer import TRANSFORMER_SCALES
from repro.models import SimpleCNN, simple_cnn_spec
from repro.models.transformer import TinyTransformer
from repro.nn import Trainer, save_checkpoint
from repro.obs import percentile
from repro.serve import InferenceSession, ReplicaPool

import layers
import spec

#: Set-ups per run: at least this many, and until ``SETUP_SECONDS``
#: of set-up phase have passed; ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.5

#: Serving datapath and model: a frozen SimpleCNN(width=8) at r=9.
SERVE_RBITS = 9
SERVE_SR_SEED = 3
SERVE_MODEL_SEED = 1
SERVE_BATCH = 32
IMAGE_SHAPE = (3, 8, 8)

#: Training datapath: FP8 E5M2 products, FP12 E6M5 accumulator, r=13.
TRAIN_RBITS = 13

#: TinyTransformer batch: a quarter of the ``small`` scale's 64, so a
#: run fits about 15 steps (not 5) and its median step is steadier.  A
#: step still makes about a thousand tiny per-head engine calls.
TRANSFORMER_BATCH = 16


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: Seconds one :meth:`SpeedProbe.reference` takes on the machine the
#: benchmark was tuned on (a 2-vCPU x86_64 virtual machine) at the speed
#: it runs most of the time.
REFERENCE_S = 0.008

#: Clears the low 47 bits of a float64: keeps 5 mantissa bits.
_KEEP = np.int64(~((1 << 47) - 1))


class SpeedProbe:
    """How fast the shared host runs now, timed on a fixed computation.

    The host the benchmark runs on is shared, and its CPU speed swings
    by up to 2x from one second to the next: in raw seconds, the median
    step time of two runs of the same code differs by more than any
    regression bound.  :meth:`reference` is a fixed computation with
    the emulator's mix of work (multiply, add, random rounding by int64
    bit operations and PCG64 draws over 16K-element blocks, then a run
    of small numpy calls), written with numpy alone, so no change to the
    program moves it.  :meth:`scale` times it once, right before the
    operation it scales, because the swings are too short for an
    average over earlier timings to follow; an interrupted reference
    mis-scales only its own operation, which the medians drop.  A host
    time multiplied by :meth:`scale` is in seconds of the reference
    machine.
    """

    #: Multiply-add-round steps and small calls in one reference.
    STEPS = 48
    CALLS = 400

    def __init__(self):
        rng = np.random.default_rng(1)
        self._rng = rng
        self._a = rng.normal(size=(32, 512))
        self._b = rng.normal(size=512)
        self._acc = np.zeros_like(self._a)
        self._work = np.empty_like(self._a)
        self._w = rng.normal(size=(8, 8))
        self._x = rng.normal(size=(4, 8))
        #: Every :meth:`scale` so far, for the report's ``host_speed``.
        self.scales: List[float] = []

    def reference(self) -> float:
        """Seconds the fixed computation takes now."""
        work = self._work
        bits = work.view(np.int64)
        start = time.monotonic()
        for _ in range(self.STEPS):
            np.multiply(self._a, self._b, out=work)
            np.add(self._acc, work, out=work)
            draws = self._rng.integers(0, 1 << 13, size=work.shape)
            np.left_shift(draws, 34, out=draws)
            np.add(bits, draws, out=bits)
            np.bitwise_and(bits, _KEEP, out=bits)
            np.multiply(work, 0.5, out=self._acc)
        x = self._x
        for _ in range(self.CALLS):
            x = np.tanh(x @ self._w * 0.5)
        return time.monotonic() - start

    def scale(self) -> float:
        """Reference-machine seconds per host second, now."""
        self.scales.append(REFERENCE_S / self.reference())
        return self.scales[-1]


@dataclass
class Phase:
    """What one measured phase ran and how long each operation took."""

    #: Per successful operation: reference seconds taken, samples.
    durations: List[float] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)
    #: Concurrent clients: samples per reference second, per segment.
    rates: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def merge(self, other: "Phase") -> None:
        self.durations.extend(other.durations)
        self.sizes.extend(other.sizes)
        self.rates.extend(other.rates)
        self.attempted += other.attempted
        self.failed += other.failed

    def done(self, took: float, samples: int) -> None:
        self.durations.append(took)
        self.sizes.append(samples)

    @property
    def samples(self) -> int:
        return sum(self.sizes)

    def samples_per_s(self, concurrent: bool) -> float:
        """Median throughput, so a stretch the probe scales badly moves
        it only if it covers half the phase.

        One client: the median over operations of samples over seconds.
        Concurrent clients: the median over load segments of samples
        completed over the segment's seconds.
        """
        values = self.rates if concurrent else [
            n / took for n, took in zip(self.sizes, self.durations)]
        return statistics.median(values) if values else 0.0


def run_ops(prepare: Callable, execute: Callable, check: Callable,
            seconds: float, probe: SpeedProbe,
            after_op: Optional[Callable] = None) -> Phase:
    """Time ``execute(prepare())`` until ``seconds`` pass (at least once).

    ``prepare`` returns ``(input, samples)``; only ``execute`` is timed,
    and its time is scaled by ``probe``.  ``check(input, output)`` is
    the operation's bit check.  A raising operation counts as failed and
    the measurement goes on.
    """
    phase = Phase()
    deadline = time.monotonic() + seconds
    while phase.attempted == 0 or time.monotonic() < deadline:
        inp, samples = prepare()
        phase.attempted += 1
        scale = probe.scale()
        start = time.monotonic()
        try:
            out = execute(inp)
        # reprolint: disable=HYG-EXCEPT  any exception an operation
        # raises is that operation's failure: it is counted in failed
        # and the run goes on measuring the rest
        except Exception:
            phase.failed += 1
            continue
        took = time.monotonic() - start
        if check(inp, out):
            phase.done(took * scale, samples)
        else:
            phase.failed += 1
        if after_op is not None:
            after_op()
    return phase


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, np.float64).tobytes())
    return digest.hexdigest()


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, np.float64))))


def gate_inputs(count: int = SERVE_BATCH) -> List[np.ndarray]:
    """The serving gate's default-seed request inputs."""
    rng = np.random.default_rng([spec.DEFAULT_SEED, 0])
    return [rng.normal(size=IMAGE_SHAPE) for _ in range(count)]


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------
@dataclass
class TrainState:
    trainer: Trainer
    gemm: ParallelQuantizedGemm
    batches: object
    batch_size: int

    @property
    def model(self):
        return self.trainer.model

    def sr_rounds(self) -> int:
        return self.gemm.metrics.counter(
            "gemm_sr_rounds_total",
            engine=self.gemm.config.accum_order).value


def _endless(loader):
    """Batches of ``loader`` epoch after epoch (reshuffled each time)."""
    return itertools.chain.from_iterable(
        map(lambda _: loader(), itertools.count()))


class TrainWorkload:
    """``Trainer.train_batch`` steps on the tiled executor, workers=1."""

    children = False
    concurrent = False

    def __init__(self, name: str):
        self.name = name

    def build(self, seed: int) -> TrainState:
        raise NotImplementedError

    def setup(self, seed: int) -> TrainState:
        return self.build(seed)

    def close(self, state) -> None:
        pass

    def gate(self, state, adopt=None) -> str:
        """Fresh default-seed model, ``GATE_OPS`` steps: digest of the
        losses then every parameter, in ``named_parameters`` order."""
        fresh = self.build(spec.DEFAULT_SEED)
        if adopt is not None:
            adopt(fresh.model)
        losses = [fresh.trainer.train_batch(*next(fresh.batches))
                  for _ in range(spec.GATE_OPS[self.name])]
        return _digest([losses] + [param.data for _, param
                                   in fresh.model.named_parameters()])

    def instrument(self, state: TrainState, inst) -> None:
        inst.wrap_model(state.model)

    def measure(self, state: TrainState, seconds: float, probe: SpeedProbe,
                after_op=None) -> Phase:
        def prepare():
            return next(state.batches), state.batch_size

        return run_ops(prepare,
                       lambda batch: state.trainer.train_batch(*batch),
                       lambda batch, loss: _finite(loss),
                       seconds, probe, after_op)

    def counters(self, state: TrainState) -> dict:
        return {"sr_rounds": state.sr_rounds()}


class TrainCNN(TrainWorkload):
    """SimpleCNN(width=8) on the ``small`` preset's 3x8x8 images."""

    def build(self, seed: int) -> TrainState:
        scale = SCALES["small"]
        data = make_cifar10_like(scale.n_train, scale.n_test,
                                 scale.image_size, seed=seed)
        gemm = ParallelQuantizedGemm(GemmConfig.sr(TRAIN_RBITS, seed=seed),
                                     workers=1)
        model = SimpleCNN(data.num_classes, data.image_shape[0],
                          scale.width, gemm=gemm, seed=seed)
        trainer = Trainer(model, lr=scale.lr, epochs=scale.epochs,
                          weight_decay=scale.weight_decay)
        loader, _ = loaders_for(data, batch_size=scale.batch_size,
                                seed=seed)
        return TrainState(trainer, gemm, _endless(loader), scale.batch_size)


class TrainTransformer(TrainWorkload):
    """TinyTransformer at the ``small`` scale (d 64, 8 heads, T=24),
    batch :data:`TRANSFORMER_BATCH`."""

    def build(self, seed: int) -> TrainState:
        scale = TRANSFORMER_SCALES["small"]
        data = make_sequence_classification(
            scale.n_train, scale.n_test, seq_len=scale.seq_len,
            vocab_size=scale.vocab_size, num_classes=scale.num_classes,
            bias=0.25, corrupt=0.15, seed=seed)
        gemm = ParallelQuantizedGemm(GemmConfig.sr(TRAIN_RBITS, seed=seed),
                                     workers=1)
        model = TinyTransformer(data.vocab_size, data.num_classes,
                                d_model=scale.d_model, n_heads=scale.n_heads,
                                depth=scale.depth, max_len=data.seq_len,
                                gemm=gemm, seed=seed)
        trainer = Trainer(model, lr=scale.lr, epochs=scale.epochs,
                          weight_decay=scale.weight_decay)
        loader, _ = sequence_loaders_for(data, batch_size=TRANSFORMER_BATCH,
                                         seed=seed)
        return TrainState(trainer, gemm, _endless(loader), TRANSFORMER_BATCH)


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def serve_model() -> SimpleCNN:
    return SimpleCNN(10, IMAGE_SHAPE[0], 8, seed=SERVE_MODEL_SEED)


def serve_config() -> GemmConfig:
    return GemmConfig.sr(SERVE_RBITS, seed=SERVE_SR_SEED)


class ServeBatch:
    """One thread calling ``InferenceSession.predict_batch`` on 32.

    Slot 0 of every batch after the first repeats the previous batch's
    last input, whose logits must come back bit for bit: the session's
    batch-composition invariance, checked on every operation.
    """

    name = "serve_batch"
    children = False
    concurrent = False

    def setup(self, seed: int) -> dict:
        session = InferenceSession(serve_model(), serve_config())
        return {"session": session,
                "rng": np.random.default_rng([seed, 1]),
                "previous": None}

    def close(self, state) -> None:
        pass

    def gate(self, state, adopt=None) -> str:
        return _digest(state["session"].predict_batch(gate_inputs()))

    def instrument(self, state, inst) -> None:
        inst.wrap_model(state["session"].model)

    def measure(self, state, seconds: float, probe: SpeedProbe,
                after_op=None) -> Phase:
        rng = state["rng"]

        def prepare():
            inputs = [rng.normal(size=IMAGE_SHAPE)
                      for _ in range(SERVE_BATCH)]
            expect = None
            if state["previous"] is not None:
                inputs[0], expect = state["previous"]
            return (inputs, expect), SERVE_BATCH

        def check(inp, out):
            inputs, expect = inp
            state["previous"] = (inputs[-1], out[-1])
            return _finite(out) and (
                expect is None or out[0].tobytes() == expect.tobytes())

        return run_ops(prepare,
                       lambda inp: state["session"].predict_batch(inp[0]),
                       check, seconds, probe, after_op)

    def counters(self, state) -> dict:
        return {}


class ServePool:
    """``ReplicaPool(replicas=2)`` with the CLI defaults, 2 clients.

    Each closed-loop client sends fresh inputs, except that its request
    ``j`` with ``j % 4 == 3`` repeats its request ``j - 2``, whose
    answer has returned: the owning replica must answer from its cache
    (``cached``) with the same bits.  The clients load the pool in
    segments of :attr:`segment_s`; the speed probe runs between two,
    while the pool is idle, so it times the host and not the load.
    """

    name = "serve_pool"
    children = True
    concurrent = True
    clients = 2
    segment_s = 1.0

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.checkpoint = os.path.join(workdir, "serve_cnn.npz")
        model = serve_model()
        save_checkpoint(model, self.checkpoint,
                        model_spec=simple_cnn_spec(
                            num_classes=10, in_channels=IMAGE_SHAPE[0],
                            width=8, image_size=IMAGE_SHAPE[1],
                            seed=SERVE_MODEL_SEED),
                        gemm_config=serve_config())

    def setup(self, seed: int) -> dict:
        pool = ReplicaPool(self.checkpoint, replicas=2,
                           request_timeout=30.0, ready_timeout=60.0)
        clients = [{"rng": np.random.default_rng([seed, 2, c]),
                    "history": []} for c in range(self.clients)]
        return {"pool": pool, "clients": clients}

    def close(self, state) -> None:
        if state is not None:
            state["pool"].close()

    def gate(self, state, adopt=None) -> str:
        pool = state["pool"]
        return _digest([pool.predict_json({"input": x})["logits"]
                        for x in gate_inputs()])

    def instrument(self, state, inst) -> None:
        pass

    def _client(self, pool, client: dict, deadline: float, scale: float,
                out: Phase) -> None:
        rng, history = client["rng"], client["history"]
        while out.attempted == 0 or time.monotonic() < deadline:
            j = len(history)
            expect = None
            if j % 4 == 3:
                x, expect = history[j - 2]
            else:
                x = rng.normal(size=IMAGE_SHAPE)
            out.attempted += 1
            sent = time.monotonic()
            try:
                body = pool.predict_json({"input": x})
            # reprolint: disable=HYG-EXCEPT  a request that raises
            # (replica error, timeout) is that request's failure: it is
            # counted and the client goes on
            except Exception:
                out.failed += 1
                history.append((x, None))
                continue
            took = time.monotonic() - sent
            logits = np.asarray(body["logits"], np.float64)
            history.append((x, logits.tobytes()))
            ok = _finite(logits) and (
                expect is None
                or (body["cached"] and logits.tobytes() == expect))
            if ok:
                out.done(took * scale, 1)
            else:
                out.failed += 1

    def _segment(self, state, scale: float) -> Phase:
        """Every client for :attr:`segment_s`; the segment's rate."""
        deadline = time.monotonic() + self.segment_s
        results = [Phase() for _ in state["clients"]]
        threads = [threading.Thread(
            target=self._client,
            args=(state["pool"], client, deadline, scale, result),
            name=f"srbench-client-{c}")
            for c, (client, result) in enumerate(zip(state["clients"],
                                                     results))]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=self.segment_s + 120.0)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        elapsed = time.monotonic() - start
        segment = Phase()
        for result in results:
            segment.merge(result)
        segment.rates.append(segment.samples / (elapsed * scale))
        return segment

    def measure(self, state, seconds: float, probe: SpeedProbe,
                after_op=None) -> Phase:
        phase = Phase()
        deadline = time.monotonic() + seconds
        while not phase.rates or time.monotonic() < deadline:
            phase.merge(self._segment(state, probe.scale()))
        return phase

    def counters(self, state) -> dict:
        return layers.pool_counters(state["pool"].metrics_snapshot())


def make(name: str, workdir: str):
    if name == "train_cnn":
        return TrainCNN(name)
    if name == "train_transformer":
        return TrainTransformer(name)
    if name == "serve_batch":
        return ServeBatch()
    if name == "serve_pool":
        return ServePool(workdir)
    raise ValueError(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, plus the largest reaped child's."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def end_to_end(phase: Phase, concurrent: bool, setups: List[float],
               peak: float) -> dict:
    p50 = statistics.median(phase.durations) if phase.durations else 0.0
    return {
        "setup_s": statistics.median(setups),
        "samples_per_s": phase.samples_per_s(concurrent),
        "step_ms_p50": 1e3 * p50,
        "peak_rss_mb": peak,
    }


def tail(phase: Phase) -> Optional[dict]:
    """The highest of p99/p90 with at least ten operations beyond it.

    Printed in the report, with its sample count, but not a metric: a
    training run fits too few steps for any tail to have ten beyond it.
    """
    durations = sorted(phase.durations)
    for q in (0.99, 0.9):
        if len(durations) * (1.0 - q) >= 10:
            return {"percentile": q, "ms": 1e3 * percentile(durations, q),
                    "ops": len(durations)}
    return None


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, if started."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run(name: str, seed: int, seconds: float, trace: bool, workdir: str,
        expected: Optional[str] = None) -> dict:
    """Measure one workload; returns the run's full report."""
    expected = spec.PINNED[name] if expected is None else expected
    workload = make(name, workdir)
    probe = SpeedProbe()
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "expected_digest": expected}
    setups: List[float] = []
    state = None
    try:
        began = time.monotonic()
        while (len(setups) < SETUP_REPEATS
               or time.monotonic() - began < SETUP_SECONDS):
            workload.close(state)
            state = None
            # the last set-up's garbage is freed outside the timing, so
            # neither setup_s nor peak_rss_mb depends on when gc runs
            gc.collect()
            scale = probe.scale()
            start = time.monotonic()
            state = workload.setup(seed)
            setups.append((time.monotonic() - start) * scale)
        digests = [workload.gate(state)]
        gate_ops = spec.GATE_OPS[name]
        if not trace:
            phase = workload.measure(state, seconds, probe)
        else:
            with layers.Instrumentation() as inst:
                workload.instrument(state, inst)
                digests.append(workload.gate(state, adopt=inst.wrap_model))
                inst.drain()
                before = workload.counters(state)
                tally = layers.LayerTally()
                phase = workload.measure(
                    state, seconds / 2, probe,
                    after_op=None if workload.children
                    else lambda: tally.add(inst.drain()))
                tally.add(inst.drain())
                after = workload.counters(state)
            report["wrappers_restored"] = inst.restored()
            untraced = workload.measure(state, seconds / 2, probe)
            traced_sps = phase.samples_per_s(workload.concurrent)
            overhead = untraced.samples_per_s(workload.concurrent) \
                / traced_sps - 1.0 \
                if traced_sps else 0.0
            delta = layers.pool_delta(before, after) \
                if workload.children else None
            report["layers"] = layers.layer_metrics(
                tally, len(phase.durations), phase.samples, delta,
                overhead)
            if "sr_rounds" in before:
                rounds = after["sr_rounds"] - before["sr_rounds"]
                report["draw_check"] = {"gemm_sr_rounds_total": rounds,
                                        "draws_in_engine_gemm":
                                            tally.gemm_draws,
                                        "ok": rounds == tally.gemm_draws}
            phase.merge(untraced)
    finally:
        workload.close(state)
        if workload.children:
            _stop_resource_tracker()
    report["digests"] = digests
    attempted = phase.attempted + gate_ops * len(digests)
    failed = phase.failed
    if any(digest != expected for digest in digests):
        failed = attempted
    sound = report.get("wrappers_restored", True) and \
        report.get("draw_check", {}).get("ok", True)
    report.update(attempted=attempted, failed=failed,
                  failed_frac=failed / attempted,
                  correct=failed == 0 and sound)
    if not trace:
        report["end_to_end"] = end_to_end(
            phase, workload.concurrent, setups,
            peak_rss_mb(workload.children))
        report["tail_latency"] = tail(phase)
    # below 1: the host ran slower than the reference machine
    report["host_speed"] = statistics.median(probe.scales)
    report["setups"] = len(setups)
    report["ops"] = len(phase.durations)
    return report

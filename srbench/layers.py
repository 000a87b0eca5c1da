"""Per-layer attribution: span wrappers, self time, per-layer metrics.

The program's own spans stop at a few phase boundaries, so the traced
run records the rest from here: :class:`Instrumentation` wraps the
public functions of each layer (SR draws, substream spawns, the operand
cast, the accumulation engines, the tile scheduler, the GEMM entry
points, im2col rows, every module instance's ``forward`` and
``backward``, the serving session and pool) in
:func:`repro.obs.trace.span` calls while tracing is on, and puts every
original back afterwards, so an untraced run in the same process
measures the unmodified program.

Wrappers forward ``*args, **kwargs`` untouched and only read the
result's size (and an operand's shape for engine MACs), so tracing can
neither reorder nor consume a random draw.  Counts ride on the span as
an ``n`` attribute, which keeps the record path lock-free (spans go to
per-thread buffers).

Self time is a span's duration minus the time its direct children
cover (:func:`self_times`); :class:`LayerTally` folds drained spans
into per-name totals and :func:`layer_metrics` turns them into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.emu import engine as _engine
from repro.emu import parallel as _parallel
from repro.nn import functional as _functional
from repro.obs import trace as _trace
from repro.prng import streams as _streams
from repro.serve import pool as _pool
from repro.serve import session as _session

import spec

#: Per-thread span capacity while tracing; single-threaded workloads
#: drain after every operation, so this bounds one operation's spans.
CAPACITY = 1 << 20


def _size(args, out) -> int:
    return int(getattr(out, "size", 0))


def _engine_macs(args, out) -> int:
    # gemm(self, a, b, config): (B, M, N) outputs, K products each
    return int(out.size) * int(args[1].shape[-1]) if len(args) > 1 else 0


def _terms(args, out) -> int:
    # reduce(self, terms, config): one add per term element
    return int(args[1].size) if len(args) > 1 else 0


def _tasks(args, out) -> int:
    # run(self, tasks, config, ...): one substream per task
    return len(args[1]) if len(args) > 1 else 0


def spanned(fn: Callable, name: str,
            count: Optional[Callable] = None) -> Callable:
    """``fn`` inside a ``name`` span; ``count(args, result)`` -> ``n``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with _trace.span(name) as live:
            out = fn(*args, **kwargs)
            if live is not None and count is not None:
                live.set(n=count(args, out))
        return out

    wrapper.__srbench_wrapped__ = fn
    return wrapper


#: Module-level functions, patched wherever a ``repro`` module bound
#: them (``from ..prng.streams import bulk_draws``, under any alias).
#: The ``repro.fp`` package re-exports ``quantize`` under the name of
#: its own submodule, hence the explicit module lookup.
FUNCTIONS = [
    (_streams.bulk_draws, "prng/bulk_draws", _size),
    (importlib.import_module("repro.fp.quantize").quantize, "fp/quantize",
     _size),
]


def _engine_methods():
    """(class, method, span, count) for every concrete engine method."""
    seen = []
    for cls in _engine.ENGINES.values():
        for owner in cls.__mro__:
            for method, count in (("gemm", _engine_macs),
                                  ("reduce", _terms)):
                body = owner.__dict__.get(method)
                if body is None or getattr(body, "__isabstractmethod__",
                                           False):
                    continue
                entry = (owner, method, f"emu/engine.{method}", count)
                if entry not in seen:
                    seen.append(entry)
    return seen


def _methods():
    methods = [
        (_streams.SoftwareStream, "spawn", "prng/spawn", None),
        (_streams.LFSRStream, "spawn", "prng/spawn", None),
        *_engine_methods(),
        (_parallel.TileScheduler, "run", "emu/sched.run", _tasks),
        (_parallel.TileScheduler, "run_streamed", "emu/sched.run_streamed",
         _tasks),
        (_functional.PatchRows, "__call__", "nn/patch_rows", None),
        (_functional.PatchRows, "scatter_rows", "nn/scatter_rows", None),
        (_session.InferenceSession, "predict_batch", "serve/predict_batch",
         None),
        (_session.InferenceSession, "content_key", "serve/content_key",
         None),
        (_pool.ReplicaPool, "predict_json", "serve/pool.predict_json",
         None),
    ]
    for entry in ("__call__", "gemm_rows", "gemm_rows_streamed",
                  "gemm_outer_rows"):
        methods.append((_parallel.ParallelQuantizedGemm, entry,
                        f"emu/pgemm.{entry}", None))
    return methods


def named_modules(model) -> List[Tuple[str, object]]:
    """``(path, module)`` pairs, named like the checkpoint keys.

    Walks attributes exactly as ``Module.named_parameters`` does
    (list entries contribute their index); the root is ``model``.
    """
    found: List[Tuple[str, object]] = []
    seen = set()

    def walk(module, path):
        if id(module) in seen:
            return
        seen.add(id(module))
        found.append((path, module))
        for attr, value in module.__dict__.items():
            if _is_module(value):
                walk(value, f"{path}.{attr}")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if _is_module(item):
                        walk(item, f"{path}.{attr}.{i}")

    walk(model, "model")
    return [(path if path == "model" else path[len("model."):], module)
            for path, module in found]


def _is_module(value) -> bool:
    from repro.nn.module import Module

    return isinstance(value, Module)


class Instrumentation:
    """Span wrappers plus a live trace recorder, removed on exit.

    Example::

        with Instrumentation() as inst:
            inst.wrap_model(model)
            trainer.train_batch(x, y)
            tally.add(inst.drain())
        # every patched function and method is the original again
    """

    def __init__(self, capacity: int = CAPACITY):
        self.capacity = capacity
        self._patches: List[Tuple[object, str, object]] = []
        self._instances: List[Tuple[object, str]] = []
        self._recorder: Optional[_trace.TraceRecorder] = None
        #: Everything ever patched, kept for :meth:`restored`.
        self._touched: List[Tuple[object, str, object]] = []

    # -- install / remove ----------------------------------------------
    def __enter__(self) -> "Instrumentation":
        for fn, name, count in FUNCTIONS:
            wrapper = spanned(fn, name, count)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").split(".")[0] != "repro":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)
        for owner, method, name, count in _methods():
            self._patch(owner, method,
                        spanned(owner.__dict__[method], name, count))
        self._recorder = _trace.TraceRecorder(self.capacity)
        _trace.install(self._recorder)
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_model(self, model) -> None:
        """Span every module instance's ``forward`` and ``backward``."""
        for path, module in named_modules(model):
            for method in ("forward", "backward"):
                setattr(module, method,
                        spanned(getattr(module, method),
                                f"nn/{path}.{method}"))
                self._instances.append((module, method))

    def __exit__(self, *exc) -> None:
        _trace.uninstall()
        for module, method in reversed(self._instances):
            module.__dict__.pop(method, None)
            self._touched.append((module, method, None))
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
            self._touched.append((owner, attr, original))
        self._instances.clear()
        self._patches.clear()

    def restored(self) -> bool:
        """Whether every wrapped function and method is the original
        again and tracing is off (an instance method must be gone from
        the instance, so the class's method is found again)."""
        if _trace.active:
            return False
        return all(vars(owner).get(attr) is original
                   for owner, attr, original in self._touched)

    # -- reading spans ---------------------------------------------------
    def drain(self) -> List[dict]:
        """Every span recorded since the last drain (then forgotten)."""
        events = self._recorder.events()
        self._recorder.clear()
        return events


def self_times(events: Sequence[dict]) -> Tuple[List[float], List[int]]:
    """(self time in us, parent index or -1) for each event.

    Spans nest per thread, so sorting one thread's spans by start (the
    longer first on a tie) and keeping a stack of open spans finds each
    span's direct parent; a span's self time is its duration minus the
    durations of its direct children.
    """
    self_us = [float(e["dur_us"]) for e in events]
    parent = [-1] * len(events)
    by_thread: Dict[object, List[int]] = {}
    for index, event in enumerate(events):
        by_thread.setdefault(event["tid"], []).append(index)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (events[i]["ts_us"], -events[i]["dur_us"]))
        stack: List[int] = []
        for i in indices:
            start = events[i]["ts_us"]
            while stack and (events[stack[-1]]["ts_us"]
                             + events[stack[-1]]["dur_us"]) <= start:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
                self_us[stack[-1]] -= events[i]["dur_us"]
            stack.append(i)
    return [max(0.0, value) for value in self_us], parent


class LayerTally:
    """Per-span-name calls, ``n`` counts, total and self seconds."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.n: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        #: SR draws taken inside ``engine.gemm`` (what the program's
        #: ``gemm_sr_rounds_total`` counter counts).
        self.gemm_draws = 0

    def add(self, events: Sequence[dict]) -> None:
        """Fold in drained spans (complete trees: drain between ops)."""
        self_us, parent = self_times(events)
        for i, event in enumerate(events):
            name = event["name"]
            self.calls[name] += 1
            self.n[name] += int(event["args"].get("n", 0))
            self.total_s[name] += event["dur_us"] * 1e-6
            self.self_s[name] += self_us[i] * 1e-6
            if name == "prng/bulk_draws":
                up = parent[i]
                while up >= 0 and not events[up]["name"].startswith(
                        "emu/engine."):
                    up = parent[up]
                if up >= 0 and events[up]["name"] == "emu/engine.gemm":
                    self.gemm_draws += int(event["args"].get("n", 0))

    def _sum(self, table: Counter, *names: str, prefix: str = "") -> float:
        if prefix:
            return sum(v for k, v in table.items() if k.startswith(prefix))
        return sum(table[name] for name in names)


#: Spans that only group layers: their self time is unattributed.
_GLUE = ("train/step", "train/forward", "train/backward")


def layer_metrics(tally: LayerTally, ops: int, samples: int,
                  pool_delta: Optional[dict] = None,
                  overhead_frac: float = 0.0) -> Dict[str, float]:
    """Every per-layer metric ``BENCHMARK.json`` names.

    ``ops`` and ``samples`` are what the traced phase ran; times and
    counts are divided by ``ops``.  ``pool_delta`` carries the replica
    pool's counter deltas over the phase (serve_pool only).
    """
    per = 1.0 / max(1, ops)
    s, t, n, calls = tally.self_s, tally.total_s, tally.n, tally.calls
    engine_total = tally._sum(t, prefix="emu/engine.")
    macs = tally._sum(n, prefix="emu/engine.")
    step_s = t["train/step"]
    out = {
        "prng.draws": n["prng/bulk_draws"] * per,
        "prng.draw_s": s["prng/bulk_draws"] * per,
        "prng.spawns": calls["prng/spawn"] * per,
        "prng.spawn_s": s["prng/spawn"] * per,
        "fp.cast_elems": n["fp/quantize"] * per,
        "fp.cast_s": s["fp/quantize"] * per,
        "emu.engine_calls": tally._sum(calls, prefix="emu/engine.") * per,
        "emu.engine_self_s": tally._sum(s, prefix="emu/engine.") * per,
        "emu.macs": macs * per,
        "emu.mmac_per_s": macs / engine_total / 1e6 if engine_total else 0.0,
        "emu.sched_tasks": tally._sum(n, prefix="emu/sched.") * per,
        "emu.sched_self_s": tally._sum(s, prefix="emu/sched.") * per,
        "emu.gemm_calls": tally._sum(calls, prefix="emu/pgemm.") * per,
        "emu.gemm_s": (tally._sum(s, prefix="emu/pgemm.")
                       + s["emu/gemm"]) * per,
        "nn.patch_rows_s": tally._sum(s, "nn/patch_rows",
                                      "nn/scatter_rows") * per,
        "nn.forward_s": t["train/forward"] * per,
        "nn.backward_s": t["train/backward"] * per,
        "nn.update_s": t["train/update"] * per,
        "nn.step_coverage": (1.0 - tally._sum(s, *_GLUE) / step_s)
        if step_s else 0.0,
        "serve.predict_s": tally._sum(s, "serve/predict_batch",
                                      "serve/session", "serve/gemm") * per,
        "serve.key_s": s["serve/content_key"] * per,
        "serve.engine_calls_per_sample":
            tally._sum(calls, prefix="emu/engine.") / max(1, samples)
            if calls["serve/predict_batch"] else 0.0,
        "trace.overhead_frac": overhead_frac,
    }
    route = calls["serve/pool.predict_json"]
    route_ms = 1e3 * t["serve/pool.predict_json"] / route if route else 0.0
    delta = pool_delta or {}
    replica_ms = delta.get("replica_ms_mean", 0.0)
    out.update({
        "serve.mean_batch": delta.get("mean_batch", 0.0),
        "serve.cache_hit_ratio": delta.get("cache_hit_ratio", 0.0),
        "serve.replica_ms_mean": replica_ms,
        "serve.route_ms_mean": route_ms,
        "serve.ipc_ms_mean": route_ms - replica_ms if route else 0.0,
        "serve.pool_restarts": delta.get("restarts", 0),
    })
    for metric, path, method in spec.module_metrics():
        out[metric] = s[f"nn/{path}.{method}"] * per
    return out


def pool_counters(snapshot: dict) -> Dict[str, float]:
    """The pool counters the serve.* layer metrics difference."""
    counters = snapshot.get("counters", {})
    latency = snapshot.get("histograms", {}).get("request_latency_ms", {})
    return {
        "batches": counters.get("batcher_batches_total", 0),
        "samples": counters.get("batcher_samples_total", 0),
        "hits": counters.get("cache_hits_total", 0),
        "misses": counters.get("cache_misses_total", 0),
        "restarts": counters.get("pool_restarts_total", 0),
        "replica_count": latency.get("count", 0),
        "replica_sum": latency.get("sum", 0.0),
    }


def pool_delta(before: Dict[str, float],
               after: Dict[str, float]) -> Dict[str, float]:
    """serve.batcher / serve.cache / serve.pool figures over a phase."""
    d = {key: after[key] - before[key] for key in after}
    lookups = d["hits"] + d["misses"]
    return {
        "mean_batch": d["samples"] / d["batches"] if d["batches"] else 0.0,
        "cache_hit_ratio": d["hits"] / lookups if lookups else 0.0,
        "replica_ms_mean": d["replica_sum"] / d["replica_count"]
        if d["replica_count"] else 0.0,
        "restarts": d["restarts"],
    }

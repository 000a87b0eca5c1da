"""DET rules: ambient randomness, wall-clock reads, set-order draws.

Everything the emulator computes is contractually a pure function of
(config, checkpoint, input bytes).  Three hazard classes can break
that silently:

* **DET-RANDOM** — randomness with ambient state: ``np.random.*``
  module-level functions (hidden global generator), seedless
  ``default_rng()``, the stdlib ``random`` module, ``os.urandom``,
  ``uuid.uuid4``, ``secrets``.  Seeded constructions
  (``default_rng(0)``, ``Generator(PCG64(seed))``, ``SeedSequence``)
  are fine — they *are* the reproducibility mechanism.
* **DET-CLOCK** — wall-clock/perf-counter reads (``time.time``,
  ``time.perf_counter``, ``datetime.now``, ...) outside measurement
  scopes (benchmarks, the observability layer, tests).
  ``time.monotonic`` is exempt by repo convention: it marks
  deadline/latency plumbing whose value never feeds a result (the
  serving tier's batching deadlines and latency percentiles).
* **DET-SETORDER** — iterating a ``set``/``frozenset`` in code that
  consumes randomness: set iteration order varies across runs
  (PYTHONHASHSEED), so draws get assigned to elements in a
  run-dependent order.  Iterate ``sorted(...)`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..core import FileContext, Finding, Rule, register
from .substream import stream_draw_reason

#: numpy.random attributes that are constructions, not ambient draws.
_NUMPY_SAFE = {
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
    "RandomState",  # flagged separately below: legacy but explicit-seed
}

#: Wall-clock / perf-counter reads (time.monotonic deliberately absent).
_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: One-off ambient entropy sources.
_ENTROPY_CALLS = {"os.urandom", "uuid.uuid4"}

#: numpy Generator draw methods (for DET-SETORDER's body scan).
_RNG_DRAWS = {
    "random", "integers", "normal", "uniform", "choice", "shuffle",
    "permutation", "standard_normal", "exponential", "poisson", "bytes",
}


def _is_none(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _seedless(call: ast.Call) -> bool:
    """True for ``default_rng()`` / ``default_rng(None)``-style calls."""
    if not call.args and not call.keywords:
        return True
    if call.args:
        return _is_none(call.args[0])
    return all(_is_none(kw.value) for kw in call.keywords
               if kw.arg in (None, "seed"))


@register
class AmbientRandomness(Rule):
    """Randomness drawn from ambient, unseeded, or OS-entropy state."""

    id = "DET-RANDOM"
    title = ("ambient randomness (np.random module functions, seedless "
             "default_rng, stdlib random, os.urandom)")
    contract = ("DESIGN.md sections 2/4: results are a pure function "
                "of (config, checkpoint, input bytes)")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            message = self._hazard(resolved, node)
            if message:
                yield self.finding(ctx, node, message)

    def _hazard(self, resolved: str, call: ast.Call) -> Optional[str]:
        if resolved.startswith("numpy.random."):
            tail = resolved.split(".")[-1]
            if tail == "default_rng" and _seedless(call):
                return ("seedless default_rng() draws OS entropy; pass "
                        "an explicit seed")
            if tail not in _NUMPY_SAFE:
                return (f"np.random.{tail} uses the hidden global "
                        f"generator; use a seeded default_rng(seed) "
                        f"Generator instead")
            if tail == "RandomState" and _seedless(call):
                return ("seedless RandomState() draws OS entropy; pass "
                        "an explicit seed")
            return None
        if resolved == "random" or resolved.startswith("random."):
            tail = resolved.split(".")[-1]
            if tail == "Random" and not _seedless(call):
                return None  # seeded instance: explicit state
            return (f"stdlib random.{tail} is ambient (process-global "
                    f"state); use a seeded numpy Generator")
        if resolved in _ENTROPY_CALLS:
            return f"{resolved} reads OS entropy, never reproducible"
        if resolved == "secrets" or resolved.startswith("secrets."):
            return f"{resolved} reads OS entropy, never reproducible"
        return None


@register
class WallClockRead(Rule):
    """Wall-clock/perf-counter reads outside measurement scopes."""

    id = "DET-CLOCK"
    title = ("wall-clock/perf-counter read outside whitelisted "
             "measurement scopes")
    contract = ("DESIGN.md section 11: timing is measurement, never an "
                "input to results; monotonic deadlines are exempt")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved not in _CLOCK_CALLS:
                continue
            if ctx.policy.allows_clock(ctx.path, ctx.qualname(node)):
                continue
            yield self.finding(
                ctx, node,
                f"{resolved} read outside measurement scopes; use "
                f"time.monotonic for deadlines/latency, or whitelist "
                f"the scope in reprolint's policy if it is a timing "
                f"harness")


def _consumes_draws(body_nodes: Iterable[ast.AST]) -> Optional[str]:
    """The first draw-consuming call under ``body_nodes``, if any."""
    for root in body_nodes:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            reason = stream_draw_reason(node)
            if reason:
                return reason
            func = node.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in _RNG_DRAWS and \
                    isinstance(func.value, (ast.Name, ast.Attribute)):
                terminal = func.value.id \
                    if isinstance(func.value, ast.Name) else func.value.attr
                if "rng" in terminal.lower() or \
                        "stream" in terminal.lower():
                    return f"{terminal}.{func.attr}(...)"
    return None


def _set_iterable(node: ast.AST) -> bool:
    if isinstance(node, ast.Set):
        return True
    return isinstance(node, ast.Call) and \
        isinstance(node.func, ast.Name) and \
        node.func.id in ("set", "frozenset")


@register
class SetOrderFeedsDraws(Rule):
    """set/frozenset iteration inside draw-consuming code."""

    id = "DET-SETORDER"
    title = ("iteration over set/frozenset ordering feeding "
             "draw-consuming code")
    contract = ("DESIGN.md section 4: the draw schedule must not depend "
                "on hash ordering; iterate sorted(...) instead")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterable, body = node.iter, node.body
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp)):
                sets = [g.iter for g in node.generators
                        if _set_iterable(g.iter)]
                if not sets:
                    continue
                iterable, body = sets[0], [node]
            else:
                continue
            if not _set_iterable(iterable):
                continue
            consumed = _consumes_draws(body)
            if consumed is None:
                continue
            yield self.finding(
                ctx, iterable,
                f"iterating a set while consuming randomness "
                f"({consumed}): hash order varies across runs; iterate "
                f"sorted(...) so the draw schedule is frozen")

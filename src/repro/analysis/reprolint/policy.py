"""Scope policy: where each contract does and does not apply.

The contracts are scoped, not absolute: benchmarks *measure* wall
clock, the observability layer *times* phases, and the
engine/parallel internals *own* the frozen draw order.  The default
policy encodes those scopes; everything else must use a per-line
suppression (with a reason) so exceptions stay visible in the diff.

A :class:`Scope` names a repo-relative posix path prefix plus an
optional dotted qualname prefix inside it, so a whitelist can be as
narrow as one function (``_round_up_mask`` in ``repro.fp.quantize``)
or as wide as a directory (``benchmarks/``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


@dataclass(frozen=True)
class Scope:
    """A (path prefix, optional qualname prefix) whitelist entry."""

    path: str
    qualname: str = ""

    def covers(self, path: str, qualname: str) -> bool:
        if not (path == self.path or path.startswith(self.path)):
            return False
        if not self.qualname:
            return True
        return qualname == self.qualname or \
            qualname.startswith(self.qualname + ".")


#: Scopes allowed to read wall clocks / performance counters: timing is
#: their deliverable, and its result never feeds the datapath.
#: (``time.monotonic`` is exempt everywhere by convention: it is the
#: repo's marker for deadline/latency plumbing — see DET-CLOCK.)
CLOCK_SCOPES: Tuple[Scope, ...] = (
    Scope("benchmarks/"),
    Scope("tests/"),
    # the observability layer is the sanctioned clock owner: spans and
    # latency histograms time phases, and their readings never feed the
    # datapath (DESIGN.md section 13)
    Scope("src/repro/obs/"),
)

#: Modules that own the frozen draw-order contract (DESIGN.md sections
#: 4 and 9): only they may consume raw stream draws.  Everything else
#: derives a keyed substream via ``spawn(key)`` and hands it to them.
DRAW_OWNER_SCOPES: Tuple[Scope, ...] = (
    Scope("src/repro/prng/"),
    Scope("src/repro/emu/engine.py"),
    Scope("src/repro/emu/parallel.py"),
    Scope("src/repro/rtl/vectorized.py"),
    Scope("tests/"),
)

#: HYG-ASSERT applies to library code only: benchmarks and tests use
#: ``assert`` as their checking mechanism and never run under -O.
LIBRARY_PREFIXES: Tuple[str, ...] = ("src/",)

#: Scopes where a *live* (un-spawned) stream reference may circulate
#: freely (reproflow's FLOW-STREAM): the draw owners — code allowed to
#: consume a stream's draws is allowed to hold the stream — plus the
#: stochastic-rounding kernel, which the engines hand the stream's
#: generator to (``rng=getattr(config.stream, "rng", ...)``); its
#: draws are part of the frozen order the engines own.  SUB-DRAW's
#: name heuristic cannot see that hand-off, which is exactly why the
#: escape policy is a separate tuple from the draw policy.
FLOW_STREAM_SCOPES: Tuple[Scope, ...] = DRAW_OWNER_SCOPES + (
    Scope("src/repro/fp/quantize.py", "_round_up_mask"),
)

#: Scopes exempt from spawn-key purity (reproflow's FLOW-KEY): test
#: and benchmark keys only ever feed throwaway substreams, and both
#: trees deliberately exercise hostile keys.
FLOW_KEY_EXEMPT_SCOPES: Tuple[Scope, ...] = (
    Scope("tests/"),
    Scope("benchmarks/"),
)


@dataclass(frozen=True)
class Policy:
    """The whitelists the rules consult (see module docstring)."""

    clock_scopes: Tuple[Scope, ...] = CLOCK_SCOPES
    draw_owner_scopes: Tuple[Scope, ...] = DRAW_OWNER_SCOPES
    library_prefixes: Tuple[str, ...] = LIBRARY_PREFIXES
    flow_stream_scopes: Tuple[Scope, ...] = FLOW_STREAM_SCOPES
    flow_key_exempt_scopes: Tuple[Scope, ...] = FLOW_KEY_EXEMPT_SCOPES

    @classmethod
    def default(cls) -> "Policy":
        return cls()

    @staticmethod
    def _covered(scopes: Sequence[Scope], path: str,
                 qualname: str) -> bool:
        return any(scope.covers(path, qualname) for scope in scopes)

    def allows_clock(self, path: str, qualname: str) -> bool:
        return self._covered(self.clock_scopes, path, qualname)

    def owns_draws(self, path: str, qualname: str) -> bool:
        return self._covered(self.draw_owner_scopes, path, qualname)

    def allows_live_stream(self, path: str, qualname: str) -> bool:
        """May this scope hold/pass a raw stream (FLOW-STREAM)?"""
        return self._covered(self.flow_stream_scopes, path, qualname)

    def exempt_from_key_purity(self, path: str, qualname: str) -> bool:
        """Is this scope exempt from spawn-key purity (FLOW-KEY)?"""
        return self._covered(self.flow_key_exempt_scopes, path, qualname)

    def is_library(self, path: str) -> bool:
        return any(path.startswith(prefix)
                   for prefix in self.library_prefixes)

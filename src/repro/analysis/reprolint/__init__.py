"""reprolint — AST-based static enforcement of the repo's contracts.

The reproduction's guarantees (logits as a pure function of
(checkpoint, config, input bytes); bit-identity across workers, tiles
and backends) rest on contracts that dynamic tests can only
spot-check: a violation introduced in a cold path ships silently until
some future test happens to execute it.
reprolint proves, at lint time over the whole tree, that the code
*cannot express* the known classes of contract violations:

* **determinism hazards** (``DET-*``): ambient randomness, wall-clock
  reads outside measurement scopes, set-ordering feeding draws;
* **substream keying** (``SUB-*``): raw stream draws outside the
  engine/parallel internals that own the frozen draw order;
* **lock discipline** (``LOCK-*``): writes to ``#: guarded-by:``
  annotated attributes outside their lock;
* **library hygiene** (``HYG-*``): load-bearing ``assert``, broad
  ``except``, unscoped ``# type: ignore``.

The subsystem is pure stdlib (``ast`` + ``tokenize``-free line scans,
mirroring ``tools/check_docs.py``'s zero-dependency stance).  Run it
over the tree with::

    python -m repro.analysis src benchmarks tools examples

Per-line suppressions (``# reprolint: disable=RULE-ID``), a baseline
file for grandfathered findings, and text/JSON reporters are described
in ``docs/static-analysis.md``; DESIGN.md section 11 maps each rule to
the contract it enforces.
"""

from .core import Finding, Rule, all_rules, get_rule, lint_source, register
from .baseline import Baseline
from .policy import Policy, Scope
from .runner import lint_paths, run_paths

# Importing the rule modules registers every rule with the registry.
from . import rules  # noqa: F401  (import-for-side-effect)

__all__ = [
    "Baseline",
    "Finding",
    "Policy",
    "Rule",
    "Scope",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register",
    "run_paths",
]

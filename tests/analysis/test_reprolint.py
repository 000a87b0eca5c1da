"""reprolint: every rule, suppressions, whitelists, baseline, self-run.

Three layers:

* **fixture snippets** — positive/negative source fragments per rule,
  linted as virtual files so the policy's path whitelists engage;
* **seeded mutations** — the acceptance checks: insert an ambient
  ``np.random`` call, a raw ``stream.integers`` outside the whitelist,
  and an unlocked write to a guarded attribute into *real* repo files
  and require exactly the expected finding;
* **the repo-wide self-run** — ``src benchmarks tools examples`` must
  be clean, which is what makes the pass a tier-1 gate.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.reprolint import (
    Baseline,
    Policy,
    Scope,
    all_rules,
    lint_source,
    run_paths,
)
from repro.analysis.reprolint.cli import main as cli_main
from repro.analysis.reprolint.core import FileContext
from repro.analysis.reprolint.suppress import Suppressions

REPO = Path(__file__).resolve().parent.parent.parent

#: Virtual paths: library code (no whitelists) vs whitelisted scopes.
LIB = "src/repro/somepkg/somemodule.py"
BENCH = "benchmarks/bench_something.py"


def rules_of(source, path=LIB):
    result = lint_source(source, path)
    return [f.rule for f in result.findings]


def findings_of(source, path=LIB):
    return lint_source(source, path).findings


# ----------------------------------------------------------------------
# DET-RANDOM
# ----------------------------------------------------------------------
class TestAmbientRandomness:
    def test_module_level_numpy_random_flagged(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert rules_of(src) == ["DET-RANDOM"]

    def test_seedless_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_of(src) == ["DET-RANDOM"]
        src = "import numpy as np\nrng = np.random.default_rng(None)\n"
        assert rules_of(src) == ["DET-RANDOM"]

    def test_seeded_default_rng_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert rules_of(src) == []

    def test_explicit_generator_construction_clean(self):
        src = ("import numpy as np\n"
               "g = np.random.Generator(np.random.PCG64(\n"
               "    np.random.SeedSequence(3)))\n")
        assert rules_of(src) == []

    def test_stdlib_random_flagged(self):
        src = "import random\nx = random.random()\n"
        assert rules_of(src) == ["DET-RANDOM"]
        src = "from random import randint\nx = randint(0, 9)\n"
        assert rules_of(src) == ["DET-RANDOM"]

    def test_seeded_random_instance_clean(self):
        src = "import random\nr = random.Random(3)\n"
        assert rules_of(src) == []

    def test_os_entropy_flagged(self):
        assert rules_of("import os\nx = os.urandom(8)\n") == \
            ["DET-RANDOM"]
        assert rules_of("import uuid\nx = uuid.uuid4()\n") == \
            ["DET-RANDOM"]
        assert rules_of("import secrets\nx = secrets.token_hex()\n") == \
            ["DET-RANDOM"]

    def test_local_name_shadowing_not_flagged(self):
        # no `import random`: attribute chains on local objects are fine
        src = "x = obj.random.rand(3)\n"
        assert rules_of(src) == []


# ----------------------------------------------------------------------
# DET-CLOCK
# ----------------------------------------------------------------------
CLOCK_SRC = "import time\nstart = time.time()\n"
PERF_SRC = "import time\nstart = time.perf_counter()\n"


class TestWallClock:
    def test_wall_clock_in_library_flagged(self):
        assert rules_of(CLOCK_SRC) == ["DET-CLOCK"]
        assert rules_of(PERF_SRC) == ["DET-CLOCK"]

    def test_benchmarks_whitelisted(self):
        assert rules_of(CLOCK_SRC, BENCH) == []
        assert rules_of(PERF_SRC, BENCH) == []

    def test_function_scope_whitelisted_by_qualname(self):
        path = "src/repro/somepkg/harness.py"
        src = ("import time\n"
               "def timed():\n"
               "    return time.perf_counter()\n"
               "def other():\n"
               "    return time.perf_counter()\n")
        policy = Policy(clock_scopes=(Scope(path, "timed"),))
        findings = lint_source(src, path, policy).findings
        assert [f.rule for f in findings] == ["DET-CLOCK"]
        assert findings[0].line == 5  # only the non-whitelisted scope
        # the default policy's one function-narrow scope: only the SR
        # kernel (and scopes nested in it) may hold a live stream in
        # repro.fp.quantize
        quantize, default = "src/repro/fp/quantize.py", Policy.default()
        assert default.allows_live_stream(quantize, "_round_up_mask")
        assert default.allows_live_stream(quantize, "_round_up_mask.body")
        assert not default.allows_live_stream(quantize, "_round_up_masks")
        assert not default.allows_live_stream(quantize, "quantize")

    def test_monotonic_exempt_everywhere(self):
        src = "import time\ndeadline = time.monotonic() + 2.0\n"
        assert rules_of(src) == []

    def test_datetime_now_flagged(self):
        src = "import datetime\nx = datetime.datetime.now()\n"
        assert rules_of(src) == ["DET-CLOCK"]


# ----------------------------------------------------------------------
# DET-SETORDER
# ----------------------------------------------------------------------
class TestSetOrder:
    def test_set_loop_feeding_stream_draws_flagged(self):
        src = ("def f(stream):\n"
               "    out = []\n"
               "    for key in {1, 2, 3}:\n"
               "        out.append(stream.integers(9, (4,)))\n"
               "    return out\n")
        assert "DET-SETORDER" in rules_of(src, BENCH)

    def test_set_call_loop_feeding_rng_flagged(self):
        src = ("def f(rng, items):\n"
               "    for key in set(items):\n"
               "        rng.normal(size=3)\n")
        assert rules_of(src) == ["DET-SETORDER"]

    def test_comprehension_over_set_flagged(self):
        src = ("def f(rng, items):\n"
               "    return [rng.normal() for k in frozenset(items)]\n")
        assert rules_of(src) == ["DET-SETORDER"]

    def test_sorted_iteration_clean(self):
        src = ("def f(rng, items):\n"
               "    for key in sorted(set(items)):\n"
               "        rng.normal(size=3)\n")
        assert rules_of(src) == []

    def test_set_loop_without_draws_clean(self):
        src = ("def f(items):\n"
               "    total = 0\n"
               "    for key in set(items):\n"
               "        total += key\n"
               "    return total\n")
        assert rules_of(src) == []


# ----------------------------------------------------------------------
# SUB-DRAW
# ----------------------------------------------------------------------
RAW_DRAW = ("def f(config):\n"
            "    return config.stream.integers(9, (4, 4))\n")


class TestSubstreamKeying:
    def test_raw_draw_outside_owners_flagged(self):
        assert rules_of(RAW_DRAW) == ["SUB-DRAW"]

    def test_bulk_draws_outside_owners_flagged(self):
        src = ("from repro.prng.streams import bulk_draws\n"
               "def f(stream):\n"
               "    return bulk_draws(stream, 9, 16, (4,))\n")
        assert rules_of(src) == ["SUB-DRAW"]

    @pytest.mark.parametrize("owner", [
        "src/repro/emu/engine.py",
        "src/repro/emu/parallel.py",
        "src/repro/rtl/vectorized.py",
        "src/repro/prng/streams.py",
    ])
    def test_draw_order_owners_whitelisted(self, owner):
        assert rules_of(RAW_DRAW, owner) == []

    def test_spawn_is_the_legal_derivation(self):
        src = ("def f(config, key):\n"
               "    sub = config.stream.spawn(key)\n"
               "    return sub\n")
        assert rules_of(src) == []

    def test_numpy_generator_not_a_stream(self):
        src = ("import numpy as np\n"
               "def f():\n"
               "    rng = np.random.default_rng(0)\n"
               "    return rng.integers(0, 9, size=4)\n")
        assert rules_of(src) == []

    def test_lfsr_bank_draw_flagged(self):
        src = ("def f(bank):\n"
               "    return bank.draw((4,))\n")
        assert rules_of(src) == ["SUB-DRAW"]


# ----------------------------------------------------------------------
# The policy's whitelists name code that exists
# ----------------------------------------------------------------------
class TestPolicyScopes:
    def test_every_scope_names_existing_code(self):
        """A deleted file or function must not leave its whitelist
        entry behind: every scope of the default policy names an
        existing path, and a qualname a def or class in that file."""
        policy = Policy.default()
        scopes = [(name, scope) for name, value in vars(policy).items()
                  for scope in value if isinstance(scope, Scope)]
        assert scopes
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        stale = []
        for name, scope in scopes:
            target = REPO / scope.path
            if scope.qualname and target.is_file():
                source = target.read_text(encoding="utf-8")
                tree = ast.parse(source)
                ctx = FileContext(scope.path, source, tree, policy,
                                  Suppressions({}, set()))
                found = scope.qualname in {
                    ctx.qualname(node) for node in ast.walk(tree)
                    if isinstance(node, defs)}
            else:
                found = not scope.qualname and target.exists()
            if not found:
                stale.append((name, scope))
        assert stale == []


# ----------------------------------------------------------------------
# LOCK-WRITE
# ----------------------------------------------------------------------
GUARDED_CLASS = """\
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._hits = 0
        #: guarded-by: _lock
        self._entries = {{}}

    def touch(self):
{body}
"""


def guarded(body):
    indented = "\n".join("        " + line for line in body.splitlines())
    return GUARDED_CLASS.format(body=indented)


class TestLockDiscipline:
    def test_unlocked_write_flagged(self):
        assert rules_of(guarded("self._hits = 1")) == ["LOCK-WRITE"]

    def test_unlocked_augassign_flagged(self):
        assert rules_of(guarded("self._hits += 1")) == ["LOCK-WRITE"]

    def test_unlocked_subscript_store_flagged(self):
        assert rules_of(guarded("self._entries['k'] = 1")) == \
            ["LOCK-WRITE"]

    def test_unlocked_mutator_call_flagged(self):
        assert rules_of(guarded("self._entries.clear()")) == \
            ["LOCK-WRITE"]

    def test_unlocked_delete_flagged(self):
        assert rules_of(guarded("del self._entries['k']")) == \
            ["LOCK-WRITE"]

    def test_unlocked_tuple_unpack_flagged(self):
        assert rules_of(guarded("self._hits, other = 1, 2")) == \
            ["LOCK-WRITE"]

    def test_unlocked_list_unpack_flagged(self):
        assert rules_of(guarded("[self._hits, other] = [1, 2]")) == \
            ["LOCK-WRITE"]

    def test_unlocked_starred_unpack_flagged(self):
        assert rules_of(guarded("first, *self._hits = [1, 2, 3]")) == \
            ["LOCK-WRITE"]

    def test_unlocked_for_target_flagged(self):
        body = "for self._hits in range(3):\n    pass"
        assert rules_of(guarded(body)) == ["LOCK-WRITE"]

    def test_unlocked_with_as_flagged(self):
        body = "with open('x') as self._hits:\n    pass"
        assert rules_of(guarded(body)) == ["LOCK-WRITE"]

    def test_write_under_lock_clean(self):
        body = "with self._lock:\n    self._hits += 1"
        assert rules_of(guarded(body)) == []

    def test_unpack_under_lock_clean(self):
        body = "with self._lock:\n    self._hits, other = 1, 2"
        assert rules_of(guarded(body)) == []

    def test_plain_name_unpack_not_flagged(self):
        assert rules_of(guarded("a, b = 1, 2")) == []

    def test_init_is_exempt(self):
        # the annotated initialization itself must not self-flag
        assert rules_of(guarded("pass")) == []

    def test_same_line_annotation(self):
        src = ("import threading\n"
               "class C:\n"
               "    def __init__(self):\n"
               "        self._lock = threading.Lock()\n"
               "        self._n = 0  #: guarded-by: _lock\n"
               "    def bump(self):\n"
               "        self._n += 1\n")
        assert rules_of(src) == ["LOCK-WRITE"]

    def test_unannotated_attribute_not_checked(self):
        assert rules_of(guarded("self._other = 1")) == []

    def test_annotation_in_docstring_ignored(self):
        src = ('class C:\n'
               '    """Docs quoting #: guarded-by: _lock syntax."""\n'
               '    def __init__(self):\n'
               '        self._lock = None\n'
               '    def f(self):\n'
               '        self._lock = 1\n')
        assert rules_of(src) == []

    def test_other_class_same_attr_name_not_flagged(self):
        src = guarded("with self._lock:\n    self._hits += 1") + (
            "\nclass Free:\n"
            "    def touch(self):\n"
            "        self._hits = 1\n")
        assert rules_of(src) == []


# ----------------------------------------------------------------------
# HYG rules
# ----------------------------------------------------------------------
class TestHygiene:
    def test_library_assert_flagged(self):
        src = "def f(x):\n    assert x > 0\n    return x\n"
        assert rules_of(src) == ["HYG-ASSERT"]

    def test_benchmark_assert_exempt(self):
        src = "def f(x):\n    assert x > 0\n    return x\n"
        assert rules_of(src, BENCH) == []

    def test_bare_except_flagged(self):
        src = ("try:\n    x = 1\nexcept:\n    pass\n")
        assert rules_of(src) == ["HYG-EXCEPT"]

    def test_broad_except_flagged(self):
        src = ("try:\n    x = 1\nexcept Exception:\n    pass\n")
        assert rules_of(src) == ["HYG-EXCEPT"]

    def test_specific_except_clean(self):
        src = ("try:\n    x = 1\nexcept ValueError:\n    pass\n")
        assert rules_of(src) == []

    def test_cleanup_and_reraise_exempt(self):
        src = ("try:\n    x = 1\n"
               "except BaseException:\n"
               "    cleanup = True\n"
               "    raise\n")
        assert rules_of(src) == []

    def test_bare_type_ignore_flagged(self):
        src = "x = broken()  # type: ignore\n"
        assert rules_of(src) == ["HYG-IGNORE"]

    def test_scoped_type_ignore_clean(self):
        src = "x = broken()  # type: ignore[attr-defined]\n"
        assert rules_of(src) == []

    def test_type_ignore_in_docstring_not_flagged(self):
        src = '"""Docs about `# type: ignore` comments."""\nx = 1\n'
        assert rules_of(src) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_same_line_suppression(self):
        src = ("import time\n"
               "t = time.time()  # reprolint: disable=DET-CLOCK  why\n")
        result = lint_source(src, LIB)
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["DET-CLOCK"]

    def test_comment_above_suppression(self):
        src = ("import time\n"
               "# reprolint: disable=DET-CLOCK  progress only\n"
               "t = time.time()\n")
        assert rules_of(src) == []

    def test_multiline_justification_block(self):
        src = ("import time\n"
               "# reprolint: disable=DET-CLOCK  a longer story\n"
               "# continues on a second comment line\n"
               "t = time.time()\n")
        assert rules_of(src) == []

    def test_wrong_rule_id_does_not_suppress(self):
        src = ("import time\n"
               "t = time.time()  # reprolint: disable=SUB-DRAW\n")
        assert rules_of(src) == ["DET-CLOCK"]

    def test_disable_all(self):
        src = ("import time\n"
               "t = time.time()  # reprolint: disable=all\n")
        assert rules_of(src) == []

    def test_disable_file(self):
        src = ("# reprolint: disable-file=DET-CLOCK\n"
               "import time\n"
               "a = time.time()\n"
               "b = time.perf_counter()\n")
        assert rules_of(src) == []

    def test_directive_in_docstring_inert(self):
        src = ('"""# reprolint: disable-file=DET-CLOCK"""\n'
               "import time\n"
               "t = time.time()\n")
        assert rules_of(src) == ["DET-CLOCK"]

    def test_comma_separated_rules(self):
        sup = Suppressions.from_source(
            "x = 1  # reprolint: disable=DET-CLOCK, SUB-DRAW\n")
        assert sup.allows("DET-CLOCK", 1)
        assert sup.allows("SUB-DRAW", 1)
        assert not sup.allows("HYG-ASSERT", 1)


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = findings_of(CLOCK_SRC)
        assert findings
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).write(path)
        loaded = Baseline.load(path)
        new, old = loaded.split(findings)
        assert new == [] and len(old) == len(findings)

    def test_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert len(baseline) == 0

    def test_new_occurrence_of_same_kind_still_fails(self):
        baseline = Baseline.from_findings(findings_of(CLOCK_SRC))
        doubled = ("import time\n"
                   "start = time.time()\n"
                   "start = time.time()\n")
        new, old = baseline.split(findings_of(doubled))
        assert len(old) == 1 and len(new) == 1

    def test_fingerprint_survives_line_drift(self):
        baseline = Baseline.from_findings(findings_of(CLOCK_SRC))
        drifted = ("import time\n\n\n# pushed down\n"
                   "start = time.time()\n")
        new, old = baseline.split(findings_of(drifted))
        assert new == [] and len(old) == 1

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError, match="version"):
            Baseline.load(path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def make_tree(tmp_path, source, name="src/repro/mod.py"):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    target = tmp_path / name
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return tmp_path


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = make_tree(tmp_path, "x = 1\n")
        assert cli_main(["--root", str(root), str(root / "src")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_and_report(self, tmp_path, capsys):
        root = make_tree(tmp_path, CLOCK_SRC)
        assert cli_main(["--root", str(root), str(root / "src")]) == 1
        out = capsys.readouterr().out
        assert "DET-CLOCK" in out and "src/repro/mod.py:2" in out

    def test_json_format(self, tmp_path, capsys):
        root = make_tree(tmp_path, CLOCK_SRC)
        code = cli_main(["--root", str(root), "--format", "json",
                         str(root / "src")])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["counts"]["findings"] == 1
        assert report["findings"][0]["rule"] == "DET-CLOCK"

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        root = make_tree(tmp_path, CLOCK_SRC)
        argv = ["--root", str(root), str(root / "src")]
        assert cli_main(argv + ["--write-baseline"]) == 0
        assert (root / "reprolint-baseline.json").exists()
        assert cli_main(argv) == 0  # grandfathered
        assert "1 baselined" in capsys.readouterr().out.splitlines()[-1]

    def test_output_file(self, tmp_path, capsys):
        root = make_tree(tmp_path, CLOCK_SRC)
        out_file = tmp_path / "report.json"
        cli_main(["--root", str(root), "--format", "json",
                  "--output", str(out_file), str(root / "src")])
        capsys.readouterr()
        assert json.loads(out_file.read_text())["tool"] == "reprolint"

    def test_list_rules_names_every_rule(self, capsys):
        assert cli_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out

    def test_parse_error_reported_not_raised(self, tmp_path, capsys):
        root = make_tree(tmp_path, "def broken(:\n")
        assert cli_main(["--root", str(root), str(root / "src")]) == 1
        assert "PARSE-ERROR" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Seeded mutations of real repo files (the acceptance checks)
# ----------------------------------------------------------------------
def lint_real(relpath, mutate=None):
    source = (REPO / relpath).read_text(encoding="utf-8")
    if mutate:
        source = mutate(source)
    return lint_source(source, relpath)


class TestSeededMutations:
    def test_originals_are_clean(self):
        for relpath in ("src/repro/serve/session.py",
                        "src/repro/serve/cache.py",
                        "src/repro/emu/gemm.py"):
            assert lint_real(relpath).findings == []

    def test_ambient_np_random_call_caught(self):
        # an ambient draw slipped into the serving session
        anchor = "    arr = np.asarray(x, np.float64)\n"

        def mutate(src):
            assert anchor in src
            return src.replace(
                anchor, anchor + "    jitter = np.random.rand(3)\n",
                1)

        findings = lint_real("src/repro/serve/session.py",
                             mutate).findings
        assert [f.rule for f in findings] == ["DET-RANDOM"]
        assert "np.random.rand" in findings[0].snippet

    def test_raw_stream_draw_outside_whitelist_caught(self):
        anchor = "    arr = np.asarray(x, np.float64)\n"

        def mutate(src):
            assert anchor in src
            return src.replace(
                anchor,
                anchor +
                "    raw = spec_config.stream.integers(9, (4,))\n",
                1)

        findings = lint_real("src/repro/serve/session.py",
                             mutate).findings
        assert [f.rule for f in findings] == ["SUB-DRAW"]

    def test_unlocked_guarded_write_caught(self):
        # a "fast path" refreshing the LRU order without the lock
        anchor = "    def clear(self) -> None:\n"

        def mutate(src):
            assert anchor in src
            return src.replace(
                anchor,
                "    def touch(self, key) -> None:\n"
                "        self._entries.move_to_end(key)\n\n" + anchor,
                1)

        findings = lint_real("src/repro/serve/cache.py", mutate).findings
        assert [f.rule for f in findings] == ["LOCK-WRITE"]
        assert "_lock" in findings[0].message

    def test_library_assert_caught(self):
        anchor = "def matmul("

        def mutate(src):
            assert anchor in src
            return src.replace(
                anchor, "def _check(x):\n    assert x\n\n" + anchor, 1)

        findings = lint_real("src/repro/emu/gemm.py", mutate).findings
        assert [f.rule for f in findings] == ["HYG-ASSERT"]


# ----------------------------------------------------------------------
# Repo-wide self-run: the tree stays clean (tier-1 gate)
# ----------------------------------------------------------------------
class TestSelfRun:
    def test_repo_is_clean(self):
        paths = [REPO / p for p in ("src", "benchmarks", "tools",
                                    "examples")]
        findings, suppressed = run_paths(paths, root=REPO)
        assert findings == [], "\n".join(
            f"{f.location}: {f.rule} {f.message}" for f in findings)
        # the deliberate, documented exceptions stay suppressed — a
        # shrinking count means someone deleted a justification comment
        assert suppressed, "expected documented suppressions in-tree"

    def test_cli_module_entrypoint(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src", "tools"],
            cwd=REPO, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin"})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_no_baseline_file_in_repo(self):
        # the PR fixed or suppressed everything; nothing is grandfathered
        assert not (REPO / "reprolint-baseline.json").exists()


# ----------------------------------------------------------------------
# HYG-ASSERT: library invariants raise real exceptions, never assert
# ----------------------------------------------------------------------
class TestAssertConversion:
    def test_no_asserts_left_in_library_code(self):
        findings, _ = run_paths([REPO / "src"], root=REPO)
        assert [f for f in findings if f.rule == "HYG-ASSERT"] == []

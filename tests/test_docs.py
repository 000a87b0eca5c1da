"""The documentation suite exists, links resolve, and quoted commands
are not stale (same checks CI's docs job runs via tools/check_docs.py)."""

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_pages_exist():
    for name in ("docs/architecture.md", "docs/reproducing-tables.md",
                 "docs/extending.md", "README.md", "DESIGN.md"):
        assert (REPO / name).exists(), f"missing documentation page {name}"


def test_readme_links_every_docs_page():
    readme = (REPO / "README.md").read_text()
    pages = sorted((REPO / "docs").glob("*.md"))
    assert pages
    for page in pages:
        name = page.relative_to(REPO).as_posix()
        assert name in readme, f"README.md does not link {name}"


def test_design_documents_attention_datapath():
    design = (REPO / "DESIGN.md").read_text()
    assert "## 6. The attention datapath" in design
    assert "b * n_heads + h" in design


def test_links_and_commands_are_fresh(capsys):
    checker = _load_checker()
    problems = checker.main()
    out = capsys.readouterr().out
    assert problems == 0, f"stale documentation:\n{out}"


def test_python3_commands_are_checked(tmp_path, monkeypatch):
    checker = _load_checker()
    monkeypatch.setattr(checker, "REPO", tmp_path)
    (tmp_path / "srbench").mkdir()
    (tmp_path / "srbench" / "run.py").write_text("")
    page = tmp_path / "page.md"
    page.write_text("```bash\n"
                    "python3 srbench/run.py --workload train_cnn\n"
                    "python3 srbench/nope.py\n"
                    "python3 -m repro.nope\n"
                    "```\n")
    problems = checker.check_page(page)
    assert problems == [
        "page.md: stale script in command: python3 srbench/nope.py",
        "page.md: stale module in command: python3 -m repro.nope",
    ]


def test_slugify_matches_github_convention():
    checker = _load_checker()
    assert checker.github_slug("## Adding an accumulation engine"
                               .lstrip("# ")) == \
        "adding-an-accumulation-engine"
    assert checker.github_slug("Table I — ASIC cost") == "table-i--asic-cost"
    assert checker.github_slug("`code` heads") == "code-heads"

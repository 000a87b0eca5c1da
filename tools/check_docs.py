#!/usr/bin/env python
"""Markdown documentation checker: links, anchors, and quoted commands.

Run from the repository root (CI runs it in the docs job; the tier-1
suite runs it through ``tests/test_docs.py``)::

    python tools/check_docs.py

Checks, over ``README.md``, ``DESIGN.md`` and every ``docs/*.md``:

* every relative markdown link ``[text](path)`` resolves to an existing
  file or directory (http/https/mailto links are skipped — the
  environment is offline);
* every anchored link ``path#anchor`` / ``#anchor`` resolves to a
  heading in the target file (GitHub slugification);
* every ``python -m <module>`` quoted in a fenced code block names an
  importable module under ``src/`` (located without importing, so the
  checker needs no third-party packages);
* every ``python <script>.py`` quoted in a fenced code block names an
  existing file.

``python3`` commands are checked the same way.

Exits non-zero when any problem is found, so stale docs fail CI (the
count is printed, not used as the status — exit codes wrap at 256).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import List

REPO = Path(__file__).resolve().parent.parent

#: Pages under contract.  New docs/*.md files are picked up
#: automatically.
PAGES = ["README.md", "DESIGN.md"]

_LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^(```|~~~)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")
_PY_MODULE = re.compile(r"\b(python3?)\s+-m\s+([A-Za-z_][\w.]*)")
_PY_SCRIPT = re.compile(r"\b(python3?)\s+([\w./-]+\.py)\b")


def _pages() -> List[Path]:
    pages = [REPO / name for name in PAGES]
    pages.extend(sorted((REPO / "docs").glob("*.md")))
    return [page for page in pages if page.exists()]


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading (close enough for our pages):
    lowercase, spaces to dashes, drop everything but word chars/dashes."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set:
    slugs = set()
    in_fence = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = _HEADING.match(line)
        if match:
            slugs.add(github_slug(match.group(1)))
    return slugs


def _module_exists(dotted: str) -> bool:
    """Locate ``dotted`` under src/ without importing it."""
    base = REPO / "src" / Path(*dotted.split("."))
    return base.with_suffix(".py").exists() or (base / "__init__.py").exists()


def check_page(page: Path) -> List[str]:
    problems = []
    rel = page.relative_to(REPO)
    text = page.read_text(encoding="utf-8")

    # -- links (outside code fences) -----------------------------------
    in_fence = False
    commands: List[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _FENCE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            commands.append(line)
            continue
        for target in _LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            dest = (page.parent / path_part).resolve() if path_part \
                else page
            if not dest.exists():
                problems.append(f"{rel}:{lineno}: broken link -> {target}")
                continue
            if anchor and dest.suffix == ".md":
                if anchor not in _anchors(dest):
                    problems.append(
                        f"{rel}:{lineno}: missing anchor -> {target}")

    # -- commands quoted in fenced blocks ------------------------------
    for line in commands:
        for python, module in _PY_MODULE.findall(line):
            if module.startswith("repro") and not _module_exists(module):
                problems.append(f"{rel}: stale module in command: "
                                f"{python} -m {module}")
        for python, script in _PY_SCRIPT.findall(line):
            if not (REPO / script).exists():
                problems.append(f"{rel}: stale script in command: "
                                f"{python} {script}")
    return problems


def main() -> int:
    pages = _pages()
    problems: List[str] = []
    for page in pages:
        problems.extend(check_page(page))
    for problem in problems:
        print(problem)
    print(f"check_docs: {len(pages)} pages, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Rule registry, findings, and the per-file analysis context.

A rule is a small class with an ``id``, the contract it enforces, and a
``check(ctx)`` generator over :class:`Finding`; rules register
themselves via :func:`register` so the CLI, the reporters and the test
suite all see one catalog (:func:`all_rules`).  :class:`FileContext`
packages everything a rule needs about one file — source lines, the
``ast`` tree with parent links, an import-alias map for resolving
dotted call names, and the parsed suppression comments — so rules stay
declarative.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .policy import Policy
from .suppress import Suppressions, comment_lines


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``snippet`` is the stripped source line; the fingerprint hashes
    (rule, path, snippet) rather than the line *number*, so baselines
    survive unrelated edits above a grandfathered finding.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def content_digest(self) -> str:
        """Line-number-independent digest (see :mod:`.baseline`)."""
        text = f"{self.rule}|{self.path}|{self.snippet}"
        return hashlib.sha1(text.encode("utf-8")).hexdigest()[:16]


class Rule:
    """Base class for reprolint rules.

    Subclasses set ``id`` (the suppression token), ``title`` (one-line
    summary for ``--list-rules``) and ``contract`` (which DESIGN.md
    contract the rule enforces), and implement :meth:`check`.
    """

    id: str = ""
    title: str = ""
    contract: str = ""

    def check(self, ctx: "FileContext") -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "FileContext", node, message: str) -> Finding:
        """A :class:`Finding` anchored at ``node`` (AST node or line no)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line, col = node.lineno, node.col_offset
        snippet = ctx.line(line).strip()
        return Finding(self.id, ctx.path, line, col, message, snippet)


_REGISTRY: Dict[str, Rule] = {}


def register(cls):
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls()
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by its suppression token."""
    return _REGISTRY[rule_id]


class FileContext:
    """Everything the rules need to know about one source file."""

    def __init__(self, path: str, source: str, tree: ast.AST,
                 policy: Policy, suppressions: Optional[Suppressions],
                 comments: Optional[Dict[int, str]] = None,
                 imports: Optional[Dict[str, str]] = None):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.policy = policy
        # parents / comments / suppressions / imports not passed in are
        # built on first use: the per-file rules touch them all, but
        # whole-program passes (reproflow) construct hundreds of
        # contexts, never ask for parent links and tokenize a file only
        # to read its lock annotations or a finding's suppression.
        self._suppressions = suppressions
        self._comments = comments
        self._parent_map: Optional[Dict[ast.AST, ast.AST]] = None
        self._imports = imports

    @property
    def comments(self) -> Dict[int, str]:
        """Real comment tokens per line (docstring text excluded)."""
        if self._comments is None:
            self._comments = comment_lines(self.source)
        return self._comments

    @property
    def suppressions(self) -> Suppressions:
        if self._suppressions is None:
            self._suppressions = Suppressions.from_comments(
                self.source, self.comments)
        return self._suppressions

    @property
    def _parents(self) -> Dict[ast.AST, ast.AST]:
        if self._parent_map is None:
            self._parent_map = {}
            for parent in ast.walk(self.tree):
                for child in ast.iter_child_nodes(parent):
                    self._parent_map[child] = parent
        return self._parent_map

    @property
    def imports(self) -> Dict[str, str]:
        if self._imports is None:
            self._imports = _import_aliases(self.tree)
        return self._imports

    # -- source access -------------------------------------------------
    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    # -- tree navigation -----------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def qualname(self, node: ast.AST) -> str:
        """Dotted path of enclosing class/function scopes (may be '')."""
        names: List[str] = []
        scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        if isinstance(node, scopes):
            names.append(node.name)
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, scopes):
                names.append(ancestor.name)
        return ".".join(reversed(names))

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    # -- name resolution -----------------------------------------------
    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name of a Name/Attribute chain.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when the file imported
        ``numpy as np``; returns ``None`` for anything that is not a
        pure attribute chain rooted in an imported name.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.imports.get(current.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


def _import_aliases(tree: ast.AST) -> Dict[str, str]:
    """Map local alias -> dotted origin for module/from imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                # `import a.b` binds `a`; `import a.b as c` binds a.b
                aliases[name] = alias.name if alias.asname \
                    else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases


@dataclass
class LintResult:
    """Findings of one file, split by suppression state."""

    path: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)


def lint_source(source: str, path: str,
                policy: Optional[Policy] = None) -> LintResult:
    """Run every registered rule over one in-memory source file.

    ``path`` is the repo-relative posix path the policy whitelists and
    reporters see; it does not have to exist on disk (the test-suite
    fixtures lint virtual files).  Unparseable sources yield a single
    ``PARSE-ERROR`` finding instead of raising.
    """
    policy = policy or Policy.default()
    comments = comment_lines(source)
    suppressions = Suppressions.from_comments(source, comments)
    result = LintResult(path)
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        result.findings.append(Finding(
            "PARSE-ERROR", path, error.lineno or 1, error.offset or 0,
            f"could not parse file: {error.msg}",
            (error.text or "").strip()))
        return result
    ctx = FileContext(path, source, tree, policy, suppressions,
                      comments=comments)
    for rule in all_rules():
        for finding in rule.check(ctx):
            if suppressions.allows(finding.rule, finding.line):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return result

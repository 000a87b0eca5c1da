"""LOCK-ORDER: the whole-program lock-acquisition graph.

LOCK-WRITE (reprolint) checks that guarded attributes are *written*
under their lock, one file at a time.  It cannot see the two hazards
that actually take serving tiers down:

* **deadlock** — thread 1 nests ``_stats_lock`` inside ``_route_lock``
  while thread 2 nests them the other way around, possibly three calls
  apart; and
* **torn reads** — a statement reads two guarded attributes (or
  read-modify-writes one) without the lock, observing a state no
  critical section ever produced.

This pass builds the static acquisition graph: nodes are
``threading.Lock``/``RLock`` attributes discovered at their
``self.<attr> = threading.Lock()`` initialization sites, and an edge
``A -> B`` means some execution path acquires ``B`` while holding
``A`` — either a lexically nested ``with``, or a call (resolved
through the interprocedural call graph) whose transitive acquire set
contains ``B``.  Findings: cycles in the graph (potential deadlock,
RLock self-edges exempt), inferred edges that invert the pinned
canonical order (``#: lock-order: <n>`` comments, DESIGN.md section
14), multi-attribute guarded reads in one statement outside the lock,
and read-modify-writes outside the lock.  Instances of a class are
conflated, as everywhere in reproflow; property getters that acquire
locks are attribute reads, not calls, so their acquires are invisible
— keep lock-holding accessors out of lock-held regions by convention.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..reprolint.core import Finding
from ..reprolint.rules.locks import (
    _ASSOCIATION_WINDOW,
    _SELF_ASSIGN,
    _guarded_attrs,
    _holds_lock,
    _written_attrs,
)
from .callgraph import CallGraph
from .program import ClassInfo, FunctionInfo, Program, scoped_nodes

RULE_ID = "LOCK-ORDER"

_ORDER_PIN = re.compile(r"#:\s*lock-order:\s*(\d+)")
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class LockInfo:
    """One lock attribute: identity, kind, init site, optional pin."""

    lock_id: str          # modname.ClassName.attr
    cid: str
    attr: str
    kind: str             # "Lock" | "RLock"
    path: str
    line: int
    order: Optional[int] = None


@dataclass
class LockEdge:
    """``frm`` is held when ``to`` is acquired at (path, line)."""

    frm: str
    to: str
    path: str
    line: int
    via: str              # "nested with" | "call to <fid>"


@dataclass
class LockGraph:
    locks: Dict[str, LockInfo] = field(default_factory=dict)
    edges: List[LockEdge] = field(default_factory=list)
    _seen: Set[Tuple[str, str]] = field(default_factory=set)

    def add_edge(self, edge: LockEdge) -> None:
        key = (edge.frm, edge.to)
        if key not in self._seen:
            self._seen.add(key)
            self.edges.append(edge)

    def successors(self, lock_id: str) -> List[str]:
        return sorted(e.to for e in self.edges if e.frm == lock_id)

    def cycles(self) -> List[List[str]]:
        """Strongly connected components with a cycle, sorted."""
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]
        out: List[List[str]] = []
        self_loops = {e.frm for e in self.edges if e.frm == e.to}

        def strongconnect(node: str) -> None:
            index[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for succ in self.successors(node):
                if succ not in index:
                    strongconnect(succ)
                    low[node] = min(low[node], low[succ])
                elif succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or component[0] in self_loops:
                    out.append(sorted(component))

        for node in sorted(self.locks):
            if node not in index:
                strongconnect(node)
        return sorted(out)

    def export(self) -> Dict[str, object]:
        return {
            "tool": "reproflow",
            "artifact": "lockgraph",
            "format_version": 1,
            "locks": [
                {
                    "id": info.lock_id,
                    "class": info.cid,
                    "attr": info.attr,
                    "kind": info.kind,
                    "path": info.path,
                    "line": info.line,
                    "order": info.order,
                }
                for _, info in sorted(self.locks.items())
            ],
            "edges": [
                {
                    "from": edge.frm,
                    "to": edge.to,
                    "path": edge.path,
                    "line": edge.line,
                    "via": edge.via,
                }
                for edge in sorted(self.edges,
                                   key=lambda e: (e.frm, e.to))
            ],
            "cycles": self.cycles(),
        }


def _discover_locks(program: Program) -> Dict[str, LockInfo]:
    """Every ``self.<attr> = threading.Lock()/RLock()`` in the program,
    with ``#: lock-order:`` pins associated like guarded-by comments."""
    locks: Dict[str, LockInfo] = {}
    for cid, cls in program.classes.items():
        module = program.modules[cls.modname]
        for fid in cls.methods.values():
            func = program.functions[fid]
            if func.self_name is None:
                continue
            for node in func.body_nodes():
                if not isinstance(node, ast.Assign) or \
                        not isinstance(node.value, ast.Call):
                    continue
                origin = module.ctx.resolve(node.value.func)
                if origin not in ("threading.Lock", "threading.RLock"):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == func.self_name:
                        lock_id = f"{cid}.{target.attr}"
                        locks[lock_id] = LockInfo(
                            lock_id, cid, target.attr,
                            origin.rsplit(".", 1)[1],
                            module.relpath, node.lineno)
        if any(lock.cid == cid for lock in locks.values()):
            _associate_pins(module, cls, locks)  # tokenizes the module
    return locks


def _associate_pins(module, cls: ClassInfo,
                    locks: Dict[str, LockInfo]) -> None:
    end = cls.node.end_lineno or cls.node.lineno
    for lineno in range(cls.node.lineno, end + 1):
        comment = module.ctx.comments.get(lineno)
        if comment is None:
            continue
        match = _ORDER_PIN.search(comment)
        if not match:
            continue
        for candidate in range(lineno, lineno + 1 + _ASSOCIATION_WINDOW):
            assign = _SELF_ASSIGN.search(module.ctx.line(candidate))
            if assign:
                lock_id = f"{cls.cid}.{assign.group(1)}"
                if lock_id in locks:
                    locks[lock_id].order = int(match.group(1))
                break


class LockOrder:
    """Build the acquisition graph and derive the findings."""

    def __init__(self, program: Program, graph: CallGraph):
        self.program = program
        self.callgraph = graph
        self.lockgraph = LockGraph(locks=_discover_locks(program))
        #: fid -> locks the function may acquire, transitively.
        self.acquires: Dict[str, Set[str]] = {}

    # -- graph construction --------------------------------------------
    def build(self) -> LockGraph:
        direct: Dict[str, Set[str]] = {}
        for fid, func in self.program.functions.items():
            direct[fid] = {
                lock for node in func.body_nodes()
                if isinstance(node, (ast.With, ast.AsyncWith))
                for lock in self._with_locks(func, node)
            }
        self.acquires = {fid: set(acquired)
                         for fid, acquired in direct.items()}
        changed = True
        while changed:
            changed = False
            for fid in self.acquires:
                merged = self.acquires[fid]
                before = len(merged)
                for callee in self.callgraph.callees(fid):
                    merged |= self.acquires.get(callee, set())
                changed |= len(merged) != before
        for fid, func in self.program.functions.items():
            if not direct[fid]:
                continue  # holds no lock, so it adds no edge
            module = self.program.module_of(func)
            self._walk(func, module, list(getattr(func.node, "body", [])),
                       held=[])
        return self.lockgraph

    def _with_locks(self, func: FunctionInfo,
                    node) -> List[str]:
        found = []
        cls = self.program.class_of(func)
        if cls is None or func.self_name is None:
            return found
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                expr = expr.func
            if isinstance(expr, ast.Attribute) and \
                    isinstance(expr.value, ast.Name) and \
                    expr.value.id == func.self_name:
                lock_id = f"{cls.cid}.{expr.attr}"
                if lock_id in self.lockgraph.locks:
                    found.append(lock_id)
        return found

    def _walk(self, func: FunctionInfo, module, nodes: List[ast.AST],
              held: List[str]) -> None:
        for node in nodes:
            if isinstance(node, _SCOPE_NODES):
                continue
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired = self._with_locks(func, node)
                for lock in acquired:
                    for holder in held:
                        self._edge(holder, lock, module, node.lineno,
                                   "nested with")
                self._walk(func, module,
                           [item.context_expr for item in node.items],
                           held)
                self._walk(func, module, list(node.body), held + acquired)
                continue
            if isinstance(node, ast.Call) and held:
                site = self.callgraph.site(node)
                if site is not None and site.callee is not None:
                    for lock in sorted(
                            self.acquires.get(site.callee, ())):
                        for holder in held:
                            self._edge(holder, lock, module, node.lineno,
                                       f"call to {site.callee}")
            self._walk(func, module, list(ast.iter_child_nodes(node)),
                       held)

    def _edge(self, frm: str, to: str, module, lineno: int,
              via: str) -> None:
        if frm == to and \
                self.lockgraph.locks[frm].kind == "RLock":
            return  # re-entrant by design
        self.lockgraph.add_edge(
            LockEdge(frm, to, module.relpath, lineno, via))

    # -- findings -------------------------------------------------------
    def findings(self) -> Iterator[Finding]:
        yield from self._cycle_findings()
        yield from self._pin_findings()
        yield from self._read_findings()

    def _finding(self, path: str, line: int, col: int, message: str,
                 snippet: str) -> Finding:
        return Finding(RULE_ID, path, line, col, message, snippet)

    def _cycle_findings(self) -> Iterator[Finding]:
        for cycle in self.lockgraph.cycles():
            members = set(cycle)
            witness = next(e for e in self.lockgraph.edges
                           if e.frm in members and e.to in members)
            module = self._module_for(witness.path)
            snippet = module.ctx.line(witness.line).strip() if module else ""
            chain = " -> ".join(cycle + [cycle[0]])
            yield self._finding(
                witness.path, witness.line, 0,
                f"lock-acquisition cycle {chain} (potential deadlock); "
                f"every path must acquire these locks in one global "
                f"order — see the canonical order in DESIGN.md "
                f"section 14", snippet)

    def _pin_findings(self) -> Iterator[Finding]:
        locks = self.lockgraph.locks
        for edge in sorted(self.lockgraph.edges,
                           key=lambda e: (e.path, e.line, e.frm, e.to)):
            frm, to = locks[edge.frm], locks[edge.to]
            if frm.order is None or to.order is None or \
                    edge.frm == edge.to:
                continue
            if frm.order >= to.order:
                module = self._module_for(edge.path)
                snippet = module.ctx.line(edge.line).strip() \
                    if module else ""
                yield self._finding(
                    edge.path, edge.line, 0,
                    f"inferred acquisition edge {edge.frm} (order "
                    f"{frm.order}) -> {edge.to} (order {to.order}) "
                    f"via {edge.via} inverts the pinned canonical lock "
                    f"order (#: lock-order:)", snippet)

    def _read_findings(self) -> Iterator[Finding]:
        for cid in sorted(self.program.classes):
            cls = self.program.classes[cid]
            module = self.program.modules[cls.modname]
            if "guarded-by" not in module.source:
                continue  # no annotation to tokenize the module for
            guarded = _guarded_attrs(module.ctx, cls.node)
            if not guarded:
                continue
            for name in sorted(cls.methods):
                if name == "__init__":
                    continue
                func = self.program.functions[cls.methods[name]]
                if func.self_name is None:
                    continue
                yield from self._method_reads(module, cls, func, guarded)

    def _method_reads(self, module, cls: ClassInfo, func: FunctionInfo,
                      guarded) -> Iterator[Finding]:
        self_name = func.self_name
        for stmt in _statements(func.node):
            unguarded: Dict[str, Set[str]] = {}
            for expr in _stmt_exprs(stmt):
                for node in ast.walk(expr):
                    if isinstance(node, ast.Attribute) and \
                            isinstance(node.ctx, ast.Load) and \
                            isinstance(node.value, ast.Name) and \
                            node.value.id == self_name and \
                            node.attr in guarded:
                        lock = guarded[node.attr][0]
                        if not _holds_lock(module.ctx, node, self_name,
                                           lock):
                            unguarded.setdefault(lock, set()).add(
                                node.attr)
            for lock in sorted(unguarded):
                attrs = sorted(unguarded[lock])
                if len(attrs) >= 2:
                    snippet = module.ctx.line(stmt.lineno).strip()
                    yield self._finding(
                        module.relpath, stmt.lineno, stmt.col_offset,
                        f"statement reads {len(attrs)} attributes "
                        f"guarded by {lock} ({', '.join(attrs)}) outside "
                        f"'with self.{lock}:' — the snapshot can tear; "
                        f"copy state out under the lock", snippet)
            if isinstance(stmt, (ast.Assign, ast.AugAssign)):
                yield from self._rmw(module, cls, func, stmt, guarded,
                                     unguarded)

    def _rmw(self, module, cls: ClassInfo, func: FunctionInfo, stmt,
             guarded, unguarded: Dict[str, Set[str]]
             ) -> Iterator[Finding]:
        if func.qualname.endswith("__init__"):
            return
        for attr, reason in _written_attrs(stmt, func.self_name):
            info = guarded.get(attr)
            if info is None:
                continue
            lock = info[0]
            if _holds_lock(module.ctx, stmt, func.self_name, lock):
                continue
            reads = isinstance(stmt, ast.AugAssign) or \
                attr in unguarded.get(lock, ())
            if reads:
                snippet = module.ctx.line(stmt.lineno).strip()
                yield self._finding(
                    module.relpath, stmt.lineno, stmt.col_offset,
                    f"read-modify-write of self.{attr} (guarded by "
                    f"{lock}) outside 'with self.{lock}:' — the "
                    f"read and the write must share one critical "
                    f"section", snippet)
                return

    def _module_for(self, relpath: str):
        for module in self.program.modules.values():
            if module.relpath == relpath:
                return module
        return None


def _statements(owner: ast.AST) -> Iterator[ast.stmt]:
    stack = list(getattr(owner, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES):
            continue
        if isinstance(node, ast.stmt):
            yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                stack.append(child)
            elif isinstance(child, (ast.With, ast.AsyncWith)):
                stack.append(child)


def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
    """The expression roots directly attached to one statement (child
    statements excluded — they are their own statements)."""
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.expr):
            yield child
        elif isinstance(child, ast.withitem):
            yield child.context_expr


def check_lock_order(program: Program, graph: CallGraph
                     ) -> Tuple[List[Finding], LockGraph]:
    analysis = LockOrder(program, graph)
    lockgraph = analysis.build()
    found = list(analysis.findings())
    found.sort(key=lambda f: (f.path, f.line, f.col))
    return found, lockgraph

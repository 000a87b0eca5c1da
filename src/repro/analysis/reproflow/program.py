"""Whole-program model: modules, symbols, and scoped AST access.

reprolint reasons about one file at a time; reproflow's rules need the
*program* — which module a dotted import resolves to, which class
defines a method, which function a call lands in.  :func:`build_program`
parses every file once into a :class:`Program`:

* :class:`ModuleInfo` wraps one file: its dotted module name, a
  reprolint :class:`FileContext` (parent links, comments, suppression
  directives, import aliases), and a *relative-import-aware* alias map
  (``from ..obs import trace as _t`` resolves to ``repro.obs.trace``,
  which the per-file map cannot do because it does not know the
  importing module's package).
* :class:`FunctionInfo` is one function/method (or the module's
  top-level statements, qualname ``""``) with its parameter names and
  the AST nodes of its *own* body — nested defs are separate functions,
  so :func:`scoped_nodes` never attributes an inner function's calls to
  its enclosing scope.
* :class:`ClassInfo` records methods, in-program bases, and the classes
  its attributes are constructed from (``self.batcher =
  MicroBatcher(...)``), which the call-graph uses to resolve
  ``self.batcher.submit(...)`` precisely.

Everything is pure stdlib ``ast``, like reprolint; variable-precision
alias analysis in the AutoAlias sense — model identities only for the
few value domains under contract, stay coarse everywhere else.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..reprolint.core import FileContext
from ..reprolint.policy import Policy
from ..reprolint.suppress import Suppressions

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def module_name(relpath: str) -> str:
    """Dotted module name of a repo-relative posix path.

    ``src/`` is the import root (``src/repro/serve/pool.py`` ->
    ``repro.serve.pool``); trees outside it keep their directory as a
    namespace (``benchmarks/bench_rtl.py`` -> ``benchmarks.bench_rtl``)
    so ids stay unique without pretending they are importable packages.
    """
    path = relpath[4:] if relpath.startswith("src/") else relpath
    if path.endswith(".py"):
        path = path[:-3]
    parts = [part for part in path.split("/") if part]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def scoped_nodes(owner: ast.AST) -> Iterator[ast.AST]:
    """Every node in ``owner``'s body without descending into nested
    function/class definitions (their bodies belong to other scopes)."""
    stack = list(getattr(owner, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPE_NODES):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class FunctionInfo:
    """One function, method, or module top level in the program."""

    fid: str                 # modname[.qualname]; the call-graph node id
    modname: str
    qualname: str            # "" for module top level
    node: ast.AST            # FunctionDef / AsyncFunctionDef / Module
    cls: Optional[str] = None        # enclosing class name, if any
    params: Tuple[str, ...] = ()
    self_name: Optional[str] = None  # first positional arg of a method
    #: True only for functions defined directly in a class body — a
    #: closure nested inside a method has ``cls`` set but is reachable
    #: by bare name, while a sibling method is not.
    direct_method: bool = False

    _nodes: Optional[List[ast.AST]] = None

    def body_nodes(self) -> List[ast.AST]:
        """Cached :func:`scoped_nodes` of this function's own body —
        every pass iterates these, so walk the tree once."""
        if self._nodes is None:
            self._nodes = list(scoped_nodes(self.node))
        return self._nodes


@dataclass
class ClassInfo:
    """One class definition: methods, bases, and attribute types."""

    cid: str                 # modname.ClassName
    name: str
    modname: str
    node: ast.ClassDef
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fid
    base_exprs: List[ast.expr] = field(default_factory=list)
    #: self.<attr> -> cid of the class it is constructed from, for
    #: attribute-typed method resolution (filled by the call graph).
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file plus everything scoped to it."""

    relpath: str
    modname: str
    source: str
    ctx: FileContext
    #: alias -> dotted origin, with relative imports resolved against
    #: this module's package (unlike ``FileContext.imports``).
    aliases: Dict[str, str] = field(default_factory=dict)
    is_package: bool = False

    @property
    def tree(self) -> ast.AST:
        return self.ctx.tree

    @property
    def suppressions(self) -> Suppressions:
        return self.ctx.suppressions


def _module_aliases(tree: ast.AST, modname: str, is_package: bool
                    ) -> Tuple[Dict[str, str], Dict[str, str]]:
    """The per-file alias map (``FileContext.imports``: absolute imports
    only) and the relative-import-aware one, from one walk."""
    absolute: Dict[str, str] = {}
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                aliases[name] = absolute[name] = alias.name \
                    if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                package = modname if is_package else \
                    (modname.rsplit(".", 1)[0] if "." in modname else "")
                parts = package.split(".") if package else []
                if node.level > 1:
                    parts = parts[:len(parts) - (node.level - 1)]
                base = ".".join(parts)
                origin = f"{base}.{node.module}" if node.module and base \
                    else (node.module or base)
            else:
                origin = node.module or ""
            if not origin:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = \
                    f"{origin}.{alias.name}"
                if not node.level:
                    absolute[alias.asname or alias.name] = \
                        f"{origin}.{alias.name}"
    return absolute, aliases


class Program:
    """The parsed whole-program symbol table."""

    def __init__(self, policy: Optional[Policy] = None):
        self.policy = policy or Policy.default()
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: method name -> cids defining it (unique-method heuristic).
        self.method_index: Dict[str, List[str]] = {}
        #: (relpath, lineno, message) for files that failed to parse;
        #: the per-file lint reports these as PARSE-ERROR already.
        self.parse_errors: List[Tuple[str, int, str]] = []

    # -- construction ---------------------------------------------------
    def add_file(self, relpath: str, source: str) -> Optional[ModuleInfo]:
        try:
            tree = ast.parse(source)
        except SyntaxError as error:
            self.parse_errors.append(
                (relpath, error.lineno or 1, error.msg or "syntax error"))
            return None
        modname = module_name(relpath)
        is_package = relpath.endswith("__init__.py")
        imports, aliases = _module_aliases(tree, modname, is_package)
        # comments and suppressions are tokenized on first use
        ctx = FileContext(relpath, source, tree, self.policy, None,
                          imports=imports)
        module = ModuleInfo(relpath, modname, source, ctx, aliases=aliases,
                            is_package=is_package)
        self.modules[modname] = module
        self._index_scopes(module, tree, qualname="", cls=None)
        return module

    def _index_scopes(self, module: ModuleInfo, owner: ast.AST,
                      qualname: str, cls: Optional[ClassInfo],
                      direct_method: bool = False) -> None:
        if not isinstance(owner, ast.ClassDef):
            fid = module.modname + (f".{qualname}" if qualname else "")
            info = FunctionInfo(fid, module.modname, qualname, owner,
                                cls=cls.name if cls else None)
            if isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = owner.args
                names = [a.arg for a in args.posonlyargs + args.args
                         + args.kwonlyargs]
                info.params = tuple(names)
                if direct_method and cls is not None:
                    info.direct_method = True
                    cls.methods[owner.name] = fid
                    self.method_index.setdefault(
                        owner.name, []).append(cls.cid)
                    decorators = {d.id for d in owner.decorator_list
                                  if isinstance(d, ast.Name)}
                    positional = args.posonlyargs + args.args
                    if positional and "staticmethod" not in decorators:
                        info.self_name = positional[0].arg
            self.functions[fid] = info
        for child in getattr(owner, "body", []):
            if isinstance(child, ast.ClassDef):
                inner = f"{qualname}.{child.name}" if qualname else child.name
                cid = f"{module.modname}.{inner}"
                cls_info = ClassInfo(cid, child.name, module.modname, child,
                                     base_exprs=list(child.bases))
                self.classes[cid] = cls_info
                self._index_scopes(module, child, inner, cls_info)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{qualname}.{child.name}" if qualname else child.name
                self._index_scopes(
                    module, child, inner, cls,
                    direct_method=isinstance(owner, ast.ClassDef))

    # -- lookup ---------------------------------------------------------
    def module_of(self, func: FunctionInfo) -> ModuleInfo:
        return self.modules[func.modname]

    def class_of(self, func: FunctionInfo) -> Optional[ClassInfo]:
        if func.cls is None or not func.qualname:
            return None
        parts = func.qualname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            candidate = f"{func.modname}.{'.'.join(parts[:cut])}"
            info = self.classes.get(candidate)
            if info is not None and info.name == func.cls:
                return info
        return None

    def resolve_symbol(self, dotted: str,
                       _depth: int = 0) -> Optional[Tuple[str, str]]:
        """Resolve a dotted origin to ``('function'|'class'|'module', id)``.

        Chases one level of package re-export (``from repro.serve import
        InferenceSession`` finds the class through ``serve/__init__``'s
        own ``from .session import ...``).
        """
        if dotted in self.modules:
            return ("module", dotted)
        head, _, symbol = dotted.rpartition(".")
        if not head:
            return None
        module = self.modules.get(head)
        if module is None:
            return None
        cid = f"{head}.{symbol}"
        if cid in self.classes:
            return ("class", cid)
        fid = cid
        func = self.functions.get(fid)
        if func is not None and func.qualname == symbol:
            return ("function", fid)
        if _depth < 2 and symbol in module.aliases:
            return self.resolve_symbol(module.aliases[symbol], _depth + 1)
        return None

    def resolve_base(self, cls: ClassInfo,
                     base: ast.expr) -> Optional[ClassInfo]:
        """An in-program base class of ``cls``, or ``None`` (external)."""
        module = self.modules[cls.modname]
        if isinstance(base, ast.Name):
            local = self.classes.get(f"{cls.modname}.{base.id}")
            if local is not None:
                return local
            origin = module.aliases.get(base.id)
        else:
            origin = module.ctx.resolve(base)
        if origin is None:
            return None
        resolved = self.resolve_symbol(origin)
        if resolved and resolved[0] == "class":
            return self.classes[resolved[1]]
        return None

    def mro_method(self, cls: ClassInfo, name: str,
                   _seen: Optional[set] = None) -> Optional[str]:
        """fid of ``name`` on ``cls`` or its in-program bases."""
        _seen = _seen or set()
        if cls.cid in _seen:
            return None
        _seen.add(cls.cid)
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.base_exprs:
            parent = self.resolve_base(cls, base)
            if parent is not None:
                found = self.mro_method(parent, name, _seen)
                if found is not None:
                    return found
        return None


def build_program(files, policy: Optional[Policy] = None) -> Program:
    """Parse ``files`` — ``(relpath, source)`` pairs — into a Program."""
    program = Program(policy)
    for relpath, source in files:
        program.add_file(relpath, source)
    return program

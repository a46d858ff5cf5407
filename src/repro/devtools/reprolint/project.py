"""Pass 1 of the whole-program analyzer: per-module summaries.

The RL1xx rule family (:mod:`repro.devtools.reprolint.rules_program`)
reasons about facts that span files — who imports whom, which values
reach an executor boundary, who mutates another module's state.  This
module extracts everything those rules need from *one* file into a
:class:`ModuleSummary`, a small record of plain values.  Pass 2
assembles the summaries into a :class:`ProjectModel`, which adds the
cross-file resolution the per-file pass cannot do (import-alias →
defining module, layer assignment, the import graph).

Everything here is approximate by design — a static over/under-
approximation of Python's dynamic semantics, tuned so the findings it
feeds stay actionable: name chains are resolved through literal import
statements only, executor payloads are matched syntactically at
``run_tasks``/``submit`` call sites, and mutation verbs are a fixed
list of container-mutator method names.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.devtools.reprolint.core import FileContext

__all__ = [
    "ImportRecord",
    "MutationSite",
    "PayloadSuspect",
    "FunctionFacts",
    "ModuleSummary",
    "ProjectModel",
    "module_name_for",
    "summarize_module",
    "EXECUTOR_METHODS",
    "MUTATOR_METHODS",
]

#: Method names treated as executor submission sites.  ``run_tasks`` is
#: the :class:`repro.runtime.executors.Executor` contract; ``submit`` and
#: ``map`` cover raw ``concurrent.futures`` pools.
EXECUTOR_METHODS = frozenset({"run_tasks", "submit", "map"})

#: Container-mutator method names: calling one of these on another
#: module's global is a cross-module state mutation (RL103).
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Module-level calls to these constructors bind immutable values, so
#: the binding is not mutable-state (everything else conservatively is).
_IMMUTABLE_CTORS = frozenset(
    {
        "bool",
        "bytes",
        "complex",
        "float",
        "frozenset",
        "int",
        "namedtuple",
        "property",
        "range",
        "slice",
        "str",
        "tuple",
        "compile",  # re.compile: compiled patterns are immutable
        "TypeVar",
    }
)


@dataclass(frozen=True)
class ImportRecord:
    """One import binding: ``import module`` or ``from module import name``.

    ``name`` is ``None`` for plain ``import module [as asname]``;
    ``toplevel`` distinguishes module-level imports (which create import-
    time edges, hence cycles) from lazy function-level ones.
    """

    module: str
    name: Optional[str]
    asname: Optional[str]
    line: int
    col: int
    toplevel: bool

    @property
    def bound_name(self) -> str:
        """The local name this import binds."""
        if self.asname:
            return self.asname
        if self.name:
            return self.name
        return self.module.split(".")[0]


@dataclass(frozen=True)
class MutationSite:
    """A mutation whose base resolves through a name chain.

    ``chain`` is the dotted access path up to (excluding) the mutation —
    ``opcache.PROBLEM_CACHE.clear()`` records ``("opcache",
    "PROBLEM_CACHE")`` with ``verb="clear"``; ``CACHE["k"] = v`` records
    ``("CACHE",)`` with ``verb="subscript assignment"``.
    """

    chain: Tuple[str, ...]
    verb: str
    line: int
    col: int


@dataclass(frozen=True)
class PayloadSuspect:
    """A suspicious value at an executor submission site (RL102)."""

    line: int
    col: int
    detail: str


@dataclass(frozen=True)
class FunctionFacts:
    """What RL104 needs to know about one module/class-level function."""

    name: str
    line: int
    col: int
    public: bool
    has_doc: bool
    doc_has_shape: bool
    check_shape_chains: Tuple[Tuple[str, ...], ...]


@dataclass
class ModuleSummary:
    """Every program-level fact extracted from one module.

    Pass 1 builds one per file that parses; pass 2 resolves them against
    each other in a :class:`ProjectModel`.
    """

    module: str
    path: str
    imports: List[ImportRecord] = field(default_factory=list)
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    mutations: List[MutationSite] = field(default_factory=list)
    payload_suspects: List[PayloadSuspect] = field(default_factory=list)
    functions: List[FunctionFacts] = field(default_factory=list)
    line_disables: Dict[int, List[str]] = field(default_factory=dict)
    file_disables: List[str] = field(default_factory=list)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """Whether a suppression comment covers ``rule_id`` at ``line``."""
        for ids in (self.file_disables, self.line_disables.get(line, ())):
            if rule_id in ids or "ALL" in ids:
                return True
        return False


def module_name_for(path: Path) -> str:
    """The dotted module name for a source file.

    Walks up while the parent directory is a package (has an
    ``__init__.py``), so ``src/repro/stream/gateway.py`` maps to
    ``repro.stream.gateway`` no matter what the runner was given as a
    root.  A package ``__init__.py`` maps to the package name itself.
    """
    path = Path(path).resolve()
    parts = [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    name = ".".join(reversed(parts))
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


def _dotted_chain(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as ``("a", "b", "c")``; None for non-name bases."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _is_mutable_binding(value: ast.AST) -> bool:
    """Whether a module-level assignment binds a mutable object."""
    if isinstance(
        value,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(value, ast.Call):
        chain = _dotted_chain(value.func)
        if chain is None:
            return True
        return chain[-1] not in _IMMUTABLE_CTORS
    return False


class _ImportCollector(ast.NodeVisitor):
    """Collects every import statement, tagging module-level ones."""

    def __init__(self, toplevel_stmts: Sequence[ast.stmt]) -> None:
        self.records: List[ImportRecord] = []
        # Module-level includes imports guarded one statement down by
        # try/if at the top level (the optional-dependency idiom): they
        # still execute at import time.
        self._toplevel_nodes: Set[int] = set()
        for stmt in toplevel_stmts:
            self._mark(stmt)

    def _mark(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._toplevel_nodes.add(id(stmt))
        elif isinstance(stmt, (ast.If, ast.Try)):
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    self._mark(sub)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.records.append(
                ImportRecord(
                    module=alias.name,
                    name=None,
                    asname=alias.asname,
                    line=node.lineno,
                    col=node.col_offset,
                    toplevel=id(node) in self._toplevel_nodes,
                )
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            # Relative imports are rare in this tree; skip rather than
            # mis-resolve them.
            return
        for alias in node.names:
            self.records.append(
                ImportRecord(
                    module=node.module,
                    name=alias.name,
                    asname=alias.asname,
                    line=node.lineno,
                    col=node.col_offset,
                    toplevel=id(node) in self._toplevel_nodes,
                )
            )


def _collect_mutations(tree: ast.Module) -> List[MutationSite]:
    """Every syntactic mutation site whose base is a name chain."""
    sites: List[MutationSite] = []

    def record(base: ast.AST, verb: str, node: ast.AST) -> None:
        chain = _dotted_chain(base)
        if chain is not None:
            sites.append(
                MutationSite(
                    chain=chain,
                    verb=verb,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS
            ):
                record(func.value, f"{func.attr}()", node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript):
                    record(target.value, "subscript assignment", node)
                elif isinstance(target, ast.Attribute) and isinstance(
                    node, (ast.AugAssign,)
                ):
                    # mod.NAME += ... rebinds another module's attribute.
                    chain = _dotted_chain(target)
                    if chain is not None and len(chain) > 1:
                        sites.append(
                            MutationSite(
                                chain=chain[:-1],
                                verb=f"augmented assignment to .{chain[-1]}",
                                line=node.lineno,
                                col=node.col_offset,
                            )
                        )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    record(target.value, "del", node)
    return sites


class _PayloadScanner(ast.NodeVisitor):
    """Finds lambdas/locally-defined callables reaching executor calls.

    Tracks, per enclosing function scope, the names bound to values that
    cannot survive pickling to a worker process: lambdas, nested ``def``s,
    local classes, and instances of local classes.  At each
    ``*.run_tasks(...)`` / ``*.submit(...)`` / ``*.map(...)`` call inside
    a function, arguments that are lambda expressions or such names are
    reported.
    """

    def __init__(self) -> None:
        self.suspects: List[PayloadSuspect] = []
        self._scope: List[Dict[str, str]] = []

    # -- scope bookkeeping -------------------------------------------------
    def _enter(self, node: ast.AST) -> None:
        local: Dict[str, str] = {}
        body = getattr(node, "body", [])
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local[stmt.name] = "locally-defined function"
            elif isinstance(stmt, ast.ClassDef):
                local[stmt.name] = "locally-defined class"
        self._scope.append(local)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter(node)
        self.generic_visit(node)
        self._scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._scope:
            kind = None
            if isinstance(node.value, ast.Lambda):
                kind = "lambda"
            elif isinstance(node.value, ast.Call) and isinstance(
                node.value.func, ast.Name
            ):
                bound = self._lookup(node.value.func.id)
                if bound == "locally-defined class":
                    kind = "instance of a locally-defined class"
            if kind is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._scope[-1][target.id] = kind
        self.generic_visit(node)

    def _lookup(self, name: str) -> Optional[str]:
        for local in reversed(self._scope):
            if name in local:
                return local[name]
        return None

    # -- submission sites --------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        site = None
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in EXECUTOR_METHODS:
                site = node.func.attr
        elif isinstance(node.func, ast.Name) and node.func.id == "run_tasks":
            site = "run_tasks"
        if site is not None and self._scope:
            for arg in list(node.args) + [
                kw.value for kw in node.keywords if kw.arg is not None
            ]:
                self._inspect_arg(arg, site)
        self.generic_visit(node)

    def _inspect_arg(self, arg: ast.AST, site: str) -> None:
        if isinstance(arg, ast.Lambda):
            self.suspects.append(
                PayloadSuspect(
                    line=arg.lineno,
                    col=arg.col_offset,
                    detail=f"lambda passed to {site}() cannot be pickled "
                    "to a worker process",
                )
            )
            return
        if isinstance(arg, ast.Name):
            kind = self._lookup(arg.id)
            if kind is not None:
                self.suspects.append(
                    PayloadSuspect(
                        line=arg.lineno,
                        col=arg.col_offset,
                        detail=f"{kind} {arg.id!r} passed to {site}() "
                        "cannot be pickled to a worker process",
                    )
                )


_SHAPE_WORDS = None  # lazily borrowed from rules.ReturnShapeDocRule


def _doc_has_shape(doc: Optional[str]) -> bool:
    global _SHAPE_WORDS
    if doc is None:
        return False
    if _SHAPE_WORDS is None:
        from repro.devtools.reprolint.rules import ReturnShapeDocRule

        _SHAPE_WORDS = ReturnShapeDocRule._SHAPE_WORDS
    return bool(_SHAPE_WORDS.search(doc))


def _collect_functions(tree: ast.Module) -> List[FunctionFacts]:
    """Module/class-level functions with their check_shape call chains."""
    facts: List[FunctionFacts] = []

    def walk_defs(body: Iterable[ast.stmt]):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield stmt
            elif isinstance(stmt, (ast.ClassDef, ast.If, ast.Try)):
                yield from walk_defs(stmt.body)

    for func in walk_defs(tree.body):
        chains: List[Tuple[str, ...]] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                chain = _dotted_chain(node.func)
                if chain is not None and chain[-1] == "check_shape":
                    chains.append(chain)
        doc = ast.get_docstring(func)
        facts.append(
            FunctionFacts(
                name=func.name,
                line=func.lineno,
                col=func.col_offset,
                public=not func.name.startswith("_"),
                has_doc=doc is not None,
                doc_has_shape=_doc_has_shape(doc),
                check_shape_chains=tuple(chains),
            )
        )
    return facts


def summarize_module(ctx: FileContext, module: Optional[str] = None) -> ModuleSummary:
    """Extract a :class:`ModuleSummary` from one parsed file."""
    tree = ctx.tree
    collector = _ImportCollector(tree.body)
    collector.visit(tree)

    mutable_globals: Dict[str, int] = {}
    for stmt in tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
            value: Optional[ast.AST] = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
            value = stmt.value
        else:
            continue
        if value is not None and _is_mutable_binding(value):
            for target in targets:
                if isinstance(target, ast.Name) and target.id != "__all__":
                    mutable_globals.setdefault(target.id, stmt.lineno)

    scanner = _PayloadScanner()
    scanner.visit(tree)

    return ModuleSummary(
        module=module or module_name_for(ctx.path),
        path=str(ctx.path),
        imports=collector.records,
        mutable_globals=mutable_globals,
        mutations=_collect_mutations(tree),
        payload_suspects=scanner.suspects,
        functions=_collect_functions(tree),
        line_disables={k: sorted(v) for k, v in ctx.line_disables.items()},
        file_disables=sorted(ctx.file_disables),
    )


class ProjectModel:
    """Pass 2's view: every module summary plus cross-file resolution."""

    def __init__(self, summaries: Sequence[ModuleSummary], layers=None) -> None:
        if layers is None:
            from repro.devtools.reprolint.graph import REPRO_LAYERS

            layers = REPRO_LAYERS
        self.layers = layers
        self.summaries: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.summaries[summary.module] = summary
        self.modules: Set[str] = set(self.summaries)

    def __len__(self) -> int:
        return len(self.summaries)

    def ordered(self) -> List[ModuleSummary]:
        """Summaries in deterministic module-name order."""
        return [self.summaries[m] for m in sorted(self.summaries)]

    # -- name resolution ---------------------------------------------------
    def alias_tables(
        self, summary: ModuleSummary
    ) -> Tuple[Dict[str, str], Dict[str, Tuple[str, str]]]:
        """``(module aliases, from-import name bindings)`` for one module.

        Module aliases map a local name to a dotted module; name bindings
        map a local name to ``(module, original name)``.  A from-import
        of a project submodule counts as a module alias.
        """
        mod_aliases: Dict[str, str] = {}
        name_bindings: Dict[str, Tuple[str, str]] = {}
        for rec in summary.imports:
            if rec.name is None:
                if rec.asname:
                    mod_aliases[rec.asname] = rec.module
                else:
                    mod_aliases[rec.module.split(".")[0]] = rec.module.split(
                        "."
                    )[0]
            else:
                sub = f"{rec.module}.{rec.name}"
                if sub in self.modules:
                    mod_aliases[rec.bound_name] = sub
                else:
                    name_bindings[rec.bound_name] = (rec.module, rec.name)
        return mod_aliases, name_bindings

    def resolve_chain(
        self, summary: ModuleSummary, chain: Tuple[str, ...]
    ) -> Optional[Tuple[str, str]]:
        """Resolve a dotted access chain to ``(defining module, name)``.

        Returns None when the chain does not resolve through this
        module's literal imports (locals, builtins, self-references).
        """
        if not chain:
            return None
        mod_aliases, name_bindings = self.alias_tables(summary)
        head = chain[0]
        if head in name_bindings and len(chain) >= 1:
            module, name = name_bindings[head]
            return module, name
        if head in mod_aliases:
            base = mod_aliases[head]
            rest = list(chain[1:])
            # Extend through dotted submodules: `import repro` followed by
            # `repro.recovery.opcache.PROBLEM_CACHE...`.
            while rest and f"{base}.{rest[0]}" in self.modules:
                base = f"{base}.{rest[0]}"
                rest.pop(0)
            if rest:
                return base, rest[0]
        return None

    def import_targets(self, rec: ImportRecord) -> List[str]:
        """Project modules an import record refers to."""
        targets: List[str] = []
        if rec.name is None:
            if rec.module in self.modules:
                targets.append(rec.module)
        else:
            sub = f"{rec.module}.{rec.name}"
            if sub in self.modules:
                targets.append(sub)
            elif rec.module in self.modules:
                targets.append(rec.module)
        return targets

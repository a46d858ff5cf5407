"""Import graph and layer config for the whole-program pass.

The repository's architecture is a strict layering: infrastructure at
the bottom, the paper's science in the middle, the runtime and serving
surfaces on top.  RL100 checks every import edge against the declared
:data:`REPRO_LAYERS`; RL101 finds strongly-connected components (import
cycles) in the module-level graph; RL105 walks the imports from the
config's declared roots (the product's entry points) and flags every
layered module they never reach.  The config is data, not convention:
``tests/devtools`` carries meta-tests asserting that every package
under ``src/repro`` is named here and that every example script and
figure driver is a root, so neither check can be dodged by omission.

The declared order refines the coarse sketch in ``docs/architecture.md``
to what the tree actually enforces (measured, then pinned):

    devtools  ⇣  signals/sensing/wavelets/metrics/coding  ⇣  recovery
    ⇣  core/power  ⇣  runtime  ⇣  experiments  ⇣  stream  ⇣  cli

Lower layers must never import higher ones; imports within one layer
are unconstrained.  ``repro.core`` sits *above* ``repro.recovery``
because the receiver half of the paper's link (Eq. 1) is built on the
solver stack, and ``repro.experiments`` sits above ``repro.runtime``
because sweep drivers schedule work through the engine.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.reprolint.project import ModuleSummary, ProjectModel

__all__ = [
    "LayerConfig",
    "REPRO_LAYERS",
    "build_import_graph",
    "find_cycles",
    "first_import_line",
    "reachable_modules",
]


def _under(module: str, prefix: str) -> bool:
    """Whether ``module`` is ``prefix`` or lies below it (dotted names)."""
    return module == prefix or module.startswith(prefix + ".")


class LayerConfig:
    """An ordered sequence of named layers, each a set of module prefixes.

    A module belongs to the layer holding its *longest* matching prefix
    (prefixes match on dotted-name boundaries).  Modules matching no
    prefix are outside the config and exempt from RL100 and RL105 —
    coverage of the real tree is enforced separately by the layer
    meta-test.  ``roots`` are the module prefixes of the entry points
    RL105 walks from; a config without roots turns RL105 off.
    """

    def __init__(
        self,
        layers: Sequence[Tuple[str, Sequence[str]]],
        roots: Sequence[str] = (),
    ) -> None:
        if not layers:
            raise ValueError("layer config cannot be empty")
        self.layers: Tuple[Tuple[str, Tuple[str, ...]], ...] = tuple(
            (str(name), tuple(prefixes)) for name, prefixes in layers
        )
        self.roots: Tuple[str, ...] = tuple(roots)
        seen: Set[str] = set()
        for _, prefixes in self.layers:
            for prefix in prefixes:
                if prefix in seen:
                    raise ValueError(f"prefix {prefix!r} appears twice")
                seen.add(prefix)

    @property
    def names(self) -> Tuple[str, ...]:
        """Layer names, bottom to top."""
        return tuple(name for name, _ in self.layers)

    @property
    def prefixes(self) -> Tuple[str, ...]:
        """Every declared module prefix, in declaration order."""
        return tuple(p for _, prefixes in self.layers for p in prefixes)

    def layer_of(self, module: str) -> Optional[int]:
        """The layer index for ``module`` (0 = bottom), or None."""
        best: Optional[Tuple[int, int]] = None  # (prefix length, index)
        for index, (_, prefixes) in enumerate(self.layers):
            for prefix in prefixes:
                if _under(module, prefix):
                    cand = (len(prefix), index)
                    if best is None or cand[0] > best[0]:
                        best = cand
        return None if best is None else best[1]

    def layer_name(self, index: int) -> str:
        """The name of layer ``index``."""
        return self.layers[index][0]

    def unassigned(self, modules: Sequence[str]) -> List[str]:
        """Modules matching no declared prefix (meta-test helper)."""
        return sorted(m for m in modules if self.layer_of(m) is None)

    def is_root(self, module: str) -> bool:
        """Whether ``module`` is, or lies below, a declared root."""
        return any(_under(module, root) for root in self.roots)

    def missing_roots(self, modules: Iterable[str]) -> List[str]:
        """Declared roots that none of ``modules`` is or lies below."""
        modules = list(modules)
        return [
            root
            for root in self.roots
            if not any(_under(m, root) for m in modules)
        ]


#: The pinned layering of ``src/repro`` (bottom to top).  Every package
#: and top-level module must appear; the meta-test in
#: ``tests/devtools/test_program_rules.py`` enforces coverage.  The roots
#: are the product's entry points: the CLI, the runtime and serving
#: packages, the paper's figure drivers and the example scripts (linted
#: from ``examples/``, where each is a top-level module).
REPRO_LAYERS = LayerConfig(
    [
        ("devtools", ["repro.devtools"]),
        (
            "foundation",
            [
                "repro.signals",
                "repro.sensing",
                "repro.wavelets",
                "repro.metrics",
                "repro.coding",
            ],
        ),
        ("recovery", ["repro.recovery"]),
        ("frontend", ["repro.core", "repro.power"]),
        ("runtime", ["repro.runtime"]),
        ("experiments", ["repro.experiments"]),
        # The sharded cluster runtime and load generator are registered
        # explicitly alongside the base streaming package: they live in
        # the same layer (cluster builds on gateway/wire, loadgen builds
        # on cluster) and may not be imported from below it.
        (
            "stream",
            [
                "repro.stream",
                "repro.stream.cluster",
                "repro.stream.loadgen",
            ],
        ),
        ("surface", ["repro.cli", "repro.__main__", "repro"]),
    ],
    roots=[
        "repro.cli",
        "repro.__main__",
        "repro.runtime",
        "repro.stream",
        "repro.experiments.fig2",
        "repro.experiments.fig4",
        "repro.experiments.fig5_fig6_table1",
        "repro.experiments.fig7",
        "repro.experiments.fig8",
        "repro.experiments.fig9",
        "repro.experiments.fig11",
        "repro.experiments.headline",
        "repro.experiments.report",
        "repro.experiments.runner",
        "adaptive_node",
        "codebook_designer",
        "hf_superresolution",
        "holter_compression",
        "power_budget_explorer",
        "quickstart",
        "rmpi_hardware_sim",
    ],
)


def build_import_graph(
    project: ProjectModel, toplevel_only: bool = True
) -> Dict[str, Set[str]]:
    """Module-level import edges between project modules.

    Self-edges (a package ``__init__`` importing its own submodules) are
    dropped: they are the standard re-export idiom, not cycles.  With
    ``toplevel_only`` (the RL101 configuration) lazy function-level
    imports do not create edges — deferring an import *is* the
    sanctioned way to break an import-time cycle.
    """
    graph: Dict[str, Set[str]] = {m: set() for m in project.modules}
    for summary in project.ordered():
        for rec in summary.imports:
            if toplevel_only and not rec.toplevel:
                continue
            for target in project.import_targets(rec):
                if target != summary.module:
                    graph[summary.module].add(target)
    return graph


def _is_package(summary: ModuleSummary) -> bool:
    return Path(summary.path).name == "__init__.py"


def _reexport_origin(project: ProjectModel, package: str, name: str) -> List[str]:
    """Where ``from package import name`` takes ``name`` from.

    Follows the package's own top-level binding of ``name`` through
    nested package re-exports to the module that defines it.  Empty when
    ``package`` is not a package or binds ``name`` itself.
    """
    origin: List[str] = []
    seen: Set[Tuple[str, str]] = set()
    while (package, name) not in seen:
        seen.add((package, name))
        summary = project.summaries.get(package)
        if summary is None or not _is_package(summary):
            break
        rec = next(
            (r for r in summary.imports if r.toplevel and r.bound_name == name),
            None,
        )
        if rec is None:
            break
        targets = project.import_targets(rec)
        origin.extend(targets)
        if rec.name is None or targets != [rec.module]:
            break  # `import m as name`, or `from p import submodule`
        package, name = rec.module, rec.name
    return origin


def _reached_by(project: ProjectModel, summary: ModuleSummary) -> Iterator[str]:
    """Project modules that ``summary``'s imports, lazy ones included, need.

    An import of a module always counts, so a package that imports its
    own submodule (a registration import) reaches it.  A package's
    top-level ``from m import name`` is a re-export and reaches nothing
    by itself; a module that imports ``name`` from the package reaches
    the module the name comes from.
    """
    package = _is_package(summary)
    for rec in summary.imports:
        targets = project.import_targets(rec)
        if rec.name is None or targets != [rec.module]:
            yield from targets
        elif not (package and rec.toplevel):
            yield from targets
            yield from _reexport_origin(project, rec.module, rec.name)


def reachable_modules(project: ProjectModel, roots: Iterable[str]) -> Set[str]:
    """Every project module that ``roots`` reach through their imports.

    Reaching a module also reaches the packages that contain it, since
    importing it runs their ``__init__``.
    """
    reached: Set[str] = set()
    stack = sorted(roots)
    while stack:
        module = stack.pop()
        if module in reached or module not in project.summaries:
            continue
        reached.add(module)
        parts = module.split(".")
        stack.extend(".".join(parts[:i]) for i in range(1, len(parts)))
        stack.extend(_reached_by(project, project.summaries[module]))
    return reached


def find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly-connected components with more than one module.

    Iterative Tarjan, deterministic: neighbours are visited in sorted
    order and each cycle is rotated to start at its smallest module.
    The result is sorted by that anchor module.
    """
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    cycles: List[List[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            children = sorted(graph[node])
            if child_i < len(children):
                work[-1] = (node, child_i + 1)
                child = children[child_i]
                if child not in index:
                    work.append((child, 0))
                elif child in on_stack:
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    scc: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    if len(scc) > 1:
                        anchor = min(scc)
                        # Rotate so the cycle starts at its smallest
                        # member; keep the actual edge order by walking
                        # the SCC restricted graph.
                        scc_set = set(scc)
                        ordered = [anchor]
                        while len(ordered) < len(scc):
                            nxt = next(
                                (
                                    m
                                    for m in sorted(graph[ordered[-1]])
                                    if m in scc_set and m not in ordered
                                ),
                                None,
                            )
                            if nxt is None:
                                ordered.extend(
                                    sorted(scc_set - set(ordered))
                                )
                                break
                            ordered.append(nxt)
                        cycles.append(ordered)
    return sorted(cycles)


def first_import_line(
    summary: ModuleSummary, target: str, project: ProjectModel
) -> Tuple[int, int]:
    """Line/col of the first import in ``summary`` hitting ``target``."""
    for rec in sorted(summary.imports, key=lambda r: (r.line, r.col)):
        if target in project.import_targets(rec):
            return rec.line, rec.col
    return 1, 0

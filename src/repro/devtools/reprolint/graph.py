"""Import graph and layer config for the whole-program pass.

The repository's architecture is a strict layering: infrastructure at
the bottom, the paper's science in the middle, the runtime and serving
surfaces on top.  RL100 checks every import edge against the declared
:data:`REPRO_LAYERS`; RL101 finds strongly-connected components (import
cycles) in the module-level graph.  The config is data, not convention:
``tests/devtools`` carries a meta-test asserting that every package
under ``src/repro`` is named here, so a new package cannot dodge the
layering check by omission.

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

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.devtools.reprolint.project import ModuleSummary, ProjectModel

__all__ = [
    "LayerConfig",
    "REPRO_LAYERS",
    "build_import_graph",
    "find_cycles",
    "first_import_line",
]


class LayerConfig:
    """An ordered sequence of named layers, each a set of module prefixes.

    A module belongs to the layer holding its *longest* matching prefix
    (prefixes match on dotted-name boundaries).  Modules matching no
    prefix are outside the config and exempt from RL100 — coverage of
    the real tree is enforced separately by the layer meta-test.
    """

    def __init__(self, layers: Sequence[Tuple[str, Sequence[str]]]) -> None:
        if not layers:
            raise ValueError("layer config cannot be empty")
        self.layers: Tuple[Tuple[str, Tuple[str, ...]], ...] = tuple(
            (str(name), tuple(prefixes)) for name, prefixes in layers
        )
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
                if module == prefix or module.startswith(prefix + "."):
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


#: The pinned layering of ``src/repro`` (bottom to top).  Every package
#: and top-level module must appear; the meta-test in
#: ``tests/devtools/test_program_rules.py`` enforces coverage.
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
    ]
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

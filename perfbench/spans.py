"""In-memory span tracer installed around the repo's public entry points.

The benchmark never edits ``src/``: a :class:`Tracer` replaces selected
functions and methods with thin wrappers while it is installed, and puts
the originals back when it is removed.  Each wrapper records one span per
call: its total time and its *self* time (total minus the time of the
spans nested inside it).  Self times of all spans plus the untraced
remainder add up to the traced wall time.

The coverage metric counts only the self time of layers that do work of
their own.  The self time of a :data:`DISPATCH_LAYERS` span is where the
time of an unwrapped callee would land, so coverage counts it as
untraced: a layer that loses its patch point lowers the figure.

Patch points name the module attribute a caller actually looks up, so a
function imported by name into another module (``solve_hybrid`` in
``repro.core.receiver``) is wrapped where the receiver resolves it.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["LayerStat", "Tracer", "PATCH_POINTS", "DISPATCH_LAYERS"]


@dataclass
class LayerStat:
    """Accumulated spans of one layer name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    iterations: int = 0
    unconverged: int = 0


#: (module, attribute path, layer name, records solver results).
#: Several patch points may share one layer name; their spans pool.
PATCH_POINTS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.runtime.engine", "ExecutionEngine.run_jobs", "runtime.engine", False),
    ("repro.runtime.stages", "encode", "runtime.stages.encode", False),
    ("repro.runtime.stages", "transport", "runtime.stages.transport", False),
    ("repro.runtime.stages", "recover", "runtime.stages.recover", False),
    ("repro.runtime.stages", "score", "runtime.stages.score", False),
    ("repro.runtime.stages", "prd_metric", "metrics.prd", False),
    ("repro.stream.session", "prd_metric", "metrics.prd", False),
    ("repro.core.receiver", "HybridReceiver.reconstruct", "core.receiver.reconstruct", False),
    ("repro.core.receiver", "HybridReceiver.decode_measurements", "core.receiver.decode_measurements", False),
    ("repro.core.receiver", "HybridReceiver.decode_lowres", "core.receiver.decode_lowres", False),
    ("repro.core.receiver", "solve_hybrid", "recovery.hybrid", True),
    ("repro.core.receiver", "solve_bpdn", "recovery.normal", True),
    ("repro.core.receiver", "solve_bsbl_dequant", "recovery.bsbl-dequant", True),
    ("repro.coding.codebook", "DifferenceCodebook.encode_window", "coding.huffman_encode", False),
    ("repro.coding.codebook", "DifferenceCodebook.encode_windows", "coding.huffman_encode", False),
    ("repro.coding.codebook", "DifferenceCodebook.decode_window", "coding.huffman_decode", False),
    ("repro.core.frontend", "measure_window_stack", "core.encode.measure", False),
    ("repro.core.frontend", "_CsPath.measure", "core.encode.measure", False),
    ("repro.core.packets", "WindowPacket.to_bytes", "core.packet_to_bytes", False),
    ("repro.core.channel", "LossyLink.transmit", "core.channel.transmit", False),
    ("repro.stream.ingest", "IngestSession.push", "stream.ingest_push", False),
    ("repro.stream.wire", "encode_frame", "stream.wire_encode", False),
    ("repro.stream.wire", "FrameAssembler.feed", "stream.wire_decode", False),
    ("repro.stream.gateway", "StreamGateway.submit", "stream.submit", False),
    ("repro.stream.gateway", "StreamGateway.poll", "stream.poll", False),
)

#: Layers that only hand work on to other traced layers: the engine's job
#: loop, the recover stage, the receiver's reconstruct and the gateway's
#: poll.  Their self time is bookkeeping (well under 1% of a window).
DISPATCH_LAYERS = frozenset(
    {"runtime.engine", "runtime.stages.recover", "core.receiver.reconstruct", "stream.poll"}
)


class Tracer:
    """Span recorder; wrappers are live only between install and remove."""

    def __init__(self, points: Sequence[Tuple[str, str, str, bool]] = PATCH_POINTS) -> None:
        self.points = tuple(points)
        self.stats: Dict[str, LayerStat] = {}
        self._stack: List[float] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        #: Patch points whose target no longer exists (renamed or removed);
        #: a traced run with any of them is not correct.
        self.missing: List[str] = []

    def stat(self, name: str) -> LayerStat:
        """The accumulated spans of ``name`` (empty if it never ran)."""
        return self.stats.get(name) or LayerStat()

    @property
    def covered_s(self) -> float:
        """Self time of every layer that works on its own account."""
        return sum(
            s.self_s for name, s in self.stats.items() if name not in DISPATCH_LAYERS
        )

    def wrap(self, fn: Callable, name: str, solver: bool = False) -> Callable:
        """A wrapper that times each call of ``fn`` as a span ``name``."""
        stats = self.stats.setdefault(name, LayerStat())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if solver:
                stats.iterations += int(out.iterations)
                stats.unconverged += 0 if out.converged else 1
            return out

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> "Tracer":
        """Wrap every patch point; idempotent per tracer."""
        if self._saved:
            return self
        for module_name, path, name, solver in self.points:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            namespace = vars(owner) if owner is not None else {}
            if attr not in namespace:
                self.missing.append(f"{module_name}.{path}")
                continue
            original = namespace[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, solver))
        return self

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: Optional[BaseException]) -> None:
        self.remove()

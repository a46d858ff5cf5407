"""The benchmark's workloads: inputs from a seed, a timed run, checks.

Each workload is a class with three steps:

* ``setup()`` synthesizes the records, trains the codebook, builds the
  links and touches the lazily built operators: everything a user pays
  once per process.
* ``measure(seconds, tracer)`` runs the timed region and returns a
  :class:`Measurement`.  The offline workloads repeat one fixed *pass*
  over their windows until ``seconds`` have elapsed, so every run does
  identical work; the gateway is paced in real time.
* ``checks()`` verifies the outputs against the behaviour recorded when
  this benchmark was written (untimed).

Each workload reads a fixed panel of the 48 synthetic records, so every
seed does the same work on the same windows.  The seed draws the order in
which that work is scheduled: engine job order, and which patient gets
which phase.  It picks neither windows nor
lossy-link realisations: per-window PRD and solver iterations vary by
10-50% between records and even within one record, and a lost or
corrupted frame breaks a warm-start chain or forces a slow fallback
solve, so the few windows a run can afford would make seeds differ by
more than any useful regression bound.
"""

from __future__ import annotations

import contextlib
import heapq
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.channel import LossyLink
from repro.core.codebooks import CodebookKey, build_codebook
from repro.core.config import DEFAULT_CONFIG
from repro.core.frontend import HybridFrontEnd
from repro.experiments.runner import SMALL_SCALE
from repro.runtime import stages
from repro.runtime.engine import ExecutionEngine, RecordJob
from repro.runtime.executors import SerialExecutor
from repro.runtime.task import CodebookSpec
from repro.signals.database import interleave_playback, load_record
from repro.signals.records import Record
from repro.stream import wire
from repro.stream.gateway import StreamGateway
from repro.stream.ingest import IngestSession, StreamFrame
from repro.stream.session import PatientSession

from spans import Tracer

__all__ = ["WORKLOADS", "Measurement"]

FS_HZ = 360.0
WINDOW_LEN = DEFAULT_CONFIG.window_len
#: One window period, the gateway's per-window latency limit (≈1.42 s).
WINDOW_PERIOD_S = WINDOW_LEN / FS_HZ
CODEBOOK_KEY = CodebookKey(
    lowres_bits=DEFAULT_CONFIG.lowres_bits,
    acquisition_bits=DEFAULT_CONFIG.acquisition_bits,
)
HYBRID_SPEC = CodebookSpec.default(CODEBOOK_KEY)


@dataclass
class Measurement:
    """What one timed region produced."""

    windows: int = 0  # windows completed (decoded or concealed)
    pass_rates: List[float] = field(default_factory=list)  # windows/s, offline passes
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    idle_s: float = 0.0  # paced sleeping, not work
    latencies_s: List[float] = field(default_factory=list)
    prds: List[float] = field(default_factory=list)
    bits_sent: int = 0
    bits_original: int = 0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return self.wall_s - self.idle_s

    @property
    def windows_per_s(self) -> float:
        """Median rate over the passes (robust to one stalled pass), else the mean."""
        if self.pass_rates:
            return statistics.median(self.pass_rates)
        return self.windows / self.wall_s

    @property
    def net_cr_pct(self) -> float:
        return 100.0 * (1.0 - self.bits_sent / self.bits_original)


def seeded_order(seed: int, salt: int, count: int) -> List[int]:
    """The seed's permutation of ``range(count)``."""
    rng = np.random.default_rng([seed, salt])
    return [int(i) for i in rng.permutation(count)]


def first_touch(config, method: str, spec: CodebookSpec) -> None:
    """Build a link and the operator state its solver builds lazily."""
    problem = stages.link_for_params(config, method, spec).receiver.problem
    problem.a  # the composed ΦΨ, and Ψ with it
    problem.opnorm_sq()
    if method.startswith("bsbl"):
        problem.gram()


def batched_encode_matches(frontend: HybridFrontEnd, windows: np.ndarray) -> bool:
    """Batched encode is byte-equal to ``process_window`` on ``windows``."""
    batched = frontend.encode_windows(windows)
    return all(
        packet.to_bytes() == frontend.process_window(w, i).to_bytes()
        for i, (w, packet) in enumerate(zip(windows, batched))
    )


def first_windows(records: Sequence[Record], count: int = 1) -> np.ndarray:
    """The first ``count`` windows of each record, stacked."""
    return np.stack(
        [w for r in records for w, _ in zip(r.windows(WINDOW_LEN), range(count))]
    )


#: Wire bytes of the fixed probe (records 100 and 101, 20 s each, in
#: 4 s chunks) as the code framed them when this benchmark was written.
PROBE_WIRE_BYTES = 6973


def probe_wire_bytes() -> int:
    """Frame the fixed probe through fresh ingest sessions; count wire bytes."""
    records = [load_record(n, duration_s=20.0) for n in ("100", "101")]
    nodes = {
        r.name: IngestSession(r.name, DEFAULT_CONFIG, method="hybrid", carry_reference=False)
        for r in records
    }
    return sum(
        len(wire.encode_frame(frame))
        for name, chunk in interleave_playback(records, 1440)
        for frame in nodes[name].push(chunk)
    )


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class TimedSerialExecutor(SerialExecutor):
    """The serial executor, timing each window task it runs."""

    def __init__(self) -> None:
        self.latencies_s: List[float] = []

    def run_tasks(self, tasks, fn=None):
        fn = fn or stages.execute_window_task
        clock = time.perf_counter
        out = []
        for task in tasks:
            start = clock()
            out.append(fn(task))
            self.latencies_s.append(clock() - start)
        return out


class CountingSession(PatientSession):
    """A gateway session that keeps (mode, converged, PRD) per solved window."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.outcomes: List[Tuple[str, bool, Optional[float]]] = []

    def apply(self, planned, result):
        mode = super().apply(planned, result)
        if result is not None:
            self.outcomes.append((mode, result.converged, result.prd_percent))
        return mode


class Workload:
    """Seed, size and set-up bookkeeping shared by the workloads."""

    name = ""
    salt = 0

    def __init__(self, seed: int, seconds: float, tiny: bool = False) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.tiny = bool(tiny)
        self.setup_layers: Dict[str, float] = {}
        self.check_results: Dict[str, bool] = {}

    def _load_records(self, names: Sequence[str], duration_s: float) -> List[Record]:
        start = time.perf_counter()
        records = [load_record(n, duration_s=duration_s) for n in names]
        self.setup_layers["signals.synth_s"] = time.perf_counter() - start
        return records

    def _build_codebook(self):
        start = time.perf_counter()
        codebook = build_codebook(CODEBOOK_KEY)
        self.setup_layers["core.codebook_build_s"] = time.perf_counter() - start
        return codebook


class _EngineWorkload(Workload):
    """Offline path: window jobs through the ``ExecutionEngine``.

    One pass is the (method × CR × record) grid on the first window of
    each panel record, in the seed's job order, run by the serial
    executor.  Like ``sweep_compression_ratios(..., cache=False)`` no
    disk cache is consulted, so every pass really solves.
    """

    crs: Tuple[float, ...] = ()
    methods: Tuple[str, ...] = ()
    panel: Tuple[str, ...] = ()
    tiny_panel = 1
    #: Mean PRD per (method, CR) on the full panel as the code decoded
    #: it when this benchmark was written; a run must stay within
    #: ``PRD_BAND`` of it.
    seed_prd: Dict[Tuple[str, float], float] = {}
    PRD_BAND = (0.9, 1.05)

    def setup(self) -> None:
        names = self.panel[: self.tiny_panel] if self.tiny else self.panel
        self.records = self._load_records(names, 2 * WINDOW_PERIOD_S)
        codebook = self._build_codebook()
        for cr in self.crs:
            for method in self.methods:
                spec = CodebookSpec.none() if method == "normal" else HYBRID_SPEC
                first_touch(DEFAULT_CONFIG.for_cr(cr), method, spec)
        sample = first_windows(self.records[:2])
        self.check_results["batched_encode_byte_equal"] = all(
            batched_encode_matches(HybridFrontEnd(DEFAULT_CONFIG.for_cr(cr), codebook), sample)
            for cr in self.crs
        )

    def _pass(self, executor, methods: Sequence[str] = ()) -> Dict[Tuple[str, float], list]:
        """One engine batch over the grid; outcomes keyed by (method, CR)."""
        grid = [
            (m, cr, r) for m in methods or self.methods for cr in self.crs for r in self.records
        ]
        order = seeded_order(self.seed, self.salt, len(grid))
        jobs = [
            RecordJob(
                record=grid[i][2],
                config=DEFAULT_CONFIG.for_cr(grid[i][1]),
                method=grid[i][0],
                max_windows=1,
            )
            for i in order
        ]
        outcomes = ExecutionEngine(executor=executor).run_jobs(jobs)
        cells: Dict[Tuple[str, float], list] = {}
        for i, outcome in sorted(zip(order, outcomes), key=lambda pair: pair[0]):
            cells.setdefault(grid[i][:2], []).append(outcome)
        return cells

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Measurement:
        meas = Measurement()
        executor = TimedSerialExecutor()
        passes = []
        start = time.perf_counter()
        with tracer or contextlib.nullcontext():
            while True:
                pass_start = time.perf_counter()
                done = len(executor.latencies_s)
                passes.append(self._pass(executor))
                pass_end = time.perf_counter()
                meas.pass_rates.append(
                    (len(executor.latencies_s) - done) / (pass_end - pass_start)
                )
                elapsed = pass_end - start
                # Stop at the pass boundary nearest to ``seconds``.
                if elapsed + elapsed / len(passes) / 2 >= seconds:
                    break
        meas.wall_s = time.perf_counter() - start
        meas.latencies_s = executor.latencies_s
        windows = [
            [w for outs in cells.values() for o in outs for w in o.windows]
            for cells in passes
        ]
        self.check_results["passes_identical"] = all(
            [w.prd_percent for w in ws] == [w.prd_percent for w in windows[0]]
            for ws in windows
        )
        for ws in windows:
            meas.windows += len(ws)
            meas.failed += sum(1 for w in ws if not w.solver_converged)
        meas.attempted = meas.windows
        for w in windows[0]:
            meas.prds.append(w.prd_percent)
            meas.bits_sent += w.budget.total_bits
            meas.bits_original += w.budget.original_bits
        self.cell_prd = {
            cell: float(np.mean([o.mean_prd for o in outs]))
            for cell, outs in passes[0].items()
        }
        return meas

    def checks(self) -> Dict[str, bool]:
        if not self.tiny:
            lo, hi = self.PRD_BAND
            self.check_results["prd_within_seed_band"] = all(
                lo * ref <= self.cell_prd[cell] <= hi * ref
                for cell, ref in self.seed_prd.items()
            )
        return self.check_results


class SweepFig7(_EngineWorkload):
    """``hybrid`` and ``normal`` at three CRs of the Fig. 7 grid."""

    name = "sweep_fig7"
    crs = (50.0, 75.0, 81.0)
    methods = ("hybrid", "normal")
    panel = SMALL_SCALE.record_names
    tiny_panel = 2
    salt = 7
    seed_prd = {
        ("hybrid", 50.0): 5.5557,
        ("hybrid", 75.0): 8.1413,
        ("hybrid", 81.0): 8.9530,
        ("normal", 50.0): 9.4129,
        ("normal", 75.0): 41.4392,
        ("normal", 81.0): 56.8646,
    }

    def checks(self) -> Dict[str, bool]:
        self.check_results["hybrid_beats_normal_every_cr"] = all(
            self.cell_prd[("hybrid", cr)] < self.cell_prd[("normal", cr)]
            for cr in self.crs
        )
        return super().checks()


class BsblDequant(_EngineWorkload):
    """``bsbl-dequant`` at CR {50, 75}: the dense Bayesian decoder alone."""

    name = "bsbl_dequant"
    crs = (50.0, 75.0)
    methods = ("bsbl-dequant",)
    panel = SMALL_SCALE.record_names[::2]
    salt = 9
    seed_prd = {("bsbl-dequant", 50.0): 5.0574, ("bsbl-dequant", 75.0): 6.8150}

    def checks(self) -> Dict[str, bool]:
        # The same windows through the paper's hybrid decoder, untimed.
        hybrid = self._pass(SerialExecutor(), methods=("hybrid",))
        self.check_results["bsbl_dequant_beats_hybrid_every_cr"] = all(
            self.cell_prd[("bsbl-dequant", cr)] < np.mean([o.mean_prd for o in outs])
            for (_, cr), outs in hybrid.items()
        )
        return super().checks()


class GatewayRealtime(Workload):
    """Open loop: patients paced in real time into one ``StreamGateway``.

    Each patient's node delivers ``CHUNK`` samples per tick; ``CHUNK``
    divides the window, so a window's frame leaves the node exactly when
    its last sample is due.  The patients' phases are spread evenly over
    one window period, as independent patients' are; the seed deals the
    phases out.  One thread delivers every due chunk through
    ``IngestSession`` and the patient's ``LossyLink``, frames the
    survivors for the wire as a radio bridge would, submits what the
    ``FrameAssembler`` reassembles, polls, and sleeps only when nothing
    is due.  A window's latency runs from the moment its last sample was
    due to the return of the poll that completed it.
    """

    name = "gateway_realtime"
    panel = SMALL_SCALE.record_names[:6]
    salt = 11
    CHUNK = 32
    #: The link of ``repro stream``: its default ``--erasure-rate``.
    ERASURE_RATE = 0.1
    #: The mildest bit-error point of the repo's link-robustness benchmark
    #: (``benchmarks/test_extension_link_robustness.py``), so that CRC
    #: fallback to BPDN runs too (``repro stream`` defaults to BER 0).
    BIT_ERROR_RATE = 1e-5

    def setup(self) -> None:
        names = self.panel[:2] if self.tiny else self.panel
        self.streams = self._load_records(names, self.seconds + 2 * WINDOW_PERIOD_S)
        codebook = self._build_codebook()
        first_touch(DEFAULT_CONFIG, "hybrid", HYBRID_SPEC)
        self.check_results["batched_encode_byte_equal"] = batched_encode_matches(
            HybridFrontEnd(DEFAULT_CONFIG, codebook), first_windows(self.streams[:2], 2)
        )
        n = len(self.streams)
        self.offsets = [
            k * WINDOW_PERIOD_S / n for k in seeded_order(self.seed, self.salt, n)
        ]
        # Each patient's link realisation is fixed, so every seed loses
        # and corrupts the same frames (see the module docstring).
        self.link_seeds = [int(r.name) for r in self.streams]

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Measurement:
        meas = Measurement()
        n = len(self.streams)
        names = [r.name for r in self.streams]
        nodes = [IngestSession(name, DEFAULT_CONFIG, method="hybrid") for name in names]
        links = [
            LossyLink(
                bit_error_rate=self.BIT_ERROR_RATE,
                packet_erasure_rate=self.ERASURE_RATE,
                seed=s,
            )
            for s in self.link_seeds
        ]
        # The radio bridge forwards what survived the air as a byte stream.
        ingress = wire.FrameAssembler(DEFAULT_CONFIG.measurement_bits)
        meas.counters["wire_bytes"] = 0
        gateway = StreamGateway(executor=SerialExecutor())
        sessions = [
            gateway.adopt_session(
                CountingSession(name, DEFAULT_CONFIG, method="hybrid", reorder_depth=0)
            )
            for name in names
        ]
        tick = self.CHUNK / FS_HZ
        offsets = self.offsets
        # Every patient streams the windows that all phases can finish in
        # ``seconds``, so the phases the seed deals change no work.
        windows = max(1, int((seconds - WINDOW_PERIOD_S - 0.5) / WINDOW_PERIOD_S))
        adus = [r.adu[: windows * WINDOW_LEN] for r in self.streams]
        clock = time.perf_counter
        submitted: Dict[Tuple[int, int], float] = {}
        sent = erased = polls = productive_polls = 0
        poll_s = 0.0
        lags: List[float] = []
        queue_waits: List[float] = []
        with tracer or contextlib.nullcontext():
            t0 = clock()
            stop = t0 + seconds
            # (due time, patient, chunk index) of each patient's next chunk
            due = [(t0 + offsets[i] + tick, i, 0) for i in range(n)]
            heapq.heapify(due)
            while True:
                now = clock()
                if now >= stop:
                    break
                if due[0][0] > now:
                    time.sleep(min(due[0][0], stop) - now)
                    meas.idle_s += clock() - now
                    continue
                while due[0][0] <= now:
                    t_due, i, j = heapq.heappop(due)
                    lags.append(now - t_due)
                    chunk = adus[i][j * self.CHUNK : (j + 1) * self.CHUNK]
                    for frame in nodes[i].push(chunk):
                        sent += 1
                        budget = frame.packet.budget()
                        meas.bits_sent += budget.total_bits
                        meas.bits_original += budget.original_bits
                        impaired = links[i].transmit(frame.packet)
                        if impaired is None:
                            erased += 1
                            continue
                        data = wire.encode_frame(
                            StreamFrame(frame.patient_id, impaired, frame.crc, frame.reference)
                        )
                        meas.counters["wire_bytes"] += len(data)
                        for arrived in ingress.feed(data):
                            submitted[(i, arrived.window_index)] = clock()
                            gateway.submit(arrived)
                    heapq.heappush(due, (t_due + tick, i, j + 1))
                cursors = [s.next_window for s in sessions]
                poll_start = clock()
                gateway.poll()
                poll_end = clock()
                polls += 1
                poll_s += poll_end - poll_start
                completed = 0
                for i, s in enumerate(sessions):
                    for w in range(cursors[i], s.next_window):
                        completed += 1
                        arrived = submitted.pop((i, w), None)
                        if arrived is None:
                            continue  # concealed: nothing arrived to time
                        window_due = t0 + offsets[i] + (w + 1) * WINDOW_PERIOD_S
                        meas.latencies_s.append(poll_end - window_due)
                        queue_waits.append(poll_start - arrived)
                productive_polls += 1 if completed else 0
            meas.wall_s = clock() - t0
        snap = gateway.snapshot()
        outcomes = [o for s in sessions for o in s.outcomes]
        shed = snap.queue_drops + snap.queue_rejects + snap.shed_frames
        concealed = sum(s.concealed for s in sessions)
        late = sum(1 for v in meas.latencies_s if v > WINDOW_PERIOD_S)
        unconverged = sum(1 for _, ok, _ in outcomes if not ok)
        meas.windows = len(outcomes) + concealed
        meas.attempted = sent
        meas.failed = unconverged + shed + late
        # Quality of the full hybrid decode; CRC fallbacks are counted
        # in stream.fallback_fraction instead.
        meas.prds = [p for mode, _, p in outcomes if mode == "hybrid"]
        # Erasures after a patient's last delivered frame are gaps no
        # receiver can see yet; every other sent window must be resolved.
        unseen = sum(
            node.windows_emitted - s.next_window for node, s in zip(nodes, sessions)
        )
        self.check_results["every_sent_window_accounted"] = (
            len(outcomes) + concealed + unseen == sent and not submitted
        )
        self.check_results["concealed_at_least_erased"] = concealed >= erased - unseen
        ingress.close()
        meas.counters.update({
            "sent": sent,
            "erased": erased,
            "solved": len(outcomes),
            "fallbacks": sum(1 for mode, _, _ in outcomes if mode == "cs-fallback"),
            "concealed": concealed,
            "shed": shed,
            "unseen": unseen,
            "late": late,
            "unconverged": unconverged,
            "polls": polls,
            "productive_polls": productive_polls,
            "poll_s": poll_s,
            "generator_lag_p95_s": _percentile(lags, 95),
            "queue_wait_p95_s": _percentile(queue_waits, 95),
        })
        return meas

    def checks(self) -> Dict[str, bool]:
        self.check_results["probe_wire_bytes_equal_seed"] = probe_wire_bytes() == PROBE_WIRE_BYTES
        return self.check_results


WORKLOADS = {cls.name: cls for cls in (SweepFig7, BsblDequant, GatewayRealtime)}

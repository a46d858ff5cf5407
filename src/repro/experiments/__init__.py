"""Experiment drivers: one module per paper table/figure (see DESIGN.md §4)."""

from repro.experiments.cache import SweepCache, cache_from_env, config_fingerprint
from repro.experiments.fig2 import Fig2Data, run_fig2
from repro.experiments.fig4 import Fig4Data, PAPER_FIG4_RESOLUTIONS, run_fig4
from repro.experiments.fig5_fig6_table1 import (
    LowresTradeoffData,
    LowresTradeoffRow,
    PAPER_RESOLUTIONS,
    PAPER_TABLE1_OVERHEADS,
    run_lowres_tradeoff,
)
from repro.experiments.fig7 import Fig7Data, Fig7Series, run_fig7
from repro.experiments.fig8 import BoxStats, Fig8Data, box_stats, run_fig8
from repro.experiments.fig9 import (
    Fig9Data,
    Fig9Panel,
    PAPER_FIG9_DELTAS,
    run_fig9,
)
from repro.experiments.fig11 import Fig11Data, PAPER_FIG11_M, run_fig11
from repro.experiments.headline import (
    DEFAULT_M_CANDIDATES,
    HeadlineData,
    HeadlinePoint,
    run_headline,
)
from repro.experiments.runner import (
    CrSweepPoint,
    ExperimentScale,
    FULL_SCALE,
    PAPER_CR_VALUES,
    SMALL_SCALE,
    active_scale,
    sweep_compression_ratios,
)

__all__ = [
    "BoxStats",
    "CrSweepPoint",
    "DEFAULT_M_CANDIDATES",
    "ExperimentScale",
    "FULL_SCALE",
    "Fig11Data",
    "Fig2Data",
    "Fig4Data",
    "Fig7Data",
    "Fig7Series",
    "Fig8Data",
    "Fig9Data",
    "Fig9Panel",
    "HeadlineData",
    "HeadlinePoint",
    "LowresTradeoffData",
    "LowresTradeoffRow",
    "PAPER_CR_VALUES",
    "PAPER_FIG11_M",
    "PAPER_FIG4_RESOLUTIONS",
    "PAPER_FIG9_DELTAS",
    "PAPER_RESOLUTIONS",
    "PAPER_TABLE1_OVERHEADS",
    "SMALL_SCALE",
    "SweepCache",
    "active_scale",
    "box_stats",
    "cache_from_env",
    "config_fingerprint",
    "run_fig11",
    "run_fig2",
    "run_fig4",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_headline",
    "run_lowres_tradeoff",
    "sweep_compression_ratios",
]

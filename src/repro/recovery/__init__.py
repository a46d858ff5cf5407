"""Sparse-recovery solvers: Eq. 1 (hybrid), BPDN and BSBL."""

from repro.recovery.admm import solve_bpdn_admm
from repro.recovery.batched import solve_bpdn_admm_batch, stack_measurements
from repro.recovery.eq1 import solve_bpdn, solve_eq1, solve_hybrid
from repro.recovery.bsbl import (
    BsblSettings,
    lowres_cell_stats,
    measurement_noise_var,
    solve_bsbl,
    solve_bsbl_dequant,
)
from repro.recovery.methods import (
    METHODS,
    MethodSpec,
    method_names,
    resolve_method,
)
from repro.recovery.opcache import (
    PROBLEM_CACHE,
    ProblemCache,
    ProblemKey,
    problem_for_config,
)
from repro.recovery.pdhg import PdhgSettings
from repro.recovery.problem import CsProblem
from repro.recovery.prox import project_l2_ball, soft_threshold
from repro.recovery.result import RecoveryResult

__all__ = [
    "BsblSettings",
    "CsProblem",
    "METHODS",
    "MethodSpec",
    "PROBLEM_CACHE",
    "PdhgSettings",
    "ProblemCache",
    "ProblemKey",
    "RecoveryResult",
    "lowres_cell_stats",
    "measurement_noise_var",
    "method_names",
    "resolve_method",
    "problem_for_config",
    "project_l2_ball",
    "soft_threshold",
    "solve_bpdn",
    "solve_bpdn_admm",
    "solve_bpdn_admm_batch",
    "solve_bsbl",
    "solve_bsbl_dequant",
    "solve_eq1",
    "solve_hybrid",
    "stack_measurements",
]

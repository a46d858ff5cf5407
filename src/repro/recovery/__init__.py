"""Sparse-recovery solvers: Eq. 1 (hybrid), BPDN, BSBL, and baselines."""

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
from repro.recovery.fista import lambda_max, solve_fista
from repro.recovery.opcache import (
    PROBLEM_CACHE,
    ProblemCache,
    ProblemKey,
    problem_for_config,
)
from repro.recovery.greedy import solve_cosamp, solve_iht, solve_omp
from repro.recovery.pdhg import PdhgSettings
from repro.recovery.problem import CsProblem
from repro.recovery.prox import project_l2_ball, soft_threshold
from repro.recovery.phase_transition import (
    TransitionPoint,
    empirical_transition,
    success_probability,
)
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
    "TransitionPoint",
    "lowres_cell_stats",
    "measurement_noise_var",
    "method_names",
    "resolve_method",
    "empirical_transition",
    "success_probability",
    "lambda_max",
    "problem_for_config",
    "project_l2_ball",
    "soft_threshold",
    "solve_bpdn",
    "solve_bpdn_admm",
    "solve_bpdn_admm_batch",
    "solve_bsbl",
    "solve_bsbl_dequant",
    "solve_cosamp",
    "solve_fista",
    "solve_eq1",
    "solve_hybrid",
    "solve_iht",
    "solve_omp",
    "stack_measurements",
]

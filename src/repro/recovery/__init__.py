"""Sparse-recovery solvers: Eq. 1 (hybrid), BPDN, BSBL, and baselines."""

from repro.recovery.admm import solve_bpdn_admm
from repro.recovery.batched import (
    solve_bpdn_admm_batch,
    solve_bsbl_batch,
    solve_bsbl_dequant_batch,
    stack_measurements,
)
from repro.recovery.bpdn import ball_block, solve_bpdn
from repro.recovery.eq1 import solve_eq1
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
from repro.recovery.hybrid import box_block, solve_hybrid
from repro.recovery.pdhg import ConstraintBlock, PdhgSettings, solve_l1_constrained
from repro.recovery.problem import CsProblem
from repro.recovery.prox import (
    project_box,
    project_l2_ball,
    prox_l1,
    soft_threshold,
)
from repro.recovery.phase_transition import (
    TransitionPoint,
    empirical_transition,
    success_probability,
)
from repro.recovery.result import RecoveryResult

__all__ = [
    "BsblSettings",
    "ConstraintBlock",
    "CsProblem",
    "METHODS",
    "MethodSpec",
    "PROBLEM_CACHE",
    "PdhgSettings",
    "ProblemCache",
    "ProblemKey",
    "RecoveryResult",
    "TransitionPoint",
    "ball_block",
    "lowres_cell_stats",
    "measurement_noise_var",
    "method_names",
    "resolve_method",
    "empirical_transition",
    "success_probability",
    "box_block",
    "lambda_max",
    "problem_for_config",
    "project_box",
    "project_l2_ball",
    "prox_l1",
    "soft_threshold",
    "solve_bpdn",
    "solve_bpdn_admm",
    "solve_bpdn_admm_batch",
    "solve_bsbl",
    "solve_bsbl_batch",
    "solve_bsbl_dequant",
    "solve_bsbl_dequant_batch",
    "solve_cosamp",
    "solve_fista",
    "solve_eq1",
    "solve_hybrid",
    "solve_iht",
    "solve_l1_constrained",
    "solve_omp",
    "stack_measurements",
]

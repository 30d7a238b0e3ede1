"""Optimal bilinear control of a chemotaxis system with logistic growth.

The package solves, on a 2-D rectangle with zero-flux boundaries,

    du/dt - lap u + kappa div(u grad v) = r u - mu u^2
    dv/dt - lap v + v = u + f v 1_C

and minimizes a tracking cost over the bilinear control ``f`` by projected
gradient descent, with the gradient assembled from a discrete dual sweep.
Everything is finite volumes on a uniform cell-centered grid, backward Euler
in time, and hand-rolled CG preconditioned by a dense DCT-II - no external
solver machinery.
"""

from .control import (
    AdmissibleSet,
    ControlField,
    CostWeights,
    TrackingTargets,
    control_cost,
    project,
    qc_norm,
    reduced_gradient,
    require_well_posed,
    vi_residual,
)
from .adjoint import AdjointTrajectory, solve_adjoint, solve_linearized_dual
from .errors import (
    ConfigError,
    GridMismatchError,
    InvalidValue,
    KSControlError,
    LinearSolverError,
    PicardDivergenceError,
    SnapshotFormatError,
    SolverError,
    StepConditioningError,
)
from .forward import (
    ModelParams,
    PicardSettings,
    StateTrajectory,
    TimeGrid,
    solve_forward,
    step_u,
    step_v,
)
from .linalg import DEFAULT_CG_TOL, solve_cg
from .mesh import (
    Field2D,
    GridSpec,
    RegionMask,
    constant_field,
    field_from_function,
)
from .optimize import (
    ArmijoSettings,
    ControlProblem,
    CostBreakdown,
    IterateRecord,
    KKTReport,
    OptimizeOptions,
    OptimizeReport,
    cost_of_control,
    evaluate_cost,
    gradient_of_control,
    kkt_report,
    solve,
)
from .verify import (
    ConvergenceTable,
    InvariantReport,
    duality_gap,
    fd_gradient,
    logistic_closed_form,
    mms_convergence,
    monitor_invariants,
    trajectory_l2_distance,
)
from .io_cli import read_snapshot, run, write_snapshot

__version__ = "0.1.0"

__all__ = [
    "AdjointTrajectory",
    "AdmissibleSet",
    "ArmijoSettings",
    "ConfigError",
    "ControlField",
    "ControlProblem",
    "ConvergenceTable",
    "CostBreakdown",
    "CostWeights",
    "DEFAULT_CG_TOL",
    "Field2D",
    "GridMismatchError",
    "GridSpec",
    "InvalidValue",
    "InvariantReport",
    "IterateRecord",
    "KKTReport",
    "KSControlError",
    "LinearSolverError",
    "ModelParams",
    "OptimizeOptions",
    "OptimizeReport",
    "PicardDivergenceError",
    "PicardSettings",
    "RegionMask",
    "SnapshotFormatError",
    "SolverError",
    "StateTrajectory",
    "StepConditioningError",
    "TimeGrid",
    "TrackingTargets",
    "constant_field",
    "control_cost",
    "cost_of_control",
    "duality_gap",
    "evaluate_cost",
    "fd_gradient",
    "field_from_function",
    "gradient_of_control",
    "kkt_report",
    "logistic_closed_form",
    "mms_convergence",
    "monitor_invariants",
    "project",
    "qc_norm",
    "read_snapshot",
    "reduced_gradient",
    "require_well_posed",
    "run",
    "solve",
    "solve_adjoint",
    "solve_cg",
    "solve_forward",
    "solve_linearized_dual",
    "step_u",
    "step_v",
    "trajectory_l2_distance",
    "vi_residual",
    "write_snapshot",
]

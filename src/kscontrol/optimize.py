"""Projected-gradient minimization of the tracking + regularization cost.

The reduced cost of a control ``f`` is

    J(f) = gamma_u/2 * int ||u(f) - u_d||^2 + gamma_v/2 * int ||v(f) - v_d||^2
         + gamma_f/p * int_C |f|^p

with tracking integrals over the space-time cylinder (trapezoid rule in
time) and the control term over the control cylinder (left-endpoint rule,
matching the forward scheme's sampling).  Each outer iteration runs one
forward solve, one dual solve, assembles the reduced gradient, and takes a
projected step with Armijo backtracking.  Convergence is declared on the
projected-gradient fixed-point residual at unit step, which vanishes
exactly at points satisfying the first-order variational inequality.

Only local stationarity is certified; the problem is nonconvex and distinct
starting controls may reach distinct local minima.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjoint import AdjointTrajectory, check_dual_definite, solve_adjoint
from .errors import LinearSolverError, PicardDivergenceError, StepConditioningError, require
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
from .forward import (
    ModelParams,
    PicardSettings,
    StateTrajectory,
    TimeGrid,
    solve_forward,
    trapezoid_sq_l2,
)
from .linalg import DEFAULT_CG_TOL
from .mesh import Field2D, RegionMask, Scheme


@dataclass(frozen=True)
class CostBreakdown:
    """The three cost terms; ``j_total`` is their exact sum."""

    j_u: float
    j_v: float
    j_f: float

    @property
    def j_total(self) -> float:
        return self.j_u + self.j_v + self.j_f


@dataclass(frozen=True)
class ArmijoSettings:
    c1: float = 1e-4
    shrink: float = 0.5
    s0: float = 1.0
    max_backtracks: int = 40

    def __post_init__(self):
        require(0.0 < self.c1 < np.inf, "c1",
                "the sufficient-decrease constant must be positive and finite")
        require(0.0 < self.shrink < 1.0, "shrink",
                "the backtracking factor must lie strictly between 0 and 1")
        require(0.0 < self.s0 < np.inf, "s0", "the initial step must be positive and finite")
        require(self.max_backtracks >= 0, "max_backtracks", "backtracks cannot be negative")


@dataclass(frozen=True)
class OptimizeOptions:
    max_iters: int = 100
    vi_tol: float = 1e-6
    armijo: ArmijoSettings = ArmijoSettings()

    def __post_init__(self):
        require(self.max_iters >= 0, "max_iters", "iterations cannot be negative")
        require(0.0 < self.vi_tol < np.inf, "vi_tol",
                "the stationarity tolerance must be positive and finite")


@dataclass
class ControlProblem:
    """Everything needed to evaluate and differentiate the reduced cost."""

    u0: Field2D
    v0: Field2D
    targets: TrackingTargets
    params: ModelParams
    weights: CostWeights
    admissible: AdmissibleSet
    region: RegionMask
    time_grid: TimeGrid
    scheme: Scheme = "central"
    picard: PicardSettings = PicardSettings()
    cg_tol: float = DEFAULT_CG_TOL
    f0: Optional[ControlField] = None

    def __post_init__(self):
        require(self.scheme in ("central", "upwind"), "scheme",
                f"expected scheme 'central' or 'upwind', got {self.scheme!r}")
        require(0.0 < self.cg_tol < np.inf, "cg_tol",
                "the linear solver tolerance must be positive and finite")

    def initial_control(self) -> ControlField:
        if self.f0 is not None:
            return project(self.f0, self.admissible)
        return ControlField.zeros(self.time_grid, self.region)


@dataclass
class IterateRecord:
    iteration: int
    cost: CostBreakdown
    vi_residual: float
    step_size: float
    backtracks: int


@dataclass
class OptimizeReport:
    iterates: list[IterateRecord]
    final_control: ControlField
    reason: str  # one of: vi_tol, max_iters, line_search_failure

    @property
    def converged(self) -> bool:
        return self.reason == "vi_tol"

    @property
    def final_cost(self) -> CostBreakdown:
        return self.iterates[-1].cost


def evaluate_cost(
    state: StateTrajectory,
    f: ControlField,
    targets: TrackingTargets,
    weights: CostWeights,
    p: float,
) -> CostBreakdown:
    """Discrete cost of a trajectory/control pair.

    Tracking terms use the trapezoid rule over levels ``0 .. nt``; the
    control term uses the left-endpoint rule over levels ``0 .. nt-1``.
    """
    targets.check_shape(state.u.shape)
    area = state.grid.cell_area
    j_u = j_v = 0.0
    if weights.gamma_u != 0.0:
        j_u = trapezoid_sq_l2(state.u - targets.u_d, state.time_grid, area)
    if weights.gamma_v != 0.0:
        j_v = trapezoid_sq_l2(state.v - targets.v_d, state.time_grid, area)
    j_u *= 0.5 * weights.gamma_u
    j_v *= 0.5 * weights.gamma_v
    j_f = control_cost(f, weights.gamma_f, p)
    return CostBreakdown(j_u=j_u, j_v=j_v, j_f=j_f)


def cost_of_control(problem: ControlProblem, f: ControlField) -> tuple[StateTrajectory, CostBreakdown]:
    """Forward solve followed by cost evaluation (the map the optimizer samples)."""
    state = solve_forward(
        problem.u0, problem.v0, f, problem.params, problem.time_grid,
        problem.picard, problem.scheme, cg_tol=problem.cg_tol,
    )
    return state, evaluate_cost(state, f, problem.targets, problem.weights,
                                problem.params.p_exponent)


def gradient_of_control(problem: ControlProblem, f: ControlField,
                        state: StateTrajectory) -> ControlField:
    """Reduced gradient at ``f`` from its forward ``state``: one dual sweep
    with the problem's scheme, CG tolerance and Picard settings."""
    adj = solve_adjoint(state, f, problem.targets, problem.params, problem.weights,
                        problem.scheme, problem.cg_tol, settings=problem.picard)
    return reduced_gradient(f, state, adj, problem.weights.gamma_f,
                            problem.params.p_exponent)


@dataclass
class KKTReport:
    """First-order optimality residuals at a control.

    ``vi_residual`` is the projected-gradient fixed-point measure, the right
    notion for constrained runs.  ``max_pointwise_violation`` is the largest
    cell value of ``|d|`` -- the *equality* stationarity residual.  On a box
    run the two deliberately differ: a saturated bound with the gradient
    pushing outward has zero VI residual but nonzero pointwise values, which
    is exactly the inequality-vs-equality distinction.
    """

    vi_residual: float
    max_pointwise_violation: float
    active_lower_fraction: float
    active_upper_fraction: float


def kkt_report(
    f: ControlField,
    state: StateTrajectory,
    adjoint: AdjointTrajectory,
    admissible: AdmissibleSet,
    weights: CostWeights,
    p: float,
) -> KKTReport:
    d = reduced_gradient(f, state, adjoint, weights.gamma_f, p)
    res = vi_residual(f, d, admissible)
    dv = d.values
    return KKTReport(
        vi_residual=res,
        max_pointwise_violation=float(np.abs(dv).max()) if dv.size else 0.0,
        active_lower_fraction=float((f.values <= admissible.f_min).mean()),
        active_upper_fraction=float((f.values >= admissible.f_max).mean()),
    )


def solve(problem: ControlProblem, opts: OptimizeOptions = OptimizeOptions()) -> OptimizeReport:
    """Run projected gradient with Armijo backtracking.

    Returns the iterate history (cost breakdown, residual, accepted step
    size and backtrack count per iteration) together with the final
    control.  The cost sequence is strictly decreasing: a step is accepted
    only with sufficient decrease proportional to the squared projected
    step.  Trial controls the forward solver cannot march (its fixed point
    diverges, or a linear solve fails) or whose march the next dual sweep
    cannot take (`check_dual_definite` on levels ``1 .. nt``) are rejected
    exactly like insufficient-decrease trials; a trial that clipping leaves
    bit for bit equal to the one rejected before it is rejected without a
    march.  If the line search exhausts its backtracks the best iterate so
    far is returned with ``reason = "line_search_failure"``.  Only solving needs a minimizer to
    exist: `require_well_posed` raises `ValueError` before the first march.
    """
    require_well_posed(problem.weights, problem.admissible)
    arm = opts.armijo
    f = problem.initial_control()
    state, cost = cost_of_control(problem, f)

    records: list[IterateRecord] = []
    step_taken = 0.0
    backtracks_taken = 0
    reason = "max_iters"

    for iteration in range(opts.max_iters + 1):
        d = gradient_of_control(problem, f, state)
        res = vi_residual(f, d, problem.admissible)
        records.append(IterateRecord(iteration, cost, res, step_taken, backtracks_taken))
        if res <= opts.vi_tol:
            reason = "vi_tol"
            break
        if iteration == opts.max_iters:
            break

        s = arm.s0
        previous = b""
        for backtrack in range(arm.max_backtracks + 1):
            trial_vals = np.clip(f.values - s * d.values, problem.admissible.f_min,
                                 problem.admissible.f_max)
            trial_bits = trial_vals.tobytes()
            if trial_bits == previous:
                # the rejected trial again: same march, a larger decrease asked
                s *= arm.shrink
                continue
            previous = trial_bits
            f_trial = ControlField(f.time_grid, f.region, trial_vals)
            try:
                state_trial, cost_trial = cost_of_control(problem, f_trial)
                check_dual_definite(state_trial.u[1:], trial_vals, problem.params,
                                    problem.time_grid.tau)
            except (StepConditioningError, PicardDivergenceError, LinearSolverError):
                # a trial control the forward solver cannot march, or whose
                # march the dual cannot take, is just a step that was too
                # long; shrink like any other rejection
                s *= arm.shrink
                continue
            decrease = arm.c1 / s * qc_norm(f.values - trial_vals, f) ** 2
            if cost_trial.j_total <= cost.j_total - decrease:
                break
            s *= arm.shrink
        else:
            reason = "line_search_failure"
            break
        f, state, cost = f_trial, state_trial, cost_trial
        step_taken = s
        backtracks_taken = backtrack

    return OptimizeReport(iterates=records, final_control=f, reason=reason)

"""Projected-gradient minimization of the tracking + regularization cost.

The reduced cost of a control ``f`` is

    J(f) = gamma_u/2 * int ||u(f) - u_d||^2 + gamma_v/2 * int ||v(f) - v_d||^2
         + gamma_f/p * int_C |f|^p

with tracking integrals over the space-time cylinder (trapezoid rule in
time) and the control term over the control cylinder (left-endpoint rule,
matching the forward scheme's sampling).  Each outer iteration runs one
forward solve, one dual solve, assembles the reduced gradient, and takes a
projected step with Armijo backtracking; each search after the first starts
next to the step the previous one accepted.  Convergence is declared on the
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
from .errors import (
    KSControlError,
    LinearSolverError,
    PicardDivergenceError,
    StepConditioningError,
    require,
)
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
)
from .linalg import DEFAULT_CG_TOL
from .mesh import Field2D, GridSpec, RegionMask, Scheme


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
    """Backtracking line search: a trial step ``s`` is accepted once
    ``J(trial) <= J(f) - c1 / s * ||f - trial||^2``, else ``s *= shrink``,
    at most ``max_backtracks`` times.  ``s0`` is the first trial of the first
    search and the cap on every later first trial, which is the previous
    accepted step over ``shrink``."""

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
    """One iterate and the search that reached it (all zero for iterate 0).

    ``backtracks`` counts the rejected trials, clipped repeats included;
    ``trial_marches`` the forward marches the search started, stopped ones
    included, and ``trial_levels`` the levels those marches computed.
    """

    iteration: int
    cost: CostBreakdown
    vi_residual: float
    step_size: float
    backtracks: int
    trial_marches: int
    trial_levels: int


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


class RunningCost:
    """The discrete cost summed one level at a time: the only owner of its
    arithmetic, for `evaluate_cost` and for a march in progress alike.

    `add` puts level ``n``'s trapezoid term of each tracking integral into
    its running sum, in level order; `breakdown` scales the sums by their
    weights and takes ``j_f`` as given.  Every term is nonnegative and IEEE
    rounding is monotone, so after levels ``0 .. k`` `breakdown` is a lower
    bound of the full cost, bit for bit.
    """

    def __init__(self, targets: TrackingTargets, weights: CostWeights,
                 time_grid: TimeGrid, grid: GridSpec, j_f: float):
        targets.check_shape((time_grid.nt + 1, grid.nx, grid.ny))
        self.targets, self.weights, self.j_f = targets, weights, j_f
        self.tau, self.cell_area = time_grid.tau, grid.cell_area
        self.level_weights = time_grid.trapezoid_weights()
        self.sums = [0.0, 0.0]  # u, v

    def add(self, n: int, u_n: np.ndarray, v_n: np.ndarray) -> None:
        w, t = self.weights, self.targets
        for i, (gamma, level, target) in enumerate(((w.gamma_u, u_n, t.u_d),
                                                     (w.gamma_v, v_n, t.v_d))):
            if gamma != 0.0:  # a zero weight skips its term and the level's temporary
                d = level - (target if target.ndim == 2 else target[n])
                s = float(np.sum(d * d))
                self.sums[i] += self.level_weights[n] * self.tau * s * self.cell_area

    def breakdown(self) -> CostBreakdown:
        return CostBreakdown(j_u=self.sums[0] * (0.5 * self.weights.gamma_u),
                             j_v=self.sums[1] * (0.5 * self.weights.gamma_v), j_f=self.j_f)


class CostAboveCeiling(KSControlError):
    """`cost_of_control` stopped a march whose cost had passed its ceiling;
    ``time_index`` is the step it did not take (the levels it computed)."""

    def __init__(self, time_index: int):
        super().__init__(f"cost above the ceiling before step {time_index}")
        self.time_index = time_index


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
    running = RunningCost(targets, weights, state.time_grid, state.grid,
                          control_cost(f, weights.gamma_f, p))
    for n, (u_n, v_n) in enumerate(zip(state.u, state.v)):
        running.add(n, u_n, v_n)
    return running.breakdown()


def cost_of_control(problem: ControlProblem, f: ControlField,
                    ceiling: Optional[float] = None) -> tuple[StateTrajectory, CostBreakdown]:
    """Forward solve followed by cost evaluation (the map the optimizer samples).

    With a ``ceiling``, the march keeps a `RunningCost` and raises
    `CostAboveCeiling` before the first step at which the levels so far
    already cost more: the full cost would then exceed it too.
    """
    on_level = None
    if ceiling is not None:
        running = RunningCost(problem.targets, problem.weights, problem.time_grid,
                              problem.u0.grid, control_cost(f, problem.weights.gamma_f,
                                                            problem.params.p_exponent))

        def on_level(n: int, u_n: np.ndarray, v_n: np.ndarray) -> None:
            running.add(n, u_n, v_n)
            if running.breakdown().j_total > ceiling:
                raise CostAboveCeiling(n)

    state = solve_forward(
        problem.u0, problem.v0, f, problem.params, problem.time_grid,
        problem.picard, problem.scheme, cg_tol=problem.cg_tol, on_level=on_level,
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
    size, backtracks and the search's marches and levels per iteration)
    together with the final control.  The cost sequence is strictly
    decreasing: a step is accepted only with sufficient decrease
    proportional to the squared projected step.  The first search starts
    at ``s0``, each later one at ``min(s_accepted / shrink, s0)`` from the
    step the previous search accepted.  Trial controls the forward solver
    cannot march (its fixed point diverges, or a linear solve fails) or
    whose march the next dual sweep cannot take (`check_dual_definite` on
    levels ``1 .. nt``) are rejected exactly like insufficient-decrease
    trials; a trial that clipping leaves bit for bit equal to the one
    rejected before it is rejected without a march, and a trial march stops
    at the first level by which its running cost proves the rejection
    (`cost_of_control` with a ceiling), so every decision is the one the
    full march gives.  If the line search exhausts its backtracks the best
    iterate so far is returned with ``reason = "line_search_failure"``.
    Only solving needs a minimizer to exist: `require_well_posed` raises
    `ValueError` before the first march.
    """
    require_well_posed(problem.weights, problem.admissible)
    arm = opts.armijo
    f = problem.initial_control()
    state, cost = cost_of_control(problem, f)

    nt = problem.time_grid.nt
    records: list[IterateRecord] = []
    step_taken = 0.0
    backtracks_taken = trial_marches = trial_levels = 0
    reason = "max_iters"

    for iteration in range(opts.max_iters + 1):
        d = gradient_of_control(problem, f, state)
        res = vi_residual(f, d, problem.admissible)
        records.append(IterateRecord(iteration, cost, res, step_taken, backtracks_taken,
                                     trial_marches, trial_levels))
        if res <= opts.vi_tol:
            reason = "vi_tol"
            break
        if iteration == opts.max_iters:
            break

        s = min(step_taken / arm.shrink, arm.s0) if iteration else arm.s0
        previous = b""
        trial_marches = trial_levels = 0
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
            ceiling = cost.j_total - arm.c1 / s * qc_norm(f.values - trial_vals, f) ** 2
            trial_marches += 1
            try:
                state_trial, cost_trial = cost_of_control(problem, f_trial, ceiling)
                check_dual_definite(state_trial.u[1:], trial_vals, problem.params,
                                    problem.time_grid.tau)
            except (CostAboveCeiling, StepConditioningError, PicardDivergenceError,
                    LinearSolverError) as err:
                # a trial whose cost passed the ceiling early, that the forward
                # solver cannot march, or whose march the dual cannot take, is
                # just a step that was too long; shrink like any other
                # rejection.  A march that stopped computed the levels before
                # its `time_index` (a failed linear solve names no step)
                trial_levels += getattr(err, "time_index", nt)
                s *= arm.shrink
                continue
            trial_levels += nt
            if cost_trial.j_total <= ceiling:
                break
            s *= arm.shrink
        else:
            reason = "line_search_failure"
            break
        f, state, cost = f_trial, state_trial, cost_trial
        step_taken = s
        backtracks_taken = backtrack

    return OptimizeReport(iterates=records, final_control=f, reason=reason)

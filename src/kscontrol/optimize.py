"""Projected L-BFGS minimization of the tracking + regularization cost.

The reduced cost of a control ``f`` is

    J(f) = gamma_u/2 * int ||u(f) - u_d||^2 + gamma_v/2 * int ||v(f) - v_d||^2
         + gamma_f/p * int_C |f|^p

with tracking integrals over the space-time cylinder (trapezoid rule in
time) and the control term over the control cylinder (left-endpoint rule,
matching the forward scheme's sampling).  Each outer iteration runs one
forward solve, one dual solve, assembles the reduced gradient, and takes a
projected step with Armijo backtracking.  The step is a two-loop L-BFGS
product (Nocedal, Math. Comp. 1980) on the cells off an epsilon-active set
for the box (Bertsekas, SIAM J. Control Optim. 1982), with every inner
product in L2(Q_c), the metric in which the reduced gradient is the Riesz
representative; the first search, and any whose quasi-Newton direction
fails, steps along the projected gradient.  Convergence is declared on the
projected-gradient fixed-point residual at unit step, which vanishes
exactly at points satisfying the first-order variational inequality.

Only local stationarity is certified; the problem is nonconvex and distinct
starting controls may reach distinct local minima.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .adjoint import AdjointTrajectory, solve_adjoint
from .errors import InvalidValue, KSControlError, SolverError, require
from .control import (
    AdmissibleSet,
    ControlField,
    CostWeights,
    TrackingTargets,
    control_cost,
    project,
    qc_norm,
    qc_weight,
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

LBFGS_MEMORY = 10  # curvature pairs kept, newest last
ACTIVE_EPS = 1e-2  # widest band next to a bound that the active set takes in


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
    """Backtracking line search: a trial step ``s`` along the direction
    ``p`` is accepted once ``J(trial) <= J(f) - c1 * <d, f - trial>`` (a
    quasi-Newton search, from ``s = 1``) or ``J(trial) <= J(f) - c1 / s *
    ||f - trial||^2`` (a gradient search, ``p = d``), else ``s *= shrink``,
    at most ``max_backtracks`` times.  ``s0`` is the first trial of a
    gradient search only: the first search, and any that replaces a failed
    quasi-Newton search."""

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

    ``step_size`` is the accepted ``s`` along its search's direction;
    ``backtracks`` counts the rejected trials, clipped repeats and a failed
    quasi-Newton search's trials included;
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
    arithmetic, for `evaluate_cost` on a stored trajectory and for
    `cost_of_control` on a march in progress.

    `add` puts level ``n``'s trapezoid term of each tracking integral into
    its running sum, in level order; `breakdown` scales the sums by their
    weights and takes ``j_f`` as given.  Every term is nonnegative and IEEE
    rounding is monotone, so after levels ``0 .. k`` `breakdown` is a lower
    bound of the full cost, bit for bit.
    """

    def __init__(self, targets: TrackingTargets, weights: CostWeights,
                 time_grid: TimeGrid, grid: GridSpec, j_f: float):
        self.u_d, self.v_d = targets.levels((time_grid.nt + 1, grid.nx, grid.ny))
        self.weights, self.j_f = weights, j_f
        self.tau, self.cell_area = time_grid.tau, grid.cell_area
        self.level_weights = time_grid.trapezoid_weights()
        self.sums = [0.0, 0.0]  # u, v

    def add(self, n: int, u_n: np.ndarray, v_n: np.ndarray) -> None:
        w = self.weights
        for i, (gamma, level, target) in enumerate(((w.gamma_u, u_n, self.u_d),
                                                     (w.gamma_v, v_n, self.v_d))):
            if gamma != 0.0:  # a zero weight skips its term and the level's temporary
                d = level - target[n]
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
                    ceiling: float = np.inf) -> tuple[StateTrajectory, CostBreakdown]:
    """Forward solve and its cost (the map the optimizer samples), summed
    by one `RunningCost` as the march reaches each level.

    The march raises `CostAboveCeiling` before the first step at which the
    levels so far already cost more than ``ceiling``: the full cost would
    then exceed it too.  Level ``nt`` is added after the march.
    """
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
    nt = problem.time_grid.nt
    running.add(nt, state.u[nt], state.v[nt])
    return state, running.breakdown()


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


def _two_loop(d: np.ndarray, free: np.ndarray, pairs: list, inner) -> np.ndarray:
    """The L-BFGS direction: on the ``free`` cells the two-loop product
    ``H d`` of the free part of ``d`` (Nocedal's recursion over ``pairs`` of
    ``(s, y, <s, y>)``, oldest first, from ``H0 = <s, y> / <y, y>`` of the
    newest), and ``d`` itself on the others."""
    q = np.where(free, d, 0.0)
    alphas = []
    for s, y, sy in reversed(pairs):
        alphas.append(inner(s, q) / sy)
        q -= alphas[-1] * y
    _, y, sy = pairs[-1]
    q *= sy / inner(y, y)
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - inner(y, q) / sy) * s
    return np.where(free, q, d)


def solve(problem: ControlProblem, opts: OptimizeOptions = OptimizeOptions()) -> OptimizeReport:
    """Run projected L-BFGS in the L2(Q_c) metric with Armijo backtracking.

    Returns the iterate history (cost breakdown, residual, accepted step
    size, backtracks and the search's marches and levels per iteration)
    together with the final control.  Each accepted step stores the pair
    ``s = f_new - f``, ``y = d_new - d`` if ``<s, y> > 0``, keeping the
    newest `LBFGS_MEMORY`; every inner product is `qc_norm`'s.  The cells
    within ``min(ACTIVE_EPS, vi_residual)`` of a bound that the gradient
    pushes outward are active (Bertsekas' epsilon-active set): there the
    direction ``p`` is ``d``, on the others the two-loop product ``H d``
    (`_two_loop`).  Trials are ``P(f - s p)``.  A search with pairs starts
    at ``s = 1`` and accepts ``J(trial) <= J - c1 <d, f - trial>``; the
    first search, and the one that replaces a quasi-Newton search whose
    predicted decrease ``<d, f - trial>`` is not positive or whose
    backtracks run out, drops the pairs and steps along ``p = d`` from
    ``s0`` with the test ``J(trial) <= J - c1 / s * ||f - trial||^2``.  The
    cost sequence is strictly decreasing, and a step is accepted only with
    its gradient.

    Each trial asks each solver once: `cost_of_control` marches it under
    the Armijo ceiling, stopping at the first level whose running cost
    proves the rejection, and a trial that passes takes its dual sweep
    (`gradient_of_control`).  A trial that either solver cannot take is
    rejected like one without sufficient decrease; a trial that clipping
    leaves bit for bit equal to the one rejected before it, and one whose
    step overflows to a non-finite control, is rejected without a march;
    each trajectory is released once its gradient is taken.  If the
    gradient search exhausts its backtracks the best iterate so far is
    returned with ``reason = "line_search_failure"``.  Only solving needs a
    minimizer to exist: `require_well_posed` raises `ValueError` before the
    first march.
    """
    require_well_posed(problem.weights, problem.admissible)
    arm = opts.armijo
    lo, hi = problem.admissible.f_min, problem.admissible.f_max
    f = problem.initial_control()
    state, cost = cost_of_control(problem, f)
    d = gradient_of_control(problem, f, state)
    del state  # each search holds one trajectory at a time

    weight = qc_weight(f)

    def inner(a: np.ndarray, b: np.ndarray) -> float:
        return weight * float(np.vdot(a, b))

    nt = problem.time_grid.nt
    records: list[IterateRecord] = []
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    step_taken = 0.0
    backtracks_taken = trial_marches = trial_levels = 0
    reason = "max_iters"

    for iteration in range(opts.max_iters + 1):
        res = vi_residual(f, d, problem.admissible)
        records.append(IterateRecord(iteration, cost, res, step_taken, backtracks_taken,
                                     trial_marches, trial_levels))
        if res <= opts.vi_tol:
            reason = "vi_tol"
            break
        if iteration == opts.max_iters:
            break

        searches = [(d.values, arm.s0, False)]  # the gradient search, popped last
        if pairs:
            eps = min(ACTIVE_EPS, res)
            dv, fv = d.values, f.values
            active = ((fv <= lo + eps) & (dv > 0.0)) | ((fv >= hi - eps) & (dv < 0.0))
            searches.append((_two_loop(dv, ~active, pairs, inner), 1.0, True))
        trials = trial_marches = trial_levels = 0
        d_trial = None
        while searches and d_trial is None:
            p, s, quasi_newton = searches.pop()
            previous = b""
            for backtrack in range(arm.max_backtracks + 1):
                if backtrack:  # every rejection below lands here
                    s *= arm.shrink
                trials += 1
                with np.errstate(over="ignore"):  # an overflowing step is rejected below
                    trial_vals = np.clip(f.values - s * p, lo, hi)
                trial_bits = trial_vals.tobytes()
                if trial_bits == previous:
                    continue  # the rejected trial again: same march, a larger decrease asked
                previous = trial_bits
                try:
                    f_trial = ControlField(f.time_grid, f.region, trial_vals)
                except InvalidValue:
                    continue  # a step that overflowed to a non-finite control
                if quasi_newton:
                    decrease = inner(d.values, f.values - trial_vals)
                    if not decrease > 0.0:
                        break  # not a descent direction: the gradient search takes over
                    ceiling = cost.j_total - arm.c1 * decrease
                else:
                    ceiling = cost.j_total - arm.c1 / s * qc_norm(f.values - trial_vals, f) ** 2
                trial_marches += 1
                try:
                    state_trial, cost_trial = cost_of_control(problem, f_trial, ceiling)
                except (CostAboveCeiling, SolverError) as err:
                    # a march stopped by its cost or by the forward solver computed
                    # the levels before its `time_index`
                    trial_levels += err.time_index
                    continue
                trial_levels += nt
                try:
                    if not cost_trial.j_total <= ceiling:  # a nan ceiling rejects too
                        continue
                    d_trial = gradient_of_control(problem, f_trial, state_trial)
                except SolverError:
                    continue  # the dual cannot take the trial: a step too long like any other
                finally:
                    del state_trial  # released before the next march
                break
            if d_trial is None:
                pairs.clear()
        if d_trial is None:
            reason = "line_search_failure"
            break
        s_pair, y_pair = f_trial.values - f.values, d_trial.values - d.values
        sy = inner(s_pair, y_pair)
        if sy > 0.0:
            pairs.append((s_pair, y_pair, sy))
            del pairs[:-LBFGS_MEMORY]
        f, cost, d = f_trial, cost_trial, d_trial
        step_taken = s
        backtracks_taken = trials - 1

    return OptimizeReport(iterates=records, final_control=f, reason=reason)

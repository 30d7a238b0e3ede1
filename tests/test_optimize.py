"""Cost evaluation, projected-gradient descent, and optimality reporting."""

import importlib.util
import weakref
from pathlib import Path

import numpy as np
import pytest

from kscontrol import forward, linalg, optimize
from kscontrol.adjoint import check_dual_definite, solve_adjoint
from kscontrol.control import (
    AdmissibleSet,
    ControlField,
    CostWeights,
    TrackingTargets,
    qc_norm,
    reduced_gradient,
    vi_residual,
)
from kscontrol.errors import LinearSolverError, PicardDivergenceError, StepConditioningError
from kscontrol.forward import (
    ModelParams,
    PicardSettings,
    StateTrajectory,
    TimeGrid,
)
from kscontrol.mesh import Field2D, GridSpec, RegionMask, constant_field, field_from_function
from kscontrol.optimize import (
    ArmijoSettings,
    ControlProblem,
    CostAboveCeiling,
    OptimizeOptions,
    cost_of_control,
    evaluate_cost,
    gradient_of_control,
    kkt_report,
    solve,
)

GRID = GridSpec(Lx=1.0, Ly=1.0, nx=8, ny=8)


def _constant_state(tg, u_val, v_val):
    shape = (tg.nt + 1, GRID.nx, GRID.ny)
    return StateTrajectory(time_grid=tg, grid=GRID, u=np.full(shape, u_val),
                           v=np.full(shape, v_val))


def _tracking_problem(nt=6, gamma_f=1e-3, admissible=AdmissibleSet(),
                      f0=None, weights=None, scheme="central"):
    params = ModelParams(kappa=0.8, r=0.6, mu=1.2)
    tg = TimeGrid(T=0.3, nt=nt)
    region = RegionMask.rectangle(GRID, 0.25, 0.25, 0.75, 0.75)
    u0 = field_from_function(GRID, lambda x, y: 0.5 + 0.2 * np.cos(np.pi * x))
    v0 = field_from_function(GRID, lambda x, y: 0.5 + 0.1 * np.cos(np.pi * y))
    targets = TrackingTargets(constant_field(GRID, 0.4), constant_field(GRID, 0.6))
    return ControlProblem(
        u0=u0, v0=v0, targets=targets, params=params,
        weights=weights or CostWeights(1.0, 0.8, gamma_f),
        admissible=admissible, region=region, time_grid=tg, scheme=scheme,
        picard=PicardSettings(tol=1e-11, max_iters=100), cg_tol=1e-11, f0=f0,
    )


# ----------------------------------------------------------------------
# cost evaluation


def test_cost_zero_when_state_matches_targets():
    tg = TimeGrid(T=1.0, nt=4)
    state = _constant_state(tg, 0.4, 0.6)
    targets = TrackingTargets(constant_field(GRID, 0.4), constant_field(GRID, 0.6))
    f = ControlField.zeros(tg, RegionMask.everywhere(GRID))
    cost = evaluate_cost(state, f, targets, CostWeights(1.0, 1.0, 1.0), 2.1)
    assert cost.j_u == 0.0 and cost.j_v == 0.0 and cost.j_f == 0.0
    assert cost.j_total == 0.0


def test_cost_trapezoid_weights_integrate_constants_exactly():
    # |u - u_d| = 1 on the unit square for a unit of time gives
    # j_u = (gamma_u / 2) * T * |domain| = 1 with gamma_u = 2
    tg = TimeGrid(T=1.0, nt=5)
    state = _constant_state(tg, 1.4, 0.6)
    targets = TrackingTargets(constant_field(GRID, 0.4), constant_field(GRID, 0.6))
    f = ControlField.zeros(tg, RegionMask.everywhere(GRID))
    cost = evaluate_cost(state, f, targets, CostWeights(2.0, 1.0, 0.0), 2.1)
    np.testing.assert_allclose(cost.j_u, 1.0, rtol=1e-13)
    assert cost.j_v == 0.0


def test_cost_components_zero_out_with_their_weights():
    tg = TimeGrid(T=1.0, nt=4)
    state = _constant_state(tg, 1.0, 1.0)
    targets = TrackingTargets(constant_field(GRID, 0.0), constant_field(GRID, 0.0))
    f = ControlField.from_constant(tg, RegionMask.everywhere(GRID), 1.0)
    cost = evaluate_cost(state, f, targets, CostWeights(0.0, 0.0, 0.0), 2.1)
    assert cost.j_total == 0.0


def test_cost_breakdown_total_is_the_sum():
    tg = TimeGrid(T=0.5, nt=4)
    state = _constant_state(tg, 1.0, 2.0)
    targets = TrackingTargets(constant_field(GRID, 0.0), constant_field(GRID, 0.0))
    f = ControlField.from_constant(tg, RegionMask.everywhere(GRID), 0.5)
    cost = evaluate_cost(state, f, targets, CostWeights(1.0, 1.0, 1.0), 2.1)
    np.testing.assert_allclose(cost.j_total, cost.j_u + cost.j_v + cost.j_f, rtol=1e-15)
    assert cost.j_u > 0 and cost.j_v > 0 and cost.j_f > 0


# ----------------------------------------------------------------------
# descent


def test_solve_stops_immediately_at_a_stationary_point():
    # no tracking, zero initial control: the gradient vanishes identically
    problem = _tracking_problem(weights=CostWeights(0.0, 0.0, 1e-2))
    report = solve(problem, OptimizeOptions(max_iters=10, vi_tol=1e-10))
    assert report.converged and report.reason == "vi_tol"
    assert len(report.iterates) == 1
    assert report.iterates[0].vi_residual == 0.0
    np.testing.assert_array_equal(report.final_control.values, 0.0)


def test_solve_drives_pure_regularization_cost_to_zero():
    # without tracking terms the optimum is f = 0 from any start
    tg_region = RegionMask.rectangle(GRID, 0.25, 0.25, 0.75, 0.75)
    f0 = ControlField.from_constant(TimeGrid(T=0.3, nt=6), tg_region, 0.8)
    problem = _tracking_problem(weights=CostWeights(0.0, 0.0, 1e-2), f0=f0)
    report = solve(problem, OptimizeOptions(max_iters=60, vi_tol=1e-8,
                                            armijo=ArmijoSettings(s0=25.0)))
    costs = [rec.cost.j_total for rec in report.iterates]
    assert costs == sorted(costs, reverse=True)
    assert report.final_cost.j_total < 1e-4 * costs[0]
    assert np.abs(report.final_control.values).max() < 0.05


def test_solve_descends_strictly_on_a_tracking_problem():
    problem = _tracking_problem()
    report = solve(problem, OptimizeOptions(max_iters=8, vi_tol=1e-12))
    costs = [rec.cost.j_total for rec in report.iterates]
    assert len(costs) >= 3
    for a, b in zip(costs, costs[1:]):
        assert b < a
    # and the residual is being worked down, not just dithered
    assert report.iterates[-1].vi_residual < report.iterates[0].vi_residual


def test_solve_is_deterministic():
    problem = _tracking_problem()
    a = solve(problem, OptimizeOptions(max_iters=4, vi_tol=1e-12))
    b = solve(problem, OptimizeOptions(max_iters=4, vi_tol=1e-12))
    np.testing.assert_array_equal(a.final_control.values, b.final_control.values)
    assert [r.cost.j_total for r in a.iterates] == [r.cost.j_total for r in b.iterates]


def test_solve_respects_box_constraints():
    box = AdmissibleSet("box", -0.05, 0.05)
    problem = _tracking_problem(admissible=box)
    report = solve(problem, OptimizeOptions(max_iters=6, vi_tol=1e-12,
                                            armijo=ArmijoSettings(s0=4.0)))
    vals = report.final_control.values
    assert vals.min() >= -0.05 - 1e-15 and vals.max() <= 0.05 + 1e-15


def test_solve_reports_line_search_failure():
    # an enormous first step with no backtracking cannot be accepted: the
    # trial control blows up the forward fixed point, which counts as a
    # rejection, and there is no budget left to shrink
    problem = _tracking_problem()
    report = solve(problem, OptimizeOptions(
        max_iters=5, vi_tol=1e-14,
        armijo=ArmijoSettings(s0=1e4, max_backtracks=0),
    ))
    assert not report.converged
    assert report.reason == "line_search_failure"
    assert len(report.iterates) >= 1


@pytest.mark.parametrize("s0", [1e2, 1e3, 1e4, 1e5])
def test_trial_the_dual_cannot_take_is_a_rejected_step(s0):
    # one step of length 1 and a signal target far above the state: the
    # gradient pushes the one control cell past 1/tau + 1, where the dual
    # signal solve loses definiteness; such a trial must shrink, not abort
    grid = GridSpec(Lx=1.0, Ly=1.0, nx=8, ny=8)
    inside = np.zeros((8, 8), dtype=bool)
    inside[3, 3] = True
    tg = TimeGrid(T=1.0, nt=1)
    problem = ControlProblem(
        u0=constant_field(grid, 1.0), v0=constant_field(grid, 1.0),
        targets=TrackingTargets(constant_field(grid, 1.0), constant_field(grid, 50.0)),
        params=ModelParams(kappa=0.0, r=1.0, mu=1.0), weights=CostWeights(1.0, 1.0, 1e-3),
        admissible=AdmissibleSet(), region=RegionMask(grid, inside), time_grid=tg,
    )
    report = solve(problem, OptimizeOptions(max_iters=3, vi_tol=1e-12,
                                            armijo=ArmijoSettings(s0=s0)))
    costs = [rec.cost.j_total for rec in report.iterates]
    assert len(costs) == 4
    assert all(b < a for a, b in zip(costs, costs[1:]))
    assert report.final_control.values.max() < 1.0 / tg.tau + 1.0


def _trial_crash_problem():
    # with tau = 1 and r = 2 the dual density shift 1/tau + 2 mu u_+ - r is
    # positive only while u > 1/2; the march from u0 = 0.6 under the initial
    # f = 0 keeps it there, but a long first step to the box bound does not.
    grid = GridSpec(Lx=1.0, Ly=1.0, nx=8, ny=8)
    tg = TimeGrid(T=1.0, nt=1)
    region = RegionMask.rectangle(grid, 0.0, 0.0, 0.45, 0.45)
    params = ModelParams(kappa=5.0, r=2.0, mu=1.0)
    u0, v0 = constant_field(grid, 0.6), constant_field(grid, 1.0)
    picard = PicardSettings(max_iters=200)
    star = cost_of_control(ControlProblem(
        u0=u0, v0=v0, targets=TrackingTargets(u0, v0), params=params,
        weights=CostWeights(), admissible=AdmissibleSet(), region=region, time_grid=tg,
        scheme="upwind", picard=picard), ControlField.from_constant(tg, region, 1.9))[0]
    return ControlProblem(
        u0=u0, v0=v0, targets=TrackingTargets(star.u, star.v), params=params,
        weights=CostWeights(1.0, 1.0, 1e-4), admissible=AdmissibleSet("box", -1.9, 1.9),
        region=region, time_grid=tg, scheme="upwind", picard=picard,
    )


def test_trial_whose_march_the_dual_cannot_take_is_a_rejected_step():
    # the long first step's trial marches fine, so only a check on its march
    # can reject it before the next gradient needs the dual
    problem = _trial_crash_problem()
    # the first trial reaches the bound, where the shift margin is -0.04;
    # three iterations step past it (a run to line-search failure takes 511 trials)
    report = solve(problem, OptimizeOptions(max_iters=3, armijo=ArmijoSettings(s0=1e4)))
    costs = [rec.cost.j_total for rec in report.iterates]
    assert len(costs) == 4
    assert all(b < a for a, b in zip(costs, costs[1:]))
    state, _ = cost_of_control(problem, report.final_control)
    gradient_of_control(problem, report.final_control, state)


def test_a_trial_that_clipping_repeats_is_not_marched_again(monkeypatch):
    # once s d reaches far past the box, halving s leaves the clipped trial
    # unchanged; its march would repeat the rejected one bit for bit
    problem = _trial_crash_problem()
    marched = []

    def counting_cost_of_control(problem, f, ceiling=np.inf):
        marched.append(f.values.tobytes())
        return cost_of_control(problem, f, ceiling)

    monkeypatch.setattr(optimize, "cost_of_control", counting_cost_of_control)
    report = solve(problem, OptimizeOptions(max_iters=20, armijo=ArmijoSettings(s0=1e4)))
    assert all(a != b for a, b in zip(marched, marched[1:]))
    # the report still counts every trial: the initial march and each
    # accepted search; 10 of those 79 trials repeat and are not marched
    assert report.reason == "max_iters"
    trials = 1 + sum(rec.backtracks + 1 for rec in report.iterates[1:])
    assert trials == 79 and len(marched) == 69
    assert len(marched) == 1 + sum(rec.trial_marches for rec in report.iterates)
    assert len(marched) < trials


def _search_steps(monkeypatch):
    """Patch `optimize` to record, per search, the step of each marched trial
    (unconstrained: read back from ``f - s d``, exact up to rounding)."""
    searches = []

    def recording_gradient(problem, f, state):
        d = gradient_of_control(problem, f, state)
        searches.append((f.values, d.values, []))
        return d

    def recording_cost(problem, f, ceiling=np.inf):
        if ceiling < np.inf:  # a trial, not the initial march
            f_now, d, steps = searches[-1]
            steps.append(np.vdot(f_now - f.values, d) / np.vdot(d, d))
        return cost_of_control(problem, f, ceiling)

    monkeypatch.setattr(optimize, "gradient_of_control", recording_gradient)
    monkeypatch.setattr(optimize, "cost_of_control", recording_cost)
    return searches


def test_each_search_starts_next_to_the_step_the_last_one_accepted(monkeypatch):
    # s0 far too long: the first search backtracks from s0, every later one
    # starts at min(s_accepted / shrink, s0), not at s0 again
    arm = ArmijoSettings(s0=1e4)
    searches = _search_steps(monkeypatch)
    report = solve(_tracking_problem(), OptimizeOptions(max_iters=6, vi_tol=1e-12, armijo=arm))
    assert report.reason == "max_iters"
    accepted = [rec.step_size for rec in report.iterates[1:]]
    steps = [trials for _, _, trials in searches[:len(accepted)]]
    expected = [arm.s0] + [min(s / arm.shrink, arm.s0) for s in accepted[:-1]]
    assert any(first < arm.s0 for first in expected[1:])
    np.testing.assert_allclose([trials[0] for trials in steps], expected, rtol=1e-9)
    for trials, rec in zip(steps, report.iterates[1:]):
        assert len(trials) == rec.trial_marches == rec.backtracks + 1
        np.testing.assert_allclose(trials, trials[0] * arm.shrink ** np.arange(len(trials)),
                                   rtol=1e-9)
        assert trials[-1] == pytest.approx(rec.step_size, rel=1e-9)


def _reference_solve(problem, opts):
    """`solve`'s search with every trial marched to the end: the same warm
    start and clipped-repeat rule, decided on the full cost only."""
    arm, lo, hi = opts.armijo, problem.admissible.f_min, problem.admissible.f_max
    f = problem.initial_control()
    state, cost = cost_of_control(problem, f)
    records, step, backtracks, marches = [], 0.0, 0, 0
    for iteration in range(opts.max_iters + 1):
        d = gradient_of_control(problem, f, state)
        res = vi_residual(f, d, problem.admissible)
        records.append((iteration, cost, res, step, backtracks, marches))
        if res <= opts.vi_tol or iteration == opts.max_iters:
            break
        s = min(step / arm.shrink, arm.s0) if iteration else arm.s0
        previous, marches = b"", 0
        for backtracks in range(arm.max_backtracks + 1):
            vals = np.clip(f.values - s * d.values, lo, hi)
            if vals.tobytes() != previous:
                previous = vals.tobytes()
                marches += 1
                trial = ControlField(f.time_grid, f.region, vals)
                try:
                    trial_state, trial_cost = cost_of_control(problem, trial)
                    check_dual_definite(trial_state.u[1:], vals, problem.params,
                                        problem.time_grid.tau)
                except (StepConditioningError, PicardDivergenceError, LinearSolverError):
                    pass
                else:
                    decrease = arm.c1 / s * qc_norm(f.values - vals, f) ** 2
                    if trial_cost.j_total <= cost.j_total - decrease:
                        break
            s *= arm.shrink
        else:
            return records, f, "line_search_failure"
        f, state, cost, step = trial, trial_state, trial_cost, s
    return records, f, "vi_tol" if res <= opts.vi_tol else "max_iters"


def _inverse_crime_problem(n, nt, T, picard=PicardSettings(), cg_tol=None):
    """Targets marched from a known control on the box [-2, 2], as in the
    O1 acceptance problem and the optimize-12 benchmark workload."""
    grid = GridSpec(1.0, 1.0, n, n)
    tg = TimeGrid(T=T, nt=nt)
    region = RegionMask.rectangle(grid, 0.25, 0.25, 0.75, 0.75)
    X, Y = grid.cell_centers()
    u0 = Field2D(grid, 0.6 + 0.2 * np.cos(np.pi * X) * np.cos(np.pi * Y))
    v0 = Field2D(grid, 0.5 + 0.15 * np.cos(np.pi * Y))
    params = ModelParams(kappa=0.9, r=0.8, mu=1.5)
    Xc, Yc = X[region.inside], Y[region.inside]
    t = tg.times()[:nt]
    f_star = ControlField(tg, region, 1.5 * np.outer(
        1.0 + 0.3 * np.cos(np.pi * t / T),
        np.cos(np.pi * (Xc - 0.5)) * np.cos(np.pi * (Yc - 0.5))))
    tol = {} if cg_tol is None else {"cg_tol": cg_tol}
    probe = ControlProblem(u0=u0, v0=v0, targets=TrackingTargets(u0, v0), params=params,
                           weights=CostWeights(), admissible=AdmissibleSet(), region=region,
                           time_grid=tg, picard=picard, **tol)
    star = cost_of_control(probe, f_star)[0]
    return ControlProblem(
        u0=u0, v0=v0, targets=TrackingTargets(star.u, star.v), params=params,
        weights=CostWeights(1.0, 1.0, 1e-6), admissible=AdmissibleSet("box", -2.0, 2.0),
        region=region, time_grid=tg, picard=picard, **tol,
    )


@pytest.mark.parametrize("case", ["trial-crash", "inverse-crime-8"])
def test_stopping_trial_marches_early_changes_no_decision(case):
    # a march stopped by its running cost is one the full march rejects too,
    # so the reports agree bit for bit with the search that marches every trial
    if case == "trial-crash":
        problem = _trial_crash_problem()
        opts = OptimizeOptions(max_iters=20, armijo=ArmijoSettings(s0=1e4))
    else:
        problem = _inverse_crime_problem(8, 8, 0.25, PicardSettings(tol=1e-12, max_iters=200),
                                         cg_tol=1e-12)
        opts = OptimizeOptions(max_iters=12, vi_tol=1e-5, armijo=ArmijoSettings(s0=2e4))
    report = solve(problem, opts)
    records, f, reason = _reference_solve(problem, opts)
    assert report.reason == reason
    assert [(r.iteration, r.cost, r.vi_residual, r.step_size, r.backtracks, r.trial_marches)
            for r in report.iterates] == records
    assert report.final_control.values.tobytes() == f.values.tobytes()
    nt = problem.time_grid.nt
    assert all(r.trial_levels <= nt * r.trial_marches for r in report.iterates)


def test_trial_marches_stop_once_their_cost_proves_rejection():
    # the optimize-12 benchmark set-up, where most searches reject trials:
    # those marches stop before their last level
    problem = _inverse_crime_problem(12, 8, 0.25)
    report = solve(problem, OptimizeOptions(max_iters=100, vi_tol=3e-5,
                                            armijo=ArmijoSettings(s0=2e4)))
    assert report.reason == "vi_tol"
    marches = sum(r.trial_marches for r in report.iterates)
    levels = sum(r.trial_levels for r in report.iterates)
    assert levels < problem.time_grid.nt * marches


def test_cost_of_control_with_a_ceiling_stops_at_the_first_costlier_level():
    problem = _tracking_problem()
    nt = problem.time_grid.nt
    f = ControlField.from_constant(problem.time_grid, problem.region, 0.3)
    state, cost = cost_of_control(problem, f)
    running = optimize.RunningCost(problem.targets, problem.weights, problem.time_grid,
                                   state.grid, cost.j_f)
    partial = []  # the cost of levels 0 .. n
    for n in range(nt + 1):
        running.add(n, state.u[n], state.v[n])
        partial.append(running.breakdown().j_total)
    assert partial[-1] == cost.j_total
    assert all(a < b for a, b in zip(partial, partial[1:]))
    # a ceiling equal to the cost of levels 0 .. k stops the march before step k + 1
    for k in range(nt - 1):
        with pytest.raises(CostAboveCeiling) as stopped:
            cost_of_control(problem, f, partial[k])
        assert stopped.value.time_index == k + 1
    # the last level is never checked: the march ends with the full cost
    for ceiling in (partial[nt - 1], cost.j_total, np.inf):
        capped_state, capped = cost_of_control(problem, f, ceiling)
        assert capped == cost
        assert capped_state.u.tobytes() == state.u.tobytes()
    with pytest.raises(CostAboveCeiling) as at_once:
        cost_of_control(problem, f, -1.0)
    assert at_once.value.time_index == 0


@pytest.mark.parametrize("ceiling", [None, 1e6])
def test_cost_of_control_sums_each_level_once(monkeypatch, ceiling):
    # one running sum per march, with or without a ceiling, equal bit for
    # bit to the cost of the stored trajectory
    problem = _tracking_problem()
    f = ControlField.from_constant(problem.time_grid, problem.region, 0.3)
    added = []
    add = optimize.RunningCost.add

    def counting_add(running, n, u_n, v_n):
        added.append(n)
        add(running, n, u_n, v_n)

    monkeypatch.setattr(optimize.RunningCost, "add", counting_add)
    state, cost = cost_of_control(problem, f, *([] if ceiling is None else [ceiling]))
    assert added == list(range(problem.time_grid.nt + 1))
    assert cost == evaluate_cost(state, f, problem.targets, problem.weights,
                                 problem.params.p_exponent)


def _error(kind):
    return {"conditioning": StepConditioningError("dual loses definiteness"),
            "picard": PicardDivergenceError("dual fixed point stalled", 1.0, 2),
            "linear": LinearSolverError("conjugate gradient did not converge", 1e-3, 2)}[kind]


@pytest.mark.parametrize("kind", ["conditioning", "picard", "linear"])
def test_a_trial_whose_gradient_fails_is_a_rejected_step(monkeypatch, kind):
    # the first trial to pass the Armijo test has a dual the solver cannot
    # take: the search rejects it and shrinks, and the run goes on
    problem = _tracking_problem()
    opts = OptimizeOptions(max_iters=3, vi_tol=1e-12)
    plain = solve(problem, opts)
    calls = []

    def failing_gradient(problem, f, state):
        calls.append(f.values)
        if len(calls) == 2:  # the initial control's gradient is call 1
            raise _error(kind)
        return gradient_of_control(problem, f, state)

    monkeypatch.setattr(optimize, "gradient_of_control", failing_gradient)
    report = solve(problem, opts)
    costs = [rec.cost.j_total for rec in report.iterates]
    assert report.reason == "max_iters" and len(costs) == 4
    assert all(b < a for a, b in zip(costs, costs[1:]))
    first, plain_first = report.iterates[1], plain.iterates[1]
    assert first.backtracks == plain_first.backtracks + 1
    assert first.trial_marches == plain_first.trial_marches + 1
    assert first.step_size == plain_first.step_size * opts.armijo.shrink
    assert not np.array_equal(calls[2], calls[1])


def test_a_failed_linear_solve_names_its_step_and_ends_the_trial_there(monkeypatch):
    # a CG failure inside step k of a march names the march and the step,
    # and a trial march that fails there counts the k levels it computed
    problem = _tracking_problem()
    nt, k = problem.time_grid.nt, 3
    marches, at = [], [None]
    fixed_point, solve_shifted = forward.coupled_fixed_point, linalg.solve_shifted

    def tracking_fixed_point(sweep, start, settings, cell_area, name, time_index, **kwargs):
        if name == "fixed-point iteration" and time_index == 0:
            marches.append(time_index)
        at[0] = (len(marches), name, time_index)
        return fixed_point(sweep, start, settings, cell_area, name, time_index, **kwargs)

    def failing_solve_shifted(*args, **kwargs):
        if at[0] == (2, "fixed-point iteration", k):  # the first trial march
            raise LinearSolverError("conjugate gradient did not converge", 1e-3)
        return solve_shifted(*args, **kwargs)

    monkeypatch.setattr(forward, "coupled_fixed_point", tracking_fixed_point)
    monkeypatch.setattr(linalg, "solve_shifted", failing_solve_shifted)
    f = ControlField.zeros(problem.time_grid, problem.region)
    cost_of_control(problem, f)
    with pytest.raises(LinearSolverError) as failed:
        cost_of_control(problem, f)
    assert failed.value.time_index == k
    assert str(failed.value).startswith(
        f"fixed-point iteration at sweep 1 of step {k}: conjugate gradient did not converge")

    marches.clear()
    report = solve(problem, OptimizeOptions(max_iters=1, vi_tol=1e-12))
    first = report.iterates[1]
    assert first.trial_marches == first.backtracks + 1 >= 2
    assert first.trial_levels == k + (first.trial_marches - 1) * nt


@pytest.mark.filterwarnings("error")
def test_a_trial_step_that_overflows_is_a_rejected_step():
    # s0 = 1e308 times a gradient above 1.8 overflows f - s d: the trial is
    # rejected like any other, without a warning, and every trial it could
    # shrink to within 40 backtracks is still too long
    problem = _tracking_problem(weights=CostWeights(1e6, 0.8, 1e-3))
    report = solve(problem, OptimizeOptions(max_iters=3, armijo=ArmijoSettings(s0=1e308)))
    assert report.reason == "line_search_failure" and len(report.iterates) == 1


@pytest.mark.filterwarnings("error")
def test_an_overflowing_trial_counts_as_a_backtrack_and_is_not_marched(monkeypatch):
    # enough backtracks to shrink 1e308 down to a step the search accepts:
    # the overflowing trials count in `backtracks` but not in `trial_marches`
    problem = _tracking_problem(weights=CostWeights(1e6, 0.8, 1e-3))
    marched = []

    def counting_cost_of_control(problem, f, ceiling=np.inf):
        marched.append(f)
        return cost_of_control(problem, f, ceiling)

    monkeypatch.setattr(optimize, "cost_of_control", counting_cost_of_control)
    arm = ArmijoSettings(s0=1e308, max_backtracks=1100)
    report = solve(problem, OptimizeOptions(max_iters=1, vi_tol=1e-12, armijo=arm))
    first = report.iterates[1]
    assert report.reason == "max_iters" and first.cost.j_total < report.iterates[0].cost.j_total
    f0 = problem.initial_control()
    d = gradient_of_control(problem, f0, cost_of_control(problem, f0)[0]).values
    with np.errstate(over="ignore"):
        overflowed = sum(not np.all(np.isfinite(f0.values - arm.s0 * arm.shrink ** k * d))
                         for k in range(first.backtracks + 1))
    assert overflowed >= 1
    assert first.trial_marches == len(marched) - 1 == first.backtracks + 1 - overflowed


def _optimize_12_workload():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS["optimize-12"]


def test_solve_holds_one_trajectory_at_a_time(monkeypatch, tmp_path):
    # no march starts while an earlier trajectory is alive: the initial one
    # is released once its gradient is taken, each trial's before the next march
    workload = _optimize_12_workload()
    inputs = workload.build(1000, tmp_path)
    returned, alive_at_start = [], []

    def tracking_solve_forward(*args, **kwargs):
        alive_at_start.append(sum(ref() is not None for ref in returned))
        state = forward.solve_forward(*args, **kwargs)
        returned.append(weakref.ref(state))
        return state

    monkeypatch.setattr(optimize, "solve_forward", tracking_solve_forward)
    report = workload.run(inputs)
    assert report.reason == "vi_tol" and len(returned) >= 3
    assert alive_at_start == [0] * len(alive_at_start)


def test_solve_hits_iteration_cap():
    problem = _tracking_problem()
    report = solve(problem, OptimizeOptions(max_iters=2, vi_tol=1e-14))
    assert not report.converged
    assert report.reason == "max_iters"
    assert report.iterates[-1].iteration == 2


def test_initial_control_is_projected():
    box = AdmissibleSet("box", -0.1, 0.1)
    region = RegionMask.rectangle(GRID, 0.25, 0.25, 0.75, 0.75)
    f0 = ControlField.from_constant(TimeGrid(T=0.3, nt=6), region, 5.0)
    problem = _tracking_problem(admissible=box, f0=f0)
    np.testing.assert_array_equal(problem.initial_control().values, 0.1)


def test_problem_requires_well_posed_setup():
    # the state and the dual exist for every control, so building the
    # problem, its cost and its gradient need no minimizer; only solve does
    problem = _tracking_problem(weights=CostWeights(1.0, 1.0, 0.0))
    f = problem.initial_control()
    state, _ = cost_of_control(problem, f)
    gradient_of_control(problem, f, state)
    with pytest.raises(ValueError, match="gamma_f"):
        solve(problem, OptimizeOptions(max_iters=1))


@pytest.mark.parametrize("settings", [
    ("armijo", {"shrink": 0.0}), ("armijo", {"shrink": 1.0}), ("armijo", {"shrink": -0.5}),
    ("armijo", {"shrink": np.nan}), ("armijo", {"c1": 0.0}), ("armijo", {"c1": np.inf}),
    ("armijo", {"s0": 0.0}), ("armijo", {"s0": np.nan}), ("armijo", {"max_backtracks": -1}),
    ("options", {"max_iters": -1}), ("options", {"vi_tol": 0.0}),
    ("options", {"vi_tol": np.nan}),
], ids=lambda s: "-".join(f"{k}={v}" for k, v in s[1].items()))
def test_bad_optimizer_settings_are_rejected(settings):
    # shrink = 0 used to end solve in ZeroDivisionError, shrink = 1 or -0.5
    # in a silent line_search_failure at step 0
    kind, kwargs = settings
    with pytest.raises(ValueError):
        (ArmijoSettings if kind == "armijo" else OptimizeOptions)(**kwargs)


# ----------------------------------------------------------------------
# optimality report


def test_gradient_of_control_carries_the_problem_settings():
    problem = _tracking_problem(nt=3, scheme="upwind")
    problem.picard = PicardSettings(tol=1e-7, max_iters=7)
    problem.cg_tol = 1e-6
    f = ControlField.from_constant(problem.time_grid, problem.region, 0.3)
    state, _ = cost_of_control(problem, f)
    p, gamma_f = problem.params.p_exponent, problem.weights.gamma_f

    def by_hand(*args, **kwargs):
        adj = solve_adjoint(state, f, problem.targets, problem.params, problem.weights,
                            *args, **kwargs)
        return reduced_gradient(f, state, adj, gamma_f, p).values

    d = gradient_of_control(problem, f, state)
    assert isinstance(d, ControlField)
    assert d.values.tobytes() == by_hand("upwind", 1e-6, settings=problem.picard).tobytes()
    # the default scheme and tolerances give other bits, so these were used
    assert not np.array_equal(d.values, by_hand())


def test_kkt_report_all_zero_at_global_minimum():
    tg = TimeGrid(T=0.3, nt=4)
    region = RegionMask.everywhere(GRID)
    state = _constant_state(tg, 0.4, 0.6)
    targets = TrackingTargets(constant_field(GRID, 0.4), constant_field(GRID, 0.6))
    params = ModelParams(kappa=0.8, r=0.6, mu=1.2)
    weights = CostWeights(1.0, 1.0, 0.5)
    f = ControlField.zeros(tg, region)
    adj = solve_adjoint(state, f, targets, params, weights)
    rep = kkt_report(f, state, adj, AdmissibleSet(), weights, 2.1)
    assert rep.vi_residual == 0.0
    assert rep.max_pointwise_violation == 0.0
    assert rep.active_lower_fraction == 0.0 and rep.active_upper_fraction == 0.0


def test_kkt_report_distinguishes_vi_from_equality_stationarity():
    """A box-saturated control with the gradient pushing outward satisfies
    the variational inequality while the raw stationarity residual stays
    O(1): the report must show exactly that split."""
    problem = _tracking_problem(admissible=AdmissibleSet("box", -0.01, 0.01),
                                gamma_f=1e-6)
    report = solve(problem, OptimizeOptions(
        max_iters=25, vi_tol=1e-9, armijo=ArmijoSettings(s0=16.0)))
    f = report.final_control
    state, _ = cost_of_control(problem, f)
    adj = solve_adjoint(state, f, problem.targets, problem.params,
                        problem.weights, problem.scheme, problem.cg_tol,
                        settings=problem.picard)
    rep = kkt_report(f, state, adj, problem.admissible, problem.weights,
                     problem.params.p_exponent)
    assert rep.active_lower_fraction + rep.active_upper_fraction > 0.5
    assert rep.vi_residual <= 1e-6
    assert rep.max_pointwise_violation > 1e-3


def test_kkt_report_active_fractions():
    tg = TimeGrid(T=0.3, nt=4)
    region = RegionMask.everywhere(GRID)
    state = _constant_state(tg, 0.4, 0.6)
    targets = TrackingTargets(constant_field(GRID, 0.4), constant_field(GRID, 0.6))
    params = ModelParams(kappa=0.8, r=0.6, mu=1.2)
    weights = CostWeights(1.0, 1.0, 0.5)
    vals = np.full((tg.nt, region.count), 1.0)
    vals[:, : region.count // 2] = -1.0
    f = ControlField(tg, region, vals)
    adj = solve_adjoint(state, f, targets, params, weights)
    rep = kkt_report(f, state, adj, AdmissibleSet("box", -1.0, 1.0), weights, 2.1)
    np.testing.assert_allclose(
        rep.active_lower_fraction + rep.active_upper_fraction, 1.0)
    free = kkt_report(f, state, adj, AdmissibleSet(), weights, 2.1)
    assert free.active_lower_fraction == 0.0 and free.active_upper_fraction == 0.0

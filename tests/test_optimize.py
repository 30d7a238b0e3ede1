"""Cost evaluation, projected-gradient descent, and optimality reporting."""

import numpy as np
import pytest

from kscontrol.adjoint import solve_adjoint
from kscontrol.control import (
    AdmissibleSet,
    ControlField,
    CostWeights,
    TrackingTargets,
    reduced_gradient,
)
from kscontrol.forward import (
    ModelParams,
    PicardSettings,
    StateTrajectory,
    TimeGrid,
)
from kscontrol.mesh import GridSpec, RegionMask, constant_field, field_from_function
from kscontrol.optimize import (
    ArmijoSettings,
    ControlProblem,
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


def test_trial_whose_march_the_dual_cannot_take_is_a_rejected_step():
    # with tau = 1 and r = 2 the dual density shift 1/tau + 2 mu u_+ - r is
    # positive only while u > 1/2; the march from u0 = 0.6 under the initial
    # f = 0 keeps it there, but a long first step to the box bound does not.
    # That trial marches fine, so only a check on its march can reject it
    # before the next gradient needs the dual.
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
    problem = ControlProblem(
        u0=u0, v0=v0, targets=TrackingTargets(star.u, star.v), params=params,
        weights=CostWeights(1.0, 1.0, 1e-4), admissible=AdmissibleSet("box", -1.9, 1.9),
        region=region, time_grid=tg, scheme="upwind", picard=picard,
    )
    # the first trial reaches the bound, where the shift margin is -0.04;
    # three iterations step past it (a run to line-search failure takes 500 marches)
    report = solve(problem, OptimizeOptions(max_iters=3, armijo=ArmijoSettings(s0=1e4)))
    costs = [rec.cost.j_total for rec in report.iterates]
    assert len(costs) == 4
    assert all(b < a for a, b in zip(costs, costs[1:]))
    state, _ = cost_of_control(problem, report.final_control)
    gradient_of_control(problem, report.final_control, state)


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

"""Verification machinery: invariant monitoring, closed-form references,
finite-difference gradient probes, and the manufactured-solution study."""

import numpy as np
import pytest

from kscontrol.control import (
    AdmissibleSet,
    ControlField,
    CostWeights,
    TrackingTargets,
)
from kscontrol.forward import (
    ModelParams,
    PicardSettings,
    StateTrajectory,
    TimeGrid,
    solve_forward,
)
from kscontrol.mesh import (
    GridSpec,
    RegionMask,
    constant_field,
    field_from_function,
)
from kscontrol.optimize import ControlProblem
from kscontrol.verify import (
    fd_gradient,
    logistic_closed_form,
    mms_convergence,
    monitor_invariants,
    trajectory_l2_distance,
)

GRID = GridSpec(Lx=1.0, Ly=1.0, nx=8, ny=8)


def _logistic_run(scheme="upwind", nt=20):
    params = ModelParams(kappa=1.0, r=1.0, mu=2.0)
    tg = TimeGrid(T=1.0, nt=nt)
    f = ControlField.zeros(tg, RegionMask.everywhere(GRID))
    state = solve_forward(
        constant_field(GRID, 0.1), constant_field(GRID, 0.2), f, params, tg,
        settings=PicardSettings(tol=1e-12, max_iters=100), scheme=scheme,
        cg_tol=1e-12,
    )
    return state, params


# ----------------------------------------------------------------------
# invariant monitoring


def test_monitor_passes_on_a_clean_run():
    state, params = _logistic_run()
    rep = monitor_invariants(state, params)
    assert rep.nonneg_ok and rep.mass_bound_ok and rep.mass_identity_ok
    assert rep.mass_identity_residual[0] == 0.0
    assert np.abs(rep.mass_identity_residual).max() < 1e-12
    # logistic growth pushes the mass toward r |Omega| / mu = 0.5
    assert rep.mass_u[-1] > rep.mass_u[0]
    assert rep.mass_u[-1] <= rep.mass_bound_rhs


def test_monitor_zero_density_run():
    params = ModelParams(kappa=1.0, r=2.0, mu=1.0)
    tg = TimeGrid(T=0.5, nt=10)
    f = ControlField.zeros(tg, RegionMask.everywhere(GRID))
    state = solve_forward(constant_field(GRID, 0.0), constant_field(GRID, 0.7),
                          f, params, tg)
    rep = monitor_invariants(state, params)
    assert rep.nonneg_ok and rep.mass_bound_ok and rep.mass_identity_ok
    np.testing.assert_array_equal(rep.mass_u, 0.0)
    np.testing.assert_array_equal(rep.min_u, 0.0)


def test_monitor_rejects_trajectory_without_recorded_residual():
    # the mass identity residual comes only from the march that made the
    # levels; bare levels carry none, and nothing is recomputed from them
    tg = TimeGrid(T=0.3, nt=10)
    shape = (tg.nt + 1, GRID.nx, GRID.ny)
    bare = StateTrajectory(tg, GRID, np.full(shape, 0.5), np.full(shape, 0.5))
    with pytest.raises(ValueError, match="mass identity residual"):
        monitor_invariants(bare, ModelParams(kappa=1.0, r=1.0, mu=2.0))


def test_monitor_flags_central_scheme_undershoot():
    """Strong chemotaxis across a sharp front at cell Peclet >> 1: the
    central flux rings and the density dips well below zero.  The monitor
    must fail nonnegativity while the mass identity keeps holding (it is
    enforced by the solver regardless of sign).  The upwind donor flux on
    identical data stays clean."""
    g = GridSpec(1.0, 1.0, 16, 16)
    tg = TimeGrid(T=0.04, nt=40)
    u0 = field_from_function(g, lambda x, y: 0.5 * (1.0 + np.tanh((0.45 - x) / 0.02)))
    v0 = field_from_function(g, lambda x, y: x.copy())
    params = ModelParams(kappa=64.0, r=0.1, mu=0.01)
    f = ControlField.zeros(tg, RegionMask.everywhere(g))
    settings = PicardSettings(tol=1e-10, max_iters=400)

    central = solve_forward(u0, v0, f, params, tg, settings=settings,
                            scheme="central", cg_tol=1e-12)
    rep_c = monitor_invariants(central, params)
    assert not rep_c.nonneg_ok
    assert rep_c.min_u.min() < -1e-3
    assert rep_c.mass_identity_ok

    upwind = solve_forward(u0, v0, f, params, tg, settings=settings,
                           scheme="upwind", cg_tol=1e-12)
    rep_u = monitor_invariants(upwind, params)
    assert rep_u.nonneg_ok
    assert rep_u.min_u.min() >= -1e-12


def test_monitor_fails_a_mass_identity_residual_above_round_off():
    state, params = _logistic_run()
    assert monitor_invariants(state, params).mass_identity_ok
    state.mass_identity_residual[3] += 1e-9
    assert not monitor_invariants(state, params).mass_identity_ok


def test_invariant_report_csv_format():
    state, params = _logistic_run(nt=5)
    rep = monitor_invariants(state, params)
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0].startswith("level,time,min_u")
    assert len(lines) == 2 + 5  # header + nt+1 levels
    assert "np.float64" not in csv
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.0


# ----------------------------------------------------------------------
# closed forms


def test_logistic_closed_form_satisfies_the_ode():
    y = logistic_closed_form(0.3, 1.2, 2.5)
    h = 1e-6
    for t in (0.0, 0.5, 2.0):
        dy = (y(t + h) - y(t - h)) / (2.0 * h)
        np.testing.assert_allclose(dy, 1.2 * y(t) - 2.5 * y(t) ** 2, rtol=1e-6)
    np.testing.assert_allclose(y(0.0), 0.3, rtol=1e-12)
    # long-time limit is the carrying capacity r / mu
    np.testing.assert_allclose(y(80.0), 1.2 / 2.5, rtol=1e-10)


def test_logistic_closed_form_pure_decay():
    # r = 0 integrates to 1 / (1/c0 + mu t) exactly
    y = logistic_closed_form(0.5, 0.0, 3.0)
    for t in (0.1, 1.0, 10.0):
        np.testing.assert_allclose(y(t), 1.0 / (2.0 + 3.0 * t), rtol=1e-12)


# ----------------------------------------------------------------------
# finite-difference gradient probes


def _probe_problem(gamma_u=0.0, gamma_v=0.0, gamma_f=0.7):
    params = ModelParams(kappa=0.5, r=0.4, mu=1.0)
    tg = TimeGrid(T=0.2, nt=4)
    region = RegionMask.rectangle(GRID, 0.25, 0.25, 0.75, 0.75)
    return ControlProblem(
        u0=constant_field(GRID, 0.5),
        v0=constant_field(GRID, 0.5),
        targets=TrackingTargets(constant_field(GRID, 0.4), constant_field(GRID, 0.6)),
        params=params,
        weights=CostWeights(gamma_u, gamma_v, gamma_f),
        admissible=AdmissibleSet(),
        region=region,
        time_grid=tg,
        picard=PicardSettings(tol=1e-12, max_iters=100),
        cg_tol=1e-12,
    )


def test_fd_gradient_zero_direction_gives_zero():
    problem = _probe_problem()
    f = ControlField.from_constant(problem.time_grid, problem.region, 0.8)
    zero_dir = ControlField.zeros(problem.time_grid, problem.region)
    out = fd_gradient(problem, f, [zero_dir])
    np.testing.assert_array_equal(out, np.zeros(1))


def test_fd_gradient_matches_analytic_control_cost_derivative():
    # gamma_u = gamma_v = 0 decouples the cost from the state entirely,
    # so the finite difference must match the p-power integrand pairing
    problem = _probe_problem()
    rng = np.random.default_rng(71)
    tg, region = problem.time_grid, problem.region
    f = ControlField(tg, region, rng.uniform(0.5, 1.2, size=(tg.nt, region.count)))
    direction = ControlField(tg, region, rng.standard_normal((tg.nt, region.count)))
    out = fd_gradient(problem, f, [direction], eps=1e-5)
    p, gamma_f = problem.params.p_exponent, problem.weights.gamma_f
    integrand = gamma_f * np.sign(f.values) * np.abs(f.values) ** (p - 1.0)
    exact = float(np.sum(integrand * direction.values)) * GRID.cell_area * tg.tau
    np.testing.assert_allclose(out[0], exact, rtol=1e-8)


def test_fd_gradient_error_shrinks_quadratically():
    problem = _probe_problem()
    rng = np.random.default_rng(72)
    tg, region = problem.time_grid, problem.region
    f = ControlField(tg, region, rng.uniform(0.5, 1.2, size=(tg.nt, region.count)))
    direction = ControlField(tg, region, rng.standard_normal((tg.nt, region.count)))
    p, gamma_f = problem.params.p_exponent, problem.weights.gamma_f
    integrand = gamma_f * np.sign(f.values) * np.abs(f.values) ** (p - 1.0)
    exact = float(np.sum(integrand * direction.values)) * GRID.cell_area * tg.tau
    errs = [abs(fd_gradient(problem, f, [direction], eps=e)[0] - exact)
            for e in (2e-3, 1e-3)]
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_fd_gradient_rejects_mismatched_direction():
    problem = _probe_problem()
    f = ControlField.zeros(problem.time_grid, problem.region)
    bad = ControlField.zeros(TimeGrid(T=0.2, nt=8), problem.region)
    with pytest.raises(ValueError, match="layout"):
        fd_gradient(problem, f, [bad])


# ----------------------------------------------------------------------
# trajectory distance and the manufactured-solution study


def test_trajectory_distance_of_constant_shift():
    params = ModelParams(kappa=1.0, r=1.0, mu=2.0)
    tg = TimeGrid(T=0.5, nt=5)
    shape = (6, GRID.nx, GRID.ny)
    u = np.full(shape, 0.3)
    v = np.full(shape, 0.4)
    a = StateTrajectory(time_grid=tg, grid=GRID, u=u, v=v)
    b = StateTrajectory(time_grid=tg, grid=GRID, u=np.full(shape, 1.3), v=np.full(shape, 0.4))
    du, dv = trajectory_l2_distance(a, b)
    # |u - u'| = 1 over the unit square for half a unit of time
    np.testing.assert_allclose(du, np.sqrt(0.5), rtol=1e-13)
    assert dv == 0.0
    with pytest.raises(ValueError, match="time grids"):
        trajectory_l2_distance(a, StateTrajectory(
            time_grid=TimeGrid(T=0.5, nt=4), grid=GRID, u=u[:5], v=v[:5]))


def test_mms_machinery_shows_spatial_error_collapse():
    # two levels are enough to check the study plumbing; the acceptance
    # suite runs the full three-level order fits
    table = mms_convergence(levels=2, study="spatial")
    assert len(table.rows) == 2
    assert np.isnan(table.rows[0].observed_order_u)
    r0, r1 = table.rows
    np.testing.assert_allclose(r0.h / r1.h, 2.0)
    np.testing.assert_allclose(r0.tau / r1.tau, 4.0)
    assert r1.error_u < r0.error_u / 3.0
    assert r1.error_v < r0.error_v / 3.0
    assert 1.5 < r1.observed_order_u < 2.5


def test_mms_table_csv_format():
    table = mms_convergence(levels=2, study="spatial")
    csv = table.to_csv()
    lines = csv.strip().split("\n")
    assert len(lines) == 3
    assert "np.float64" not in csv
    assert lines[0] == "level,h,tau,error_u,error_v,observed_order_u,observed_order_v"


def test_mms_needs_two_levels_for_an_order():
    with pytest.raises(ValueError, match="at least two refinement levels"):
        mms_convergence(levels=1)


def test_mms_rejects_unknown_study():
    with pytest.raises(ValueError, match="study"):
        mms_convergence(levels=2, study="spectral")

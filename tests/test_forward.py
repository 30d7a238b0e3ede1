"""Time stepper tests: single implicit solves, the per-step fixed point
(through one-step marches), and full trajectories against closed-form
references."""

import numpy as np
import pytest

from kscontrol.control import ControlField
from kscontrol.errors import GridMismatchError, PicardDivergenceError
from kscontrol.forward import (
    ModelParams,
    PicardSettings,
    TimeGrid,
    solve_forward,
    step_u,
    step_v,
)
from kscontrol.mesh import (
    Field2D,
    GridSpec,
    RegionMask,
    constant_field,
    field_from_function,
    laplacian_array,
)
from kscontrol.verify import logistic_closed_form

GRID = GridSpec(Lx=1.0, Ly=1.0, nx=8, ny=8)


def _zero_control(time_grid, grid=GRID):
    region = RegionMask.everywhere(grid)
    return ControlField.zeros(time_grid, region)


def _const(value, grid=GRID):
    return np.full((grid.nx, grid.ny), value)


# ----------------------------------------------------------------------
# single steps


def test_step_v_constant_decay():
    # (1/tau + 1) v = c / tau  =>  v = c / (1 + tau), a pure relaxation
    tau = 0.125
    c = 2.0
    v = step_v(GRID, _const(c), _const(0.0), _const(0.0), _const(0.0), tau)
    np.testing.assert_allclose(v, c / (1.0 + tau), rtol=1e-13)


def test_step_v_constant_sources():
    tau = 0.1
    c, b, phi = 1.5, 0.75, 0.4
    v = step_v(GRID, _const(0.0), _const(c), _const(b), _const(phi), tau)
    np.testing.assert_allclose(v, tau * (c + phi * b) / (1.0 + tau), rtol=1e-13)


def test_step_v_clips_negative_lagged_iterates():
    # a negative u_bar must not act as a sink
    tau = 0.1
    v_neg = step_v(GRID, _const(1.0), _const(-5.0), _const(-3.0), _const(2.0), tau)
    v_zero = step_v(GRID, _const(1.0), _const(0.0), _const(0.0), _const(2.0), tau)
    np.testing.assert_array_equal(v_neg, v_zero)


def test_step_v_cosine_mode_tracks_continuum_decay():
    """One implicit step of the cosine mode against exp(-(1 + pi^2) tau)."""
    g = GridSpec(Lx=1.0, Ly=1.0, nx=32, ny=32)
    tau = 1e-3
    v0 = field_from_function(g, lambda x, y: np.cos(np.pi * x)).values
    zero = _const(0.0, g)
    v1 = step_v(g, v0, zero, zero, zero, tau)
    ref = np.exp(-(1.0 + np.pi**2) * tau) * v0
    assert np.max(np.abs(v1 - ref)) < 2e-4


def test_step_u_constant_logistic_update():
    # constants kill diffusion and chemotaxis, leaving
    # (1/tau + mu c) u = c/tau + r c
    params = ModelParams(kappa=0.7, r=1.3, mu=2.0)
    tau = 0.05
    c = 0.6
    u = step_u(GRID, _const(c), _const(c), _const(0.9), params, tau)
    expected = (c / tau + params.r * c) / (1.0 / tau + params.mu * c)
    np.testing.assert_allclose(u, expected, rtol=1e-13)


def test_step_u_nonpositive_ubar_is_a_heat_step():
    """With u_bar <= 0 every reaction and transport coefficient clips away,
    so the update solves (1/tau - lap) u = u_prev / tau.  Check against a
    dense matrix built column by column."""
    rng = np.random.default_rng(41)
    g = GridSpec(Lx=1.0, Ly=1.0, nx=6, ny=5)
    params = ModelParams(kappa=2.0, r=5.0, mu=3.0)
    tau = 0.2
    u_prev = rng.uniform(0.5, 1.5, size=(6, 5))
    u = step_u(g, u_prev, _const(-1.0, g), rng.uniform(0.0, 1.0, size=(6, 5)),
               params, tau, cg_tol=1e-13)
    n = 30
    mat = np.zeros((n, n))
    for j in range(n):
        e = np.zeros((6, 5))
        e.flat[j] = 1.0
        mat[:, j] = (e / tau - laplacian_array(e, g.hx, g.hy)).ravel()
    ref = np.linalg.solve(mat, u_prev.ravel() / tau)
    np.testing.assert_allclose(u.ravel(), ref, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("scheme", ["central", "upwind"])
def test_step_u_mass_identity_holds_to_round_off(scheme):
    """The discrete mass balance
    (m^{n+1} - m^n)/tau = r int u_bar_+ - mu int u_bar_+ u^{n+1}
    is enforced exactly by the step, including for sign-changing u_bar."""
    rng = np.random.default_rng(42)
    g = GridSpec(Lx=1.0, Ly=1.0, nx=12, ny=12)
    params = ModelParams(kappa=1.0, r=0.8, mu=1.5)
    tau = 0.05
    u_prev = rng.uniform(0.0, 2.0, size=(12, 12))
    u_bar = rng.uniform(-0.5, 2.0, size=(12, 12))
    v_new = rng.uniform(0.0, 1.0, size=(12, 12))
    u_new = step_u(g, u_prev, u_bar, v_new, params, tau, scheme=scheme, cg_tol=1e-12)

    def integrate(vals):
        return float(vals.sum()) * g.cell_area

    ubar_pos = np.maximum(u_bar, 0.0)
    lhs = (integrate(u_new) - integrate(u_prev)) / tau
    rhs = params.r * integrate(ubar_pos) - params.mu * integrate(ubar_pos * u_new)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


# ----------------------------------------------------------------------
# the per-step fixed point


def _one_step(u0, v0, f_value, params, tau, **kwargs):
    """March one step of length ``tau`` under the control ``f_value`` on the
    whole grid; the per-step fixed point is all the march does."""
    tg = TimeGrid(T=tau, nt=1)
    f = ControlField.from_constant(tg, RegionMask.everywhere(GRID), f_value)
    return solve_forward(Field2D(GRID, u0), Field2D(GRID, v0), f, params, tg, **kwargs)


def test_picard_two_sweeps_in_the_near_linear_regime():
    # with kappa = 0, r = 0, f = 0, vanishing mu, and constant density the
    # lagged coefficients never move: the first sweep already lands on the
    # solution and the second merely confirms it
    rng = np.random.default_rng(43)
    params = ModelParams(kappa=0.0, r=0.0, mu=1e-12)
    u0 = _const(0.7)
    v0 = rng.uniform(0.2, 1.0, size=(8, 8))
    state = _one_step(u0, v0, 0.0, params, tau=0.05,
                      settings=PicardSettings(tol=1e-9, max_iters=20))
    assert state.picard_iters[0] <= 2


def test_picard_tightening_tol_barely_moves_the_iterate():
    rng = np.random.default_rng(44)
    params = ModelParams(kappa=1.0, r=0.5, mu=1.0)
    u0 = rng.uniform(0.2, 1.0, size=(8, 8))
    v0 = rng.uniform(0.2, 1.0, size=(8, 8))
    loose_u = _one_step(u0, v0, 0.3, params, tau=0.05,
                        settings=PicardSettings(tol=1e-6, max_iters=50), cg_tol=1e-13).u[1]
    tight_u = _one_step(u0, v0, 0.3, params, tau=0.05,
                        settings=PicardSettings(tol=1e-13, max_iters=200), cg_tol=1e-13).u[1]
    du = np.max(np.abs(loose_u - tight_u))
    assert du < 1e-6 * np.max(np.abs(tight_u))


def test_picard_raises_after_iteration_cap():
    rng = np.random.default_rng(45)
    params = ModelParams(kappa=1.0, r=0.5, mu=1.0)
    u0 = rng.uniform(0.2, 1.0, size=(8, 8))
    v0 = rng.uniform(0.2, 1.0, size=(8, 8))
    with pytest.raises(PicardDivergenceError) as exc:
        _one_step(u0, v0, 0.0, params, tau=0.1,
                  settings=PicardSettings(tol=1e-15, max_iters=1))
    assert exc.value.last_increment > 0.0
    assert exc.value.time_index == 0


def test_picard_blowup_guard_stops_an_amplifying_step():
    # with tau = 1 the lagged term f v_+ multiplies v by about f / 2 = 50 per
    # sweep, so the iterates outgrow their start by 1e8 at sweep 5
    params = ModelParams(kappa=1.0, r=1.0, mu=1.0)
    with pytest.raises(PicardDivergenceError, match="diverged at sweep 5") as exc:
        _one_step(_const(0.5), _const(0.5), 100.0, params, tau=1.0)
    assert exc.value.time_index == 0


# ----------------------------------------------------------------------
# trajectories


def test_forward_logistic_growth_matches_closed_form():
    """Spatially constant data reduce the system to the logistic equation;
    the implicit march should follow the closed form to O(tau)."""
    params = ModelParams(kappa=0.6, r=1.0, mu=2.0)
    tg = TimeGrid(T=1.0, nt=100)
    state = solve_forward(
        constant_field(GRID, 0.1),
        constant_field(GRID, 0.4),
        _zero_control(tg),
        params,
        tg,
        settings=PicardSettings(tol=1e-12, max_iters=100),
        cg_tol=1e-12,
    )
    exact = logistic_closed_form(0.1, params.r, params.mu)
    for n in (10, 50, 100):
        t = tg.times()[n]
        np.testing.assert_allclose(state.u[n], exact(t), rtol=5e-3)
    # the trajectory stays spatially constant
    assert np.ptp(state.u[-1]) < 1e-10


def test_forward_zero_density_stays_zero_and_signal_relaxes():
    params = ModelParams(kappa=1.0, r=2.0, mu=1.0)
    tg = TimeGrid(T=0.5, nt=20)
    state = solve_forward(
        constant_field(GRID, 0.0),
        constant_field(GRID, 1.0),
        _zero_control(tg),
        params,
        tg,
    )
    tau = tg.tau
    for n in range(tg.nt + 1):
        np.testing.assert_array_equal(state.u[n], np.zeros((8, 8)))
        np.testing.assert_allclose(state.v[n], (1.0 + tau) ** (-n), rtol=1e-12)
    # zero data stay exactly zero under a nonzero control: f multiplies v
    region = RegionMask.rectangle(GRID, 0.25, 0.25, 0.75, 0.75)
    state = solve_forward(
        constant_field(GRID, 0.0),
        constant_field(GRID, 0.0),
        ControlField.from_constant(tg, region, 1.5),
        params,
        tg,
    )
    np.testing.assert_array_equal(state.u, 0.0)
    np.testing.assert_array_equal(state.v, 0.0)


@pytest.mark.parametrize("scheme", ["central", "upwind"])
def test_forward_mass_constant_without_reaction(scheme):
    # r = 0 and mu ~ 0 make the density mass an invariant of the march
    rng = np.random.default_rng(46)
    params = ModelParams(kappa=1.0, r=0.0, mu=1e-12)
    tg = TimeGrid(T=0.5, nt=25)
    u0 = Field2D(GRID, rng.uniform(0.3, 1.2, size=(8, 8)))
    v0 = Field2D(GRID, rng.uniform(0.2, 0.8, size=(8, 8)))
    state = solve_forward(u0, v0, _zero_control(tg), params, tg,
                          settings=PicardSettings(tol=1e-12, max_iters=100),
                          scheme=scheme, cg_tol=1e-12)
    m0 = float(u0.values.sum()) * GRID.cell_area
    masses = state.u.sum(axis=(1, 2)) * GRID.cell_area
    np.testing.assert_allclose(masses, m0, rtol=1e-10)


def test_forward_linear_in_time_manufactured_solution_is_exact():
    """Spatially constant, linear-in-time exact solution.

    The backward difference of a linear function is its slope, so with
    sources evaluated at the implicit level the march commits no time
    error at all -- only solver tolerances remain.
    """
    params = ModelParams(kappa=0.9, r=0.7, mu=1.1)
    tg = TimeGrid(T=0.8, nt=8)
    a, b = 0.5, 0.35   # u* = a + b t
    c, d = 0.4, -0.15  # v* = c + d t

    def u_star(t):
        return a + b * t

    def v_star(t):
        return c + d * t

    # one source per step, taken at the step's implicit level
    t_new = tg.times()[1:, None, None]
    src_u = np.broadcast_to(b - params.r * u_star(t_new) + params.mu * u_star(t_new) ** 2,
                            (tg.nt, GRID.nx, GRID.ny))
    src_v = np.broadcast_to(d + v_star(t_new) - u_star(t_new), (tg.nt, GRID.nx, GRID.ny))

    state = solve_forward(
        constant_field(GRID, u_star(0.0)),
        constant_field(GRID, v_star(0.0)),
        _zero_control(tg),
        params,
        tg,
        settings=PicardSettings(tol=1e-13, max_iters=200),
        cg_tol=1e-13,
        source_u=src_u,
        source_v=src_v,
    )
    for n in range(tg.nt + 1):
        t = tg.times()[n]
        np.testing.assert_allclose(state.u[n], u_star(t), rtol=1e-9)
        np.testing.assert_allclose(state.v[n], v_star(t), rtol=1e-9)


def test_forward_diagnostics_are_recorded():
    params = ModelParams(kappa=1.0, r=1.0, mu=2.0)
    tg = TimeGrid(T=0.2, nt=4)
    state = solve_forward(
        constant_field(GRID, 0.5), constant_field(GRID, 0.5),
        _zero_control(tg), params, tg,
    )
    assert state.picard_iters.shape == (4,)
    assert np.all(state.picard_iters >= 1)
    assert np.all(np.abs(state.mass_identity_residual) < 1e-10)
    assert len(state.u) == len(state.v) == 5


# ----------------------------------------------------------------------
# validation


def test_forward_rejects_negative_initial_data():
    params = ModelParams(kappa=1.0, r=1.0, mu=1.0)
    tg = TimeGrid(T=0.1, nt=2)
    neg = constant_field(GRID, -0.01)
    ok = constant_field(GRID, 0.5)
    with pytest.raises(ValueError, match="u0"):
        solve_forward(neg, ok, _zero_control(tg), params, tg)
    with pytest.raises(ValueError, match="v0"):
        solve_forward(ok, neg, _zero_control(tg), params, tg)


def test_forward_requires_one_source_per_step():
    params = ModelParams(kappa=1.0, r=1.0, mu=1.0)
    tg = TimeGrid(T=0.1, nt=2)
    ok = constant_field(GRID, 0.5)
    per_level = np.zeros((tg.nt + 1, GRID.nx, GRID.ny))
    with pytest.raises(ValueError, match="per step"):
        solve_forward(ok, ok, _zero_control(tg), params, tg, source_u=per_level)
    with pytest.raises(ValueError, match="per step"):
        solve_forward(ok, ok, _zero_control(tg), params, tg, source_v=per_level[0])


def test_forward_rejects_mismatched_control():
    params = ModelParams(kappa=1.0, r=1.0, mu=1.0)
    tg = TimeGrid(T=0.1, nt=2)
    other_grid = GridSpec(Lx=1.0, Ly=1.0, nx=6, ny=6)
    with pytest.raises(GridMismatchError):
        solve_forward(
            constant_field(GRID, 0.5), constant_field(GRID, 0.5),
            _zero_control(tg, other_grid), params, tg,
        )
    with pytest.raises(ValueError, match="time grid"):
        solve_forward(
            constant_field(GRID, 0.5), constant_field(GRID, 0.5),
            _zero_control(TimeGrid(T=0.1, nt=3)), params, tg,
        )


def test_divergence_error_reports_failing_step():
    params = ModelParams(kappa=1.0, r=0.5, mu=1.0)
    tg = TimeGrid(T=0.4, nt=4)
    u0 = field_from_function(GRID, lambda x, y: 0.5 + 0.3 * np.cos(np.pi * x))
    v0 = field_from_function(GRID, lambda x, y: 0.5 + 0.2 * np.cos(np.pi * y))
    with pytest.raises(PicardDivergenceError) as exc:
        solve_forward(u0, v0, _zero_control(tg), params, tg,
                      settings=PicardSettings(tol=1e-15, max_iters=1))
    assert exc.value.time_index == 0


def test_solve_forward_refuses_an_unknown_flux_scheme():
    tg = TimeGrid(T=0.1, nt=1)
    ok = constant_field(GRID, 0.5)
    with pytest.raises(ValueError, match="unknown scheme 'quick'"):
        solve_forward(ok, ok, _zero_control(tg), ModelParams(kappa=1.0, r=1.0, mu=1.0), tg,
                      scheme="quick")


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(kappa=1.0, r=1.0, mu=0.0)
    with pytest.raises(ValueError):
        TimeGrid(T=0.0, nt=10)
    with pytest.raises(ValueError):
        TimeGrid(T=1.0, nt=0)
    with pytest.raises(ValueError):
        PicardSettings(tol=0.0)

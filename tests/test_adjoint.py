"""Dual sweep tests.

The backward solver is checked three independent ways: a scalar recursion
oracle for spatially constant data, a forward-difference check of the
linearized solver it transposes, and the duality pairing that ties the two
together at solver tolerance.
"""

import numpy as np
import pytest

from kscontrol.adjoint import (
    solve_adjoint,
    solve_linearized_dual,
    step_adjoint,
)
from kscontrol.control import ControlField, CostWeights, TrackingTargets
from kscontrol.errors import (
    GridMismatchError,
    PicardDivergenceError,
    StepConditioningError,
)
from kscontrol.forward import (
    ModelParams,
    PicardSettings,
    StateTrajectory,
    TimeGrid,
    solve_forward,
)
from kscontrol.mesh import (
    Field2D,
    GridSpec,
    RegionMask,
    constant_field,
    field_from_function,
)
from kscontrol.verify import duality_gap, trajectory_l2_distance

GRID = GridSpec(Lx=1.0, Ly=1.0, nx=8, ny=8)
TIGHT = PicardSettings(tol=1e-13, max_iters=300)


def _constant_trajectory(tg, u_levels, v_levels, grid=GRID):
    u = np.array([np.full((grid.nx, grid.ny), float(a)) for a in u_levels])
    v = np.array([np.full((grid.nx, grid.ny), float(b)) for b in v_levels])
    return StateTrajectory(time_grid=tg, grid=grid, u=u, v=v)


def _forward_fixture(nt=5, kappa=0.8, scheme="central"):
    params = ModelParams(kappa=kappa, r=0.6, mu=1.2)
    tg = TimeGrid(T=0.25, nt=nt)
    region = RegionMask.rectangle(GRID, 0.25, 0.25, 0.75, 0.75)
    f = ControlField.from_constant(tg, region, 0.4)
    u0 = field_from_function(GRID, lambda x, y: 0.6 + 0.2 * np.cos(np.pi * x) * np.cos(np.pi * y))
    v0 = field_from_function(GRID, lambda x, y: 0.5 + 0.15 * np.cos(np.pi * y))
    state = solve_forward(u0, v0, f, params, tg, settings=TIGHT,
                          scheme=scheme, cg_tol=1e-13)
    return params, tg, f, state


def _targets(u_val=0.4, v_val=0.55, grid=GRID):
    return TrackingTargets(constant_field(grid, u_val), constant_field(grid, v_val))


def test_terminal_multipliers_are_zero():
    params, tg, f, state = _forward_fixture()
    adj = solve_adjoint(state, f, _targets(), params, CostWeights(1.0, 1.0, 0.0),
                        settings=TIGHT, cg_tol=1e-13)
    np.testing.assert_array_equal(adj.lam[tg.nt], np.zeros((8, 8)))
    np.testing.assert_array_equal(adj.eta[tg.nt], np.zeros((8, 8)))


def test_adjoint_vanishes_when_state_matches_targets():
    # zero tracking mismatch means zero sources, and the backward sweep
    # propagates the zero terminal pair exactly
    params = ModelParams(kappa=1.0, r=0.5, mu=1.0)
    tg = TimeGrid(T=0.5, nt=6)
    state = _constant_trajectory(tg, [0.4] * 7, [0.55] * 7)
    f = ControlField.from_constant(tg, RegionMask.everywhere(GRID), 0.2)
    adj = solve_adjoint(state, f, _targets(0.4, 0.55), params,
                        CostWeights(1.0, 1.0, 0.0))
    for m in range(tg.nt + 1):
        np.testing.assert_array_equal(adj.lam[m], np.zeros((8, 8)))
        np.testing.assert_array_equal(adj.eta[m], np.zeros((8, 8)))


def test_scalar_backward_recursion_oracle():
    """Spatially constant data collapse each backward step to two scalar
    equations; an independent recursion must reproduce the full sweep.

    With kappa = 0 both chemotaxis couplings vanish, leaving

        eta_m = (eta_{m+1}/tau + w gv (v^{m+1} - v_d)) / (1/tau + 1 - f_m)
        lam_m = (lam_{m+1}/tau + w gu (u^{m+1} - u_d) + eta_m)
                / (1/tau + 2 mu u^{m+1}_+ - r)
    """
    params = ModelParams(kappa=0.0, r=0.4, mu=1.5)
    tg = TimeGrid(T=0.6, nt=6)
    tau = tg.tau
    weights = CostWeights(gamma_u=1.3, gamma_v=0.8, gamma_f=0.0)
    u_levels = [0.5 + 0.04 * n for n in range(7)]
    v_levels = [0.7 - 0.03 * n for n in range(7)]
    f_levels = [0.1 + 0.05 * n for n in range(6)]
    u_d, v_d = 0.45, 0.6

    state = _constant_trajectory(tg, u_levels, v_levels)
    region = RegionMask.everywhere(GRID)
    f = ControlField(tg, region, np.array([[fl] * region.count for fl in f_levels]))
    adj = solve_adjoint(state, f, _targets(u_d, v_d), params, weights,
                        settings=TIGHT, cg_tol=1e-13)

    lam_ref = np.zeros(7)
    eta_ref = np.zeros(7)
    for m in range(5, -1, -1):
        w = 0.5 if m + 1 == 6 else 1.0
        eta_ref[m] = (eta_ref[m + 1] / tau + w * weights.gamma_v * (v_levels[m + 1] - v_d)) / (
            1.0 / tau + 1.0 - f_levels[m]
        )
        lam_ref[m] = (
            lam_ref[m + 1] / tau
            + w * weights.gamma_u * (u_levels[m + 1] - u_d)
            + eta_ref[m]
        ) / (1.0 / tau + 2.0 * params.mu * max(u_levels[m + 1], 0.0) - params.r)

    for m in range(7):
        np.testing.assert_allclose(adj.lam[m], lam_ref[m], rtol=1e-11, atol=1e-13)
        np.testing.assert_allclose(adj.eta[m], eta_ref[m], rtol=1e-11, atol=1e-13)


def test_adjoint_is_linear_in_tracking_weights():
    params, tg, f, state = _forward_fixture()
    one = solve_adjoint(state, f, _targets(), params, CostWeights(1.0, 0.7, 0.0),
                        settings=TIGHT, cg_tol=1e-13)
    two = solve_adjoint(state, f, _targets(), params, CostWeights(2.0, 1.4, 0.0),
                        settings=TIGHT, cg_tol=1e-13)
    for m in range(tg.nt + 1):
        np.testing.assert_allclose(two.lam[m], 2.0 * one.lam[m],
                                   rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(two.eta[m], 2.0 * one.eta[m],
                                   rtol=1e-13, atol=1e-16)


def test_adjoint_repeat_solve_is_bitwise_identical():
    params, tg, f, state = _forward_fixture()
    weights = CostWeights(1.0, 1.0, 0.0)
    a = solve_adjoint(state, f, _targets(), params, weights)
    b = solve_adjoint(state, f, _targets(), params, weights)
    for m in range(tg.nt + 1):
        np.testing.assert_array_equal(a.lam[m], b.lam[m])
        np.testing.assert_array_equal(a.eta[m], b.eta[m])


def test_manual_backward_composition_matches_solver():
    # stepping by hand in reverse order reproduces the solver bitwise,
    # confirming the sweep is nothing more than the composition of steps
    params, tg, f, state = _forward_fixture(nt=4)
    weights = CostWeights(1.0, 1.0, 0.0)
    targets = _targets()
    adj = solve_adjoint(state, f, targets, params, weights)

    lam = np.zeros((GRID.nx, GRID.ny))
    eta = np.zeros((GRID.nx, GRID.ny))
    levels = [(lam, eta)]
    for m in range(tg.nt - 1, -1, -1):
        lam, eta = step_adjoint(
            GRID, lam, eta, state.u[m + 1], state.v[m + 1], f.array_at(m),
            targets.u_d, targets.v_d, params, weights, tg.tau,
            tracking_weight=0.5 if m + 1 == tg.nt else 1.0,
        )
        levels.append((lam, eta))
    levels.reverse()
    for m in range(tg.nt + 1):
        np.testing.assert_array_equal(adj.lam[m], levels[m][0])
        np.testing.assert_array_equal(adj.eta[m], levels[m][1])


def test_linearized_solver_matches_forward_differences():
    """The linearized state solver is the Gateaux derivative of the march.

    Perturb the control along a fixed direction, difference two nonlinear
    solves, and compare with the linearized trajectory driven by
    df^m v^{m+1} on the control region.
    """
    params, tg, f, state = _forward_fixture(nt=5)
    rng = np.random.default_rng(51)
    df = rng.standard_normal(f.values.shape)
    eps = 1e-5

    def perturbed(sign):
        fp = ControlField(tg, f.region, f.values + sign * eps * df)
        return solve_forward(Field2D(GRID, state.u[0]), Field2D(GRID, state.v[0]), fp,
                             params, tg, settings=TIGHT, cg_tol=1e-13)

    plus, minus = perturbed(+1.0), perturbed(-1.0)

    scattered = np.zeros((tg.nt, GRID.nx, GRID.ny))
    scattered[:, f.region.inside] = df
    src_u = np.zeros((tg.nt, GRID.nx, GRID.ny))
    src_v = scattered * state.v[1:]
    U, V = solve_linearized_dual(state, f, params, src_u, src_v,
                                 settings=TIGHT, cg_tol=1e-13)

    for m in range(tg.nt):
        fd_u = (plus.u[m + 1] - minus.u[m + 1]) / (2.0 * eps)
        fd_v = (plus.v[m + 1] - minus.v[m + 1]) / (2.0 * eps)
        scale = max(np.abs(fd_u).max(), np.abs(fd_v).max(), 1e-12)
        assert np.abs(U[m] - fd_u).max() < 5e-5 * scale
        assert np.abs(V[m] - fd_v).max() < 5e-5 * scale


@pytest.mark.parametrize("scheme", ["central", "upwind"])
def test_duality_identity(scheme):
    """<sources, dual> equals <linearized, dual sources> to solver tolerance.

    This single identity exercises every transpose in the backward sweep:
    if any stencil, weight, or time index were off, the two pairings would
    disagree at O(1).
    """
    params, tg, f, state = _forward_fixture(nt=5, scheme=scheme)
    lhs, rhs = duality_gap(state, f, params, scheme=scheme, seed=3, cg_tol=1e-13)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_step_conditioning_guards():
    params = ModelParams(kappa=0.0, r=0.5, mu=1.0)
    tau = 0.1
    zero = np.zeros((GRID.nx, GRID.ny))
    half = np.full((GRID.nx, GRID.ny), 0.5)
    weights = CostWeights(1.0, 1.0, 0.0)

    # 1/tau + 1 - f <= 0: the eta solve would lose definiteness
    with pytest.raises(StepConditioningError, match="signal"):
        step_adjoint(GRID, zero, zero, half, half, np.full((GRID.nx, GRID.ny), 12.0),
                     zero, zero, params, weights, tau)

    # 1/tau + 2 mu u_+ - r <= 0: the lam solve would lose definiteness
    strong_r = ModelParams(kappa=0.0, r=30.0, mu=1.0)
    with pytest.raises(StepConditioningError, match="density"):
        step_adjoint(GRID, zero, zero, zero, zero, zero,
                     zero, zero, strong_r, weights, tau)


def test_dual_fixed_point_stall_is_reported():
    # one sweep cannot resolve the lagged coupling: the first increment,
    # measured from the zero terminal pair, is 1
    params, tg, f, state = _forward_fixture(nt=3, kappa=0.8)
    with pytest.raises(PicardDivergenceError, match="^dual fixed point stalled") as exc:
        solve_adjoint(state, f, _targets(), params, CostWeights(1.0, 1.0, 0.0),
                      settings=PicardSettings(tol=1e-9, max_iters=1))
    assert exc.value.last_increment > 0.0
    assert exc.value.time_index == tg.nt - 1


def test_linearized_fixed_point_stall_is_reported():
    params, tg, f, state = _forward_fixture(nt=3, kappa=0.8)
    one = np.ones((tg.nt, GRID.nx, GRID.ny))
    with pytest.raises(PicardDivergenceError, match="^linearized fixed point stalled") as exc:
        solve_linearized_dual(state, f, params, one, one,
                              settings=PicardSettings(tol=1e-9, max_iters=1))
    assert exc.value.last_increment > 0.0
    assert exc.value.time_index == 0


@pytest.mark.parametrize("mismatch", ["time-grid", "grid"])
@pytest.mark.parametrize("march", ["forward", "dual", "linearized"])
def test_every_march_rejects_a_control_of_another_layout(march, mismatch):
    # a control on T = 5.0, or on a grid with Lx = 2, has the same array
    # shapes as one on the state's layout, so only the layout check sees it
    params = ModelParams(kappa=0.8, r=0.6, mu=1.2)
    tg = TimeGrid(T=0.2, nt=3)
    region = RegionMask.rectangle(GRID, 0.25, 0.25, 0.75, 0.75)
    u0 = v0 = constant_field(GRID, 0.5)
    state = solve_forward(u0, v0, ControlField.zeros(tg, region), params, tg)
    if mismatch == "time-grid":
        f = ControlField.zeros(TimeGrid(T=5.0, nt=3), region)
        error, match = ValueError, "time grid"
    else:
        other = RegionMask(GridSpec(Lx=2.0, Ly=1.0, nx=8, ny=8), region.inside)
        f, error, match = ControlField.zeros(tg, other), GridMismatchError, "grid"
    zero = np.zeros((tg.nt, GRID.nx, GRID.ny))
    march_with = {
        "forward": lambda: solve_forward(u0, v0, f, params, tg),
        "dual": lambda: solve_adjoint(state, f, _targets(), params, CostWeights()),
        "linearized": lambda: solve_linearized_dual(state, f, params, zero, zero),
    }[march]
    with pytest.raises(error, match=match):
        march_with()


def test_linearized_dual_requires_one_source_per_step():
    params, tg, f, state = _forward_fixture(nt=3)
    with pytest.raises(ValueError, match="per step"):
        solve_linearized_dual(state, f, params, np.zeros((2, 8, 8)), np.zeros((3, 8, 8)))
    with pytest.raises(ValueError, match="per step"):
        solve_linearized_dual(state, f, params, None, np.zeros((3, 8, 8)))


def test_trajectory_distance_of_identical_runs_is_zero():
    params, tg, f, state = _forward_fixture(nt=4)
    du, dv = trajectory_l2_distance(state, state)
    assert du == 0.0 and dv == 0.0

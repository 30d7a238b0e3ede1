"""Control-space tests: cost term, gradient assembly, projection, and the
variational-inequality residual."""

import numpy as np
import pytest

from kscontrol.adjoint import AdjointTrajectory, solve_adjoint
from kscontrol.control import (
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
from kscontrol.errors import GridMismatchError, InvalidValue
from kscontrol.forward import ModelParams, StateTrajectory, TimeGrid
from kscontrol.mesh import GridSpec, RegionMask, constant_field
from kscontrol.optimize import evaluate_cost

GRID = GridSpec(Lx=1.0, Ly=1.0, nx=8, ny=8)
TG = TimeGrid(T=1.0, nt=10)
REGION = RegionMask.rectangle(GRID, 0.25, 0.25, 0.75, 0.75)


def _control(values):
    return ControlField(TG, REGION, values)


def _random_control(rng, lo=-1.0, hi=1.0):
    return _control(rng.uniform(lo, hi, size=(TG.nt, REGION.count)))


# ----------------------------------------------------------------------
# layout


def test_control_field_validates_shape():
    with pytest.raises(ValueError, match="shape"):
        _control(np.zeros((TG.nt, REGION.count + 1)))
    with pytest.raises(ValueError, match="finite"):
        bad = np.zeros((TG.nt, REGION.count))
        bad[3, 2] = np.inf
        _control(bad)


def test_control_region_must_be_nonempty():
    empty = RegionMask(GRID, np.zeros((GRID.nx, GRID.ny), dtype=bool))
    with pytest.raises(ValueError, match="at least one cell"):
        ControlField.zeros(TG, empty)


def test_field_at_scatters_onto_region_only():
    f = ControlField.from_constant(TG, REGION, 2.5)
    field = f.array_at(4)
    assert field.shape == (GRID.nx, GRID.ny)
    np.testing.assert_array_equal(field[REGION.inside], 2.5)
    np.testing.assert_array_equal(field[~REGION.inside], 0.0)


def test_layout_matches():
    f = ControlField.zeros(TG, REGION)
    g = ControlField(TG, REGION, np.ones((TG.nt, REGION.count)))
    assert f.layout_matches(g)
    other = ControlField.zeros(TimeGrid(T=1.0, nt=5), REGION)
    assert not f.layout_matches(other)


def test_tracking_targets_indexing():
    # one field serves every level by broadcasting; a sequence stacks
    levels = np.zeros((8, GRID.nx, GRID.ny))
    static = TrackingTargets(constant_field(GRID, 0.1), constant_field(GRID, 0.2))
    u_d, v_d = (levels + static.u_d)[7], (levels + static.v_d)[7]
    assert u_d[0, 0] == 0.1 and v_d[0, 0] == 0.2
    per_level = TrackingTargets(
        [constant_field(GRID, float(n)) for n in range(3)],
        constant_field(GRID, 0.5),
    )
    assert per_level.u_d.shape == (3, GRID.nx, GRID.ny)
    assert per_level.u_d[2][0, 0] == 2.0
    arrays = TrackingTargets([np.full((GRID.nx, GRID.ny), float(n)) for n in range(3)],
                             np.full((GRID.nx, GRID.ny), 0.5))
    np.testing.assert_array_equal(arrays.u_d, per_level.u_d)
    np.testing.assert_array_equal(arrays.v_d, per_level.v_d)
    with pytest.raises(ValueError, match="one field per level"):
        TrackingTargets(np.zeros(4), np.zeros((GRID.nx, GRID.ny)))


@pytest.mark.parametrize("name", ["u_d", "v_d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tracking_targets_reject_non_finite_values(name, bad):
    fields = {"u_d": np.full((GRID.nx, GRID.ny), 0.5), "v_d": np.full((GRID.nx, GRID.ny), 0.5)}
    fields[name][3, 4] = bad
    with pytest.raises(InvalidValue, match="finite") as exc:
        TrackingTargets(**fields)
    assert exc.value.field == name


@pytest.mark.parametrize("name", ["u_d", "v_d"])
@pytest.mark.parametrize("shape", [(8, 1), (1, 8), (1, 1), (TG.nt, 8, 8)])
def test_cost_and_dual_reject_targets_that_only_broadcast(name, shape):
    # a target is one (nx, ny) field or one per level, never a partial broadcast
    levels = np.full((TG.nt + 1, GRID.nx, GRID.ny), 0.5)
    state = StateTrajectory(TG, GRID, levels, levels.copy())
    fields = {"u_d": np.full((GRID.nx, GRID.ny), 0.4), "v_d": np.full((GRID.nx, GRID.ny), 0.6)}
    fields[name] = np.full(shape, 0.4)
    targets = TrackingTargets(**fields)
    f = ControlField.zeros(TG, REGION)
    weights = CostWeights(1.0, 1.0, 1e-3)
    with pytest.raises(ValueError, match=f"target {name} has shape"):
        evaluate_cost(state, f, targets, weights, 2.1)
    with pytest.raises(ValueError, match=f"target {name} has shape"):
        solve_adjoint(state, f, targets, ModelParams(kappa=1.0, r=1.0, mu=1.0), weights)


def test_tracking_targets_levels_are_read_only_views_of_the_trajectory_shape():
    shape = (TG.nt + 1, GRID.nx, GRID.ny)
    per_level = np.arange(np.prod(shape), dtype=float).reshape(shape)
    for targets in (TrackingTargets(constant_field(GRID, 0.4), constant_field(GRID, 0.6)),
                    TrackingTargets(per_level, per_level + 1.0)):
        for target, stored in zip(targets.levels(shape), (targets.u_d, targets.v_d)):
            assert target.shape == shape and not target.flags.writeable
            assert np.shares_memory(target, stored)
            np.testing.assert_array_equal(target, np.broadcast_to(stored, shape))
    for name in ("u_d", "v_d"):
        for bad in ((TG.nt, GRID.nx, GRID.ny), (GRID.nx, 1)):
            fields = {"u_d": np.full((GRID.nx, GRID.ny), 0.4),
                      "v_d": np.full((GRID.nx, GRID.ny), 0.6)}
            fields[name] = np.zeros(bad)
            with pytest.raises(ValueError, match=f"target {name} has shape"):
                TrackingTargets(**fields).levels(shape)


@pytest.mark.filterwarnings("error")
def test_control_norm_and_cost_overflow_to_inf_without_a_warning():
    huge = _control(np.full((TG.nt, REGION.count), 1e200))
    assert qc_norm(huge.values, huge) == np.inf
    assert control_cost(huge, 1.0, 2.1) == np.inf


# ----------------------------------------------------------------------
# cost term


def test_control_cost_of_zero_is_zero():
    assert control_cost(ControlField.zeros(TG, REGION), 1.0, 2.1) == 0.0


def test_control_cost_of_unit_control_is_measure_over_p():
    # |f| = 1 makes the integrand 1, so the cost is (gamma_f/p) * |Q_c|;
    # picking gamma_f = p turns it into the plain space-time measure
    p = 2.1
    f = ControlField.from_constant(TG, REGION, 1.0)
    expected = REGION.count * REGION.grid.cell_area * TG.T
    np.testing.assert_allclose(control_cost(f, p, p), expected, rtol=1e-13)


def test_control_cost_p_homogeneity():
    rng = np.random.default_rng(61)
    f = _random_control(rng)
    p = 2.1
    c = -1.7
    scaled = _control(c * f.values)
    np.testing.assert_allclose(
        control_cost(scaled, 0.5, p),
        abs(c) ** p * control_cost(f, 0.5, p),
        rtol=1e-12,
    )


def test_control_cost_gateaux_derivative():
    """Directional derivative of the cost against the analytic integrand
    gamma_f sgn(f) |f|^(p-1), for controls bounded away from zero where
    the p-power is smooth."""
    rng = np.random.default_rng(62)
    p, gamma_f = 2.1, 0.7
    f = _control(rng.uniform(0.5, 1.5, size=(TG.nt, REGION.count)))
    direction = rng.standard_normal(f.values.shape)
    eps = 1e-6
    plus = control_cost(_control(f.values + eps * direction), gamma_f, p)
    minus = control_cost(_control(f.values - eps * direction), gamma_f, p)
    fd = (plus - minus) / (2.0 * eps)
    integrand = gamma_f * np.sign(f.values) * np.abs(f.values) ** (p - 1.0)
    exact = float(np.sum(integrand * direction)) * GRID.cell_area * TG.tau
    np.testing.assert_allclose(fd, exact, rtol=1e-6)


def test_control_cost_rejects_negative_weight():
    f = ControlField.zeros(TG, REGION)
    with pytest.raises(ValueError):
        control_cost(f, -1.0, 2.1)


# ----------------------------------------------------------------------
# reduced gradient


def _trivial_state_and_adjoint(v_val, eta_val):
    shape = (TG.nt + 1, GRID.nx, GRID.ny)
    state = StateTrajectory(time_grid=TG, grid=GRID, u=np.zeros(shape),
                            v=np.full(shape, v_val))
    return state, AdjointTrajectory(TG, GRID, np.zeros(shape), np.full(shape, eta_val))


def test_reduced_gradient_at_zero_control_with_zero_multiplier():
    state, adj = _trivial_state_and_adjoint(0.8, 0.0)
    d = reduced_gradient(ControlField.zeros(TG, REGION), state, adj, 1.0, 2.1)
    np.testing.assert_array_equal(d.values, np.zeros((TG.nt, REGION.count)))


def test_reduced_gradient_coupling_term():
    # gamma_f = 0 isolates the v * eta coupling
    state, adj = _trivial_state_and_adjoint(0.8, -0.3)
    d = reduced_gradient(ControlField.zeros(TG, REGION), state, adj, 0.0, 2.1)
    np.testing.assert_allclose(d.values, 0.8 * -0.3, rtol=1e-14)


def test_reduced_gradient_regularization_term():
    state, adj = _trivial_state_and_adjoint(0.0, 0.0)
    rng = np.random.default_rng(63)
    f = _random_control(rng, 0.2, 1.0)
    p, gamma_f = 2.1, 1.3
    d = reduced_gradient(f, state, adj, gamma_f, p)
    np.testing.assert_allclose(
        d.values, gamma_f * np.abs(f.values) ** (p - 1.0) * np.sign(f.values),
        rtol=1e-13,
    )


# ----------------------------------------------------------------------
# projection and optimality residual


def test_project_is_identity_inside_the_box():
    rng = np.random.default_rng(64)
    box = AdmissibleSet("box", -1.0, 1.0)
    f = _random_control(rng, -0.9, 0.9)
    np.testing.assert_array_equal(project(f, box).values, f.values)
    # unconstrained: a new array, equal bit for bit (signed zero included)
    g = _random_control(rng, -5.0, 5.0)
    g.values[2, 1] = -0.0
    free = project(g, AdmissibleSet())
    assert not np.shares_memory(free.values, g.values)
    assert free.values.tobytes() == g.values.tobytes()


def test_project_clips_and_is_idempotent():
    box = AdmissibleSet("box", -1.0, 1.0)
    f = ControlField.from_constant(TG, REGION, 10.0)
    once = project(f, box)
    np.testing.assert_array_equal(once.values, 1.0)
    np.testing.assert_array_equal(project(once, box).values, once.values)


def test_project_is_non_expansive():
    rng = np.random.default_rng(65)
    box = AdmissibleSet("box", -0.5, 0.5)
    for _ in range(5):
        a = _random_control(rng, -2.0, 2.0)
        b = _random_control(rng, -2.0, 2.0)
        pa, pb = project(a, box), project(b, box)
        assert qc_norm(pa.values - pb.values, a) <= qc_norm(a.values - b.values, a) + 1e-15


def test_vi_residual_zero_gradient():
    f = ControlField.from_constant(TG, REGION, 0.3)
    d = ControlField(TG, REGION, np.zeros((TG.nt, REGION.count)))
    assert vi_residual(f, d, AdmissibleSet()) == 0.0


def test_vi_residual_unconstrained_is_step_times_gradient_norm():
    rng = np.random.default_rng(66)
    f = _random_control(rng)
    d = ControlField(TG, REGION, rng.standard_normal(f.values.shape))
    np.testing.assert_allclose(
        vi_residual(f, d, AdmissibleSet()),
        qc_norm(d.values, f),
        rtol=1e-13,
    )


def test_vi_residual_vanishes_on_saturated_bound():
    # at f = f_max with the gradient pushing further up, the projection
    # lands back on the bound: a constrained stationary point
    box = AdmissibleSet("box", -1.0, 1.0)
    f = ControlField.from_constant(TG, REGION, 1.0)
    d = ControlField(TG, REGION, -0.4 * np.ones((TG.nt, REGION.count)))
    assert vi_residual(f, d, box) == 0.0


def test_vi_residual_validation():
    f = ControlField.zeros(TG, REGION)
    d = ControlField(TG, REGION, np.zeros((TG.nt, REGION.count)))
    other = ControlField(TimeGrid(T=1.0, nt=5), REGION,
                          np.zeros((5, REGION.count)))
    with pytest.raises(GridMismatchError):
        vi_residual(f, other, AdmissibleSet())


# ----------------------------------------------------------------------
# admissibility and weights


def test_admissible_set_validation():
    with pytest.raises(ValueError, match="kind"):
        AdmissibleSet("fancy")
    with pytest.raises(ValueError, match="finite"):
        AdmissibleSet("box", -np.inf, 1.0)
    with pytest.raises(ValueError, match="f_min"):
        AdmissibleSet("box", 2.0, 1.0)
    with pytest.raises(ValueError, match="no bounds"):
        AdmissibleSet("unconstrained", -1.0, 1.0)


def test_cost_weights_validation():
    with pytest.raises(ValueError):
        CostWeights(gamma_u=-1.0)


def test_well_posedness_guard():
    require_well_posed(CostWeights(1.0, 1.0, 0.0), AdmissibleSet("box", -1.0, 1.0))
    require_well_posed(CostWeights(1.0, 1.0, 0.1), AdmissibleSet())
    with pytest.raises(ValueError, match="gamma_f"):
        require_well_posed(CostWeights(1.0, 1.0, 0.0), AdmissibleSet())

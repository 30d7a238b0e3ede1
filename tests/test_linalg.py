"""Preconditioned conjugate gradient solver checked against dense numpy."""

import numpy as np
import pytest

from kscontrol import linalg
from kscontrol.errors import LinearSolverError
from kscontrol.linalg import shifted_solver, solve_cg, solve_shifted
from kscontrol.mesh import GridSpec, laplacian_array


def _spd_system(n, rng):
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    return a


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(5)
    a = _spd_system(40, rng)
    b = rng.standard_normal(40)
    x = solve_cg(lambda v: a @ v, b, lambda r: r / np.diag(a), rtol=1e-12)
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-9, atol=1e-11)


def test_cg_accepts_a_preconditioner_that_returns_its_argument():
    # CG updates its search direction in place, so that direction must not
    # be the residual an identity preconditioner hands back
    rng = np.random.default_rng(7)
    a = _spd_system(20, rng)
    b = rng.standard_normal(20)
    x = solve_cg(lambda v: a @ v, b, lambda r: r, rtol=1e-12)
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-9, atol=1e-11)


def test_cg_zero_rhs_returns_zero():
    rng = np.random.default_rng(6)
    a = _spd_system(10, rng)
    x = solve_cg(lambda v: a @ v, np.zeros(10), lambda r: r / np.diag(a))
    np.testing.assert_array_equal(x, np.zeros(10))


def test_cg_warm_start_shortcuts_when_exact():
    rng = np.random.default_rng(7)
    a = _spd_system(15, rng)
    xref = rng.standard_normal(15)
    b = a @ xref
    x = solve_cg(lambda v: a @ v, b, lambda r: r / np.diag(a), x0=xref)
    np.testing.assert_allclose(x, xref, rtol=1e-12)


def test_cg_respects_shape_of_grid_arrays():
    # operator acting on 2-d arrays, the way the steppers call it
    rng = np.random.default_rng(8)
    d = rng.uniform(1.0, 2.0, size=(6, 7))

    def op(v):
        return d * v

    b = rng.standard_normal((6, 7))
    x = solve_cg(op, b, lambda r: r / d, rtol=1e-13)
    np.testing.assert_allclose(x, b / d, rtol=1e-10)
    assert x.shape == (6, 7)


def test_cg_raises_on_iteration_cap():
    rng = np.random.default_rng(9)
    a = _spd_system(30, rng)
    # a target below round-off, so the rhs.size + 100 sweeps cannot reach it
    with pytest.raises(LinearSolverError) as exc:
        solve_cg(lambda v: a @ v, rng.standard_normal(30), lambda r: r.copy(),
                 rtol=1e-300)
    assert exc.value.residual > 0.0
    assert "residual" in str(exc.value)


@pytest.mark.parametrize("x0", [None, np.ones(4)], ids=["cold", "warm"])
def test_cg_rejects_non_finite_rhs(x0):
    # an infinite right-hand side makes the residual target infinite, so
    # without the check the start would pass for converged
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(LinearSolverError, match="not finite"):
        solve_cg(lambda v: a @ v, np.array([1.0, np.inf, 0.0, 0.0]),
                 lambda r: r / np.diag(a), x0=x0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x0", [None, np.full(4, 1e199)], ids=["cold", "warm"])
def test_cg_solves_rhs_whose_norm_overflows(x0):
    # every entry is finite but the sum of squares overflows: the solve
    # still succeeds, while a NaN entry is still rejected
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    b = np.array([1e200, 0.0, 0.0, 0.0])
    x = solve_cg(lambda v: a @ v, b, lambda r: r / np.diag(a), rtol=1e-12, x0=x0)
    np.testing.assert_allclose(x, [1e200, 0.0, 0.0, 0.0], rtol=1e-12, atol=1e188)
    b[1] = np.nan
    with pytest.raises(LinearSolverError, match="not finite"):
        solve_cg(lambda v: a @ v, b, lambda r: r / np.diag(a), x0=x0)


def _dense_neumann_laplacian(n, h):
    """1-d cell-centred second difference with mirrored (zero-flux) ends."""
    d = (np.diag(np.full(n - 1, 1.0), -1) + np.diag(np.full(n - 1, 1.0), 1)
         - 2.0 * np.eye(n))
    d[0, 0] = d[-1, -1] = -1.0
    return d / (h * h)


def _dense_shifted_laplacian(grid, shift):
    lap = (np.kron(_dense_neumann_laplacian(grid.nx, grid.hx), np.eye(grid.ny))
           + np.kron(np.eye(grid.nx), _dense_neumann_laplacian(grid.ny, grid.hy)))
    return np.diag(np.broadcast_to(shift, (grid.nx, grid.ny)).ravel()) - lap


def _capture_solve_cg(monkeypatch):
    """Route `linalg.solve_cg` through a wrapper that keeps its operator,
    preconditioner and offset and counts the operator applies and the
    preconditioner calls (one per CG iteration)."""
    captured = {"applies": 0, "preconditions": 0}

    def capture(apply_op, rhs, precond, rtol, x0, offset):
        def counted(x):
            captured["applies"] += 1
            return apply_op(x)

        def counted_precond(r):
            captured["preconditions"] += 1
            return precond(r)

        captured.update(apply_op=apply_op, precond=precond, offset=offset)
        return solve_cg(counted, rhs, counted_precond, rtol=rtol, x0=x0, offset=offset)

    monkeypatch.setattr(linalg, "solve_cg", capture)
    return captured


@pytest.mark.parametrize("case", ["scalar", "per-cell", "reaction"])
def test_shifted_solve_operator_and_preconditioner_match_dense_matrix(case, monkeypatch):
    rng = np.random.default_rng(10)
    grid = GridSpec(Lx=1.0, Ly=1.7, nx=4, ny=6)
    n = grid.nx * grid.ny
    shift = 3.5 if case == "scalar" else rng.uniform(1.0, 4.0, size=(grid.nx, grid.ny))
    if case == "reaction":  # a reaction term folded into the shift widens its spread
        shift = shift + rng.uniform(0.0, 2.0, size=(grid.nx, grid.ny))
    dense = _dense_shifted_laplacian(grid, shift)
    # the preconditioner inverts the same operator with the mean shift
    dense_mean = _dense_shifted_laplacian(grid, float(np.mean(shift)))

    captured = _capture_solve_cg(monkeypatch)
    rhs = rng.standard_normal((grid.nx, grid.ny))
    y = solve_shifted(grid, shift, rhs, rtol=1e-13)

    if case == "scalar":  # mean(shift) - lap_h is the operator: the DCT inverse solves
        assert captured == {"applies": 0, "preconditions": 0}
        np.testing.assert_allclose(y.ravel(), np.linalg.solve(dense, rhs.ravel()),
                                   rtol=1e-12, atol=0.0)
        return
    units = [e.reshape(grid.nx, grid.ny) for e in np.eye(n)]
    columns = [captured["apply_op"](e).ravel() for e in units]
    np.testing.assert_allclose(np.array(columns).T, dense, rtol=1e-13, atol=1e-12)
    columns = [captured["precond"](e).ravel() for e in units]
    np.testing.assert_allclose(np.array(columns).T, np.linalg.inv(dense_mean), rtol=1e-12)
    # CG's recurrence takes the operator as the preconditioned one plus the offset
    np.testing.assert_allclose(dense_mean + np.diag(captured["offset"].ravel()), dense,
                               rtol=1e-13, atol=1e-12)
    assert captured["applies"] == 0  # a cold start forms every A p by the recurrence
    np.testing.assert_allclose(y.ravel(), np.linalg.solve(dense, rhs.ravel()),
                               rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("nx, ny, Ly", [(16, 16, 1.0), (64, 64, 1.0), (128, 128, 1.0),
                                        (24, 40, 1.7)])
@pytest.mark.parametrize("per_cell", [True, False], ids=["per-cell", "scalar"])
def test_shifted_solve_iterations_do_not_grow_with_the_mesh(nx, ny, Ly, per_cell, monkeypatch):
    # the shift of a forward density step, 1/tau + mu u_+, at tau = 0.02;
    # Jacobi needed 43-483 iterations here, growing like 1/h.  CG forms its
    # operator products by a recurrence, so its preconditioner calls count
    # the iterations
    grid = GridSpec(Lx=1.0, Ly=Ly, nx=nx, ny=ny)
    X, Y = grid.cell_centers()
    bump = np.exp(-((X - 0.5) ** 2 + (Y - 0.5 * Ly) ** 2) / 0.02)
    shift = 1.0 / 0.02 + (6.0 * bump if per_cell else 0.0)
    rhs = np.random.default_rng(11).standard_normal((nx, ny))

    captured = _capture_solve_cg(monkeypatch)
    y = solve_shifted(grid, shift, rhs, rtol=1e-10)

    assert captured["preconditions"] <= (12 if per_cell else 2)
    assert captured["applies"] == 0
    residual = shift * y - laplacian_array(y, grid.hx, grid.hy) - rhs
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_scalar_shift_solve_rejects_non_finite_rhs(bad):
    # the DCT inverse has no norm to test, so it checks the entries, as CG
    # rejects the same right-hand side
    grid = GridSpec(Lx=1.0, Ly=1.0, nx=5, ny=4)
    rhs = np.ones((5, 4))
    rhs[2, 1] = bad
    with pytest.raises(LinearSolverError, match="not finite"):
        solve_shifted(grid, 2.5, rhs)
    with pytest.raises(LinearSolverError, match="not finite"):
        shifted_solver(grid, 2.5)(rhs, 1e-10, np.zeros((5, 4)))


@pytest.mark.parametrize("per_cell", [True, False], ids=["per-cell", "scalar"])
def test_a_solver_built_once_gives_the_bits_of_fresh_solves(per_cell):
    # a dual level sets its solvers up once and reuses them every sweep, and
    # a march its scalar `v` solver, so the set-up must hold nothing that one
    # solve changes: the fresh solves below run in the other order
    rng = np.random.default_rng(12)
    grid = GridSpec(Lx=1.0, Ly=1.3, nx=7, ny=5)
    shift = rng.uniform(1.0, 4.0, size=(7, 5)) if per_cell else 3.5
    first, second = rng.standard_normal((2, 7, 5))
    x0 = rng.standard_normal((7, 5))
    solve = shifted_solver(grid, shift)
    reused = [solve(first, 1e-10, x0), solve(second, 1e-10, x0)]
    fresh = [solve_shifted(grid, shift, b, rtol=1e-10, x0=x0) for b in (second, first)]
    for a, b in zip(reused, fresh[::-1]):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("x0", [None, np.ones(12)], ids=["cold", "warm"])
def test_cg_with_an_offset_applies_the_operator_only_for_a_warm_start(x0):
    # precond inverts M = A - diag(offset) exactly, so A p = M p + offset p
    # follows from the recurrence and the solve matches the dense one
    rng = np.random.default_rng(13)
    m = _spd_system(12, rng)
    offset = rng.uniform(0.0, 3.0, size=12)
    a = m + np.diag(offset)
    m_inv = np.linalg.inv(m)
    applies = []

    def apply_op(v):
        applies.append(v)
        return a @ v

    b = rng.standard_normal(12)
    x = solve_cg(apply_op, b, lambda r: m_inv @ r, rtol=1e-12, x0=x0, offset=offset)
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-9, atol=1e-11)
    assert len(applies) == (0 if x0 is None else 1)

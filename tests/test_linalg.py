"""Preconditioned conjugate gradient solver checked against dense numpy."""

import numpy as np
import pytest

from kscontrol import linalg
from kscontrol.errors import LinearSolverError
from kscontrol.linalg import solve_cg, solve_shifted
from kscontrol.mesh import GridSpec


def _spd_system(n, rng):
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    return a


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(5)
    a = _spd_system(40, rng)
    b = rng.standard_normal(40)
    x = solve_cg(lambda v: a @ v, b, np.diag(a), rtol=1e-12)
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-9, atol=1e-11)


def test_cg_zero_rhs_returns_zero():
    rng = np.random.default_rng(6)
    a = _spd_system(10, rng)
    x = solve_cg(lambda v: a @ v, np.zeros(10), np.diag(a))
    np.testing.assert_array_equal(x, np.zeros(10))


def test_cg_warm_start_shortcuts_when_exact():
    rng = np.random.default_rng(7)
    a = _spd_system(15, rng)
    xref = rng.standard_normal(15)
    b = a @ xref
    x = solve_cg(lambda v: a @ v, b, np.diag(a), x0=xref)
    np.testing.assert_allclose(x, xref, rtol=1e-12)


def test_cg_respects_shape_of_grid_arrays():
    # operator acting on 2-d arrays, the way the steppers call it
    rng = np.random.default_rng(8)
    d = rng.uniform(1.0, 2.0, size=(6, 7))

    def op(v):
        return d * v

    b = rng.standard_normal((6, 7))
    x = solve_cg(op, b, d, rtol=1e-13)
    np.testing.assert_allclose(x, b / d, rtol=1e-10)
    assert x.shape == (6, 7)


def test_cg_raises_on_iteration_cap():
    rng = np.random.default_rng(9)
    a = _spd_system(30, rng)
    # diagonal of ones defeats the preconditioner, so one sweep cannot finish
    with pytest.raises(LinearSolverError) as exc:
        solve_cg(lambda v: a @ v, rng.standard_normal(30), np.ones(30),
                 rtol=1e-14, max_iters=1)
    assert exc.value.residual > 0.0
    assert "residual" in str(exc.value)


@pytest.mark.parametrize("x0", [None, np.ones(4)], ids=["cold", "warm"])
def test_cg_rejects_non_finite_rhs(x0):
    # an infinite right-hand side makes the residual target infinite, so
    # without the check the start would pass for converged
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(LinearSolverError, match="not finite"):
        solve_cg(lambda v: a @ v, np.array([1.0, np.inf, 0.0, 0.0]), np.diag(a), x0=x0)


def _dense_neumann_laplacian(n, h):
    """1-d cell-centred second difference with mirrored (zero-flux) ends."""
    d = (np.diag(np.full(n - 1, 1.0), -1) + np.diag(np.full(n - 1, 1.0), 1)
         - 2.0 * np.eye(n))
    d[0, 0] = d[-1, -1] = -1.0
    return d / (h * h)


@pytest.mark.parametrize("case", ["scalar", "per-cell", "reaction"])
def test_shifted_solve_operator_and_diagonal_match_dense_matrix(case, monkeypatch):
    rng = np.random.default_rng(10)
    grid = GridSpec(Lx=1.0, Ly=1.7, nx=4, ny=6)
    n = grid.nx * grid.ny
    shift = 3.5 if case == "scalar" else rng.uniform(1.0, 4.0, size=(grid.nx, grid.ny))
    reaction = rng.uniform(0.0, 2.0, size=(grid.nx, grid.ny)) if case == "reaction" else None
    lap = (np.kron(_dense_neumann_laplacian(grid.nx, grid.hx), np.eye(grid.ny))
           + np.kron(np.eye(grid.nx), _dense_neumann_laplacian(grid.ny, grid.hy)))
    dense = np.diag(np.broadcast_to(shift, (grid.nx, grid.ny)).ravel()) - lap
    if reaction is not None:
        dense += np.diag(reaction.ravel())

    captured = {}

    def capture(apply_op, rhs, diag, rtol, x0):
        captured.update(apply_op=apply_op, diag=diag)
        return solve_cg(apply_op, rhs, diag, rtol=rtol, x0=x0)

    monkeypatch.setattr(linalg, "solve_cg", capture)
    rhs = rng.standard_normal((grid.nx, grid.ny))
    y = solve_shifted(grid, shift, rhs, reaction=reaction, rtol=1e-13)

    columns = [captured["apply_op"](e.reshape(grid.nx, grid.ny)).ravel() for e in np.eye(n)]
    np.testing.assert_allclose(np.array(columns).T, dense, rtol=1e-13, atol=1e-12)
    np.testing.assert_allclose(np.broadcast_to(captured["diag"], (grid.nx, grid.ny)).ravel(),
                               np.diag(dense), rtol=1e-14)
    np.testing.assert_allclose(y.ravel(), np.linalg.solve(dense, rhs.ravel()),
                               rtol=1e-10, atol=1e-12)

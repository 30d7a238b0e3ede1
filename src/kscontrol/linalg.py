"""Matrix-free preconditioned conjugate gradient on 2D arrays.

Every implicit system the forward, dual and linearized steppers assemble is
a shifted Neumann Laplacian ``(c - lap_h) y = b`` with a positive shift
``c``, scalar or per cell, so one CG routine covers every solve.
`solve_shifted` builds that operator and its preconditioner, the exact
inverse of ``mean(c) - lap_h`` in the DCT-II basis that diagonalizes the
cell-centred Neumann ``lap_h``; the iteration count then does not grow with
the grid.  `solve_cg` takes both as callables.  Nothing is ever assembled.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional

import numpy as np

from . import mesh
from .errors import LinearSolverError

DEFAULT_CG_TOL = 1e-10


def solve_cg(
    apply_op: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    precond: Callable[[np.ndarray], np.ndarray],
    rtol: float = DEFAULT_CG_TOL,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve ``A x = rhs`` for SPD ``A`` given by ``apply_op``.

    Parameters
    ----------
    apply_op : callable
        Applies the operator to an array, returning a new array.
    rhs : ndarray
        Right-hand side, any shape.
    precond : callable
        Applies an SPD approximation of ``A^{-1}`` to a residual, returning
        a new array.
    rtol : float
        Relative residual target ``||rhs - A x|| <= rtol * ||rhs||``.
    x0 : ndarray, optional
        Warm start.  Defaults to zero.

    Raises
    ------
    LinearSolverError
        If ``rhs`` has an infinite or NaN entry, or the residual target is
        not met within ``rhs.size + 100`` iterations.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow takes the rescale path
        b_norm = float(np.sqrt(np.sum(rhs * rhs)))
    if not np.isfinite(b_norm):
        scale = float(np.max(np.abs(rhs)))
        if not np.isfinite(scale):
            raise LinearSolverError("conjugate gradient: right-hand side norm is not finite", b_norm)
        # finite entries whose squares overflow: solve for rhs / max|rhs|
        return scale * solve_cg(apply_op, rhs / scale, precond, rtol,
                                None if x0 is None else x0 / scale)
    if b_norm == 0.0:
        return np.zeros_like(rhs)

    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        x = x0.copy()
        r = rhs - apply_op(x)

    target = rtol * b_norm
    r_norm = float(np.sqrt(np.sum(r * r)))
    if r_norm <= target:
        return x

    z = precond(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    for _ in range(rhs.size + 100):
        ap = apply_op(p)
        alpha = rz / float(np.sum(p * ap))
        x += alpha * p
        r -= alpha * ap
        r_norm = float(np.sqrt(np.sum(r * r)))
        if r_norm <= target:
            return x
        z = precond(r)
        rz_next = float(np.sum(r * z))
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise LinearSolverError("conjugate gradient did not converge", r_norm / b_norm)


@functools.lru_cache(maxsize=16)
def _dct_basis(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix and the eigenvalues of the Neumann ``-d^2/dx^2``."""
    k = np.arange(n)
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k, k + 0.5) / n)
    basis[0] /= np.sqrt(2.0)
    eig = (2.0 - 2.0 * np.cos(np.pi * k / n)) / (h * h)
    basis.flags.writeable = eig.flags.writeable = False  # the cache shares them
    return basis, eig


def solve_shifted(
    grid: mesh.GridSpec, shift, rhs: np.ndarray,
    rtol: float = DEFAULT_CG_TOL, x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve ``shift * y - lap_h y = rhs`` on ``grid`` by DCT-preconditioned CG;
    ``shift`` is a positive scalar or one positive value per cell."""
    hx, hy = grid.hx, grid.hy
    cx, eig_x = _dct_basis(grid.nx, hx)
    cy, eig_y = _dct_basis(grid.ny, hy)
    inv_eig = 1.0 / (float(np.mean(shift)) + eig_x[:, None] + eig_y[None, :])

    def apply_op(x: np.ndarray) -> np.ndarray:
        return shift * x - mesh.laplacian_array(x, hx, hy)

    def precond(r: np.ndarray) -> np.ndarray:
        return cx.T @ ((cx @ r @ cy.T) * inv_eig) @ cy

    return solve_cg(apply_op, rhs, precond, rtol=rtol, x0=x0)

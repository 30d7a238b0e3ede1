"""Matrix-free preconditioned conjugate gradient on 2D arrays.

Every implicit system the forward, dual and linearized steppers assemble is
a shifted Neumann Laplacian ``(c - lap_h) y = b`` with a positive shift
``c``, scalar or per cell.  `shifted_solver` sets one such operator up once
for all its right-hand sides.  The DCT-II basis diagonalizes the cell-centred
Neumann ``lap_h``, so there the inverse of ``mean(c) - lap_h`` is the solve for
a scalar ``c``; for a per-cell ``c`` it preconditions `solve_cg`, whose
iteration count then does not grow with the grid.  Since that preconditioner
inverts the operator less a diagonal exactly, CG forms its operator products
by a recurrence instead of a stencil apply.  Nothing is ever assembled.
"""

from __future__ import annotations

import functools
import math
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
    offset: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve ``A x = rhs`` for SPD ``A`` given by ``apply_op``.

    Parameters
    ----------
    apply_op, precond : callable
        Apply ``A``, and an SPD approximation of ``A^{-1}``, to an array;
        each returns a new array.
    rhs : ndarray
        Right-hand side, any shape.
    rtol : float
        Relative residual target ``||rhs - A x|| <= rtol * ||rhs||``.
    x0 : ndarray, optional
        Warm start.  Defaults to zero.
    offset : ndarray, optional
        A diagonal, broadcast against ``rhs``, such that ``precond`` is the
        exact inverse of ``M = A - diag(offset)``.  Then ``M p`` follows the
        search direction by the recurrence ``M p0 = r0``, ``M p <- r + beta M p``,
        so ``A p = M p + offset p`` and ``apply_op`` runs only for a warm
        start's initial residual.

    Raises
    ------
    LinearSolverError
        If ``rhs`` has an infinite or NaN entry, or the residual target is
        not met within ``rhs.size + 100`` iterations.
    """
    b_norm = math.sqrt(np.vdot(rhs, rhs))  # an overflow to inf takes the rescale path
    if not math.isfinite(b_norm):
        scale = float(np.max(np.abs(rhs)))
        if not math.isfinite(scale):
            raise LinearSolverError("conjugate gradient: right-hand side norm is not finite", b_norm)
        # finite entries whose squares overflow: solve for rhs / max|rhs|
        return scale * solve_cg(apply_op, rhs / scale, precond, rtol,
                                None if x0 is None else x0 / scale, offset)
    if b_norm == 0.0:
        return np.zeros_like(rhs)

    if x0 is None:
        x = np.zeros_like(rhs)
        r = rhs.copy()
    else:
        x = x0.copy()
        r = rhs - apply_op(x)

    target = rtol * b_norm
    r_norm = math.sqrt(np.vdot(r, r))
    if r_norm <= target:
        return x

    p = precond(r).copy()  # updated in place below
    mp = None if offset is None else r.copy()  # M p, updated with p
    rz = float(np.vdot(r, p))
    for _ in range(rhs.size + 100):
        if mp is None:
            ap = apply_op(p)
        else:
            ap = offset * p
            ap += mp
        alpha = rz / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        r_norm = math.sqrt(np.vdot(r, r))
        if r_norm <= target:
            return x
        z = precond(r)
        rz_next = float(np.vdot(r, z))
        beta = rz_next / rz
        p *= beta
        p += z
        if mp is not None:
            mp *= beta
            mp += r
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


def shifted_solver(grid: mesh.GridSpec, shift) -> Callable[..., np.ndarray]:
    """Set up ``shift * y - lap_h y = rhs`` on ``grid`` once, for a positive
    scalar ``shift`` or one positive value per cell; returns ``solve(rhs,
    rtol, x0)``.  For a scalar shift that is the exact DCT inverse, which
    ignores ``rtol`` and ``x0``; for a per-cell shift, `solve_cg`
    preconditioned by the exact inverse at the mean shift, with the rest of
    the shift as its ``offset``.  Either raises `LinearSolverError` on a
    non-finite ``rhs``.
    """
    hx, hy = grid.hx, grid.hy
    cx, eig_x = _dct_basis(grid.nx, hx)
    cy, eig_y = _dct_basis(grid.ny, hy)
    per_cell = np.ndim(shift) != 0
    mean = shift.sum() / shift.size if per_cell else shift  # np.mean's bits, not its wrapper
    inv_eig = 1.0 / (mean + eig_x[:, None] + eig_y[None, :])

    def apply_op(x: np.ndarray) -> np.ndarray:
        return shift * x - mesh.laplacian_array(x, hx, hy)

    def precond(r: np.ndarray) -> np.ndarray:
        return cx.T @ ((cx @ r @ cy.T) * inv_eig) @ cy

    offset = shift - mean if per_cell else None

    def solve(rhs, rtol=DEFAULT_CG_TOL, x0=None):
        return solve_cg(apply_op, rhs, precond, rtol=rtol, x0=x0, offset=offset)

    def solve_exact(rhs, rtol=DEFAULT_CG_TOL, x0=None):
        if not np.isfinite(rhs).all():  # CG's contract; this path has no norm to test
            raise LinearSolverError("shifted solve: right-hand side is not finite", math.nan)
        return precond(rhs)

    return solve if per_cell else solve_exact


def solve_shifted(
    grid: mesh.GridSpec, shift, rhs: np.ndarray,
    rtol: float = DEFAULT_CG_TOL, x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One solve of `shifted_solver`, for a shift that changes every call."""
    return shifted_solver(grid, shift)(rhs, rtol, x0)

"""Matrix-free preconditioned conjugate gradient on 2D arrays.

Every implicit system the forward, dual and linearized steppers assemble is
a shifted Neumann Laplacian ``(shift - lap_h + reaction) y = b`` with a
positive cell shift, so it is symmetric positive definite and one CG routine
with Jacobi preconditioning covers every solve.  `solve_shifted` builds that
operator and its diagonal in one place; `solve_cg` takes any operator as a
callable acting on ``(nx, ny)`` arrays.  Nothing is ever assembled.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import mesh
from .errors import LinearSolverError

DEFAULT_CG_TOL = 1e-10


def solve_cg(
    apply_op: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    diag: np.ndarray,
    rtol: float = DEFAULT_CG_TOL,
    max_iters: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve ``A x = rhs`` for SPD ``A`` given by ``apply_op``.

    Parameters
    ----------
    apply_op : callable
        Applies the operator to a 2D array, returning a new array.
    rhs : ndarray
        Right-hand side, any 2D shape.
    diag : ndarray
        Diagonal of the operator (Jacobi preconditioner).
    rtol : float
        Relative residual target ``||rhs - A x|| <= rtol * ||rhs||``.
    max_iters : int, optional
        Iteration cap; defaults to ``rhs.size + 100``.
    x0 : ndarray, optional
        Warm start.  Defaults to zero.

    Raises
    ------
    LinearSolverError
        If the norm of ``rhs`` is not finite, or the residual target is not
        met within the iteration cap.
    """
    b_norm = float(np.sqrt(np.sum(rhs * rhs)))
    if not np.isfinite(b_norm):
        raise LinearSolverError("conjugate gradient: right-hand side norm is not finite", b_norm)
    if b_norm == 0.0:
        return np.zeros_like(rhs)
    if max_iters is None:
        max_iters = rhs.size + 100

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

    z = r / diag
    p = z.copy()
    rz = float(np.sum(r * z))
    for _ in range(max_iters):
        ap = apply_op(p)
        alpha = rz / float(np.sum(p * ap))
        x += alpha * p
        r -= alpha * ap
        r_norm = float(np.sqrt(np.sum(r * r)))
        if r_norm <= target:
            return x
        z = r / diag
        rz_next = float(np.sum(r * z))
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise LinearSolverError("conjugate gradient did not converge", r_norm / b_norm)


def solve_shifted(
    grid: mesh.GridSpec, shift, rhs: np.ndarray, reaction: Optional[np.ndarray] = None,
    rtol: float = DEFAULT_CG_TOL, x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Solve ``shift * y - lap_h y + reaction * y = rhs`` on ``grid`` by CG.

    ``shift`` is a scalar or one value per cell, ``reaction`` an optional
    per-cell term kept apart from the shift (adding it in first would round
    differently).  The Jacobi diagonal ``shift + D + reaction``, with ``D``
    the diagonal of ``-lap_h``, is built here next to its operator.
    """
    hx, hy = grid.hx, grid.hy
    diag = shift + mesh.laplacian_diag(grid)
    if reaction is None:
        def apply_op(x: np.ndarray) -> np.ndarray:
            return shift * x - mesh.laplacian_array(x, hx, hy)
    else:
        diag = diag + reaction

        def apply_op(x: np.ndarray) -> np.ndarray:
            return shift * x - mesh.laplacian_array(x, hx, hy) + reaction * x
    return solve_cg(apply_op, rhs, diag, rtol=rtol, x0=x0)

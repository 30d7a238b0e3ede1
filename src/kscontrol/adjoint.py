"""Dual (adjoint) solver and its transpose, the linearized state solver.

The forward scheme, once its fixed-point loop has converged, defines one
large block-bidiagonal linear relation between trajectory perturbations and
residuals.  The dual sweep implemented here solves the exact transpose of
that relation, so the assembled gradient differentiates the discrete cost
itself, not a continuum approximation of it.  Two consequences worth the
bookkeeping:

* the multipliers ``lam^m, eta^m`` attached to step ``m -> m+1`` satisfy
  equations whose coefficients (reaction, convection, donor selection) are
  frozen at the *new* state ``(u^{m+1}, v^{m+1})`` of that step, and whose
  tracking sources carry the trapezoid weight of level ``m+1``;

* within one level the two multipliers are coupled - ``eta^m`` appears in
  the ``lam^m`` equation and ``lam^m`` in the ``eta^m`` equation - and the
  ``lam`` equation contains the transposed convection ``-kappa grad lam .
  grad v``, which is not symmetric.  Both couplings are resolved by the
  forward solver's own loop, `kscontrol.forward.coupled_fixed_point`,
  which lags them one inner sweep and leaves only shifted Laplacians, set up
  once per level by `kscontrol.linalg.shifted_solver` and reused by every
  sweep.  At convergence the coupled equations hold exactly.

Backward from the zero terminal pair, step ``m`` solves (all coefficients
at level ``m+1``, ``w`` the trapezoid weight of level ``m+1``)

    (1/tau - lap + 2 mu u_+ - r) lam^m + kappa T[lam^m] - eta^m
        = lam^{m+1}/tau + w gamma_u (u - u_d)
    (1/tau + 1 - lap - f^m) eta^m + kappa div(u_+ grad lam^m)
        = eta^{m+1}/tau + w gamma_v (v - v_d)

where ``T`` is the exact transpose of the conservative chemotaxis stencil
(a discrete ``-grad lam . grad v``).  Note the sign of the coupling
``+kappa div(u_+ grad lam)`` in the ``eta`` equation: with the opposite
sign the assembled gradient fails every finite-difference check for
``kappa != 0``, while with this one it passes them to solver tolerance.

`solve_linearized_dual` marches the exact transpose of the sweep forward
in time; it is the Gateaux derivative of the discrete trajectory map and
pairs with the dual sweep in a duality identity that holds to solver
tolerance (see `kscontrol.verify.duality_gap`).

The linearization drops the positive-part kinks (it differentiates as if
``u > 0`` and ``v > 0`` pointwise); dual and linearized solves drop them
symmetrically, so their duality is exact regardless, and the gradient is
exact wherever the trajectory stays positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, mesh
from .control import ControlField, CostWeights, TrackingTargets
from .errors import StepConditioningError
from .forward import (
    ModelParams,
    PicardSettings,
    StateTrajectory,
    TimeGrid,
    check_control_layout,
    check_step_sources,
    coupled_fixed_point,
)
from .linalg import DEFAULT_CG_TOL
from .mesh import GridSpec, Scheme


@dataclass
class AdjointTrajectory:
    """Multipliers at all levels; the terminal fields are exactly zero.

    ``lam`` and ``eta`` are float arrays of shape ``(nt + 1, nx, ny)`` on
    ``grid``.  ``lam[m]`` and ``eta[m]`` belong to the step ``m -> m+1``;
    the entries at index ``nt`` close the recursion and are identically zero.
    """

    time_grid: TimeGrid
    grid: GridSpec
    lam: np.ndarray
    eta: np.ndarray


def dual_shifts(u: np.ndarray, f: np.ndarray, params: ModelParams, tau: float):
    """``u_+`` and the shifts ``1/tau + 2 mu u_+ - r`` and ``1/tau + 1 - f`` of
    the dual or linearized solves; raise `StepConditioningError` unless both
    shifts are positive in every cell, so that both solves stay SPD."""
    upos = np.maximum(u, 0.0)
    shift_lam = 1.0 / tau + 2.0 * params.mu * upos - params.r
    if shift_lam.min() <= 0.0:
        raise StepConditioningError(
            f"dual density equation loses definiteness at tau = {tau:g}: "
            "the reaction shift 1/tau - r + 2 mu u_+ must stay positive; "
            "reduce the time step"
        )
    shift_eta = 1.0 / tau + 1.0 - f
    if shift_eta.min() <= 0.0:
        raise StepConditioningError(
            f"dual signal equation loses definiteness at tau = {tau:g}: "
            "1/tau + 1 - f must stay positive; reduce the time step or the control"
        )
    return upos, shift_lam, shift_eta


def solve_adjoint(
    state: StateTrajectory,
    control: ControlField,
    targets: TrackingTargets,
    params: ModelParams,
    weights: CostWeights,
    scheme: Scheme = "central",
    cg_tol: float = DEFAULT_CG_TOL,
    settings: PicardSettings = PicardSettings(),
) -> AdjointTrajectory:
    """Sweep the dual system backward along a stored state trajectory.

    Returns multipliers at every level ``0 .. nt`` with the terminal pair
    identically zero.  The solve is deterministic: repeated calls on the
    same inputs produce bitwise-identical results.

    Raises
    ------
    ValueError
        If a target is neither one field nor one field per level.
    StepConditioningError
        If a reaction shift makes one of the SPD solves indefinite.
    PicardDivergenceError
        If a per-level fixed point fails to reach its tolerance.
    """
    grid = state.grid
    check_control_layout(control, grid, state.time_grid)
    u_d, v_d = targets.levels(state.u.shape)
    nt = state.time_grid.nt
    tau = state.time_grid.tau
    inv_tau = 1.0 / tau
    hx, hy = grid.hx, grid.hy
    level_weights = state.time_grid.trapezoid_weights()
    lam = np.zeros((nt + 1, grid.nx, grid.ny))
    eta = np.zeros((nt + 1, grid.nx, grid.ny))

    for m in range(nt - 1, -1, -1):
        # coefficients frozen at level m+1, tracking sources with its weight
        u_new, v_new, w = state.u[m + 1], state.v[m + 1], level_weights[m + 1]
        upos, shift_lam, shift_eta = dual_shifts(u_new, control.array_at(m), params, tau)
        solve_lam = linalg.shifted_solver(grid, shift_lam)
        solve_eta = linalg.shifted_solver(grid, shift_eta)
        rhs_lam_base = lam[m + 1] * inv_tau + w * weights.gamma_u * (u_new - u_d[m + 1])
        rhs_eta_base = eta[m + 1] * inv_tau + w * weights.gamma_v * (v_new - v_d[m + 1])

        def sweep(lam_bar: np.ndarray, eta_bar: np.ndarray):
            rhs_eta = rhs_eta_base - params.kappa * mesh.weighted_diffusion_arrays(
                upos, lam_bar, v_new, hx, hy, scheme)
            eta_now = solve_eta(rhs_eta, cg_tol, eta_bar)
            rhs_lam = rhs_lam_base + eta_now - params.kappa * mesh.chemotaxis_adjoint_arrays(
                lam_bar, v_new, hx, hy, scheme)
            lam_now = solve_lam(rhs_lam, cg_tol, lam_bar)
            return lam_now, eta_now

        (lam[m], eta[m]), _, _ = coupled_fixed_point(
            sweep, (lam[m + 1], eta[m + 1]), settings, grid.cell_area, "dual fixed point", m)
    return AdjointTrajectory(state.time_grid, grid, lam, eta)


def solve_linearized_dual(
    state: StateTrajectory,
    control: ControlField,
    params: ModelParams,
    source_u: np.ndarray,
    source_v: np.ndarray,
    scheme: Scheme = "central",
    cg_tol: float = DEFAULT_CG_TOL,
    settings: PicardSettings = PicardSettings(),
) -> tuple[np.ndarray, np.ndarray]:
    """Exact transpose of the dual sweep: the linearized state solver.

    Marches, forward in time from a zero initial pair, the derivative of
    the converged forward scheme around ``state``.  ``source_u[m]`` and
    ``source_v[m]`` (arrays of shape ``(nt, nx, ny)``) enter the step
    producing level ``m+1``; ``U[m], V[m]`` (same shape) approximate the
    trajectory perturbation at level ``m+1``.  A perturbation ``df`` of
    the control corresponds to ``source_v[m] = df^m v^{m+1} 1_C``.

    Within each level ``U`` and ``V`` are coupled exactly as in the dual
    sweep, and the same inner fixed point resolves the coupling, so the
    duality pairing with `solve_adjoint` holds to solver tolerance.
    """
    grid = state.grid
    check_control_layout(control, grid, state.time_grid)
    check_step_sources(grid, state.time_grid, source_u, source_v)
    nt = state.time_grid.nt
    tau = state.time_grid.tau
    shape = (nt, grid.nx, grid.ny)
    inv_tau = 1.0 / tau
    hx, hy = grid.hx, grid.hy

    U = np.empty(shape)
    V = np.empty(shape)
    u_prev = np.zeros((grid.nx, grid.ny))
    v_prev = np.zeros((grid.nx, grid.ny))

    for m in range(nt):
        v_new = state.v[m + 1]
        upos, shift_u, shift_v = dual_shifts(state.u[m + 1], control.array_at(m), params, tau)
        solve_u = linalg.shifted_solver(grid, shift_u)
        solve_v = linalg.shifted_solver(grid, shift_v)
        rhs_u_base = source_u[m] + u_prev * inv_tau
        rhs_v_base = source_v[m] + v_prev * inv_tau

        def sweep(u_bar: np.ndarray, v_bar: np.ndarray):
            rhs_u = rhs_u_base - params.kappa * (
                mesh.chemotaxis_divergence_arrays(u_bar, v_new, hx, hy, scheme)
                + mesh.weighted_diffusion_arrays(upos, v_bar, v_new, hx, hy, scheme))
            u_lin = solve_u(rhs_u, cg_tol, u_bar)
            v_lin = solve_v(rhs_v_base + u_lin, cg_tol, v_bar)
            return u_lin, v_lin

        (u_prev, v_prev), _, _ = coupled_fixed_point(
            sweep, (u_prev, v_prev), settings, grid.cell_area, "linearized fixed point", m)
        U[m], V[m] = u_prev, v_prev

    return U, V

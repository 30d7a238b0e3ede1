"""Forward solver for the chemotaxis-growth system with bilinear control.

The model couples a cell density ``u`` and a chemoattractant ``v`` on a
rectangle with zero-flux boundaries:

    du/dt - lap u + kappa div(u grad v) = r u - mu u^2
    dv/dt - lap v + v = u + f v 1_C

``kappa`` may take either sign (attraction/repulsion), ``mu > 0`` caps the
growth, and the control ``f`` acts multiplicatively on ``v`` inside the
control region ``C``.

Time discretization is backward Euler with a per-step Picard (fixed-point)
loop, `coupled_fixed_point`, which `solve_forward` runs on each level's
sweep: the sweep freezes the positive parts of the previous iterate pair,
solves the ``v`` equation (`step_v`), then the ``u`` equation (`step_u`),
both shifted Laplacians from `kscontrol.linalg`; the ``v`` shift is one
scalar over a march, so the march sets its DCT inverse up once.  The
dual and linearized marches in `kscontrol.adjoint` reuse the same loop;
the loop alone raises `PicardDivergenceError`, and raises
a sweep's `LinearSolverError` again, each naming the step it was given.
At convergence the step is fully implicit.  Freezing *positive parts*
rather than raw iterates keeps every lagged coefficient nonnegative, which
is what makes the two matrices positive definite and (with the upwind
flux) the step nonnegativity-preserving for nonnegative data.

Summing the ``u`` update over all cells eliminates the divergence terms
exactly (conservative stencils), leaving the discrete mass identity

    (m_{n+1} - m_n) / tau + mu * int(ubar_+ u_{n+1}) = r * int(ubar_+).

The CG closure error in this identity is redistributed uniformly over the
cells after each ``u`` solve, so the recorded residual sits at round-off no
matter the solver tolerance.  The trajectory carries it and the Picard
sweep count per step.  Every march checks its control with
`check_control_layout`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg, mesh
from .control import ControlField
from .errors import LinearSolverError, PicardDivergenceError, require
from .linalg import DEFAULT_CG_TOL
from .mesh import Field2D, GridSpec, Scheme


@dataclass(frozen=True)
class ModelParams:
    """Physical constants; ``p_exponent`` is the control-cost exponent."""

    kappa: float
    r: float
    mu: float
    p_exponent: float = 2.1

    def __post_init__(self):
        require(np.isfinite(self.kappa), "kappa", "the chemotactic sensitivity must be finite")
        require(np.isfinite(self.r), "r", "the growth rate must be finite")
        require(0 < self.mu < np.inf, "mu", "the logistic damping mu must be positive and finite")
        require(2.0 < self.p_exponent < 3.0, "p_exponent",
                "the control-cost exponent must lie strictly between 2 and 3")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of ``[0, T]`` into ``nt`` steps."""

    T: float
    nt: int

    def __post_init__(self):
        require(0 < self.T < np.inf, "T", "the final time must be positive and finite")
        require(self.nt >= 1, "nt", "need at least one time step")

    @property
    def tau(self) -> float:
        return self.T / self.nt

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)

    def trapezoid_weights(self) -> list[float]:
        """Trapezoid weight of each level ``0 .. nt`` in units of ``tau``: 1/2 at
        both ends, 1 inside.  Plain floats, so sums of them stay plain floats."""
        return [0.5] + [1.0] * (self.nt - 1) + [0.5]


@dataclass(frozen=True)
class PicardSettings:
    tol: float = 1e-9
    max_iters: int = 50

    def __post_init__(self):
        require(0 < self.tol < np.inf, "tol",
                "the fixed-point tolerance must be positive and finite")
        require(self.max_iters >= 1, "max_iters", "need at least one fixed-point sweep")


@dataclass
class StateTrajectory:
    """Forward solution at all time levels plus per-step diagnostics.

    ``u`` and ``v`` are float arrays of shape ``(nt + 1, nx, ny)`` on
    ``grid``; ``u[n]`` is level ``n``.  The diagnostic arrays have one entry
    per step ``n -> n+1``; the mass identity residual is taken with the
    positive part of the final Picard iterate, exactly as used in the
    accepted linear solve.
    """

    time_grid: TimeGrid
    grid: GridSpec
    u: np.ndarray
    v: np.ndarray
    picard_iters: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    mass_identity_residual: np.ndarray = field(default_factory=lambda: np.zeros(0))


def trapezoid_sq_l2(stack: np.ndarray, time_grid: TimeGrid, cell_area: float) -> float:
    """Squared space-time L2 norm of ``stack``, shape ``(nt + 1, nx, ny)``:
    cell-area quadrature in space, trapezoid rule over the levels in time."""
    tau = time_grid.tau
    total = 0.0
    # one level at a time, in this order: the order fixes the last bits
    for w, s in zip(time_grid.trapezoid_weights(), np.sum(stack * stack, axis=(1, 2))):
        total += w * tau * float(s) * cell_area
    return total


# Iterates this far above the step's starting scale (with an O(1) floor,
# the natural size of densities here) mean the sweeps are amplifying, not
# contracting; keep iterating and the fields overflow within a few sweeps.
_BLOWUP_SCALE = 1e8


Pair = tuple[np.ndarray, np.ndarray]


def coupled_fixed_point(
    sweep: Callable[[np.ndarray, np.ndarray], Pair], start: Pair, settings: PicardSettings,
    cell_area: float, name: str, time_index: int, guard_blowup: bool = False,
) -> tuple[Pair, Pair, int]:
    """Iterate ``(a, b) <- sweep(a, b)`` from ``start`` to a fixed point.

    Stops once the larger of the two relative L2 increments drops below
    ``settings.tol``; returns the converged pair, the pair its last sweep
    froze and the number of sweeps.  With ``guard_blowup``, iterates that
    outgrow the start pair's scale (floored at 1) by ``_BLOWUP_SCALE``, or
    turn non-finite, abort at once instead of overflowing a few sweeps on.

    Raises
    ------
    PicardDivergenceError
        On blow-up, or if ``settings.max_iters`` sweeps do not reach the
        tolerance; ``name`` opens the message, which names the step
        ``time_index`` the error also carries.
    LinearSolverError
        If a solve inside a sweep fails: raised again with ``name``, the
        sweep and the step opening its message, carrying ``time_index``.
    """
    a_bar, b_bar = start
    if guard_blowup:
        start_scale = max(mesh.l2_norm_array(a_bar, cell_area),
                          mesh.l2_norm_array(b_bar, cell_area), 1.0)
    increment = np.inf
    for k in range(1, settings.max_iters + 1):
        try:
            a_new, b_new = sweep(a_bar, b_bar)
        except LinearSolverError as err:
            raise LinearSolverError(f"{name} at sweep {k} of step {time_index}: {err.message}",
                                    err.residual, time_index) from err
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a blow-up
            norm_a = mesh.l2_norm_array(a_new, cell_area)
            norm_b = mesh.l2_norm_array(b_new, cell_area)
            increment = max(mesh.l2_norm_array(a_new - a_bar, cell_area) / max(norm_a, 1e-30),
                            mesh.l2_norm_array(b_new - b_bar, cell_area) / max(norm_b, 1e-30))
            if guard_blowup:
                new_scale = max(norm_a, norm_b)
                if not np.isfinite(new_scale) or new_scale > _BLOWUP_SCALE * start_scale:
                    raise PicardDivergenceError(
                        f"{name} diverged at sweep {k} of step {time_index} "
                        f"(iterate scale grew by {new_scale / start_scale:.1e})",
                        last_increment=float(increment), time_index=time_index,
                    )
        if increment < settings.tol:
            return (a_new, b_new), (a_bar, b_bar), k
        a_bar, b_bar = a_new, b_new
    raise PicardDivergenceError(
        f"{name} stalled after {settings.max_iters} sweeps at step {time_index} "
        f"(last relative increment {increment:.3e})",
        last_increment=increment, time_index=time_index,
    )


def step_v(
    grid: GridSpec, v_prev: np.ndarray, u_bar: np.ndarray, v_bar: np.ndarray,
    f_now: np.ndarray, tau: float, source: Optional[np.ndarray] = None,
    solve_v: Optional[Callable[..., np.ndarray]] = None,
) -> np.ndarray:
    """One implicit ``v`` solve with lagged positive-part sources.

    Solves ``(1/tau + 1) v - lap v = v_prev / tau + u_bar_+ + f v_bar_+``
    (plus ``source``) by the DCT inverse, exact for this scalar shift.
    ``solve_v`` is ``linalg.shifted_solver(grid, 1/tau + 1)``, which a march
    sets up once; it is set up here when not given.  The matrix is symmetric
    positive definite independent of the data; with nonnegative right-hand
    side the M-matrix structure keeps ``v`` nonnegative.
    """
    rhs = v_prev / tau + np.maximum(u_bar, 0.0) + f_now * np.maximum(v_bar, 0.0)
    if source is not None:
        rhs = rhs + source
    if solve_v is None:
        solve_v = linalg.shifted_solver(grid, 1.0 / tau + 1.0)
    return solve_v(rhs)


def step_u(
    grid: GridSpec, u_prev: np.ndarray, u_bar: np.ndarray, v_new: np.ndarray,
    params: ModelParams, tau: float, scheme: Scheme = "central",
    cg_tol: float = DEFAULT_CG_TOL, source: Optional[np.ndarray] = None,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One implicit ``u`` solve with lagged positive-part coefficients.

    Solves ``(1/tau) u - lap u + mu ubar_+ u = u_prev / tau + r ubar_+
    - kappa div(ubar_+ grad v_new)`` (plus ``source``) from the warm start
    ``x0``.  After the CG solve the residual of the discrete mass identity
    is redistributed uniformly, making the identity exact to round-off.
    """
    area = grid.cell_area
    ubar_pos = np.maximum(u_bar, 0.0)
    rhs = u_prev / tau + params.r * ubar_pos - params.kappa * mesh.chemotaxis_divergence_arrays(
        ubar_pos, v_new, grid.hx, grid.hy, scheme)
    int_source = 0.0
    if source is not None:
        rhs = rhs + source
        int_source = float(source.sum()) * area

    u_new = linalg.solve_shifted(grid, 1.0 / tau + params.mu * ubar_pos, rhs,
                                 rtol=cg_tol, x0=x0)

    # Close the mass balance exactly: the divergence terms integrate to zero
    # by construction, so the residual below is pure CG closure error.
    int_ubar = float(ubar_pos.sum()) * area
    defect = (
        params.r * int_ubar
        + int_source
        - params.mu * float((ubar_pos * u_new).sum()) * area
        - (float(u_new.sum()) - float(u_prev.sum())) * area / tau
    )
    u_new += defect / (grid.Lx * grid.Ly / tau + params.mu * int_ubar)
    return u_new


def check_control_layout(control: ControlField, grid: GridSpec, time_grid: TimeGrid) -> None:
    """Raise unless ``control`` lives on ``grid`` and steps on ``time_grid``."""
    if control.region.grid != grid:
        raise mesh.GridMismatchError("control region grid differs from state grid")
    if control.time_grid != time_grid:
        raise ValueError("control time grid differs from solver time grid")


def check_step_sources(grid: GridSpec, time_grid: TimeGrid, *sources) -> None:
    """Raise `ValueError` unless each source holds one field per step, shape
    ``(nt, nx, ny)``; entry ``n`` enters the step to level ``n + 1``."""
    shape = (time_grid.nt, grid.nx, grid.ny)
    if any(np.shape(s) != shape for s in sources):
        raise ValueError(f"need one source per step: expected shape {shape}")


def solve_forward(
    u0: Field2D,
    v0: Field2D,
    control: ControlField,
    params: ModelParams,
    time_grid: TimeGrid,
    settings: PicardSettings = PicardSettings(),
    scheme: Scheme = "central",
    cg_tol: float = DEFAULT_CG_TOL,
    source_u: Optional[np.ndarray] = None,
    source_v: Optional[np.ndarray] = None,
    on_level: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
) -> StateTrajectory:
    """March the coupled system from ``(u0, v0)`` to the final time.

    Parameters
    ----------
    u0, v0 : Field2D
        Nonnegative initial data (checked cellwise).
    control : ControlField
        One masked field per step; level ``n`` acts on ``[t_n, t_{n+1})``.
    params, time_grid, settings, scheme, cg_tol
        Model constants, time partition, fixed-point settings, chemotaxis
        flux discretization, inner linear solver tolerance.
    source_u, source_v : ndarray, optional
        Extra right-hand sides, shape ``(nt, nx, ny)``: entry ``n`` enters
        the step to level ``n + 1`` (used by manufactured-solution studies).
    on_level : callable, optional
        Called as ``on_level(n, u[n], v[n])`` before the step that leaves
        level ``n``, for ``n = 0 .. nt-1``; an exception it raises ends the
        march (the optimizer's line search stops a trial this way).

    Returns
    -------
    StateTrajectory
        All ``nt + 1`` levels of both unknowns plus per-step diagnostics.
    """
    grid = mesh.check_same_grid(u0, v0)
    check_control_layout(control, grid, time_grid)
    check_step_sources(grid, time_grid, *(s for s in (source_u, source_v) if s is not None))
    if float(u0.values.min()) < 0.0:
        raise ValueError("initial cell density u0 must be nonnegative")
    if float(v0.values.min()) < 0.0:
        raise ValueError("initial signal density v0 must be nonnegative")

    nt = time_grid.nt
    tau = time_grid.tau

    u = np.empty((nt + 1, grid.nx, grid.ny))
    v = np.empty((nt + 1, grid.nx, grid.ny))
    u[0], v[0] = u0.values, v0.values
    picard_iters = np.zeros(nt, dtype=int)
    mass_residual = np.zeros(nt)

    area = grid.cell_area
    solve_v = linalg.shifted_solver(grid, 1.0 / tau + 1.0)  # one scalar shift per march
    for n in range(nt):
        if on_level is not None:
            on_level(n, u[n], v[n])
        u_prev, v_prev, f_now = u[n], v[n], control.array_at(n)
        src_u = None if source_u is None else source_u[n]
        src_v = None if source_v is None else source_v[n]

        def sweep(u_bar: np.ndarray, v_bar: np.ndarray):
            v_new = step_v(grid, v_prev, u_bar, v_bar, f_now, tau, src_v, solve_v)
            u_new = step_u(grid, u_prev, u_bar, v_new, params, tau, scheme, cg_tol, src_u, u_bar)
            return u_new, v_new

        (u_new, v[n + 1]), (u_bar, _), picard_iters[n] = coupled_fixed_point(
            sweep, (u_prev, v_prev), settings, area, "fixed-point iteration", n, guard_blowup=True)
        # the mass identity with the u_bar_+ the accepted u solve froze
        ubar_pos = np.maximum(u_bar, 0.0)
        int_ubar = float(ubar_pos.sum()) * area
        int_ubar_unew = float((ubar_pos * u_new).sum()) * area
        int_src = float(src_u.sum()) * area if src_u is not None else 0.0
        mass_residual[n] = ((float(u_new.sum()) - float(u_prev.sum())) * area / tau
                            - params.r * int_ubar + params.mu * int_ubar_unew - int_src)
        u[n + 1] = u_new
        del u_new, u_bar, _, ubar_pos  # hold no field of this level through the next

    return StateTrajectory(
        time_grid=time_grid,
        grid=grid,
        u=u,
        v=v,
        picard_iters=picard_iters,
        mass_identity_residual=mass_residual,
    )

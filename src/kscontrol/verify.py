"""Machine checks of the discrete theory: invariants, oracles, convergence.

Three kinds of evidence are produced here.

* Trajectory monitors (`monitor_invariants`): nonnegativity, the total-mass
  bound ``int u(t) <= max(int u0, r |Omega| / mu) * (1 + 10 tau)`` and the
  per-step discrete mass identity, which the forward solver satisfies to
  round-off by construction.  A smoothness proxy (the H1 seminorm of the
  signal) is reported but never asserted - the continuous theory bounds
  it by a constant no discrete statement pins down.

* Independent oracles (`logistic_closed_form`, `fd_gradient`,
  `duality_gap`): the closed-form logistic ODE solution the spatially
  constant state must reproduce, central finite differences of the actual
  discrete cost against the assembled gradient, and the exact transpose
  identity between the dual sweep and the linearized state solve.

* Manufactured-solution convergence (`mms_convergence`): a smooth exact
  pair with hand-derived source terms drives the full coupled solver; the
  spatial error must shrink at second order (central fluxes) and the
  temporal error at first order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional, Sequence

import numpy as np

from . import mesh
from .adjoint import solve_adjoint, solve_linearized_dual
from .control import ControlField, CostWeights, TrackingTargets
from .forward import (
    ModelParams,
    PicardSettings,
    StateTrajectory,
    TimeGrid,
    solve_forward,
    trapezoid_sq_l2,
)
from .linalg import DEFAULT_CG_TOL
from .mesh import Field2D, GridSpec, RegionMask, Scheme
from .optimize import ControlProblem, cost_of_control


def csv_table(header: str, rows) -> str:
    """CSV text of ``rows`` under ``header``: integers as they are, every
    other value as ``repr(float(x))``, which reads back to the same float."""
    lines = [header]
    for row in rows:
        lines.append(",".join(str(x) if isinstance(x, int) else repr(float(x))
                              for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# invariant monitoring
# ---------------------------------------------------------------------------


# Round-off allowances of the monitors: an absolute floor for the minima,
# and relative slacks (against max(1, |value|)) for the mass identity
# residual and the mass bound.
NONNEG_TOL = 1e-12
MASS_IDENTITY_TOL = 1e-12
MASS_BOUND_REL_SLACK = 1e-12


@dataclass
class InvariantReport:
    """Per-level monitors plus pass/fail flags.

    ``mass_identity_residual[k]`` belongs to the step arriving at level
    ``k`` (entry 0 is zero by convention).  ``mass_bound_rhs`` is the
    constant right-hand side of the mass bound for this run.
    """

    times: np.ndarray
    min_u: np.ndarray
    min_v: np.ndarray
    mass_u: np.ndarray
    mass_bound_rhs: float
    mass_identity_residual: np.ndarray
    l2_u: np.ndarray
    h1_v_proxy: np.ndarray
    nonneg_ok: bool
    mass_bound_ok: bool
    mass_identity_ok: bool

    CSV_HEADER = (
        "level,time,min_u,min_v,mass_u,mass_bound_rhs,"
        "mass_identity_residual,l2_u,h1_v_proxy"
    )

    def to_csv(self) -> str:
        return csv_table(self.CSV_HEADER, (
            (k, self.times[k], self.min_u[k], self.min_v[k], self.mass_u[k],
             self.mass_bound_rhs, self.mass_identity_residual[k], self.l2_u[k],
             self.h1_v_proxy[k])
            for k in range(len(self.times))))


def monitor_invariants(state: StateTrajectory, params: ModelParams) -> InvariantReport:
    """Recompute every monitored quantity from a stored trajectory.

    Pure function of the trajectory and the model constants.  The mass
    identity residual is the one `solve_forward` recorded per step, with the
    exact coefficients of each accepted linear solve; a trajectory that
    carries none (one built from bare levels) raises `ValueError`.
    """
    if len(state.mass_identity_residual) != state.time_grid.nt:
        raise ValueError("the trajectory records no mass identity residual; "
                         "march it with solve_forward")
    tau = state.time_grid.tau
    grid = state.grid
    area = grid.cell_area
    u, v = state.u, state.v

    times = state.time_grid.times()
    min_u = u.min(axis=(1, 2))
    min_v = v.min(axis=(1, 2))
    mass_u = u.sum(axis=(1, 2)) * area
    l2_u = np.sqrt(np.sum(u * u, axis=(1, 2)) * area)
    h1_v = mesh.h1_seminorm_array(v, grid.hx, grid.hy, area)

    area_total = grid.Lx * grid.Ly
    bound_core = max(mass_u[0], params.r * area_total / params.mu)
    mass_bound_rhs = bound_core * (1.0 + 10.0 * tau)

    residual = np.concatenate(([0.0], state.mass_identity_residual))

    nonneg_ok = bool(min_u.min() >= -NONNEG_TOL and min_v.min() >= -NONNEG_TOL)
    slack = MASS_BOUND_REL_SLACK * max(1.0, abs(mass_bound_rhs))
    mass_bound_ok = bool(np.all(mass_u <= mass_bound_rhs + slack))
    scale = np.maximum(1.0, np.abs(mass_u))
    mass_identity_ok = bool(np.all(np.abs(residual) <= MASS_IDENTITY_TOL * scale))

    return InvariantReport(
        times=times,
        min_u=min_u,
        min_v=min_v,
        mass_u=mass_u,
        mass_bound_rhs=mass_bound_rhs,
        mass_identity_residual=residual,
        l2_u=l2_u,
        h1_v_proxy=h1_v,
        nonneg_ok=nonneg_ok,
        mass_bound_ok=mass_bound_ok,
        mass_identity_ok=mass_identity_ok,
    )


# ---------------------------------------------------------------------------
# space-time norms and gradient oracles
# ---------------------------------------------------------------------------


def trajectory_l2_distance(a: StateTrajectory, b: StateTrajectory) -> tuple[float, float]:
    """Trapezoid-in-time L2 distance between two trajectories (u and v parts)."""
    if a.time_grid != b.time_grid:
        raise ValueError("trajectories use different time grids")
    area = a.grid.cell_area
    du = trapezoid_sq_l2(a.u - b.u, a.time_grid, area)
    dv = trapezoid_sq_l2(a.v - b.v, a.time_grid, area)
    return math.sqrt(du), math.sqrt(dv)


def fd_gradient(
    problem: ControlProblem,
    f: ControlField,
    directions: Sequence[ControlField],
    eps: float = 1e-5,
) -> np.ndarray:
    """Central finite differences of the discrete cost along given directions.

    Entirely independent of the dual solver: each entry costs two forward
    solves of the perturbed control.
    """
    out = np.zeros(len(directions))
    for k, direction in enumerate(directions):
        if not f.layout_matches(direction):
            raise ValueError("direction layout differs from control layout")
        f_plus = ControlField(f.time_grid, f.region, f.values + eps * direction.values)
        f_minus = ControlField(f.time_grid, f.region, f.values - eps * direction.values)
        _, cost_plus = cost_of_control(problem, f_plus)
        _, cost_minus = cost_of_control(problem, f_minus)
        out[k] = (cost_plus.j_total - cost_minus.j_total) / (2.0 * eps)
    return out


def duality_gap(
    state: StateTrajectory,
    control: ControlField,
    params: ModelParams,
    scheme: Scheme = "central",
    seed: int = 0,
    cg_tol: float = DEFAULT_CG_TOL,
) -> tuple[float, float]:
    """Both sides of the discrete duality identity for random sources.

    Solves the dual sweep with sources ``(s_lam, s_eta)`` and the linearized
    state system with sources ``(g_u, g_v)``, then returns the two pairings

        sum_m tau (<g_u, lam> + <g_v, eta>)  and
        sum_m tau (<s_lam, U> + <s_eta, V>).

    With exact linear algebra the two coincide; in practice they match to
    the inner solver tolerance.
    """
    rng = np.random.default_rng(seed)
    grid = state.grid
    nt = state.time_grid.nt
    tau = state.time_grid.tau
    area = grid.cell_area
    s_lam, s_eta, g_u, g_v = (rng.standard_normal((nt, grid.nx, grid.ny)) for _ in range(4))

    # Arbitrary dual sources enter through the tracking terms: the step-m
    # equations read the targets of level m+1 with trapezoid weight w, so
    # u_d^{m+1} = u^{m+1} - s^m / w injects exactly s^m (with unit gamma).
    w = np.array(state.time_grid.trapezoid_weights()[1:])[:, None, None]
    targets = TrackingTargets(u_d=np.concatenate([state.u[:1], state.u[1:] - s_lam / w]),
                              v_d=np.concatenate([state.v[:1], state.v[1:] - s_eta / w]))
    weights = CostWeights(gamma_u=1.0, gamma_v=1.0, gamma_f=0.0)

    tight = PicardSettings(tol=1e-13, max_iters=400)
    adj = solve_adjoint(state, control, targets, params, weights, scheme, cg_tol,
                        settings=tight)
    U, V = solve_linearized_dual(state, control, params, g_u, g_v, scheme, cg_tol,
                                 settings=tight)

    def pairing(a, b):
        return np.sum(a * b, axis=(1, 2)) * area

    lhs = rhs = 0.0
    for gl, ge, su, sv in zip(pairing(g_u, adj.lam[:nt]), pairing(g_v, adj.eta[:nt]),
                              pairing(s_lam, U), pairing(s_eta, V)):
        lhs += tau * (gl + ge)
        rhs += tau * (su + sv)
    return float(lhs), float(rhs)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def logistic_closed_form(c0: float, r: float, mu: float) -> Callable[[float], float]:
    """Exact solution of ``u' = r u - mu u^2`` with ``u(0) = c0``."""

    def u(t: float) -> float:
        if r == 0.0:
            return c0 / (1.0 + mu * c0 * t)
        return r * c0 / (mu * c0 + (r - mu * c0) * math.exp(-r * t))

    return u


def _zero_control(grid: GridSpec, time_grid: TimeGrid) -> ControlField:
    return ControlField.zeros(time_grid, RegionMask.everywhere(grid))


# ---------------------------------------------------------------------------
# manufactured-solution convergence
# ---------------------------------------------------------------------------

# Exact pair (all coefficients chosen to keep both fields strictly positive):
#   u*(x, y, t) = AU + BU exp(-SU t) cos(pi x / Lx) cos(pi y / Ly)
#   v*(x, y, t) = AV + BV exp(-SV t) cos(pi x / Lx)
# Sources below are the hand-derived residuals of the continuous system.
_MMS = dict(AU=0.6, BU=0.25, SU=3.0, AV=0.5, BV=0.2, SV=2.0,
            kappa=0.8, r=0.3, mu=0.8, Lx=1.0, Ly=1.0)


def _mms_exact_u(x, y, t, c=_MMS):
    kx, ky = math.pi / c["Lx"], math.pi / c["Ly"]
    return c["AU"] + c["BU"] * np.exp(-c["SU"] * t) * np.cos(kx * x) * np.cos(ky * y)


def _mms_exact_v(x, y, t, c=_MMS):
    kx = math.pi / c["Lx"]
    return c["AV"] + c["BV"] * np.exp(-c["SV"] * t) * np.cos(kx * x)


def _mms_source_u(x, y, t, c=_MMS):
    kx, ky = math.pi / c["Lx"], math.pi / c["Ly"]
    eu = np.exp(-c["SU"] * t)
    ev = np.exp(-c["SV"] * t)
    cx, cy = np.cos(kx * x), np.cos(ky * y)
    u_exact = c["AU"] + c["BU"] * eu * cx * cy
    dt_minus_lap = c["BU"] * eu * cx * cy * (-c["SU"] + kx * kx + ky * ky)
    chemo = -c["kappa"] * kx * kx * c["BV"] * ev * (
        c["AU"] * cx + c["BU"] * eu * cy * np.cos(2.0 * kx * x)
    )
    return dt_minus_lap + chemo - c["r"] * u_exact + c["mu"] * u_exact * u_exact


def _mms_source_v(x, y, t, c=_MMS):
    kx, ky = math.pi / c["Lx"], math.pi / c["Ly"]
    eu = np.exp(-c["SU"] * t)
    ev = np.exp(-c["SV"] * t)
    cx, cy = np.cos(kx * x), np.cos(ky * y)
    u_exact = c["AU"] + c["BU"] * eu * cx * cy
    return c["BV"] * ev * cx * (-c["SV"] + kx * kx + 1.0) + c["AV"] - u_exact


@dataclass
class ConvergenceRow:
    h: float
    tau: float
    error_u: float
    error_v: float
    observed_order_u: float  # nan on the first row
    observed_order_v: float


@dataclass
class ConvergenceTable:
    study: str
    rows: list[ConvergenceRow] = field(default_factory=list)

    CSV_HEADER = "level,h,tau,error_u,error_v,observed_order_u,observed_order_v"

    def to_csv(self) -> str:
        return csv_table(self.CSV_HEADER, (
            (k, row.h, row.tau, row.error_u, row.error_v, row.observed_order_u,
             row.observed_order_v)
            for k, row in enumerate(self.rows)))

    def final_orders(self) -> tuple[float, float]:
        return self.rows[-1].observed_order_u, self.rows[-1].observed_order_v


def _mms_run_error(nx: int, nt: int, T: float, scheme: Scheme) -> tuple[float, float]:
    c = _MMS
    grid = GridSpec(c["Lx"], c["Ly"], nx, nx)
    time_grid = TimeGrid(T=T, nt=nt)
    params = ModelParams(kappa=c["kappa"], r=c["r"], mu=c["mu"])
    X, Y = grid.cell_centers()
    u0 = Field2D(grid, _mms_exact_u(X, Y, 0.0))
    v0 = Field2D(grid, _mms_exact_v(X, Y, 0.0))
    # the source of each step, at its implicit level
    src_u = np.stack([_mms_source_u(X, Y, t) for t in time_grid.times()[1:]])
    src_v = np.stack([_mms_source_v(X, Y, t) for t in time_grid.times()[1:]])

    state = solve_forward(
        u0, v0, _zero_control(grid, time_grid), params, time_grid,
        PicardSettings(tol=1e-11, max_iters=60), scheme,
        cg_tol=1e-12, source_u=src_u, source_v=src_v,
    )

    t = time_grid.times()[:, None, None]
    err_u = trapezoid_sq_l2(state.u - _mms_exact_u(X, Y, t), time_grid, grid.cell_area)
    err_v = trapezoid_sq_l2(state.v - _mms_exact_v(X, Y, t), time_grid, grid.cell_area)
    return math.sqrt(err_u), math.sqrt(err_v)


def mms_convergence(
    levels: int = 3,
    study: Literal["spatial", "temporal"] = "spatial",
    scheme: Scheme = "central",
) -> ConvergenceTable:
    """Convergence of the full coupled solver against the manufactured pair.

    The spatial study refines ``h`` with ``tau`` proportional to ``h^2`` so
    both error components shrink at the same rate; with central fluxes the
    observed order approaches 2.  The temporal study halves ``tau`` on a
    fixed fine grid whose spatial error sits far below the temporal one;
    the observed order approaches 1 (backward Euler).
    """
    if levels < 2:
        raise ValueError("need at least two refinement levels")
    table = ConvergenceTable(study=study)
    prev: Optional[ConvergenceRow] = None
    for k in range(levels):
        if study == "spatial":
            nx = 8 * 2**k
            nt = 5 * 4**k
            T = 0.25
        elif study == "temporal":
            nx = 64
            nt = 10 * 2**k
            T = 0.5
        else:
            raise ValueError(f"unknown study {study!r}")
        err_u, err_v = _mms_run_error(nx, nt, T, scheme)
        h = _MMS["Lx"] / nx
        tau = T / nt
        if prev is None:
            order_u = order_v = float("nan")
        else:
            denom = math.log(prev.h / h) if study == "spatial" else math.log(prev.tau / tau)
            order_u = math.log(prev.error_u / err_u) / denom
            order_v = math.log(prev.error_v / err_v) / denom
        row = ConvergenceRow(h, tau, err_u, err_v, order_u, order_v)
        table.rows.append(row)
        prev = row
    return table

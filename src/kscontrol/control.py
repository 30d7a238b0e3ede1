"""Control variables on the space-time cylinder and their calculus.

A control is piecewise constant in time: one masked spatial field per time
level ``n = 0 .. nt-1``, active on ``[t_n, t_{n+1})``.  All quadrature over
the control cylinder is left-endpoint in time and cell-area in space,
matching how the forward scheme samples the control.  Values are stored
compactly (one row per level, one column per masked cell); outside the
control region the control is identically zero.

The regularization exponent ``p`` lives in (2, 3); its integrand derivative
``sgn(f) |f|^(p-1)`` is continuous with value 0 at ``f = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np

from .errors import GridMismatchError, require
from .mesh import RegionMask

if TYPE_CHECKING:  # pragma: no cover
    from .adjoint import AdjointTrajectory
    from .forward import StateTrajectory, TimeGrid


@dataclass
class ControlField:
    """Piecewise-constant-in-time control supported on a region mask.

    ``values`` has shape ``(nt, m)`` where ``m`` is the number of masked
    cells; level ``n`` holds on ``[t_n, t_{n+1})``.
    """

    time_grid: "TimeGrid"
    region: RegionMask
    values: np.ndarray

    def __post_init__(self):
        require(self.region.count >= 1, "region", "control region must contain at least one cell")
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.time_grid.nt, self.region.count)
        require(self.values.shape == expected, "values",
                f"control values shape {self.values.shape}, expected {expected}")
        require(np.all(np.isfinite(self.values)), "values", "control contains non-finite values")

    @classmethod
    def zeros(cls, time_grid: "TimeGrid", region: RegionMask) -> "ControlField":
        return cls(time_grid, region, np.zeros((time_grid.nt, region.count)))

    @classmethod
    def from_constant(cls, time_grid: "TimeGrid", region: RegionMask, value: float) -> "ControlField":
        return cls(time_grid, region, np.full((time_grid.nt, region.count), float(value)))

    def array_at(self, level: int) -> np.ndarray:
        """Scatter level ``level`` onto the full grid (zero outside the mask)."""
        full = np.zeros((self.region.grid.nx, self.region.grid.ny))
        full[self.region.inside] = self.values[level]
        return full

    def layout_matches(self, other: "ControlField") -> bool:
        return (
            self.time_grid == other.time_grid
            and self.region.grid == other.region.grid
            and np.array_equal(self.region.inside, other.region.inside)
        )


@dataclass(frozen=True)
class CostWeights:
    """Nonnegative weights of the three cost terms."""

    gamma_u: float = 1.0
    gamma_v: float = 1.0
    gamma_f: float = 1e-3

    def __post_init__(self):
        for name in ("gamma_u", "gamma_v", "gamma_f"):
            require(0 <= getattr(self, name) < np.inf, name,
                    f"the cost weight {name} must be nonnegative and finite")


@dataclass(frozen=True)
class AdmissibleSet:
    """Pointwise constraint set ``[f_min, f_max]``: a finite box, or
    unconstrained with the infinite default bounds."""

    kind: Literal["unconstrained", "box"] = "unconstrained"
    f_min: float = -np.inf
    f_max: float = np.inf

    def __post_init__(self):
        require(self.kind in ("unconstrained", "box"), "kind",
                f"expected admissible set kind 'unconstrained' or 'box', got {self.kind!r}")
        if self.kind == "box":
            require(np.isfinite(self.f_min), "f_min", "box bounds must be finite")
            require(np.isfinite(self.f_max), "f_max", "box bounds must be finite")
            require(self.f_min <= self.f_max, "f_min", "box requires f_min <= f_max")
        else:
            require(self.f_min == -np.inf, "f_min", "an unconstrained set takes no bounds")
            require(self.f_max == np.inf, "f_max", "an unconstrained set takes no bounds")

    @property
    def bounded(self) -> bool:
        return self.kind == "box"


def require_well_posed(weights: CostWeights, admissible: AdmissibleSet) -> None:
    """Existence hypothesis for a minimizer: without regularization the set
    must be bounded.  The state and the dual need no such hypothesis."""
    if weights.gamma_f == 0.0 and not admissible.bounded:
        raise ValueError(
            "gamma_f = 0 is well-posed only on a bounded admissible set: use a box "
            "with finite f_min and f_max, or a positive gamma_f"
        )


@dataclass
class TrackingTargets:
    """Desired states: each is one field for every level, or one per level.

    A `Field2D`, an array, or a sequence of either is stored as one finite
    float array of shape ``(nx, ny)`` or ``(nt + 1, nx, ny)``; both broadcast
    against a trajectory stack.
    """

    u_d: np.ndarray
    v_d: np.ndarray

    def __post_init__(self):
        for name in ("u_d", "v_d"):
            values = np.asarray(getattr(self, name), dtype=float)
            require(values.ndim in (2, 3), name,
                    "a target must be one field, or one field per level")
            require(np.all(np.isfinite(values)), name, f"the target {name} must be finite")
            setattr(self, name, values)

    def check_shape(self, levels: tuple[int, int, int]) -> None:
        """Raise `ValueError` unless each target is one field, shape ``levels[1:]``,
        or one field per level, shape ``levels``: a trajectory's ``(nt + 1, nx, ny)``."""
        for name in ("u_d", "v_d"):
            shape = getattr(self, name).shape
            if shape not in (levels, levels[1:]):
                raise ValueError(f"target {name} has shape {shape}; "
                                 f"expected {levels[1:]} or {levels}")


def project(f: ControlField, admissible: AdmissibleSet) -> ControlField:
    """Pointwise projection onto the admissible set, as a new control
    (unconstrained, the infinite bounds keep every value bit for bit)."""
    clipped = np.clip(f.values, admissible.f_min, admissible.f_max)
    return ControlField(f.time_grid, f.region, clipped)


def qc_weight(f: ControlField) -> float:
    """Space-time measure of one control degree of freedom, the L2(Q_c) weight."""
    return f.region.grid.cell_area * f.time_grid.tau


def qc_norm(values: np.ndarray, f: ControlField) -> float:
    """Discrete L2 norm over the control cylinder for control-shaped arrays."""
    return float(np.sqrt(np.sum(values * values) * qc_weight(f)))


def control_cost(f: ControlField, gamma_f: float, p: float) -> float:
    """Regularization term ``(gamma_f / p) * sum |f|^p`` over the cylinder."""
    if gamma_f < 0:
        raise ValueError("gamma_f must be nonnegative")
    if gamma_f == 0.0:
        return 0.0
    return gamma_f / p * float(np.sum(np.abs(f.values) ** p)) * qc_weight(f)


def reduced_gradient(
    f: ControlField,
    state: "StateTrajectory",
    adjoint: "AdjointTrajectory",
    gamma_f: float,
    p: float,
) -> ControlField:
    """Gradient of the reduced cost, laid out like the control it differentiates.

    Per level ``n`` and masked cell: ``gamma_f * sgn(f) |f|^(p-1) +
    v^{n+1}_+ eta^n``.  The step ``n -> n+1`` multiplies ``f^n`` by the
    positive part of its implicit signal ``v^{n+1}``, and ``eta^n`` is that
    step's multiplier, so this is the exact derivative of the discrete cost
    (to solver tolerance, wherever the trajectory stays positive).
    """
    inside = f.region.inside
    nt = f.time_grid.nt
    vals = np.maximum(state.v[1:], 0.0)[:, inside] * adjoint.eta[:nt][:, inside]
    if gamma_f != 0.0:
        fv = f.values
        vals = vals + gamma_f * np.sign(fv) * np.abs(fv) ** (p - 1.0)
    return ControlField(f.time_grid, f.region, vals)


def vi_residual(f: ControlField, d: ControlField, admissible: AdmissibleSet) -> float:
    """Projected-gradient fixed-point residual ``||f - P(f - d)||``.

    Measured in the discrete L2 norm over the control cylinder; zero exactly
    at points satisfying the first-order optimality condition.
    """
    if not f.layout_matches(d):
        raise GridMismatchError("control and gradient layouts differ")
    trial = np.clip(f.values - d.values, admissible.f_min, admissible.f_max)
    return qc_norm(f.values - trial, f)

"""Cell-centered finite volumes on a rectangle with zero-flux boundaries.

The grid covers ``[0, Lx] x [0, Ly]`` with ``nx * ny`` uniform cells; all
unknowns live at cell centers ``((i + 0.5) hx, (j + 0.5) hy)`` stored in
arrays of shape ``(nx, ny)``.  Every operator is the divergence of fluxes
on the interior faces, and homogeneous Neumann conditions enter as zero flux
on the boundary faces.  That makes every operator here conservative: the
discrete integral of ``laplacian_array`` and of
``chemotaxis_divergence_arrays`` vanishes identically because interior face
fluxes telescope.

Besides the two divergence-form operators the module provides the exact
transpose of the chemotaxis stencil with respect to its density argument
(needed by the dual problem) and a face-coefficient diffusion operator that
is self-transposed.  Keeping the transposes here, next to the stencils they
mirror, is what makes the discrete duality identity checkable to solver
precision.  Every operator maps plain ``(nx, ny)`` arrays to arrays;
`Field2D` only checks values that enter from outside (initial data,
targets, sampled expressions) against their grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import GridMismatchError, InvalidValue, require

Scheme = Literal["central", "upwind"]


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on ``[0, Lx] x [0, Ly]``."""

    Lx: float
    Ly: float
    nx: int
    ny: int

    def __post_init__(self):
        require(0 < self.Lx < np.inf, "Lx", "the domain length Lx must be positive and finite")
        require(0 < self.Ly < np.inf, "Ly", "the domain length Ly must be positive and finite")
        require(self.nx >= 2, "nx", "need at least two cells in x")
        require(self.ny >= 2, "ny", "need at least two cells in y")

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(X, Y)`` center coordinate arrays of shape ``(nx, ny)``."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y, indexing="ij")


@dataclass
class Field2D:
    """One scalar unknown per cell: the only owner of the rule that values
    entering from outside match their grid and are finite."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nx, self.grid.ny):
            raise InvalidValue("values", f"a {'x'.join(map(str, self.values.shape))} field "
                                         f"does not match the {self.grid.nx}x{self.grid.ny} grid")
        require(np.all(np.isfinite(self.values)), "values",
                "the field contains non-finite values")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.values, dtype=dtype, copy=copy)


def constant_field(grid: GridSpec, value: float) -> Field2D:
    return Field2D(grid, np.full((grid.nx, grid.ny), float(value)))


def field_from_function(grid: GridSpec, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Field2D:
    """Sample ``fn(x, y)`` at cell centers."""
    X, Y = grid.cell_centers()
    return Field2D(grid, np.broadcast_to(fn(X, Y), (grid.nx, grid.ny)).astype(float).copy())


@dataclass
class RegionMask:
    """Boolean cell selection, used for the control support."""

    grid: GridSpec
    inside: np.ndarray

    def __post_init__(self):
        self.inside = np.asarray(self.inside, dtype=bool)
        if self.inside.shape != (self.grid.nx, self.grid.ny):
            raise ValueError("mask shape does not match grid")

    @classmethod
    def rectangle(cls, grid: GridSpec, x0: float, y0: float, x1: float, y1: float) -> "RegionMask":
        """Cells whose centers fall in ``[x0, x1] x [y0, y1]``, at least one."""
        require(x1 > x0, "x1", "region needs x1 > x0")
        require(y1 > y0, "y1", "region needs y1 > y0")
        X, Y = grid.cell_centers()
        region = cls(grid, (X >= x0) & (X <= x1) & (Y >= y0) & (Y <= y1))
        require(region.count > 0, "x0", "the control region contains no grid cells")
        return region

    @classmethod
    def everywhere(cls, grid: GridSpec) -> "RegionMask":
        return cls(grid, np.ones((grid.nx, grid.ny), dtype=bool))

    @property
    def count(self) -> int:
        return int(self.inside.sum())


def check_same_grid(*objs) -> GridSpec:
    grid = objs[0].grid
    for other in objs[1:]:
        if other.grid != grid:
            raise GridMismatchError("fields live on different grids")
    return grid


# ---------------------------------------------------------------------------
# stencils on (nx, ny) arrays
# ---------------------------------------------------------------------------

def laplacian_array(vals: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Five-point Neumann Laplacian: divergence of the interior face gradients."""
    return _divergence(*_face_gradients(vals, hx, hy), hx, hy)


def _face_gradients(v: np.ndarray, hx: float, hy: float):
    """Interior face differences over the two trailing axes."""
    gx = (v[..., 1:, :] - v[..., :-1, :]) / hx
    gy = (v[..., 1:] - v[..., :-1]) / hy
    return gx, gy


def _divergence(fx: np.ndarray, fy: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Divergence of interior face fluxes; boundary faces carry zero flux."""
    out = np.zeros((fx.shape[0] + 1, fx.shape[1]))
    dx, dy = fx / hx, fy / hy
    out[:-1, :] += dx
    out[1:, :] -= dx
    out[:, :-1] += dy
    out[:, 1:] -= dy
    return out


def _face_weights(gx: np.ndarray, gy: np.ndarray, scheme: Scheme):
    """Left/bottom cell weight per interior face; right/top weight is 1-w.

    Central: arithmetic mean, one scalar for every face.  Upwind: full
    weight to the cell the face gradient of v points away from (the donor
    for flux ``u * grad v``).
    """
    if scheme == "central":
        wx = wy = 0.5
    elif scheme == "upwind":
        wx = (gx > 0.0).astype(float)
        wy = (gy > 0.0).astype(float)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return wx, wy


def _face_average(c: np.ndarray, wx, wy):
    """``c`` on the interior x- and y-faces, weighted by `_face_weights`."""
    return wx * c[:-1, :] + (1.0 - wx) * c[1:, :], wy * c[:, :-1] + (1.0 - wy) * c[:, 1:]


def chemotaxis_divergence_arrays(
    u: np.ndarray, v: np.ndarray, hx: float, hy: float, scheme: Scheme,
) -> np.ndarray:
    """``div_h(u_face * grad_h v)`` with zero-flux boundary faces.

    The upwind donor choice depends on ``v`` alone, so for fixed ``v`` the
    operator is linear in ``u``; the linearized solver freezes the donor
    pattern by passing the base state as ``v``.
    """
    gx, gy = _face_gradients(v, hx, hy)
    ux, uy = _face_average(u, *_face_weights(gx, gy, scheme))
    return _divergence(ux * gx, uy * gy, hx, hy)


def chemotaxis_adjoint_arrays(
    w: np.ndarray, v: np.ndarray, hx: float, hy: float, scheme: Scheme,
) -> np.ndarray:
    """Exact transpose of ``u -> chemotaxis_divergence_arrays(u, v)``.

    Cellwise this is a flux-weighted average of ``-grad w . grad v``, the
    convection term of the first dual equation.  Transposition is with
    respect to the cell-area inner product; since the weights do not depend
    on ``u`` the identity ``<C u, w> = <u, C^T w>`` holds to round-off.
    """
    gx, gy = _face_gradients(v, hx, hy)
    wx, wy = _face_weights(gx, gy, scheme)

    tx = gx * (w[1:, :] - w[:-1, :]) / hx
    ty = gy * (w[:, 1:] - w[:, :-1]) / hy

    out = np.zeros_like(w)
    out[:-1, :] -= wx * tx
    out[1:, :] -= (1.0 - wx) * tx
    out[:, :-1] -= wy * ty
    out[:, 1:] -= (1.0 - wy) * ty
    return out


def weighted_diffusion_arrays(
    coeff: np.ndarray, phi: np.ndarray, ref: np.ndarray,
    hx: float, hy: float, scheme: Scheme,
) -> np.ndarray:
    """``div_h(coeff_face * grad_h phi)`` with donor selection frozen at ``ref``.

    For fixed face coefficients this operator is symmetric, so it serves
    both the state linearization in ``phi`` and its transpose in the second
    dual equation.
    """
    sx, sy = _face_gradients(ref, hx, hy)
    cx, cy = _face_average(coeff, *_face_weights(sx, sy, scheme))
    fx = cx * (phi[1:, :] - phi[:-1, :]) / hx
    fy = cy * (phi[:, 1:] - phi[:, :-1]) / hy
    return _divergence(fx, fy, hx, hy)


def l2_norm_array(vals: np.ndarray, cell_area: float) -> float:
    return float(np.sqrt(np.sum(vals * vals) * cell_area))


def h1_seminorm_array(vals: np.ndarray, hx: float, hy: float, cell_area: float):
    """H1 seminorm from face differences over the two trailing axes, so one
    call serves a single field or a ``(levels, nx, ny)`` stack."""
    gx, gy = _face_gradients(vals, hx, hy)
    axes = (-2, -1)
    return np.sqrt((np.sum(gx * gx, axis=axes) + np.sum(gy * gy, axis=axes)) * cell_area)

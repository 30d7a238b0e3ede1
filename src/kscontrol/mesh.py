"""Cell-centered finite volumes on a rectangle with zero-flux boundaries.

The grid covers ``[0, Lx] x [0, Ly]`` with ``nx * ny`` uniform cells; all
unknowns live at cell centers ``((i + 0.5) hx, (j + 0.5) hy)`` stored in
arrays of shape ``(nx, ny)``.  Every operator is the divergence of fluxes on
the interior faces, with zero flux on the boundary faces (homogeneous
Neumann), so interior fluxes telescope and every operator is conservative;
the transposes the dual needs sit beside their stencils.

The stencils work on the flat C-order view ``f`` of a field.  Its x-faces
are ``f[ny:] - f[:-ny]``, a contiguous ``(nx-1) * ny`` block; its y-faces
are ``f[1:] - f[:-1]``, whose entries ``ny-1::ny`` pair the last cell of a
row with the first of the next: row breaks, not faces.  Each stencil zeroes
its y-fluxes there before they scatter, so every cell sees the operations,
in the order, of the two-dimensional face form.
"""

from __future__ import annotations

import math
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
# stencils on (nx, ny) arrays, computed on their flat C-order views
# ---------------------------------------------------------------------------

def laplacian_array(vals: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """Five-point Neumann Laplacian: divergence of the interior face gradients."""
    ny = vals.shape[-1]
    return _divergence(*_face_gradients(vals.ravel(), ny, hx, hy), ny, hx, hy).reshape(vals.shape)


def _face_gradients(f: np.ndarray, ny: int, hx: float, hy: float):
    """Face differences along the last axis of flat fields with rows of ``ny``;
    the y-differences keep their row breaks."""
    gx, gy = f[..., ny:] - f[..., :-ny], f[..., 1:] - f[..., :-1]
    gx /= hx
    gy /= hy
    return gx, gy


def _divergence(fx: np.ndarray, fy: np.ndarray, ny: int, hx: float, hy: float) -> np.ndarray:
    """Flat divergence of flat interior face fluxes, which it divides in
    place; the boundary faces and the row breaks carry zero flux."""
    out = np.zeros(fy.size + 1)
    fx /= hx
    fy /= hy
    fy[ny - 1::ny] = 0.0
    out[:-ny] += fx
    out[ny:] -= fx
    out[:-1] += fy
    out[1:] -= fy
    return out


def _face_weights(gx: np.ndarray, gy: np.ndarray, scheme: Scheme):
    """Left/bottom cell weight per interior face; right/top weight is 1-w.

    Central: arithmetic mean, one scalar for every face.  Upwind: full
    weight to the cell the face gradient of v points away from (the donor
    for flux ``u * grad v``).
    """
    if scheme == "central":
        return 0.5, 0.5
    if scheme == "upwind":
        return (gx > 0.0).astype(float), (gy > 0.0).astype(float)
    raise ValueError(f"unknown scheme {scheme!r}")


def _face_average(c: np.ndarray, ny: int, wx, wy):
    """Flat ``c`` on the x- and y-faces, weighted by `_face_weights`."""
    return wx * c[:-ny] + (1.0 - wx) * c[ny:], wy * c[:-1] + (1.0 - wy) * c[1:]


def chemotaxis_divergence_arrays(
    u: np.ndarray, v: np.ndarray, hx: float, hy: float, scheme: Scheme,
) -> np.ndarray:
    """``div_h(u_face * grad_h v)`` with zero-flux boundary faces.

    The upwind donor choice depends on ``v`` alone, so for fixed ``v`` the
    operator is linear in ``u``; the linearized solver freezes the donor
    pattern by passing the base state as ``v``.
    """
    ny = v.shape[-1]
    gx, gy = _face_gradients(v.ravel(), ny, hx, hy)
    ux, uy = _face_average(u.ravel(), ny, *_face_weights(gx, gy, scheme))
    return _divergence(ux * gx, uy * gy, ny, hx, hy).reshape(v.shape)


def chemotaxis_adjoint_arrays(
    w: np.ndarray, v: np.ndarray, hx: float, hy: float, scheme: Scheme,
) -> np.ndarray:
    """Exact transpose of ``u -> chemotaxis_divergence_arrays(u, v)``.

    Cellwise this is a flux-weighted average of ``-grad w . grad v``, the
    convection term of the first dual equation.  Transposition is with
    respect to the cell-area inner product; since the weights do not depend
    on ``u`` the identity ``<C u, w> = <u, C^T w>`` holds to round-off.
    """
    ny = v.shape[-1]
    gx, gy = _face_gradients(v.ravel(), ny, hx, hy)
    wx, wy = _face_weights(gx, gy, scheme)
    f = w.ravel()
    tx = gx * (f[ny:] - f[:-ny]) / hx
    ty = gy * (f[1:] - f[:-1]) / hy
    ty[ny - 1::ny] = 0.0
    out = np.zeros(f.size)
    out[:-ny] -= wx * tx
    out[ny:] -= (1.0 - wx) * tx
    out[:-1] -= wy * ty
    out[1:] -= (1.0 - wy) * ty
    return out.reshape(w.shape)


def weighted_diffusion_arrays(
    coeff: np.ndarray, phi: np.ndarray, ref: np.ndarray,
    hx: float, hy: float, scheme: Scheme,
) -> np.ndarray:
    """``div_h(coeff_face * grad_h phi)`` with donor selection frozen at ``ref``.

    For fixed face coefficients this operator is symmetric, so it serves
    both the state linearization in ``phi`` and its transpose in the second
    dual equation.
    """
    ny = ref.shape[-1]
    sx, sy = _face_gradients(ref.ravel(), ny, hx, hy)
    cx, cy = _face_average(coeff.ravel(), ny, *_face_weights(sx, sy, scheme))
    f = phi.ravel()
    fx = cx * (f[ny:] - f[:-ny]) / hx
    fy = cy * (f[1:] - f[:-1]) / hy
    return _divergence(fx, fy, ny, hx, hy).reshape(phi.shape)


def l2_norm_array(vals: np.ndarray, cell_area: float) -> float:
    return math.sqrt(np.vdot(vals, vals) * cell_area)


def h1_seminorm_array(vals: np.ndarray, hx: float, hy: float, cell_area: float):
    """H1 seminorm of a field, or of each level of a ``(levels, nx, ny)`` stack;
    one face stack at a time, each from the 2-D view, which has no row breaks."""
    total = 0.0
    for axis, h in ((-2, hx), (-1, hy)):
        g = np.diff(vals, axis=axis)
        g /= h
        g *= g
        total = total + g.sum(axis=(-2, -1))
        del g  # before the next stack is built
    return np.sqrt(total * cell_area)

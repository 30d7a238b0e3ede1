"""Grid, operator, and norm tests.

The discrete operators carry the whole scheme: the Laplacian must be
symmetric and conservative, and the chemotaxis divergence must satisfy an
exact transpose identity because the adjoint solver is built on it.
"""

import tracemalloc

import numpy as np
import pytest

from kscontrol.errors import GridMismatchError, InvalidValue
from kscontrol.mesh import (
    Field2D,
    GridSpec,
    RegionMask,
    chemotaxis_adjoint_arrays,
    chemotaxis_divergence_arrays,
    check_same_grid,
    constant_field,
    field_from_function,
    h1_seminorm_array,
    laplacian_array,
    l2_norm_array,
    weighted_diffusion_arrays,
)


def _random_field(grid, rng, lo=-1.0, hi=1.0):
    return rng.uniform(lo, hi, size=(grid.nx, grid.ny))


def _lap(g, f):
    return laplacian_array(f, g.hx, g.hy)


def _div(g, u, v, scheme):
    return chemotaxis_divergence_arrays(u, v, g.hx, g.hy, scheme)


def _integrate(g, f):
    return float(f.sum()) * g.cell_area


def _inner(g, f, w):
    return float(np.sum(f * w)) * g.cell_area


# ----------------------------------------------------------------------
# grid construction


def test_grid_spacing_and_area():
    g = GridSpec(Lx=2.0, Ly=3.0, nx=8, ny=6)
    assert g.hx == 0.25
    assert g.hy == 0.5
    assert g.cell_area == 0.125


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        GridSpec(Lx=-1.0, Ly=1.0, nx=4, ny=4)
    with pytest.raises(ValueError):
        GridSpec(Lx=1.0, Ly=1.0, nx=1, ny=4)


def test_cell_centers_are_offset_half_a_cell():
    g = GridSpec(Lx=1.0, Ly=1.0, nx=4, ny=4)
    x, y = g.cell_centers()
    np.testing.assert_allclose(x[:, 0], [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(y[0, :], [0.125, 0.375, 0.625, 0.875])


def test_field_validation():
    g = GridSpec(Lx=1.0, Ly=1.0, nx=4, ny=4)
    with pytest.raises(ValueError):
        Field2D(g, np.zeros((4, 5)))
    bad = np.zeros((4, 4))
    bad[2, 2] = np.nan
    with pytest.raises(ValueError):
        Field2D(g, bad)


def test_check_same_grid_raises_on_mismatch():
    a = constant_field(GridSpec(1.0, 1.0, 4, 4), 1.0)
    b = constant_field(GridSpec(1.0, 1.0, 8, 8), 1.0)
    with pytest.raises(GridMismatchError):
        check_same_grid(a, b)


def test_region_mask_counts_cells_in_closed_box():
    g = GridSpec(Lx=1.0, Ly=1.0, nx=8, ny=8)
    m = RegionMask.rectangle(g, 0.25, 0.25, 0.75, 0.75)
    # centers at 1/16 + k/8; those in [0.25, 0.75] are k = 2..5 per axis
    assert m.count == 16
    assert RegionMask.everywhere(g).count == 64


def test_region_mask_refuses_a_mask_of_another_shape():
    with pytest.raises(ValueError, match="mask shape does not match grid"):
        RegionMask(GridSpec(Lx=1.0, Ly=1.0, nx=8, ny=8), np.ones((8, 4), dtype=bool))


@pytest.mark.parametrize("box, field, message", [
    ((0.5, 0.0, 0.5, 1.0), "x1", "region needs x1 > x0"),
    ((0.0, 0.5, 1.0, float("nan")), "y1", "region needs y1 > y0"),
    ((2.0, 0.0, 3.0, 1.0), "x0", "the control region contains no grid cells"),
], ids=["x-not-ordered", "y-nan", "outside-the-domain"])
def test_rectangle_refuses_an_unordered_or_empty_box(box, field, message):
    with pytest.raises(InvalidValue) as exc:
        RegionMask.rectangle(GridSpec(Lx=1.0, Ly=1.0, nx=8, ny=8), *box)
    assert exc.value.field == field and str(exc.value) == message


# ----------------------------------------------------------------------
# Laplacian


def test_laplacian_of_constant_vanishes():
    g = GridSpec(Lx=1.0, Ly=2.0, nx=16, ny=12)
    lap = _lap(g, constant_field(g, 3.7).values)
    np.testing.assert_array_equal(lap, np.zeros((16, 12)))


def test_laplacian_conserves_mass():
    rng = np.random.default_rng(11)
    g = GridSpec(Lx=1.5, Ly=1.0, nx=13, ny=9)
    f = _random_field(g, rng)
    assert abs(_integrate(g, _lap(g, f))) < 1e-13


def test_laplacian_is_self_adjoint():
    rng = np.random.default_rng(12)
    g = GridSpec(Lx=1.0, Ly=1.0, nx=10, ny=14)
    f = _random_field(g, rng)
    w = _random_field(g, rng)
    lhs = _inner(g, _lap(g, f), w)
    rhs = _inner(g, f, _lap(g, w))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-14)


def test_laplacian_eigenmode_is_exact():
    """cos(k pi x / Lx) at cell centers is an exact discrete eigenvector.

    The eigenvalue of the flux form with mirrored boundary cells is
    -(4/h^2) sin^2(k pi h / (2 Lx)).
    """
    g = GridSpec(Lx=1.0, Ly=1.0, nx=24, ny=24)
    k = 3
    f = field_from_function(g, lambda x, y: np.cos(k * np.pi * x)).values
    lam = -(4.0 / g.hx**2) * np.sin(k * np.pi * g.hx / 2.0) ** 2
    np.testing.assert_allclose(_lap(g, f), lam * f,
                               rtol=1e-11, atol=1e-11)


def test_laplacian_second_order_on_cosine_mode():
    # error against the continuum eigenvalue should drop 4x per refinement
    errs = []
    for nx in (16, 32):
        g = GridSpec(Lx=1.0, Ly=1.0, nx=nx, ny=nx)
        f = field_from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        exact = field_from_function(
            g, lambda x, y: -2.0 * np.pi**2 * np.cos(np.pi * x) * np.cos(np.pi * y)
        )
        err = np.max(np.abs(_lap(g, f.values) - exact.values))
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


# ----------------------------------------------------------------------
# chemotaxis divergence


@pytest.mark.parametrize("scheme", ["central", "upwind"])
def test_chemo_divergence_conserves_mass(scheme):
    rng = np.random.default_rng(21)
    g = GridSpec(Lx=1.0, Ly=1.0, nx=11, ny=7)
    u = _random_field(g, rng, 0.0, 2.0)
    v = _random_field(g, rng)
    div = _div(g, u, v, scheme)
    assert abs(_integrate(g, div)) < 1e-13


def test_chemo_divergence_with_constant_density_is_scaled_laplacian():
    # div(c grad v) = c * lap v, and the central flux form reproduces it
    # to round-off because the face averages of a constant are exact
    rng = np.random.default_rng(22)
    g = GridSpec(Lx=1.0, Ly=1.0, nx=9, ny=9)
    v = _random_field(g, rng)
    c = 1.75
    div = _div(g, constant_field(g, c).values, v, "central")
    np.testing.assert_allclose(div, c * _lap(g, v),
                               rtol=1e-13, atol=1e-13)


def test_chemo_divergence_of_constant_v_is_zero():
    rng = np.random.default_rng(23)
    g = GridSpec(Lx=1.0, Ly=1.0, nx=9, ny=9)
    u = _random_field(g, rng, 0.0, 1.0)
    for scheme in ("central", "upwind"):
        div = _div(g, u, constant_field(g, 0.8).values, scheme)
        np.testing.assert_array_equal(div, np.zeros((9, 9)))


@pytest.mark.parametrize("scheme", ["central", "upwind"])
def test_chemo_transpose_identity(scheme):
    """<div(u grad v), w> = <u, T_v w> for the frozen-v linearization.

    This is the identity the backward sweep relies on, so it must hold to
    round-off, not just to truncation order.
    """
    rng = np.random.default_rng(24)
    g = GridSpec(Lx=1.3, Ly=0.9, nx=12, ny=10)
    for trial in range(5):
        u = _random_field(g, rng, -1.0, 2.0)
        v = _random_field(g, rng)
        w = _random_field(g, rng)
        lhs = _inner(g, _div(g, u, v, scheme), w)
        rhs = _inner(g, u, chemotaxis_adjoint_arrays(w, v, g.hx, g.hy, scheme))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


def test_chemo_transpose_matches_dense_matrix():
    # build the operator matrix column by column and compare its transpose
    # against the hand-written adjoint, entry for entry
    rng = np.random.default_rng(25)
    g = GridSpec(Lx=1.0, Ly=1.0, nx=5, ny=4)
    v = rng.uniform(-1.0, 1.0, size=(5, 4))
    n = 20
    mat = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        mat[:, j] = chemotaxis_divergence_arrays(
            e.reshape(5, 4), v, g.hx, g.hy, "upwind"
        ).ravel()
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        col = chemotaxis_adjoint_arrays(e.reshape(5, 4), v, g.hx, g.hy, "upwind")
        np.testing.assert_allclose(col.ravel(), mat[j, :], atol=1e-14)


def test_chemo_central_is_second_order():
    """Flux form vs the exact divergence for u = v = cos(pi x) cos(pi y).

    div(u grad u) = |grad u|^2 + u lap u, worked out by hand below.
    """
    def exact(x, y):
        u = np.cos(np.pi * x) * np.cos(np.pi * y)
        gx = -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        gy = -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        return gx**2 + gy**2 + u * (-2.0 * np.pi**2 * u)

    errs = []
    for nx in (16, 32, 64):
        g = GridSpec(Lx=1.0, Ly=1.0, nx=nx, ny=nx)
        u = field_from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)).values
        div = _div(g, u, u, "central")
        ref = field_from_function(g, exact).values
        errs.append(l2_norm_array(div - ref, g.cell_area))
    order = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert 1.8 < order < 2.2
    assert 1.8 < order2 < 2.2


def test_chemo_upwind_is_first_order():
    def exact(x, y):
        u = np.cos(np.pi * x) * np.cos(np.pi * y)
        gx = -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
        gy = -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        return gx**2 + gy**2 + u * (-2.0 * np.pi**2 * u)

    errs = []
    for nx in (32, 64):
        g = GridSpec(Lx=1.0, Ly=1.0, nx=nx, ny=nx)
        u = field_from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)).values
        div = _div(g, u, u, "upwind")
        ref = field_from_function(g, exact).values
        errs.append(l2_norm_array(div - ref, g.cell_area))
    order = np.log2(errs[0] / errs[1])
    assert 0.7 < order < 1.3


def test_frozen_donor_pattern_is_linear_in_density():
    # the upwind donor choice is made from v alone, so for fixed v the
    # divergence is linear in u, which is what the linearized sweeps assume
    rng = np.random.default_rng(26)
    g = GridSpec(Lx=1.0, Ly=1.0, nx=8, ny=8)
    v = rng.uniform(-1.0, 1.0, size=(8, 8))
    a = rng.uniform(-1.0, 1.0, size=(8, 8))
    b = rng.uniform(-1.0, 1.0, size=(8, 8))
    da = chemotaxis_divergence_arrays(a, v, g.hx, g.hy, "upwind")
    db = chemotaxis_divergence_arrays(b, v, g.hx, g.hy, "upwind")
    dab = chemotaxis_divergence_arrays(2.0 * a - 3.0 * b, v, g.hx, g.hy, "upwind")
    np.testing.assert_allclose(dab, 2.0 * da - 3.0 * db, atol=1e-13)


def test_weighted_diffusion_is_symmetric():
    rng = np.random.default_rng(27)
    g = GridSpec(Lx=1.0, Ly=1.0, nx=9, ny=11)
    coeff = rng.uniform(0.1, 2.0, size=(9, 11))
    ref = rng.uniform(-1.0, 1.0, size=(9, 11))
    for scheme in ("central", "upwind"):
        phi = rng.uniform(-1.0, 1.0, size=(9, 11))
        psi = rng.uniform(-1.0, 1.0, size=(9, 11))
        lhs = np.sum(weighted_diffusion_arrays(coeff, phi, ref, g.hx, g.hy, scheme) * psi)
        rhs = np.sum(weighted_diffusion_arrays(coeff, psi, ref, g.hx, g.hy, scheme) * phi)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


# ----------------------------------------------------------------------
# norms


def test_norms_of_constant():
    g = GridSpec(Lx=2.0, Ly=0.5, nx=10, ny=10)
    vals = constant_field(g, -3.0).values
    np.testing.assert_allclose(l2_norm_array(vals, g.cell_area), 3.0)  # |domain| = 1
    assert h1_seminorm_array(vals, g.hx, g.hy, g.cell_area) == 0.0


# ----------------------------------------------------------------------
# flat stencils against their two-dimensional forms, bit for bit
#
# `mesh` computes every stencil on the flat C-order view of its fields,
# where the y-face differences also pair the last cell of each row with
# the first cell of the next.  The forms below index faces in two
# dimensions and meet no such row break; each flat stencil must match
# its form exactly, so it must take the same floating-point operations
# per element, in the same order.


def _ref_face_gradients(v, hx, hy):
    return (v[..., 1:, :] - v[..., :-1, :]) / hx, (v[..., 1:] - v[..., :-1]) / hy


def _ref_divergence(fx, fy, hx, hy):
    out = np.zeros((fx.shape[0] + 1, fx.shape[1]))
    dx, dy = fx / hx, fy / hy
    out[:-1, :] += dx
    out[1:, :] -= dx
    out[:, :-1] += dy
    out[:, 1:] -= dy
    return out


def _ref_face_weights(gx, gy, scheme):
    if scheme == "central":
        return 0.5, 0.5
    return (gx > 0.0).astype(float), (gy > 0.0).astype(float)


def _ref_face_average(c, wx, wy):
    return wx * c[:-1, :] + (1.0 - wx) * c[1:, :], wy * c[:, :-1] + (1.0 - wy) * c[:, 1:]


def _ref_laplacian(v, hx, hy):
    return _ref_divergence(*_ref_face_gradients(v, hx, hy), hx, hy)


def _ref_chemotaxis_divergence(u, v, hx, hy, scheme):
    gx, gy = _ref_face_gradients(v, hx, hy)
    ux, uy = _ref_face_average(u, *_ref_face_weights(gx, gy, scheme))
    return _ref_divergence(ux * gx, uy * gy, hx, hy)


def _ref_chemotaxis_adjoint(w, v, hx, hy, scheme):
    gx, gy = _ref_face_gradients(v, hx, hy)
    wx, wy = _ref_face_weights(gx, gy, scheme)
    tx = gx * (w[1:, :] - w[:-1, :]) / hx
    ty = gy * (w[:, 1:] - w[:, :-1]) / hy
    out = np.zeros_like(w)
    out[:-1, :] -= wx * tx
    out[1:, :] -= (1.0 - wx) * tx
    out[:, :-1] -= wy * ty
    out[:, 1:] -= (1.0 - wy) * ty
    return out


def _ref_weighted_diffusion(coeff, phi, ref, hx, hy, scheme):
    sx, sy = _ref_face_gradients(ref, hx, hy)
    cx, cy = _ref_face_average(coeff, *_ref_face_weights(sx, sy, scheme))
    fx = cx * (phi[1:, :] - phi[:-1, :]) / hx
    fy = cy * (phi[:, 1:] - phi[:, :-1]) / hy
    return _ref_divergence(fx, fy, hx, hy)


def _ref_h1_seminorm(vals, hx, hy, cell_area):
    gx, gy = _ref_face_gradients(vals, hx, hy)
    axes = (-2, -1)
    return np.sqrt((np.sum(gx * gx, axis=axes) + np.sum(gy * gy, axis=axes)) * cell_area)


def _oracle_fields(shape, kind, seed):
    """Three mixed-sign fields; ``jump`` adds +-1e6 across every row break,
    so a flux leaking over one shows as an O(1e8) error at these spacings."""
    rng = np.random.default_rng(seed)
    fields = [rng.uniform(-1.0, 1.0, size=shape) for _ in range(3)]
    if kind == "jump":
        for f in fields:
            f[:, -1] += 1e6
            f[:, 0] -= 1e6
    return fields


def _assert_bitwise(actual, expected):
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


ORACLE_SHAPES = [(2, 2), (2, 7), (7, 2), (13, 9)]


@pytest.mark.parametrize("kind", ["random", "jump"])
@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_flat_laplacian_matches_its_2d_form_bitwise(shape, kind):
    g = GridSpec(Lx=1.3, Ly=0.7, nx=shape[0], ny=shape[1])  # hx != hy, neither a power of 2
    v, _, _ = _oracle_fields(shape, kind, 31)
    _assert_bitwise(laplacian_array(v, g.hx, g.hy), _ref_laplacian(v, g.hx, g.hy))


@pytest.mark.parametrize("scheme", ["central", "upwind"])
@pytest.mark.parametrize("kind", ["random", "jump"])
@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_flat_flux_stencils_match_their_2d_forms_bitwise(shape, kind, scheme):
    g = GridSpec(Lx=1.3, Ly=0.7, nx=shape[0], ny=shape[1])
    a, b, c = _oracle_fields(shape, kind, 32)
    h = (g.hx, g.hy)
    _assert_bitwise(chemotaxis_divergence_arrays(a, b, *h, scheme),
                    _ref_chemotaxis_divergence(a, b, *h, scheme))
    _assert_bitwise(chemotaxis_adjoint_arrays(a, b, *h, scheme),
                    _ref_chemotaxis_adjoint(a, b, *h, scheme))
    _assert_bitwise(weighted_diffusion_arrays(a, b, c, *h, scheme),
                    _ref_weighted_diffusion(a, b, c, *h, scheme))


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_h1_seminorm_keeps_the_bits_of_its_2d_form(shape):
    # a stack of levels, as the invariants monitor passes it, and one field;
    # summing zeros at the row breaks would regroup NumPy's pairwise sums
    # and move the last bit of some of these levels
    g = GridSpec(Lx=1.3, Ly=0.7, nx=shape[0], ny=shape[1])
    levels = np.random.default_rng(33).uniform(-1.0, 1.0, size=(24, *shape))
    stack = np.concatenate([levels, _oracle_fields(shape, "jump", 34)])
    for vals in (stack, stack[0]):
        _assert_bitwise(h1_seminorm_array(vals, g.hx, g.hy, g.cell_area),
                        _ref_h1_seminorm(vals, g.hx, g.hy, g.cell_area))


def test_h1_seminorm_holds_few_face_stacks_at_once():
    # the invariants monitor passes the whole level stack: one face stack
    # at a time, and no compacted copy of the y-faces
    g = GridSpec(Lx=1.0, Ly=1.0, nx=128, ny=128)
    stack = np.random.default_rng(35).uniform(-1.0, 1.0, size=(3, 128, 128))
    h1_seminorm_array(stack, g.hx, g.hy, g.cell_area)  # warm any lazy set-up
    tracemalloc.start()
    try:
        h1_seminorm_array(stack, g.hx, g.hy, g.cell_area)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * stack.nbytes

"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from a seed, writing any files into a
scratch directory (`build`); runs one operation (`run`, the unit
``solve_s`` times); reports the work that operation did (`work`: counts
and an output fingerprint that must repeat exactly); and checks its result
against properties the method must have or against quantities computed
apart from the solver (`check`).

The seed moves the inputs by a few percent around one fixed problem, so a
different seed gives different data but the same amount of work per step.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import struct
from pathlib import Path

import numpy as np

import kscontrol
from kscontrol import (
    AdmissibleSet,
    ArmijoSettings,
    ControlField,
    ControlProblem,
    CostWeights,
    Field2D,
    GridSpec,
    ModelParams,
    OptimizeOptions,
    PicardSettings,
    RegionMask,
    TimeGrid,
    TrackingTargets,
)

# ---------------------------------------------------------------------------
# KSF1 snapshots, read and written from the documented layout alone:
# a little-endian '<4sIIId' header (magic, version, nx, ny, time) followed
# by nx * ny float64 values in row-major order.

KSF_HEADER = struct.Struct("<4sIIId")


def write_ksf(path: Path, values: np.ndarray, time: float) -> None:
    nx, ny = values.shape
    path.write_bytes(KSF_HEADER.pack(b"KSF1", 1, nx, ny, time)
                     + np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_ksf(path: Path) -> tuple[np.ndarray, float]:
    data = path.read_bytes()
    magic, version, nx, ny, time = KSF_HEADER.unpack_from(data)
    if magic != b"KSF1" or version != 1:
        raise ValueError(f"{path.name}: bad header {magic!r} v{version}")
    if len(data) != KSF_HEADER.size + 8 * nx * ny:
        raise ValueError(f"{path.name}: {len(data)} bytes for a {nx}x{ny} field")
    return np.frombuffer(data, dtype="<f8", offset=KSF_HEADER.size).reshape(nx, ny), time


def fingerprint(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _qc_norm(values: np.ndarray, region: RegionMask, tg: TimeGrid) -> float:
    return float(np.sqrt(np.sum(values * values) * region.grid.cell_area * tg.tau))


def _region_points(region: RegionMask, tg: TimeGrid):
    X, Y = region.grid.cell_centers()
    return X[region.inside], Y[region.inside], tg.times()[: tg.nt]


# ---------------------------------------------------------------------------
# simulate-128: the CLI forward march with snapshots and invariant monitor


class Simulate128:
    name = "simulate-128"
    n = 128
    nt = 2
    T = 0.04
    r, mu, kappa = 1.0, 2.0, 1.0

    def build(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        grid = GridSpec(1.0, 1.0, self.n, self.n)
        X, Y = grid.cell_centers()
        # three bumps cut off at a tenth of their height: u0 is exactly zero
        # on most of the domain, so nonnegativity has something to test, and
        # its mass exceeds r |Omega| / mu, so the mass bound is m0 (1 + 10 tau)
        bumps = np.zeros_like(X)
        for xc, yc in ((0.3, 0.35), (0.65, 0.3), (0.5, 0.7)):
            xc += 0.01 * rng.uniform(-1, 1)
            yc += 0.01 * rng.uniform(-1, 1)
            bumps += np.exp(-((X - xc) ** 2 + (Y - yc) ** 2) / (2 * 0.1 ** 2))
        u0 = 4.0 * (1.0 + 0.02 * rng.uniform(-1, 1)) * np.maximum(bumps - 0.1, 0.0)
        u0_path = workdir / "u0.ksf"
        write_ksf(u0_path, u0, 0.0)
        amp = 0.6 * (1.0 + 0.02 * rng.uniform(-1, 1))
        config = workdir / "simulate.cfg"
        config.write_text(
            f"grid.nx = {self.n}\ngrid.ny = {self.n}\n"
            f"time.T = {self.T!r}\ntime.nt = {self.nt}\n"
            f"model.kappa = {self.kappa!r}\nmodel.r = {self.r!r}\nmodel.mu = {self.mu!r}\n"
            "forward.scheme = upwind\nforward.cg_tol = 1e-11\nforward.picard_tol = 1e-11\n"
            f"init.u0 = path:{u0_path}\n"
            "init.v0 = gaussian:0.3,0.2,0.5,0.5,0.2\n"
            "control.region.x0 = 0.25\ncontrol.region.y0 = 0.25\n"
            "control.region.x1 = 0.75\ncontrol.region.y1 = 0.75\n"
            f"control.initial = gaussian:0,{amp!r},0.5,0.5,0.15\n"
        )
        out = workdir / "simulate-out"
        return {"argv": ["simulate", "--config", str(config), "--output", str(out),
                         "--snapshot-every", "1"], "out": out}

    def run(self, inputs: dict) -> dict:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            rc = kscontrol.run(inputs["argv"])
        return {"rc": rc, "stdout": text.getvalue()}

    def cell_steps(self, result) -> int:
        return self.n * self.n * self.nt

    def _levels(self, out: Path, prefix: str) -> list[tuple[np.ndarray, float]]:
        return [read_ksf(out / f"{prefix}_{k:06d}.ksf") for k in range(self.nt + 1)]

    def work(self, inputs, result) -> dict:
        sweeps = re.search(r"(\d+) fixed-point sweeps", result["stdout"])
        u = [vals for vals, _ in self._levels(inputs["out"], "u")]
        v = [vals for vals, _ in self._levels(inputs["out"], "v")]
        return {"picard_sweeps": int(sweeps.group(1)) if sweeps else -1,
                "output": fingerprint(*u, *v)}

    def check(self, inputs, result) -> list[str]:
        if result["rc"] != 0:
            return [f"simulate exited with {result['rc']}"]
        fails = []
        tau = self.T / self.nt
        area = (1.0 / self.n) ** 2
        u_levels = self._levels(inputs["out"], "u")
        v_levels = self._levels(inputs["out"], "v")
        for k, ((u, tu), (v, tv)) in enumerate(zip(u_levels, v_levels)):
            if u.shape != (self.n, self.n) or v.shape != (self.n, self.n):
                fails.append(f"level {k}: shape {u.shape}/{v.shape}")
            if not (abs(tu - k * tau) <= 1e-12 and tu == tv):
                fails.append(f"level {k}: time stamps {tu!r}/{tv!r}")
        u = [vals for vals, _ in u_levels]
        low = min(min(float(x.min()) for x in u), min(float(x.min()) for x, _ in v_levels))
        print(f"check: min(u, v) {low:.3e}, u0 zero on {float(np.mean(u[0] == 0.0)):.0%} of cells")
        if low < -1e-12:
            fails.append(f"min(u, v) = {low:.3e} < -1e-12")
        mass = np.array([float(x.sum()) * area for x in u])
        bound = max(mass[0], self.r * 1.0 / self.mu) * (1.0 + 10.0 * tau)
        print(f"check: mass {mass.tolist()}, bound {float(bound)!r}")
        if mass.max() > bound:
            fails.append(f"mass {mass.max():.6e} exceeds bound {bound:.6e}")
        # per-step identity (m1 - m0)/tau + mu int(u1+ u1) = r int(u1+), exact
        # at Picard convergence, where the lagged iterate equals u1
        for k in range(self.nt):
            up = np.maximum(u[k + 1], 0.0)
            residual = ((mass[k + 1] - mass[k]) / tau + self.mu * float(np.sum(up * u[k + 1])) * area
                        - self.r * float(up.sum()) * area)
            print(f"check: step {k} mass identity residual {residual:.3e}")
            if abs(residual) > 1e-10 * max(1.0, mass[k + 1] / tau):
                fails.append(f"step {k}: mass identity residual {residual:.3e}")
        return fails


# ---------------------------------------------------------------------------
# gradient-64: one reduced gradient (forward march, dual sweep, assembly)


class Gradient64:
    name = "gradient-64"
    n = 64
    nt = 10
    T = 0.1
    fd_eps = 1e-5
    fd_tol = 2e-2

    def build(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        grid = GridSpec(1.0, 1.0, self.n, self.n)
        tg = TimeGrid(T=self.T, nt=self.nt)
        region = RegionMask.rectangle(grid, 0.25, 0.25, 0.75, 0.75)
        X, Y = grid.cell_centers()
        tight = PicardSettings(tol=1e-12, max_iters=200)
        problem = ControlProblem(
            u0=Field2D(grid, 0.6 + 0.2 * np.cos(np.pi * X) * np.cos(np.pi * Y)),
            v0=Field2D(grid, 0.5 + 0.15 * np.cos(np.pi * Y)),
            targets=TrackingTargets(u_d=Field2D(grid, np.full_like(X, 0.4)),
                                    v_d=Field2D(grid, 0.6 + 0.1 * np.cos(np.pi * X))),
            params=ModelParams(kappa=0.9, r=0.8, mu=1.5),
            weights=CostWeights(gamma_u=1.0, gamma_v=0.7, gamma_f=1e-2),
            admissible=AdmissibleSet(), region=region, time_grid=tg,
            scheme="central", picard=tight, cg_tol=1e-12,
        )
        Xc, Yc, t = _region_points(region, tg)
        amp = 0.3 * (1.0 + 0.05 * rng.uniform(-1, 1))
        phase = 0.1 * rng.uniform(-1, 1)
        f = ControlField(tg, region, amp * np.outer(
            1.0 + 0.5 * np.cos(np.pi * t / tg.T + phase),
            np.cos(np.pi * Xc) * np.cos(np.pi * Yc)))
        return {"problem": problem, "f": f}

    def run(self, inputs: dict) -> dict:
        p, f = inputs["problem"], inputs["f"]
        state, cost = kscontrol.cost_of_control(p, f)
        adj = kscontrol.solve_adjoint(state, f, p.targets, p.params, p.weights,
                                      p.scheme, p.cg_tol, settings=p.picard)
        d = kscontrol.reduced_gradient(f, state, adj, p.weights.gamma_f,
                                       p.params.p_exponent)
        return {"state": state, "cost": cost, "gradient": d}

    def cell_steps(self, result) -> int:
        return self.n * self.n * self.nt * 2  # forward march plus dual sweep

    def work(self, inputs, result) -> dict:
        return {"picard_sweeps": int(result["state"].picard_iters.sum()),
                "output": fingerprint(result["gradient"].values)}

    def check(self, inputs, result) -> list[str]:
        """Central difference of the discrete cost along the gradient."""
        p, f, d = inputs["problem"], inputs["f"], result["gradient"].values
        if not np.all(np.isfinite(d)):
            return ["gradient has non-finite entries"]
        norm = _qc_norm(d, p.region, p.time_grid)
        step = self.fd_eps * d / norm
        _, plus = kscontrol.cost_of_control(p, ControlField(f.time_grid, f.region, f.values + step))
        _, minus = kscontrol.cost_of_control(p, ControlField(f.time_grid, f.region, f.values - step))
        fd = (plus.j_total - minus.j_total) / (2.0 * self.fd_eps)
        rel = abs(norm - fd) / abs(fd)
        print(f"check: directional derivative {norm!r}, central difference {fd!r}, "
              f"relative error {rel:.3e}")
        if not rel <= self.fd_tol:
            return [f"gradient vs central difference: relative error {rel:.3e} > {self.fd_tol}"]
        return []


# ---------------------------------------------------------------------------
# optimize-12: projected gradient with Armijo search to a VI tolerance


class Optimize12:
    name = "optimize-12"
    n = 12
    nt = 8
    T = 0.25
    vi_tol = 3e-5

    def build(self, seed: int, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        grid = GridSpec(1.0, 1.0, self.n, self.n)
        tg = TimeGrid(T=self.T, nt=self.nt)
        region = RegionMask.rectangle(grid, 0.25, 0.25, 0.75, 0.75)
        X, Y = grid.cell_centers()
        u0 = Field2D(grid, 0.6 + 0.2 * np.cos(np.pi * X) * np.cos(np.pi * Y))
        v0 = Field2D(grid, 0.5 + 0.15 * np.cos(np.pi * Y))
        params = ModelParams(kappa=0.9, r=0.8, mu=1.5)
        Xc, Yc, t = _region_points(region, tg)
        space = np.cos(np.pi * (Xc - 0.5)) * np.cos(np.pi * (Yc - 0.5))
        amp = 1.5 * (1.0 + 0.02 * rng.uniform(-1, 1))
        f_star = ControlField(tg, region, amp * np.outer(
            1.0 + 0.3 * np.cos(np.pi * t / tg.T), space))
        # targets marched from the known control
        star = kscontrol.solve_forward(u0, v0, f_star, params, tg)
        problem = ControlProblem(
            u0=u0, v0=v0, params=params,
            targets=TrackingTargets(u_d=[s.copy() for s in star.u],
                                    v_d=[s.copy() for s in star.v]),
            weights=CostWeights(gamma_u=1.0, gamma_v=1.0, gamma_f=1e-6),
            admissible=AdmissibleSet("box", -2.0, 2.0), region=region, time_grid=tg,
            scheme="central",
        )
        opts = OptimizeOptions(max_iters=100, vi_tol=self.vi_tol,
                               armijo=ArmijoSettings(s0=2e4))
        return {"problem": problem, "opts": opts, "f_star": f_star}

    def run(self, inputs: dict):
        return kscontrol.solve(inputs["problem"], inputs["opts"])

    @staticmethod
    def marches(report) -> tuple[int, int]:
        """Forward marches (initial plus every line-search trial) and dual sweeps."""
        trials = sum(rec.backtracks + 1 for rec in report.iterates[1:])
        return 1 + trials, len(report.iterates)

    def cell_steps(self, report) -> int:
        return self.n * self.n * self.nt * sum(self.marches(report))

    def work(self, inputs, report) -> dict:
        marches, duals = self.marches(report)
        return {"iterations": report.iterates[-1].iteration, "marches": marches,
                "dual_sweeps": duals, "output": fingerprint(report.final_control.values)}

    def check(self, inputs, report) -> list[str]:
        fails = []
        j = [rec.cost.j_total for rec in report.iterates]
        print(f"check: J {j[0]:.4e} -> {j[-1]:.4e} in {len(j) - 1} iterations, "
              f"reason {report.reason}")
        if not all(b < a for a, b in zip(j, j[1:])):
            fails.append("cost not strictly decreasing")
        if not j[-1] <= j[0] / 100.0:
            fails.append(f"J_final / J_0 = {j[-1] / j[0]:.3e} > 1e-2")
        if report.reason != "vi_tol":
            fails.append(f"stopped by {report.reason}, not vi_tol")
        p, f_star = inputs["problem"], inputs["f_star"]
        f0 = p.initial_control().values
        before = _qc_norm(f0 - f_star.values, p.region, p.time_grid)
        after = _qc_norm(report.final_control.values - f_star.values, p.region, p.time_grid)
        print(f"check: |f - f*| {before:.4f} -> {after:.4f}")
        if not after <= 0.5 * before:
            fails.append(f"|f - f*| = {after:.3e} > half of |f0 - f*| = {before:.3e}")
        return fails


WORKLOADS = {w.name: w() for w in (Simulate128, Gradient64, Optimize12)}

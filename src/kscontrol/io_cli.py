"""Command-line front end: configuration files, snapshots, CSV reports.

Configuration
-------------
Plain text, one ``key = value`` per line, ``#`` starts a comment.  Keys are
flat dotted paths (``model.kappa = 0.5``); every key has a default, so an
empty file is a valid configuration.  Unknown keys are rejected with the
offending key named.  Initial and target fields are compact expressions:

    zero                         shorthand for constant:0
    constant:VALUE
    cosine:BASE,AMP,KX,KY        BASE + AMP cos(KX pi x / Lx) cos(KY pi y / Ly)
    gaussian:BASE,AMP,XC,YC,SIG  BASE + AMP exp(-((x-XC)^2+(y-YC)^2)/(2 SIG^2))
    path:FILE.ksf                values loaded from a snapshot file

Snapshots
---------
Binary, little endian: a 24-byte header ``struct '<4sIIId'`` holding the
magic ``KSF1``, format version 1, ``nx``, ``ny`` and the time stamp, then
``nx * ny`` float64 cell values in row-major order.

Exit codes
----------
0   success
1   usage or configuration problem (including malformed snapshots and a
    problem too large for memory), or an output that cannot be written
2   solver failure, any `SolverError` (linear solve, fixed-point stall, lost
    definiteness); ``optimize`` reports a failed start, finishes the others
    and writes the best of them
3   a verification check ran and failed beyond tolerance
"""

from __future__ import annotations

import argparse
import dataclasses
import struct
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import mesh, verify
from .adjoint import solve_adjoint
from .control import (
    AdmissibleSet,
    ControlField,
    CostWeights,
    TrackingTargets,
    qc_weight,
    require_well_posed,
)
from .errors import ConfigError, InvalidValue, SnapshotFormatError, SolverError
from .forward import (
    ModelParams,
    PicardSettings,
    TimeGrid,
    solve_forward,
)
from .mesh import Field2D, GridSpec, RegionMask
from .optimize import (
    ArmijoSettings,
    ControlProblem,
    OptimizeOptions,
    cost_of_control,
    gradient_of_control,
    solve,
)

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULTS: dict[str, object] = {
    "domain.Lx": 1.0,
    "domain.Ly": 1.0,
    "grid.nx": 32,
    "grid.ny": 32,
    "time.T": 1.0,
    "time.nt": 100,
    "model.kappa": 1.0,
    "model.r": 1.0,
    "model.mu": 2.0,
    "model.p_exponent": ModelParams.p_exponent,
    "forward.scheme": ControlProblem.scheme,
    "forward.cg_tol": ControlProblem.cg_tol,
    "forward.picard_tol": PicardSettings.tol,
    "forward.picard_max_iters": PicardSettings.max_iters,
    "init.u0": "constant:0.5",
    "init.v0": "constant:0.5",
    "targets.u_d": "constant:0.5",
    "targets.v_d": "constant:0.5",
    "cost.gamma_u": CostWeights.gamma_u,
    "cost.gamma_v": CostWeights.gamma_v,
    "cost.gamma_f": CostWeights.gamma_f,
    "control.region.x0": 0.0,
    "control.region.y0": 0.0,
    "control.region.x1": 1.0,
    "control.region.y1": 1.0,
    "control.kind": AdmissibleSet.kind,
    "control.f_min": -1.0,
    "control.f_max": 1.0,
    "control.initial": "zero",
    "optimizer.max_iters": OptimizeOptions.max_iters,
    "optimizer.vi_tol": OptimizeOptions.vi_tol,
    "optimizer.armijo_c1": ArmijoSettings.c1,
    "optimizer.armijo_shrink": ArmijoSettings.shrink,
    "optimizer.armijo_s0": ArmijoSettings.s0,
    "optimizer.armijo_max_backtracks": ArmijoSettings.max_backtracks,
}


class _UsageError(Exception):
    """Command-line misuse distinct from configuration-file problems."""


def parse_config_text(text: str) -> dict[str, str]:
    """Raw ``key -> string`` pairs from config text; later entries win."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {lineno}", f"expected 'key = value', got {stripped!r}"
            )
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def _convert(key: str, text: str) -> object:
    default = DEFAULTS[key]
    if isinstance(default, str):
        return text
    try:
        if isinstance(default, int) and not isinstance(default, bool):
            return int(text)
        return float(text)
    except ValueError:
        kind = "an integer" if isinstance(default, int) else "a number"
        raise ConfigError(key, f"expected {kind}, got {text!r}") from None


def load_config(path: Optional[str], overrides: list[str]) -> dict[str, object]:
    """Defaults, overlaid with a config file, overlaid with --set pairs."""
    raw: dict[str, str] = {}
    if path is not None:
        try:
            raw.update(parse_config_text(Path(path).read_text()))
        except (OSError, ValueError) as err:  # ValueError: not UTF-8 text
            raise ConfigError("config", f"cannot read {path}: {err}") from None
    for pair in overrides:
        if "=" not in pair:
            raise _UsageError(f"--set expects KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        raw[key.strip()] = value.strip()

    cfg = dict(DEFAULTS)
    for key, text in raw.items():
        if key not in DEFAULTS:
            raise ConfigError(key, "unknown configuration key")
        cfg[key] = _convert(key, text)
    return cfg


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

SNAPSHOT_MAGIC = b"KSF1"
SNAPSHOT_VERSION = 1
_SNAP_HEADER = struct.Struct("<4sIIId")


def write_snapshot(path: "Path | str", values: np.ndarray, time: float) -> None:
    """Write one field as a KSF1 snapshot (see module docstring)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"snapshot values must be 2-D, got shape {values.shape}")
    nx, ny = values.shape
    header = _SNAP_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, nx, ny, float(time))
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    Path(path).write_bytes(header + payload)


def read_snapshot(path: "Path | str") -> tuple[np.ndarray, float]:
    """Read a KSF1 snapshot; returns ``(values, time)`` with a writable array."""
    try:
        data = Path(path).read_bytes()
    except (OSError, ValueError) as err:  # ValueError: a NUL byte in the name
        raise SnapshotFormatError(f"{path}: cannot read snapshot: {err}") from None
    if len(data) < _SNAP_HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header")
    magic, version, nx, ny, time = _SNAP_HEADER.unpack_from(data)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}, expected {SNAPSHOT_MAGIC!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"{path}: unsupported format version {version}")
    expected = _SNAP_HEADER.size + nx * ny * 8
    if len(data) != expected:
        raise SnapshotFormatError(
            f"{path}: expected {expected} bytes for a {nx}x{ny} field, found {len(data)}"
        )
    values = np.frombuffer(data, dtype="<f8", offset=_SNAP_HEADER.size)
    return values.reshape(nx, ny).astype(float), time


# ---------------------------------------------------------------------------
# field expressions
# ---------------------------------------------------------------------------


def _expr_floats(key: str, text: str, count: int) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ConfigError(key, f"expression needs {count} parameters, got {len(parts)}")
    out = []
    for part in parts:
        try:
            out.append(float(part))
        except ValueError:
            raise ConfigError(key, f"expected a number, got {part!r}") from None
    return out


def evaluate_expression(key: str, text: str, grid: GridSpec) -> Field2D:
    """Turn one config field expression into a grid field.

    Values that `Field2D` rejects (a snapshot of another shape; ``inf``,
    ``nan`` or an overflow) raise `ConfigError` naming ``key``.
    """
    head, _, rest = text.partition(":")
    head = head.strip()
    X, Y = grid.cell_centers()
    with np.errstate(all="ignore"):  # an overflow shows up as inf, which Field2D rejects
        if head == "zero":
            if rest.strip():
                raise ConfigError(key, "the zero expression takes no parameters")
            values = np.zeros((grid.nx, grid.ny))
        elif head == "constant":
            values = np.full((grid.nx, grid.ny), _expr_floats(key, rest, 1)[0])
        elif head == "cosine":
            base, amp, kx, ky = _expr_floats(key, rest, 4)
            values = base + amp * np.cos(kx * np.pi * X / grid.Lx) * np.cos(
                ky * np.pi * Y / grid.Ly
            )
        elif head == "gaussian":
            base, amp, xc, yc, sigma = _expr_floats(key, rest, 5)
            if sigma <= 0:
                raise ConfigError(key, "gaussian width must be positive")
            values = base + amp * np.exp(
                -(((X - xc) ** 2 + (Y - yc) ** 2) / (2.0 * sigma * sigma))
            )
        elif head == "path":
            name = rest.strip()
            if not name:
                raise ConfigError(key, "path expression needs a file name")
            values, _time = read_snapshot(name)
        else:
            raise ConfigError(
                key,
                f"unknown field expression {head!r} "
                "(expected constant, cosine, gaussian, or path)",
            )
    try:
        return Field2D(grid, values)
    except InvalidValue as err:
        raise ConfigError(key, f"{text!r}: {err}") from None


# ---------------------------------------------------------------------------
# building solver objects from a configuration
# ---------------------------------------------------------------------------


def _built(cfg: dict, cls, given: Optional[dict] = None, /, **keys: str):
    """``cls(**given)`` with each field ``name=key`` set to ``cfg[key]``; the
    field the type rejects is reported as a `ConfigError` naming its key."""
    try:
        return cls(**(given or {}), **{name: cfg[key] for name, key in keys.items()})
    except InvalidValue as err:
        raise ConfigError(keys[err.field], str(err)) from None


def build_setup(cfg: dict[str, object]) -> ControlProblem:
    """Validate a configuration and build the problem it describes, with
    ``f0`` the configured control, unprojected (`build_problem` adds the
    existence check, so ``gamma_f = 0`` on an unbounded set builds here)."""
    grid = _built(cfg, GridSpec, Lx="domain.Lx", Ly="domain.Ly", nx="grid.nx", ny="grid.ny")
    for key, n in (("grid.nx", grid.nx), ("grid.ny", grid.ny)):
        if n >= 2**32:  # the KSF1 header stores the grid size as u32
            raise ConfigError(key, f"{n} cells exceed the snapshot limit of 2**32 - 1")
    time_grid = _built(cfg, TimeGrid, T="time.T", nt="time.nt")
    params = _built(cfg, ModelParams, kappa="model.kappa", r="model.r", mu="model.mu",
                    p_exponent="model.p_exponent")
    picard = _built(cfg, PicardSettings, tol="forward.picard_tol",
                    max_iters="forward.picard_max_iters")

    region = _built(cfg, RegionMask.rectangle, dict(grid=grid), x0="control.region.x0",
                    y0="control.region.y0", x1="control.region.x1", y1="control.region.y1")

    # a bound set away from its default goes to the type even off a box,
    # which refuses it there rather than ignoring it
    bounds = {name: key for name, key in (("f_min", "control.f_min"), ("f_max", "control.f_max"))
              if cfg["control.kind"] == "box" or cfg[key] != DEFAULTS[key]}
    admissible = _built(cfg, AdmissibleSet, kind="control.kind", **bounds)
    weights = _built(cfg, CostWeights, gamma_u="cost.gamma_u", gamma_v="cost.gamma_v",
                     gamma_f="cost.gamma_f")

    u0 = evaluate_expression("init.u0", str(cfg["init.u0"]), grid)
    v0 = evaluate_expression("init.v0", str(cfg["init.v0"]), grid)
    for key, field0 in (("init.u0", u0), ("init.v0", v0)):
        lowest = float(field0.values.min())
        if lowest < 0:
            raise ConfigError(
                key, f"initial data must be nonnegative, minimum value is {lowest:.6g}"
            )
    u_d = evaluate_expression("targets.u_d", str(cfg["targets.u_d"]), grid)
    v_d = evaluate_expression("targets.v_d", str(cfg["targets.v_d"]), grid)
    targets = TrackingTargets(u_d=u_d, v_d=v_d)

    f0_field = evaluate_expression("control.initial", str(cfg["control.initial"]), grid)
    f0_values = np.tile(f0_field.values[region.inside], (time_grid.nt, 1))

    return _built(cfg, ControlProblem, dict(
        u0=u0, v0=v0, targets=targets, params=params, weights=weights,
        admissible=admissible, region=region, time_grid=time_grid, picard=picard,
        f0=ControlField(time_grid, region, f0_values)),
        scheme="forward.scheme", cg_tol="forward.cg_tol")


def build_problem(cfg: dict[str, object]) -> tuple[ControlProblem, OptimizeOptions]:
    """`build_setup`, the existence check the cost commands need, the options."""
    problem = build_setup(cfg)
    try:
        require_well_posed(problem.weights, problem.admissible)
    except ValueError as err:
        raise ConfigError("cost.gamma_f", str(err)) from None
    armijo = _built(cfg, ArmijoSettings, c1="optimizer.armijo_c1",
                    shrink="optimizer.armijo_shrink", s0="optimizer.armijo_s0",
                    max_backtracks="optimizer.armijo_max_backtracks")
    return problem, _built(cfg, OptimizeOptions, dict(armijo=armijo),
                           max_iters="optimizer.max_iters", vi_tol="optimizer.vi_tol")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _out_dir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _march(problem: ControlProblem):
    """The initial control and the state it drives."""
    f = problem.initial_control()
    return f, solve_forward(problem.u0, problem.v0, f, problem.params, problem.time_grid,
                            problem.picard, problem.scheme, problem.cg_tol)


def _march_and_monitor(problem: ControlProblem, out: Path):
    """March from the initial control, monitor it, write ``invariants.csv``."""
    _f, state = _march(problem)
    report = verify.monitor_invariants(state, problem.params)
    (out / "invariants.csv").write_text(report.to_csv())
    return state, report


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.overrides)
    problem = build_setup(cfg)
    out = _out_dir(args)
    state, report = _march_and_monitor(problem, out)

    nt = problem.time_grid.nt
    written = 1
    if args.snapshot_every > 0:
        times = problem.time_grid.times()
        for n in range(nt + 1):
            if n % args.snapshot_every == 0 or n == nt:
                write_snapshot(out / f"u_{n:06d}.ksf", state.u[n], times[n])
                write_snapshot(out / f"v_{n:06d}.ksf", state.v[n], times[n])
                written += 2

    print(
        f"simulate: {nt} steps to T={problem.time_grid.T!r} on "
        f"{state.grid.nx}x{state.grid.ny} ({problem.scheme} fluxes), "
        f"{int(state.picard_iters.sum())} fixed-point sweeps"
    )
    print(
        f"final: mass_u={float(report.mass_u[-1])!r} min_u={float(report.min_u[-1])!r} "
        f"min_v={float(report.min_v[-1])!r}"
    )
    print(
        f"invariants: nonneg={report.nonneg_ok} mass_bound={report.mass_bound_ok} "
        f"mass_identity={report.mass_identity_ok}"
    )
    print(f"wrote {written} file(s) to {out}")
    return 0


def _cmd_invariants(args) -> int:
    cfg = load_config(args.config, args.overrides)
    problem = build_setup(cfg)
    out = _out_dir(args)
    _state, report = _march_and_monitor(problem, out)

    # Which failures falsify a guaranteed property, as opposed to one that
    # holds only under hypotheses this run does not satisfy?  The mass
    # identity is unconditional.  Nonnegativity is guaranteed for the upwind
    # flux with a nonnegative control.  The mass bound assumes the density
    # stayed nonnegative.
    control_nonneg = float(problem.initial_control().values.min()) >= 0.0
    hard: list[str] = []
    checks = [
        ("mass_identity", report.mass_identity_ok, True),
        ("nonnegativity", report.nonneg_ok,
         problem.scheme == "upwind" and control_nonneg),
        ("mass_bound", report.mass_bound_ok, report.nonneg_ok),
    ]
    for name, ok, guaranteed in checks:
        status = "PASS" if ok else ("FAIL" if guaranteed else "fail (not guaranteed here)")
        print(f"check {name}: {status}")
        if not ok and guaranteed:
            hard.append(name)
    print(f"wrote {out / 'invariants.csv'}")
    if hard:
        print(f"verification failed: {', '.join(hard)}", file=sys.stderr)
        return 3
    return 0


def _cmd_adjoint(args) -> int:
    cfg = load_config(args.config, args.overrides)
    problem = build_setup(cfg)
    out = _out_dir(args)
    f, state = _march(problem)
    adj = solve_adjoint(state, f, problem.targets, problem.params,
                        problem.weights, problem.scheme, problem.cg_tol,
                        settings=problem.picard)

    nt = problem.time_grid.nt
    times = problem.time_grid.times()
    for n in range(nt + 1):
        write_snapshot(out / f"lam_{n:06d}.ksf", adj.lam[n], times[n])
        write_snapshot(out / f"eta_{n:06d}.ksf", adj.eta[n], times[n])
    lam0 = mesh.l2_norm_array(adj.lam[0], adj.grid.cell_area)
    eta0 = mesh.l2_norm_array(adj.eta[0], adj.grid.cell_area)
    print(f"adjoint: swept {nt} steps backward; |lam(0)|_L2={lam0!r} |eta(0)|_L2={eta0!r}")
    print(f"wrote {2 * (nt + 1)} snapshot(s) to {out}")
    return 0


def _optimize_csv(report) -> str:
    return verify.csv_table("iter,j_total,j_u,j_v,j_f,vi_residual,step,backtracks", (
        (rec.iteration, rec.cost.j_total, rec.cost.j_u, rec.cost.j_v, rec.cost.j_f,
         rec.vi_residual, rec.step_size, rec.backtracks)
        for rec in report.iterates))


def _cmd_optimize(args) -> int:
    cfg = load_config(args.config, args.overrides)
    problem, opts = build_problem(cfg)

    rng = np.random.default_rng(args.seed)
    base = problem.initial_control()
    starts = [base]
    for _ in range(1, args.starts):
        if problem.admissible.bounded:
            box = problem.admissible  # drawn at half scale: f_max - f_min may overflow
            values = 2.0 * rng.uniform(box.f_min / 2, box.f_max / 2, size=base.values.shape)
        else:
            with np.errstate(over="ignore"):  # an overflow is reported below
                values = base.values + args.start_scale * rng.standard_normal(base.values.shape)
        try:
            starts.append(ControlField(problem.time_grid, problem.region, values))
        except InvalidValue as err:
            raise _UsageError(f"argument --start-scale: {err}") from None

    out = _out_dir(args)
    best = None
    best_index = -1
    failed = 0
    for k, f_start in enumerate(starts):
        try:
            report = solve(dataclasses.replace(problem, f0=f_start), opts)
        except SolverError as err:  # reported; the other starts still run
            print(f"solver error: start {k}: {err}", file=sys.stderr)
            failed += 1
            continue
        (out / f"optimize_start{k:02d}.csv").write_text(_optimize_csv(report))
        cost = report.final_cost
        print(
            f"start {k}: J={cost.j_total!r} vi_residual={report.iterates[-1].vi_residual!r} "
            f"iters={report.iterates[-1].iteration} reason={report.reason}"
        )
        if best is None or cost.j_total < best.final_cost.j_total:
            best, best_index = report, k
    if best is None:
        return 2

    times = problem.time_grid.times()
    for n in range(problem.time_grid.nt):
        write_snapshot(out / f"f_best_{n:06d}.ksf",
                       best.final_control.array_at(n), times[n])
    print(
        f"best start {best_index}: J={best.final_cost.j_total!r} "
        f"converged={best.converged} reason={best.reason}"
    )
    print(f"wrote results to {out}")
    return 2 if failed else 0


def _cmd_grad_check(args) -> int:
    cfg = load_config(args.config, args.overrides)
    problem, _opts = build_problem(cfg)
    out = _out_dir(args)

    f = problem.initial_control()
    state, _cost = cost_of_control(problem, f)
    d = gradient_of_control(problem, f, state)

    rng = np.random.default_rng(args.seed)
    directions = [
        ControlField(f.time_grid, f.region, rng.standard_normal(f.values.shape))
        for _ in range(args.directions)
    ]
    analytic = np.array(
        [float(np.sum(d.values * F.values)) * qc_weight(f) for F in directions]
    )
    fd = verify.fd_gradient(problem, f, directions, eps=args.eps)

    rows = []
    worst = 0.0
    for k in range(args.directions):
        denom = max(abs(fd[k]), 1e-14)
        rel = float(abs(analytic[k] - fd[k]) / denom)
        worst = max(worst, rel)
        rows.append((k, analytic[k], fd[k], rel))
        print(
            f"direction {k}: analytic={analytic[k]:.10e} fd={fd[k]:.10e} "
            f"rel_error={rel:.3e}"
        )
    (out / "grad_check.csv").write_text(
        verify.csv_table("direction,analytic,finite_difference,rel_error", rows))
    print(f"worst relative error {worst:.3e} (tolerance {args.tol:.3e})")
    if worst > args.tol:
        print("verification failed: gradient mismatch", file=sys.stderr)
        return 3
    return 0


def _cmd_mms(args) -> int:
    path = _out_dir(args) / f"mms_{args.study}.csv"
    table = verify.mms_convergence(levels=args.levels, study=args.study,
                                   scheme=args.scheme)
    path.write_text(table.to_csv())
    for k, row in enumerate(table.rows):
        print(
            f"level {k}: h={float(row.h)!r} tau={float(row.tau)!r} "
            f"error_u={row.error_u:.6e} error_v={row.error_v:.6e} "
            f"order_u={row.observed_order_u:.3f} order_v={row.observed_order_v:.3f}"
        )
    expected = 2.0 if args.study == "spatial" else 1.0
    order_u, order_v = table.final_orders()
    print(f"wrote {path}")
    print(f"final observed orders: u={order_u:.3f} v={order_v:.3f} (expected {expected})")
    if abs(order_u - expected) > args.order_tol or abs(order_v - expected) > args.order_tol:
        print("verification failed: convergence order out of band", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise _UsageError(message)


def _checked(convert, ok, rule: str):
    """An argparse ``type=`` that converts a flag's text and rejects a value
    breaking ``rule``; argparse reports ``argument FLAG: must be RULE``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse names the type in "invalid int value"
    return parse


_COUNT = _checked(int, lambda n: n >= 0, "at least 0")
_POSITIVE_COUNT = _checked(int, lambda n: n >= 1, "at least 1")
_TOLERANCE = _checked(float, lambda x: 0 <= x < np.inf, "finite and nonnegative")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True,
                        help="configuration file (key = value lines)")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE", help="override one configuration key")
    parser.add_argument("--output", default="out", metavar="DIR",
                        help="directory for output files (default: out)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ks-control",
        description="Chemotaxis-growth simulation and bilinear optimal control.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sim = sub.add_parser("simulate", help="run the forward solver")
    _add_common(sim)
    sim.add_argument("--snapshot-every", type=_COUNT, default=0, metavar="K",
                     help="write u/v snapshots every K levels (default: 0, none)")

    adj = sub.add_parser("adjoint", help="march the state, then sweep the dual system along it")
    _add_common(adj)

    opt = sub.add_parser("optimize", help="projected L-BFGS descent on the control")
    _add_common(opt)
    opt.add_argument("--seed", type=_COUNT, default=0, help="seed for the extra starts")
    opt.add_argument("--starts", type=_POSITIVE_COUNT, default=1,
                     help="number of initial controls (first is control.initial)")
    opt.add_argument("--start-scale", type=_checked(float, np.isfinite, "finite"), default=1.0,
                     help="perturbation size for unconstrained extra starts")

    gc = sub.add_parser("grad-check",
                        help="compare the assembled gradient with finite differences")
    _add_common(gc)
    gc.add_argument("--seed", type=_COUNT, default=0, help="seed for the random directions")
    gc.add_argument("--directions", type=_POSITIVE_COUNT, default=5)
    gc.add_argument("--eps", type=_checked(float, lambda x: 0 < x < np.inf, "finite and positive"),
                    default=1e-5)
    gc.add_argument("--tol", type=_TOLERANCE, default=1e-4,
                    help="largest acceptable relative error")

    inv = sub.add_parser("invariants", help="run the solver and check its invariants")
    _add_common(inv)

    mms = sub.add_parser("mms", help="manufactured-solution convergence study")
    mms.add_argument("--output", default="out", metavar="DIR",
                     help="directory for output files (default: out)")
    mms.add_argument("--study", choices=("spatial", "temporal"), default="spatial")
    mms.add_argument("--levels", type=_checked(int, lambda n: n >= 2, "at least 2"), default=3)
    mms.add_argument("--scheme", choices=("central", "upwind"), default="central")
    mms.add_argument("--order-tol", type=_TOLERANCE, default=0.2)

    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "adjoint": _cmd_adjoint,
    "optimize": _cmd_optimize,
    "grad-check": _cmd_grad_check,
    "invariants": _cmd_invariants,
    "mms": _cmd_mms,
}


def run(argv: Optional[list[str]] = None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as err:  # argparse --help
        return int(err.code or 0)

    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, ConfigError, SnapshotFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: the problem does not fit in memory", file=sys.stderr)
        return 1
    except OSError as err:  # every read maps its own; this is a write
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return 1
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

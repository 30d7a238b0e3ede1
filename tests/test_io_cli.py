"""Configuration parsing, snapshot files, and the command-line surface."""

import dataclasses

import numpy as np
import pytest

from kscontrol import io_cli
from kscontrol.control import AdmissibleSet, CostWeights
from kscontrol.errors import (
    ConfigError,
    LinearSolverError,
    PicardDivergenceError,
    SnapshotFormatError,
    SolverError,
    StepConditioningError,
)
from kscontrol.forward import ModelParams, PicardSettings
from kscontrol.io_cli import (
    DEFAULTS,
    build_problem,
    build_setup,
    evaluate_expression,
    load_config,
    parse_config_text,
    read_snapshot,
    run,
    write_snapshot,
)
from kscontrol.mesh import GridSpec
from kscontrol.optimize import ArmijoSettings, ControlProblem, OptimizeOptions


BASE_CFG = """
# small, fast problem shared by the command tests
grid.nx = 10
grid.ny = 10
time.T = 0.2
time.nt = 5
model.kappa = 0.6
model.r = 0.5
model.mu = 1.2
cost.gamma_u = 1.0
cost.gamma_v = 0.7
cost.gamma_f = 0.5
control.region.x0 = 0.25
control.region.y0 = 0.25
control.region.x1 = 0.75
control.region.y1 = 0.75
control.initial = constant:0.5
init.u0 = cosine:0.5,0.2,1,0
init.v0 = cosine:0.5,0.15,0,1
targets.u_d = constant:0.4
targets.v_d = constant:0.6
forward.picard_tol = 1e-11
forward.cg_tol = 1e-11
"""


@pytest.fixture
def base_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return str(path)


# ----------------------------------------------------------------------
# config text


def test_parse_config_text_strips_comments_and_blank_lines():
    raw = parse_config_text("# header\n\n  time.T = 2.0  # trailing\ntime.nt=7\n")
    assert raw == {"time.T": "2.0", "time.nt": "7"}


def test_parse_config_text_last_entry_wins():
    raw = parse_config_text("model.r = 1.0\nmodel.r = 3.0\n")
    assert raw["model.r"] == "3.0"


def test_parse_config_text_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("model.r = 1.0\nnot a pair\n")


def test_load_config_defaults_when_empty():
    cfg = load_config(None, [])
    assert cfg == DEFAULTS
    assert cfg["model.p_exponent"] == 2.1
    assert cfg["forward.scheme"] == "central"
    assert cfg["optimizer.vi_tol"] == 1e-6
    assert cfg["control.kind"] == "unconstrained"


# each config key that a parameter type also defaults -> (type, field)
_LIBRARY_DEFAULTS = {
    "model.p_exponent": (ModelParams, "p_exponent"),
    "forward.scheme": (ControlProblem, "scheme"),
    "forward.cg_tol": (ControlProblem, "cg_tol"),
    "forward.picard_tol": (PicardSettings, "tol"),
    "forward.picard_max_iters": (PicardSettings, "max_iters"),
    "cost.gamma_u": (CostWeights, "gamma_u"),
    "cost.gamma_v": (CostWeights, "gamma_v"),
    "cost.gamma_f": (CostWeights, "gamma_f"),
    "control.kind": (AdmissibleSet, "kind"),
    "optimizer.max_iters": (OptimizeOptions, "max_iters"),
    "optimizer.vi_tol": (OptimizeOptions, "vi_tol"),
    "optimizer.armijo_c1": (ArmijoSettings, "c1"),
    "optimizer.armijo_shrink": (ArmijoSettings, "shrink"),
    "optimizer.armijo_s0": (ArmijoSettings, "s0"),
    "optimizer.armijo_max_backtracks": (ArmijoSettings, "max_backtracks"),
}


@pytest.mark.parametrize("key", sorted(_LIBRARY_DEFAULTS))
def test_cli_default_is_the_library_default(key):
    cls, name = _LIBRARY_DEFAULTS[key]
    default = {f.name: f.default for f in dataclasses.fields(cls)}[name]
    assert DEFAULTS[key] == default
    assert type(DEFAULTS[key]) is type(default)


def test_load_config_rejects_unknown_key():
    with pytest.raises(ConfigError) as exc:
        load_config(None, ["grid.nz=4"])
    assert exc.value.key == "grid.nz"


def test_load_config_type_errors():
    with pytest.raises(ConfigError, match="integer"):
        load_config(None, ["grid.nx=3.5"])
    with pytest.raises(ConfigError, match="number"):
        load_config(None, ["model.kappa=strong"])


def test_load_config_overrides_beat_file(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("model.r = 1.0\n")
    cfg = load_config(str(path), ["model.r=2.5"])
    assert cfg["model.r"] == 2.5


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path.cfg", [])


# ----------------------------------------------------------------------
# setup validation


def _setup_cfg(**overrides):
    cfg = load_config(None, [])
    cfg.update(overrides)
    return cfg


def test_build_setup_validates_model_constants():
    with pytest.raises(ConfigError) as exc:
        build_setup(_setup_cfg(**{"model.mu": -1.0}))
    assert exc.value.key == "model.mu"
    with pytest.raises(ConfigError) as exc:
        build_setup(_setup_cfg(**{"model.p_exponent": 3.5}))
    assert exc.value.key == "model.p_exponent"


def test_build_setup_validates_grid_and_time():
    with pytest.raises(ConfigError) as exc:
        build_setup(_setup_cfg(**{"grid.nx": 1}))
    assert exc.value.key == "grid.nx"
    with pytest.raises(ConfigError) as exc:
        build_setup(_setup_cfg(**{"time.nt": 0}))
    assert exc.value.key == "time.nt"
    with pytest.raises(ConfigError) as exc:
        build_setup(_setup_cfg(**{"domain.Lx": 0.0}))
    assert exc.value.key == "domain.Lx"


def test_build_setup_validates_region():
    with pytest.raises(ConfigError, match="x1 > x0"):
        build_setup(_setup_cfg(**{"control.region.x1": 0.0}))
    # a well-ordered box lying outside the domain selects no cells
    with pytest.raises(ConfigError, match="no grid cells"):
        build_setup(_setup_cfg(**{"control.region.x0": 2.0,
                                  "control.region.x1": 3.0}))


def test_build_setup_validates_scheme_and_kind():
    with pytest.raises(ConfigError) as exc:
        build_setup(_setup_cfg(**{"forward.scheme": "quick"}))
    assert exc.value.key == "forward.scheme"
    with pytest.raises(ConfigError) as exc:
        build_setup(_setup_cfg(**{"control.kind": "ball"}))
    assert exc.value.key == "control.kind"
    with pytest.raises(ConfigError, match="f_min <= f_max"):
        build_setup(_setup_cfg(**{"control.kind": "box", "control.f_min": 2.0,
                                  "control.f_max": 1.0}))


def test_build_setup_rejects_negative_initial_data():
    with pytest.raises(ConfigError) as exc:
        build_setup(_setup_cfg(**{"init.u0": "constant:-0.2"}))
    assert exc.value.key == "init.u0"
    assert "-0.2" in str(exc.value)


def test_only_build_problem_requires_well_posedness():
    cfg = _setup_cfg(**{"cost.gamma_f": 0.0})
    build_setup(cfg)  # simulation does not touch the cost
    with pytest.raises(ConfigError, match="box") as exc:
        build_problem(cfg)
    assert exc.value.key == "cost.gamma_f"
    # a box makes the zero-weight cost well posed again
    cfg_box = _setup_cfg(**{"cost.gamma_f": 0.0, "control.kind": "box",
                            "control.f_min": -1.0, "control.f_max": 1.0})
    build_problem(cfg_box)


def test_configured_initial_control_is_projected_into_the_box():
    cfg = _setup_cfg(**{"control.kind": "box", "control.f_min": -0.1,
                        "control.f_max": 0.1, "control.initial": "constant:5.0"})
    problem = build_setup(cfg)
    np.testing.assert_array_equal(problem.f0.values, 5.0)
    np.testing.assert_array_equal(problem.initial_control().values, 0.1)


# ----------------------------------------------------------------------
# field expressions


GRID = GridSpec(1.0, 1.0, 8, 8)


def test_expression_zero_and_constant():
    z = evaluate_expression("init.u0", "zero", GRID)
    np.testing.assert_array_equal(z.values, 0.0)
    c = evaluate_expression("init.u0", "constant:0.75", GRID)
    np.testing.assert_array_equal(c.values, 0.75)
    with pytest.raises(ConfigError, match="no parameters"):
        evaluate_expression("init.u0", "zero:1", GRID)


def test_expression_cosine_matches_hand_evaluation():
    f = evaluate_expression("init.v0", "cosine:0.5,0.2,1,2", GRID)
    X, Y = GRID.cell_centers()
    np.testing.assert_allclose(
        f.values, 0.5 + 0.2 * np.cos(np.pi * X) * np.cos(2 * np.pi * Y), rtol=1e-14
    )


def test_expression_gaussian_peaks_at_the_center():
    f = evaluate_expression("init.u0", "gaussian:0.1,1.0,0.5,0.5,0.2", GRID)
    assert f.values.max() <= 1.1
    peak = np.unravel_index(np.argmax(f.values), f.values.shape)
    assert peak in ((3, 3), (3, 4), (4, 3), (4, 4))
    with pytest.raises(ConfigError, match="width"):
        evaluate_expression("init.u0", "gaussian:0.1,1.0,0.5,0.5,0.0", GRID)


def test_expression_path_round_trips_a_snapshot(tmp_path):
    rng = np.random.default_rng(81)
    values = rng.uniform(0.0, 1.0, size=(8, 8))
    snap = tmp_path / "field.ksf"
    write_snapshot(snap, values, 0.0)
    f = evaluate_expression("init.u0", f"path:{snap}", GRID)
    np.testing.assert_array_equal(f.values, values)


def test_expression_path_rejects_wrong_grid(tmp_path):
    snap = tmp_path / "small.ksf"
    write_snapshot(snap, np.zeros((4, 4)), 0.0)
    with pytest.raises(ConfigError, match="4x4"):
        evaluate_expression("init.u0", f"path:{snap}", GRID)


def test_expression_validation():
    with pytest.raises(ConfigError, match="unknown field expression"):
        evaluate_expression("init.u0", "sinusoid:1", GRID)
    with pytest.raises(ConfigError, match="needs 4 parameters"):
        evaluate_expression("init.u0", "cosine:1,2", GRID)
    with pytest.raises(ConfigError, match="expected a number"):
        evaluate_expression("init.u0", "constant:tall", GRID)


# ----------------------------------------------------------------------
# snapshot format


def test_snapshot_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(82)
    values = rng.standard_normal((16, 12))
    path = tmp_path / "a.ksf"
    write_snapshot(path, values, 0.375)
    back, time = read_snapshot(path)
    np.testing.assert_array_equal(back, values)
    assert time == 0.375
    back[0, 0] = 99.0  # the returned array must be writable


def test_snapshot_rejects_non_2d():
    with pytest.raises(ValueError, match="2-D"):
        write_snapshot("/tmp/never-written.ksf", np.zeros(5), 0.0)


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bad.ksf"
    write_snapshot(path, np.zeros((3, 3)), 0.0)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="bad magic"):
        read_snapshot(path)


def test_snapshot_unsupported_version(tmp_path):
    path = tmp_path / "vers.ksf"
    write_snapshot(path, np.zeros((3, 3)), 0.0)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(SnapshotFormatError, match="version 9"):
        read_snapshot(path)


def test_snapshot_truncation_reports_byte_counts(tmp_path):
    path = tmp_path / "trunc.ksf"
    write_snapshot(path, np.ones((4, 4)), 0.0)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(SnapshotFormatError) as exc:
        read_snapshot(path)
    msg = str(exc.value)
    assert str(len(data)) in msg and str(len(data) - 8) in msg
    path.write_bytes(data[:10])
    with pytest.raises(SnapshotFormatError, match="truncated header"):
        read_snapshot(path)


def test_snapshot_missing_file():
    with pytest.raises(SnapshotFormatError, match="cannot read"):
        read_snapshot("/nonexistent/field.ksf")


# ----------------------------------------------------------------------
# commands: exit codes and artifacts


def test_cli_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_cli_unknown_subcommand_exits_one(capsys):
    assert run(["frobnicate"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_unknown_config_key_exits_one(base_cfg, capsys):
    assert run(["simulate", "--config", base_cfg, "--set", "grid.nz=4"]) == 1
    assert "grid.nz" in capsys.readouterr().err


# a 6x6, two-step descent whose first Armijo trials are rejected, so the
# line search has to shrink its step
SHRINKING = ["--set", "grid.nx=6", "--set", "grid.ny=6", "--set", "time.nt=2",
             "--set", "targets.v_d=constant:0.1", "--set", "optimizer.armijo_s0=1e9",
             "--set", "optimizer.armijo_max_backtracks=5"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{cfg}", "--seed", "3"],
    ["invariants", "--config", "{cfg}", "--seed", "3"],
    ["adjoint", "--config", "{cfg}", "--state-dir", "{tmp}", "--seed", "3"],
    ["mms", "--seed", "3"],
    ["mms", "--set", "model.kappa=5"],
    ["mms", "--config", "{cfg}"],
], ids=["simulate-seed", "invariants-seed", "adjoint-seed", "mms-seed", "mms-set", "mms-config"])
def test_cli_refuses_input_the_command_does_not_read(base_cfg, tmp_path, capsys, argv):
    # the mms study fixes every constant, and only optimize and grad-check
    # draw random numbers: accepting the flag would silently ignore it
    out = tmp_path / "out"
    argv = [a.format(cfg=base_cfg, tmp=tmp_path) for a in argv]
    assert run([*argv, "--output", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unrecognized arguments: ")
    assert not out.exists()


@pytest.mark.parametrize("command, overrides, key", [
    ("simulate", ["init.u0=constant:inf"], "init.u0"),
    ("simulate", ["control.initial=constant:nan"], "control.initial"),
    ("simulate", ["init.v0=path:{nan_ksf}"], "init.v0"),
    ("simulate", ["time.T=inf"], "time.T"),
    ("optimize", ["optimizer.armijo_shrink=0"], "optimizer.armijo_shrink"),
    ("optimize", ["optimizer.armijo_shrink=nan"], "optimizer.armijo_shrink"),
    ("simulate", ["model.kappa=inf"], "model.kappa"),
    ("simulate", ["model.r=nan"], "model.r"),
    ("optimize", ["cost.gamma_v=nan"], "cost.gamma_v"),
    ("simulate", ["forward.picard_max_iters=0"], "forward.picard_max_iters"),
    ("optimize", ["optimizer.max_iters=-3"], "optimizer.max_iters"),
    ("optimize", ["optimizer.armijo_max_backtracks=-2"], "optimizer.armijo_max_backtracks"),
    ("simulate", ["grid.nx=1000000000000"], "grid.nx"),
    ("simulate", ["domain.Ly=inf"], "domain.Ly"),
    ("simulate", ["grid.ny=1"], "grid.ny"),
    ("simulate", ["model.mu=inf"], "model.mu"),
    ("simulate", ["model.p_exponent=nan"], "model.p_exponent"),
    ("simulate", ["forward.picard_tol=inf"], "forward.picard_tol"),
    ("simulate", ["forward.cg_tol=nan"], "forward.cg_tol"),
    ("simulate", ["forward.scheme=quick"], "forward.scheme"),
    ("optimize", ["cost.gamma_f=-1"], "cost.gamma_f"),
    ("optimize", ["optimizer.vi_tol=inf"], "optimizer.vi_tol"),
    ("optimize", ["optimizer.armijo_c1=0"], "optimizer.armijo_c1"),
    ("optimize", ["optimizer.armijo_s0=nan"], "optimizer.armijo_s0"),
    ("simulate", ["control.kind=box", "control.f_max=inf"], "control.f_max"),
], ids=["u0-inf", "control-nan", "v0-nan-snapshot", "T-inf", "shrink-zero", "shrink-nan",
        "kappa-inf", "r-nan", "gamma-v-nan", "picard-zero", "max-iters-negative",
        "backtracks-negative", "nx-beyond-u32", "Ly-inf", "ny-one", "mu-inf", "p-nan",
        "picard-tol-inf", "cg-tol-nan", "scheme-unknown", "gamma-f-negative", "vi-tol-inf",
        "c1-zero", "s0-nan", "box-f-max-inf"])
def test_cli_bad_value_exits_one_naming_the_key(base_cfg, tmp_path, capsys,
                                                command, overrides, key):
    nan_ksf = tmp_path / "nan.ksf"
    write_snapshot(nan_ksf, np.full((10, 10), np.nan), 0.0)
    argv = [command, "--config", base_cfg, "--output", str(tmp_path / "out")]
    if command == "optimize":
        argv += SHRINKING
    for pair in overrides:
        argv += ["--set", pair.format(nan_ksf=nan_ksf)]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key}: ")


@pytest.mark.parametrize("command, flag, value", [
    ("optimize", "--start-scale", "nan"),
    ("optimize", "--start-scale", "inf"),
    ("grad-check", "--eps", "inf"),
    ("grad-check", "--eps", "nan"),
    ("grad-check", "--eps", "0"),
    ("optimize", "--seed", "-1"),
    ("grad-check", "--seed", "-1"),
    ("grad-check", "--tol", "nan"),
    ("grad-check", "--tol", "-1"),
    ("mms", "--order-tol", "nan"),
    ("mms", "--levels", "1"),
    ("simulate", "--snapshot-every", "-1"),
    ("optimize", "--starts", "0"),
    ("grad-check", "--directions", "0"),
])
def test_cli_bad_float_flag_exits_one(base_cfg, tmp_path, capsys, command, flag, value):
    # the flag is checked where it is declared, before any march, so
    # nothing is written
    out = tmp_path / "out"
    config = [] if command == "mms" else ["--config", base_cfg]  # mms reads no config
    extra = {"optimize": ["--starts", "2"], "grad-check": ["--directions", "1"]}.get(command, [])
    assert run([command, *config, "--output", str(out), *extra, flag, value]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: argument {flag}: must be ")
    assert not out.exists()


def test_cli_start_scale_overflowing_an_extra_start_exits_one(base_cfg, tmp_path, capsys):
    # a finite --start-scale can still overflow base + scale * normal;
    # the overflow is found before any march, so nothing is written
    out = tmp_path / "out"
    assert run(["optimize", "--config", base_cfg, "--output", str(out),
                "--starts", "2", "--start-scale", "1e308"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: argument --start-scale: ")
    assert not out.exists()


SIX_CFG = ("grid.nx = 6\ngrid.ny = 6\ntime.T = 0.2\ntime.nt = 3\n"
           "control.region.x0 = 0.25\ncontrol.region.y0 = 0.25\n"
           "control.region.x1 = 0.75\ncontrol.region.y1 = 0.75\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [
    ["simulate", "--set", "control.initial=constant:1e300"],
    ["optimize", "--starts", "2", "--set", "control.kind=box",
     "--set", "control.f_min=-1.7e308", "--set", "control.f_max=1.7e308"],
], ids=["simulate-1e300", "optimize-box-1.7e308"])
def test_cli_overflowing_march_is_one_solver_error(command, tmp_path, capsys):
    # a control near the largest float overflows the first sweep; the solver
    # reports it once, without warnings, and an extra start drawn from the
    # widest box is such a control
    cfg = tmp_path / "six.cfg"
    cfg.write_text(SIX_CFG)
    assert run([command[0], "--config", str(cfg), "--output", str(tmp_path / "out"),
                *command[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("solver error: ")


@pytest.mark.filterwarnings("error")
def test_cli_overflowing_trial_is_a_rejected_step_without_warnings(base_cfg, tmp_path, capsys):
    # a first step of 1e300 clips every trial to bounds of +-1e200, whose
    # squared step and |f|^p overflow: the Armijo ceiling is -inf, each
    # trial is rejected at its first level, and nothing warns on the way
    assert run(["optimize", "--config", base_cfg, "--output", str(tmp_path / "out"),
                "--set", "optimizer.max_iters=8", "--set", "control.kind=box",
                "--set", "control.f_min=-1e200", "--set", "control.f_max=1e200",
                "--set", "optimizer.armijo_s0=1e300"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "reason=line_search_failure" in captured.out


def test_cli_failed_start_is_reported_and_the_others_still_written(tmp_path, capsys):
    # the extra start drawn from the widest box cannot be marched; start 0
    # still finishes, and its control is written as the best
    cfg = tmp_path / "six.cfg"
    cfg.write_text(SIX_CFG)
    out = tmp_path / "out"
    assert run(["optimize", "--config", str(cfg), "--output", str(out), "--starts", "2",
                "--set", "control.kind=box", "--set", "control.f_min=-1.7e308",
                "--set", "control.f_max=1.7e308"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[0].startswith("solver error: start 1: ")
    assert "best start 0: " in captured.out
    assert sorted(p.name for p in out.iterdir()) == [
        "f_best_000000.ksf", "f_best_000001.ksf", "f_best_000002.ksf", "optimize_start00.csv"]


@pytest.mark.filterwarnings("error")
def test_cli_trial_step_that_overflows_is_a_rejected_step(base_cfg, tmp_path, capsys):
    # s0 = 1e308 times a gradient above 1.8 overflows f - s d in every trial
    assert run(["optimize", "--config", base_cfg, "--output", str(tmp_path / "out"),
                "--set", "optimizer.armijo_s0=1e308", "--set", "cost.gamma_u=1e6",
                "--set", "optimizer.max_iters=3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "reason=line_search_failure" in captured.out


@pytest.mark.parametrize("error", [
    SolverError("a solve failed", 1),
    StepConditioningError("dual loses definiteness"),
    PicardDivergenceError("fixed point stalled", 1.0, 1),
    LinearSolverError("conjugate gradient did not converge", 1e-3, 1),
], ids=lambda err: type(err).__name__)
def test_cli_any_solver_error_in_a_march_exits_two(error, base_cfg, capsys, monkeypatch):
    # one name decides "a solve failed" for the command line
    def failing_solve_forward(*args, **kwargs):
        raise error

    assert isinstance(error, SolverError)
    monkeypatch.setattr(io_cli, "solve_forward", failing_solve_forward)
    assert run(["simulate", "--config", base_cfg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"solver error: {error}"]


def test_cli_problem_too_large_for_memory_exits_one(base_cfg, tmp_path, capsys, monkeypatch):
    def too_large(cfg):
        raise MemoryError("Unable to allocate 2.4 PiB")

    monkeypatch.setattr(io_cli, "build_setup", too_large)
    assert run(["simulate", "--config", base_cfg, "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_gamma_f_zero_on_an_unbounded_set_blocks_only_the_cost_commands(
        base_cfg, tmp_path, capsys):
    # the state and the dual exist for every control; only a minimizer
    # needs gamma_f > 0 or a bounded admissible set
    zero = ["--config", base_cfg, "--set", "cost.gamma_f=0"]
    state = str(tmp_path / "state")
    assert run(["simulate", *zero, "--output", state, "--snapshot-every", "1"]) == 0
    assert run(["invariants", *zero, "--output", str(tmp_path / "inv")]) == 0
    assert run(["adjoint", *zero, "--state-dir", state,
                "--output", str(tmp_path / "dual")]) == 0
    capsys.readouterr()
    for command in ("optimize", "grad-check"):
        assert run([command, *zero, "--output", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cost.gamma_f: ")


def test_cli_simulate_writes_invariants_and_snapshots(base_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    rc = run(["simulate", "--config", base_cfg, "--output", str(out),
              "--snapshot-every", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "invariants: nonneg=True" in text
    assert (out / "invariants.csv").exists()
    # levels 0, 2, 4 plus the forced final level 5
    for n in (0, 2, 4, 5):
        assert (out / f"u_{n:06d}.ksf").exists()
        assert (out / f"v_{n:06d}.ksf").exists()
    assert not (out / "u_000001.ksf").exists()
    header = (out / "invariants.csv").read_text().splitlines()[0]
    assert header.startswith("level,time,min_u")


def test_cli_simulate_rejects_negative_snapshot_cadence(base_cfg, capsys):
    assert run(["simulate", "--config", base_cfg, "--snapshot-every", "-1"]) == 1
    capsys.readouterr()
    # the cadence is a flag only; the retired config key is unknown
    assert run(["simulate", "--config", base_cfg,
                "--set", "output.snapshot_every=-2"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: output.snapshot_every: unknown configuration key"]


def test_cli_solver_failure_exits_two(base_cfg, capsys):
    rc = run(["simulate", "--config", base_cfg,
              "--set", "forward.picard_tol=1e-15",
              "--set", "forward.picard_max_iters=1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "solver error" in err and "at step 0" in err


def test_cli_adjoint_requires_snapshots(base_cfg, tmp_path, capsys):
    rc = run(["adjoint", "--config", base_cfg, "--state-dir", str(tmp_path)])
    assert rc == 1
    assert "snapshot" in capsys.readouterr().err


def test_cli_adjoint_rejects_non_finite_snapshots(base_cfg, tmp_path, capsys):
    state_dir = tmp_path / "state"
    assert run(["simulate", "--config", base_cfg, "--output", str(state_dir),
                "--snapshot-every", "1"]) == 0
    bad = state_dir / "v_000003.ksf"
    values, time = read_snapshot(bad)
    values[2, 7] = np.inf
    write_snapshot(bad, values, time)
    capsys.readouterr()
    rc = run(["adjoint", "--config", base_cfg, "--state-dir", str(state_dir),
              "--output", str(tmp_path / "dual")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: ") and "non-finite" in err[0]


@pytest.mark.parametrize("case", ["other-final-time", "shifted-stamp"])
def test_cli_adjoint_rejects_snapshots_of_another_time_grid(case, base_cfg, tmp_path, capsys):
    state_dir = tmp_path / "state"
    assert run(["simulate", "--config", base_cfg, "--output", str(state_dir),
                "--snapshot-every", "1"]) == 0
    extra = []
    bad = state_dir / "u_000001.ksf"  # level 0 sits at t = 0 on every grid
    if case == "other-final-time":
        extra = ["--set", "time.T=0.4"]
    else:
        bad = state_dir / "v_000003.ksf"
        values, time = read_snapshot(bad)
        write_snapshot(bad, values, time * (1.0 + 1e-9))
    capsys.readouterr()
    rc = run(["adjoint", "--config", base_cfg, *extra, "--state-dir", str(state_dir),
              "--output", str(tmp_path / "dual")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: stamped t = ")
    assert not (tmp_path / "dual").exists()


def test_cli_adjoint_round_trip(base_cfg, tmp_path):
    state_dir = tmp_path / "state"
    rc = run(["simulate", "--config", base_cfg, "--output", str(state_dir),
              "--snapshot-every", "1"])
    assert rc == 0
    out = tmp_path / "dual"
    rc = run(["adjoint", "--config", base_cfg, "--state-dir", str(state_dir),
              "--output", str(out)])
    assert rc == 0
    for n in range(6):
        assert (out / f"lam_{n:06d}.ksf").exists()
        assert (out / f"eta_{n:06d}.ksf").exists()
    # terminal multipliers close the recursion at exactly zero
    lam5, _ = read_snapshot(out / "lam_000005.ksf")
    np.testing.assert_array_equal(lam5, 0.0)


def test_cli_optimize_writes_history_and_control(base_cfg, tmp_path):
    out = tmp_path / "opt"
    rc = run(["optimize", "--config", base_cfg, "--output", str(out),
              "--set", "optimizer.max_iters=3"])
    assert rc == 0
    csv = (out / "optimize_start00.csv").read_text()
    lines = csv.strip().splitlines()
    assert lines[0] == "iter,j_total,j_u,j_v,j_f,vi_residual,step,backtracks"
    assert len(lines) >= 2
    assert "np.float64" not in csv
    for n in range(5):
        assert (out / f"f_best_{n:06d}.ksf").exists()
    costs = [float(line.split(",")[1]) for line in lines[1:]]
    assert costs == sorted(costs, reverse=True)


def test_cli_optimize_repeat_runs_are_bitwise(base_cfg, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = run(["optimize", "--config", base_cfg, "--output", str(out),
                  "--seed", "7",
                  "--set", "optimizer.max_iters=2"])
        assert rc == 0
    assert (out_a / "optimize_start00.csv").read_bytes() == \
           (out_b / "optimize_start00.csv").read_bytes()
    for n in range(5):
        name = f"f_best_{n:06d}.ksf"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_grad_check_passes_on_smooth_fixture(base_cfg, tmp_path, capsys):
    out = tmp_path / "gc"
    rc = run(["grad-check", "--config", base_cfg, "--output", str(out),
              "--directions", "3", "--seed", "0"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "worst relative error" in text
    csv = (out / "grad_check.csv").read_text()
    assert csv.splitlines()[0] == "direction,analytic,finite_difference,rel_error"
    assert len(csv.strip().splitlines()) == 4


def test_cli_grad_check_fails_on_absurd_tolerance(base_cfg, tmp_path, capsys):
    rc = run(["grad-check", "--config", base_cfg, "--output", str(tmp_path / "gc"),
              "--directions", "1", "--tol", "1e-12"])
    assert rc == 3
    assert "verification failed" in capsys.readouterr().err


def test_cli_invariants_soft_failure_is_reported_but_not_fatal(tmp_path, capsys):
    """The central-flux undershoot is outside the guaranteed regime, so the
    invariants command must flag it in the output yet still exit 0."""
    grid = GridSpec(1.0, 1.0, 16, 16)
    X, _ = grid.cell_centers()
    write_snapshot(tmp_path / "front_u0.ksf",
                   0.5 * (1.0 + np.tanh((0.45 - X) / 0.02)), 0.0)
    write_snapshot(tmp_path / "ramp_v0.ksf", X.copy(), 0.0)
    cfg = tmp_path / "front.cfg"
    cfg.write_text(
        "grid.nx = 16\ngrid.ny = 16\ntime.T = 0.04\ntime.nt = 40\n"
        "model.kappa = 64.0\nmodel.r = 0.1\nmodel.mu = 0.01\n"
        "forward.scheme = central\n"
        f"init.u0 = path:{tmp_path / 'front_u0.ksf'}\n"
        f"init.v0 = path:{tmp_path / 'ramp_v0.ksf'}\n"
        "control.initial = zero\n"
        "forward.picard_tol = 1e-10\nforward.picard_max_iters = 400\n"
        "forward.cg_tol = 1e-12\n"
    )
    rc = run(["invariants", "--config", str(cfg), "--output", str(tmp_path / "inv")])
    captured = capsys.readouterr()
    assert rc == 0
    assert "check mass_identity: PASS" in captured.out
    assert "check nonnegativity: fail (not guaranteed here)" in captured.out


def test_cli_invariants_upwind_logistic_passes(tmp_path, capsys):
    cfg = tmp_path / "log.cfg"
    cfg.write_text(
        "grid.nx = 8\ngrid.ny = 8\ntime.T = 1.0\ntime.nt = 50\n"
        "model.kappa = 1.0\nmodel.r = 1.0\nmodel.mu = 2.0\n"
        "forward.scheme = upwind\n"
        "init.u0 = constant:0.1\ninit.v0 = constant:0.1\n"
        "control.initial = zero\n"
    )
    rc = run(["invariants", "--config", str(cfg), "--output", str(tmp_path / "inv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_cli_invariants_exits_three_when_a_guaranteed_check_fails(
        base_cfg, tmp_path, capsys, monkeypatch):
    monitor = io_cli.verify.monitor_invariants

    def broken_identity(state, params):
        report = monitor(state, params)
        report.mass_identity_ok = False
        return report

    monkeypatch.setattr(io_cli.verify, "monitor_invariants", broken_identity)
    rc = run(["invariants", "--config", base_cfg, "--output", str(tmp_path / "inv")])
    captured = capsys.readouterr()
    assert rc == 3
    assert "check mass_identity: FAIL" in captured.out
    assert captured.err.splitlines() == ["verification failed: mass_identity"]


def test_cli_mms_passes_and_fails_by_tolerance(tmp_path, capsys):
    out = tmp_path / "mms"
    rc = run(["mms", "--study", "spatial", "--levels", "2",
              "--order-tol", "0.35", "--output", str(out)])
    assert rc == 0
    assert (out / "mms_spatial.csv").exists()
    capsys.readouterr()
    rc = run(["mms", "--study", "spatial", "--levels", "2",
              "--order-tol", "0.01", "--output", str(out)])
    assert rc == 3
    assert "out of band" in capsys.readouterr().err

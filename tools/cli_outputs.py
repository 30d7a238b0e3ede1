"""Record what every `ks-control` command writes for one fixed configuration.

    python3 tools/cli_outputs.py OUTDIR [--repo CHECKOUT]

Runs the R1 configuration of ``tests/test_acceptance.py`` through
``kscontrol.run`` in this process, once per command:

    simulate    --snapshot-every 1, with central and with upwind fluxes,
                and with model.kappa=0
    invariants  with upwind fluxes
    adjoint     along each simulate run's snapshots, with its fluxes and
                kappa; and along the central run with cost.gamma_v=0
    optimize    --seed 11 with 1 and 3 starts, unconstrained and as a box;
                and with optimizer.armijo_s0=16, whose searches backtrack;
                and on the box [-1e200, 1e200] with optimizer.armijo_s0=1e300,
                whose trials overflow the cost and fail the line search
    grad-check  with central and with upwind fluxes, and with
                model.kappa=0 and cost.gamma_u=0
    mms         --levels 2, spatial and temporal

Each command runs in ``OUTDIR/<name>/`` with relative paths, so nothing in
its output names OUTDIR.  Its files land in ``files/`` and its stdout,
stderr and exit code in ``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``.

A refactor that must not change any output is checked by running this once
on a checkout of the parent commit and once on the change, then comparing:

    python3 tools/cli_outputs.py ../before --repo ../parent-checkout
    python3 tools/cli_outputs.py ../after
    diff -r ../before ../after

``--repo`` names the checkout whose ``src/`` and ``tests/`` are used
(default: the one holding this script).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
from pathlib import Path

BOX = ["--set", "control.kind=box", "--set", "control.f_min=-1", "--set", "control.f_max=1"]
UPWIND = ["--set", "forward.scheme=upwind"]
KAPPA0 = ["--set", "model.kappa=0"]

# name -> arguments after the command word; "../run.cfg" is the R1 config
COMMANDS = {
    "simulate": ["simulate", "--config", "../run.cfg", "--snapshot-every", "1"],
    "simulate-upwind": ["simulate", "--config", "../run.cfg", "--snapshot-every", "1", *UPWIND],
    "simulate-kappa0": ["simulate", "--config", "../run.cfg", "--snapshot-every", "1", *KAPPA0],
    "invariants-upwind": ["invariants", "--config", "../run.cfg", *UPWIND],
    "adjoint": ["adjoint", "--config", "../run.cfg", "--state-dir", "../simulate/files"],
    "adjoint-upwind": ["adjoint", "--config", "../run.cfg",
                       "--state-dir", "../simulate-upwind/files", *UPWIND],
    "adjoint-kappa0": ["adjoint", "--config", "../run.cfg",
                       "--state-dir", "../simulate-kappa0/files", *KAPPA0],
    "adjoint-gamma0": ["adjoint", "--config", "../run.cfg", "--state-dir", "../simulate/files",
                       "--set", "cost.gamma_v=0"],
    "optimize-1": ["optimize", "--config", "../run.cfg", "--seed", "11"],
    "optimize-3": ["optimize", "--config", "../run.cfg", "--seed", "11", "--starts", "3"],
    "optimize-box-1": ["optimize", "--config", "../run.cfg", "--seed", "11", *BOX],
    "optimize-box-3": ["optimize", "--config", "../run.cfg", "--seed", "11", "--starts", "3",
                       *BOX],
    "optimize-backtrack": ["optimize", "--config", "../run.cfg", "--seed", "11",
                           "--set", "optimizer.armijo_s0=16"],
    "optimize-overflow": ["optimize", "--config", "../run.cfg", "--set", "control.kind=box",
                          "--set", "control.f_min=-1e200", "--set", "control.f_max=1e200",
                          "--set", "optimizer.armijo_s0=1e300"],
    "grad-check": ["grad-check", "--config", "../run.cfg"],
    "grad-check-upwind": ["grad-check", "--config", "../run.cfg", *UPWIND],
    "grad-check-kappa0": ["grad-check", "--config", "../run.cfg", *KAPPA0,
                          "--set", "cost.gamma_u=0"],
    "mms": ["mms", "--levels", "2"],
    "mms-temporal": ["mms", "--study", "temporal", "--levels", "2"],
}


def r1_config(repo: Path) -> str:
    """The ``R1_CFG`` string of the acceptance tests, read without importing them."""
    tree = ast.parse((repo / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "R1_CFG" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise SystemExit(f"no R1_CFG in {repo}/tests/test_acceptance.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)

    repo = args.repo.resolve()
    sys.path.insert(0, str(repo / "src"))
    from kscontrol import run

    outdir = args.outdir.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "run.cfg").write_text(r1_config(repo))
    for name, command in COMMANDS.items():
        workdir = outdir / name
        workdir.mkdir(exist_ok=True)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(workdir)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([*command, "--output", "files"])
        (workdir / "stdout.txt").write_text(out.getvalue())
        (workdir / "stderr.txt").write_text(err.getvalue())
        (workdir / "exit_code.txt").write_text(f"{code}\n")
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

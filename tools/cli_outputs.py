"""Record what every `ks-control` command writes for one fixed configuration.

    python3 tools/cli_outputs.py OUTDIR [--repo CHECKOUT]
    python3 tools/cli_outputs.py --compare BEFORE AFTER

Runs the R1 configuration of ``tests/test_acceptance.py`` through
``kscontrol.run`` in this process, once per command:

    simulate    --snapshot-every 1, with central and with upwind fluxes,
                and with model.kappa=0; and two refused control regions,
                control.region.x1=0 (not right of x0) and x0=2, x1=3
                (outside the domain, so empty)
    invariants  with upwind fluxes
    adjoint     with the fluxes and kappa of each simulate run, and with
                cost.gamma_v=0; each run marches its own state
    optimize    --seed 11 with 1 and 3 starts, unconstrained and as a box;
                and with optimizer.armijo_s0=16, whose searches backtrack;
                and on the box [-1e200, 1e200] with optimizer.armijo_s0=1e300,
                whose trials overflow the cost and fail the line search
    grad-check  with central and with upwind fluxes, and with
                model.kappa=0 and cost.gamma_u=0
    mms         --levels 2, spatial and temporal
    *-nonsquare simulate (upwind, --snapshot-every 1), adjoint and
                grad-check (central) on a 12x8 grid over [0, 1.5] x [0, 1],
                so that the flat stencils meet row breaks with nx != ny
                and hx != hy

Each command runs in ``OUTDIR/<name>/`` with relative paths, so nothing in
its output names OUTDIR.  Its files land in ``files/`` and its stdout,
stderr and exit code in ``stdout.txt``, ``stderr.txt`` and ``exit_code.txt``.

A refactor that must not change any output is checked by running this once
on a checkout of the parent commit and once on the change, then comparing:

    python3 tools/cli_outputs.py ../before --repo ../parent-checkout
    python3 tools/cli_outputs.py ../after
    diff -r ../before ../after

``--repo`` names the checkout whose ``src/`` and ``tests/`` are used
(default: the one holding this script).  A change that alters a command's
flags, but none of its outputs, is checked with each checkout's own copy
of this script instead:

    python3 ../parent-checkout/tools/cli_outputs.py ../before

A change that moves numbers at solver tolerance (another summation order,
a direct solve in place of CG) cannot pass ``diff -r``; compare its two
output directories with ``--compare`` instead.  Per entry the exit code,
stderr, the KSF headers and the text with its numbers masked must match
exactly.  Each number must agree within ``RTOL`` (1e-9) times the largest
finite magnitude in its column: a CSV column, the values of one KSF field,
or in other text the numbers at one place of lines that read alike with
their numbers masked.  A column labelled as a round-off measure (a relative
error, an identity residual) is compared absolutely, within ``RTOL``, since
it moves by the round-off of what it measures.  Use ``diff -r`` for a
refactor that must keep every bit, ``--compare`` for a change at solver
tolerance.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

BOX = ["--set", "control.kind=box", "--set", "control.f_min=-1", "--set", "control.f_max=1"]
UPWIND = ["--set", "forward.scheme=upwind"]
KAPPA0 = ["--set", "model.kappa=0"]
NONSQUARE = ["--set", "grid.nx=12", "--set", "grid.ny=8", "--set", "domain.Lx=1.5"]

# name -> arguments after the command word; "../run.cfg" is the R1 config
COMMANDS = {
    "simulate": ["simulate", "--config", "../run.cfg", "--snapshot-every", "1"],
    "simulate-upwind": ["simulate", "--config", "../run.cfg", "--snapshot-every", "1", *UPWIND],
    "simulate-kappa0": ["simulate", "--config", "../run.cfg", "--snapshot-every", "1", *KAPPA0],
    "simulate-region-unordered": ["simulate", "--config", "../run.cfg",
                                  "--set", "control.region.x1=0"],
    "simulate-region-empty": ["simulate", "--config", "../run.cfg",
                              "--set", "control.region.x0=2", "--set", "control.region.x1=3"],
    "invariants-upwind": ["invariants", "--config", "../run.cfg", *UPWIND],
    "adjoint": ["adjoint", "--config", "../run.cfg"],
    "adjoint-upwind": ["adjoint", "--config", "../run.cfg", *UPWIND],
    "adjoint-kappa0": ["adjoint", "--config", "../run.cfg", *KAPPA0],
    "adjoint-gamma0": ["adjoint", "--config", "../run.cfg", "--set", "cost.gamma_v=0"],
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
    "simulate-nonsquare": ["simulate", "--config", "../run.cfg", "--snapshot-every", "1",
                           *NONSQUARE, *UPWIND],
    "adjoint-nonsquare": ["adjoint", "--config", "../run.cfg", *NONSQUARE],
    "grad-check-nonsquare": ["grad-check", "--config", "../run.cfg", *NONSQUARE],
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


# a decimal number, or nan / inf as Python prints them
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")
KSF_HEADER_BYTES = 24
RTOL = 1e-9
# labels of round-off measures: a relative error, or the residual of an
# identity that holds exactly; they move by the round-off of what they measure
ROUND_OFF = ("rel_error", "relative error", "identity_residual")


def columns(text: str, csv: bool) -> dict[str, list[float]]:
    """The numbers of an output text by column: a CSV's by its header, other
    text's by its number-masked line up to the number, which ends in its label."""
    if csv:
        header, *rows = text.splitlines()
        cells = [row.split(",") for row in rows]
        return {name: [float(c[i]) for c in cells] for i, name in enumerate(header.split(","))}
    found: dict[str, list[float]] = {}
    for line in text.splitlines():
        labels = NUMBER.split(line)
        for i, x in enumerate(NUMBER.findall(line)):
            found.setdefault("#".join(labels[:i + 1]), []).append(float(x))
    return found


def deviation(before: np.ndarray, after: np.ndarray, scale: float) -> float:
    """Largest ``|after - before| / scale``; inf when the places of
    non-finite values differ, or a value moves from a scale of zero."""
    same = (before == after) | (np.isnan(before) & np.isnan(after))
    if same.all():
        return 0.0
    moved = ~same
    if not (np.isfinite(before) | same).all() or not np.isfinite(after[moved]).all() or scale == 0:
        return math.inf
    return float(np.max(np.abs(after[moved] - before[moved]))) / scale


def column_deviation(label: str, before: np.ndarray, after: np.ndarray) -> float:
    """The `deviation` of one column: relative to its largest finite ``|before|``,
    or absolute for a round-off measure."""
    if any(name in label.rsplit("#", 1)[-1] for name in ROUND_OFF):
        return deviation(before, after, 1.0)
    finite = np.abs(before[np.isfinite(before)])
    return deviation(before, after, float(np.max(finite, initial=0.0)))


def compare_file(before: Path, after: Path):
    """The worst `column_deviation` of one output file, or what differs in it exactly."""
    a, b = before.read_bytes(), after.read_bytes()
    if a == b:
        return 0.0
    if before.name in ("exit_code.txt", "stderr.txt"):
        return "differs"
    if before.suffix == ".ksf":  # one field
        if len(a) != len(b) or a[:KSF_HEADER_BYTES] != b[:KSF_HEADER_BYTES]:
            return "KSF header or size differs"
        return column_deviation("values", *(np.frombuffer(x, "<f8", offset=KSF_HEADER_BYTES)
                                            for x in (a, b)))
    a, b = a.decode(), b.decode()
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return "text differs with its numbers masked"
    cols_a, cols_b = (columns(t, before.suffix == ".csv") for t in (a, b))
    return max(column_deviation(k, np.array(cols_a[k]), np.array(cols_b[k])) for k in cols_a)


def compare(before: Path, after: Path) -> int:
    """Print what fails and each entry's worst deviation; return 1 on a failure."""
    files = {side: {p.relative_to(side) for p in side.rglob("*") if p.is_file()}
             for side in (before, after)}
    failed = sorted(files[before] ^ files[after])
    for rel in failed:
        print(f"{rel}: only in {before if rel in files[before] else after}")
    worst: dict[str, float] = {}
    for rel in sorted(files[before] & files[after]):
        result = compare_file(before / rel, after / rel)
        if isinstance(result, str) or result > RTOL:
            failed.append(rel)
            print(f"{rel}: {result if isinstance(result, str) else f'deviation {result:.2e}'}")
            result = math.inf
        worst[rel.parts[0]] = max(worst.get(rel.parts[0], 0.0), result)
    for entry, dev in worst.items():
        print(f"{entry}: {'FAILED' if dev > RTOL else f'worst deviation {dev:.2e}'}")
    passing = max((d for d in worst.values() if d <= RTOL), default=0.0)
    print(f"{len(files[before])} files, {len(failed)} failed, worst passing deviation "
          f"{passing:.2e} (rtol {RTOL:g})")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", type=Path, nargs="?")
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if (args.outdir is None) == (args.compare is None):
        parser.error("give either OUTDIR or --compare BEFORE AFTER")
    if args.compare:
        return compare(*(p.resolve() for p in args.compare))

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

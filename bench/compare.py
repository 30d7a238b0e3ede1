"""Compare two checkouts on one workload, in alternating pairs of runs.

    python3 bench/compare.py --parent ../parent --change . --workload gradient-64

Each of ten pairs runs ``bench/run.py`` once in each checkout with the same
seed, alternating which side goes first; the seeds are 1000, 1001, ...,
apart from those used while tuning.  For every end-to-end metric it prints
each side's median and quartiles, how many pairs the change won (ties count
for neither), and a verdict: ``gain`` when the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's own
interquartile range; ``regression`` when the change's median is worse than
the parent's by more than the metric's bound in BENCHMARK.json;
``unresolved`` when the parent's interquartile range is wider than that
bound (unless every change run beats every parent run); otherwise ``no
regression``.  It also checks that the work counts of each side (sweeps,
iterations, marches; not the output fingerprint) are the same in every run,
and exits with 1 if they are not.  Both checkouts must hold the same
benchmark.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
FIRST_SEED = 1000
WORK_LINE = re.compile(r"^workload .* work per operation (\{.*\})$", re.MULTILINE)


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """End-to-end metrics and work counts of one run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: seed {seed} incorrect or failed:\n{proc.stdout}")
    work = json.loads(WORK_LINE.search(proc.stdout).group(1))
    work.pop("output", None)
    return result["metrics"], work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if spec != json.loads((args.parent / "BENCHMARK.json").read_text()):
        raise SystemExit("the two checkouts hold different benchmarks")
    sides = {"parent": [], "change": []}
    works = {"parent": [], "change": []}
    for k in range(PAIRS):
        seed = FIRST_SEED + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, work = run_once(getattr(args, side), args.workload, seed,
                                     spec["run_seconds"])
            sides[side].append(metrics)
            works[side].append(work)
        print(f"pair {k + 1}/{PAIRS} done (seed {seed}, {order[0]} first)", flush=True)

    steady = True
    for side, counts in works.items():
        if all(w == counts[0] for w in counts):
            print(f"{side} work counts, the same in all {PAIRS} runs: {json.dumps(counts[0])}")
        else:
            steady = False
            print(f"{side} work counts DIFFER between runs: {json.dumps(counts)}")

    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [m[name]["value"] for m in sides["parent"]]
        change = [m[name]["value"] for m in sides["change"]]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q = statistics.quantiles(parent, n=4)
        c_q = statistics.quantiles(change, n=4)
        worse = (c_med - p_med) if lower else (p_med - c_med)
        spread = p_q[2] - p_q[0]
        all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
        if wins >= 0.9 * PAIRS and -worse > spread:
            verdict = "gain"
        elif worse > metric["bound"] * p_med:
            verdict = "regression"
        elif spread > metric["bound"] * p_med and not all_better:
            verdict = "unresolved: the parent's spread exceeds the bound"
        else:
            verdict = "no regression"
        print(f"{args.workload} {name} [{metric['unit']}]: "
              f"parent {p_med:.6g} (q1 {p_q[0]:.6g}, q3 {p_q[2]:.6g}), "
              f"change {c_med:.6g} (q1 {c_q[0]:.6g}, q3 {c_q[2]:.6g}), "
              f"change won {wins}/{PAIRS}: {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark drives the package through its public names; a change that
breaks a workload must fail here, not only when ``bench/run.py`` is run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


def test_tracer_installs_on_the_package():
    code = ('import sys; sys.path[:0] = ["bench", "src"]; '
            "import tracer; tracer.install(tracer.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_builds_runs_and_passes_its_check(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.build(1, tmp_path)
    result = workload.run(inputs)
    assert workload.check(inputs, result) == []

"""The benchmark tracer binds package names by identity; renaming one of
them must fail here, not only when ``bench/run.py --trace 1`` is run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    code = ('import sys; sys.path[:0] = ["bench", "src"]; '
            "import tracer; tracer.install(tracer.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

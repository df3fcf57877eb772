"""The benchmark's tracing hooks find every name they wrap in the package."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tracing_installs():
    # install() wraps public functions and methods where their callers look
    # them up; a renamed or moved one fails here instead of in a traced run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT / "bench", env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

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


NO_SCIPY_RUN = r"""
import json, os, sys
import sdekoopman.cli as cli
import sdekoopman.collocation as collocation
import sdekoopman.config
import sdekoopman.feynman_kac
import sdekoopman.models as models
import sdekoopman.registry
import sdekoopman.validation
from sdekoopman.kernels import GaussianKernel

work = sys.argv[1]
cfg = os.path.join(work, "cfg.json")
with open(cfg, "w") as fh:
    json.dump({"model": "linear2d", "grid_spec": {"kind": "tensor", "n": 6},
               "fk": {"n_paths": 200, "t_max": 2.0}}, fh)
queries = os.path.join(work, "q.csv")
with open(queries, "w") as fh:
    fh.write("0.5,0.25\n-0.5,0.0\n")
assert cli.main(["solve", "--config", cfg, "--out", os.path.join(work, "solve")]) == 0
assert cli.main(["fk", "--config", cfg, "--queries", queries, "--fit",
                 "--out", os.path.join(work, "fk")]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
box = models.Domain(lower=[-1.0, -1.0], upper=[1.0, 1.0])
grid = collocation.make_grid(box, collocation.GridSpec("sobol", 16))
assert grid.n_points == 16 and "scipy.stats" in sys.modules
"""


def test_scipy_stays_off_the_import_path(tmp_path):
    # the modules bench/child.py imports, a tensor-grid solve and a small fk
    # run need numpy only; a Sobol grid still loads scipy when it is built
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr

"""The benchmark's tracing hooks find every name they wrap in the package,
the import path stays light, every public name resolves, no module imports
another's private names, and the README names only files that exist."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


TRACING_INSTALL = r"""
import tracing

found = []

class Recording(tracing.Tracer):
    def patch(self, owner, attr, name, hook=None):
        found.append((owner, attr, getattr(owner, attr)))
        super().patch(owner, attr, name, hook)

tracing.install(Recording())
assert found
for owner, attr, original in found:
    assert getattr(owner, attr).__wrapped__ is original, (owner, attr)
"""


def test_benchmark_tracing_installs():
    # install() wraps public functions and methods where their callers look
    # them up; a renamed or moved one fails here instead of in a traced run.
    # A subprocess keeps the wrappers out of every other test
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", TRACING_INSTALL], cwd=ROOT / "bench",
                          env=env, capture_output=True, text=True, timeout=300)
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


CHILD_IMPORTS = r"""
import ast, importlib, sys
tree = ast.parse(open("child.py", encoding="utf-8").read())
names = [alias.name for node in tree.body if isinstance(node, ast.Import)
         for alias in node.names]
names += [node.module for node in tree.body if isinstance(node, ast.ImportFrom)]
assert "sdekoopman.feynman_kac" in names and "tracing" in names, names
for name in names:
    importlib.import_module(name)
"""


def _run_after_child_imports(check):
    """Run ``check`` after importing the modules bench/child.py imports."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD_IMPORTS + check], cwd=ROOT / "bench",
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_no_worker_pool_on_the_import_path():
    # fk_batch forks its workers itself; multiprocessing or concurrent.futures
    # loaded by the modules bench/child.py imports would add to every setup
    _run_after_child_imports(r"""
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "multiprocessing" or m == "concurrent.futures")
assert not loaded, loaded
""")


def test_no_orjson_on_the_import_path():
    # only the solution writer needs orjson and imports it itself; loaded by
    # the modules bench/child.py imports it would add to every setup
    _run_after_child_imports(r"""
assert "orjson" not in sys.modules
""")


PIN_BEFORE_NUMPY = r"""
import os, sys

class FirstNumpyImport:
    # a finder that records the BLAS pin when numpy is first looked up
    pin = "numpy never imported"

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and "numpy" not in sys.modules:
            FirstNumpyImport.pin = os.environ.get("OPENBLAS_NUM_THREADS")
        return None

sys.meta_path.insert(0, FirstNumpyImport())
import sdekoopman.cli
assert FirstNumpyImport.pin == "1", FirstNumpyImport.pin
"""


def test_blas_pinned_before_numpy_loads():
    # BLAS sizes its pool when numpy loads, so importing the CLI must set the
    # pin first, with none inherited from the environment
    env = {k: v for k, v in os.environ.items() if "THREADS" not in k}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", PIN_BEFORE_NUMPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


TRACED_CLI = r"""
import json, os, sys
import tracing
import sdekoopman.cli as cli

tracer = tracing.Tracer()
tracing.install(tracer)
work = sys.argv[1]
cfg = os.path.join(work, "cfg.json")
with open(cfg, "w") as fh:
    json.dump({"model": "ou", "fk": {"n_paths": 200, "t_max": 2.0}}, fh)
assert cli.main(["reproduce", "test1", "--out", os.path.join(work, "r")]) == 0
assert cli.main(["solve", "--config", cfg, "--out", os.path.join(work, "s")]) == 0
calls = tracer.calls
assert calls["cli.main"] == 2, dict(calls)
assert calls["validation.run_experiment"] == 1, dict(calls)
assert calls["validation.solve_and_report"] == 2, dict(calls)  # test1, then solve
assert calls["models.nonlinear_at"] == 2, dict(calls)  # one split per assembly
# the metrics table looks each function up when it runs, on solve's helper
# thread too
assert calls["collocation.residual"] == 2, dict(calls)
assert calls["validation.semigroup_check"] == 2, dict(calls)
"""


def test_traced_cli_records_library_spans(tmp_path):
    # the CLI calls the library through module attributes, which is where the
    # benchmark's tracer puts its wrappers
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", TRACED_CLI, str(tmp_path)],
                          cwd=ROOT / "bench", env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_public_names_resolve_through_the_lazy_table():
    # the package loads each public name from the module _EXPORTS names on
    # first use, so a name deleted or moved there fails only when read
    import importlib

    import sdekoopman

    assert sdekoopman.__all__ == sorted(sdekoopman._EXPORTS)
    for name in sdekoopman.__all__:
        module = importlib.import_module(f"sdekoopman.{sdekoopman._EXPORTS[name]}")
        obj = getattr(sdekoopman, name)
        assert obj is getattr(module, name), name
        assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_no_private_names_imported_across_modules():
    # a name with a leading underscore belongs to its own module; another
    # module that needs it asks for a public name (``x as _x`` is fine)
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert not found, found


def test_only_the_workers_module_forks():
    # map_in_workers is the one place that deals work to processes; a module
    # that forks, or calls (or imports under another name) _run_groups or
    # _fork_worker itself, is a second fan-out path with its own rule
    fan_out = re.compile(r"\bos\.fork\b|\b(?:_run_groups|_fork_worker)(?:\(|\s+as\b)")
    found = [f"{path.relative_to(ROOT)}:{n}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name != "workers.py"
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if fan_out.search(line)]
    assert not found, found
    assert fan_out.search((ROOT / "src/sdekoopman/workers.py").read_text(encoding="utf-8"))


def test_workers_module_has_one_public_function():
    # map_in_workers holds the fork rule; every other function there is its
    # private machinery
    tree = ast.parse((ROOT / "src/sdekoopman/workers.py").read_text(encoding="utf-8"))
    public = [node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert public == ["map_in_workers"]


def test_readme_paths_exist():
    # a file the README names in backticks is one a reader can open
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    paths = re.findall(r"`((?:src|tests|scripts|bench)/[^`\s:]*)", text)
    assert "bench/run.py" in paths
    missing = [p for p in paths if not (ROOT / p).exists()]
    assert not missing, missing

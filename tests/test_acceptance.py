"""Release acceptance suite.

One test per acceptance criterion, each enforcing its stated tolerance and
printing a PASS line with the measured numbers (run with ``pytest
tests/test_acceptance.py -s`` to see them).  Criteria 1-3 rerun the three
benchmark experiments end to end; the rest exercise the numerical kernels,
the Monte Carlo machinery and the determinism contract.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import sdekoopman
from oracles import fd_grad, fd_hessian, random_kernel_cases, random_spd_matrix
from sdekoopman import (Domain, EigenPair, FkConfig, GaussianKernel, assemble,
                        boundary_stability_check, check_acceptance, get_model,
                        make_grid, mc_convergence_probe, run_experiment,
                        simulate_terminal)
from sdekoopman.models import SdeSystem, linearize
from sdekoopman.registry import constant_diffusion


def announce(num, detail):
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


def assert_bands(name, result):
    checks = check_acceptance(name, result)
    failures = [f"{label} ({detail})" for label, ok, detail in checks if not ok]
    assert not failures, f"{name}: " + "; ".join(failures)


def test_criterion_1_ou_benchmark():
    start = time.perf_counter()
    report = run_experiment("test1_ou")
    elapsed = time.perf_counter() - start
    assert_bands("test1_ou", report)
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"
    announce(1, f"ou: cond={report.condition_number:.3e}, "
                f"rmse={report.rmse_vs_exact:.2e}, max|h|={report.max_abs_h:.2e}, "
                f"residual={report.pde_residual_mean:.2e}, "
                f"semigroup={report.semigroup_error:.2f}%, {elapsed:.1f}s")


def test_criterion_2_quadratic_benchmark():
    start = time.perf_counter()
    rows = run_experiment("test2_quadratic")
    elapsed = time.perf_counter() - start
    assert_bands("test2_quadratic", rows)
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s budget"
    conds = ", ".join(f"{r.condition_number:.3e}" for r in rows)
    resids = ", ".join(f"{r.pde_residual_mean:.2e}" for r in rows)
    announce(2, f"quadratic conds=({conds}) residuals=({resids}) {elapsed:.1f}s")


def test_criterion_3_linear2d_benchmark():
    start = time.perf_counter()
    report = run_experiment("test3_linear2d")
    elapsed = time.perf_counter() - start
    assert_bands("test3_linear2d", report)
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s budget"
    announce(3, f"linear2d: cond={report.condition_number:.3e}, "
                f"rmse={report.rmse_vs_exact:.2e}, "
                f"residual={report.pde_residual_mean:.2e}, "
                f"semigroup={report.semigroup_error:.2f}%, {elapsed:.1f}s")


def test_criterion_4_kernel_derivative_oracles():
    worst_grad = worst_hess = worst_trace = worst_vf = 0.0
    for i, (x, y, ell) in enumerate(random_kernel_cases(200, seed=2024)):
        kern = GaussianKernel(ell)
        g, gfd = kern.grad_x(x, y), fd_grad(kern, x, y)
        # finer step than the module tests: the x3-smaller truncation keeps
        # the oracle itself inside the 1e-6 band over all 200 cases
        H, hfd = kern.hessian_x(x, y), fd_hessian(kern, x, y, h=5e-5)
        worst_grad = max(worst_grad,
                         np.linalg.norm(gfd - g) / max(np.linalg.norm(g), 1e-8))
        worst_hess = max(worst_hess,
                         np.linalg.norm(hfd - H) / max(np.linalg.norm(H), 1e-8))
        a = random_spd_matrix(x.size, seed=3000 + i)
        entry = kern.diffusion_trace_entry(x, y, a)
        worst_trace = max(worst_trace, abs(entry - 0.5 * np.trace(a @ H)))
        # full-rank factor with matching tensor
        S = np.linalg.cholesky(a)
        worst_vf = max(worst_vf,
                       abs(kern.diffusion_entry_vector_fields(x, y, S) - entry))
    assert worst_grad <= 1e-6
    assert worst_hess <= 1e-6
    assert worst_trace <= 1e-12
    assert worst_vf <= 1e-12
    announce(4, f"200 cases: grad rel err {worst_grad:.2e}, hessian rel err "
                f"{worst_hess:.2e}, trace identity {worst_trace:.2e}, "
                f"vector-field identity {worst_vf:.2e}")


def test_criterion_5_deterministic_limit():
    s = get_model("quadratic", sigma=0.0)
    grid = make_grid(s.domain, s.grid_spec)
    kern = GaussianKernel(s.lengthscale)
    asys = assemble(s.system, s.decomp, s.eigenpair, kern, grid, s.gamma)
    assert np.array_equal(asys.diff_mat, np.zeros((50, 50)))
    deterministic = asys.drift_mat - s.eigenpair.eigenvalue * asys.gram \
        + s.gamma * np.eye(50)
    assert np.array_equal(asys.system_matrix, deterministic)
    announce(5, "sigma=0 gives a bitwise-zero diffusion matrix and the "
                "deterministic collocation system")


def test_criterion_6_monte_carlo_scaling():
    s = get_model("quadratic", sigma=0.3)
    rows = mc_convergence_probe(s.system, s.decomp, s.eigenpair, s.domain,
                                np.array([0.5]), FkConfig(seed=606),
                                [500, 2000, 8000, 32000])
    ks = np.log([r["n_paths"] for r in rows])
    ses = np.log([r["std_error"] for r in rows])
    slope = float(np.polyfit(ks, ses, 1)[0])
    assert -0.65 <= slope <= -0.35, f"slope {slope:.3f} outside -0.5 +/- 0.15"
    announce(6, f"std_error ~ K^{slope:.3f} over K=500..32000")


def test_criterion_7_simulator_oracle():
    s = get_model("ou")
    cfg = FkConfig(n_paths=20_000, dt=0.01, seed=707)
    snaps = simulate_terminal(s.system, np.array([1.0]), 1.0, cfg,
                              snapshot_times=[0.25, 0.5, 1.0])
    details = []
    for t in (0.25, 0.5, 1.0):
        X = snaps[t][:, 0]
        se = X.std(ddof=1) / np.sqrt(cfg.n_paths)
        gap = abs(X.mean() - np.exp(-t))
        assert gap <= 4 * se, f"t={t}: |mean - exact| = {gap:.2e} > 4 se = {4*se:.2e}"
        details.append(f"t={t}: {gap / se:.2f} se")
    announce(7, "OU mean vs x0 e^(-t): " + ", ".join(details))


def test_criterion_8_boundary_stability():
    sys1 = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: -x,
                     diffusion_factor=constant_diffusion(np.array([[1.5]])),
                     label="wide-ou")
    dec = linearize(sys1, a_matrix=np.array([[-1.0]]))
    pair = EigenPair(eigenvalue=1.0, left_eigenvector=np.array([1.0]))
    dom = Domain(lower=[-2.0], upper=[2.0])
    probes = np.linspace(-1.5, 1.5, 10)[:, None]
    res = boundary_stability_check(
        sys1, dec, pair, dom,
        psi_a=lambda X: np.zeros(np.atleast_2d(X).shape[0]),
        psi_b=lambda X: 0.1 * np.cos(np.atleast_2d(X)[:, 0]),
        probe_points=probes,
        cfg=FkConfig(n_paths=2000, t_max=10.0, seed=808))
    assert not res.inconclusive, "no path exited; test setup is degenerate"
    assert res.holds, (f"interior diff {res.max_interior_diff:.4f} exceeds "
                       f"{res.boundary_diff:.4f} + 4*{res.pooled_std_error:.2e}")
    announce(8, f"max interior diff {res.max_interior_diff:.4f} <= boundary "
                f"sup-diff {res.boundary_diff:.4f} on 10 probes")


def test_criterion_9_hutchinson_estimator():
    kern = GaussianKernel(1.1)
    x = np.array([0.3, -0.5, 0.2])
    y = np.array([-0.2, 0.1, 0.6])
    a = random_spd_matrix(3, seed=909)
    exact = kern.diffusion_trace_entry(x, y, a)
    est, se = kern.hutchinson_trace_entry(x, y, a, 100_000, seed=909)
    assert se > 0
    assert abs(est - exact) <= 3 * se, \
        f"|{est:.6f} - {exact:.6f}| > 3 se = {3*se:.2e}"
    x1, y1 = np.array([0.4]), np.array([-0.2])
    a1 = np.array([[0.25]])
    est1, se1 = kern.hutchinson_trace_entry(x1, y1, a1, 100, seed=5)
    assert se1 == 0.0
    assert est1 == pytest.approx(kern.diffusion_trace_entry(x1, y1, a1), abs=1e-15)
    announce(9, f"d=3: |est-exact| = {abs(est - exact) / se:.2f} se at M=1e5; "
                f"d=1 Rademacher exact with zero variance")


def run_cli(args, cwd):
    # the package's own src directory, absolute, so the child imports the
    # code under test from any working directory
    src = os.path.dirname(os.path.dirname(os.path.abspath(sdekoopman.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "sdekoopman.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


# the five criterion-10 commands; their file arguments are relative to the
# directory that write_criterion_10_inputs fills and run_cli runs in
CRITERION_10_COMMANDS = {
    "solve": ["solve", "--config", "cfg.json"],
    "fk": ["fk", "--config", "cfg.json", "--queries", "q.csv"],
    "reproduce": ["reproduce", "test1"],
    "semigroup-curve": ["semigroup-curve", "--config", "cfg.json", "--t-list", "0.1,0.3"],
    "sweep": ["sweep", "--config", "cfg.json", "--sigmas", "0,0.3"],
}


def write_criterion_10_inputs(work):
    cfg_doc = {"model": {"name": "quadratic", "sigma": 0.3}, "seed": 42,
               "fk": {"n_paths": 300, "t_max": 3.0}}
    (work / "cfg.json").write_text(json.dumps(cfg_doc))
    (work / "q.csv").write_text("0.5\n-0.25\n")


def test_criterion_10_thread_count_determinism(tmp_path):
    write_criterion_10_inputs(tmp_path)
    compared = 0
    for name, args in CRITERION_10_COMMANDS.items():
        outputs = {}
        for threads in ("1", "4"):
            out = tmp_path / f"{name}-t{threads}"
            run_cli([*args, "--out", str(out), "--threads", threads], tmp_path)
            outputs[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outputs["1"].keys() == outputs["4"].keys()
        for fname in outputs["1"]:
            assert outputs["1"][fname] == outputs["4"][fname], \
                f"{name}/{fname} differs between --threads 1 and --threads 4"
            compared += 1
    announce(10, f"{compared} output files byte-identical across --threads 1 vs 4 "
                 f"for all {len(CRITERION_10_COMMANDS)} commands")

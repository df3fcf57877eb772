import sys
import threading
from dataclasses import astuple, fields, replace

import numpy as np
import pytest

from sdekoopman import (Domain, EigenPair, FkConfig, GaussianKernel,
                        boundary_stability_check, check_acceptance,
                        conditioning_sweep, make_grid, rmse_vs_exact,
                        run_experiment, semigroup_check, semigroup_curve,
                        solve_system)
import sdekoopman.collocation as collocation
import sdekoopman.validation as validation
import sdekoopman.workers as workers_module
from sdekoopman.cli import _report_csv
from sdekoopman.collocation import (CollocationSolution, GridSpec, assemble, condition_number,
                                    save_solution)
from sdekoopman.config import ALLOWED_METRICS
from sdekoopman.errors import SingularSystemError
from sdekoopman.models import SdeSystem, linearize
from sdekoopman.registry import constant_diffusion, get_model
from sdekoopman.validation import (ExperimentReport, boundary_points,
                                   format_table, semigroup_path_steps, solve_and_report)

SMALL_FK = FkConfig(n_paths=2000, seed=5)


def wide_noise_ou(sigma=1.5):
    sys1 = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: -x,
                     diffusion_factor=constant_diffusion(np.array([[sigma]])),
                     label="wide-ou")
    return sys1, linearize(sys1, a_matrix=np.array([[-1.0]]))


class TestSemigroup:
    @pytest.mark.parametrize("fk", [None, FkConfig(dt=0.02, n_paths=300, seed=5)])
    def test_path_steps_are_the_rows_stepped(self, monkeypatch, fk):
        # reproduce and sweep fork by this count: the rows sigma_at sees
        # while the semigroup check of solve_and_report steps its paths
        rows, stepping = [], []
        sigma_at, simulate = SdeSystem.sigma_at, validation.simulate_terminal

        def counting_sigma(self, X):
            if stepping:
                rows.append(len(X))
            return sigma_at(self, X)

        def simulating(*args, **kwargs):
            stepping.append(True)
            try:
                return simulate(*args, **kwargs)
            finally:
                stepping.clear()

        monkeypatch.setattr(SdeSystem, "sigma_at", counting_sigma)
        monkeypatch.setattr(validation, "simulate_terminal", simulating)
        solve_and_report(get_model("quadratic", sigma=0.3), 0, fk=fk, metrics=("semigroup",))
        assert sum(rows) == semigroup_path_steps(fk) == (1_000_000 if fk is None else 7_500)

    def test_ou_matches_exact_mean(self, ou_setup):
        # for phi(x) = x the prediction equals the closed-form OU mean
        res = semigroup_check(ou_setup.system, lambda X: np.atleast_2d(X)[:, 0],
                              -1.0, np.array([1.0]), 0.5, SMALL_FK)
        assert res.prediction == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert res.relative_error < 0.02

    def test_single_step_horizon_small_error(self, ou_setup):
        res = semigroup_check(ou_setup.system, lambda X: np.atleast_2d(X)[:, 0],
                              -1.0, np.array([1.0]), SMALL_FK.dt, SMALL_FK)
        assert res.relative_error <= 0.05

    def test_degenerate_start_rejected(self, ou_setup):
        with pytest.raises(ValueError, match="x0"):
            semigroup_check(ou_setup.system, lambda X: np.atleast_2d(X)[:, 0],
                            -1.0, np.array([0.0]), 0.5, SMALL_FK)

    def test_curve_prediction_column(self, ou_setup):
        ts = [0.1, 0.2, 0.5]
        rows = semigroup_curve(ou_setup.system, lambda X: np.atleast_2d(X)[:, 0],
                               -1.0, np.array([1.0]), ts, SMALL_FK)
        for r, t in zip(rows, ts):
            assert r["prediction"] == pytest.approx(np.exp(-t), rel=1e-12)
            assert r["rel_error"] <= 0.10

    def test_curve_rows_match_standalone_checks(self, ou_setup):
        phi = lambda X: np.atleast_2d(X)[:, 0]
        rows = semigroup_curve(ou_setup.system, phi, -1.0, np.array([1.0]),
                               [0.2, 0.4], SMALL_FK)
        solo = semigroup_check(ou_setup.system, phi, -1.0, np.array([1.0]),
                               0.2, SMALL_FK)
        assert rows[0]["mc_mean"] == solo.mc_mean

    def test_curve_validates_t_list(self, ou_setup):
        phi = lambda X: np.atleast_2d(X)[:, 0]
        with pytest.raises(ValueError):
            semigroup_curve(ou_setup.system, phi, -1.0, np.array([1.0]), [], SMALL_FK)
        # dt = 0.01: 0.104 is not a whole number of steps, and 0.1 + 1e-13
        # lands on the same step as 0.1
        for ts, match in (([0.5, 0.2], "increasing"), ([0.1, 0.104], "whole number"),
                          ([0.1, 0.1 + 1e-13], "same time step")):
            with pytest.raises(ValueError, match=match):
                semigroup_curve(ou_setup.system, phi, -1.0, np.array([1.0]), ts, SMALL_FK)

    def test_horizon_must_be_whole_steps(self, ou_setup):
        # 0.105 used to be simulated for 10 steps and predicted at 0.105
        phi = lambda X: np.atleast_2d(X)[:, 0]
        with pytest.raises(ValueError, match="whole number"):
            semigroup_check(ou_setup.system, phi, -1.0, np.array([1.0]), 0.105, SMALL_FK)
        # 0.3 / 0.01 is 29.999999999999996, within the slack of 30 steps
        rows = semigroup_curve(ou_setup.system, phi, -1.0, np.array([1.0]),
                               [0.1, 0.3], SMALL_FK)
        assert [r["t"] for r in rows] == [0.1, 0.3]


class TestRmse:
    def test_identical_evaluators(self):
        pts = np.linspace(-1, 1, 20)[:, None]
        f = lambda X: np.atleast_2d(X)[:, 0] ** 2
        assert rmse_vs_exact(f, f, pts) == 0.0

    def test_known_offset(self):
        pts = np.linspace(-1, 1, 20)[:, None]
        f = lambda X: np.atleast_2d(X)[:, 0]
        g = lambda X: np.atleast_2d(X)[:, 0] + 0.5
        assert rmse_vs_exact(f, g, pts) == pytest.approx(0.5, rel=1e-12)

    def test_ou_machine_precision(self, ou_setup):
        s = ou_setup
        grid = make_grid(s.domain, s.grid_spec)
        sol, _, _ = solve_system(s.system, s.decomp, s.eigenpair,
                                 GaussianKernel(s.lengthscale), grid, s.gamma)
        pts = np.linspace(-2.4, 2.4, 60)[:, None]
        assert rmse_vs_exact(sol.eval_phi, s.exact_phi, pts) < 1e-12


class TestBoundaryStability:
    def test_identical_data_exactly_zero(self):
        sys1, dec = wide_noise_ou()
        dom = Domain(lower=[-2.0], upper=[2.0])
        pair = EigenPair(eigenvalue=1.0, left_eigenvector=np.array([1.0]))
        psi = lambda X: 0.05 * np.cos(np.atleast_2d(X)[:, 0])
        res = boundary_stability_check(sys1, dec, pair, dom, psi, psi,
                                       np.linspace(-1, 1, 4)[:, None],
                                       FkConfig(n_paths=200, t_max=5.0, seed=3))
        assert res.max_interior_diff == 0.0
        assert res.boundary_diff == 0.0
        assert res.holds and not res.inconclusive

    def test_constant_shift_bounded_by_constant(self):
        # psi_b - psi_a = c, so the interior difference is c E[e^{-lambda tau}]
        sys1, dec = wide_noise_ou()
        dom = Domain(lower=[-2.0], upper=[2.0])
        pair = EigenPair(eigenvalue=1.0, left_eigenvector=np.array([1.0]))
        c = 0.1
        psi_b = lambda X: np.full(np.atleast_2d(X).shape[0], c)
        res = boundary_stability_check(sys1, dec, pair, dom,
                                       lambda X: np.zeros(np.atleast_2d(X).shape[0]),
                                       psi_b, np.linspace(-1.5, 1.5, 6)[:, None],
                                       FkConfig(n_paths=500, t_max=10.0, seed=7))
        assert res.boundary_diff == pytest.approx(c)
        assert 0.0 < res.max_interior_diff <= c
        assert res.holds and not res.inconclusive

    def test_no_exits_flagged_inconclusive(self, ou_setup):
        s = ou_setup  # narrow noise: no exits within a short horizon
        pair = EigenPair(eigenvalue=1.0, left_eigenvector=np.array([1.0]))
        psi_b = lambda X: np.full(np.atleast_2d(X).shape[0], 0.1)
        res = boundary_stability_check(s.system, s.decomp, pair, s.domain,
                                       lambda X: np.zeros(np.atleast_2d(X).shape[0]),
                                       psi_b, np.array([[0.0]]),
                                       FkConfig(n_paths=100, t_max=1.0, seed=1))
        assert res.inconclusive
        assert res.max_interior_diff == 0.0

    def test_positive_eigenvalue_required(self, ou_setup):
        s = ou_setup
        psi = lambda X: np.zeros(np.atleast_2d(X).shape[0])
        with pytest.raises(ValueError, match="positive"):
            boundary_stability_check(s.system, s.decomp, s.eigenpair, s.domain,
                                     psi, psi, np.array([[0.0]]), FkConfig(n_paths=10))

    def test_boundary_sampling_stays_on_faces(self):
        dom = Domain(lower=[-1.0, 0.0], upper=[2.0, 3.0])
        pts = boundary_points(dom, n_per_face=32)
        on_face = ((np.isclose(pts[:, 0], -1.0)) | (np.isclose(pts[:, 0], 2.0))
                   | (np.isclose(pts[:, 1], 0.0)) | (np.isclose(pts[:, 1], 3.0)))
        assert on_face.all()
        assert dom.contains(pts).all()


class TestConditioningSweep:
    def test_empty_list(self):
        assert conditioning_sweep([], fk=SMALL_FK) == []

    def test_rows_sorted_and_decreasing(self):
        rows = conditioning_sweep([0.5, 0.0, 0.3], fk=SMALL_FK)
        sigmas = [float(r.label.split("sigma=")[1]) for r in rows]
        assert sigmas == [0.0, 0.3, 0.5]
        conds = [r.condition_number for r in rows]
        assert conds[0] > conds[1] > conds[2]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            conditioning_sweep([-0.1], fk=SMALL_FK)

    def test_spikes_either_side_of_the_reference_levels(self):
        # the quadratic preset as it stands (N = 50, l = 0.8, gamma = 1e-4):
        # cond is 1.336e7 at sigma = 0.2, 1.028e6 at 0.5 and 8.353e7 at 1.0,
        # 13.0x and 81.2x the value at 0.5 (ROADMAP item 9(a))
        cond = {}
        for sigma in (0.2, 0.5, 1.0):
            s = get_model("quadratic", sigma=sigma)
            assert (s.grid_spec.n, s.lengthscale, s.gamma) == (50, 0.8, 1e-4)
            asys = assemble(s.system, s.decomp, s.eigenpair, GaussianKernel(s.lengthscale),
                            make_grid(s.domain, s.grid_spec), s.gamma)
            cond[sigma] = condition_number(asys.system_matrix)
        assert cond[0.2] > 10 * cond[0.5]
        assert cond[1.0] > 10 * cond[0.5]

    def test_every_level_checked_before_any_row(self, monkeypatch):
        solved = []
        monkeypatch.setattr(validation, "solve_and_report",
                            lambda setup, *args, **kwargs: solved.append(setup) or (None,) * 3)
        with pytest.raises(ValueError, match="^sigma values must be finite and "
                                             "nonnegative, got nan$"):
            conditioning_sweep([0.3, float("nan")], fk=SMALL_FK)
        assert solved == []

    def test_first_bad_level_in_input_order_raised_before_any_row(self, monkeypatch):
        # sorted, -1.0 would come first; the check goes in input order
        solved = []
        monkeypatch.setattr(validation, "solve_and_report",
                            lambda setup, *args, **kwargs: solved.append(setup) or (None,) * 3)
        with pytest.raises(ValueError, match="got inf$"):
            conditioning_sweep([0.3, float("inf"), -1.0], fk=SMALL_FK, workers=2)
        assert solved == []

    def test_workers_fork_and_keep_every_report(self, forks, monkeypatch):
        # with the fork bound lowered, the default forks nothing and two
        # workers split three levels with one fork
        monkeypatch.setattr(workers_module, "_FORK_MIN_PATH_STEPS", 1)
        here = conditioning_sweep([0.5, 0, 0.3], fk=SMALL_FK)
        assert forks == []
        assert conditioning_sweep([0.5, 0, 0.3], fk=SMALL_FK, workers=2) == here
        assert len(forks) == 1
        assert [r.label for r in here] == [f"quadratic sigma={s}" for s in ("0", "0.3", "0.5")]

    def test_test2_sweeps_in_the_calling_process(self, forks, monkeypatch):
        # a reproduce worker runs test2, and must not fork again however
        # heavy its rows are
        monkeypatch.setattr(workers_module, "_FORK_MIN_PATH_STEPS", 1)
        monkeypatch.setattr(validation, "solve_and_report",
                            lambda setup, *args, **kwargs: (None, None, ExperimentReport(
                                setup.system.label, None, None, None, None, None)))
        rows = run_experiment("test2_quadratic")
        assert [r.label for r in rows] == ["quadratic sigma=0", "quadratic sigma=0.3",
                                           "quadratic sigma=0.5"]
        assert forks == []


class TestRunExperiment:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiment("test4_lorenz")

    def test_ou_report_contents(self):
        r = run_experiment("test1_ou", fk=SMALL_FK)
        assert r.label == "ou"
        assert r.rmse_vs_exact <= 1e-12
        assert r.max_abs_h <= 1e-12
        assert r.pde_residual_mean <= 1e-12
        assert r.semigroup_error is not None and r.semigroup_error <= 10.0
        assert all(getattr(r, f.name) is not None for f in fields(r))  # every metric

    def test_rerun_is_bit_identical(self):
        a = run_experiment("test1_ou", fk=SMALL_FK)
        b = run_experiment("test1_ou", fk=SMALL_FK)
        assert a == b

    def test_langevin_demo_reports_conditioning_only(self):
        # README's langevin recipe
        metrics = ("condition_number", "pde_residual", "max_abs_h")
        r = solve_and_report(get_model("langevin"), 404, metrics=metrics)[2]
        assert r.semigroup_error is None
        assert r.rmse_vs_exact is None
        assert np.isfinite(r.condition_number) and r.condition_number > 0
        assert np.isfinite(r.pde_residual_mean)

    def test_acceptance_bands_for_small_run(self):
        r = run_experiment("test1_ou", fk=SMALL_FK)
        checks = check_acceptance("test1_ou", r)
        assert all(ok for _, ok, _ in checks)

    def test_check_acceptance_flags_violations(self):
        r = run_experiment("test1_ou", fk=SMALL_FK)
        bad = replace(r, condition_number=1e12)
        checks = dict((label, ok) for label, ok, _ in check_acceptance("test1_ou", bad))
        assert not checks["condition number within x3 of 9.91e5"]


class TestMetricsTable:
    """solve_and_report's metrics run from one table in ALLOWED_METRICS order,
    and their values fill ExperimentReport's fields in that order."""

    # each metric's function as the table calls it; max|h| is eval_h called
    # by the table itself, where rmse and the semigroup check reach it
    # through eval_phi
    FUNCTIONS = {"condition_number": "condition_number", "pde_residual": "pde_residual",
                 "semigroup": "semigroup_check", "rmse": "rmse_vs_exact"}

    @staticmethod
    def failing(name):
        def boom(*args, **kwargs):
            raise AssertionError(f"{name} ran for another metric")
        return boom

    @pytest.mark.parametrize("key", ALLOWED_METRICS)
    def test_one_key_computes_only_its_own_field(self, monkeypatch, key):
        setup = get_model("ou")
        full = solve_and_report(setup, 0, fk=SMALL_FK)[2]
        assert None not in astuple(full)
        for other, name in self.FUNCTIONS.items():
            if other != key:
                monkeypatch.setattr(validation, name, self.failing(name))
        if key != "max_abs_h":
            eval_h = CollocationSolution.eval_h

            def eval_h_for_phi_only(sol, x):
                if sys._getframe(1).f_code.co_name != "eval_phi":
                    raise AssertionError("max|h| ran for another metric")
                return eval_h(sol, x)

            monkeypatch.setattr(CollocationSolution, "eval_h", eval_h_for_phi_only)
        report = solve_and_report(setup, 0, fk=SMALL_FK, metrics=(key,))[2]
        want = [value if other == key else None
                for other, value in zip(ALLOWED_METRICS, astuple(full)[1:])]
        assert astuple(report) == (full.label, *want)

    def test_failing_metric_raises_after_write_ahead_of_its_error(self, monkeypatch):
        # the condition number fails while write still runs; write finishes,
        # and its own error gives way to the metric's
        failed, finished = threading.Event(), []

        def failing_condition(M):
            failed.set()
            raise ValueError("condition number failed on purpose")

        def write(sol, asys):
            assert failed.wait(timeout=60)
            finished.append(True)
            raise OSError("write failed on purpose")

        monkeypatch.setattr(validation, "condition_number", failing_condition)
        with pytest.raises(ValueError, match="condition number failed on purpose"):
            solve_and_report(get_model("ou"), 0, fk=SMALL_FK, write=write)
        assert finished == [True]

    def test_failing_write_alone_raises_its_own_error(self):
        def write(sol, asys):
            raise OSError("write failed on purpose")

        with pytest.raises(OSError, match="write failed on purpose"):
            solve_and_report(get_model("ou"), 0, fk=SMALL_FK, write=write)

    def test_condition_number_runs_beside_write_and_the_rest_after_it(self, monkeypatch):
        # the SVD alone goes to the helper thread; write and every other
        # metric (max|h| through eval_h) run on the calling thread
        threads = {}

        def recording(name, fn):
            def record(*args, **kwargs):
                threads.setdefault(name, set()).add(threading.current_thread())
                return fn(*args, **kwargs)
            return record

        for name in self.FUNCTIONS.values():
            monkeypatch.setattr(validation, name, recording(name, getattr(validation, name)))
        monkeypatch.setattr(CollocationSolution, "eval_h",
                            recording("eval_h", CollocationSolution.eval_h))
        write = recording("write", lambda sol, asys: None)
        report = solve_and_report(get_model("ou"), 0, fk=SMALL_FK, write=write)[2]
        assert None not in astuple(report)
        main = {threading.current_thread()}
        helper = threads.pop("condition_number")
        assert len(helper) == 1 and helper != main
        assert threads == dict.fromkeys(("pde_residual", "semigroup_check", "rmse_vs_exact",
                                         "eval_h", "write"), main)

    def test_failing_metric_wins_over_failing_write(self, monkeypatch):
        ran = []

        def failing_residual(*args):
            raise ValueError("residual failed on purpose")

        def write(sol, asys):
            ran.append("write")
            raise OSError("write failed on purpose")

        monkeypatch.setattr(validation, "pde_residual", failing_residual)
        with pytest.raises(ValueError, match="residual failed on purpose"):
            solve_and_report(get_model("ou"), 0, fk=SMALL_FK, write=write)
        assert ran == ["write"]

    def test_failing_condition_number_wins_over_failing_metric(self, monkeypatch):
        # the SVD fails only after the main thread's metric has failed
        failed = threading.Event()

        def failing_residual(*args):
            failed.set()
            raise ValueError("residual failed on purpose")

        def failing_condition(M):
            assert failed.wait(timeout=60)
            raise ArithmeticError("condition number failed on purpose")

        monkeypatch.setattr(validation, "pde_residual", failing_residual)
        monkeypatch.setattr(validation, "condition_number", failing_condition)
        with pytest.raises(ArithmeticError, match="condition number failed on purpose"):
            solve_and_report(get_model("ou"), 0, fk=SMALL_FK, write=lambda sol, asys: None)

    def test_failing_lu_computes_the_condition_number_once(self, monkeypatch):
        calls, written = [], []

        def counting(M):
            calls.append(threading.current_thread())
            return condition_number(M)

        def failing_lu(M, b):
            raise np.linalg.LinAlgError("LU failed on purpose")

        monkeypatch.setattr(np.linalg, "solve", failing_lu)
        monkeypatch.setattr(collocation, "condition_number", counting)
        monkeypatch.setattr(validation, "condition_number", counting)
        with pytest.raises(SingularSystemError, match="LU factorization failed"):
            solve_and_report(get_model("ou"), 0, fk=SMALL_FK,
                             write=lambda sol, asys: written.append(True))
        assert calls == [threading.current_thread()] and written == []

    def test_without_write_no_thread_starts(self, monkeypatch):
        # map_in_workers forks only while no other thread runs, so a thread
        # here would make sweep and reproduce serial without a word
        def no_thread(self):
            raise AssertionError(f"thread {self.name} started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        report = solve_and_report(get_model("ou"), 0, fk=SMALL_FK)[2]
        assert None not in astuple(report)


class TestSolveMemory:
    @pytest.mark.parametrize("n", [20, 30])
    def test_peak_is_four_matrices_and_the_writer(self, tmp_path, tracemalloc_peak, n):
        # solve with every metric on while solution.json is written holds M
        # (8 N^2 B), the writer's own peak, and blocks: 4 MiB covers them and
        # the metrics' vectors.  numpy's linalg takes the LU's and the SVD's
        # copies of M with malloc, so they are not traced.  At n = 30
        # (N = 900) the bound is 12.1 MB and the peak 9.0 MB; holding K, L
        # and D as well peaked at 28.6 MB
        setup = replace(get_model("linear2d"), grid_spec=GridSpec("tensor", n))
        path = tmp_path / "solution.json"
        sol, asys, _ = solve_and_report(setup, 0, metrics=())
        writer = tracemalloc_peak(save_solution, path, sol, asys)
        del sol, asys
        peak = tracemalloc_peak(solve_and_report, setup, 0,
                                write=lambda sol, asys: save_solution(path, sol, asys))
        N = n * n
        assert peak < 8 * N * N + writer + (4 << 20)


class TestReportOutput:
    # the second row asked for no condition number
    ROWS = (ExperimentReport(label="demo", condition_number=1e5, pde_residual_mean=1e-3,
                             semigroup_error=None, rmse_vs_exact=None, max_abs_h=0.1),
            ExperimentReport(label="nocond", condition_number=None, pde_residual_mean=1e-3,
                             semigroup_error=4.2, rmse_vs_exact=1e-14, max_abs_h=0.1))

    def test_csv_header_and_blanks(self):
        lines = _report_csv(self.ROWS).splitlines()
        assert lines[0] == "label,cond,pde_res_mean,semigroup_error_pct,rmse,max_abs_h"
        assert lines[1] == "demo,100000.0,0.001,,,0.1"
        assert lines[2] == "nocond,,0.001,4.2,1e-14,0.1"

    def test_table_rendering(self):
        demo, nocond = format_table(self.ROWS).splitlines()[2:]
        assert demo.split() == ["demo", "1.000e+05", "1.000e-03", "-", "-"]
        assert nocond.split() == ["nocond", "-", "1.000e-03", "4.20%", "1.00e-14"]

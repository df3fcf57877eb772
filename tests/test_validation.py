from dataclasses import replace

import numpy as np
import pytest

from sdekoopman import (Domain, EigenPair, FkConfig, GaussianKernel,
                        boundary_stability_check, check_acceptance,
                        conditioning_sweep, make_grid, rmse_vs_exact,
                        run_experiment, semigroup_check, semigroup_curve,
                        solve_system)
from sdekoopman.models import SdeSystem, linearize
from sdekoopman.registry import constant_diffusion, get_model
from sdekoopman.validation import (ExperimentReport, boundary_points,
                                   format_table, reports_to_csv, solve_and_report)

SMALL_FK = FkConfig(n_paths=2000, seed=5)


def wide_noise_ou(sigma=1.5):
    sys1 = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: -x,
                     diffusion_factor=constant_diffusion(np.array([[sigma]])),
                     label="wide-ou")
    return sys1, linearize(sys1, a_matrix=np.array([[-1.0]]))


class TestSemigroup:
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
        with pytest.raises(ValueError):
            semigroup_curve(ou_setup.system, phi, -1.0, np.array([1.0]),
                            [0.5, 0.2], SMALL_FK)


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
        sigmas = [r.config_echo["params"]["sigma"] for r in rows]
        assert sigmas == [0.0, 0.3, 0.5]
        conds = [r.condition_number for r in rows]
        assert conds[0] > conds[1] > conds[2]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            conditioning_sweep([-0.1], fk=SMALL_FK)


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
        assert r.config_echo["grid"] == {"kind": "uniform_1d", "n": 40}

    def test_rerun_is_bit_identical(self):
        a = run_experiment("test1_ou", fk=SMALL_FK)
        b = run_experiment("test1_ou", fk=SMALL_FK)
        assert a == b

    def test_langevin_demo_reports_conditioning_only(self):
        r = solve_and_report(get_model("langevin"), 404, metrics=())[2]
        assert r.semigroup_error is None
        assert r.rmse_vs_exact is None
        assert np.isfinite(r.condition_number) and r.condition_number > 0
        assert np.isfinite(r.pde_residual_mean)
        assert r.config_echo["degenerate_mode"] is True

    def test_acceptance_bands_for_small_run(self):
        r = run_experiment("test1_ou", fk=SMALL_FK)
        checks = check_acceptance("test1_ou", r)
        assert all(ok for _, ok, _ in checks)

    def test_check_acceptance_flags_violations(self):
        r = run_experiment("test1_ou", fk=SMALL_FK)
        bad = replace(r, condition_number=1e12)
        checks = dict((label, ok) for label, ok, _ in check_acceptance("test1_ou", bad))
        assert not checks["condition number within x3 of 9.91e5"]


class TestReportOutput:
    def test_csv_header_and_blanks(self):
        rep = ExperimentReport(label="demo", condition_number=1e5,
                               pde_residual_mean=1e-3, pde_residual_max=5e-3,
                               semigroup_error=None, rmse_vs_exact=None,
                               max_abs_h=0.1, config_echo={})
        text = reports_to_csv([rep])
        lines = text.splitlines()
        assert lines[0] == "label,cond,pde_res_mean,semigroup_error_pct,rmse,max_abs_h"
        assert lines[1] == "demo,100000.0,0.001,,,0.1"

    def test_table_rendering(self):
        rep = ExperimentReport(label="demo", condition_number=1e5,
                               pde_residual_mean=1e-3, pde_residual_max=5e-3,
                               semigroup_error=4.2, rmse_vs_exact=1e-14,
                               max_abs_h=0.1, config_echo={})
        table = format_table([rep])
        assert "demo" in table and "4.20%" in table

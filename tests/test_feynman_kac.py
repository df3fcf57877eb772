import json
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

import sdekoopman.feynman_kac as feynman_kac
import sdekoopman.workers as workers_module
from sdekoopman import (CollocationGrid, Domain, EigenPair, FkConfig,
                        GaussianKernel, em_step, fk_batch, fk_estimate, get_model,
                        krr_fit, mc_convergence_probe, simulate_terminal)
from sdekoopman.cli import _fk_estimates_csv
from sdekoopman.errors import EvaluationError
from sdekoopman.feynman_kac import (_NormalStream, _noise_sum, counter_normals,
                                    horizon_steps)
from sdekoopman.workers import map_in_workers
from sdekoopman.models import SdeSystem, linearize
from sdekoopman.registry import constant_diffusion

# path steps at which map_in_workers forks: its tests of dealing and errors fork
FORK_STEPS = workers_module._FORK_MIN_PATH_STEPS


def positive_pair():
    """A lambda = +1 problem: the discount decays, so the estimator converges."""
    return EigenPair(eigenvalue=1.0, left_eigenvector=np.array([1.0]))


def same_estimate(a, b):
    """Bitwise equality of estimates, with NaN == NaN for mean_exit_time."""
    exit_equal = (a.mean_exit_time == b.mean_exit_time
                  or (np.isnan(a.mean_exit_time) and np.isnan(b.mean_exit_time)))
    return (a.value == b.value and a.std_error == b.std_error
            and a.n_capped == b.n_capped and exit_equal
            and a.discount_overflow == b.discount_overflow
            and a.n_paths == b.n_paths and a.failure == b.failure)


def wide_noise_ou(sigma=1.5):
    sys1 = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: -x,
                     diffusion_factor=constant_diffusion(np.array([[sigma]])),
                     label="wide-ou")
    dec = linearize(sys1, a_matrix=np.array([[-1.0]]))
    return sys1, dec


class TestCounterNormals:
    def test_deterministic_and_stream_separated(self):
        a = counter_normals(7, 0, 3, 5, 2)
        b = counter_normals(7, 0, 3, 5, 2)
        assert np.array_equal(a, b)
        assert a.shape == (5, 2)
        assert not np.array_equal(a, counter_normals(7, 1, 3, 5, 2))
        assert not np.array_equal(a, counter_normals(7, 0, 4, 5, 2))
        assert not np.array_equal(a, counter_normals(8, 0, 3, 5, 2))

    def test_standard_moments(self):
        z = counter_normals(11, 0, 0, 200_000, 1)[:, 0]
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


class TestNormalStream:
    def test_reused_generator_matches_counter_normals(self):
        n, m = 7, 2
        stream = _NormalStream(FkConfig(seed=13), 4, np.empty((n, m)))
        for step in (3, 0, 5, 1, 5, 0, 12):
            assert np.array_equal(stream.draw(step), counter_normals(13, 4, step, n, m))

    def test_antithetic_halves(self):
        n, m = 9, 1
        half = (n + 1) // 2
        stream = _NormalStream(FkConfig(seed=2, antithetic=True), 1, np.empty((n, m)))
        for step in (6, 0, 2, 0):
            z = stream.draw(step)
            assert np.array_equal(z[:half], counter_normals(2, 1, step, half, m))
            assert np.array_equal(z[half:], -z[: n - half])


class TestEmStep:
    def test_zero_noise_is_explicit_euler(self, quadratic_setup):
        s = quadratic_setup.system
        x = np.array([0.5])
        out = em_step(s, x, 0.01, np.zeros(1))
        assert out == pytest.approx(x + 0.01 * s.drift(x), abs=0)

    def test_ou_hand_value(self, ou_setup):
        out = em_step(ou_setup.system, np.array([1.0]), 0.01, np.zeros(1))
        assert out[0] == 0.99

    def test_noise_scaling(self, ou_setup):
        out = em_step(ou_setup.system, np.array([0.0]), 0.04, np.array([2.0]))
        # 0 + 0 + 0.5 * sqrt(0.04) * 2
        assert out[0] == pytest.approx(0.2, rel=1e-15)

    def test_batch_shapes(self, linear2d_setup):
        X = np.zeros((6, 2))
        Z = np.ones((6, 2))
        out = em_step(linear2d_setup.system, X, 0.01, Z)
        assert out.shape == (6, 2)

    def test_blowup_reported(self):
        with np.errstate(over="ignore", invalid="ignore"):
            sys1 = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: -x * 1e308,
                             diffusion_factor=constant_diffusion(np.array([[0.0]])))
            with pytest.raises(EvaluationError, match="blew up"):
                em_step(sys1, np.array([1.0]), 10.0, np.zeros(1))


class TestNoiseSum:
    @pytest.mark.parametrize("d, m", [(1, 1), (2, 1), (2, 2), (2, 3)])
    def test_bits_equal_einsum(self, d, m):
        rng = np.random.default_rng(10 * d + m)
        n = 60
        per_row = rng.standard_normal((n, d, m)) * 10.0 ** rng.integers(-200, 200, (n, d, m))
        per_row[::4] = 0.0
        per_row[1::4] *= -1.0
        normals = rng.standard_normal((n, m))
        normals[::5] = -normals[::5]
        for S in (np.broadcast_to(rng.standard_normal((d, m)), (n, d, m)), per_row):
            for Z in (normals, np.zeros((n, m)), -np.zeros((n, m))):
                with np.errstate(over="ignore", under="ignore"):
                    want = np.einsum("ndm,nm->nd", S, Z)
                    got = _noise_sum(S, Z, np.empty((n, d)), np.empty((n, d)))
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestFkConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FkConfig(dt=0.0)
        with pytest.raises(ValueError):
            FkConfig(dt=0.1, t_max=0.05)
        with pytest.raises(ValueError):
            FkConfig(n_paths=0)
        with pytest.raises(ValueError):
            FkConfig(seed=-1)
        with pytest.raises(ValueError, match="t_max must be >= dt"):
            FkConfig(t_max=float("nan"))
        with pytest.raises(ValueError, match="finite step count"):
            FkConfig(dt=1e-320)  # t_max / dt overflows to inf
        with pytest.raises(ValueError, match=r"t_max / dt must be at most 1e\+07 steps "
                                             r"per path, got 5e\+10"):
            FkConfig(n_paths=10, dt=1e-9)
        assert FkConfig(dt=5e-6).t_max / 5e-6 == 1e7  # the cap itself is allowed
        with pytest.raises(ValueError, match="n_paths must be an integer"):
            FkConfig(n_paths=True)
        with pytest.raises(ValueError, match="antithetic must be a bool, got 'no'"):
            FkConfig(antithetic="no")


class TestFkEstimate:
    def test_zero_source_zero_boundary_annihilates(self, ou_setup):
        s = ou_setup
        cfg = FkConfig(n_paths=200, t_max=2.0, seed=5)
        est = fk_estimate(s.system, s.decomp, s.eigenpair, s.domain,
                          np.array([0.5]), cfg)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_negative_eigenvalue_guard_flags_overflow(self, quadratic_setup):
        # lambda = -1 grows the discount; the guard truncates the horizon and
        # every surviving path is counted as capped
        s = quadratic_setup
        cfg = FkConfig(n_paths=50, seed=1)
        est = fk_estimate(s.system, s.decomp, s.eigenpair, s.domain,
                          np.array([0.5]), cfg)
        assert est.discount_overflow
        assert est.n_capped > 0
        assert est.all_capped == (est.n_capped == est.n_paths)

    def test_deterministic_given_seed(self, quadratic_setup):
        s = quadratic_setup
        pair = positive_pair()
        cfg = FkConfig(n_paths=300, t_max=5.0, seed=42)
        a = fk_estimate(s.system, s.decomp, pair, s.domain, np.array([0.4]), cfg)
        b = fk_estimate(s.system, s.decomp, pair, s.domain, np.array([0.4]), cfg)
        assert same_estimate(a, b)

    def test_left_eigenvector_must_match_the_state(self, quadratic_setup):
        # w = [1, 7] on the 1-D preset gave, bit for bit, the value of w = [1]
        s = quadratic_setup
        pair = EigenPair(eigenvalue=1.0, left_eigenvector=np.array([1.0, 7.0]))
        with pytest.raises(ValueError, match="inner dimensions differ"):
            fk_estimate(s.system, s.decomp, pair, s.domain, np.array([0.3]),
                        FkConfig(n_paths=200, t_max=5.0, seed=1))

    def test_query_point_must_be_interior(self, ou_setup):
        s = ou_setup
        with pytest.raises(ValueError, match="inside"):
            fk_estimate(s.system, s.decomp, s.eigenpair, s.domain,
                        np.array([2.5]), FkConfig(n_paths=10))

    def test_exit_statistics(self):
        sys1, dec = wide_noise_ou()
        dom = Domain(lower=[-1.0], upper=[1.0])
        cfg = FkConfig(n_paths=500, t_max=10.0, seed=3)
        est = fk_estimate(sys1, dec, positive_pair(), dom, np.array([0.0]), cfg)
        assert est.n_capped < est.n_paths
        assert est.mean_exit_time >= cfg.dt
        assert np.isfinite(est.mean_exit_time)
        assert not est.discount_overflow

    def test_antithetic_runs_and_is_deterministic(self, quadratic_setup):
        s = quadratic_setup
        cfg = FkConfig(n_paths=400, t_max=5.0, seed=9, antithetic=True)
        pair = positive_pair()
        a = fk_estimate(s.system, s.decomp, pair, s.domain, np.array([0.4]), cfg)
        b = fk_estimate(s.system, s.decomp, pair, s.domain, np.array([0.4]), cfg)
        assert same_estimate(a, b)
        plain = fk_estimate(s.system, s.decomp, pair, s.domain, np.array([0.4]),
                            replace(cfg, antithetic=False))
        assert a.value == pytest.approx(plain.value, abs=4 * (a.std_error + plain.std_error))

    def test_variance_bound_for_positive_eigenvalue(self, quadratic_setup):
        # sample variance obeys 2 |psi|^2 + 2 |w|^2 |F|^2 / lambda^2
        s = quadratic_setup
        dom = replace(s.domain, boundary_value=lambda X: np.full(np.atleast_2d(X).shape[0], 0.05))
        cfg = FkConfig(n_paths=2000, t_max=20.0, seed=17)
        est = fk_estimate(s.system, s.decomp, positive_pair(), dom, np.array([0.6]), cfg)
        f_sup = 0.3 * 1.2**2
        bound = 2 * 0.05**2 + 2 * f_sup**2 / 1.0**2
        assert est.std_error**2 * cfg.n_paths <= bound


class TestFkBatch:
    def test_singleton_matches_single_estimate(self, quadratic_setup):
        s = quadratic_setup
        pair = positive_pair()
        cfg = FkConfig(n_paths=200, t_max=5.0, seed=21)
        batch = fk_batch(s.system, s.decomp, pair, s.domain, [[0.3]], cfg)
        single = fk_estimate(s.system, s.decomp, pair, s.domain, np.array([0.3]),
                             cfg, query_index=0)
        assert len(batch) == 1 and same_estimate(batch[0], single)

    def test_duplicated_point_distinct_streams_agree_statistically(self, quadratic_setup):
        s = quadratic_setup
        pair = positive_pair()
        cfg = FkConfig(n_paths=2000, t_max=20.0, seed=33)
        a, b = fk_batch(s.system, s.decomp, pair, s.domain, [[0.5], [0.5]], cfg)
        assert a != b  # different streams
        pooled = np.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= 4 * pooled

    def test_zero_problem_gives_zeros(self, ou_setup):
        s = ou_setup
        cfg = FkConfig(n_paths=50, t_max=1.0, seed=2)
        ests = fk_batch(s.system, s.decomp, s.eigenpair, s.domain,
                        [[0.1], [-0.4], [0.9]], cfg)
        assert all(e.value == 0.0 and e.std_error == 0.0 for e in ests)

    @pytest.mark.parametrize("queries", [[], np.empty(0), np.empty((0, 1))],
                             ids=["list", "1d", "2d"])
    def test_no_queries_no_estimates(self, ou_setup, queries):
        # an empty list is no queries, not one query of shape (0,)
        s = ou_setup
        assert fk_batch(s.system, s.decomp, s.eigenpair, s.domain, queries,
                        FkConfig(n_paths=20, t_max=1.0, seed=2)) == []

    def test_exterior_point_flagged_not_fatal(self, ou_setup):
        s = ou_setup
        cfg = FkConfig(n_paths=20, t_max=1.0, seed=2)
        ests = fk_batch(s.system, s.decomp, s.eigenpair, s.domain,
                        [[0.1], [7.0]], cfg)
        assert ests[0].failure is None
        assert ests[1].failure is not None and np.isnan(ests[1].value)


def nonlinear_2d():
    """A 2-d drift with quadratic coupling and state-dependent noise."""
    def drift(x):
        x = np.asarray(x, dtype=float)
        return np.stack([-x[..., 0] + 0.5 * x[..., 1] ** 2,
                         -2.0 * x[..., 1] + x[..., 0] * x[..., 1]], axis=-1)

    def sigma(x):
        x = np.asarray(x, dtype=float)
        z = np.zeros_like(x[..., 0])
        return np.stack([np.stack([0.4 + z, 0.1 * x[..., 0]], axis=-1),
                         np.stack([z, 0.3 + z], axis=-1)], axis=-2)

    sys2 = SdeSystem(dim_state=2, dim_noise=2, drift=drift, diffusion_factor=sigma)
    return sys2, linearize(sys2)


def pinned_cases():
    """Batches of (problem, query points, config, expected reprs)."""
    q5 = get_model("quadratic", sigma=0.5)
    pos = positive_pair()
    sys2, dec2 = nonlinear_2d()
    dom2 = Domain(lower=[-1.0, -1.0], upper=[1.0, 1.0])
    pair2 = EigenPair(eigenvalue=1.0, left_eigenvector=np.array([1.0, 0.5]))
    return {
        # exiting and capped queries plus one exterior point
        "mixed": ((q5.system, q5.decomp, pos, q5.domain),
                  [[0.0], [1.1], [-1.15], [1.5], [0.6]],
                  FkConfig(dt=0.02, n_paths=40, t_max=1.0, seed=7), [
            "FkEstimate(value=0.012783287265717178, std_error=0.0022902395104725613, n_capped=40, mean_exit_time=nan, discount_overflow=False, n_paths=40, failure=None)",  # noqa: E501
            "FkEstimate(value=0.08924406684593378, std_error=0.008853439122872071, n_capped=24, mean_exit_time=0.12625, discount_overflow=False, n_paths=40, failure=None)",  # noqa: E501
            "FkEstimate(value=0.08566139161214806, std_error=0.007713032585873258, n_capped=30, mean_exit_time=0.038, discount_overflow=False, n_paths=40, failure=None)",  # noqa: E501
            "FkEstimate(value=nan, std_error=nan, n_capped=40, mean_exit_time=nan, discount_overflow=False, n_paths=40, failure='query point [1.5] must lie strictly inside the domain')",  # noqa: E501
            "FkEstimate(value=0.05126105087218112, std_error=0.004940943649875618, n_capped=37, mean_exit_time=0.4466666666666666, discount_overflow=False, n_paths=40, failure=None)",  # noqa: E501
        ]),
        "antithetic_odd": ((q5.system, q5.decomp, pos, q5.domain), [[0.3], [-1.1], [1.1]],
                           FkConfig(dt=0.02, n_paths=31, t_max=1.0, seed=5,
                                    antithetic=True), [
            "FkEstimate(value=0.02340911244024062, std_error=0.0038404863527942675, n_capped=31, mean_exit_time=nan, discount_overflow=False, n_paths=31, failure=None)",  # noqa: E501
            "FkEstimate(value=0.10453898432569533, std_error=0.005159971213800469, n_capped=30, mean_exit_time=0.18, discount_overflow=False, n_paths=31, failure=None)",  # noqa: E501
            "FkEstimate(value=0.07659060755813668, std_error=0.008985172615302826, n_capped=17, mean_exit_time=0.12142857142857144, discount_overflow=False, n_paths=31, failure=None)",  # noqa: E501
        ]),
        # lambda = -1: the discount guard shortens the horizon to ~27.6 < t_max
        "guard": ((q5.system, q5.decomp, q5.eigenpair, q5.domain), [[0.5], [1.1]],
                  FkConfig(dt=0.05, n_paths=20, t_max=30.0, seed=1), [
            "FkEstimate(value=21885986035.40894, std_error=5352050489.62629, n_capped=13, mean_exit_time=10.721428571428572, discount_overflow=True, n_paths=20, failure=None)",  # noqa: E501
            "FkEstimate(value=31426930566.331505, std_error=9559690184.286108, n_capped=10, mean_exit_time=4.800000000000001, discount_overflow=True, n_paths=20, failure=None)",  # noqa: E501
        ]),
        "nonlinear_2d": ((sys2, dec2, pair2, dom2), [[0.2, -0.3], [0.8, 0.7], [0.9, -0.9]],
                         FkConfig(dt=0.02, n_paths=30, t_max=1.0, seed=3), [
            "FkEstimate(value=0.010124436664099042, std_error=0.0023972746419377296, n_capped=30, mean_exit_time=nan, discount_overflow=False, n_paths=30, failure=None)",  # noqa: E501
            "FkEstimate(value=0.13499185839549424, std_error=0.007863116912473475, n_capped=26, mean_exit_time=0.16, discount_overflow=False, n_paths=30, failure=None)",  # noqa: E501
            "FkEstimate(value=2.5081855830435402e-05, std_error=0.003138703135263534, n_capped=18, mean_exit_time=0.1366666666666667, discount_overflow=False, n_paths=30, failure=None)",  # noqa: E501
        ]),
    }


def cubic_blowup(upper=1e300):
    """Drift -x + x^3 on the box [-upper, upper]: paths started beyond
    |x| = 1 overflow."""
    sys1 = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: -x + x ** 3,
                     diffusion_factor=constant_diffusion(np.array([[0.05]])))
    dec = linearize(sys1, a_matrix=np.array([[-1.0]]))
    return sys1, dec, positive_pair(), Domain(lower=[-upper], upper=[upper])


class TestBatchEngine:
    @pytest.mark.parametrize("case", ["mixed", "antithetic_odd", "guard", "nonlinear_2d"])
    def test_pinned_values(self, case):
        problem, pts, cfg, expected = pinned_cases()[case]
        ests = fk_batch(*problem, pts, cfg)
        assert [repr(e) for e in ests] == expected
        for i, (x, est) in enumerate(zip(pts, ests)):
            if est.failure is None:
                alone = fk_estimate(*problem, np.array(x), cfg, query_index=i)
                assert same_estimate(est, alone)
            else:
                with pytest.raises(ValueError) as err:
                    fk_estimate(*problem, np.array(x), cfg, query_index=i)
                assert str(err.value) == est.failure

    @pytest.mark.parametrize("block_rows", [1, 45, 100])
    def test_independent_of_block_grouping(self, monkeypatch, block_rows):
        problem, pts, cfg, expected = pinned_cases()["mixed"]
        monkeypatch.setattr(feynman_kac, "_BLOCK_ROWS", block_rows)
        assert [repr(e) for e in fk_batch(*problem, pts, cfg)] == expected

    def test_lone_paths_match_standalone_runs(self):
        # with two paths per query many queries run down to one live path;
        # BLAS rounds a one-row product differently from a row inside a
        # larger one, so those paths must still be stepped as a standalone
        # run steps them
        A = np.array([[-1.1, 0.37], [0.23, -1.7]])

        def drift(x):
            x = np.asarray(x, dtype=float)
            return x @ A.T + np.stack([0.3 * x[..., 1] ** 2, -0.2 * x[..., 0] * x[..., 1]],
                                      axis=-1)

        sys2 = SdeSystem(dim_state=2, dim_noise=2, drift=drift,
                         diffusion_factor=constant_diffusion(np.diag([0.5, 0.4])))
        problem = (sys2, linearize(sys2), EigenPair(0.3, np.array([0.7, 0.31])),
                   Domain(lower=[-1.0, -1.0], upper=[1.0, 1.0],
                          boundary_value=lambda X: 0.3 + np.atleast_2d(X)[:, 0]))
        pts = np.random.default_rng(5).uniform(-0.95, 0.95, (10, 2))
        cfg = FkConfig(dt=0.05, n_paths=2, t_max=10.0, seed=0)
        ests = fk_batch(*problem, pts, cfg)
        assert any(0 < e.n_capped < e.n_paths for e in ests)
        for i, (x, est) in enumerate(zip(pts, ests)):
            assert same_estimate(est, fk_estimate(*problem, x, cfg, query_index=i))

    def test_one_drift_call_per_step(self, monkeypatch):
        # sigma = 0 and lambda = +1: every path decays inward and runs all steps
        s = get_model("quadratic", sigma=0.0)
        cfg = FkConfig(dt=0.01, n_paths=8, t_max=0.5, seed=0)
        calls = []
        drift_at = SdeSystem.drift_at
        monkeypatch.setattr(SdeSystem, "drift_at",
                            lambda self, X: calls.append(len(X)) or drift_at(self, X))
        ests = fk_batch(s.system, s.decomp, positive_pair(), s.domain,
                        [[0.1], [0.5], [-0.7]], cfg)
        assert all(e.all_capped for e in ests)
        assert calls == [3 * cfg.n_paths] * 50

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_sigma_rows_are_the_path_steps(self, monkeypatch, sigma):
        # the count behind the benchmark's path-step self-check: sigma_at sees
        # each live path once per step it takes
        s = get_model("quadratic", sigma=sigma)
        cfg = FkConfig(dt=0.01, n_paths=64, t_max=2.0, seed=0)
        rows = []
        sigma_at = SdeSystem.sigma_at
        monkeypatch.setattr(SdeSystem, "sigma_at",
                            lambda self, X: rows.append(len(X)) or sigma_at(self, X))
        est = fk_estimate(s.system, s.decomp, positive_pair(), s.domain,
                          np.array([0.5]), cfg)
        n_steps = 200
        exited = est.n_paths - est.n_capped
        if sigma == 0.0:
            # lambda = +1 and no noise: every path decays inward and is capped
            assert est.all_capped and sum(rows) == cfg.n_paths * n_steps
        else:
            assert 0 < est.n_capped < est.n_paths
            taken = est.n_capped * n_steps + round(exited * est.mean_exit_time / cfg.dt)
            assert sum(rows) == taken

    @staticmethod
    def fails_only(problem, pts, cfg, failures):
        """``fk_batch`` fails the queries ``failures`` names (index: message)
        with the error a standalone run raises; the others equal their
        standalone runs."""
        with np.errstate(over="ignore", invalid="ignore"):
            ests = fk_batch(*problem, pts, cfg)
            for i, (x, est) in enumerate(zip(pts, ests)):
                if i in failures:
                    with pytest.raises(EvaluationError) as err:
                        fk_estimate(*problem, np.array(x), cfg, query_index=i)
                    assert est.failure == str(err.value) == failures[i]
                    assert np.isnan(est.value)
                else:
                    alone = fk_estimate(*problem, np.array(x), cfg, query_index=i)
                    assert est.failure is None and same_estimate(est, alone)

    def test_blowup_fails_only_its_query(self):
        # a box with infinite faces contains +-inf: the blow-up is still
        # reported from the last finite state, at the step that overflows
        for upper in (1e300, np.inf):
            self.fails_only(cubic_blowup(upper), [[0.1], [1.9], [-0.3], [5.0]],
                            FkConfig(dt=0.5, n_paths=16, t_max=5.0, seed=2),
                            {1: "path blew up from state [8.85647841e+120] at t=3",
                             3: "path blew up from state [6.37226535e+134] at t=2.5"})

    def test_blowup_and_exit_on_one_step(self):
        # sigma = 1 spreads the paths of a query both ways: those below -1 fall
        # through the lower face at -3, those above +1 overflow (the upper
        # face is infinite); queries 3 and 4 blow up on a step on which
        # another of their paths exits
        def psi(X):
            if not np.isfinite(X).all():
                raise AssertionError(f"psi evaluated at {X}")
            return 0.3 + X[:, 0]

        sys1 = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: -x + x ** 3,
                         diffusion_factor=constant_diffusion(np.array([[1.0]])))
        problem = (sys1, linearize(sys1, a_matrix=np.array([[-1.0]])), positive_pair(),
                   Domain(lower=[-3.0], upper=[np.inf], boundary_value=psi))
        self.fails_only(problem, [[0.0], [0.5], [-0.5], [0.9], [1.05]],
                        FkConfig(dt=0.25, n_paths=16, t_max=2.5, seed=4),
                        {3: "path blew up from state [2.38171041e+213] at t=2.25",
                         4: "path blew up from state [5.67545038e+113] at t=2"})

    def test_exit_time_and_payoff_by_hand(self):
        # sigma = 0 and G(x) = x, so F = 0: every path runs x_s = 0.5 (1 + dt)^s,
        # exits after the first step s* with 0.5 (1 + dt)^(s* + 1) > 1 at
        # tau = (s* + 1) dt, and pays e^{-tau} psi(clamp(x)) = e^{-tau} * 1.0
        sys1 = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: x,
                         diffusion_factor=constant_diffusion(np.array([[0.0]])))
        problem = (sys1, linearize(sys1, a_matrix=np.array([[1.0]])), positive_pair(),
                   Domain(lower=[-1.0], upper=[1.0],
                          boundary_value=lambda X: np.atleast_2d(X)[:, 0]))
        dt = 0.1
        s_star = next(s for s in range(100) if 0.5 * (1 + dt) ** (s + 1) > 1)
        tau = (s_star + 1) * dt
        est = fk_estimate(*problem, np.array([0.5]),
                          FkConfig(dt=dt, n_paths=8, t_max=5.0, seed=0))
        assert s_star == 7 and est.n_capped == 0 and est.mean_exit_time == tau
        assert est.value == np.exp(-tau) * 1.0 and est.std_error == 0.0


class TestKrrFit:
    def test_zero_values_zero_fit(self, ou_setup):
        grid = CollocationGrid(points=np.linspace(-1, 1, 9)[:, None])
        fit = krr_fit(GaussianKernel(0.8), grid, np.zeros(9), eta=1e-4)
        assert np.array_equal(fit.coefficients, np.zeros(9))

    def test_interpolates_kernel_section(self):
        # values sampled from g(x) = k(x, x0); a tiny ridge must reproduce g
        kern = GaussianKernel(0.8)
        pts = np.linspace(-1, 1, 9)[:, None]
        grid = CollocationGrid(points=pts)
        x0 = pts[4]
        values = kern.eval_matrix(pts, x0[None, :])[:, 0]
        fit = krr_fit(kern, grid, values, eta=1e-12)
        assert np.max(np.abs(fit.eval_h(pts) - values)) < 1e-6

    def test_rmse_improves_as_noise_shrinks(self):
        # stand-in for growing path counts: estimate noise scales like
        # 1/sqrt(K), so shrinking noise must shrink the in-sample error
        kern = GaussianKernel(0.8)
        pts = np.linspace(-1, 1, 15)[:, None]
        grid = CollocationGrid(points=pts)
        truth = np.exp(-pts[:, 0] ** 2)
        base = np.random.default_rng(4).standard_normal(15)
        errs = []
        for s in (0.3, 0.1, 0.01):
            fit = krr_fit(kern, grid, truth + s * base, eta=1e-6)
            errs.append(np.sqrt(np.mean((fit.eval_h(pts) - truth) ** 2)))
        assert errs[2] < errs[1] < errs[0]

    def test_eta_must_be_positive(self):
        grid = CollocationGrid(points=np.linspace(-1, 1, 5)[:, None])
        with pytest.raises(ValueError):
            krr_fit(GaussianKernel(1.0), grid, np.zeros(5), eta=0.0)


class TestConvergenceProbe:
    def test_error_halves_when_paths_quadruple(self, quadratic_setup):
        s = quadratic_setup
        cfg = FkConfig(t_max=20.0, seed=3)
        rows = mc_convergence_probe(s.system, s.decomp, positive_pair(), s.domain,
                                    np.array([0.5]), cfg, [500, 2000])
        ratio = rows[1]["std_error"] / rows[0]["std_error"]
        assert ratio == pytest.approx(0.5, rel=0.25)

    def test_fixed_seed_reproducible(self, quadratic_setup):
        s = quadratic_setup
        cfg = FkConfig(t_max=5.0, seed=8)
        args = (s.system, s.decomp, positive_pair(), s.domain, np.array([0.3]), cfg, [100, 400])
        assert mc_convergence_probe(*args) == mc_convergence_probe(*args)

    def test_zero_problem_all_zero(self, ou_setup):
        s = ou_setup
        cfg = FkConfig(t_max=1.0, seed=8)
        rows = mc_convergence_probe(s.system, s.decomp, s.eigenpair, s.domain,
                                    np.array([0.2]), cfg, [50, 100])
        assert all(r["std_error"] == 0.0 for r in rows)

    def test_counts_must_increase(self, ou_setup):
        s = ou_setup
        with pytest.raises(ValueError):
            mc_convergence_probe(s.system, s.decomp, s.eigenpair, s.domain,
                                 np.array([0.2]), FkConfig(), [100, 100])


class TestSimulator:
    def test_ou_mean_matches_exact_decay(self, ou_setup):
        # closed-form OU mean x0 e^{-t} as the simulator oracle
        s = ou_setup.system
        cfg = FkConfig(n_paths=20_000, seed=99)
        snaps = simulate_terminal(s, np.array([1.0]), 1.0, cfg,
                                  snapshot_times=[0.25, 0.5, 1.0])
        for t, X in snaps.items():
            mean = X[:, 0].mean()
            se = X[:, 0].std(ddof=1) / np.sqrt(cfg.n_paths)
            assert abs(mean - np.exp(-t)) <= 4 * se

    def test_snapshots_match_separate_runs(self, ou_setup):
        s = ou_setup.system
        cfg = FkConfig(n_paths=64, seed=12)
        snaps = simulate_terminal(s, np.array([0.5]), 0.5, cfg,
                                  snapshot_times=[0.2, 0.5])
        direct = simulate_terminal(s, np.array([0.5]), 0.2, cfg)
        assert np.array_equal(snaps[0.2], direct)

    def test_blowup_reports_the_state_before_the_step(self):
        # from x0 = 1 the first step reaches about 1e198, which is finite; the
        # second squares it to inf, and the error names the first step's state
        with np.errstate(over="ignore", invalid="ignore"):
            s = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: 1e200 * x**2,
                          diffusion_factor=constant_diffusion(np.array([[0.1]])))
            cfg = FkConfig(n_paths=8, seed=5)
            before = simulate_terminal(s, np.array([1.0]), cfg.dt, cfg)
            assert np.all(np.isfinite(before))
            with pytest.raises(EvaluationError, match="blew up") as info:
                simulate_terminal(s, np.array([1.0]), 2 * cfg.dt, cfg)
        assert str(info.value).endswith(f"from state {before[0]}")

    def test_horizon_step_count_capped(self):
        # the cap of FkConfig's t_max / dt holds for every horizon as well
        assert horizon_steps([0.1, 1e5], 0.01) == [10, 10**7]
        with pytest.raises(ValueError, match=r"horizon 200000.0 / dt must be at most "
                                             r"1e\+07 steps per path, got 2e\+07"):
            horizon_steps([0.1, 2e5], 0.01)
        s = get_model("ou").system
        with pytest.raises(ValueError, match=r"must be at most 1e\+07 steps"):
            simulate_terminal(s, np.array([1.0]), 1e9, FkConfig(n_paths=1))


class TestCsv:
    def test_columns_and_determinism(self, ou_setup):
        s = ou_setup
        cfg = FkConfig(n_paths=30, t_max=1.0, seed=4)
        pts = [[0.1], [0.7]]
        ests = fk_batch(s.system, s.decomp, s.eigenpair, s.domain, pts, cfg)
        text = _fk_estimates_csv(ests, pts)
        assert text.splitlines()[0] == \
            "query_index,x,value,std_error,n_capped,mean_exit_time,overflow_flag"
        assert text == _fk_estimates_csv(ests, pts)
        assert text.splitlines()[1].startswith("0,0.1,0.0,0.0,30,")

    def test_multidim_coordinates(self, linear2d_setup):
        s = linear2d_setup
        cfg = FkConfig(n_paths=10, t_max=0.5, seed=4)
        pts = [[0.1, -0.2]]
        ests = fk_batch(s.system, s.decomp, s.eigenpair, s.domain, pts, cfg)
        header = _fk_estimates_csv(ests, pts).splitlines()[0]
        assert header.split(",")[1:3] == ["x1", "x2"]


@pytest.fixture
def forced_fork(monkeypatch, forks):
    """Fork workers for any batch size; yields the pids forked, and checks
    afterwards that every child was reaped."""
    monkeypatch.setattr(workers_module, "_FORK_MIN_PATH_STEPS", 0)
    return forks


def refusing_drift(limit):
    """A 1-d drift -x that raises once a state passes ``limit``."""
    def drift(x):
        x = np.asarray(x, dtype=float)
        if np.any(x > limit):
            raise RuntimeError(f"drift refused a state above {limit}")
        return -x
    sys1 = SdeSystem(dim_state=1, dim_noise=1, drift=drift,
                     diffusion_factor=constant_diffusion(np.array([[0.2]])))
    return sys1, linearize(sys1, a_matrix=np.array([[-1.0]])), positive_pair(), \
        Domain(lower=[-1.0], upper=[1.0])


class TestForkedWorkers:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("case", ["mixed", "antithetic_odd", "guard", "nonlinear_2d"])
    def test_pinned_values_for_any_worker_count(self, forced_fork, case, workers):
        problem, pts, cfg, expected = pinned_cases()[case]
        ests = fk_batch(*problem, pts, cfg, workers=workers)
        assert [repr(e) for e in ests] == expected
        n_valid = sum(e.failure is None or "inside" not in e.failure for e in ests)
        assert len(forced_fork) == min(workers, n_valid) - 1

    def test_cli_outputs_identical_across_threads(self, forced_fork, tmp_path, capsys):
        from sdekoopman.cli import main
        (tmp_path / "cfg.json").write_text(json.dumps(
            {"model": {"name": "quadratic", "sigma": 0.3}, "seed": 42,
             "fk": {"n_paths": 300, "t_max": 3.0}}))
        (tmp_path / "q.csv").write_text("0.5\n-0.25\n0.9\n-1.1\n0.0\n")
        outputs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"t{threads}"
            assert main(["fk", "--config", str(tmp_path / "cfg.json"), "--queries",
                         str(tmp_path / "q.csv"), "--fit", "--out", str(out),
                         "--threads", threads]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(forced_fork) == 1 + 3
        assert outputs[0].keys() == {"fk_estimates.csv", "fitted_solution.json"}
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert capsys.readouterr().out.count("wrote") == 6

    @pytest.mark.parametrize("order", ["worker", "parent"])
    def test_exception_is_the_serial_one(self, forced_fork, order):
        # round-robin over two workers: the parent steps queries 0 and 2, the
        # child 1 and 3; only the query at 0.9 reaches the refused states
        problem = refusing_drift(0.85)
        pts = [[0.0], [0.9], [-0.5], [0.2]] if order == "worker" else \
            [[0.9], [0.0], [-0.5], [0.2]]
        cfg = FkConfig(dt=0.01, n_paths=50, t_max=1.0, seed=3)
        with pytest.raises(RuntimeError) as serial:
            fk_batch(*problem, pts, cfg, workers=1)
        with pytest.raises(RuntimeError) as forked:
            fk_batch(*problem, pts, cfg, workers=2)
        assert type(forked.value) is type(serial.value)
        assert str(forked.value) == str(serial.value) == "drift refused a state above 0.85"
        assert len(forced_fork) == 1

    def test_exception_that_cannot_travel_is_named(self, forced_fork):
        class Local(Exception):  # a local class does not pickle
            pass

        def drift(x):
            if np.any(np.asarray(x) > 0.85):
                raise Local("local refusal")
            return -np.asarray(x, dtype=float)

        sys1, dec, pair, dom = refusing_drift(0.85)
        sys1 = replace(sys1, drift=drift)
        cfg = FkConfig(dt=0.01, n_paths=50, t_max=1.0, seed=3)
        with pytest.raises(EvaluationError, match="worker 1 raised Local: local refusal"):
            fk_batch(sys1, dec, pair, dom, [[0.0], [0.9]], cfg, workers=2)

    def test_worker_that_dies_is_named(self, forced_fork, monkeypatch):
        parent = os.getpid()
        block = feynman_kac._fk_block

        def dying_block(*args):
            streams = args[5]
            if os.getpid() != parent and 2 in streams:
                os._exit(3)
            return block(*args)

        monkeypatch.setattr(feynman_kac, "_fk_block", dying_block)
        # valid queries 0, 1, 2 and 4 over three workers: worker 2 has query 2
        problem, pts, cfg, _ = pinned_cases()["mixed"]
        with pytest.raises(EvaluationError, match="worker 2 exited without a result"):
            fk_batch(*problem, pts, cfg, workers=3)
        assert len(forced_fork) == 2

    def test_serial_fallbacks(self, forced_fork, monkeypatch):
        problem, pts, cfg, expected = pinned_cases()["mixed"]
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:  # a second thread running: a fork would copy its locks
            assert [repr(e) for e in fk_batch(*problem, pts, cfg, workers=2)] == expected
        finally:
            release.set()
            other.join()
        # bound 4 queries x 40 paths x 50 steps, one below the threshold
        monkeypatch.setattr(workers_module, "_FORK_MIN_PATH_STEPS", 4 * 40 * 50 + 1)
        assert [repr(e) for e in fk_batch(*problem, pts, cfg, workers=2)] == expected
        assert forced_fork == []
        monkeypatch.setattr(workers_module, "_FORK_MIN_PATH_STEPS", 4 * 40 * 50)
        assert [repr(e) for e in fk_batch(*problem, pts, cfg, workers=2)] == expected
        assert len(forced_fork) == 1

    def test_fork_rule_at_the_measured_thresholds(self, monkeypatch):
        groups = []

        def record(task, gs):
            groups.append([len(g) for g in gs])
            return [[None] * len(g) for g in gs]

        monkeypatch.setattr(workers_module, "_run_groups", record)
        s = get_model("quadratic", sigma=0.5)
        pair = EigenPair(eigenvalue=1.0, left_eigenvector=np.array([1.0]))
        problem = (s.system, s.decomp, pair, s.domain)
        # the benchmark's cross-check batch, 9 queries x 1000 paths x 5000
        # steps, is dealt round-robin to every worker asked for, as are 2
        # queries x 100 paths x 5000 steps, whose bound 1e6 is the fewest
        # path steps that fork
        crosscheck = (np.linspace(-1.0, 1.0, 9)[:, None],
                      FkConfig(dt=0.01, n_paths=1000, t_max=50.0))
        fk_batch(*problem, *crosscheck, workers=2)
        fk_batch(*problem, *crosscheck, workers=8)
        fk_batch(*problem, [[-0.5], [0.5]], FkConfig(dt=0.01, n_paths=100, t_max=50.0),
                 workers=2)
        assert groups == [[5, 4], [2, 1, 1, 1, 1, 1, 1, 1], [1, 1]]

    def test_failed_fork_runs_the_rest_here(self, forced_fork, second_fork_fails):
        # four groups: worker 1 forks, the fork of worker 2 fails, so this
        # process runs groups 0, 2 and 3
        problem, pts, cfg, expected = pinned_cases()["mixed"]
        assert [repr(e) for e in fk_batch(*problem, pts, cfg, workers=4)] == expected
        assert len(forced_fork) == 1

    @pytest.mark.parametrize("workers", [1, 2, 3, 7, 9])
    def test_map_keeps_item_order(self, forks, workers):
        assert map_in_workers(lambda g: map(lambda x: x * x, g), range(7), workers,
                              FORK_STEPS) == [x * x for x in range(7)]
        assert len(forks) == min(workers, 7) - 1
        assert map_in_workers(lambda g: map(len, g), [], workers, FORK_STEPS) == []

    def test_map_forks_from_the_path_step_bound(self, forks):
        assert map_in_workers(lambda g: map(abs, g), [-1, 2], 2, FORK_STEPS - 1) == [1, 2]
        assert forks == []
        assert map_in_workers(lambda g: map(abs, g), [-1, 2], 2, FORK_STEPS) == [1, 2]
        assert len(forks) == 1

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_map_raises_the_first_failing_item(self, forks, workers):
        # items 3 and 4 fail; at 2 workers this process fails at item 4, its
        # third, after the worker failed at item 3, its second
        def square(x):
            if x in (3, 4):
                raise RuntimeError(f"item {x} refused")
            return x * x

        with pytest.raises(RuntimeError, match="^item 3 refused$"):
            map_in_workers(lambda g: map(square, g), range(6), workers, FORK_STEPS)
        assert len(forks) == workers - 1

    def test_first_item_failing_kills_the_workers(self, forks):
        # no failure can come before item 0's, so the worker that sleeps on
        # item 1 is killed, not awaited
        def item(x):
            if x == 0:
                raise RuntimeError("item 0 refused")
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^item 0 refused$"):
            map_in_workers(lambda g: map(item, g), [0, 1], 2, FORK_STEPS)
        assert time.monotonic() - start < 30
        assert len(forks) == 1

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_workers_validated(self, workers):
        problem, pts, cfg, _ = pinned_cases()["mixed"]
        with pytest.raises(ValueError, match="workers"):
            fk_batch(*problem, pts, cfg, workers=workers)

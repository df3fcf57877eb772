"""Cross-validation of the two solution routes for the correction PDE.

The collocation solver and the path estimator discretize the same equation
``(lambda - generator) h = w^T F``.  With a decaying discount (lambda > 0)
and a source-dominated problem the two must agree pointwise.  At the
benchmark eigenvalue lambda = -1 the discount grows, and the path
representation converges only where the smallest Dirichlet eigenvalue mu_1
of the generator's negative on the box exceeds |lambda| (a finite mean) and
2 |lambda| (a finite variance): at sigma = 2 the two agree, and at the
preset sigma = 0.3 the estimator reports divergence through its overflow/cap
flags rather than hiding it.
"""

import numpy as np
import pytest

from oracles import fd_dirichlet_eigenvalues_1d
from sdekoopman import (CollocationGrid, Domain, EigenPair, FkConfig, GaussianKernel,
                        fk_batch, fk_estimate, get_model, krr_fit, make_grid,
                        solve_system)


def quadratic_spectrum(sigma, k):
    """The ``k`` smallest Dirichlet eigenvalues of the quadratic model's
    negative generator on its box, from 2,000 interior finite-difference nodes."""
    s = get_model("quadratic", sigma=sigma)
    (lo,), (hi,) = s.domain.lower, s.domain.upper
    return fd_dirichlet_eigenvalues_1d(lambda x: s.system.drift_at(x[:, None])[:, 0],
                                       lambda x: np.full(x.size, sigma**2), lo, hi, 2000, k)


@pytest.fixture(scope="module")
def positive_lambda_problem():
    """Quadratic drift, sigma = 0.3, solved at lambda = +1 by collocation."""
    s = get_model("quadratic", sigma=0.3)
    pair = EigenPair(eigenvalue=1.0, left_eigenvector=np.array([1.0]))
    grid = make_grid(s.domain, s.grid_spec)
    sol, _, _ = solve_system(s.system, s.decomp, pair,
                             GaussianKernel(s.lengthscale), grid, s.gamma)
    return s, pair, sol


class TestAgreementAtPositiveLambda:
    def test_pointwise_estimates_match_collocation(self, positive_lambda_problem):
        s, pair, sol = positive_lambda_problem
        cfg = FkConfig(n_paths=4000, t_max=50.0, seed=31)
        for i, x0 in enumerate((-0.8, -0.4, 0.0, 0.4, 0.8)):
            est = fk_estimate(s.system, s.decomp, pair, s.domain,
                              np.array([x0]), cfg, query_index=i)
            href = sol.eval_h(np.array([x0]))
            assert abs(est.value - href) <= 3 * est.std_error + 0.05, \
                f"x={x0}: fk {est.value:.4f} vs collocation {href:.4f}"

    def test_ridge_fit_of_estimates_matches_collocation(self, positive_lambda_problem):
        s, pair, sol = positive_lambda_problem
        nodes = np.linspace(-1.0, 1.0, 9)[:, None]
        cfg = FkConfig(n_paths=3000, t_max=50.0, seed=77)
        ests = fk_batch(s.system, s.decomp, pair, s.domain, nodes, cfg)
        fit = krr_fit(GaussianKernel(s.lengthscale), CollocationGrid(points=nodes),
                      [e.value for e in ests], eta=1e-4, eigenpair=pair)
        worst_se = max(e.std_error for e in ests)
        fitted = fit.eval_h(nodes)
        reference = sol.eval_h(nodes)
        assert np.max(np.abs(fitted - reference)) <= 3 * worst_se + 0.05

    def test_paths_exit_or_cap_without_overflow(self, positive_lambda_problem):
        s, pair, _ = positive_lambda_problem
        est = fk_estimate(s.system, s.decomp, pair, s.domain, np.array([0.5]),
                          FkConfig(n_paths=500, t_max=50.0, seed=11))
        assert not est.discount_overflow  # decaying discount needs no guard


class TestBenchmarkEigenvalueRegime:
    def test_negative_lambda_is_flagged_as_divergent(self, quadratic_setup):
        # at lambda = -1 the running integral grows like e^{t}; the guard
        # truncates the horizon and the estimate is dominated by capped paths
        s = quadratic_setup
        est = fk_estimate(s.system, s.decomp, s.eigenpair, s.domain,
                          np.array([0.5]), FkConfig(n_paths=400, seed=13))
        assert est.discount_overflow
        assert est.n_capped >= 0.95 * est.n_paths  # interior exits are rare
        assert abs(est.value) > 1.0  # nowhere near the collocation-scale h

    def test_zero_source_is_immune_to_the_regime(self, ou_setup):
        # the linear benchmark has F == 0, so the estimate is exactly zero
        # even though the discount guard engages
        s = ou_setup
        est = fk_estimate(s.system, s.decomp, s.eigenpair, s.domain,
                          np.array([0.5]), FkConfig(n_paths=400, seed=13))
        assert est.value == 0.0 and est.std_error == 0.0
        assert est.discount_overflow


class TestDirichletSpectrum:
    def test_oracle_matches_the_driftless_closed_form(self):
        # G = 0: mu_k = (a/2) (k pi / 2.4)^2 on a box of width 2.4
        a, k = 0.7, np.arange(1, 3)
        mu = fd_dirichlet_eigenvalues_1d(lambda x: np.zeros(x.size),
                                         lambda x: np.full(x.size, a), -1.2, 1.2, 2000, 2)
        assert mu == pytest.approx(a / 2 * (k * np.pi / 2.4) ** 2, rel=1e-6)

    @pytest.mark.parametrize("sigma", [0.05, 0.3, 0.5])
    def test_reference_levels_sit_at_a_resonance(self, sigma):
        # the linear part's Koopman spectrum is {0, -1, -2, ...}, so mu_2 -> 1
        # as sigma -> 0 and the lambda = -1 Dirichlet problem is near-singular
        # at test2's levels (measured: 0.9993, 0.9747, 1.0751)
        assert 0.97 <= quadratic_spectrum(sigma, 2)[1] <= 1.08

    def test_first_eigenvalue_crosses_one_near_sigma_1_3(self):
        # measured: mu_1(1.25) = 0.899, mu_1(1.35) = 1.113
        assert quadratic_spectrum(1.25, 1)[0] < 1.0 < quadratic_spectrum(1.35, 1)[0]


class TestAgreementAtNegativeLambda:
    """The paper's lambda = -1 problem at sigma = 2.0, where mu_1 > 2 |lambda|."""

    def test_regimes(self):
        # sigma = 2.0: finite variance; sigma = 1.5: a finite mean only, where
        # the standard error is no guide (0.03 to 0.11 at 20,000 paths)
        assert quadratic_spectrum(2.0, 1)[0] == pytest.approx(2.950, abs=1e-3)
        assert 1.0 < quadratic_spectrum(1.5, 1)[0] < 2.0

    def test_extrapolated_estimates_match_collocation(self):
        # collocation's h, given to FK as its boundary data, solves the
        # Dirichlet problem FK estimates (2.6e-6 from the finite-difference
        # solve); the O(sqrt(dt)) exit bias is removed by v* = 2 v(dt/4) - v(dt).
        # Measured at seeds 5, 11, 23 and 101: |v* - h| / se* at most 2.4,
        # while the dt = 0.0025 estimate alone misses by 8.5 to 10.8 se
        s = get_model("quadratic", sigma=2.0)
        sol, _, _ = solve_system(s.system, s.decomp, s.eigenpair,
                                 GaussianKernel(s.lengthscale),
                                 make_grid(s.domain, s.grid_spec), s.gamma)
        domain = Domain(s.domain.lower, s.domain.upper, boundary_value=sol.eval_h)
        pts = np.array([[-0.4], [0.0], [0.4]])
        coarse, fine = ([(e.value, e.std_error) for e in
                         fk_batch(s.system, s.decomp, s.eigenpair, domain, pts,
                                  FkConfig(dt=dt, n_paths=20_000, seed=5), workers=1)]
                        for dt in (0.01, 0.0025))
        (v1, se1), (v4, se4) = np.array(coarse).T, np.array(fine).T
        h = sol.eval_h(pts)
        assert np.all(np.abs(2 * v4 - v1 - h) <= 4 * np.sqrt(4 * se4**2 + se1**2))
        assert np.all(np.abs(v4 - h) > 4 * se4)

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdekoopman import (Domain, EigenPair, SdeSystem, diffusion_tensor,
                        ellipticity_level, get_model, lambda_threshold,
                        left_eigenpair, linearize)
from sdekoopman.errors import EigenstructureError, EvaluationError
from sdekoopman.registry import constant_diffusion


def scalar_system(drift, sigma=0.5):
    return SdeSystem(dim_state=1, dim_noise=1, drift=drift,
                     diffusion_factor=constant_diffusion(np.array([[sigma]])),
                     label="test")


class TestLinearize:
    def test_linear_drift_has_no_remainder(self):
        sys1 = scalar_system(lambda x: -x)
        dec = linearize(sys1)
        assert dec.a_matrix == pytest.approx(np.array([[-1.0]]), abs=1e-9)
        xs = np.linspace(-2, 2, 17)[:, None]
        assert np.max(np.abs(dec.nonlinear_at(xs))) < 1e-9

    def test_quadratic_drift_splits_off_correct_remainder(self):
        sys1 = scalar_system(lambda x: -x + 0.3 * x**2)
        dec = linearize(sys1)
        assert dec.a_matrix == pytest.approx(np.array([[-1.0]]), abs=1e-8)
        x = np.array([0.7])
        assert dec.nonlinear_part(x)[0] == pytest.approx(0.3 * 0.49, abs=1e-7)

    def test_exact_a_matrix_override(self):
        A = np.array([[-1.0, 0.5], [0.0, -2.0]])
        sys2 = SdeSystem(dim_state=2, dim_noise=2, drift=lambda x: x @ A.T,
                         diffusion_factor=constant_diffusion(np.diag([0.3, 0.5])))
        dec = linearize(sys2, a_matrix=A)
        assert np.array_equal(dec.a_matrix, A)
        X = np.random.default_rng(1).uniform(-2, 2, size=(20, 2))
        assert np.max(np.abs(dec.nonlinear_at(X))) == 0.0

    def test_nonlinear_part_vanishes_at_equilibrium(self):
        for name in ("ou", "quadratic", "linear2d", "langevin"):
            setup = get_model(name)
            eq = setup.system.equilibrium
            assert np.linalg.norm(setup.decomp.nonlinear_part(eq)) <= 1e-10

    def test_decomposition_reconstructs_drift(self):
        # G(x) = A (x - x*) + F(x) on random domain points
        gen = np.random.default_rng(7)
        for name in ("ou", "quadratic", "linear2d", "langevin"):
            setup = get_model(name)
            d = setup.system.dim_state
            X = gen.uniform(setup.domain.lower, setup.domain.upper, size=(100, d))
            rebuilt = (X - setup.decomp.equilibrium) @ setup.decomp.a_matrix.T \
                + setup.decomp.nonlinear_at(X)
            assert np.max(np.abs(rebuilt - setup.system.drift_at(X))) < 1e-6

    def test_fd_jacobian_tolerance_window(self):
        sys1 = scalar_system(lambda x: -np.sin(x))
        dec = linearize(sys1, fd_step=1e-5)
        assert dec.a_matrix[0, 0] == pytest.approx(-1.0, abs=1e-8)

    def test_remainder_jacobian_vanishes_at_equilibrium(self):
        # F = G - A(x - x*) must be flat at x*, not just zero
        h = 1e-4
        for name in ("ou", "quadratic", "linear2d", "langevin"):
            setup = get_model(name)
            d = setup.system.dim_state
            x0 = setup.decomp.equilibrium
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                col = (setup.decomp.nonlinear_part(x0 + e)
                       - setup.decomp.nonlinear_part(x0 - e)) / (2 * h)
                assert np.max(np.abs(col)) < 1e-6

    def test_bad_fd_step_rejected(self):
        sys1 = scalar_system(lambda x: -x)
        with pytest.raises(ValueError):
            linearize(sys1, fd_step=0.5)

    def test_non_finite_drift_near_equilibrium(self):
        def drift(x):
            x = np.asarray(x, dtype=float)
            out = -x.copy()
            out[np.abs(x) > 0] = np.nan  # finite only exactly at 0
            return out

        sys1 = scalar_system(drift)
        with pytest.raises(EvaluationError, match="coordinate"):
            linearize(sys1)


class TestLeftEigenpair:
    def test_scalar(self):
        dec = linearize(scalar_system(lambda x: -x))
        pair = left_eigenpair(dec, which=-1.0)
        assert pair.eigenvalue == pytest.approx(-1.0, abs=1e-12)
        assert pair.left_eigenvector == pytest.approx(np.array([1.0]))

    def test_upper_triangular_2d(self):
        setup = get_model("linear2d")
        pair = left_eigenpair(setup.decomp, which=-1.0)
        assert pair.eigenvalue == pytest.approx(-1.0, abs=1e-12)
        assert pair.left_eigenvector == pytest.approx(np.array([1.0, 0.5]), abs=1e-12)

    def test_diagonal_select_second_mode(self):
        # oracle: direct solve of w^T A = lambda w^T for diagonal A
        A = np.diag([-2.0, -3.0])
        sys2 = SdeSystem(dim_state=2, dim_noise=2, drift=lambda x: x @ A.T,
                         diffusion_factor=constant_diffusion(np.eye(2)))
        pair = left_eigenpair(linearize(sys2, a_matrix=A), which=-3.0)
        assert pair.eigenvalue == pytest.approx(-3.0)
        assert pair.left_eigenvector == pytest.approx(np.array([0.0, 1.0]), abs=1e-12)

    def test_default_selects_slowest_mode(self):
        setup = get_model("langevin")  # spectrum {-0.5, -2}
        pair = left_eigenpair(setup.decomp)
        assert pair.eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_complex_pair_rejected(self):
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +/- i
        sys2 = SdeSystem(dim_state=2, dim_noise=2, drift=lambda x: x @ A.T,
                         diffusion_factor=constant_diffusion(np.eye(2)))
        with pytest.raises(EigenstructureError):
            left_eigenpair(linearize(sys2, a_matrix=A))

    @pytest.mark.parametrize("target", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_target_rejected(self, target):
        # every distance to a NaN target is NaN, and argmin would pick index 0
        with pytest.raises(ValueError, match="finite"):
            left_eigenpair(get_model("linear2d").decomp, which=target)

    def test_residual_invariant_on_builtins(self):
        for name in ("ou", "quadratic", "linear2d", "langevin"):
            setup = get_model(name)
            w, lam = setup.eigenpair.left_eigenvector, setup.eigenpair.eigenvalue
            resid = np.linalg.norm(w @ setup.decomp.a_matrix - lam * w)
            assert resid <= 1e-10 * np.linalg.norm(w)

    def test_zero_eigenvector_rejected(self):
        with pytest.raises(ValueError):
            EigenPair(eigenvalue=-1.0, left_eigenvector=np.zeros(2))


class TestDiffusionTensor:
    def test_scalar_value(self, ou_setup):
        a = diffusion_tensor(ou_setup.system, np.array([0.3]))
        assert a == pytest.approx(np.array([[0.25]]))

    def test_zero_sigma(self):
        sys1 = scalar_system(lambda x: -x, sigma=0.0)
        assert diffusion_tensor(sys1, np.array([1.0])) == pytest.approx(np.array([[0.0]]))

    def test_diagonal_product(self, linear2d_setup):
        # oracle: direct matrix product B B^T
        a = diffusion_tensor(linear2d_setup.system, np.array([0.1, -0.2]))
        assert a == pytest.approx(np.diag([0.09, 0.25]))

    @given(entries=st.lists(st.floats(-2, 2), min_size=4, max_size=4))
    def test_symmetric_psd(self, entries):
        B = np.array(entries).reshape(2, 2)
        sys2 = SdeSystem(dim_state=2, dim_noise=2, drift=lambda x: -x,
                         diffusion_factor=constant_diffusion(B))
        a = diffusion_tensor(sys2, np.array([0.5, -0.5]))
        assert np.max(np.abs(a - a.T)) <= 1e-14
        assert np.linalg.eigvalsh(a)[0] >= -1e-12


class TestDiagnostics:
    def test_ellipticity_constant_sigma(self, ou_setup):
        nu = ellipticity_level(ou_setup.system, ou_setup.domain, n_probe=32)
        assert nu == pytest.approx(0.25, abs=1e-12)

    def test_ellipticity_zero_sigma(self):
        sys1 = scalar_system(lambda x: -x, sigma=0.0)
        dom = Domain(lower=[-1.0], upper=[1.0])
        assert ellipticity_level(sys1, dom, n_probe=8) == 0.0

    def test_ellipticity_degenerate_langevin(self, langevin_setup):
        nu = ellipticity_level(langevin_setup.system, langevin_setup.domain, n_probe=16)
        assert nu == 0.0

    def test_ellipticity_probe_count_validated(self, ou_setup):
        with pytest.raises(ValueError):
            ellipticity_level(ou_setup.system, ou_setup.domain, n_probe=0)

    def test_lambda_threshold_linear(self, ou_setup):
        # div G = -1 everywhere, so the negative part is 1
        val = lambda_threshold(ou_setup.system, ou_setup.domain, grid_per_axis=16)
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_lambda_threshold_quadratic(self):
        # brute-force oracle: max over the grid of (1 - 0.6 x) / 2 on [-1.2, 1.2]
        setup = get_model("quadratic")
        val = lambda_threshold(setup.system, setup.domain, grid_per_axis=31)
        assert val == pytest.approx(0.86, abs=1e-8)

    def test_lambda_threshold_nonnegative_divergence(self):
        sys1 = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: 1.0 * x,
                         diffusion_factor=constant_diffusion(np.array([[0.5]])),
                         label="unstable")
        dom = Domain(lower=[-1.0], upper=[1.0])
        assert lambda_threshold(sys1, dom, grid_per_axis=8) == 0.0

    def test_coercivity_condition_reported_not_gated(self):
        # the benchmark eigenvalue -1 sits below the coercivity level; the
        # solver still runs, the diagnostic just reports the violation
        setup = get_model("quadratic")
        lam0 = lambda_threshold(setup.system, setup.domain, grid_per_axis=31)
        assert setup.eigenpair.eigenvalue < lam0


class TestTypes:
    def test_drift_must_vanish_at_equilibrium(self):
        with pytest.raises(ValueError, match="equilibrium"):
            scalar_system(lambda x: -x + 1.0)

    def test_diffusion_shape_checked(self):
        with pytest.raises(ValueError, match="diffusion_factor"):
            SdeSystem(dim_state=2, dim_noise=1, drift=lambda x: -x,
                      diffusion_factor=lambda x: np.zeros((1, 1)))

    def test_domain_ordering(self):
        with pytest.raises(ValueError):
            Domain(lower=[1.0], upper=[-1.0])

    def test_domain_membership(self):
        dom = Domain(lower=[-1.0, 0.0], upper=[1.0, 2.0])
        assert dom.contains(np.array([[0.0, 1.0], [2.0, 1.0]])).tolist() == [True, False]
        assert dom.contains_strict(np.array([0.0, 1.0]))
        assert not dom.contains_strict(np.array([1.0, 1.0]))

    def test_builtin_equilibria(self):
        for name in ("ou", "quadratic", "linear2d", "langevin"):
            setup = get_model(name)
            g0 = setup.system.drift(setup.system.equilibrium)
            assert np.linalg.norm(g0) <= 1e-10
            assert setup.domain.contains_strict(setup.system.equilibrium)

    def test_unknown_model_name(self):
        with pytest.raises(KeyError, match="registered"):
            get_model("pendulum")

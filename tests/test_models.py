import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sdekoopman import (Domain, EigenPair, SdeSystem, diffusion_tensor,
                        ellipticity_level, get_model, lambda_threshold,
                        left_eigenpair, linearize)
from sdekoopman.errors import EigenstructureError, EvaluationError
from sdekoopman.models import LinearDecomposition, small_matmul
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
        assert np.max(np.abs(dec.nonlinear_at(xs, sys1.drift_at(xs)))) < 1e-9

    def test_quadratic_drift_splits_off_correct_remainder(self):
        sys1 = scalar_system(lambda x: -x + 0.3 * x**2)
        dec = linearize(sys1)
        assert dec.a_matrix == pytest.approx(np.array([[-1.0]]), abs=1e-8)
        X = np.array([[0.7]])
        F = dec.nonlinear_at(X, sys1.drift_at(X))
        assert F[0, 0] == pytest.approx(0.3 * 0.49, abs=1e-7)

    def test_exact_a_matrix_override(self):
        A = np.array([[-1.0, 0.5], [0.0, -2.0]])
        sys2 = SdeSystem(dim_state=2, dim_noise=2, drift=lambda x: x @ A.T,
                         diffusion_factor=constant_diffusion(np.diag([0.3, 0.5])))
        dec = linearize(sys2, a_matrix=A)
        assert np.array_equal(dec.a_matrix, A)
        X = np.random.default_rng(1).uniform(-2, 2, size=(20, 2))
        assert np.max(np.abs(dec.nonlinear_at(X, sys2.drift_at(X)))) == 0.0

    def test_remainder_vanishes_at_equilibrium(self):
        for name in ("ou", "quadratic", "linear2d", "langevin"):
            setup = get_model(name)
            eq = setup.system.equilibrium[None, :]
            F = setup.decomp.nonlinear_at(eq, setup.system.drift_at(eq))
            assert np.linalg.norm(F) <= 1e-10

    def test_decomposition_reconstructs_drift(self):
        # G(x) = A (x - x*) + F(x) on random domain points
        gen = np.random.default_rng(7)
        for name in ("ou", "quadratic", "linear2d", "langevin"):
            setup = get_model(name)
            d = setup.system.dim_state
            X = gen.uniform(setup.domain.lower, setup.domain.upper, size=(100, d))
            rebuilt = (X - setup.decomp.equilibrium) @ setup.decomp.a_matrix.T \
                + setup.decomp.nonlinear_at(X, setup.system.drift_at(X))
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
                Xp, Xm = (x0 + e)[None, :], (x0 - e)[None, :]
                col = (setup.decomp.nonlinear_at(Xp, setup.system.drift_at(Xp))
                       - setup.decomp.nonlinear_at(Xm, setup.system.drift_at(Xm))) / (2 * h)
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


    def test_non_finite_drift_names_first_coordinate(self):
        # finite on the shifts along axis 0, non-finite on those along axis 1
        def drift(x):
            x = np.asarray(x, dtype=float)
            return -x + np.where(x[..., 1:] != 0.0, np.nan, 0.0)

        sys2 = SdeSystem(dim_state=2, dim_noise=2, drift=drift,
                         diffusion_factor=constant_diffusion(np.eye(2)))
        with pytest.raises(EvaluationError, match=r"\(coordinate 1\)"):
            linearize(sys2)

    @pytest.mark.parametrize("equilibrium", [[0.0, 0.0], [np.nan], 0.0])
    def test_equilibrium_must_be_a_finite_vector_of_the_state_dimension(self, equilibrium):
        with pytest.raises(ValueError, match=re.escape(
                f"equilibrium must be a finite vector of length 1, got {equilibrium!r}")):
            LinearDecomposition(a_matrix=[[-1.0]], equilibrium=equilibrium)


def per_state_2d():
    """A drift and sigma written for one state at a time; the drift also maps
    a batch of 2 states to shape (2, 2), so only more rows than d show that
    it is not a batch callable."""
    drift = lambda x: np.array([-x[0] + 0.5 * x[1] + 0.3 * x[1] ** 2, -2 * x[1]])
    sigma = lambda x: np.array([[0.3, 0.0], [0.1 * x[0], 0.5]])
    return SdeSystem(dim_state=2, dim_noise=2, drift=drift, diffusion_factor=sigma)


def batched_2d():
    """``per_state_2d`` with batch callables and the same arithmetic."""
    def drift(x):
        return np.stack([-x[..., 0] + 0.5 * x[..., 1] + 0.3 * x[..., 1] ** 2,
                         -2 * x[..., 1]], axis=-1)

    def sigma(x):
        x0 = x[..., 0]
        z = np.zeros_like(x0)
        return np.stack([np.stack([z + 0.3, z], axis=-1),
                         np.stack([0.1 * x0, z + 0.5], axis=-1)], axis=-2)

    return SdeSystem(dim_state=2, dim_noise=2, drift=drift, diffusion_factor=sigma)


class TestBatchEvaluation:
    """Each callable's batch form is decided once, at construction."""

    def test_per_state_callables_match_their_batched_twin(self):
        from sdekoopman import (FkConfig, GaussianKernel, GridSpec, fk_batch,
                                make_grid, solve_system)

        A = np.array([[-1.0, 0.5], [0.0, -2.0]])
        dom = Domain(lower=[-1.5, -1.5], upper=[1.5, 1.5])
        grid = make_grid(dom, GridSpec("tensor", 6))
        # at 2 paths a block of live paths has as many rows as the state has
        # coordinates, the case a 2-row batch probe mistook for a batch call
        queries = np.array([[0.4, -0.3]])
        results = []
        for system in (per_state_2d(), batched_2d()):
            dec = linearize(system, a_matrix=A)
            pair = left_eigenpair(dec, which=-1.0)
            sol, _, _ = solve_system(system, dec, pair, GaussianKernel(1.0), grid, 1e-4,
                                     condition=False)
            estimates = [repr(fk_batch(system, dec, pair, dom, queries,
                                       FkConfig(dt=0.01, n_paths=n, t_max=2.0, seed=3),
                                       workers=1)) for n in (2, 50)]
            results.append((sol.coefficients, estimates))
        (alpha, est), (alpha_twin, est_twin) = results
        assert np.array_equal(alpha, alpha_twin)
        assert est == est_twin
        assert "failure=None" in est[0] and "failure=None" in est[1]

    def test_callables_that_reject_a_batch_run_row_by_row(self):
        calls = []

        def one_state(fn):
            def wrapped(x):
                if np.ndim(x) != 1:
                    raise TypeError("one state at a time")
                calls.append(fn.__name__)
                return fn(x)
            return wrapped

        def drift(x):
            return -x

        def sigma(x):
            return np.diag(0.5 + x**2)

        system = SdeSystem(dim_state=2, dim_noise=2, drift=one_state(drift),
                           diffusion_factor=one_state(sigma))
        calls.clear()
        X = np.arange(10.0).reshape(5, 2)
        assert np.array_equal(system.drift_at(X), -X)
        assert np.array_equal(system.sigma_at(X), np.stack([np.diag(0.5 + x**2) for x in X]))
        assert calls == ["drift"] * 5 + ["sigma"] * 5


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

    @pytest.mark.parametrize("lam, w, what", [
        (float("nan"), [1.0], "eigenvalue"),
        (float("inf"), [1.0], "eigenvalue"),
        (-float("inf"), [1.0], "eigenvalue"),
        (-1.0, [float("nan")], "left_eigenvector"),
        (-1.0, [1.0, float("inf")], "left_eigenvector"),
    ])
    def test_non_finite_pair_rejected(self, lam, w, what):
        # a nan or inf pair made FK return nan and the solve fail in LAPACK
        with pytest.raises(ValueError, match=f"{what} must be finite"):
            EigenPair(eigenvalue=lam, left_eigenvector=np.array(w))


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


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestSmallMatmul:
    """small_matmul has the bits of ``@``, signs of zero included."""

    @staticmethod
    def operands():
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, np.inf, -np.inf,
                   1e308, -1e308, 1.0, -1.0]
        rng = np.random.default_rng(3)
        scaled = rng.standard_normal(48) * 10.0 ** rng.integers(-300, 300, 48)
        return np.concatenate([special, scaled])

    def test_one_column_bits_equal_matmul(self):
        vals = self.operands()
        Y = vals[:, None]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for m in vals:
                for M in (np.array([[m]]), np.array([m]), np.array([[m, -m, 2.0]])):
                    for rows in (Y, Y[3:4], Y[7]):
                        want, got = rows @ M, small_matmul(rows, M)
                        assert np.shape(got) == np.shape(want)
                        assert np.array_equal(bits(got), bits(want)), (rows, M)

    def test_two_columns_bits_equal_matmul(self):
        vals = self.operands()
        Y = np.stack([vals, vals[::-1]], axis=1)
        rng = np.random.default_rng(4)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for M in (rng.standard_normal((2, 2)), rng.standard_normal(2),
                      np.array([[-0.0, 1e-300], [0.0, -1e300]])):
                assert np.array_equal(bits(small_matmul(Y, M)), bits(Y @ M))

    def test_inner_dimensions_checked(self):
        # with one column, rows of M past the first were dropped: Y * M[0]
        for M in (np.array([1.0, 7.0]), np.ones((2, 3))):
            with pytest.raises(ValueError, match="inner dimensions differ"):
                small_matmul(np.ones((3, 1)), M)

import json
import re

import numpy as np
import pytest

from oracles import fd_dirichlet_1d
from sdekoopman import (AssembledSystem, CollocationGrid, CollocationSolution,
                        Domain, GaussianKernel, GridSpec, assemble, get_model,
                        make_grid, pde_residual, residual_test_points, solve,
                        solve_system)
from sdekoopman import collocation
from sdekoopman.collocation import (_json_array_chunks, load_solution, save_solution,
                                    solution_from_json_dict,
                                    solution_to_json_dict)
from sdekoopman.errors import AssemblyError, SingularSystemError
from sdekoopman.models import EigenPair, SdeSystem, linearize, tensor_points
from sdekoopman.registry import constant_diffusion


class TestMakeGrid:
    def test_uniform_1d_includes_endpoints(self):
        dom = Domain(lower=[-2.5], upper=[2.5])
        grid = make_grid(dom, GridSpec("uniform_1d", 40))
        assert grid.n_points == 40
        assert grid.points[0, 0] == -2.5 and grid.points[-1, 0] == 2.5
        spacing = np.diff(grid.points[:, 0])
        assert spacing == pytest.approx(np.full(39, 5.0 / 39), abs=1e-14)

    def test_tensor_grid_size(self):
        dom = Domain(lower=[-1.5, -1.5], upper=[1.5, 1.5])
        grid = make_grid(dom, GridSpec("tensor", 15))
        assert grid.n_points == 225
        assert grid.dim == 2
        assert dom.contains(grid.points).all()

    def test_sobol_points_inside_no_duplicates(self):
        dom = Domain(lower=[-1.0, 0.0], upper=[2.0, 1.0])
        grid = make_grid(dom, GridSpec("sobol", 12))
        assert grid.n_points == 12
        assert dom.contains(grid.points).all()  # duplicates rejected by the type

    def test_sobol_minimum_count(self):
        dom = Domain(lower=[-1.0], upper=[1.0])
        grid = make_grid(dom, GridSpec("sobol", 2))
        assert grid.n_points == 2

    def test_count_validation(self):
        with pytest.raises(ValueError):
            GridSpec("uniform_1d", 1)
        with pytest.raises(ValueError):
            GridSpec("chebyshev", 10)

    def test_uniform_1d_needs_1d_domain(self):
        dom = Domain(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        with pytest.raises(ValueError):
            make_grid(dom, GridSpec("uniform_1d", 5))

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            CollocationGrid(points=np.array([[0.0], [1.0], [0.0]]))

    @pytest.mark.parametrize("shape", [(0, 2), (3, 0), (0, 0)])
    def test_empty_point_set_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^grid points must have shape \(N, d\), "
                                             r"N, d >= 1, got " + re.escape(str(shape)) + "$"):
            CollocationGrid(points=np.empty(shape))

    def test_near_coincident_pair_in_2d_rejected(self):
        pts = make_grid(Domain(lower=[0.0, 0.0], upper=[1.0, 1.0]),
                        GridSpec("tensor", 5)).points.copy()
        pts[17] = pts[6] + np.array([3e-13, -4e-13])  # 5e-13 apart
        with pytest.raises(ValueError, match="grid points 6 and 17 coincide"):
            CollocationGrid(points=pts)
        pts[17] = pts[6] + np.array([2e-12, 0.0])
        assert CollocationGrid(points=pts).n_points == 25


def kdtree_first_pair(pts):
    """The k-d tree oracle: the smallest pair at most 1e-12 apart, or None."""
    from scipy.spatial import cKDTree
    close = cKDTree(pts).query_pairs(1e-12)
    return min(close) if close else None


class TestCoincidentNodes:
    """The blocked numpy check against ``cKDTree.query_pairs`` as the oracle."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("chunk_bytes", [256 << 10, 8 * 40 * 3])
    def test_matches_kdtree_oracle(self, monkeypatch, d, chunk_bytes):
        # 8 * 40 * 3 bytes is a block of 3 rows of the 40 x 40 squared
        # distances, so most planted pairs straddle blocks; the default cap
        # takes every row in one block.  block_rows would round 3 rows up to
        # 4, so the rows are set directly
        import sdekoopman.kernels as kernels
        monkeypatch.setattr(kernels, "block_rows", lambda n_cols: chunk_bytes // (8 * n_cols))
        rng = np.random.default_rng(100 + d)
        for trial in range(20):
            pts = rng.uniform(-1.0, 1.0, size=(40, d))
            i, j = sorted(rng.choice(40, size=2, replace=False))
            k, m = sorted(rng.choice(40, size=2, replace=False))
            offset = rng.standard_normal(d)
            offset /= np.linalg.norm(offset)
            pts[m] = pts[k] + 2e-12 * offset  # accepted
            assert kdtree_first_pair(pts) is None
            CollocationGrid(points=pts)
            pts[j] = pts[i] + 5e-13 * offset  # rejected
            want = kdtree_first_pair(pts)
            assert want is not None
            with pytest.raises(ValueError, match=rf"grid points {want[0]} and {want[1]} coincide"):
                CollocationGrid(points=pts)

    def test_first_pair_across_blocks(self, monkeypatch):
        # blocks of 2 rows; the first pair is reported whichever block holds
        # it, and a pair inside one block is not reported as its mirror (5, 4)
        import sdekoopman.kernels as kernels
        monkeypatch.setattr(kernels, "block_rows", lambda n_cols: 2)
        pts = np.arange(8.0)[:, None]
        pts[6] = pts[1]
        pts[5] = pts[4] + 1e-13
        with pytest.raises(ValueError, match="grid points 1 and 6 coincide"):
            CollocationGrid(points=pts)
        pts[7] = pts[0]
        with pytest.raises(ValueError, match="grid points 0 and 7 coincide"):
            CollocationGrid(points=pts)
        pts = np.arange(8.0)[:, None]
        pts[5] = pts[4] + 1e-13  # only a pair inside the third block
        with pytest.raises(ValueError, match="grid points 4 and 5 coincide"):
            CollocationGrid(points=pts)
        pts[5] = pts[3]  # a pair across the second and third blocks
        with pytest.raises(ValueError, match="grid points 3 and 5 coincide"):
            CollocationGrid(points=pts)


def ou_assembled():
    s = get_model("ou")
    grid = make_grid(s.domain, s.grid_spec)
    kern = GaussianKernel(s.lengthscale)
    return s, assemble(s.system, s.decomp, s.eigenpair, kern, grid, s.gamma), grid, kern


class TestAssemble:
    def test_gram_structure(self):
        _, asys, _, _ = ou_assembled()
        K = asys.gram
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == 1.0)

    def test_ou_diffusion_diagonal(self):
        # Tr(a)/(2 l^2) = 0.25/2 at every node for the scalar benchmark
        _, asys, _, _ = ou_assembled()
        assert np.diag(asys.diff_mat) == pytest.approx(np.full(40, -0.125), rel=1e-14)

    def test_linear_system_has_zero_source(self):
        _, asys, _, _ = ou_assembled()
        assert np.array_equal(asys.source, np.zeros(40))

    def test_zero_sigma_gives_exact_zero_diffusion(self):
        s = get_model("quadratic", sigma=0.0)
        grid = make_grid(s.domain, s.grid_spec)
        kern = GaussianKernel(s.lengthscale)
        asys = assemble(s.system, s.decomp, s.eigenpair, kern, grid, s.gamma)
        assert np.array_equal(asys.diff_mat, np.zeros((50, 50)))
        expected = asys.drift_mat - s.eigenpair.eigenvalue * asys.gram \
            + s.gamma * np.eye(50)
        assert np.array_equal(asys.system_matrix, expected)

    def test_trace_form_matches_vector_field_oracle(self):
        # the trace form never inverts a = sigma sigma^T, so it agrees with
        # the vector-field entries for singular diffusion (langevin) as well
        for s in (get_model("linear2d"), get_model("langevin")):
            grid = make_grid(s.domain, GridSpec("tensor", 6))
            kern = GaussianKernel(s.lengthscale)
            asys = assemble(s.system, s.decomp, s.eigenpair, kern, grid, s.gamma)
            X = grid.points
            sigma = s.system.diffusion_factor
            oracle = np.array([[kern.diffusion_entry_vector_fields(xi, xj, sigma(xi))
                                for xj in X] for xi in X])
            assert np.max(np.abs(asys.diff_mat - oracle)) <= 1e-12

    def test_langevin_uses_singular_tensor(self, langevin_setup):
        s = langevin_setup
        grid = make_grid(s.domain, GridSpec("tensor", 5))
        kern = GaussianKernel(s.lengthscale)
        asys = assemble(s.system, s.decomp, s.eigenpair, kern, grid, s.gamma)
        # only the momentum block diffuses: Tr(a) = 2 gamma / beta = 5
        assert np.diag(asys.diff_mat) == pytest.approx(np.full(25, -2.5), rel=1e-12)

    def test_negative_gamma_rejected(self):
        s = get_model("ou")
        grid = make_grid(s.domain, GridSpec("uniform_1d", 5))
        with pytest.raises(ValueError):
            assemble(s.system, s.decomp, s.eigenpair, GaussianKernel(1.0), grid, -1e-4)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        # named here, before a NaN system matrix fails inside the SVD
        s = get_model("ou")
        grid = make_grid(s.domain, GridSpec("uniform_1d", 5))
        with pytest.raises(ValueError, match="gamma must be finite"):
            assemble(s.system, s.decomp, s.eigenpair, GaussianKernel(1.0), grid, gamma)

    def test_left_eigenvector_must_match_the_state(self, quadratic_setup):
        # w = [1, 7] on the 1-D preset gave, bit for bit, the source of w = [1]
        s = quadratic_setup
        grid = make_grid(s.domain, GridSpec("uniform_1d", 5))
        pair = EigenPair(eigenvalue=-1.0, left_eigenvector=np.array([1.0, 7.0]))
        with pytest.raises(ValueError, match="inner dimensions differ"):
            assemble(s.system, s.decomp, pair, GaussianKernel(1.0), grid, 1e-4)

    def test_non_finite_entry_reported(self):
        with np.errstate(over="ignore", invalid="ignore"):
            sys1 = SdeSystem(dim_state=1, dim_noise=1,
                             drift=lambda x: -x * np.exp(500.0 * np.abs(x)),
                             diffusion_factor=constant_diffusion(np.array([[0.5]])))
            dec = linearize(sys1, a_matrix=np.array([[-1.0]]))
            grid = CollocationGrid(points=np.array([[0.0], [2.0]]))
            pair = get_model("ou").eigenpair
            with pytest.raises(AssemblyError, match=r"\(1, "):
                assemble(sys1, dec, pair, GaussianKernel(1.0), grid, 1e-4)

    def test_non_finite_source_entry_reported(self):
        # G = -x is finite, but F = G - A x overflows at the node x = 2
        sys1 = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: -x,
                         diffusion_factor=constant_diffusion(np.array([[0.5]])))
        dec = linearize(sys1, a_matrix=np.array([[-1e308]]))
        grid = CollocationGrid(points=np.array([[0.0], [2.0]]))
        with np.errstate(over="ignore"):
            with pytest.raises(AssemblyError, match=r"non-finite source entry at \(1,\)"):
                assemble(sys1, dec, get_model("ou").eigenpair, GaussianKernel(1.0), grid, 1e-4)

    def test_drift_reported_before_an_earlier_diffusion_entry(self, monkeypatch):
        # one row per block: row 0 has a non-finite D (sigma = inf), row 2 a
        # non-finite L (G = inf); the drift matrix is still named first, as
        # when each whole matrix was checked in turn
        def sigma(x):
            S = np.full(np.shape(x) + (1,), 0.5)
            S[np.asarray(x) < -0.5] = np.inf
            return S

        sys1 = SdeSystem(dim_state=1, dim_noise=1, diffusion_factor=sigma,
                         drift=lambda x: np.where(x > 0.5, np.inf, -x))
        dec = linearize(sys1, a_matrix=np.array([[-1.0]]))
        grid = CollocationGrid(points=np.array([[-1.0], [0.0], [1.0]]))
        monkeypatch.setattr(collocation, "block_rows", lambda n_cols: 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(AssemblyError, match=r"non-finite drift entry at \(2, 0\)"):
                assemble(sys1, dec, get_model("ou").eigenpair, GaussianKernel(1.0), grid, 1e-4)


def hand_built(M, f):
    """An assembled system with system matrix ``M`` and source ``f``, whose K,
    L and D are those of len(f) nodes of a 1-d system without drift or noise."""
    n = len(f)
    return AssembledSystem(system_matrix=M, source=f, regularization=0.0,
                           grid=CollocationGrid(points=np.arange(n, dtype=float)[:, None]),
                           kernel=GaussianKernel(1.0), drift=np.zeros((n, 1)),
                           sigma=np.zeros((n, 1, 1)))


class TestSolve:
    def test_zero_source_gives_zero_coefficients(self):
        _, asys, _, _ = ou_assembled()
        alpha, cond = solve(asys)
        assert np.array_equal(alpha, np.zeros(40))
        assert cond > 1.0

    def test_solver_backward_error(self, quadratic_solution):
        sol, asys, _ = quadratic_solution
        M, f, alpha = asys.system_matrix, asys.source, sol.coefficients
        resid = np.linalg.norm(M @ alpha + f)
        bound = 1e-10 * (np.linalg.norm(M) * np.linalg.norm(alpha) + np.linalg.norm(f))
        assert resid <= bound

    def test_singular_matrix_raises_with_estimate(self):
        asys = hand_built(np.zeros((4, 4)), np.zeros(4))
        with pytest.raises(SingularSystemError):
            solve(asys)

    @pytest.mark.parametrize("condition", [True, False])
    @pytest.mark.parametrize("pivot", [0.0, 1e-310])
    def test_singular_matrix_raises_whether_or_not_condition_is_asked(self, condition, pivot):
        # pivot 0 fails the LU; 1e-310 passes it with an infinite coefficient,
        # so with condition=False only the non-finite check reaches the SVD
        asys = hand_built(np.diag([1.0, 1.0, pivot]), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(SingularSystemError, match="numerically singular"):
            solve(asys, condition=condition)

    @pytest.mark.parametrize("condition", [True, False])
    def test_non_finite_coefficients_raise_with_estimate(self, condition):
        # the smallest singular value passes the SVD check, yet the LU
        # overflows the coefficients to inf and nan
        asys = hand_built(np.diag([1.0, 1.0, 1e-300]), np.array([0.0, 0.0, 1e10]))
        with pytest.raises(SingularSystemError, match="non-finite") as info:
            solve(asys, condition=condition)
        assert info.value.condition_estimate == pytest.approx(1e300)

    def test_deferred_condition_number_is_none(self):
        _, asys, _, _ = ou_assembled()
        alpha, cond = solve(asys, condition=False)
        assert cond is None
        assert np.array_equal(alpha, solve(asys)[0])

    def test_collocation_equations_hold_at_nodes_without_ridge(self):
        # gamma = 0 and a modest grid keep the system well conditioned, so
        # the PDE residual at the nodes is pure solver noise
        s = get_model("quadratic", sigma=0.3)
        grid = make_grid(s.domain, GridSpec("uniform_1d", 10))
        kern = GaussianKernel(0.5)
        sol, asys, cond = solve_system(s.system, s.decomp, s.eigenpair, kern, grid, 0.0)
        assert cond < 1e7
        res = pde_residual(sol, s.system, grid.points)
        assert res.max <= 1e-8


def record_kernel_blocks(monkeypatch):
    """The buffer behind each block :meth:`GaussianKernel.eval_blocks` yields,
    in order, recorded while the caller runs."""
    buffers = []
    eval_blocks = GaussianKernel.eval_blocks

    def record(self, X, Y, rows):
        for blk, K in eval_blocks(self, X, Y, rows):
            buffers.append(K.base if K.base is not None else K)
            yield blk, K

    monkeypatch.setattr(GaussianKernel, "eval_blocks", record)
    return buffers


class TestSolutionEvaluation:
    def test_zero_coefficients_zero_h(self, ou_setup):
        s = ou_setup
        grid = make_grid(s.domain, s.grid_spec)
        sol = CollocationSolution(coefficients=np.zeros(40), grid=grid,
                                  kernel=GaussianKernel(1.0), eigenpair=s.eigenpair,
                                  equilibrium=s.decomp.equilibrium)
        xs = np.linspace(-2.4, 2.4, 7)[:, None]
        assert np.array_equal(sol.eval_h(xs), np.zeros(7))
        assert sol.eval_phi(np.array([0.7])) == 0.7

    def test_ou_solution_is_identity(self, ou_setup):
        s = ou_setup
        grid = make_grid(s.domain, s.grid_spec)
        sol, _, _ = solve_system(s.system, s.decomp, s.eigenpair,
                                 GaussianKernel(s.lengthscale), grid, s.gamma)
        xs = np.linspace(-2.5, 2.5, 100)[:, None]
        assert np.max(np.abs(sol.eval_h(xs))) < 1e-12
        assert np.max(np.abs(sol.eval_phi(xs) - xs[:, 0])) < 1e-12

    def test_linear2d_plane_and_zero_level_set(self, linear2d_setup):
        s = linear2d_setup
        grid = make_grid(s.domain, s.grid_spec)
        sol, _, _ = solve_system(s.system, s.decomp, s.eigenpair,
                                 GaussianKernel(s.lengthscale), grid, s.gamma)
        pts = np.random.default_rng(0).uniform(-1.5, 1.5, size=(50, 2))
        exact = pts @ np.array([1.0, 0.5])
        assert np.max(np.abs(sol.eval_phi(pts) - exact)) < 1e-12
        # the zero level set is the line x1 = -0.5 x2
        line = np.array([[-0.5 * t, t] for t in np.linspace(-1, 1, 9)])
        assert np.max(np.abs(sol.eval_phi(line))) < 1e-12

    @pytest.mark.parametrize("eq", [[np.nan], [np.inf], [0.0, 0.0]])
    def test_equilibrium_is_a_finite_grid_vector(self, ou_setup, eq):
        # NaN made phi NaN and inf made it -inf, with no error; a 2-vector on
        # a 1-D grid raised numpy's matmul error, and only in eval_phi
        grid = make_grid(ou_setup.domain, ou_setup.grid_spec)
        with pytest.raises(ValueError, match="equilibrium must be a finite vector of length 1"):
            CollocationSolution(coefficients=np.zeros(grid.n_points), grid=grid,
                                kernel=GaussianKernel(1.0), eigenpair=ou_setup.eigenpair,
                                equilibrium=eq)

    def test_loaded_and_fitted_equilibria_are_checked(self, ou_setup, tmp_path):
        from sdekoopman.feynman_kac import krr_fit

        grid = make_grid(ou_setup.domain, ou_setup.grid_spec)
        sol = CollocationSolution(coefficients=np.zeros(grid.n_points), grid=grid,
                                  kernel=GaussianKernel(1.0), eigenpair=ou_setup.eigenpair)
        path = tmp_path / "solution.json"
        path.write_text(json.dumps(dict(solution_to_json_dict(sol), equilibrium=[np.nan])))
        with pytest.raises(ValueError, match="equilibrium must be a finite vector"):
            load_solution(path)
        with pytest.raises(ValueError, match="equilibrium must be a finite vector"):
            krr_fit(GaussianKernel(1.0), grid, np.zeros(grid.n_points), eta=1e-4,
                    equilibrium=np.array([0.0, 1.0]))

    @pytest.mark.parametrize("name, w", [("quadratic", [1.0, 5.0]), ("linear2d", [1.0])])
    def test_loaded_and_fitted_left_eigenvectors_are_checked(self, name, w, tmp_path):
        # a quadratic solution with w = [1, 5] loaded and evaluated as w = [1];
        # a 2-D one with w = [1] failed only in eval_phi, with numpy's matmul error
        from sdekoopman.feynman_kac import krr_fit

        s = get_model(name)
        grid = make_grid(s.domain, GridSpec("tensor", 3))
        sol = CollocationSolution(coefficients=np.zeros(grid.n_points), grid=grid,
                                  kernel=GaussianKernel(1.0), eigenpair=s.eigenpair)
        path = tmp_path / "solution.json"
        path.write_text(json.dumps(dict(solution_to_json_dict(sol), w=w)))
        message = f"left eigenvector must have length {grid.dim}"
        with pytest.raises(ValueError, match=message):
            load_solution(path)
        with pytest.raises(ValueError, match=message):
            krr_fit(GaussianKernel(1.0), grid, np.zeros(grid.n_points), eta=1e-4,
                    eigenpair=EigenPair(eigenvalue=0.0, left_eigenvector=np.array(w)))

    def test_quadratic_correction_is_nontrivial(self, quadratic_solution):
        sol, _, _ = quadratic_solution
        xs = np.linspace(-1.2, 1.2, 50)[:, None]
        assert np.max(np.abs(sol.eval_h(xs))) > 1e-3

    def test_equilibrium_offset(self):
        # shifted equilibrium: phi measures displacement from x* = 1
        A = np.array([[-1.0]])
        sys1 = SdeSystem(dim_state=1, dim_noise=1,
                         drift=lambda x: -(x - 1.0),
                         diffusion_factor=constant_diffusion(np.array([[0.3]])),
                         equilibrium=np.array([1.0]))
        dec = linearize(sys1, a_matrix=A)
        from sdekoopman.models import left_eigenpair
        pair = left_eigenpair(dec, which=-1.0)
        dom = Domain(lower=[-1.0], upper=[3.0])
        grid = make_grid(dom, GridSpec("uniform_1d", 20))
        sol, _, _ = solve_system(sys1, dec, pair, GaussianKernel(1.0), grid, 1e-4)
        assert abs(sol.eval_phi(np.array([1.0]))) < 1e-12
        assert sol.eval_phi(np.array([2.0])) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_eval_h_reuses_one_block(self, monkeypatch, dim):
        # a cap of 512 rows of the 30 nodes makes 1100 rows three chunks; each
        # fills the same kernel block, and the values keep the bits of one
        # full kernel matrix
        import sdekoopman.kernels as kernels
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 512 * 8 * 30)
        rng = np.random.default_rng(dim)
        grid = CollocationGrid(points=rng.uniform(-1, 1, (30, dim)))
        sol = CollocationSolution(coefficients=rng.normal(size=30), grid=grid,
                                  kernel=GaussianKernel(0.7),
                                  eigenpair=get_model("linear2d" if dim == 2 else "ou").eigenpair)
        xs = rng.uniform(-1.5, 1.5, (1100, dim))
        buffers = record_kernel_blocks(monkeypatch)
        got = sol.eval_h(xs)
        monkeypatch.undo()
        assert len(buffers) == 3
        assert all(b is buffers[0] for b in buffers)
        full = GaussianKernel(0.7).eval_matrix(xs, grid.points)
        want = np.concatenate([full[i:i + 512] @ sol.coefficients
                               for i in range(0, 1100, 512)])
        assert np.array_equal(got, want)

    def test_coefficient_validation(self, ou_setup):
        grid = make_grid(ou_setup.domain, ou_setup.grid_spec)
        with pytest.raises(ValueError):
            CollocationSolution(coefficients=np.zeros(7), grid=grid,
                                kernel=GaussianKernel(1.0), eigenpair=ou_setup.eigenpair)


class TestResiduals:
    def test_residual_drops_when_diffusion_added(self):
        means = {}
        for sig in (0.0, 0.3):
            s = get_model("quadratic", sigma=sig)
            grid = make_grid(s.domain, s.grid_spec)
            sol, _, _ = solve_system(s.system, s.decomp, s.eigenpair,
                                     GaussianKernel(s.lengthscale), grid, s.gamma)
            pts = residual_test_points(s.domain)
            means[sig] = pde_residual(sol, s.system, pts).mean
        assert means[0.3] < means[0.0]

    def test_default_test_points_1d(self):
        dom = Domain(lower=[-1.2], upper=[1.2])
        pts = residual_test_points(dom)
        assert pts.shape == (200, 1)
        assert pts[0, 0] == pytest.approx(-1.5) and pts[-1, 0] == pytest.approx(1.5)

    def test_default_test_points_2d(self):
        dom = Domain(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        pts = residual_test_points(dom)
        assert pts.shape == (400, 2)

    def test_per_point_shape(self, quadratic_solution, quadratic_setup):
        sol, _, _ = quadratic_solution
        pts = residual_test_points(quadratic_setup.domain)
        res = pde_residual(sol, quadratic_setup.system, pts)
        assert res.per_point.shape == (200,)
        assert res.max >= res.mean >= 0.0


def _einsum_half_trace(K, diff, S, l2):
    """The half Hessian-trace term by its einsum formula, from the (n, N, d)
    difference tensor."""
    a = np.einsum("idm,iem->ide", S, S)
    quad = np.einsum("ijd,ide,ije->ij", diff, a, diff)
    return 0.5 * K * (quad / l2**2 - np.einsum("idd->i", a)[:, None] / l2)


def _whole_residual(sol, system, X):
    """|r| at the points X by the whole-matrix formula, with its (n, N, d) tensor."""
    G, S = system.drift_at(X), system.sigma_at(X)
    w, lam = sol.eigenpair.left_eigenvector, sol.eigenpair.eigenvalue
    alpha, l2 = sol.coefficients, sol.kernel.lengthscale**2
    K = sol.kernel.eval_matrix(X, sol.grid.points)
    diff = X[:, None, :] - sol.grid.points[None, :, :]
    grad_phi = w[None, :] - np.einsum("njd,nj,j->nd", diff, K, alpha) / l2
    phi = (X - sol.equilibrium) @ w + K @ alpha
    r = (np.einsum("nd,nd->n", G, grad_phi) + _einsum_half_trace(K, diff, S, l2) @ alpha
         - lam * phi)
    return np.abs(r)


def _model_solution(name):
    s = get_model(name, **({"sigma": 0.3} if name == "quadratic" else {}))
    sol, _, _ = solve_system(s.system, s.decomp, s.eigenpair, GaussianKernel(s.lengthscale),
                             make_grid(s.domain, s.grid_spec), s.gamma)
    return s, sol


class TestResidualBlocks:
    """pde_residual in row blocks against the whole-matrix formula."""

    MODELS = ["ou", "quadratic", "linear2d", "langevin"]

    def test_row_rule(self):
        # 256 KiB blocks: 20 rows of 1600 columns, 8 rows of 1600 x 2
        assert collocation.block_rows(1600) == 20
        assert collocation.block_rows(3200) == 8
        assert collocation.block_rows(40) == 816
        assert collocation.block_rows(10**6) == 4

    @pytest.mark.parametrize("rows", [None, 4, 8, 12])
    @pytest.mark.parametrize("name", MODELS)
    def test_multiples_of_four_keep_the_bits(self, monkeypatch, name, rows):
        # 12 rows leave a ragged last block of 8 (200 points) or 4 (400)
        s, sol = _model_solution(name)
        pts = residual_test_points(s.domain)
        want = _whole_residual(sol, s.system, pts)
        if rows is not None:
            monkeypatch.setattr(collocation, "block_rows", lambda n_cols: rows)
        got = pde_residual(sol, s.system, pts)
        assert np.array_equal(got.per_point.view(np.uint64), want.view(np.uint64))
        assert got.mean == float(want.mean()) and got.max == float(want.max())

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("name", MODELS)
    def test_other_sizes_agree_to_rounding(self, monkeypatch, name, rows):
        # gemv rounds a lone row apart from rows in groups of 4: on quadratic
        # 200 of 200 points differ at 1 row and 84 at 7, by at most 8.1e-10
        # relative (ou, linear2d and langevin kept every bit)
        s, sol = _model_solution(name)
        pts = residual_test_points(s.domain)
        want = _whole_residual(sol, s.system, pts)
        monkeypatch.setattr(collocation, "block_rows", lambda n_cols: rows)
        got = pde_residual(sol, s.system, pts).per_point
        assert np.allclose(got, want, rtol=1e-8, atol=0.0)

    def test_reuses_one_block(self, monkeypatch):
        s, sol = _model_solution("linear2d")
        pts = residual_test_points(s.domain)
        want = _whole_residual(sol, s.system, pts)
        monkeypatch.setattr(collocation, "block_rows", lambda n_cols: 96)
        buffers = record_kernel_blocks(monkeypatch)
        got = pde_residual(sol, s.system, pts)
        assert len(buffers) == 5  # 400 points in blocks of 96
        assert all(b is buffers[0] for b in buffers)
        assert buffers[0].shape == (96, 225)
        assert np.array_equal(got.per_point.view(np.uint64), want.view(np.uint64))

    def test_memory_is_one_block(self, linear2d_setup, tracemalloc_peak):
        # the whole-matrix formula held the (400, 1600, 2) difference tensor
        # and (400, 1600) temporaries: 35.9 MB; 8-row blocks peak at 0.9 MB
        s = linear2d_setup
        grid = make_grid(s.domain, GridSpec("tensor", 40))
        sol = CollocationSolution(coefficients=np.random.default_rng(0).normal(size=1600),
                                  grid=grid, kernel=GaussianKernel(s.lengthscale),
                                  eigenpair=s.eigenpair)
        pts = residual_test_points(s.domain)
        peak = tracemalloc_peak(pde_residual, sol, s.system, pts)
        assert peak < 2 << 20


class TestEvaluationInputs:
    """pde_residual and eval_h name the shape or value of bad points."""

    def test_empty_test_points(self, quadratic_solution, quadratic_setup):
        sol, _, _ = quadratic_solution
        with pytest.raises(ValueError, match="test_points is empty"):
            pde_residual(sol, quadratic_setup.system, np.empty((0, 1)))

    def test_wrong_width(self, quadratic_solution, quadratic_setup):
        sol, _, _ = quadratic_solution
        pts = np.zeros((5, 2))
        with pytest.raises(ValueError, match=r"1 coordinates each, got shape \(5, 2\)"):
            pde_residual(sol, quadratic_setup.system, pts)
        with pytest.raises(ValueError, match=r"1 coordinates each, got shape \(5, 2\)"):
            sol.eval_h(pts)
        _, sol2 = _model_solution("linear2d")
        with pytest.raises(ValueError, match=r"2 coordinates each, got shape \(3,\)"):
            sol2.eval_phi(np.zeros(3))

    def test_non_finite_point(self, quadratic_solution, quadratic_setup):
        sol, _, _ = quadratic_solution
        pts = np.linspace(-1.0, 1.0, 6)[:, None]
        pts[3, 0] = np.nan
        with pytest.raises(ValueError, match=r"test point 3 is not finite: \[nan\]"):
            pde_residual(sol, quadratic_setup.system, pts)


class TestFiniteDifferenceOracle:
    """The paper's lambda = -1 problem, quadratic with sigma = 2."""

    @staticmethod
    def _solve(gamma):
        s = get_model("quadratic", sigma=2.0)
        sol, asys, _ = solve_system(s.system, s.decomp, s.eigenpair,
                                    GaussianKernel(s.lengthscale),
                                    make_grid(s.domain, s.grid_spec), gamma)
        return s, sol, asys

    @staticmethod
    def _oracle_gap(s, sol):
        """max |h_colloc - h_fd| over the oracle's 1000 cells; collocation
        poses no boundary condition, so the oracle takes h_colloc at both ends."""
        (lo,), (hi,) = s.domain.lower, s.domain.upper
        w = s.eigenpair.left_eigenvector
        x, h = fd_dirichlet_1d(lambda x: s.system.drift_at(x[:, None])[:, 0],
                               lambda x: np.full(x.size, 2.0**2),
                               lambda x: s.decomp.nonlinear_at(
                                   x[:, None], s.system.drift_at(x[:, None])) @ w,
                               s.eigenpair.eigenvalue, lo, hi,
                               sol.eval_h(np.array([[lo], [hi]])), 1000)
        return np.max(np.abs(sol.eval_h(x[:, None]) - h))

    def test_quadratic_matches_fd_dirichlet_solve(self):
        # gamma = 1e-8 keeps the ridge's residual below the oracle's O(dx^2)
        s, sol, _ = self._solve(1e-8)
        assert self._oracle_gap(s, sol) < 1e-6

    def test_ridge_at_benchmark_gamma(self):
        # gamma = 1e-4, the models' default: the ridge solves the nodal
        # equations up to exactly gamma * alpha_i (measured: the remainder is
        # 8.5e-15), moves h by 0.117 on the box (h(0): -0.5729 -> -0.5316) and
        # leaves the gap to the oracle at 2.5e-6
        _, ref, _ = self._solve(1e-8)
        s, sol, asys = self._solve(1e-4)
        alpha = sol.coefficients
        nodal = ((asys.drift_mat + asys.diff_mat - s.eigenpair.eigenvalue * asys.gram) @ alpha
                 + asys.source)
        assert np.max(np.abs(nodal + 1e-4 * alpha)) < 1e-12
        assert np.max(np.abs(nodal)) > 1e-4  # gamma * max|alpha| is 2.9e-4
        xs = np.linspace(-1.2, 1.2, 1001)[:, None]
        shift = np.max(np.abs(sol.eval_h(xs) - ref.eval_h(xs)))
        assert 0.10 < shift < 0.135
        assert self._oracle_gap(s, sol) < 1e-5


class TestDeterministicClosedForm:
    """Quadratic at sigma = 0, lambda = -1: phi = x / (1 - 0.3 x) exactly, so
    h_exact = 0.3 x^2 / (1 - 0.3 x).  phi itself solves the unconstrained
    problem's homogeneous equation, so the solve fixes h only up to c phi,
    and the ridge picks c."""

    @staticmethod
    def _scale_and_remainder(gamma):
        """The least-squares c in h - h_exact ~ c phi on 241 points of the
        box, and max |h - h_exact - c phi| there."""
        s = get_model("quadratic", sigma=0.0)
        sol, _, _ = solve_system(s.system, s.decomp, s.eigenpair,
                                 GaussianKernel(s.lengthscale),
                                 make_grid(s.domain, s.grid_spec), gamma)
        x = np.linspace(-1.2, 1.2, 241)
        phi = x / (1.0 - 0.3 * x)
        miss = sol.eval_h(x[:, None]) - 0.3 * x**2 / (1.0 - 0.3 * x)
        c = float(phi @ miss / (phi @ phi))
        return c, float(np.max(np.abs(miss - c * phi)))

    def test_solve_is_right_up_to_scale(self):
        # measured: c = -0.590, remainder 7.7e-4
        c, remainder = self._scale_and_remainder(1e-8)
        assert c == pytest.approx(-0.590, abs=5e-3)
        assert remainder < 1e-3

    def test_preset_gamma_leaves_a_remainder(self):
        # at the preset gamma = 1e-4 the ridge moves h off the line h_exact +
        # c phi: measured c = 0.244, remainder 0.41
        assert get_model("quadratic", sigma=0.0).gamma == 1e-4
        c, remainder = self._scale_and_remainder(1e-4)
        assert c == pytest.approx(0.244, abs=5e-3)
        assert remainder == pytest.approx(0.41, abs=5e-3)


class TestSerialization:
    def test_round_trip_preserves_evaluation(self, quadratic_solution):
        sol, asys, _ = quadratic_solution
        doc = solution_to_json_dict(sol, asys)
        blob = json.dumps(doc)
        restored = solution_from_json_dict(json.loads(blob))
        xs = np.linspace(-1.1, 1.1, 13)[:, None]
        assert np.array_equal(restored.eval_h(xs), sol.eval_h(xs))
        assert np.array_equal(restored.eval_phi(xs), sol.eval_phi(xs))
        assert np.array_equal(restored.coefficients, sol.coefficients)

    def test_schema_keys(self, quadratic_solution):
        sol, asys, _ = quadratic_solution
        doc = solution_to_json_dict(sol, asys)
        assert set(doc) == {"lengthscale", "lambda", "w", "gamma", "grid",
                            "coefficients", "gram", "drift", "diffusion", "source"}
        slim = solution_to_json_dict(sol)
        assert set(slim) == {"lengthscale", "lambda", "w", "gamma", "grid",
                             "coefficients"}

    def test_nonzero_equilibrium_survives_save_and_load(self, tmp_path):
        # phi = w (x - x*) + h: a reader that drops x* = 1 is off by w x* = 1
        sys1 = SdeSystem(dim_state=1, dim_noise=1, drift=lambda x: -(x - 1.0),
                         diffusion_factor=constant_diffusion(np.array([[0.3]])),
                         equilibrium=np.array([1.0]))
        dec = linearize(sys1, a_matrix=np.array([[-1.0]]))
        from sdekoopman.models import left_eigenpair
        grid = make_grid(Domain(lower=[-1.0], upper=[3.0]), GridSpec("uniform_1d", 20))
        sol, asys, _ = solve_system(sys1, dec, left_eigenpair(dec, which=-1.0),
                                    GaussianKernel(1.0), grid, 1e-4)
        path = tmp_path / "solution.json"
        save_solution(path, sol, asys)
        assert list(json.loads(path.read_text()))[5:8] == ["coefficients", "equilibrium",
                                                           "gram"]
        restored = load_solution(path)
        xs = np.linspace(-0.9, 2.9, 17)[:, None]
        assert np.array_equal(restored.eval_phi(xs).view(np.uint64),
                              sol.eval_phi(xs).view(np.uint64))
        assert np.array_equal(restored.equilibrium, [1.0])

    def test_matrices_survive_round_trip(self, quadratic_solution):
        _, asys, _ = quadratic_solution
        doc = json.loads(json.dumps(solution_to_json_dict(*_sol_pair(asys))))
        assert np.array_equal(np.asarray(doc["gram"]), asys.gram)
        assert np.array_equal(np.asarray(doc["source"]), asys.source)
        assert doc["gamma"] == asys.regularization


class TestSaveSolution:
    """save_solution writes exactly ``json.dumps(solution_to_json_dict(...)) + "\\n"``."""

    @staticmethod
    def _assert_same_bytes(tmp_path, sol, asys):
        path = tmp_path / "solution.json"
        save_solution(path, sol, asys)
        expected = json.dumps(solution_to_json_dict(sol, asys)) + "\n"
        assert path.read_bytes() == expected.encode("ascii")
        return path

    @pytest.mark.parametrize("with_asys", [True, False])
    def test_same_bytes_1d(self, tmp_path, quadratic_solution, with_asys):
        sol, asys, _ = quadratic_solution
        self._assert_same_bytes(tmp_path, sol, asys if with_asys else None)

    @pytest.mark.parametrize("with_asys", [True, False])
    def test_same_bytes_2d(self, tmp_path, linear2d_setup, with_asys):
        s = linear2d_setup
        grid = make_grid(s.domain, GridSpec("tensor", 6))
        sol, asys, _ = solve_system(s.system, s.decomp, s.eigenpair,
                                    GaussianKernel(s.lengthscale), grid, s.gamma)
        self._assert_same_bytes(tmp_path, sol, asys if with_asys else None)

    def test_same_bytes_special_values(self, tmp_path, quadratic_solution):
        # the regenerated K, L and D come with a source of special values
        sol, assembled, _ = quadratic_solution
        n = sol.grid.n_points
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e+16, 1e22, 0.1,
                            -0.1, 1.0, 1.0, -0.0, np.nan, np.inf, -np.inf, 0.0])
        mat = np.resize(special, (n, n))
        asys = AssembledSystem(system_matrix=mat, source=np.resize(special[::-1], n),
                               regularization=1e-05, grid=sol.grid, kernel=sol.kernel,
                               drift=assembled.drift, sigma=assembled.sigma)
        self._assert_same_bytes(tmp_path, sol, asys)
        text = (tmp_path / "solution.json").read_text()
        for spelling in ("-0.0, ", "5e-324", "1e-05", "1e+16", "1e+22",
                         "NaN", "-Infinity"):
            assert spelling in text

    def test_load_round_trip(self, tmp_path, quadratic_solution):
        sol, asys, _ = quadratic_solution
        restored = load_solution(self._assert_same_bytes(tmp_path, sol, asys))
        xs = np.linspace(-1.1, 1.1, 13)[:, None]
        assert np.array_equal(restored.coefficients, sol.coefficients)
        assert np.array_equal(restored.grid.points, sol.grid.points)
        assert np.array_equal(restored.eval_phi(xs), sol.eval_phi(xs))


def _sol_pair(asys):
    s = get_model("quadratic", sigma=0.3)
    grid = make_grid(s.domain, s.grid_spec)
    sol, _, _ = solve_system(s.system, s.decomp, s.eigenpair,
                             GaussianKernel(s.lengthscale), grid, s.gamma)
    return sol, asys


def _chunks_text(a):
    return b"".join(_json_array_chunks(collocation._row_blocks(a))).decode("ascii")


class TestBlockedWriter:
    """_json_array_chunks spells each row block on its own, byte for byte as
    ``json.dumps`` spells the whole array."""

    @pytest.mark.parametrize("rows", [1, 7])
    def test_blocks_of_one_and_seven_rows(self, monkeypatch, tmp_path, linear2d_setup, rows):
        s = linear2d_setup
        grid = make_grid(s.domain, GridSpec("tensor", 6))
        sol, asys, _ = solve_system(s.system, s.decomp, s.eigenpair,
                                    GaussianKernel(s.lengthscale), grid, s.gamma)
        monkeypatch.setattr(collocation, "block_rows", lambda n_cols: rows)
        path = tmp_path / "solution.json"
        save_solution(path, sol, asys)
        expected = json.dumps(solution_to_json_dict(sol, asys)) + "\n"
        assert path.read_bytes() == expected.encode("ascii")
        vec = np.linspace(-1.0, 1.0, 5 * grid.n_points + 3)  # 1-d, several blocks
        assert _chunks_text(vec) == json.dumps(vec.tolist())

    def test_non_finite_value_in_a_mostly_distinct_block(self, monkeypatch):
        # rows 3-5 hold a NaN, so that block is json.dumps's own; the other
        # blocks are finite and printed by orjson
        import orjson

        a = np.random.default_rng(3).standard_normal((9, 11))
        a[4, 3] = np.nan
        a[0, :2] = [-0.0, 0.0]
        expected = json.dumps(a.tolist())
        monkeypatch.setattr(collocation, "block_rows", lambda n_cols: 3)
        printed, dumped = [], []
        orjson_dumps, json_dumps = orjson.dumps, json.dumps
        monkeypatch.setattr(orjson, "dumps",
                            lambda v, **kw: printed.append(v.copy()) or orjson_dumps(v, **kw))
        monkeypatch.setattr(json, "dumps",
                            lambda v, **kw: dumped.append(v) or json_dumps(v, **kw))
        text = _chunks_text(a)
        monkeypatch.undo()
        assert text == expected
        assert "NaN" in text and text.startswith("[[-0.0, 0.0, ")
        assert len(printed) == 2
        assert np.array_equal(printed[0], a[:3]) and np.array_equal(printed[1], a[6:])
        assert len(dumped) == 1
        assert np.array_equal(dumped[0], a[3:6], equal_nan=True)

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0)])
    def test_empty_arrays(self, shape):
        a = np.empty(shape)
        assert _chunks_text(a) == json.dumps(a.tolist())

    def test_memory_is_one_block(self, tracemalloc_peak):
        # one block's text, its respellings and a few block-sized arrays: a
        # 3.1 MB peak for this 5.1 MB array; the text of the whole array is 13 MB
        a = np.random.default_rng(0).standard_normal((800, 800))
        peak = tracemalloc_peak(lambda: sum(1 for _ in _json_array_chunks(
            collocation._row_blocks(a))))
        assert peak < 4 * a.nbytes


def _adversarial_values(rng):
    """Finite float64 values where orjson's and ``float.__repr__``'s spellings
    part: random bit patterns, both sides of 1e-5, 1e-4 and 1e16, subnormals,
    signed zeros and integral floats at or above 1e16."""
    bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64)
    random = bits.view(np.float64)
    edges = np.array([1e-5, 1e-4, 1e16, 1e-6, 1e15, 1e22, 5e-324, 2.2250738585072014e-308])
    near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    decade = np.concatenate([rng.uniform(1e-5, 1e-4, 2000), np.arange(1, 1000) * 1e-5,
                             10 + np.arange(1, 1000) * 1e-5, 100 + np.arange(1, 1000) * 1e-5,
                             np.round(rng.uniform(1e-5, 1e-4, 500), 7)])
    subnormal = np.concatenate([rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64),
                                [-0.0, 0.0]])
    integral = np.concatenate([np.arange(1, 500) * 1e16, 2.0**np.arange(53, 1024),
                               [9007199254740993.0, 1.7976931348623157e308]])
    v = np.concatenate([random, near, decade, subnormal, integral])
    v = np.concatenate([v, -v])
    return rng.permutation(v[np.isfinite(v)])


class TestOrjsonSpelling:
    """The orjson path spells every finite float as ``json.dumps`` does, so an
    orjson version that prints any of them differently fails here."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_1d_in_ragged_blocks(self, monkeypatch, seed):
        v = _adversarial_values(np.random.default_rng(seed))
        monkeypatch.setattr(collocation, "block_rows", lambda n_cols: 4099)  # ragged last block
        assert len(v) % 4099
        assert _chunks_text(v) == json.dumps(v.tolist())

    @pytest.mark.parametrize("rows", [1, 7, 100])
    def test_2d_in_row_blocks(self, monkeypatch, rows):
        v = _adversarial_values(np.random.default_rng(2))
        a = v[:len(v) // 13 * 13].reshape(-1, 13)
        monkeypatch.setattr(collocation, "block_rows", lambda n_cols: rows)
        assert _chunks_text(a) == json.dumps(a.tolist())


def _one_shot(system, eigenpair, kern, grid, gamma):
    """K, L, D and M by the whole-matrix formula, with its (N, N, d) tensor."""
    X = grid.points
    l2 = kern.lengthscale**2
    K = kern.eval_matrix(X, X)
    diff = X[:, None, :] - X[None, :, :]
    L = -(np.einsum("id,ijd->ij", system.drift_at(X), diff) / l2) * K
    D = _einsum_half_trace(K, diff, system.sigma_at(X), l2)
    M = L + D - eigenpair.eigenvalue * K + gamma * np.eye(len(X))
    return K, L, D, M


def _far_node_problem(dim):
    """A ``dim``-d system on [-3, 3]^dim with a rotating drift, a
    state-dependent diffusion that drives the first coordinate only
    (singular for dim > 1), lambda = +1, and nodes so far apart for the
    lengthscale that the kernel underflows to 0.  For dim > 1 the
    off-diagonal ``L + D - lambda K`` then holds -0.0 entries, where D is
    0 * (-Tr a / l^2) and L is -0.0."""
    A = -np.eye(dim) + 2.0 * (np.eye(dim, k=1) - np.eye(dim, k=-1))

    def drift(x):
        return x @ A.T + 0.2 * x**2

    def sigma(x):
        x = np.asarray(x, dtype=float)
        S = np.zeros(x.shape + (1,))
        S[..., 0, 0] = 0.5 + 0.1 * x[..., 0]
        return S

    system = SdeSystem(dim_state=dim, dim_noise=1, drift=drift, diffusion_factor=sigma)
    pair = EigenPair(eigenvalue=1.0, left_eigenvector=np.eye(dim)[0])
    n = {1: 61, 2: 9, 3: 5}[dim]
    grid = CollocationGrid(points=tensor_points([-3.0] * dim, [3.0] * dim, n))
    return system, linearize(system, a_matrix=A), pair, GaussianKernel(0.1), grid


class TestBlockedAssembly:
    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blocks_equal_one_shot_bits(self, monkeypatch, dim, rows):
        system, decomp, pair, kern, grid = _far_node_problem(dim)
        expected = _one_shot(system, pair, kern, grid, 1e-4)
        if dim > 1:  # gamma I must reach the off-diagonal -0.0 entries too
            K, L, D, M = expected
            assert np.signbit((L + D - pair.eigenvalue * K)[M == 0]).any()
        monkeypatch.setattr(collocation, "block_rows", lambda n_cols: rows)
        asys = assemble(system, decomp, pair, kern, grid, 1e-4)
        got = (asys.gram, asys.drift_mat, asys.diff_mat, asys.system_matrix)
        for mat, want in zip(got, expected):
            assert np.array_equal(mat.view(np.uint64), want.view(np.uint64))

    def test_memory_is_one_matrix_and_one_block(self, linear2d_setup, tracemalloc_peak):
        # the whole-matrix formula also held the (N, N, 2) difference tensor
        # and whole-matrix temporaries: 52 MB here; keeping K, L, D and M
        # filled in blocks took 28 MB
        s = linear2d_setup
        grid = make_grid(s.domain, GridSpec("tensor", 30))
        kern = GaussianKernel(s.lengthscale)
        peak = tracemalloc_peak(assemble, s.system, s.decomp, s.eigenpair, kern, grid, s.gamma)
        n = grid.n_points
        # M, plus half a matrix for one block's K, L, D, temporaries and masks
        assert peak < 1.5 * 8 * n * n

    def test_regenerated_matrices_are_fresh(self):
        _, asys, _, _ = ou_assembled()
        asys.gram[0, 0] = 7.0
        assert asys.gram[0, 0] == 1.0


class TestExplicitSums:
    """The drift and Hessian-trace terms of ``_blocks`` are written as explicit
    sums; they equal the einsum formulas bit for bit, signed zeros included."""

    @staticmethod
    def random_problem(dim):
        rng = np.random.default_rng(10 + dim)
        N = 23
        X = rng.uniform(-1.0, 1.0, (N, dim))
        X[4, 0] = X[9, 0]  # a zero difference off the diagonal too
        G = rng.standard_normal((N, dim))
        G[::5] = -0.0  # -0.0 products, which a zeroed accumulator turns to +0.0
        # a correlated sigma: a = sigma sigma^T has off-diagonal entries
        S = rng.standard_normal((N, dim, dim + 1))
        return X, G, S

    @pytest.mark.parametrize("rows", [1, 7, 100])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_blocks_equal_einsum_bits(self, monkeypatch, dim, rows):
        X, G, S = self.random_problem(dim)
        N = len(X)
        kern = GaussianKernel(0.7)
        l2 = kern.lengthscale**2
        K = kern.eval_matrix(X, X)
        diff = X[:, None, :] - X[None, :, :]
        want_L = -(np.einsum("id,ijd->ij", G, diff) / l2) * K
        want_D = _einsum_half_trace(K, diff, S, l2)
        # the rows with G = -0.0 are -0.0 only through the zeroed sum: its
        # products are -0.0 wherever the difference is positive
        assert np.signbit(want_L[::5]).all()
        monkeypatch.setattr(collocation, "block_rows", lambda n_cols: rows)  # 23 % 7: short last
        got_L, got_D = np.empty((N, N)), np.empty((N, N))
        for blk, _, L, D in collocation._blocks(kern, X, G, S):
            got_L[blk], got_D[blk] = L, D
        assert np.array_equal(got_L.view(np.uint64), want_L.view(np.uint64))
        assert np.array_equal(got_D.view(np.uint64), want_D.view(np.uint64))

import json

import numpy as np
import pytest

from sdekoopman import (AssembledSystem, CollocationGrid, CollocationSolution,
                        Domain, GaussianKernel, GridSpec, assemble, get_model,
                        make_grid, pde_residual, residual_test_points, solve,
                        solve_system)
from sdekoopman.collocation import (load_solution, save_solution,
                                    solution_from_json_dict,
                                    solution_to_json_dict)
from sdekoopman.errors import AssemblyError, SingularSystemError
from sdekoopman.models import SdeSystem, linearize
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
        # takes every row in one block
        import sdekoopman.kernels as kernels
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", chunk_bytes)
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
        monkeypatch.setattr(kernels, "_CHUNK_BYTES", 8 * 8 * 2)
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
        n = 4
        asys = AssembledSystem(gram=np.eye(n), drift_mat=np.zeros((n, n)),
                               diff_mat=np.zeros((n, n)), source=np.zeros(n),
                               system_matrix=np.zeros((n, n)), regularization=0.0)
        with pytest.raises(SingularSystemError):
            solve(asys)

    @pytest.mark.parametrize("condition", [True, False])
    @pytest.mark.parametrize("pivot", [0.0, 1e-310])
    def test_singular_matrix_raises_whether_or_not_condition_is_asked(self, condition, pivot):
        # pivot 0 fails the LU; 1e-310 passes it with an infinite coefficient,
        # so with condition=False only the non-finite check reaches the SVD
        M = np.diag([1.0, 1.0, pivot])
        asys = AssembledSystem(gram=np.eye(3), drift_mat=np.zeros((3, 3)),
                               diff_mat=np.zeros((3, 3)), source=np.array([0.0, 0.0, 1.0]),
                               system_matrix=M, regularization=0.0)
        with pytest.raises(SingularSystemError, match="numerically singular"):
            solve(asys, condition=condition)

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
        # 1100 rows make three chunks; each fills the same kernel block and
        # scratch, and the values keep the bits of one full kernel matrix
        rng = np.random.default_rng(dim)
        grid = CollocationGrid(points=rng.uniform(-1, 1, (30, dim)))
        sol = CollocationSolution(coefficients=rng.normal(size=30), grid=grid,
                                  kernel=GaussianKernel(0.7),
                                  eigenpair=get_model("linear2d" if dim == 2 else "ou").eigenpair)
        xs = rng.uniform(-1.5, 1.5, (1100, dim))
        buffers = []
        eval_matrix = GaussianKernel.eval_matrix

        def record(self, X, Y, out=None, scratch=None):
            buffers.append((out.base if out.base is not None else out, scratch))
            return eval_matrix(self, X, Y, out=out, scratch=scratch)

        monkeypatch.setattr(GaussianKernel, "eval_matrix", record)
        got = sol.eval_h(xs)
        monkeypatch.undo()
        assert len(buffers) == 3
        assert all(b[0] is buffers[0][0] and b[1] is buffers[0][1] for b in buffers)
        assert (buffers[0][1] is None) == (dim == 1)
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
        sol, _, _ = quadratic_solution
        n = sol.grid.n_points
        special = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e+16, 1e22, 0.1,
                            -0.1, 1.0, 1.0, -0.0, np.nan, np.inf, -np.inf, 0.0])
        mat = np.resize(special, (n, n))
        asys = AssembledSystem(gram=mat, drift_mat=mat.T.copy(), diff_mat=-mat,
                               source=np.resize(special[::-1], n),
                               system_matrix=mat, regularization=1e-05)
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

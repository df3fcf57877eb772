import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (fd_directional_second, fd_grad, fd_hessian,
                     random_kernel_cases, random_spd_matrix)
import sdekoopman.kernels as kernels
from sdekoopman import Domain, GaussianKernel, fill_distance, power_function
from sdekoopman.errors import SingularSystemError
from sdekoopman.models import tensor_points

EXP_HALF = 0.6065306597126334  # exp(-0.5)


def vec_pair(max_abs=3.0):
    d = st.shared(st.integers(1, 3), key="dim")
    coords = st.floats(-max_abs, max_abs, allow_nan=False)
    return d.flatmap(lambda n: st.tuples(
        st.lists(coords, min_size=n, max_size=n),
        st.lists(coords, min_size=n, max_size=n)))


class TestEval:
    def test_coincident_points(self):
        k = GaussianKernel(0.7)
        assert k.eval(np.array([1.0, -2.0]), np.array([1.0, -2.0])) == 1.0

    def test_frozen_unit_case(self):
        k = GaussianKernel(1.0)
        assert k.eval(np.array([0.0]), np.array([1.0])) == pytest.approx(EXP_HALF, rel=1e-14)

    def test_monotone_decay_with_distance(self):
        k = GaussianKernel(1.0)
        vals = [k.eval(np.array([0.0]), np.array([r])) for r in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10

    def test_dimension_mismatch(self):
        k = GaussianKernel(1.0)
        with pytest.raises(ValueError):
            k.eval(np.zeros(2), np.zeros(3))

    def test_positive_lengthscale_required(self):
        with pytest.raises(ValueError):
            GaussianKernel(0.0)

    @pytest.mark.parametrize("lengthscale", [np.inf, np.nan])
    def test_finite_lengthscale_required(self, lengthscale):
        # an infinite lengthscale makes every kernel entry 1: the quadratic
        # preset then solved with cond 5.0e5 to a meaningless h(0.5) = -0.150
        with pytest.raises(ValueError, match=f"positive and finite, got {lengthscale!r}"):
            GaussianKernel(lengthscale)

    @given(vec_pair())
    def test_symmetry(self, pair):
        x, y = (np.array(v) for v in pair)
        k = GaussianKernel(0.9)
        assert k.eval(x, y) == k.eval(y, x)

    @given(vec_pair(max_abs=2.0), st.floats(-2.0, 2.0, allow_nan=False))
    def test_translation_invariance(self, pair, shift):
        x, y = (np.array(v) for v in pair)
        s = np.full(x.size, shift)
        k = GaussianKernel(0.8)
        assert k.eval(x + s, y + s) == pytest.approx(k.eval(x, y), abs=1e-14)
        assert np.allclose(k.grad_x(x + s, y + s), k.grad_x(x, y), atol=1e-14)
        assert np.allclose(k.hessian_x(x + s, y + s), k.hessian_x(x, y), atol=1e-14)


def one_shot_matrix(k, X, Y):
    """The unchunked (rows, N, d) difference-tensor expression."""
    return np.exp(-((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
                  / (2.0 * k.lengthscale**2))


class TestEvalMatrixChunks:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("chunk_rows", [1, 7])
    def test_bitwise_equal_to_one_shot(self, monkeypatch, dim, chunk_rows):
        gen = np.random.default_rng(dim)
        X = gen.uniform(-2.0, 2.0, (30, dim))  # 30 rows: not a multiple of 7
        Y = gen.uniform(-2.0, 2.0, (11, dim))
        k = GaussianKernel(0.7)
        monkeypatch.setattr(kernels, "block_rows", lambda n_cols: chunk_rows)
        chunked = k.eval_matrix(X, Y)
        assert chunked.shape == (30, 11)
        assert np.array_equal(chunked.view(np.uint64), one_shot_matrix(k, X, Y).view(np.uint64))

    @pytest.mark.parametrize("dim", [8, 12])
    def test_close_to_one_shot_from_dim_8(self, monkeypatch, dim):
        # numpy sums 8 or more terms pairwise, the block loop left to right
        gen = np.random.default_rng(dim)
        X = gen.uniform(-1.0, 1.0, (30, dim))
        Y = gen.uniform(-1.0, 1.0, (11, dim))
        k = GaussianKernel(1.5)
        monkeypatch.setattr(kernels, "block_rows", lambda n_cols: 7)
        assert np.allclose(k.eval_matrix(X, Y), one_shot_matrix(k, X, Y),
                           rtol=1e-14, atol=0.0)


def drain(blocks):
    """Run a row-block pass to its end."""
    for _ in blocks:
        pass


class TestRowBlocks:
    """The one row-block pass against the whole-array formulas, bit for bit."""

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_blocks_equal_whole_array_bits(self, dim, rows):
        # 30 rows leave a ragged last block of 2 at 7 rows; the default
        # takes all 30 in one block
        gen = np.random.default_rng(10 + dim)
        X = gen.uniform(-2.0, 2.0, (30, dim))
        Y = gen.uniform(-2.0, 2.0, (11, dim))
        rows = kernels.block_rows(Y.shape[0]) if rows is None else rows
        k = GaussianKernel(0.7)
        whole = {"sq": ((X[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2),
                 "kern": one_shot_matrix(k, X, Y)}
        passes = {"sq": kernels._sq_dist_blocks(X, Y, rows),
                  "kern": k.eval_blocks(X, Y, rows)}
        for name, blocks in passes.items():
            got, bases, n_blocks = np.full((30, 11), np.nan), set(), 0
            for blk, B in blocks:
                assert B.shape == (len(X[blk]), 11)
                got[blk] = B
                bases.add(id(B.base))
                n_blocks += 1
            assert n_blocks == -(-30 // rows)
            assert np.array_equal(got.view(np.uint64), whole[name].view(np.uint64))
            assert len(bases) == 1  # every block reuses one buffer

    def test_point_sets_of_different_width_rejected(self):
        # every pairwise pass compares all coordinates or refuses: a pass over
        # A's columns alone would compare a 1-D point with 2-D nodes by x1
        k, grid = GaussianKernel(1.0), np.array([[0.0, 0.0], [0.5, 1.0]])
        line = np.array([[0.0], [1.0]])
        calls = {"eval_matrix": lambda: k.eval_matrix(line, grid),
                 "eval_matrix swapped": lambda: k.eval_matrix(grid, line),
                 "first_close_pair": lambda: kernels.first_close_pair(np.empty((3, 0)), 1e-12),
                 "power_function": lambda: power_function(k, grid, np.array([0.0])),
                 "fill_distance": lambda: fill_distance(grid, Domain([-1.0], [1.0]), 100)}
        for call in calls.values():
            with pytest.raises(ValueError, match=r"same positive number of coordinates, "
                                                 r"got shapes \(\d+, [0-2]\) and "
                                                 r"\(\d+, [0-2]\)$"):
                call()

    def test_one_dimensional_points_need_no_scratch(self, tracemalloc_peak):
        # 1-D points allocate one block of 100 x 500 floats (400 kB) and no
        # scratch; 2-D points add one scratch block and the transposed Y.
        # numpy's ufunc loops take about 130 kB of their own either way
        gen = np.random.default_rng(5)
        peaks = {}
        for dim in (1, 2):
            X, Y = gen.uniform(size=(300, dim)), gen.uniform(size=(500, dim))
            peaks[dim] = tracemalloc_peak(drain, kernels._sq_dist_blocks(X, Y, 100))
        assert peaks[1] < 2 * 8 * 100 * 500
        assert peaks[2] - peaks[1] >= 8 * 100 * 500


class TestDerivatives:
    def test_grad_zero_at_coincident(self):
        k = GaussianKernel(1.3)
        assert np.array_equal(k.grad_x(np.ones(2), np.ones(2)), np.zeros(2))

    def test_grad_frozen_value(self):
        k = GaussianKernel(1.0)
        g = k.grad_x(np.array([1.0]), np.array([0.0]))
        assert g[0] == pytest.approx(-EXP_HALF, rel=1e-12)

    @given(vec_pair(max_abs=2.0))
    def test_grad_antisymmetry(self, pair):
        x, y = (np.array(v) for v in pair)
        k = GaussianKernel(1.1)
        assert np.array_equal(k.grad_x(x, y), -k.grad_x(y, x))

    def test_grad_matches_finite_differences(self):
        for x, y, ell in random_kernel_cases(60, seed=11):
            k = GaussianKernel(ell)
            exact = k.grad_x(x, y)
            approx = fd_grad(k, x, y)
            assert np.linalg.norm(approx - exact) <= 1e-6 * max(np.linalg.norm(exact), 1e-8)

    def test_hessian_at_coincident_is_scaled_identity(self):
        k = GaussianKernel(1.0)
        assert np.array_equal(k.hessian_x(np.zeros(2), np.zeros(2)), -np.eye(2))

    def test_hessian_trace_at_coincident(self):
        for ell, d in ((0.5, 1), (0.8, 2), (1.7, 3)):
            k = GaussianKernel(ell)
            H = k.hessian_x(np.zeros(d), np.zeros(d))
            assert np.trace(H) == pytest.approx(-d / ell**2, rel=1e-14)

    def test_hessian_frozen_1d_case(self):
        # independent oracle first: the fd Hessian fixes the expected value
        k = GaussianKernel(0.8)
        x, y = np.array([0.5]), np.array([0.0])
        oracle = fd_hessian(k, x, y)[0, 0]
        got = k.hessian_x(x, y)[0, 0]
        assert got == pytest.approx(oracle, rel=1e-6)
        assert got < 0.0
        assert got == pytest.approx(-0.7832159407604473, rel=1e-12)

    def test_hessian_matches_finite_differences(self):
        for x, y, ell in random_kernel_cases(60, seed=13):
            k = GaussianKernel(ell)
            exact = k.hessian_x(x, y)
            approx = fd_hessian(k, x, y)
            denom = max(np.linalg.norm(exact), 1e-8)
            assert np.linalg.norm(approx - exact) <= 1e-6 * denom
            assert np.max(np.abs(exact - exact.T)) == 0.0


class TestDiffusionEntries:
    def test_frozen_coincident_entry(self):
        k = GaussianKernel(0.8)
        x = np.array([0.3])
        entry = k.diffusion_trace_entry(x, x, np.array([[0.25]]))
        assert entry == pytest.approx(-0.1953125, rel=1e-14)  # -Tr(a) / (2 l^2)

    def test_zero_tensor(self):
        k = GaussianKernel(1.0)
        assert k.diffusion_trace_entry(np.ones(2), np.zeros(2), np.zeros((2, 2))) == 0.0

    def test_equals_half_trace_of_product(self):
        # oracle: (1/2) Tr[a hess] with dense products
        for i, (x, y, ell) in enumerate(random_kernel_cases(40, seed=5, max_dim=3)):
            k = GaussianKernel(ell)
            a = random_spd_matrix(x.size, seed=100 + i)
            entry = k.diffusion_trace_entry(x, y, a)
            oracle = 0.5 * np.trace(a @ k.hessian_x(x, y))
            assert entry == pytest.approx(oracle, abs=1e-12, rel=1e-12)

    def test_asymmetric_tensor_rejected(self):
        k = GaussianKernel(1.0)
        with pytest.raises(ValueError, match="symmetric"):
            k.diffusion_trace_entry(np.zeros(2), np.ones(2),
                                    np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_vector_fields_match_trace_form(self):
        # algebraic identity sum_k (sigma_k . u)^2 = u^T (sigma sigma^T) u
        gen = np.random.default_rng(23)
        for _ in range(100):
            d = int(gen.integers(1, 4))
            m = int(gen.integers(1, 4))
            ell = float(gen.uniform(0.6, 1.8))
            x, y = gen.uniform(-1, 1, d), gen.uniform(-1, 1, d)
            S = gen.uniform(-1, 1, (d, m))
            k = GaussianKernel(ell)
            a = S @ S.T
            assert k.diffusion_entry_vector_fields(x, y, S) == pytest.approx(
                k.diffusion_trace_entry(x, y, a), abs=1e-12, rel=1e-12)

    def test_vector_fields_zero_columns(self):
        k = GaussianKernel(1.0)
        assert k.diffusion_entry_vector_fields(np.ones(2), np.zeros(2), np.zeros((2, 2))) == 0.0

    def test_vector_fields_accepts_column_list(self):
        # a list of columns must mean columns even in the square case
        k = GaussianKernel(0.9)
        cols = [np.array([1.0, 0.5]), np.array([0.0, 2.0])]
        S = np.column_stack(cols)
        x, y = np.array([0.3, -0.1]), np.array([-0.4, 0.2])
        from_list = k.diffusion_entry_vector_fields(x, y, cols)
        assert from_list == k.diffusion_entry_vector_fields(x, y, S)
        assert from_list == pytest.approx(
            k.diffusion_trace_entry(x, y, S @ S.T), abs=1e-14)

    def test_vector_fields_directional_oracle(self):
        # Langevin-style column: the entry is the half second derivative
        # along sigma, so it only sees the momentum coordinate difference
        k = GaussianKernel(0.9)
        col = np.array([0.0, np.sqrt(2 * 2.5)])
        xi = np.array([0.4, -0.2])
        xj = np.array([-0.1, 0.3])
        entry = k.diffusion_entry_vector_fields(xi, xj, col[:, None])
        oracle = 0.5 * fd_directional_second(k, xi, xj, col)
        assert entry == pytest.approx(oracle, rel=1e-6)
        # shifting only the position difference at fixed k-value scale:
        # the quadratic projection term is unchanged
        xi2 = np.array([0.9, -0.2])
        xj2 = np.array([0.4, 0.3])
        e2 = k.diffusion_entry_vector_fields(xi2, xj2, col[:, None])
        ratio = k.eval(xi2, xj2) / k.eval(xi, xj)
        assert e2 == pytest.approx(entry * ratio, rel=1e-12)


class TestHutchinson:
    def test_exact_for_1d_rademacher(self):
        k = GaussianKernel(0.8)
        x, y = np.array([0.4]), np.array([-0.3])
        exact = k.diffusion_trace_entry(x, y, np.array([[0.25]]))
        est, se = k.hutchinson_trace_entry(x, y, np.array([[0.25]]), 64, seed=3)
        assert est == pytest.approx(exact, abs=1e-15)
        assert se == 0.0

    def test_zero_tensor(self):
        k = GaussianKernel(1.0)
        est, se = k.hutchinson_trace_entry(np.zeros(2), np.ones(2), np.zeros((2, 2)), 16, seed=0)
        assert est == 0.0 and se == 0.0

    @pytest.mark.parametrize("kind", ["rademacher", "gaussian"])
    def test_concentrates_on_exact_entry(self, kind):
        k = GaussianKernel(1.0)
        x, y = np.array([0.2, -0.4, 0.6]), np.array([-0.3, 0.1, 0.0])
        a = random_spd_matrix(3, seed=8)
        exact = k.diffusion_trace_entry(x, y, a)
        est, se = k.hutchinson_trace_entry(x, y, a, 4000, seed=12, probe_kind=kind)
        assert se > 0
        assert abs(est - exact) <= 4 * se

    def test_unbiased_across_runs(self):
        k = GaussianKernel(1.0)
        x, y = np.array([0.5, 0.0]), np.array([0.0, 0.4])
        a = random_spd_matrix(2, seed=4)
        exact = k.diffusion_trace_entry(x, y, a)
        ests, ses = zip(*(k.hutchinson_trace_entry(x, y, a, 500, seed=s)
                          for s in range(50)))
        pooled_se = np.sqrt(np.sum(np.square(ses))) / len(ses)
        assert abs(np.mean(ests) - exact) <= 4 * pooled_se

    def test_determinism(self):
        k = GaussianKernel(1.0)
        x, y = np.array([0.5, 0.0]), np.array([0.0, 0.4])
        a = np.eye(2)
        assert k.hutchinson_trace_entry(x, y, a, 100, seed=9) == \
            k.hutchinson_trace_entry(x, y, a, 100, seed=9)

    def test_probe_count_validated(self):
        k = GaussianKernel(1.0)
        with pytest.raises(ValueError):
            k.hutchinson_trace_entry(np.zeros(1), np.zeros(1), np.eye(1), 1, seed=0)


class TestPowerFunction:
    def test_zero_at_nodes(self):
        k = GaussianKernel(0.5)
        grid = np.linspace(-2.5, 2.5, 8)[:, None]
        for x in grid[::3]:
            assert power_function(k, grid, x, reg=0.0) <= 1e-6

    def test_far_from_nodes_approaches_one(self):
        k = GaussianKernel(0.5)
        grid = np.linspace(-1.0, 1.0, 8)[:, None]
        assert power_function(k, grid, np.array([30.0])) == pytest.approx(1.0, abs=1e-12)

    def test_decreases_under_refinement(self):
        k = GaussianKernel(1.0)
        x = np.array([0.3])
        vals = []
        for n in (10, 20, 40):
            grid = np.linspace(-2.5, 2.5, n)[:, None]
            vals.append(power_function(k, grid, x, reg=1e-12))
        assert vals[1] <= vals[0] + 1e-3
        assert vals[2] <= vals[1] + 1e-3

    def test_invariant_under_node_relabeling(self):
        k = GaussianKernel(0.7)
        gen = np.random.default_rng(2)
        grid = gen.uniform(-1, 1, size=(12, 2))
        x = np.array([0.2, -0.1])
        p1 = power_function(k, grid, x, reg=1e-10)
        p2 = power_function(k, grid[gen.permutation(12)], x, reg=1e-10)
        assert p1 == pytest.approx(p2, abs=1e-8)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            power_function(GaussianKernel(1.0), np.empty((0, 1)), np.array([0.0]))

    @pytest.mark.parametrize("reg", [np.nan, np.inf, -1.0])
    def test_non_finite_or_negative_reg_rejected(self, reg):
        # a NaN or infinite ridge returned 0.0, which reads as exact interpolation
        grid = np.linspace(-1.0, 1.0, 8)[:, None]
        with pytest.raises(ValueError, match=f"finite and nonnegative, got {reg!r}"):
            power_function(GaussianKernel(0.5), grid, np.array([0.3]), reg=reg)

    def test_singular_gram_reports_condition(self):
        k = GaussianKernel(1e6)  # effectively constant kernel: rank-1 Gram
        grid = np.linspace(-1, 1, 12)[:, None]
        with pytest.raises(SingularSystemError) as err:
            power_function(k, grid, np.array([0.5]), reg=0.0)
        assert err.value.condition_estimate > 1e12


class TestFillDistance:
    def test_uniform_grid_half_spacing(self):
        # brute-force oracle: half the node spacing 5/39
        grid = np.linspace(-2.5, 2.5, 40)[:, None]
        dom = Domain(lower=[-2.5], upper=[2.5])
        val = fill_distance(grid, dom, n_probe=100_000)
        assert val == pytest.approx(2.5 / 39, abs=1e-3)

    def test_single_center_point_reaches_corner(self):
        dom = Domain(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        val = fill_distance(np.array([[0.0, 0.0]]), dom, n_probe=1000)
        assert val == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_superset_never_increases(self):
        dom = Domain(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        gen = np.random.default_rng(3)
        base = gen.uniform(-1, 1, size=(10, 2))
        extra = np.vstack([base, gen.uniform(-1, 1, size=(10, 2))])
        assert fill_distance(extra, dom, n_probe=5000) <= fill_distance(base, dom, n_probe=5000)

    @pytest.mark.parametrize("lower, upper, n_axis, n_probe, want", [
        ([-2.5], [2.5], 40, 100_000, "0x1.0690690690680p-4"),
        ([-1.0, -0.5], [1.0, 1.5], 7, 5000, "0x1.dfd716ed94206p-3"),
    ])
    def test_value_pinned(self, lower, upper, n_axis, n_probe, want):
        # the fill distance of a fixed tensor grid, pinned bit for bit; both
        # probe sets end in a ragged block
        dom = Domain(lower=lower, upper=upper)
        grid = tensor_points(dom.lower, dom.upper, n_axis)
        assert fill_distance(grid, dom, n_probe=n_probe).hex() == want

    def test_memory_is_one_block(self, tracemalloc_peak):
        # the probes, their copy with the corners, one block and one scratch
        # block of _CHUNK_BYTES each: 0.9 MiB measured; one (20000, 900)
        # distance matrix alone would take 137 MiB
        dom = Domain(lower=[-1.0, -1.0], upper=[1.0, 1.0])
        fill_distance(np.zeros((1, 2)), dom, n_probe=10)  # import scipy's qmc untraced
        grid = tensor_points(dom.lower, dom.upper, 30)
        assert tracemalloc_peak(fill_distance, grid, dom, n_probe=20_000) < 4 << 20

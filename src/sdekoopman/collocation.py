"""Kernel collocation for the nonlinear-correction PDE.

Enforcing ``G . grad h + (1/2) Tr[a hess h] - lambda h = -w^T F`` at N nodes
with the ansatz ``h(x) = sum_j alpha_j k(x, x_j)`` gives the dense system

    (L + D - lambda K + gamma I) alpha = -f,

with ``K_ij = k(x_i, x_j)``, ``L_ij = G(x_i) . grad_x k(x_i, x_j)``,
``D_ij`` the half Hessian-trace entries and ``f_i = w^T F(x_i)``.  The system
matrix is generically nonsymmetric and is solved by LU with partial pivoting;
the reported condition number is the 2-norm value of the regularized matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import AssemblyError, SingularSystemError
from .kernels import GaussianKernel, block_rows, first_close_pair
from .models import (Domain, EigenPair, LinearDecomposition, SdeSystem, is_int,
                     small_matmul, tensor_points)

Array = np.ndarray

GRID_KINDS = ("uniform_1d", "tensor", "sobol")


def _eval_points(x, dim: int) -> Array:
    """``x`` as an (n, dim) float array of points; a ValueError names its shape
    when the points are not ``dim`` wide."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.ndim != 2 or X.shape[1] != dim:
        raise ValueError(f"points must have {dim} coordinates each, got shape "
                         f"{np.shape(x)}")
    return X


@dataclass(frozen=True)
class GridSpec:
    """Collocation grid recipe: 'uniform_1d', 'tensor' or 'sobol' with a count.

    For 'tensor' the count is per axis; for the others it is the total.
    """

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in GRID_KINDS:
            raise ValueError(f"unknown grid kind '{self.kind}'; expected one of {GRID_KINDS}")
        if not is_int(self.n):
            raise ValueError(f"grid count n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError("grid counts must be >= 2")


@dataclass(frozen=True)
class CollocationGrid:
    """Distinct collocation nodes, shape (N, d)."""

    points: Array

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or 0 in pts.shape:
            raise ValueError(f"grid points must have shape (N, d), N, d >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        close = first_close_pair(pts, 1e-12)
        if close is not None:
            raise ValueError(f"grid points {close[0]} and {close[1]} coincide")
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def make_grid(domain: Domain, spec: GridSpec) -> CollocationGrid:
    """Build a collocation grid spanning the domain box (boundary inclusive)."""
    d = domain.dim
    if spec.kind in ("uniform_1d", "tensor"):
        if spec.kind == "uniform_1d" and d != 1:
            raise ValueError("uniform_1d requires a 1-dimensional domain")
        pts = tensor_points(domain.lower, domain.upper, spec.n)
    else:  # sobol
        from scipy.stats import qmc  # slow to import; only Sobol grids need it
        sampler = qmc.Sobol(d=d, scramble=False)
        n_pow2 = 1 << max(1, int(np.ceil(np.log2(spec.n))))
        u = sampler.random_base2(int(np.log2(n_pow2)))[: spec.n]
        pts = qmc.scale(u, domain.lower, domain.upper)
    if not domain.contains(pts).all():
        raise ValueError("generated grid points fall outside the domain box")
    return CollocationGrid(points=pts)


def _half_trace_term(K: Array, diffs: Array, S: Array, l2: float) -> Array:
    """``(1/2) Tr[a(x_i) hess_x k(x_i, y_j)]`` from ``K``, the coordinate
    differences ``diffs[d][i, j] = x_id - y_jd`` (d arrays or views of shape
    (n, N)), ``S`` the diffusion factors sigma(x_i) stacked (n, d, m) and the
    squared lengthscale ``l2``; shape (n, N).  ``a = sigma sigma^T`` is
    formed, never inverted, so the term is exact for singular ``a`` too.

    The quadratic form is summed into a zeroed block, d outer and e inner,
    each product as ``(diff_d a_de) diff_e``: the bits of
    ``np.einsum("ijd,ide,ije->ij", diff, a, diff)``, at a quarter of its
    time, which goes to its generic three-operand loop.  The rest is worked
    in place, in the order of ``0.5 * K * (quad / l2**2 - tr / l2)``.
    """
    a = np.einsum("idm,iem->ide", S, S)
    quad = np.zeros(K.shape)
    term = np.empty(K.shape)
    for d, diff_d in enumerate(diffs):
        for e, diff_e in enumerate(diffs):
            np.multiply(diff_d, a[:, d, e, None], out=term)
            term *= diff_e
            quad += term
    quad /= l2**2
    quad -= np.einsum("idd->i", a)[:, None] / l2
    np.multiply(K, 0.5, out=term)
    term *= quad
    return term


def _drift_term(G: Array, diffs: Array) -> Array:
    """``G(x_i) . (x_i - y_j)`` from the drift values ``G`` (n, d) and the
    coordinate differences ``diffs`` (d, n, N), with the bits of
    ``np.einsum("id,ijd->ij", G, diff)``.

    For d <= 2 it is the explicit sum ``(+0.0 + G_0 diff_0) + G_1 diff_1``,
    as :func:`feynman_kac._noise_sum` writes its own: einsum sums the same
    products into a zeroed accumulator, and two terms round alike in either
    order.  For d >= 3 einsum orders its sum differently, so it is kept, on
    the (n, N, d) tensor it was written for.
    """
    if len(diffs) > 2:
        return np.einsum("id,ijd->ij", G, np.moveaxis(diffs, 0, -1).copy())
    out = G[:, 0, None] * diffs[0]
    out += 0.0
    if len(diffs) == 2:
        out += G[:, 1, None] * diffs[1]
    return out


_MATRICES = ("gram", "drift", "diffusion")


def _blocks(kern: GaussianKernel, X: Array, G: Array, S: Array,
            drift: bool = True, diffusion: bool = True):
    """Yield ``(rows, K, L, D)`` for each :func:`kernels.block_rows` row block
    of the Gram, drift and diffusion matrices at the nodes ``X``, from the
    drift values ``G`` and diffusion factors ``S`` there.

    The one home of their formulas.  Each entry is computed from its own
    row's values only, so its bits do not depend on the block size.  ``L``
    (``D``) is None unless ``drift`` (``diffusion``) is asked for.  ``K``
    lives in a buffer that the next block reuses.
    """
    N, d = X.shape
    l2 = kern.lengthscale**2
    Xt = X.T.copy()  # coordinate-major: each block's differences are one flat loop
    for blk, K in kern.eval_blocks(X, X, block_rows(N * d)):
        diffs = Xt[:, blk, None] - Xt[:, None, :]  # diffs[d][i, j] = x_id - x_jd
        L = -(_drift_term(G[blk], diffs) / l2) * K if drift else None
        D = _half_trace_term(K, diffs, S[blk], l2) if diffusion else None
        yield blk, K, L, D


@dataclass(frozen=True)
class AssembledSystem:
    """The collocation system ``M alpha = -f``: the system matrix M, the
    source f and the ridge gamma, with the nodes, the kernel, and the drift
    values G (N, d) and diffusion factors sigma (N, d, m) at the nodes.

    M is the only N x N matrix held.  :attr:`gram`, :attr:`drift_mat` and
    :attr:`diff_mat` fill a fresh matrix from :func:`_blocks` on each access,
    bit for bit the blocks that :func:`assemble` built M from, and
    :meth:`matrix_blocks` streams them a row block at a time.
    """

    system_matrix: Array
    source: Array
    regularization: float
    grid: CollocationGrid
    kernel: GaussianKernel
    drift: Array
    sigma: Array

    def matrix_blocks(self, name: str):
        """Yield ``(rows, block)`` for the row blocks of the ``'gram'``,
        ``'drift'`` or ``'diffusion'`` matrix, regenerated; a block is valid
        until the next one is asked for."""
        which = _MATRICES.index(name)
        for blk, *mats in _blocks(self.kernel, self.grid.points, self.drift, self.sigma,
                                  drift=which == 1, diffusion=which == 2):
            yield blk, mats[which]

    def _matrix(self, name: str) -> Array:
        out = np.empty((self.grid.n_points,) * 2)
        for blk, mat in self.matrix_blocks(name):
            out[blk] = mat
        return out

    @property
    def gram(self) -> Array:
        """The Gram matrix K, regenerated."""
        return self._matrix("gram")

    @property
    def drift_mat(self) -> Array:
        """The drift matrix L, regenerated."""
        return self._matrix("drift")

    @property
    def diff_mat(self) -> Array:
        """The diffusion matrix D, regenerated."""
        return self._matrix("diffusion")


def assemble(system: SdeSystem, decomp: LinearDecomposition, eigenpair: EigenPair,
             kern: GaussianKernel, grid: CollocationGrid, gamma: float) -> AssembledSystem:
    """Assemble the collocation system ``(L + D - lambda K + gamma I, f)``.

    The diffusion entries are the Hessian-trace form of
    :func:`_half_trace_term`: exact for any sigma, singular included, and
    D = 0 exactly when sigma vanishes.

    M is filled in one pass of the row blocks of :func:`_blocks`, so beyond
    M only one block's K, L, D and temporaries are held; each entry is the
    expression of the whole-matrix formula, in the same order.  K, L and D
    are not kept (see :class:`AssembledSystem`).  A non-finite entry raises
    :class:`AssemblyError` naming the first one of K, else of L, else of D,
    else of f.
    """
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    X = grid.points
    N = len(X)
    lam = eigenpair.eigenvalue

    G = system.drift_at(X)
    S = system.sigma_at(X)
    M = np.empty((N, N))
    first_bad = dict.fromkeys(_MATRICES)
    for blk, K, L, D in _blocks(kern, X, G, S):
        # gamma I added over the whole (rows, N) slice, not on its diagonal
        # only: -0.0 + 0.0 is +0.0, so the off-diagonal signs of zero are
        # those of the whole-matrix sum
        M[blk] = L + D - lam * K + gamma * np.eye(len(K), N, k=blk.start)
        for name, mat in zip(_MATRICES, (K, L, D)):
            if first_bad[name] is None and not np.isfinite(mat).all():
                i, j = np.argwhere(~np.isfinite(mat))[0]
                first_bad[name] = (blk.start + int(i), int(j))

    f = small_matmul(decomp.nonlinear_at(X, G), eigenpair.left_eigenvector)

    for name, entry in first_bad.items():
        if entry is not None:
            raise AssemblyError(f"non-finite {name} entry at ({entry[0]}, {entry[1]})")
    if not np.all(np.isfinite(f)):
        i = int(np.argwhere(~np.isfinite(f))[0, 0])
        raise AssemblyError(f"non-finite source entry at ({i},)")

    return AssembledSystem(system_matrix=M, source=f, regularization=float(gamma),
                           grid=grid, kernel=kern, drift=G, sigma=S)


def condition_number(M: Array) -> float:
    """2-norm condition number of ``M`` from its singular values.

    Raises :class:`SingularSystemError` when the smallest singular value is
    below 1e-300.
    """
    svals = np.linalg.svd(M, compute_uv=False)
    if svals[-1] < 1e-300:
        raise SingularSystemError("collocation matrix is numerically singular",
                                  condition_estimate=float(svals[0] / max(svals[-1], 1e-300)))
    return float(svals[0] / svals[-1])


def solve(asys: AssembledSystem, condition: bool = True):
    """Solve ``M alpha = -f`` by LU with partial pivoting.

    Returns ``(alpha, condition_number)`` where the condition number is the
    2-norm value of the regularized system matrix (:func:`condition_number`).
    With ``condition=False`` it is left to the caller and returned as None,
    unless the LU fails or gives non-finite coefficients: then it is computed
    here, so a singular matrix raises the same error either way.  Either
    failure raises :class:`SingularSystemError` with that estimate.
    """
    M = asys.system_matrix
    try:
        alpha = np.linalg.solve(M, -asys.source)
    except np.linalg.LinAlgError:
        alpha = None
    failed = alpha is None or not np.all(np.isfinite(alpha))
    cond = condition_number(M) if condition or failed else None
    if failed:
        raise SingularSystemError("LU factorization failed" if alpha is None
                                  else "solve gave non-finite coefficients",
                                  condition_estimate=cond)
    return alpha, cond


@dataclass(frozen=True)
class CollocationSolution:
    """Kernel expansion of the nonlinear correction h, with phi = w^T (x - x*) + h.

    The equilibrium ``x*`` defaults to the origin; it must be a finite
    ``grid.dim``-vector, and so must w.
    """

    coefficients: Array
    grid: CollocationGrid
    kernel: GaussianKernel
    eigenpair: EigenPair
    equilibrium: Optional[Array] = None

    def __post_init__(self):
        alpha = np.asarray(self.coefficients, dtype=float)
        if alpha.shape != (self.grid.n_points,):
            raise ValueError("coefficient vector length must match the grid")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", alpha)
        eq = np.zeros(self.grid.dim) if self.equilibrium is None else self.equilibrium
        eq = np.asarray(eq, dtype=float)
        if eq.shape != (self.grid.dim,) or not np.all(np.isfinite(eq)):
            raise ValueError(f"equilibrium must be a finite vector of length {self.grid.dim}, "
                             f"got {self.equilibrium!r}")
        object.__setattr__(self, "equilibrium", eq)
        w = self.eigenpair.left_eigenvector
        if w.shape != (self.grid.dim,):
            raise ValueError(f"left eigenvector must have length {self.grid.dim}, "
                             f"got {w.tolist()}")

    def eval_h(self, x: Array):
        """Nonlinear correction ``h(x) = sum_j alpha_j k(x, x_j)``; batched.

        The kernel rows are formed :func:`kernels.block_rows` at a time, in one
        block that :meth:`GaussianKernel.eval_blocks` reuses.  Points that are not
        ``grid.dim`` wide raise ValueError.
        """
        X = _eval_points(x, self.grid.dim)
        centres = self.grid.points
        vals = np.empty(X.shape[0])
        for blk, K in self.kernel.eval_blocks(X, centres, block_rows(len(centres))):
            vals[blk] = K @ self.coefficients
        return float(vals[0]) if np.ndim(x) == 1 else vals

    def eval_phi(self, x: Array):
        """Eigenfunction ``phi(x) = w^T (x - x*) + h(x)``; batched."""
        X = _eval_points(x, self.grid.dim)
        w = self.eigenpair.left_eigenvector
        vals = small_matmul(X - self.equilibrium, w) + self.eval_h(X)
        return float(vals[0]) if np.ndim(x) == 1 else vals


def solve_system(system: SdeSystem, decomp: LinearDecomposition, eigenpair: EigenPair,
                 kern: GaussianKernel, grid: CollocationGrid, gamma: float,
                 condition: bool = True):
    """Assemble and solve in one step; returns (solution, assembled, cond).

    ``condition`` is passed to :func:`solve`.
    """
    asys = assemble(system, decomp, eigenpair, kern, grid, gamma)
    alpha, cond = solve(asys, condition)
    sol = CollocationSolution(coefficients=alpha, grid=grid, kernel=kern,
                              eigenpair=eigenpair, equilibrium=decomp.equilibrium)
    return sol, asys, cond


@dataclass(frozen=True)
class ResidualStats:
    mean: float
    max: float
    per_point: Array


def pde_residual(sol: CollocationSolution, system: SdeSystem, test_points) -> ResidualStats:
    """Pointwise PDE residual of phi over the test points.

    Evaluates ``r(x) = G . grad phi + (1/2) Tr[a hess h] - lambda phi`` with
    exact kernel derivatives (the linear part w^T x has zero Hessian).  The
    kernel expansion is globally defined, so test points may extend beyond
    the collocation box; residuals grow quickly outside it.

    G and sigma are evaluated once on all points; the kernel rows, the
    difference tensor and the Hessian-trace term are formed in blocks of
    :func:`kernels.block_rows` points, whose (rows, N, d) tensor fits in
    ``_CHUNK_BYTES``, into one kernel block that
    :meth:`GaussianKernel.eval_blocks` reuses for all of them.  Each
    value has the bits of the whole-matrix formula.  Raises ValueError when
    there are no test points, when they are not ``grid.dim`` wide, or when
    one is not finite.
    """
    X = _eval_points(test_points, sol.grid.dim)
    if X.shape[0] == 0:
        raise ValueError("test_points is empty")
    if not np.all(np.isfinite(X)):
        i = int(np.argwhere(~np.isfinite(X))[0, 0])
        raise ValueError(f"test point {i} is not finite: {X[i].tolist()}")
    G = system.drift_at(X)
    S = system.sigma_at(X)
    w = sol.eigenpair.left_eigenvector
    lam = sol.eigenpair.eigenvalue
    alpha = sol.coefficients
    l2 = sol.kernel.lengthscale**2
    nodes = sol.grid.points
    N, d = nodes.shape
    linear = small_matmul(X - sol.equilibrium, w)
    r = np.empty(X.shape[0])
    for blk, K in sol.kernel.eval_blocks(X, nodes, block_rows(N * d)):
        diff = X[blk, None, :] - nodes[None, :, :]
        grad_phi = w[None, :] - np.einsum("njd,nj,j->nd", diff, K, alpha) / l2
        phi = linear[blk] + K @ alpha
        r[blk] = (np.einsum("nd,nd->n", G[blk], grad_phi)
                  + _half_trace_term(K, np.moveaxis(diff, -1, 0), S[blk], l2) @ alpha
                  - lam * phi)
    r = np.abs(r)
    return ResidualStats(mean=float(r.mean()), max=float(r.max()), per_point=r)


def residual_test_points(domain: Domain, expand: float = 0.25,
                         n_1d: int = 200, n_per_axis: int = 20) -> Array:
    """Uniform residual-evaluation grid on the box expanded per side.

    200 uniform points in 1d, an ``n x n`` tensor grid otherwise.  The 25%
    default expansion matches the benchmark convention used by the reference
    experiments (see the validation module).
    """
    center = 0.5 * (domain.lower + domain.upper)
    half = 0.5 * (domain.upper - domain.lower) * (1.0 + expand)
    return tensor_points(center - half, center + half, n_1d if domain.dim == 1 else n_per_axis)


# --- JSON serialization -----------------------------------------------------
#
# Schema, in this key order (arrays as nested lists):
#   lengthscale, lambda, w, gamma, grid, coefficients   -- always present
#   equilibrium                                         -- when x* != 0
#   gram, drift, diffusion, source                      -- when assembled
#     system is attached


def _row_blocks(a) -> Iterator[Array]:
    """The float64 blocks of :func:`kernels.block_rows` whole leading-axis
    rows of ``a``: 20 rows of a 1600-column matrix."""
    a = np.ascontiguousarray(a, dtype=float)
    rows = block_rows(int(np.prod(a.shape[1:])))
    return (a[i:i + rows] for i in range(0, len(a), rows))


def _solution_fields(sol: CollocationSolution,
                     asys: Optional[AssembledSystem] = None) -> list:
    """The document's (key, value) pairs in order.  An array is an iterator
    over its float64 row blocks; K, L and D are regenerated block by block
    (:meth:`AssembledSystem.matrix_blocks`), never held whole."""
    fields = [
        ("lengthscale", sol.kernel.lengthscale),
        ("lambda", sol.eigenpair.eigenvalue),
        ("w", _row_blocks(sol.eigenpair.left_eigenvector)),
        ("gamma", asys.regularization if asys is not None else None),
        ("grid", _row_blocks(sol.grid.points)),
        ("coefficients", _row_blocks(sol.coefficients)),
    ]
    if np.any(sol.equilibrium):
        fields.append(("equilibrium", _row_blocks(sol.equilibrium)))
    if asys is not None:
        fields += [(name, (mat for _, mat in asys.matrix_blocks(name))) for name in _MATRICES]
        fields.append(("source", _row_blocks(asys.source)))
    return fields


def solution_to_json_dict(sol: CollocationSolution,
                          asys: Optional[AssembledSystem] = None) -> dict:
    """The solution document as nested lists; :func:`save_solution` writes its JSON."""
    return {key: [row for blk in value for row in blk.tolist()]
            if isinstance(value, Iterator) else value
            for key, value in _solution_fields(sol, asys)}


def solution_from_json_dict(doc: dict) -> CollocationSolution:
    grid = CollocationGrid(points=np.asarray(doc["grid"], dtype=float))
    return CollocationSolution(
        coefficients=np.asarray(doc["coefficients"], dtype=float),
        grid=grid,
        kernel=GaussianKernel(lengthscale=float(doc["lengthscale"])),
        eigenpair=EigenPair(eigenvalue=float(doc["lambda"]),
                            left_eigenvector=np.asarray(doc["w"], dtype=float)),
        equilibrium=doc.get("equilibrium"),
    )


def _json_items(blk: Array) -> bytes:
    """The items of ``json.dumps(blk.tolist())``, without the outer brackets.

    A finite block is printed by orjson, whose shortest round-trip digits are
    those of ``float.__repr__``, and respelled where the two differ; a block
    with a non-finite value (``NaN``, ``Infinity``) is ``json.dumps``'s own.
    """
    if not np.isfinite(blk).all():
        return json.dumps(blk.tolist())[1:-1].encode("ascii")
    import orjson  # only the writer needs it; keeps it out of every command's import

    # float.__repr__ spells |v| < 1e-4 (v != 0) and |v| >= 1e16 with an
    # exponent, where orjson spells 1e-5 <= |v| < 1e-4 positionally
    # ("0.0000d..." for "d...e-05") and writes exponents without "+" or zero
    # padding ("1e16", "1e-6" for "1e+16", "1e-06").  Those entries, which
    # are few, go to orjson as NaN, which it prints as "null", and each
    # "null" is replaced by its entry's repr.
    mag = np.abs(blk)
    respell = ((mag < 1e-4) & (mag > 0)) | (mag >= 1e16)
    reprs = [repr(v).encode("ascii") for v in blk[respell].tolist()]
    text = orjson.dumps(np.where(respell, np.nan, blk) if reprs else blk,
                        option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    if reprs:
        parts = text.split(b"null")
        text = b"".join([part for pair in zip(parts, reprs) for part in pair] + parts[-1:])
    return text.replace(b",", b", ")


def _json_array_chunks(blocks):
    """Yield the bytes of ``json.dumps(a.tolist())`` for the array ``a``
    whose whole leading-axis row blocks ``blocks`` yields in order, one
    block's text at a time (see :func:`_json_items`).  The text does not
    depend on where the blocks split.

    Beyond the current block it holds that block's text and its
    respellings, so a matrix regenerated block by block is written in
    O(block) memory.
    """
    yield b"["
    for i, blk in enumerate(blocks):
        yield (b", " if i else b"") + _json_items(blk)
    yield b"]"


def save_solution(path, sol: CollocationSolution, asys: Optional[AssembledSystem] = None):
    """Write the solution document, byte for byte ``json.dumps(...) + "\\n"``.

    The document is streamed key by key and in row blocks (see
    :func:`_json_array_chunks`), so no nested lists of a whole array and no
    whole-document string are built.  The matrices K, L and D of ``asys``
    are regenerated a row block at a time as they are written, so beyond
    what ``sol`` and ``asys`` hold the writer needs O(block) memory.
    """
    with open(path, "wb") as fh:
        for i, (key, value) in enumerate(_solution_fields(sol, asys)):
            fh.write((("{" if i == 0 else ", ") + json.dumps(key) + ": ").encode())
            if isinstance(value, Iterator):
                fh.writelines(_json_array_chunks(value))
            else:
                fh.write(json.dumps(value).encode())
        fh.write(b"}\n")


def load_solution(path) -> CollocationSolution:
    with open(path, encoding="utf-8") as fh:
        return solution_from_json_dict(json.load(fh))

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
from typing import Optional

import numpy as np

from .errors import AssemblyError, SingularSystemError
from .kernels import GaussianKernel, first_close_pair
from .models import (Domain, EigenPair, LinearDecomposition, SdeSystem, is_int,
                     tensor_points)

Array = np.ndarray

GRID_KINDS = ("uniform_1d", "tensor", "sobol")

# Rows of K(x, nodes) that eval_h holds at once; a multiple of 4, so each chunk's
# product with the coefficients rounds as the unchunked one (gemv blocks 4 rows).
_EVAL_ROWS = 512


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


@dataclass(frozen=True)
class AssembledSystem:
    """Gram/drift/diffusion matrices, source vector, and the system matrix."""

    gram: Array
    drift_mat: Array
    diff_mat: Array
    source: Array
    system_matrix: Array
    regularization: float


def _half_trace_term(K: Array, diff: Array, S: Array, l2: float) -> Array:
    """``(1/2) Tr[a(x_i) hess_x k(x_i, y_j)]`` from ``K``, ``diff[i, j] = x_i - y_j``,
    ``S`` the diffusion factors sigma(x_i) stacked (n, d, m) and the squared
    lengthscale ``l2``; shape (n, N).  ``a = sigma sigma^T`` is formed, never
    inverted, so the term is exact for singular ``a`` too."""
    a = np.einsum("idm,iem->ide", S, S)
    quad = np.einsum("ijd,ide,ije->ij", diff, a, diff)
    tr = np.einsum("idd->i", a)
    return 0.5 * K * (quad / l2**2 - tr[:, None] / l2)


def assemble(system: SdeSystem, decomp: LinearDecomposition, eigenpair: EigenPair,
             kern: GaussianKernel, grid: CollocationGrid, gamma: float) -> AssembledSystem:
    """Assemble the collocation system ``(L + D - lambda K + gamma I, f)``.

    The diffusion entries are the Hessian-trace form of
    :func:`_half_trace_term`: exact for any sigma, singular included, and
    D = 0 exactly when sigma vanishes.
    """
    if not np.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma!r}")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    X = grid.points
    N, d = X.shape
    l2 = kern.lengthscale**2

    K = kern.eval_matrix(X, X)
    diff = X[:, None, :] - X[None, :, :]  # diff[i, j] = x_i - x_j
    G = system.drift_at(X)
    L = -(np.einsum("id,ijd->ij", G, diff) / l2) * K

    D = _half_trace_term(K, diff, system.sigma_at(X), l2)

    f = decomp.nonlinear_at(X) @ eigenpair.left_eigenvector
    M = L + D - eigenpair.eigenvalue * K + gamma * np.eye(N)

    for name, mat in (("gram", K), ("drift", L), ("diffusion", D)):
        bad = ~np.isfinite(mat)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise AssemblyError(f"non-finite {name} entry at ({i}, {j})")
    if not np.all(np.isfinite(f)):
        i = int(np.argwhere(~np.isfinite(f))[0])
        raise AssemblyError(f"non-finite source entry at ({i},)")

    return AssembledSystem(gram=K, drift_mat=L, diff_mat=D, source=f,
                           system_matrix=M, regularization=float(gamma))


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
    here, so a singular matrix raises the same error either way.
    """
    M = asys.system_matrix
    try:
        alpha = np.linalg.solve(M, -asys.source)
    except np.linalg.LinAlgError:
        alpha = None
    cond = None
    if condition or alpha is None or not np.all(np.isfinite(alpha)):
        cond = condition_number(M)
    if alpha is None:
        raise SingularSystemError("LU factorization failed", condition_estimate=cond)
    return alpha, cond


@dataclass(frozen=True)
class CollocationSolution:
    """Kernel expansion of the nonlinear correction h, with phi = w^T (x - x*) + h.

    The equilibrium ``x*`` defaults to the origin.
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
        object.__setattr__(self, "equilibrium", np.asarray(eq, dtype=float))

    def eval_h(self, x: Array):
        """Nonlinear correction ``h(x) = sum_j alpha_j k(x, x_j)``; batched.

        The kernel rows are formed ``_EVAL_ROWS`` at a time, in one block
        (and one scratch block) allocated for all of them.
        """
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        centres = self.grid.points
        vals = np.empty(X.shape[0])
        block = np.empty((min(_EVAL_ROWS, X.shape[0]), centres.shape[0]))
        scratch = self.kernel.eval_scratch(block.shape[0], centres)
        for i in range(0, X.shape[0], _EVAL_ROWS):
            K = self.kernel.eval_matrix(X[i:i + _EVAL_ROWS], centres,
                                        out=block[:X.shape[0] - i], scratch=scratch)
            vals[i:i + _EVAL_ROWS] = K @ self.coefficients
        return float(vals[0]) if x.ndim == 1 else vals

    def eval_phi(self, x: Array):
        """Eigenfunction ``phi(x) = w^T (x - x*) + h(x)``; batched."""
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        vals = (X - self.equilibrium) @ self.eigenpair.left_eigenvector + self.eval_h(X)
        return float(vals[0]) if x.ndim == 1 else vals


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
    """
    X = np.atleast_2d(np.asarray(test_points, dtype=float))
    G = system.drift_at(X)
    S = system.sigma_at(X)
    w = sol.eigenpair.left_eigenvector
    lam = sol.eigenpair.eigenvalue
    alpha = sol.coefficients
    l2 = sol.kernel.lengthscale**2
    K = sol.kernel.eval_matrix(X, sol.grid.points)
    diff = X[:, None, :] - sol.grid.points[None, :, :]
    grad_phi = w[None, :] - np.einsum("njd,nj,j->nd", diff, K, alpha) / l2
    phi = (X - sol.equilibrium) @ w + K @ alpha
    r = (np.einsum("nd,nd->n", G, grad_phi) + _half_trace_term(K, diff, S, l2) @ alpha
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
#   gram, drift, diffusion, source                      -- when assembled
#     system is attached


def _solution_fields(sol: CollocationSolution,
                     asys: Optional[AssembledSystem] = None) -> list:
    """The document's (key, value) pairs in order; arrays as float64."""
    fields = [
        ("lengthscale", sol.kernel.lengthscale),
        ("lambda", sol.eigenpair.eigenvalue),
        ("w", sol.eigenpair.left_eigenvector),
        ("gamma", asys.regularization if asys is not None else None),
        ("grid", sol.grid.points),
        ("coefficients", sol.coefficients),
    ]
    if asys is not None:
        fields += [("gram", asys.gram), ("drift", asys.drift_mat),
                   ("diffusion", asys.diff_mat), ("source", asys.source)]
    return [(key, np.asarray(value, dtype=float) if isinstance(value, np.ndarray) else value)
            for key, value in fields]


def solution_to_json_dict(sol: CollocationSolution,
                          asys: Optional[AssembledSystem] = None) -> dict:
    """The solution document as nested lists; :func:`save_solution` writes its JSON."""
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in _solution_fields(sol, asys)}


def solution_from_json_dict(doc: dict) -> CollocationSolution:
    grid = CollocationGrid(points=np.asarray(doc["grid"], dtype=float))
    return CollocationSolution(
        coefficients=np.asarray(doc["coefficients"], dtype=float),
        grid=grid,
        kernel=GaussianKernel(lengthscale=float(doc["lengthscale"])),
        eigenpair=EigenPair(eigenvalue=float(doc["lambda"]),
                            left_eigenvector=np.asarray(doc["w"], dtype=float)),
    )


def _json_array_chunks(a: Array):
    """Yield the text ``json.dumps(a.tolist())`` writes, one leading-axis row at a time.

    Each distinct float64 bit pattern (so -0.0 stays apart from 0.0) is
    spelled once, as ``json.dumps`` spells it: ``float.__repr__`` for finite
    values, ``NaN``/``Infinity``/``-Infinity`` otherwise.  Kernel matrices
    repeat few values, so this formats far fewer floats than there are
    entries.
    """
    bits, inverse = np.unique(np.ascontiguousarray(a).view(np.uint64).ravel(),
                              return_inverse=True)
    values = bits.view(np.float64)
    text = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)):
        text[i] = json.dumps(float(values[i]))
    text = np.array(text, dtype=object)
    inverse = inverse.reshape(a.shape)

    def nested(idx):
        items = text[idx].tolist() if idx.ndim == 1 else map(nested, idx)
        return "[" + ", ".join(items) + "]"

    if a.ndim == 1:
        yield nested(inverse)
        return
    yield "["
    for i, row in enumerate(inverse):
        yield (", " if i else "") + nested(row)
    yield "]"


def save_solution(path, sol: CollocationSolution, asys: Optional[AssembledSystem] = None):
    """Write the solution document, byte for byte ``json.dumps(...) + "\\n"``.

    The document is streamed key by key and row by row (see
    :func:`_json_array_chunks`), so no nested lists of Python floats and no
    whole-document string are built.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for i, (key, value) in enumerate(_solution_fields(sol, asys)):
            fh.write(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
            if isinstance(value, np.ndarray):
                fh.writelines(_json_array_chunks(value))
            else:
                fh.write(json.dumps(value))
        fh.write("}\n")


def load_solution(path) -> CollocationSolution:
    with open(path, encoding="utf-8") as fh:
        return solution_from_json_dict(json.load(fh))

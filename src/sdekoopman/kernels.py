"""Gaussian RBF kernel with exact derivatives and interpolation diagnostics.

The closed forms used throughout::

    k(x, y)        = exp(-||x - y||^2 / (2 l^2))
    grad_x k       = -(x - y) / l^2 * k
    hess_x k       = [ (x-y)(x-y)^T / l^4 - I / l^2 ] * k

The generator's second-order term enters the collocation system through
``(1/2) Tr[a(x_i) hess_x k(x_i, x_j)]``, which builds a = sigma sigma^T and never
inverts it, so it is exact for singular a(x) too.  The pairwise entries here
also give the equivalent vector-field form ``(1/2) sum_k (sigma_k . grad)^2 k``,
the tests' oracle for the assembled matrix.

Every pairwise computation over point sets (kernel matrices and the
collocation blocks, the coincident-node check, the fill distance) is one
row-block pass of squared distances, :func:`_sq_dist_blocks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError
from .models import Domain, halton_points, tensor_points

Array = np.ndarray

# Cap on each (rows, N) block of a pairwise pass; a block and its scratch
# stay in a core's L2 cache while each coordinate is added in.
_CHUNK_BYTES = 256 << 10


def block_rows(n_cols: int) -> int:
    """Rows of every row block: the largest multiple of 4 whose (rows, n_cols)
    float block fits in ``_CHUNK_BYTES``, and at least 4.  gemv rounds rows in
    groups of 4, so a block's product with a vector keeps the bits of the
    whole-matrix product."""
    return max(4, _CHUNK_BYTES // max(1, 8 * n_cols) // 4 * 4)


def _sq_dist_blocks(A: Array, B: Array, rows: int):
    """Yield ``(rows_slice, D)`` for blocks of ``rows`` rows of ``A``: ``D``
    holds the squared distances ``||a_i - b_j||^2`` of ``A[rows_slice]`` to
    the rows of ``B``, coordinates added left to right.

    ``D`` is one block that every block reuses, so a caller keeps no ``D``
    past its step.  One scratch block serves all blocks; 1-D points need none.
    """
    if not A.shape[1] == B.shape[1] > 0:
        raise ValueError(f"point sets must have the same positive number of coordinates, "
                         f"got shapes {A.shape} and {B.shape}")
    n, m = A.shape[0], B.shape[0]
    Bt = np.ascontiguousarray(B.T)
    size = min(rows, n)
    block = np.empty((size, m))
    scratch = np.empty((size, m)) if A.shape[1] > 1 else None
    for i in range(0, n, rows):
        blk = slice(i, i + rows)
        D = block[:n - i]
        np.subtract(A[blk, :1], Bt[0], out=D)
        np.square(D, out=D)
        for k in range(1, A.shape[1]):
            tmp = scratch[:len(D)]
            np.subtract(A[blk, k:k + 1], Bt[k], out=tmp)
            np.square(tmp, out=tmp)
            np.add(D, tmp, out=D)
        yield blk, D


def first_close_pair(points: Array, tol: float):
    """The first pair ``(i, j)``, ``i < j``, in row-major order, of rows of
    ``points`` at most ``tol`` apart, or None when there is none.

    Squared distances are symmetric bit for bit, so with the diagonal masked
    the first hit lies above it: a hit ``(i, j)`` with ``j < i`` is the hit
    ``(j, i)`` of an earlier row.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tol2 = tol * tol
    for blk, D in _sq_dist_blocks(pts, pts, block_rows(len(pts))):
        np.fill_diagonal(D[:, blk.start:], np.inf)
        near = np.flatnonzero(D.min(axis=1) <= tol2)
        if near.size:
            r = int(near[0])
            return blk.start + r, int(np.flatnonzero(D[r] <= tol2)[0])
    return None


def _pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"x and y must be vectors of equal dimension, got {x.shape} vs {y.shape}")
    return x, y


@dataclass(frozen=True)
class GaussianKernel:
    """Isotropic Gaussian kernel with a finite lengthscale ``lengthscale > 0``."""

    lengthscale: float

    def __post_init__(self):
        if not 0 < self.lengthscale < np.inf:
            raise ValueError(f"lengthscale must be positive and finite, got {self.lengthscale!r}")
        object.__setattr__(self, "lengthscale", float(self.lengthscale))

    def eval(self, x: Array, y: Array) -> float:
        x, y = _pair(x, y)
        d = x - y
        return float(np.exp(-(d @ d) / (2.0 * self.lengthscale**2)))

    __call__ = eval

    def eval_blocks(self, X: Array, Y: Array, rows: int):
        """Yield ``(rows_slice, K)`` for blocks of ``rows`` rows of X: ``K``
        holds the kernel rows of ``X[rows_slice]`` against the rows of Y.

        Each block is the squared distances of :func:`_sq_dist_blocks`,
        negated, divided by ``2 l^2`` and exponentiated in place; ``K`` is one
        block that every block reuses.  Every entry is elementwise, so its
        bits do not depend on ``rows``.  For d <= 7 they are those of
        ``exp(-((X[:, None] - Y[None]) ** 2).sum(axis=2) / (2 l^2))``, whose
        sum of fewer than 8 terms also runs left to right; from d = 8 numpy
        sums pairwise and the last bits can differ.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        for blk, K in _sq_dist_blocks(X, Y, rows):
            np.negative(K, out=K)
            np.divide(K, 2.0 * self.lengthscale**2, out=K)
            np.exp(K, out=K)
            yield blk, K

    def eval_matrix(self, X: Array, Y: Array) -> Array:
        """Pairwise kernel matrix for rows of X against rows of Y, copied
        from :meth:`eval_blocks` in blocks of at most ``_CHUNK_BYTES``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        out = np.empty((X.shape[0], Y.shape[0]))
        for blk, K in self.eval_blocks(X, Y, block_rows(Y.shape[0])):
            out[blk] = K
        return out

    def grad_x(self, x: Array, y: Array) -> Array:
        """Gradient in the first argument."""
        x, y = _pair(x, y)
        return -(x - y) / self.lengthscale**2 * self.eval(x, y)

    def hessian_x(self, x: Array, y: Array) -> Array:
        """Hessian in the first argument (symmetric d x d matrix)."""
        x, y = _pair(x, y)
        d = x - y
        l2 = self.lengthscale**2
        return (np.outer(d, d) / l2**2 - np.eye(x.size) / l2) * self.eval(x, y)

    def diffusion_trace_entry(self, xi: Array, xj: Array, a_xi: Array) -> float:
        """Entry ``(1/2) Tr[a(x_i) hess_x k(x_i, x_j)]`` in closed form."""
        xi, xj = _pair(xi, xj)
        a = np.asarray(a_xi, dtype=float)
        if a.shape != (xi.size, xi.size):
            raise ValueError(f"a_xi must be {xi.size} x {xi.size}")
        if np.max(np.abs(a - a.T)) > 1e-10:
            raise ValueError("a_xi must be symmetric")
        d = xi - xj
        l2 = self.lengthscale**2
        return 0.5 * self.eval(xi, xj) * float(d @ a @ d / l2**2 - np.trace(a) / l2)

    def diffusion_entry_vector_fields(self, xi: Array, xj: Array, sigma_cols) -> float:
        """Entry ``(1/2) sum_k (sigma_k . grad_x)^2 k(x_i, x_j)``.

        ``sigma_cols`` is the ``d x m`` diffusion factor as an array, or a
        list/tuple of its column vectors.  Valid for singular a(x); equals
        the trace form whenever ``a = sigma sigma^T``.
        """
        xi, xj = _pair(xi, xj)
        if isinstance(sigma_cols, (list, tuple)):
            S = np.column_stack([np.asarray(c, dtype=float) for c in sigma_cols])
        else:
            S = np.asarray(sigma_cols, dtype=float)
            if S.ndim == 1:
                S = S[:, None]
        if S.ndim != 2 or S.shape[0] != xi.size:
            raise ValueError(f"sigma columns must have dimension {xi.size}")
        d = xi - xj
        l2 = self.lengthscale**2
        proj = S.T @ d
        total = float((proj @ proj) / l2**2 - (S**2).sum() / l2)
        return 0.5 * total * self.eval(xi, xj)

    def hutchinson_trace_entry(self, xi: Array, xj: Array, a_xi: Array,
                               n_probes: int, seed: int,
                               probe_kind: str = "rademacher"):
        """Randomized estimate of the diffusion entry via probe vectors.

        Averages ``(1/2) z^T [a hess_x k] z`` over ``n_probes`` i.i.d. probes;
        unbiased for :meth:`diffusion_trace_entry`.  Returns
        ``(estimate, std_error)`` with the standard error taken across probes.
        """
        if n_probes < 2:
            raise ValueError("n_probes must be >= 2")
        if probe_kind not in ("gaussian", "rademacher"):
            raise ValueError("probe_kind must be 'gaussian' or 'rademacher'")
        xi, xj = _pair(xi, xj)
        H = self.hessian_x(xi, xj)
        a = np.asarray(a_xi, dtype=float)
        M = a @ H
        rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64)))
        if probe_kind == "gaussian":
            Z = rng.standard_normal((n_probes, xi.size))
        else:
            Z = rng.integers(0, 2, size=(n_probes, xi.size)).astype(float) * 2.0 - 1.0
        vals = 0.5 * np.einsum("pi,ij,pj->p", Z, M, Z)
        est = float(vals.mean())
        # a constant sample (e.g. d=1 Rademacher, z^2 = 1) has zero spread
        se = 0.0 if np.ptp(vals) == 0.0 else float(vals.std(ddof=1) / np.sqrt(n_probes))
        return est, se


def power_function(kern: GaussianKernel, grid, x: Array, reg: float = 0.0) -> float:
    """Worst-case interpolation error at x for the given node set.

    Computes ``sqrt(max(0, k(x,x) - k(x)^T (K + reg I)^{-1} k(x)))``; with
    ``reg = 0`` this is the classical power function, but a small ridge is
    often needed because dense Gaussian Gram matrices are severely
    ill-conditioned.
    """
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("grid must be non-empty")
    if not 0 <= reg < np.inf:
        raise ValueError(f"reg must be finite and nonnegative, got {reg!r}")
    x = np.asarray(x, dtype=float)
    K = kern.eval_matrix(pts, pts) + reg * np.eye(pts.shape[0])
    kx = kern.eval_matrix(x[None, :], pts)[0]
    try:
        z = np.linalg.solve(K, kx)
    except np.linalg.LinAlgError:
        raise SingularSystemError("Gram system is singular in power_function",
                                  condition_estimate=float(np.linalg.cond(K)))
    p2 = 1.0 - float(kx @ z)  # k(x,x) = 1 for the Gaussian kernel
    return float(np.sqrt(max(0.0, p2)))


def fill_distance(grid, domain: Domain, n_probe: int = 100_000) -> float:
    """Approximate ``sup_{x in box} min_i ||x - x_i||`` by dense probing.

    Uses a quasi-random probe set plus the box corners (for moderate
    dimension), so the value is a slight underestimate of the true supremum.
    Squared distances are taken in probe blocks of at most ``_CHUNK_BYTES``.
    """
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("grid must be non-empty")
    probes = halton_points(domain, n_probe)
    if 2**domain.dim <= 4096:
        probes = np.vstack([probes, tensor_points(domain.lower, domain.upper, 2)])
    best = 0.0
    for _, d2 in _sq_dist_blocks(probes, pts, block_rows(len(pts))):
        best = max(best, float(np.sqrt(d2.min(axis=1).max())))
    return best

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError
from .models import Domain, halton_points, tensor_points

Array = np.ndarray

# Cap on each (rows, N) block that eval_matrix fills at once; a block and its
# scratch stay in a core's L2 cache while each coordinate is added in.
_CHUNK_BYTES = 256 << 10


def _block_rows(n_cols: int) -> int:
    """Rows of an (rows, n_cols) float block that fit in ``_CHUNK_BYTES``."""
    return max(1, _CHUNK_BYTES // max(1, 8 * n_cols))


def _sq_dists(A: Array, Bt: Array, out: Array, scratch: Array) -> Array:
    """Squared distances ``||a_i - b_j||^2`` into ``out``, coordinates added
    left to right; ``Bt`` is the second point set transposed, (d, N), and
    ``scratch`` has the shape of ``out``."""
    np.subtract(A[:, :1], Bt[0], out=out)
    np.square(out, out=out)
    for k in range(1, A.shape[1]):
        np.subtract(A[:, k:k + 1], Bt[k], out=scratch)
        np.square(scratch, out=scratch)
        np.add(out, scratch, out=out)
    return out


def first_close_pair(points: Array, tol: float):
    """The first pair ``(i, j)``, ``i < j``, in row-major order, of rows of
    ``points`` at most ``tol`` apart, or None when there is none.

    Squared distances are taken in row blocks of at most ``_CHUNK_BYTES``,
    each block against the rows from its own first row on.  They are
    symmetric bit for bit, so the first hit off the diagonal lies above it: a
    hit ``(i, j)`` with ``j < i`` is the hit ``(j, i)`` of an earlier row.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    rows = _block_rows(n)
    pts_t = np.ascontiguousarray(pts.T)
    buf, scratch = np.empty(min(rows, n) * n), np.empty(min(rows, n) * n)
    tol2 = tol * tol
    for i in range(0, n, rows):
        shape = (min(rows, n - i), n - i)
        size = shape[0] * shape[1]
        blk = _sq_dists(pts[i:i + rows], pts_t[:, i:], buf[:size].reshape(shape),
                        scratch[:size].reshape(shape))
        np.fill_diagonal(blk, np.inf)
        near = np.flatnonzero(blk.min(axis=1) <= tol2)
        if near.size:
            r = int(near[0])
            return i + r, i + int(np.flatnonzero(blk[r] <= tol2)[0])
    return None


def _pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"x and y must be vectors of equal dimension, got {x.shape} vs {y.shape}")
    return x, y


@dataclass(frozen=True)
class GaussianKernel:
    """Isotropic Gaussian kernel with lengthscale ``lengthscale > 0``."""

    lengthscale: float

    def __post_init__(self):
        if not self.lengthscale > 0:
            raise ValueError("lengthscale must be positive")
        object.__setattr__(self, "lengthscale", float(self.lengthscale))

    def eval(self, x: Array, y: Array) -> float:
        x, y = _pair(x, y)
        d = x - y
        return float(np.exp(-(d @ d) / (2.0 * self.lengthscale**2)))

    __call__ = eval

    def eval_matrix(self, X: Array, Y: Array, out=None, scratch=None) -> Array:
        """Pairwise kernel matrix for rows of X against rows of Y.

        Built in place, in row blocks of at most ``_CHUNK_BYTES``: squared
        distances summed over the coordinates left to right, then negated,
        divided by ``2 l^2`` and exponentiated.  For d <= 7 each entry has
        the bits of ``exp(-((X[:, None] - Y[None]) ** 2).sum(axis=2) / (2 l^2))``,
        whose sum of fewer than 8 terms also runs left to right; from d = 8
        numpy sums pairwise and the last bits can differ.  The matrix is
        written into ``out`` when it is given, and the row blocks use
        ``scratch`` from :meth:`eval_scratch` when it is given, so a caller
        filling many matrices can allocate both once.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if out is None:
            out = np.empty((X.shape[0], Y.shape[0]))
        rows = _block_rows(Y.shape[0])
        Yt = np.ascontiguousarray(Y.T)
        if scratch is None:
            # _sq_dists touches scratch only from the second coordinate on,
            # so 1-D points need no scratch block and pass the output instead
            scratch = self.eval_scratch(X.shape[0], Y)
            if scratch is None:
                scratch = out
        for i in range(0, X.shape[0], rows):
            blk = out[i:i + rows]
            _sq_dists(X[i:i + rows], Yt, blk, scratch[:blk.shape[0]])
            np.negative(blk, out=blk)
            np.divide(blk, 2.0 * self.lengthscale**2, out=blk)
            np.exp(blk, out=blk)
        return out

    @staticmethod
    def eval_scratch(n_rows: int, Y: Array):
        """The scratch block :meth:`eval_matrix` needs for up to ``n_rows`` rows
        against the rows of ``Y``; None for 1-D points, which need none."""
        Y = np.atleast_2d(Y)
        if Y.shape[1] == 1:
            return None
        return np.empty((min(_block_rows(Y.shape[0]), n_rows), Y.shape[0]))

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
    if reg < 0:
        raise ValueError("reg must be nonnegative")
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
    """
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("grid must be non-empty")
    probes = halton_points(domain, n_probe)
    if 2**domain.dim <= 4096:
        probes = np.vstack([probes, tensor_points(domain.lower, domain.upper, 2)])
    # chunked nearest-node distances to bound memory
    best = 0.0
    pts_t = np.ascontiguousarray(pts.T)
    for chunk in np.array_split(probes, max(1, probes.shape[0] // 4096)):
        shape = (chunk.shape[0], pts.shape[0])
        d2 = _sq_dists(chunk, pts_t, np.empty(shape), np.empty(shape))
        best = max(best, float(np.sqrt(d2.min(axis=1).max())))
    return best

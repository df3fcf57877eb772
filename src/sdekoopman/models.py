"""SDE systems, linearization at an equilibrium, and spectral diagnostics.

An :class:`SdeSystem` bundles the drift G, the diffusion factor sigma and the
equilibrium of ``dX = G(X) dt + sigma(X) dW``.  The drift splits as
``G(x) = A (x - x*) + F(x)`` with ``A`` the Jacobian at the equilibrium and
``F`` the purely nonlinear remainder, the one source ``w^T F`` of both
solvers, computed by ``LinearDecomposition.nonlinear_at(X, G)``.  A left
eigenpair ``(lambda, w)`` of ``A`` fixes the linear part ``w^T x`` of a
principal eigenfunction, and the remaining nonlinear correction solves a
second-order PDE handled by the collocation and Monte Carlo modules.

Drift and diffusion callables accept a single state of shape ``(d,)`` and
may also accept a batch ``(n, d)``, returning ``(n, d)`` and ``(n, d, m)``.
Batch support is decided once, at construction, on d + 1 stacked copies of
the equilibrium; other callables run row by row.  A batch callable must treat
rows independently, as ``-x * np.sum(x**2, axis=-1, keepdims=True)`` does: a
reduction over the whole array has the batch shape too, and passes the probe.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EigenstructureError, EvaluationError

Array = np.ndarray

_EQUILIBRIUM_TOL = 1e-10


def is_int(value) -> bool:
    """True for an integer (numpy integers included) that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def small_matmul(Y: Array, M: Array) -> Array:
    """``Y @ M`` for states Y, shape ``(n, k)`` or ``(k,)``, and a small matrix
    ``(k, p)`` or vector ``(k,)`` M, with the bits of ``@``.

    With one column (k = 1), ``@`` hands BLAS one length-1 dot product per
    row, which costs about four times the elementwise product.  BLAS rounds
    that dot product once, as the product ``Y * M[0]`` does, and sums it
    into a zeroed accumulator, which turns a -0.0 product into +0.0; the
    ``+ 0.0`` here does the same.  With two or more columns ``@`` is kept:
    BLAS fuses its multiply-adds, which an elementwise sum would not round
    alike.  Inner dimensions that differ raise ValueError, as ``@`` does.
    """
    if Y.shape[-1] != 1:
        return Y @ M
    if M.shape[0] != 1:
        raise ValueError(f"inner dimensions differ: {Y.shape} @ {M.shape}")
    out = (Y[..., 0] if M.ndim == 1 else Y) * M[0]
    out += 0.0
    return out


def _as_point(x, dim, name="x"):
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError(f"{name} must have shape ({dim},), got {x.shape}")
    return x


@dataclass(frozen=True)
class SdeSystem:
    """An Ito SDE ``dX = G(X) dt + sigma(X) dW`` with a known equilibrium."""

    dim_state: int
    dim_noise: int
    drift: Callable[[Array], Array]
    diffusion_factor: Callable[[Array], Array]
    equilibrium: Optional[Array] = None
    label: str = ""

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_noise < 1:
            raise ValueError("dim_state and dim_noise must be positive")
        eq = self.equilibrium
        eq = np.zeros(self.dim_state) if eq is None else np.asarray(eq, dtype=float)
        if eq.shape != (self.dim_state,):
            raise ValueError("equilibrium has wrong dimension")
        object.__setattr__(self, "equilibrium", eq)
        g0 = np.asarray(self.drift(eq), dtype=float)
        if g0.shape != (self.dim_state,):
            raise ValueError("drift must return a d-vector")
        if not np.all(np.isfinite(g0)):
            raise EvaluationError(f"drift is non-finite at the equilibrium of '{self.label}'")
        if np.linalg.norm(g0) > _EQUILIBRIUM_TOL:
            raise ValueError(
                f"drift({eq}) has norm {np.linalg.norm(g0):.3e}; not an equilibrium"
            )
        s0 = np.asarray(self.diffusion_factor(eq), dtype=float)
        if s0.shape != (self.dim_state, self.dim_noise):
            raise ValueError(
                f"diffusion_factor must return shape ({self.dim_state}, {self.dim_noise}),"
                f" got {s0.shape}"
            )
        object.__setattr__(self, "_drift_eval", self._evaluator(self.drift, g0.shape))
        object.__setattr__(self, "_sigma_eval",
                           self._evaluator(self.diffusion_factor, s0.shape))

    def _evaluator(self, fn, shape):
        """``fn`` itself when it maps d + 1 stacked copies of the equilibrium
        to shape ``(d + 1, *shape)``, else a loop over the rows of a batch."""
        probe = np.tile(self.equilibrium, (self.dim_state + 1, 1))
        try:
            if np.shape(fn(probe)) == probe.shape[:1] + shape:
                return fn
        except Exception:
            pass
        return lambda X: np.stack([np.asarray(fn(x), dtype=float) for x in X])

    def drift_at(self, X: Array) -> Array:
        """Drift evaluated at a batch of states, shape ``(n, d)``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.asarray(self._drift_eval(X), dtype=float)

    def sigma_at(self, X: Array) -> Array:
        """Diffusion factor at a batch of states, shape ``(n, d, m)``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.asarray(self._sigma_eval(X), dtype=float)


@dataclass(frozen=True)
class LinearDecomposition:
    """A and x* of the drift split ``G(x) = A (x - x*) + F(x)``; F is not stored."""

    a_matrix: Array
    equilibrium: Array

    def __post_init__(self):
        A = np.asarray(self.a_matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("a_matrix must be square")
        eq = np.asarray(self.equilibrium, dtype=float)
        if eq.shape != A.shape[:1] or not np.all(np.isfinite(eq)):
            raise ValueError(f"equilibrium must be a finite vector of length {A.shape[0]}, "
                             f"got {self.equilibrium!r}")
        object.__setattr__(self, "a_matrix", A)
        object.__setattr__(self, "equilibrium", eq)

    def nonlinear_at(self, X: Array, G: Array) -> Array:
        """``F = G - A (x - x*)`` at states X from the drift values G there."""
        return G - small_matmul(X - self.equilibrium, self.a_matrix.T)


@dataclass(frozen=True)
class EigenPair:
    """Real eigenvalue and left eigenvector of the linearization."""

    eigenvalue: float
    left_eigenvector: Array

    def __post_init__(self):
        w = np.asarray(self.left_eigenvector, dtype=float)
        if w.ndim != 1 or np.linalg.norm(w) == 0.0:
            raise ValueError("left_eigenvector must be a nonzero vector")
        if not np.all(np.isfinite(w)):
            raise ValueError(f"left_eigenvector must be finite, got {w.tolist()}")
        lam = float(self.eigenvalue)
        if not np.isfinite(lam):
            raise ValueError(f"eigenvalue must be finite, got {lam!r}")
        object.__setattr__(self, "eigenvalue", lam)
        object.__setattr__(self, "left_eigenvector", w)


def _zero_boundary(X):
    X = np.atleast_2d(X)
    return np.zeros(X.shape[0])


@dataclass(frozen=True)
class Domain:
    """Axis-aligned box with Dirichlet boundary data (default psi = 0)."""

    lower: Array
    upper: Array
    boundary_value: Callable[[Array], Array] = _zero_boundary

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lower and upper must be d-vectors of equal length")
        if not np.all(lo < hi):
            raise ValueError("domain must satisfy lower[i] < upper[i]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, X: Array) -> Array:
        """Boolean mask: rows of X inside the closed box."""
        X = np.atleast_2d(X)
        return ((X >= self.lower) & (X <= self.upper)).all(axis=1)

    def contains_strict(self, x: Array) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x > self.lower) and np.all(x < self.upper))

    def clamp(self, X: Array) -> Array:
        """Project states componentwise onto the box surface/interior."""
        return np.clip(X, self.lower, self.upper)

    def psi_at(self, X: Array) -> Array:
        X = np.atleast_2d(X)
        return np.asarray(self.boundary_value(X), dtype=float).reshape(X.shape[0])


def tensor_points(lower, upper, n: int) -> Array:
    """The uniform tensor grid on the box, ``n`` points per axis with both ends
    included, shape (n**d, d); the first axis varies slowest."""
    axes = [np.linspace(lo, hi, n) for lo, hi in zip(lower, upper)]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def halton_points(domain: Domain, n: int) -> Array:
    """Deterministic quasi-random probe points filling the box."""
    if n < 1:
        raise ValueError("need at least one probe point")
    from scipy.stats import qmc  # slow to import; only probe sampling needs it
    sampler = qmc.Halton(d=domain.dim, scramble=False)
    u = sampler.random(n)
    return qmc.scale(u, domain.lower, domain.upper)


def linearize(system: SdeSystem, fd_step: float = 1e-5,
              a_matrix: Optional[Array] = None) -> LinearDecomposition:
    """Split the drift into its Jacobian at the equilibrium plus a remainder.

    The Jacobian is a central finite difference with step ``fd_step`` unless
    an exact ``a_matrix`` is supplied, which always takes precedence (and is
    the right choice whenever the linear part is known in closed form).
    """
    if not 0.0 < fd_step <= 1e-2:
        raise ValueError("fd_step must lie in (0, 1e-2]")
    d = system.dim_state
    x0 = system.equilibrium
    if a_matrix is not None:
        A = np.asarray(a_matrix, dtype=float)
        if A.shape != (d, d):
            raise ValueError(f"a_matrix must have shape ({d}, {d})")
    else:
        # rows j and d + j are the equilibrium shifted by +-fd_step along axis j
        shifts = fd_step * np.eye(d)
        G = system.drift_at(np.concatenate([x0 + shifts, x0 - shifts]))
        bad = ~np.isfinite(G).all(axis=1)
        if bad.any():
            j = int(np.argmax(bad[:d] | bad[d:]))
            raise EvaluationError(
                f"drift is non-finite near the equilibrium (coordinate {j})"
            )
        A = (G[:d] - G[d:]).T / (2.0 * fd_step)
    return LinearDecomposition(a_matrix=A, equilibrium=x0)


def left_eigenpair(decomp: LinearDecomposition, which: Optional[float] = None) -> EigenPair:
    """Real left eigenpair ``w^T A = lambda w^T`` of the linearization.

    ``which`` selects the eigenvalue closest to the given real target; by
    default the eigenvalue with the largest real part (the slowest mode) is
    taken.  The eigenvector is scaled so its largest-magnitude entry is +1.
    Complex or numerically unreliable selections raise
    :class:`EigenstructureError`.
    """
    if which is not None and not np.isfinite(which):
        raise ValueError(f"which must be a finite eigenvalue target, got {which!r}")
    A = decomp.a_matrix
    vals, vecs = np.linalg.eig(A.T)
    if which is None:
        idx = int(np.argmax(vals.real))
    else:
        idx = int(np.argmin(np.abs(vals - complex(which))))
    lam = vals[idx]
    scale = max(1.0, float(np.max(np.abs(vals))))
    if abs(lam.imag) > 1e-10 * scale:
        raise EigenstructureError(
            f"selected eigenvalue {lam:.6g} is complex; only real spectra are supported"
        )
    w = vecs[:, idx]
    if np.max(np.abs(w.imag)) > 1e-10 * np.max(np.abs(w)):
        raise EigenstructureError(f"eigenvector for {lam.real:.6g} is complex")
    w = w.real
    w = w / w[int(np.argmax(np.abs(w)))]
    lam = float(lam.real)
    resid = np.linalg.norm(w @ A - lam * w)
    if resid > 1e-9 * np.linalg.norm(w) * scale:
        raise EigenstructureError(
            f"left-eigenvector residual {resid:.3e} too large; eigenvalue may be defective"
        )
    return EigenPair(eigenvalue=lam, left_eigenvector=w)


def diffusion_tensor(system: SdeSystem, x: Array) -> Array:
    """Diffusion tensor ``a(x) = sigma(x) sigma(x)^T`` (symmetric PSD)."""
    s = system.sigma_at(_as_point(x, system.dim_state))[0]
    return s @ s.T


def ellipticity_level(system: SdeSystem, domain: Domain, n_probe: int = 128) -> float:
    """Smallest eigenvalue of a(x) minimized over quasi-random probes.

    A strictly positive value flags the uniformly elliptic regime; zero flags
    degenerate diffusion (the Hessian-trace assembly stays exact there).
    """
    if n_probe < 1:
        raise ValueError("n_probe must be >= 1")
    S = system.sigma_at(halton_points(domain, n_probe))
    nu = float(np.linalg.eigvalsh(S @ S.transpose(0, 2, 1))[:, 0].min())
    return max(nu, 0.0)


def lambda_threshold(system: SdeSystem, domain: Domain, grid_per_axis: int = 64) -> float:
    """Half the grid maximum of the negative part of div G over the box.

    Eigenvalues with real part above this level put the problem in the
    coercive regime.  The divergence uses central finite differences (step
    1e-5) and a uniform tensor grid, so this is a grid approximation of the
    supremum, not an exact bound.
    """
    if grid_per_axis < 2:
        raise ValueError("grid_per_axis must be >= 2")
    d = domain.dim
    X = tensor_points(domain.lower, domain.upper, grid_per_axis)
    h = 1e-5
    div = np.zeros(X.shape[0])
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        div += (system.drift_at(X + e)[:, i] - system.drift_at(X - e)[:, i]) / (2.0 * h)
    neg_part = np.maximum(0.0, -div)
    return 0.5 * float(neg_part.max())

"""SDE systems, linearization at an equilibrium, and spectral diagnostics.

An :class:`SdeSystem` bundles the drift G, the diffusion factor sigma and the
equilibrium of ``dX = G(X) dt + sigma(X) dW``.  The drift splits as
``G(x) = A (x - x*) + F(x)`` with ``A`` the Jacobian at the equilibrium and
``F`` the purely nonlinear remainder; a left eigenpair ``(lambda, w)`` of
``A`` fixes the linear part ``w^T x`` of a principal eigenfunction, and the
remaining nonlinear correction solves a second-order PDE handled by the
collocation and Monte Carlo modules.

Drift and diffusion callables accept a single state of shape ``(d,)``.  They
may additionally accept a batch of states of shape ``(n, d)`` (returning
``(n, d)`` and ``(n, d, m)`` respectively); batch support is detected once at
construction and falls back to a row loop otherwise.
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
        object.__setattr__(self, "_drift_batched", self._probe_batch(self.drift, (2, self.dim_state)))
        object.__setattr__(
            self,
            "_sigma_batched",
            self._probe_batch(self.diffusion_factor, (2, self.dim_state, self.dim_noise)),
        )

    def _probe_batch(self, fn, want_shape):
        probe = np.stack([self.equilibrium, self.equilibrium])
        try:
            out = np.asarray(fn(probe), dtype=float)
        except Exception:
            return False
        return out.shape == want_shape

    def drift_at(self, X: Array) -> Array:
        """Drift evaluated at a batch of states, shape ``(n, d)``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._drift_batched:
            return np.asarray(self.drift(X), dtype=float)
        return np.stack([np.asarray(self.drift(x), dtype=float) for x in X])

    def sigma_at(self, X: Array) -> Array:
        """Diffusion factor at a batch of states, shape ``(n, d, m)``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._sigma_batched:
            return np.asarray(self.diffusion_factor(X), dtype=float)
        return np.stack([np.asarray(self.diffusion_factor(x), dtype=float) for x in X])


@dataclass(frozen=True)
class LinearDecomposition:
    """Drift split ``G(x) = A (x - x*) + F(x)`` around the equilibrium x*."""

    a_matrix: Array
    nonlinear_part: Callable[[Array], Array]
    equilibrium: Array

    def __post_init__(self):
        A = np.asarray(self.a_matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("a_matrix must be square")
        object.__setattr__(self, "a_matrix", A)
        object.__setattr__(self, "equilibrium", np.asarray(self.equilibrium, dtype=float))

    def nonlinear_at(self, X: Array) -> Array:
        """Nonlinear remainder F on a batch of states, shape ``(n, d)``."""
        return np.asarray(self.nonlinear_part(np.atleast_2d(np.asarray(X, dtype=float))))


@dataclass(frozen=True)
class EigenPair:
    """Real eigenvalue and left eigenvector of the linearization."""

    eigenvalue: float
    left_eigenvector: Array

    def __post_init__(self):
        w = np.asarray(self.left_eigenvector, dtype=float)
        if w.ndim != 1 or np.linalg.norm(w) == 0.0:
            raise ValueError("left_eigenvector must be a nonzero vector")
        object.__setattr__(self, "eigenvalue", float(self.eigenvalue))
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
        A = np.empty((d, d))
        for j in range(d):
            e = np.zeros(d)
            e[j] = fd_step
            gp = np.asarray(system.drift(x0 + e), dtype=float)
            gm = np.asarray(system.drift(x0 - e), dtype=float)
            if not (np.all(np.isfinite(gp)) and np.all(np.isfinite(gm))):
                raise EvaluationError(
                    f"drift is non-finite near the equilibrium (coordinate {j})"
                )
            A[:, j] = (gp - gm) / (2.0 * fd_step)

    def nonlinear_part(X, _A=A, _x0=x0, _sys=system):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            return np.asarray(_sys.drift(X), dtype=float) - _A @ (X - _x0)
        return _sys.drift_at(X) - (X - _x0) @ _A.T

    return LinearDecomposition(a_matrix=A, nonlinear_part=nonlinear_part, equilibrium=x0)


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
    x = _as_point(x, system.dim_state)
    s = np.asarray(system.diffusion_factor(x), dtype=float)
    return s @ s.T


def ellipticity_level(system: SdeSystem, domain: Domain, n_probe: int = 128) -> float:
    """Smallest eigenvalue of a(x) minimized over quasi-random probes.

    A strictly positive value flags the uniformly elliptic regime; zero flags
    degenerate diffusion (the Hessian-trace assembly stays exact there).
    """
    if n_probe < 1:
        raise ValueError("n_probe must be >= 1")
    probes = halton_points(domain, n_probe)
    nu = np.inf
    for x in probes:
        a = diffusion_tensor(system, x)
        nu = min(nu, float(np.linalg.eigvalsh(a)[0]))
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

"""Built-in benchmark models with their full solver configuration.

Each entry yields the SDE system, domain, exact linearization, selected left
eigenpair, kernel lengthscale, collocation grid recipe and regularization
used by the corresponding benchmark experiment.  Registered names:

* ``ou``        -- scalar Ornstein-Uhlenbeck, dX = -theta X dt + sigma dW
                   (theta=1, sigma=0.5, 40 nodes on [-2.5, 2.5], l=1.0);
                   exact eigenfunction phi(x) = x at lambda = -1.
* ``quadratic`` -- dX = (-X + 0.3 X^2) dt + sigma dW (sigma parameter,
                   50 nodes on [-1.2, 1.2], l=0.8); lambda = -1, w = 1.
* ``linear2d``  -- dX = A X dt + B dW with A = [[-1, 0.5], [0, -2]],
                   B = diag(0.3, 0.5) (15 x 15 grid on [-1.5, 1.5]^2, l=1.0);
                   lambda = -1, w = (1, 0.5), exact phi(x) = w . x.
* ``langevin``  -- underdamped Langevin in (q, p) with V(q) = q^2 / 2,
                   dq = p dt, dp = (-q - gamma p) dt + sqrt(2 gamma / beta) dW;
                   the diffusion tensor is singular.  Assembly keeps the
                   vector-field entries (the tests' bit pins were recorded
                   with them; the trace form is exact too).  Defaults
                   gamma=2.5, beta=1 keep the spectrum real ({-0.5, -2}).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .collocation import GridSpec
from .models import (Domain, EigenPair, LinearDecomposition, SdeSystem,
                     left_eigenpair, linearize)

Array = np.ndarray


def constant_diffusion(B: Array) -> Callable:
    """Diffusion-factor callable for a constant d x m matrix (batch-aware)."""
    B = np.asarray(B, dtype=float)

    def sigma(x, _B=B):
        x = np.asarray(x)
        if x.ndim == 1:
            return _B
        return np.broadcast_to(_B, (x.shape[0],) + _B.shape)

    return sigma


@dataclass(frozen=True)
class ModelSetup:
    """Everything needed to run one benchmark end to end."""

    name: str
    system: SdeSystem
    domain: Domain
    decomp: LinearDecomposition
    eigenpair: EigenPair
    lengthscale: float
    grid_spec: GridSpec
    gamma: float
    degenerate_mode: bool = False
    exact_phi: Optional[Callable] = None
    semigroup_x0: Optional[Array] = None
    params: dict = None

    def with_overrides(self, lengthscale=None, grid_spec=None, gamma=None,
                       lambda_select=None) -> "ModelSetup":
        out = self
        if lengthscale is not None:
            out = replace(out, lengthscale=float(lengthscale))
        if grid_spec is not None:
            out = replace(out, grid_spec=grid_spec)
        if gamma is not None:
            out = replace(out, gamma=float(gamma))
        if lambda_select is not None:
            out = replace(out, eigenpair=left_eigenpair(out.decomp, which=lambda_select))
        return out


def make_ou(theta: float = 1.0, sigma: float = 0.5) -> ModelSetup:
    A = np.array([[-theta]])
    system = SdeSystem(
        dim_state=1, dim_noise=1,
        drift=lambda x: x @ A.T,
        diffusion_factor=constant_diffusion(np.array([[sigma]])),
        label="ou",
    )
    decomp = linearize(system, a_matrix=A)
    pair = left_eigenpair(decomp, which=-theta)
    return ModelSetup(
        name="ou", system=system, domain=Domain(lower=[-2.5], upper=[2.5]),
        decomp=decomp, eigenpair=pair, lengthscale=1.0,
        grid_spec=GridSpec("uniform_1d", 40), gamma=1e-4,
        exact_phi=lambda x: np.atleast_2d(x)[:, 0],
        semigroup_x0=np.array([1.0]),
        params={"theta": theta, "sigma": sigma},
    )


def make_quadratic(sigma: float = 0.3) -> ModelSetup:
    A = np.array([[-1.0]])
    system = SdeSystem(
        dim_state=1, dim_noise=1,
        drift=lambda x: -x + 0.3 * x**2,
        diffusion_factor=constant_diffusion(np.array([[sigma]])),
        label=f"quadratic(sigma={sigma:g})",
    )
    decomp = linearize(system, a_matrix=A)
    pair = left_eigenpair(decomp, which=-1.0)
    return ModelSetup(
        name="quadratic", system=system, domain=Domain(lower=[-1.2], upper=[1.2]),
        decomp=decomp, eigenpair=pair, lengthscale=0.8,
        grid_spec=GridSpec("uniform_1d", 50), gamma=1e-4,
        semigroup_x0=np.array([1.0]),
        params={"sigma": sigma},
    )


def make_linear2d() -> ModelSetup:
    A = np.array([[-1.0, 0.5], [0.0, -2.0]])
    B = np.diag([0.3, 0.5])
    system = SdeSystem(
        dim_state=2, dim_noise=2,
        drift=lambda x: x @ A.T,
        diffusion_factor=constant_diffusion(B),
        label="linear2d",
    )
    decomp = linearize(system, a_matrix=A)
    pair = left_eigenpair(decomp, which=-1.0)
    w = pair.left_eigenvector
    return ModelSetup(
        name="linear2d", system=system,
        domain=Domain(lower=[-1.5, -1.5], upper=[1.5, 1.5]),
        decomp=decomp, eigenpair=pair, lengthscale=1.0,
        grid_spec=GridSpec("tensor", 15), gamma=1e-4,
        exact_phi=lambda x, _w=w: np.atleast_2d(x) @ _w,
        semigroup_x0=np.array([1.0, 0.5]),
        params={},
    )


def make_langevin(gamma: float = 2.5, beta: float = 1.0) -> ModelSetup:
    # state (q, p); V(q) = q^2/2 so -grad V = -q and the drift is linear
    A = np.array([[0.0, 1.0], [-1.0, -gamma]])
    noise = np.sqrt(2.0 * gamma / beta)
    B = np.array([[0.0], [noise]])
    system = SdeSystem(
        dim_state=2, dim_noise=1,
        drift=lambda x: x @ A.T,
        diffusion_factor=constant_diffusion(B),
        label=f"langevin(gamma={gamma:g}, beta={beta:g})",
    )
    decomp = linearize(system, a_matrix=A)
    pair = left_eigenpair(decomp)  # slowest real mode
    return ModelSetup(
        name="langevin", system=system,
        domain=Domain(lower=[-2.0, -2.0], upper=[2.0, 2.0]),
        decomp=decomp, eigenpair=pair, lengthscale=1.0,
        grid_spec=GridSpec("tensor", 10), gamma=1e-4,
        degenerate_mode=True,
        semigroup_x0=np.array([1.0, 0.5]),
        params={"gamma": gamma, "beta": beta},
    )


_BUILDERS = {
    "ou": make_ou,
    "quadratic": make_quadratic,
    "linear2d": make_linear2d,
    "langevin": make_langevin,
}

MODEL_NAMES = tuple(sorted(_BUILDERS))
MODEL_PARAMS = {name: tuple(inspect.signature(builder).parameters)
                for name, builder in _BUILDERS.items()}


def get_model(name: str, **params) -> ModelSetup:
    """Look up a registered model by name, with model-specific parameters."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown model '{name}'; registered: {', '.join(MODEL_NAMES)}")
    return builder(**params)

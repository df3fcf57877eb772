"""Euler-Maruyama simulation and Monte Carlo estimation of h.

The nonlinear correction admits the probabilistic representation

    h(x) = E_x[ e^{-lambda tau} psi(X_tau) + int_0^tau e^{-lambda t} w^T F(X_t) dt ],

with tau the first exit time from the domain box.  Paths are simulated with
Euler-Maruyama steps; the running source integral uses the left-endpoint rule
(accumulate at the current state, then step), accepting the O(dt) bias.  Exit
is detected at discrete steps and the exit position is the componentwise
clamp of the first out-of-box state onto the box; a path that leaves and
returns between two steps is missed, which biases estimates by O(sqrt(dt)),
the larger of the two terms.

Randomness is counter-based: the normals for simulation step ``s`` of query
stream ``q`` come from a Philox generator keyed by ``(seed, q)`` with counter
block ``s``, with paths laid out as rows of the drawn block.  The queries of a
batch are stepped together in blocks of at most ``_BLOCK_ROWS`` path rows
(one query per block when its paths alone exceed that); each step evaluates
the drift once on all live paths of the block, except that a query down to
its last live path is evaluated on its own, as a standalone run evaluates it.
Results are bit-reproducible and independent of evaluation order, of how the
queries are grouped into blocks, and of the number of worker processes that
:func:`fk_batch` spreads them over.

A step's small products skip BLAS and einsum.  The source ``w^T F`` and the
drift split multiply the path rows by a vector or matrix with as few columns
as the state has; with one column ``@`` would hand BLAS one length-1 dot
product per row, at about four times the cost of
:func:`~sdekoopman.models.small_matmul`'s elementwise product.  With one or
two noise columns the noise ``sigma(X) Z`` sums one or two products per
entry, which :func:`_noise_sum` writes out column by column instead of
paying einsum's set-up.  Both round as BLAS and einsum do and add +0.0 where
those sum into a zeroed accumulator, so every output keeps its bits.

For negative eigenvalues the discount e^{-lambda t} grows without bound, so
paths are also stopped once it would exceed ``DISCOUNT_GUARD``; such paths
count as capped and set the ``discount_overflow`` flag.  When every path is
capped the estimate is dominated by the truncation and should be treated as
unreliable (``all_capped``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

from .collocation import CollocationGrid, CollocationSolution
from .errors import EvaluationError, SingularSystemError
from .kernels import GaussianKernel
from .models import (Domain, EigenPair, LinearDecomposition, SdeSystem, is_int,
                     small_matmul)
from .workers import map_in_workers

Array = np.ndarray

DISCOUNT_GUARD = 1e12

# Most Euler-Maruyama steps one path may take, for the Feynman-Kac cap
# ``t_max / dt`` and for every semigroup horizon ``t / dt``; every preset,
# test and benchmark takes at most 20,000 (dt 0.0025, t_max 50).
_MAX_STEPS = 10**7


def _check_step_count(steps: float, what: str) -> None:
    """Reject a per-path step count ``steps`` (spelled ``what``) above the cap."""
    if steps > _MAX_STEPS:
        raise ValueError(f"{what} must be at most {_MAX_STEPS:.0e} steps per "
                         f"path, got {steps:.4g}")


@dataclass(frozen=True)
class FkConfig:
    """Path-simulation parameters for the Monte Carlo estimator."""

    dt: float = 0.01
    n_paths: int = 10_000
    t_max: float = 50.0
    seed: int = 0
    antithetic: bool = False

    def __post_init__(self):
        for key, value in (("n_paths", self.n_paths), ("seed", self.seed)):
            if not is_int(value):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if not isinstance(self.antithetic, bool):
            raise ValueError(f"antithetic must be a bool, got {self.antithetic!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_max >= self.dt:
            raise ValueError("t_max must be >= dt")
        if not np.isfinite(self.t_max / self.dt):
            raise ValueError("t_max / dt must be a finite step count")
        _check_step_count(self.t_max / self.dt, "t_max / dt")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class FkEstimate:
    """Monte Carlo value with error and exit-time statistics for one point."""

    value: float
    std_error: float
    n_capped: int
    mean_exit_time: float
    discount_overflow: bool
    n_paths: int
    failure: Optional[str] = None

    @property
    def all_capped(self) -> bool:
        """True when no path exited; the boundary term is then never sampled."""
        return self.n_capped == self.n_paths


def counter_normals(seed: int, stream: int, step: int, n: int, m: int) -> Array:
    """Standard normals for one simulation step of one stream, shape (n, m)."""
    key = np.array([seed % 2**64, stream % 2**64], dtype=np.uint64)
    counter = np.array([0, 0, step, 0], dtype=np.uint64)
    gen = Generator(Philox(counter=counter, key=key))
    return gen.standard_normal((n, m))


class _NormalStream:
    """The per-step normals of one query stream, drawn into a fixed buffer.

    ``draw(s)`` fills ``out`` (shape ``(n, m)``) with
    ``counter_normals(cfg.seed, stream, s, n, m)``; with ``cfg.antithetic``
    the first ``ceil(n / 2)`` rows are drawn that way and the rest are their
    negations.  One Philox generator is re-keyed to counter block ``s`` for
    each draw instead of building a new one, so steps may be drawn in any
    order.
    """

    def __init__(self, cfg: FkConfig, stream: int, out: Array):
        key = np.array([cfg.seed % 2**64, stream % 2**64], dtype=np.uint64)
        self._bitgen = Philox(key=key)
        self._gen = Generator(self._bitgen)
        # counter 0 and an empty output buffer, held in lists, which the state
        # setter reads in about 40% of the time it takes over numpy arrays
        fresh = self._bitgen.state
        fresh["state"] = {k: v.tolist() for k, v in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        self._fresh = fresh
        n = out.shape[0]
        self._half = (n + 1) // 2 if cfg.antithetic else n
        self._out = out

    def draw(self, step: int) -> Array:
        self._fresh["state"]["counter"][2] = step
        self._bitgen.state = self._fresh
        out, half = self._out, self._half
        self._gen.standard_normal(out=out[:half])
        if half < out.shape[0]:
            np.negative(out[: out.shape[0] - half], out=out[half:])
        return out


def _noise_sum(S: Array, Z: Array, out: Array, scratch: Array) -> Array:
    """The noise ``np.einsum("ndm,nm->nd", S, Z)`` into ``out``, with its bits.

    For m <= 2, column ``i`` is the explicit sum ``(+0.0 + S[:, i, 0] Z[:, 0])
    + S[:, i, 1] Z[:, 1]``, with ``scratch`` (the shape of ``out``) for the
    second product.  einsum sums the same products into a zeroed accumulator,
    and two terms round alike in either order; the ``+ 0.0`` turns a -0.0
    first product into +0.0 as that accumulator does.  Each column is a flat
    strided loop: a product over all d columns at once makes numpy buffer
    its operands when d = 2 (132 KB at 20,000 rows), and runs slower than
    einsum.  For m >= 3 einsum orders its sum differently, so it is kept.
    """
    m = Z.shape[1]
    if m > 2:
        return np.einsum("ndm,nm->nd", S, Z, out=out)
    for i in range(out.shape[1]):
        col = out[:, i]
        np.multiply(S[:, i, 0], Z[:, 0], out=col)
        col += 0.0
        if m == 2:
            col += np.multiply(S[:, i, 1], Z[:, 1], out=scratch[:, i])
    return out


def _em_update(X: Array, G: Array, S: Array, Z: Array, dt: float, out: Array,
               noise: Array) -> Array:
    """The Euler-Maruyama update ``X + G dt + sqrt(dt) S Z`` from drift ``G``
    and diffusion factor ``S`` at X, written into ``out`` with ``noise`` (the
    shape of X) as scratch; it rounds as the expression does, left to right.

    ``S Z`` is :func:`_noise_sum`, the bits of einsum without its set-up,
    which at a path block's few columns cost more than the products; ``out``
    is its scratch before it takes the update, so a step allocates nothing."""
    _noise_sum(S, Z, noise, out)
    noise *= np.sqrt(dt)
    np.multiply(G, dt, out=out)
    out += X
    out += noise
    return out


def _em_step(system: SdeSystem, X: Array, Z: Array, dt: float, out: Array,
             noise: Array) -> Array:
    """One Euler-Maruyama step of the states X into ``out``; a step that is
    not finite raises, naming the state it started from."""
    _em_update(X, system.drift_at(X), system.sigma_at(X), Z, dt, out, noise)
    if not np.all(np.isfinite(out)):
        bad = X[~np.isfinite(out).all(axis=1)][0]
        raise EvaluationError(f"Euler-Maruyama step blew up from state {bad}")
    return out


def em_step(system: SdeSystem, x: Array, dt: float, z: Array) -> Array:
    """One Euler-Maruyama step ``x + G(x) dt + sigma(x) sqrt(dt) z``.

    Accepts a single state ``(d,)`` with noise ``(m,)`` or batches
    ``(n, d)`` / ``(n, m)``.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    Z = np.atleast_2d(z)
    out = _em_step(system, X, Z, dt, np.empty_like(X), np.empty_like(X))
    return out[0] if single else out


def _horizon(lam: float, cfg: FkConfig):
    """Effective time cap and whether the discount guard shortens it."""
    if lam < 0:
        t_guard = np.log(DISCOUNT_GUARD) / (-lam)
        if t_guard < cfg.t_max:
            return t_guard, True
    return cfg.t_max, False


def _n_steps(t_cap: float, dt: float) -> int:
    """Whole ``dt`` steps up to the time cap ``t_cap``."""
    return int(np.floor(t_cap / dt + 1e-9))


# Most path rows stepped together; bounds the working set of a batch.
_BLOCK_ROWS = 1 << 16


def _check_query(system: SdeSystem, domain: Domain, x: Array) -> None:
    if x.shape != (system.dim_state,):
        raise ValueError(f"query point must have shape ({system.dim_state},)")
    if not domain.contains_strict(x):
        raise ValueError(f"query point {x} must lie strictly inside the domain")


def _failed(cfg: FkConfig, message: str) -> FkEstimate:
    return FkEstimate(value=float("nan"), std_error=float("nan"), n_capped=cfg.n_paths,
                      mean_exit_time=float("nan"), discount_overflow=False,
                      n_paths=cfg.n_paths, failure=message)


def _advance(system: SdeSystem, decomp: LinearDecomposition, w: Array, X: Array,
             Z: Array, dt: float):
    """Source ``w^T F`` at states X and their Euler-Maruyama update.

    The drift is evaluated once and split by the decomposition.
    """
    G = system.drift_at(X)
    return small_matmul(decomp.nonlinear_at(X, G), w), _em_update(
        X, G, system.sigma_at(X), Z, dt, np.empty_like(X), np.empty_like(X))


def _fk_block(system: SdeSystem, decomp: LinearDecomposition, eigenpair: EigenPair,
              domain: Domain, points: Array, streams, cfg: FkConfig) -> list[FkEstimate]:
    """Step the paths of the queries ``points`` (stream ids ``streams``) together.

    Path ``k`` of the ``j``-th query is flat row ``j * K + k``.  Only live
    paths are stepped, kept compacted in flat-row order with their row
    indices and running source integrals ``acc``; a path's value goes to
    ``vals`` when it exits, and at the end for capped paths.  A query whose
    paths blow up gets a failure estimate carrying the message a standalone
    run raises; the other queries are unaffected.
    """
    lam = eigenpair.eigenvalue
    w = eigenpair.left_eigenvector
    n_q, K, dt = len(points), cfg.n_paths, cfg.dt
    t_cap, guard_active = _horizon(lam, cfg)
    n_steps = _n_steps(t_cap, dt)

    Z = np.empty((n_q * K, system.dim_noise))
    normals = [_NormalStream(cfg, q, Z[j * K:(j + 1) * K]) for j, q in enumerate(streams)]
    query_starts = np.arange(n_q + 1) * K
    X = np.repeat(points, K, axis=0)
    rows = np.arange(n_q * K)
    acc = np.zeros(n_q * K)
    vals = np.zeros(n_q * K)
    tau = np.full(n_q * K, np.nan)
    failures = [None] * n_q
    changed = True  # the live set changed: recompute what depends on it
    for s in range(n_steps):
        if not rows.size:
            break
        if changed:
            bounds = np.searchsorted(rows, query_starts)
            counts = np.diff(bounds)
            live = [normals[j] for j in np.flatnonzero(counts)]
            lone = bounds[:-1][counts == 1]
            parts = None
            if lone.size and rows.size > 1:
                # BLAS (a drift may call it, and the products of two or more
                # columns do) rounds a one-row product differently from the
                # same row inside a larger one, so a query down to its last
                # live path is stepped on its own, as a standalone run steps it
                rest = np.ones(rows.size, dtype=bool)
                rest[lone] = False
                parts = [part for part in (np.flatnonzero(rest), *lone[:, None]) if part.size]
            changed = False
        for stream in live:
            stream.draw(s)
        t = s * dt
        Zl = Z if rows.size == len(Z) else Z.take(rows, axis=0)
        if parts is None:
            source, Xn = _advance(system, decomp, w, X, Zl, dt)
        else:
            source, Xn = np.empty(rows.size), np.empty_like(X)
            for part in parts:
                source[part], Xn[part] = _advance(system, decomp, w, X[part], Zl[part], dt)
        acc += np.exp(-lam * t) * source * dt
        if not np.all(np.isfinite(Xn)):
            bad = np.flatnonzero(~np.isfinite(Xn).all(axis=1))
            queries, first = np.unique(rows[bad] // K, return_index=True)
            ok = np.ones(rows.size, dtype=bool)
            for j, r in zip(queries, bad[first]):
                failures[j] = f"path blew up from state {X[r]} at t={t:.4g}"
                ok[bounds[j]:bounds[j + 1]] = False
            Xn, rows, acc = Xn[ok], rows[ok], acc[ok]
            changed = True
        inside = domain.contains(Xn)
        if not inside.all():
            # row indices select faster than a boolean mask, most of all from (n, d)
            gone = np.flatnonzero(~inside)
            exited = rows[gone]
            t_next = (s + 1) * dt
            tau[exited] = t_next
            vals[exited] = acc[gone] + np.exp(-lam * t_next) * domain.psi_at(
                domain.clamp(Xn[gone]))
            keep = np.flatnonzero(inside)
            Xn, rows, acc = Xn.take(keep, axis=0), rows.take(keep), acc.take(keep)
            changed = True
        X = Xn
    vals[rows] = acc

    n_capped = np.diff(np.searchsorted(rows, query_starts))
    estimates = []
    for j in range(n_q):
        if failures[j] is not None:
            estimates.append(_failed(cfg, failures[j]))
            continue
        span = slice(j * K, (j + 1) * K)
        v, tau_j = vals[span], tau[span]
        exited = ~np.isnan(tau_j)
        mean_exit = float(tau_j[exited].mean()) if exited.any() else float("nan")
        if K == 1 or np.ptp(v) == 0.0:
            se = 0.0
        else:
            se = float(v.std(ddof=1) / np.sqrt(K))
        capped = int(n_capped[j])
        estimates.append(FkEstimate(value=float(v.mean()), std_error=se,
                                    n_capped=capped, mean_exit_time=mean_exit,
                                    discount_overflow=bool(guard_active and capped > 0),
                                    n_paths=K))
    return estimates


def fk_estimate(system: SdeSystem, decomp: LinearDecomposition, eigenpair: EigenPair,
                domain: Domain, x: Array, cfg: FkConfig,
                query_index: int = 0) -> FkEstimate:
    """Monte Carlo Feynman-Kac estimate of h(x) for one interior point.

    Each path accumulates ``e^{-lambda t} w^T F(X_t) dt`` until it leaves the
    box (adding ``e^{-lambda tau} psi`` at the clamped exit state) or the time
    cap is hit.  Capped paths contribute their running integral without a
    boundary term and are counted in ``n_capped``.  The source is
    ``decomp.nonlinear_at(X, G)``, the drift split ``F = G - A (x - x*)``
    that collocation's right-hand side uses too.
    """
    x = np.asarray(x, dtype=float)
    _check_query(system, domain, x)
    est, = _fk_block(system, decomp, eigenpair, domain, x[None, :], [query_index], cfg)
    if est.failure is not None:
        raise EvaluationError(est.failure)
    return est


def fk_batch(system: SdeSystem, decomp: LinearDecomposition, eigenpair: EigenPair,
             domain: Domain, query_points, cfg: FkConfig,
             workers: Optional[int] = None) -> list[FkEstimate]:
    """Independent estimates per query point, streams derived from the index.

    Entry ``i`` equals ``fk_estimate(..., query_index=i)``; the queries are
    stepped together in blocks of at most ``_BLOCK_ROWS`` path rows.
    Per-point failures are recorded on the estimate (``failure`` message,
    NaN value) instead of aborting the batch.

    :func:`workers.map_in_workers` deals the valid queries round-robin to
    ``min(workers, n_valid)`` groups (``workers=None``: the CPUs this process
    may use) and forks a worker for each group after the first, unless the
    batch's path steps, bounded by ``n_valid * n_paths * n_steps``, are too
    few to fork for.  An exception raised in a worker is raised here.
    Results do not depend on evaluation order, on how the queries are
    grouped into blocks, or on the number of workers.
    """
    pts = np.asarray(query_points, dtype=float)
    pts = pts.reshape(0, system.dim_state) if pts.shape == (0,) else np.atleast_2d(pts)
    out = [None] * len(pts)
    valid = []
    for i, x in enumerate(pts):
        try:
            _check_query(system, domain, x)
            valid.append(i)
        except ValueError as exc:
            out[i] = _failed(cfg, str(exc))

    def run(ids):
        per_block = max(1, _BLOCK_ROWS // cfg.n_paths)
        ests = []
        for b in range(0, len(ids), per_block):
            block = ids[b:b + per_block]
            ests += _fk_block(system, decomp, eigenpair, domain, pts[block], block, cfg)
        return ests

    bound = len(valid) * cfg.n_paths * _n_steps(_horizon(eigenpair.eigenvalue, cfg)[0],
                                                cfg.dt)
    for i, est in zip(valid, map_in_workers(run, valid, workers, bound)):
        out[i] = est
    return out


def check_eta(eta: float) -> None:
    """The rule :func:`krr_fit` applies to its ridge: positive and finite."""
    if not 0.0 < eta < np.inf:
        raise ValueError(f"eta must be positive and finite, got {eta!r}")


def krr_fit(kern: GaussianKernel, grid: CollocationGrid, values, eta: float,
            eigenpair: Optional[EigenPair] = None,
            equilibrium: Optional[Array] = None) -> CollocationSolution:
    """Kernel ridge fit ``(K + eta I) alpha = values`` of pointwise estimates.

    Returns an evaluable solution object; pass the eigenpair to make
    ``eval_phi`` meaningful (defaults to a placeholder with w = 0-padded 1).
    """
    check_eta(eta)
    vals = np.asarray(values, dtype=float)
    if vals.shape != (grid.n_points,):
        raise ValueError("values must be one scalar per grid point")
    K = kern.eval_matrix(grid.points, grid.points) + eta * np.eye(grid.n_points)
    try:
        alpha = np.linalg.solve(K, vals)
    except np.linalg.LinAlgError:
        raise SingularSystemError("ridge system factorization failed",
                                  condition_estimate=float(np.linalg.cond(K)))
    if eigenpair is None:
        w = np.zeros(grid.dim)
        w[0] = 1.0
        eigenpair = EigenPair(eigenvalue=0.0, left_eigenvector=w)
    return CollocationSolution(coefficients=alpha, grid=grid, kernel=kern,
                               eigenpair=eigenpair, equilibrium=equilibrium)


def mc_convergence_probe(system: SdeSystem, decomp: LinearDecomposition,
                         eigenpair: EigenPair, domain: Domain, x: Array,
                         cfg: FkConfig, path_counts) -> list[dict]:
    """Standard error versus path count; expected to scale like K^{-1/2}."""
    counts = list(path_counts)
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise ValueError("path_counts must be strictly increasing")
    rows = []
    for K in counts:
        est = fk_estimate(system, decomp, eigenpair, domain, x, replace(cfg, n_paths=int(K)))
        rows.append({"n_paths": int(K), "value": est.value, "std_error": est.std_error})
    return rows


def horizon_steps(t_list, dt: float) -> list[int]:
    """Numbers of ``dt`` steps in the horizons ``t_list``.

    The horizons must be positive and strictly increasing, each a whole
    number of steps up to 1e-9 of a step (so 0.3 / 0.01 counts as 30) and
    at most ``_MAX_STEPS``, and no two may fall on one step.
    """
    ts = [float(t) for t in t_list]
    if not ts or any(t <= 0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_list must be positive and strictly increasing")
    counts = []
    for t in ts:
        steps = t / dt
        n = 0
        if np.isfinite(steps):
            _check_step_count(steps, f"horizon {t!r} / dt")
            n = round(steps)
        if n < 1 or abs(steps - n) > 1e-9:
            raise ValueError(f"horizon {t!r} must be a positive whole number of "
                             f"time steps of dt={dt!r}")
        counts.append(int(n))
    if any(b == a for a, b in zip(counts, counts[1:])):
        raise ValueError("two snapshot times fall on the same time step")
    return counts


def simulate_terminal(system: SdeSystem, x0: Array, t: float, cfg: FkConfig,
                      snapshot_times=None):
    """Unstopped Euler-Maruyama ensemble from x0; used for semigroup checks.

    Returns the (n_paths, d) states at time ``t``, or a dict of snapshots
    ``{t_i: states}`` when ``snapshot_times`` is given (each snapshot equals
    what a separate run to that horizon would produce, because the normals
    are keyed by step index).  The horizons are checked by
    :func:`horizon_steps`; ``snapshot_times`` must be increasing.  The states
    are stepped between two buffers allocated once.
    """
    x0 = np.asarray(x0, dtype=float)
    n_steps, = horizon_steps([t], cfg.dt)
    want = {}
    if snapshot_times is not None:
        steps = horizon_steps(snapshot_times, cfg.dt)
        want = {n: float(ti) for n, ti in zip(steps, snapshot_times)}
        n_steps = max(n_steps, steps[-1])
    X = np.tile(x0, (cfg.n_paths, 1))
    Xn, noise = np.empty_like(X), np.empty_like(X)
    normals = _NormalStream(cfg, 0, np.empty((cfg.n_paths, system.dim_noise)))
    snaps = {}
    for s in range(n_steps):
        _em_step(system, X, normals.draw(s), cfg.dt, Xn, noise)
        X, Xn = Xn, X
        if (s + 1) in want:
            snaps[want[s + 1]] = X.copy()
    return snaps if snapshot_times is not None else X

"""Euler-Maruyama simulation and Monte Carlo estimation of h.

The nonlinear correction admits the probabilistic representation

    h(x) = E_x[ e^{-lambda tau} psi(X_tau) + int_0^tau e^{-lambda t} w^T F(X_t) dt ],

with tau the first exit time from the domain box.  Paths are simulated with
Euler-Maruyama steps; the running source integral uses the left-endpoint rule
(accumulate at the current state, then step), accepting the O(dt) bias.  Exit
is detected at discrete steps and the exit position is the componentwise
clamp of the first out-of-box state onto the box.

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

For negative eigenvalues the discount e^{-lambda t} grows without bound, so
paths are also stopped once it would exceed ``DISCOUNT_GUARD``; such paths
count as capped and set the ``discount_overflow`` flag.  When every path is
capped the estimate is dominated by the truncation and should be treated as
unreliable (``all_capped``).
"""

from __future__ import annotations

import io
import os
import pickle
import threading
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

from .collocation import CollocationGrid, CollocationSolution
from .errors import EvaluationError, SingularSystemError
from .kernels import GaussianKernel
from .models import Domain, EigenPair, LinearDecomposition, SdeSystem, is_int

Array = np.ndarray

DISCOUNT_GUARD = 1e12


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
        self._fresh = self._bitgen.state  # counter 0, empty output buffer
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


def _em_update(X: Array, G: Array, S: Array, Z: Array, dt: float, out: Array,
               noise: Array) -> Array:
    """The Euler-Maruyama update ``X + G dt + sqrt(dt) S Z`` from drift ``G``
    and diffusion factor ``S`` at X, written into ``out`` with ``noise`` (the
    shape of X) as scratch; it rounds as the expression does, left to right."""
    np.einsum("ndm,nm->nd", S, Z, out=noise)
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

    The drift is evaluated once; ``F = G - A (x - x*)`` is the drift split
    exactly as :func:`linearize` computes it.
    """
    G = system.drift_at(X)
    F = G - (X - decomp.equilibrium) @ decomp.a_matrix.T
    return F @ w, _em_update(X, G, system.sigma_at(X), Z, dt, np.empty_like(X),
                             np.empty_like(X))


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
    for s in range(n_steps):
        if not rows.size:
            break
        bounds = np.searchsorted(rows, query_starts)
        counts = np.diff(bounds)
        for j in np.flatnonzero(counts):
            normals[j].draw(s)
        t = s * dt
        Zl = Z.take(rows, axis=0)
        lone = bounds[:-1][counts == 1]
        if lone.size and rows.size > 1:
            # BLAS rounds a one-row product differently from the same row
            # inside a larger one, so a query down to its last live path is
            # stepped on its own, as a standalone run steps it
            source, Xn = np.empty(rows.size), np.empty_like(X)
            rest = np.ones(rows.size, dtype=bool)
            rest[lone] = False
            for part in (np.flatnonzero(rest), *lone[:, None]):
                if part.size:
                    source[part], Xn[part] = _advance(system, decomp, w, X[part], Zl[part], dt)
        else:
            source, Xn = _advance(system, decomp, w, X, Zl, dt)
        acc += np.exp(-lam * t) * source * dt
        if not np.all(np.isfinite(Xn)):
            bad = np.flatnonzero(~np.isfinite(Xn).all(axis=1))
            queries, first = np.unique(rows[bad] // K, return_index=True)
            ok = np.ones(rows.size, dtype=bool)
            for j, r in zip(queries, bad[first]):
                failures[j] = f"path blew up from state {X[r]} at t={t:.4g}"
                ok[bounds[j]:bounds[j + 1]] = False
            Xn, rows, acc = Xn[ok], rows[ok], acc[ok]
        inside = domain.contains(Xn)
        if not inside.all():
            out = ~inside
            exited = rows[out]
            t_next = (s + 1) * dt
            tau[exited] = t_next
            vals[exited] = acc[out] + np.exp(-lam * t_next) * domain.psi_at(
                domain.clamp(Xn[out]))
            Xn, rows, acc = Xn[inside], rows[inside], acc[inside]
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
    boundary term and are counted in ``n_capped``.  The source is the drift
    split ``F = G - A (x - x*)`` of ``decomp``, as :func:`linearize` defines
    it.
    """
    x = np.asarray(x, dtype=float)
    _check_query(system, domain, x)
    est, = _fk_block(system, decomp, eigenpair, domain, x[None, :], [query_index], cfg)
    if est.failure is not None:
        raise EvaluationError(est.failure)
    return est


# Smallest bound ``n_valid * n_paths * n_steps`` on a batch's path steps for
# which fk_batch forks worker processes.  Measured with two workers on 2
# vCPUs: below 2e5 the forked batch was slower in 23 of 25 shapes; from 1e6
# on it was faster in 48 of 52 (the sweep is recorded in CHANGES.md).
_FORK_MIN_PATH_STEPS = 1_000_000


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_main(task, group, worker: int, fd: int) -> None:
    """Body of a forked worker: send ``(True, task(group))``, or ``(False,
    exc)`` for the exception it raised, pickled over the pipe ``fd``; then
    leave through ``os._exit``, so no cleanup of the parent's runs here."""
    code = 1
    try:
        try:
            data = pickle.dumps((True, task(group)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # interrupts too: the parent re-raises it
            try:
                data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
                pickle.loads(data)  # the exception must rebuild in the parent
            except Exception:
                data = pickle.dumps((False, EvaluationError(
                    f"fk_batch worker {worker} raised {type(exc).__name__}: {exc}")))
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        code = 0
    finally:
        os._exit(code)


def _receive(worker: int, fd: int):
    """The result a worker sent over ``fd``, read to end of file; a worker's
    exception is raised here."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    try:
        ok, value = pickle.loads(b"".join(chunks))
    except Exception:
        raise EvaluationError(f"fk_batch worker {worker} exited without a result") from None
    if not ok:
        raise value
    return value


def _in_workers(task, groups) -> list:
    """``[task(g) for g in groups]``, each group after the first run by a
    forked child that sends its result back over a pipe.

    Every child is reaped before this returns or raises, and is killed
    first when the parent's own group fails or the parent is interrupted.
    """
    children = []
    finished = False
    try:
        for worker, group in enumerate(groups[1:], start=1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _worker_main(task, group, worker, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = [task(groups[0])]
        for worker, (_, read_fd) in enumerate(children, start=1):
            results.append(_receive(worker, read_fd))
        finished = True
        return results
    finally:
        if not finished:
            import signal  # 0.6 ms to import; only a failed batch needs it
        for pid, read_fd in children:
            os.close(read_fd)
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def fk_batch(system: SdeSystem, decomp: LinearDecomposition, eigenpair: EigenPair,
             domain: Domain, query_points, cfg: FkConfig,
             workers: Optional[int] = None) -> list[FkEstimate]:
    """Independent estimates per query point, streams derived from the index.

    Entry ``i`` equals ``fk_estimate(..., query_index=i)``; the queries are
    stepped together in blocks of at most ``_BLOCK_ROWS`` path rows.
    Per-point failures are recorded on the estimate (``failure`` message,
    NaN value) instead of aborting the batch.

    The valid queries are dealt round-robin to ``min(workers, n_valid)``
    groups (``workers=None``: the CPUs this process may use).  Each group
    after the first runs in a forked worker process, and an exception raised
    there is raised here.  The batch runs in this process alone when there
    is one group, when ``os.fork`` is missing, when other threads are
    running (a fork would copy their locks), or when ``n_valid * n_paths *
    n_steps`` is below ``_FORK_MIN_PATH_STEPS``.  Results do not depend on
    evaluation order, on how the queries are grouped into blocks, or on the
    number of workers.
    """
    if workers is None:
        workers = _cpu_count()
    elif not is_int(workers) or workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    pts = np.atleast_2d(np.asarray(query_points, dtype=float))
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

    n_workers = min(workers, len(valid))
    bound = len(valid) * cfg.n_paths * _n_steps(_horizon(eigenpair.eigenvalue, cfg)[0],
                                                cfg.dt)
    if (n_workers > 1 and hasattr(os, "fork") and threading.active_count() == 1
            and bound >= _FORK_MIN_PATH_STEPS):
        groups = [valid[k::n_workers] for k in range(n_workers)]
    else:
        groups = [valid]
    for ids, ests in zip(groups, _in_workers(run, groups)):
        for i, est in zip(ids, ests):
            out[i] = est
    return out


def krr_fit(kern: GaussianKernel, grid: CollocationGrid, values, eta: float,
            eigenpair: Optional[EigenPair] = None,
            equilibrium: Optional[Array] = None) -> CollocationSolution:
    """Kernel ridge fit ``(K + eta I) alpha = values`` of pointwise estimates.

    Returns an evaluable solution object; pass the eigenpair to make
    ``eval_phi`` meaningful (defaults to a placeholder with w = 0-padded 1).
    """
    if not eta > 0:
        raise ValueError("eta must be positive")
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
    number of steps up to 1e-9 of a step (so 0.3 / 0.01 counts as 30), and
    no two may fall on one step.
    """
    ts = [float(t) for t in t_list]
    if not ts or any(t <= 0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t_list must be positive and strictly increasing")
    counts = []
    for t in ts:
        steps = t / dt
        n = round(steps) if np.isfinite(steps) else 0
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


def estimates_to_csv(estimates, query_points) -> str:
    """Render batch estimates as CSV with one row per query point.

    Columns: query_index, the point coordinates (x1..xd), value, std_error,
    n_capped, mean_exit_time, overflow_flag.  Floats use their shortest
    round-trip representation.
    """
    pts = np.atleast_2d(np.asarray(query_points, dtype=float))
    d = pts.shape[1]
    buf = io.StringIO()
    coords = ["x"] if d == 1 else [f"x{i + 1}" for i in range(d)]
    buf.write(",".join(["query_index", *coords, "value", "std_error", "n_capped",
                        "mean_exit_time", "overflow_flag"]) + "\n")
    for i, (x, est) in enumerate(zip(pts, estimates)):
        row = [str(i), *(repr(float(c)) for c in x), repr(est.value),
               repr(est.std_error), str(est.n_capped), repr(est.mean_exit_time),
               str(est.discount_overflow)]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()

"""Spans around calls into the sdekoopman modules, for traced benchmark runs.

Tracing lives entirely in the benchmark: ``install`` replaces public
functions and methods with timing wrappers at the place where their callers
look them up (a module global, or a class attribute for methods), so the
library itself is unchanged.  Spans are aggregated in memory as they close:
per span name the call count and the inclusive time of outermost calls, per
module the self time (span duration minus the time covered by child spans).
The self times of all modules therefore add up to the time spent inside
top-level spans.

Counts that are not timings are derived at the same boundaries from public
results and argument shapes; byte counts are computed from array shapes, not
measured.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "validation", "collocation", "kernels", "models", "feynman_kac")


class Tracer:
    """In-memory span aggregator; one per traced workload process."""

    def __init__(self):
        self._open = []  # child-time accumulator of each open span
        self._depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.module_self = defaultdict(float)
        self.counts = defaultdict(float)

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` timed as span ``name`` (``<module>.<what>``).

        ``hook(counts, args, kwargs, result)`` runs after the span closes and
        adds derived counts; its own time is charged to the caller's span.
        """
        module = name.split(".", 1)[0]
        opened, depth = self._open, self._depth
        calls, inclusive, module_self = self.calls, self.inclusive, self.module_self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            opened.append(children)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                opened.pop()
                depth[name] -= 1
                if opened:
                    opened[-1][0] += elapsed
                calls[name] += 1
                if depth[name] == 0:
                    inclusive[name] += elapsed
                module_self[module] += elapsed - children[0]
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, hook=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), hook))


def fk_steps_per_path(cfg, lam):
    """Steps a path runs when it never exits: the estimator's horizon over dt.

    The horizon comes from ``feynman_kac._horizon`` (``t_max``, shortened
    when a negative eigenvalue would overflow the discount guard) and is
    rounded to steps as ``fk_estimate`` rounds it.
    """
    from sdekoopman.feynman_kac import _horizon

    t_cap, _ = _horizon(lam, cfg)
    return int(math.floor(t_cap / cfg.dt + 1e-9))


def derived_path_steps(est, cfg, lam):
    """Euler-Maruyama path-steps behind one estimate (computed, not counted).

    ``n_capped * n_steps + (n_paths - n_capped) * mean_exit_time / dt``: a
    capped path runs every step, an exited path runs ``tau / dt`` steps.
    """
    steps = est.n_capped * fk_steps_per_path(cfg, lam)
    exited = est.n_paths - est.n_capped
    if exited:
        steps += round(exited * est.mean_exit_time / cfg.dt)
    return steps


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def install(tracer):
    """Wrap the public entry points of every sdekoopman module."""
    import sdekoopman.cli as cli
    import sdekoopman.collocation as collocation
    import sdekoopman.feynman_kac as feynman_kac
    import sdekoopman.kernels as kernels
    import sdekoopman.models as models
    import sdekoopman.validation as validation

    def grid_built(counts, args, kwargs, grid):
        counts["collocation.n_nodes"] = max(counts["collocation.n_nodes"], grid.n_points)

    def assembled(counts, args, kwargs, asys):
        # the (N, N, d) difference tensor plus the four N x N matrices kept
        n, d = _arg(args, kwargs, 4, "grid").points.shape
        counts["collocation.assemble_bytes"] += 8 * n * n * (d + 4)

    def kernel_matrix(counts, args, kwargs, K):
        # the (n, N, d) difference tensor behind an n x N kernel matrix
        n, m = K.shape
        d = np.shape(_arg(args, kwargs, 1, "X"))[-1]
        counts["kernels.eval_matrix_bytes"] += 8 * n * m * d

    def fk_batch_done(counts, args, kwargs, estimates):
        cfg = _arg(args, kwargs, 5, "cfg")
        lam = _arg(args, kwargs, 2, "eigenpair").eigenvalue
        for est in estimates:
            counts["feynman_kac.paths"] += est.n_paths
            counts["feynman_kac.capped_paths"] += est.n_capped
            if est.failure is not None:
                counts["feynman_kac.failed_queries"] += 1
            else:
                counts["feynman_kac.path_steps"] += derived_path_steps(est, cfg, lam)

    def terminal_done(counts, args, kwargs, result):
        t = _arg(args, kwargs, 2, "t")
        cfg = _arg(args, kwargs, 3, "cfg")
        n_steps = round(t / cfg.dt)
        if isinstance(result, dict):
            n_steps = max([n_steps, *(round(ti / cfg.dt) for ti in result)])
        counts["feynman_kac.semigroup_path_steps"] += cfg.n_paths * n_steps

    p = tracer.patch
    p(cli, "main", "cli.main")
    for owner in (validation, collocation):
        p(owner, "make_grid", "collocation.make_grid", grid_built)
    p(collocation, "assemble", "collocation.assemble", assembled)
    p(collocation, "solve", "collocation.solve")
    p(validation, "pde_residual", "collocation.residual")
    p(collocation.CollocationSolution, "eval_h", "collocation.eval")
    p(collocation.CollocationSolution, "eval_phi", "collocation.eval")
    p(collocation, "solution_to_json_dict", "collocation.serialize")
    p(kernels.GaussianKernel, "eval_matrix", "kernels.eval_matrix", kernel_matrix)
    p(models.SdeSystem, "drift_at", "models.drift_at")
    p(models.SdeSystem, "sigma_at", "models.sigma_at")
    p(models.LinearDecomposition, "nonlinear_at", "models.nonlinear_at")
    p(feynman_kac, "fk_batch", "feynman_kac.fk_batch", fk_batch_done)
    p(feynman_kac, "krr_fit", "feynman_kac.krr_fit")
    p(validation, "simulate_terminal", "feynman_kac.simulate_terminal", terminal_done)
    p(validation, "solve_and_report", "validation.solve_and_report")
    p(validation, "semigroup_check", "validation.semigroup_check")
    p(validation, "run_experiment", "validation.run_experiment")


def layer_metrics(tracer, run_s):
    """Per-layer metrics of one traced run, keyed by BENCHMARK.json name."""
    inc, calls, counts, own = tracer.inclusive, tracer.calls, tracer.counts, tracer.module_self
    fk_s = inc["feynman_kac.fk_batch"]
    paths = counts["feynman_kac.paths"]
    out = {
        "collocation.make_grid_s": inc["collocation.make_grid"],
        "collocation.assemble_s": inc["collocation.assemble"],
        "collocation.assemble_bytes": counts["collocation.assemble_bytes"],
        "collocation.solve_s": inc["collocation.solve"],
        "collocation.residual_s": inc["collocation.residual"],
        "collocation.eval_s": inc["collocation.eval"],
        "collocation.serialize_s": inc["collocation.serialize"],
        "collocation.n_nodes": counts["collocation.n_nodes"],
        "kernels.eval_matrix_s": inc["kernels.eval_matrix"],
        "kernels.eval_matrix_calls": calls["kernels.eval_matrix"],
        "kernels.eval_matrix_bytes": counts["kernels.eval_matrix_bytes"],
        "models.drift_calls": calls["models.drift_at"],
        "models.sigma_calls": calls["models.sigma_at"],
        "models.eval_s": (inc["models.drift_at"] + inc["models.sigma_at"]
                          + inc["models.nonlinear_at"]),
        "feynman_kac.fk_batch_s": fk_s,
        "feynman_kac.path_steps": counts["feynman_kac.path_steps"],
        "feynman_kac.path_steps_per_s": (counts["feynman_kac.path_steps"] / fk_s
                                         if fk_s else 0.0),
        "feynman_kac.capped_frac": (counts["feynman_kac.capped_paths"] / paths
                                    if paths else 0.0),
        "feynman_kac.failed_queries": counts["feynman_kac.failed_queries"],
        "feynman_kac.krr_fit_s": inc["feynman_kac.krr_fit"],
        "feynman_kac.simulate_terminal_s": inc["feynman_kac.simulate_terminal"],
        "feynman_kac.semigroup_path_steps": counts["feynman_kac.semigroup_path_steps"],
        # excludes the simulate_terminal child, leaving the phi evaluation
        # of the terminal states
        "validation.semigroup_check_s": (inc["validation.semigroup_check"]
                                         - inc["feynman_kac.simulate_terminal"]),
        "validation.run_experiment_s": inc["validation.run_experiment"],
        "trace.unattributed_s": run_s - sum(own.values()),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = own[module]
    return out

"""Verification metrics and the benchmark experiment pipeline.

For every experiment we report, for each ``metrics`` key requested and only
then, the condition number of the regularized collocation matrix, the mean
PDE residual over an evaluation grid, a Monte Carlo check of the semigroup
identity ``E[phi(X_t)] = e^{lambda t} phi(x0)``, the RMSE against the exact
eigenfunction (when known) and max|h|.  The three reference experiments
request all and pin their expected values; ``check_acceptance`` evaluates
the pass bands used by the ``reproduce`` command.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .collocation import (condition_number, make_grid, pde_residual,
                          residual_test_points, solve_system)
from .config import ALLOWED_METRICS
from .feynman_kac import FkConfig, fk_estimate, horizon_steps, simulate_terminal
from .kernels import GaussianKernel
from .models import Domain, EigenPair, LinearDecomposition, SdeSystem, halton_points, tensor_points
from .registry import ModelSetup, get_model
from .workers import map_in_workers

Array = np.ndarray

# Reference benchmark values (condition numbers, residual means) and the
# acceptance bands derived from them: a factor-3 window for conditioning and
# residuals, machine-precision ceilings for the linear systems, and a 10%
# ceiling on the semigroup check.
REFERENCE = {
    "test1_ou": {"cond": 9.91e5},
    "test2_quadratic": {
        "sigmas": (0.0, 0.3, 0.5),
        "cond": (3.79e6, 1.51e6, 1.03e6),
        "residual": (1.23e-1, 1.80e-2, 1.51e-2),
    },
    "test3_linear2d": {"cond": 1.30e7},
}
COND_FACTOR = 3.0
MACHINE_EPS_CEILING = 1e-12
SEMIGROUP_CEILING_PCT = 10.0

# The benchmark experiments: name -> (registry model, pinned seed).
EXPERIMENTS = {
    "test1_ou": ("ou", 101),
    "test2_quadratic": ("quadratic", 202),
    "test3_linear2d": ("linear2d", 303),
}

SEMIGROUP_T = 0.5
SEMIGROUP_PATHS = 20_000


def semigroup_path_steps(fk: Optional[FkConfig] = None) -> int:
    """Euler-Maruyama path steps of the semigroup check that
    :func:`solve_and_report` runs with ``fk``, whose dt must divide its horizon."""
    cfg = fk or FkConfig(n_paths=SEMIGROUP_PATHS)
    return cfg.n_paths * horizon_steps([SEMIGROUP_T], cfg.dt)[0]


@dataclass(frozen=True)
class SemigroupResult:
    relative_error: float
    mc_mean: float
    prediction: float


def semigroup_check(system: SdeSystem, phi: Callable, lam: float, x0: Array,
                    t: float, cfg: FkConfig) -> SemigroupResult:
    """Monte Carlo test of ``E[phi(X_t)] = e^{lambda t} phi(x0)``.

    Paths run the full horizon without exit stopping (the identity is for the
    unstopped process).  ``phi`` must accept a batch of states.  This is the
    one-horizon case of :func:`semigroup_curve`.
    """
    row, = semigroup_curve(system, phi, lam, x0, [t], cfg)
    return SemigroupResult(relative_error=row["rel_error"], mc_mean=row["mc_mean"],
                           prediction=row["prediction"])


def semigroup_curve(system: SdeSystem, phi: Callable, lam: float, x0: Array,
                    t_list, cfg: FkConfig) -> list[dict]:
    """Semigroup check across a grid of horizons, simulated in one sweep.

    Normals are keyed by step index, so each row equals a standalone
    ``semigroup_check`` at that horizon.
    """
    ts = [float(t) for t in t_list]
    horizon_steps(ts, cfg.dt)
    x0 = np.asarray(x0, dtype=float)
    pred_base = float(np.atleast_1d(phi(x0[None, :]))[0])
    if abs(pred_base) < 1e-300:
        raise ValueError("phi(x0) = 0; pick a start point where phi does not vanish")
    snaps = simulate_terminal(system, x0, ts[-1], cfg, snapshot_times=ts)
    rows = []
    for t in ts:
        mc_mean = float(np.mean(phi(snaps[t])))
        prediction = float(np.exp(lam * t) * pred_base)
        rows.append({"t": t, "mc_mean": mc_mean, "prediction": prediction,
                     "rel_error": abs(mc_mean - prediction) / abs(prediction)})
    return rows


def rmse_vs_exact(phi: Callable, exact: Callable, test_points) -> float:
    """Root-mean-square difference between two evaluators on test points."""
    X = np.atleast_2d(np.asarray(test_points, dtype=float))
    diff = np.asarray(phi(X), dtype=float) - np.asarray(exact(X), dtype=float)
    return float(np.sqrt(np.mean(diff**2)))


def boundary_points(domain: Domain, n_per_face: int = 128) -> Array:
    """Sample points on the faces of the box (plus all corners)."""
    d = domain.dim
    if d == 1:
        return np.array([[domain.lower[0]], [domain.upper[0]]])
    faces = []
    for axis in range(d):
        inner = Domain(lower=np.delete(domain.lower, axis),
                       upper=np.delete(domain.upper, axis))
        sheet = halton_points(inner, n_per_face)
        for val in (domain.lower[axis], domain.upper[axis]):
            face = np.insert(sheet, axis, val, axis=1)
            faces.append(face)
    return np.vstack(faces + [tensor_points(domain.lower, domain.upper, 2)])


@dataclass(frozen=True)
class BoundaryStabilityResult:
    max_interior_diff: float
    boundary_diff: float
    holds: bool
    pooled_std_error: float
    inconclusive: bool


def boundary_stability_check(system: SdeSystem, decomp: LinearDecomposition,
                             eigenpair_pos: EigenPair, domain: Domain,
                             psi_a: Callable, psi_b: Callable, probe_points,
                             cfg: FkConfig) -> BoundaryStabilityResult:
    """Maximum-principle test: interior solution differences under perturbed
    boundary data stay below the boundary sup-difference (lambda > 0).

    Both solutions are estimated with common random numbers (identical paths;
    the boundary data only enters the payoff), so with ``psi_a = psi_b`` the
    interior difference is exactly zero.
    """
    if eigenpair_pos.eigenvalue <= 0:
        raise ValueError("boundary stability requires a positive eigenvalue")
    probes = np.atleast_2d(np.asarray(probe_points, dtype=float))
    dom_a = replace(domain, boundary_value=psi_a)
    dom_b = replace(domain, boundary_value=psi_b)
    bpts = boundary_points(domain)
    boundary_diff = float(np.max(np.abs(dom_a.psi_at(bpts) - dom_b.psi_at(bpts))))
    diffs, pooled_ses, capped = [], [], []
    for i, x in enumerate(probes):
        ea = fk_estimate(system, decomp, eigenpair_pos, dom_a, x, cfg, query_index=i)
        eb = fk_estimate(system, decomp, eigenpair_pos, dom_b, x, cfg, query_index=i)
        diffs.append(abs(ea.value - eb.value))
        pooled_ses.append(np.sqrt(ea.std_error**2 + eb.std_error**2))
        capped.append(ea.all_capped and eb.all_capped)
    max_diff = float(max(diffs))
    pooled = float(max(pooled_ses))
    inconclusive = all(capped)
    holds = bool(max_diff <= boundary_diff + 4.0 * pooled)
    return BoundaryStabilityResult(max_interior_diff=max_diff, boundary_diff=boundary_diff,
                                   holds=holds, pooled_std_error=pooled,
                                   inconclusive=inconclusive)


@dataclass(frozen=True)
class ExperimentReport:
    """One row of the summary table, field for field :data:`REPORT_CSV_COLUMNS`;
    None marks a metric that was not requested or does not apply."""

    label: str
    condition_number: Optional[float]
    pde_residual_mean: Optional[float]
    semigroup_error: Optional[float]  # relative error in percent
    rmse_vs_exact: Optional[float]
    max_abs_h: Optional[float]


def solve_and_report(setup: ModelSetup, seed: int, fk: Optional[FkConfig] = None,
                     metrics=ALLOWED_METRICS, write: Optional[Callable] = None):
    """Run one setup end to end; returns (solution, assembled, report).

    Only the requested ``metrics`` are computed, in the order of
    ``ALLOWED_METRICS`` (condition number first), each into its field of
    :class:`ExperimentReport`.  Without ``condition_number`` no SVD runs,
    and only ``collocation.solve``'s checks catch a singular system.

    With ``write``, the condition number's SVD runs on a helper thread, started
    once the LU has succeeded, while this thread calls ``write(solution,
    assembled)`` and then computes the other metrics; the SVD and large numpy
    operations release the GIL.  The errors rank as if the metrics had run
    first and ``write`` last: the SVD's error wins, then the first failing
    metric's, then ``write``'s, and the metrics still run when ``write``
    raises.  Without ``write`` everything runs on this thread, and no thread
    is started (``workers.map_in_workers`` forks only while no other thread
    runs).
    """
    cfg = fk or FkConfig(n_paths=SEMIGROUP_PATHS, seed=seed)
    if "semigroup" in metrics:
        semigroup_path_steps(cfg)  # before the solve, which a bad dt would waste
    kern = GaussianKernel(setup.lengthscale)
    grid = make_grid(setup.domain, setup.grid_spec)
    # the condition number is the first metric; solve computes it only when
    # the LU fails or gives non-finite coefficients
    sol, asys, _ = solve_system(setup.system, setup.decomp, setup.eigenpair,
                                kern, grid, setup.gamma, condition=False)
    pts = residual_test_points(setup.domain)
    # one entry per ALLOWED_METRICS key, whose order is ExperimentReport's
    # field order; each function is looked up in this module when it runs
    table = {
        "condition_number": lambda: condition_number(asys.system_matrix),
        "pde_residual": lambda: pde_residual(sol, setup.system, pts).mean,
        "semigroup": lambda: 100.0 * semigroup_check(
            setup.system, sol.eval_phi, setup.eigenpair.eigenvalue,
            setup.semigroup_x0, SEMIGROUP_T, cfg).relative_error,
        "rmse": lambda: (None if setup.exact_phi is None
                         else rmse_vs_exact(sol.eval_phi, setup.exact_phi, pts)),
        "max_abs_h": lambda: float(np.max(np.abs(sol.eval_h(pts)))),
    }

    def measure(keys):
        return {key: table[key]() for key in keys if key in metrics}

    if write is None:
        values = measure(ALLOWED_METRICS)
    else:
        from concurrent.futures import ThreadPoolExecutor  # 7 ms to import; only write needs it
        with ThreadPoolExecutor(max_workers=1) as pool:
            svd = pool.submit(measure, ("condition_number",))
            try:
                try:
                    write(sol, asys)
                finally:
                    values = measure([key for key in ALLOWED_METRICS
                                      if key != "condition_number"])
            finally:
                cond = svd.result()
        values.update(cond)
    return sol, asys, ExperimentReport(setup.system.label,
                                       *(values.get(key) for key in ALLOWED_METRICS))


def conditioning_sweep(sigmas, fk: Optional[FkConfig] = None, seed: Optional[int] = None,
                       workers: Optional[int] = 1) -> list[ExperimentReport]:
    """The quadratic model's pipeline at each noise level, one report per
    level, sorted by sigma; ``seed`` defaults to test2's.  Every level is
    checked in input order, then the semigroup ``dt``, before any row runs.
    The rows are dealt to ``workers`` processes (None: the CPUs this process
    may use) as :func:`workers.map_in_workers` allows by their path steps;
    the default 1 runs them here, so a worker that calls this never forks
    again.  On the quadratic preset cond decreases over the levels 0, 0.3
    and 0.5, but not between or beyond them (1.34e7 at 0.2, 8.35e7 at 1.0),
    likely because collocation poses no boundary condition.
    """
    sigmas = [float(s) for s in sigmas]
    for sigma in sigmas:
        if not 0.0 <= sigma < np.inf:
            raise ValueError(f"sigma values must be finite and nonnegative, got {sigma!r}")
    seed = EXPERIMENTS["test2_quadratic"][1] if seed is None else seed

    def row(sigma):  # a patched solve_and_report applies: it is looked up per call
        report = solve_and_report(get_model("quadratic", sigma=sigma), seed, fk=fk)[2]
        return replace(report, label=f"quadratic sigma={sigma:g}")

    return map_in_workers(lambda g: map(row, g), sorted(sigmas), workers,
                          len(sigmas) * semigroup_path_steps(fk))


def run_experiment(name: str, seed: Optional[int] = None,
                   fk: Optional[FkConfig] = None):
    """Run a benchmark experiment of :data:`EXPERIMENTS` end to end.

    ``test2_quadratic`` returns a list of three reports (one per noise
    level); the other names return a single :class:`ExperimentReport`.
    ``seed`` defaults to the experiment's pinned seed.
    """
    if name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment '{name}'; expected one of "
                       f"{', '.join(EXPERIMENTS)}")
    model, pinned = EXPERIMENTS[name]
    seed = pinned if seed is None else seed
    if name == "test2_quadratic":
        return conditioning_sweep(REFERENCE[name]["sigmas"], fk=fk, seed=seed)
    return solve_and_report(get_model(model), seed, fk=fk)[2]


def _within_factor(value: float, ref: float, factor: float = COND_FACTOR) -> bool:
    return ref / factor <= value <= ref * factor


def check_acceptance(name: str, result) -> list[tuple[str, bool, str]]:
    """Evaluate the pass bands for one benchmark; returns (check, ok, detail)."""
    checks = []
    if name == "test1_ou":
        r = result
        ref = REFERENCE["test1_ou"]["cond"]
        checks = [
            ("rmse <= 1e-12", r.rmse_vs_exact <= MACHINE_EPS_CEILING,
             f"rmse={r.rmse_vs_exact:.3e}"),
            ("max|h| <= 1e-12", r.max_abs_h <= MACHINE_EPS_CEILING,
             f"max|h|={r.max_abs_h:.3e}"),
            ("mean residual <= 1e-12", r.pde_residual_mean <= MACHINE_EPS_CEILING,
             f"residual={r.pde_residual_mean:.3e}"),
            ("condition number within x3 of 9.91e5",
             _within_factor(r.condition_number, ref),
             f"cond={r.condition_number:.3e}"),
            ("semigroup error <= 10%", r.semigroup_error <= SEMIGROUP_CEILING_PCT,
             f"semigroup={r.semigroup_error:.2f}%"),
        ]
    elif name == "test2_quadratic":
        rows = result
        ref = REFERENCE["test2_quadratic"]
        conds = [r.condition_number for r in rows]
        checks.append(("condition numbers strictly decreasing in sigma",
                       all(b < a for a, b in zip(conds, conds[1:])),
                       "conds=" + ", ".join(f"{c:.3e}" for c in conds)))
        for r, c_ref, res_ref, s in zip(rows, ref["cond"], ref["residual"], ref["sigmas"]):
            checks.append((f"sigma={s:g}: cond within x3 of {c_ref:.2e}",
                           _within_factor(r.condition_number, c_ref),
                           f"cond={r.condition_number:.3e}"))
            checks.append((f"sigma={s:g}: residual within x3 of {res_ref:.2e}",
                           _within_factor(r.pde_residual_mean, res_ref),
                           f"residual={r.pde_residual_mean:.3e}"))
            checks.append((f"sigma={s:g}: semigroup error <= 10%",
                           r.semigroup_error <= SEMIGROUP_CEILING_PCT,
                           f"semigroup={r.semigroup_error:.2f}%"))
        checks.append(("residual(sigma=0.3) < residual(sigma=0)",
                       rows[1].pde_residual_mean < rows[0].pde_residual_mean,
                       f"{rows[1].pde_residual_mean:.3e} < {rows[0].pde_residual_mean:.3e}"))
    elif name == "test3_linear2d":
        r = result
        ref = REFERENCE["test3_linear2d"]["cond"]
        checks = [
            ("rmse <= 1e-12", r.rmse_vs_exact <= MACHINE_EPS_CEILING,
             f"rmse={r.rmse_vs_exact:.3e}"),
            ("mean residual <= 1e-12", r.pde_residual_mean <= MACHINE_EPS_CEILING,
             f"residual={r.pde_residual_mean:.3e}"),
            ("condition number within x3 of 1.30e7",
             _within_factor(r.condition_number, ref),
             f"cond={r.condition_number:.3e}"),
            ("semigroup error <= 10%", r.semigroup_error <= SEMIGROUP_CEILING_PCT,
             f"semigroup={r.semigroup_error:.2f}%"),
        ]
    else:
        raise KeyError(f"no acceptance bands registered for '{name}'")
    return checks


REPORT_CSV_COLUMNS = ("label", "cond", "pde_res_mean", "semigroup_error_pct",
                      "rmse", "max_abs_h")


def format_table(reports) -> str:
    """Human-readable summary table of the benchmark rows; '-' for absent metrics."""
    def cell(value, spec):
        return "-" if value is None else spec.format(value)

    head = f"{'Test':<24} {'Cond #':>10} {'PDE Res':>10} {'SG Error':>9} {'RMSE':>10}"
    lines = [head, "-" * len(head)]
    for r in reports:
        lines.append(f"{r.label:<24} {cell(r.condition_number, '{:.3e}'):>10} "
                     f"{cell(r.pde_residual_mean, '{:.3e}'):>10} "
                     f"{cell(r.semigroup_error, '{:.2f}%'):>9} "
                     f"{cell(r.rmse_vs_exact, '{:.2e}'):>10}")
    return "\n".join(lines)

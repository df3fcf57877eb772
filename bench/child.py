"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition with BLAS pinned to one
thread and ``src`` on ``PYTHONPATH``.  It imports the program, generates the
workload's inputs from the seed, records the monotonic time at which set-up
ended, runs the workload, records the time at which its last output was
written, and then checks the outputs.  Everything it measures goes to the
JSON file named by ``--result``, and its outputs stay in ``<work>/out`` for
``run.py`` to hash.  The workload's own console output goes to this
process's stdout, which ``run.py`` sends to a log file.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import sdekoopman.cli as cli  # noqa: E402
import sdekoopman.collocation as collocation  # noqa: E402
import sdekoopman.config  # noqa: E402,F401  (the CLI imports it lazily)
import sdekoopman.feynman_kac as feynman_kac  # noqa: E402
import sdekoopman.models as models  # noqa: E402
import sdekoopman.registry as registry  # noqa: E402
import sdekoopman.validation as validation  # noqa: E402
from sdekoopman.kernels import GaussianKernel  # noqa: E402
from sdekoopman.models import EigenPair  # noqa: E402

T_IMPORTED = time.monotonic()

import tracing  # noqa: E402

# Cross-check tolerance: the bound tests/test_cross_method.py applies to the
# same comparison, 3 standard errors plus a fixed slack.
GAP_SE = 3.0
GAP_SLACK = 0.05


class Outcome:
    """Operations attempted and failed by one repetition, with messages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _cli(argv):
    """Run the CLI in this process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class SolveN1600:
    """``sdekoopman solve`` on linear2d with a 40 x 40 tensor grid."""

    def prepare(self, seed, work):
        cfg = {"model": {"name": "linear2d"},
               "grid_spec": {"kind": "tensor", "n": 40}, "seed": seed}
        path = os.path.join(work, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return path

    def run(self, cfg_path, out):
        return _cli(["solve", "--config", cfg_path, "--out", out])

    def check(self, cfg_path, out, result, outcome):
        code, _ = result
        outcome.check(code == cli.EXIT_OK, f"solve exited with {code}")
        rows = _read_csv(os.path.join(out, "report.csv"))
        err = max(float(r["semigroup_error_pct"]) for r in rows)
        outcome.check(err <= validation.SEMIGROUP_CEILING_PCT, f"semigroup error {err}% > band")
        return {"semigroup_err_pct": err}


class ReproduceAll:
    """``sdekoopman reproduce all``: the paper's three benchmark experiments."""

    def prepare(self, seed, work):
        return seed

    def run(self, seed, out):
        return _cli(["reproduce", "all", "--seed", str(seed), "--out", out])

    def check(self, seed, out, result, outcome):
        code, stdout = result
        outcome.check(code == cli.EXIT_OK, f"reproduce exited with {code}")
        bands = [line for line in stdout.splitlines()
                 if line.startswith(("[PASS]", "[FAIL]"))]
        outcome.check(bool(bands), "reproduce reported no pass bands")
        for line in bands:
            outcome.check(line.startswith("[PASS]"), line)
        rows = _read_csv(os.path.join(out, "summary.csv"))
        err = max(float(r["semigroup_error_pct"]) for r in rows)
        return {"semigroup_err_pct": err}


class CrosscheckFk:
    """Collocation vs Feynman-Kac on quadratic sigma=0.5 at lambda = +1.

    The library flow of scripts/fk_vs_collocation.py, plus the kernel-ridge
    fit of the path estimates and its evaluation.
    """

    SIGMA = 0.5
    LAMBDA = 1.0
    N_QUERIES = 9
    ETA = 1e-4

    def prepare(self, seed, work):
        queries = np.linspace(-1.0, 1.0, self.N_QUERIES)[:, None]
        cfg = feynman_kac.FkConfig(dt=0.01, n_paths=1000, t_max=50.0, seed=seed)
        return queries, cfg

    def run(self, inputs, out):
        queries, cfg = inputs
        setup = registry.get_model("quadratic", sigma=self.SIGMA)
        pair = EigenPair(eigenvalue=self.LAMBDA, left_eigenvector=np.array([1.0]))
        kern = GaussianKernel(setup.lengthscale)
        grid = collocation.make_grid(setup.domain, setup.grid_spec)
        sol, _, _ = collocation.solve_system(setup.system, setup.decomp, pair, kern,
                                             grid, setup.gamma)
        ests = feynman_kac.fk_batch(setup.system, setup.decomp, pair, setup.domain,
                                    queries, cfg)
        values = [e.value for e in ests]
        fit = feynman_kac.krr_fit(kern, collocation.CollocationGrid(points=queries),
                                  values, self.ETA, eigenpair=pair,
                                  equilibrium=setup.decomp.equilibrium)
        href = sol.eval_h(queries)
        hfit = fit.eval_h(queries)
        with open(os.path.join(out, "crosscheck.csv"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write("x,collocation_h,fk_value,fk_std_error,n_capped,"
                     "mean_exit_time,fit_h\n")
            for x, hc, est, hf in zip(queries[:, 0], href, ests, hfit):
                fh.write(f"{float(x)!r},{float(hc)!r},{est.value!r},{est.std_error!r},"
                         f"{est.n_capped},{est.mean_exit_time!r},{float(hf)!r}\n")
        xs = np.linspace(setup.domain.lower[0], setup.domain.upper[0], 200)[:, None]
        curve_colloc, curve_fit = sol.eval_h(xs), fit.eval_h(xs)
        with open(os.path.join(out, "crosscheck_curve.csv"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write("x,collocation_h,fit_h\n")
            for x, hc, hf in zip(xs[:, 0], curve_colloc, curve_fit):
                fh.write(f"{float(x)!r},{float(hc)!r},{float(hf)!r}\n")
        return ests, href, hfit

    def check(self, inputs, out, result, outcome):
        ests, href, hfit = result
        gaps = []
        for est, hc in zip(ests, href):
            outcome.check(est.failure is None, f"fk query failed: {est.failure}")
            gap = abs(est.value - hc)
            gaps.append(gap)
            outcome.check(gap <= GAP_SE * est.std_error + GAP_SLACK,
                          f"|fk - collocation| = {gap} beyond tolerance")
        worst_se = max(e.std_error for e in ests)
        fit_gap = float(np.max(np.abs(hfit - href)))
        outcome.check(fit_gap <= GAP_SE * worst_se + GAP_SLACK,
                      f"|fit - collocation| = {fit_gap} beyond tolerance")
        path_step_self_check(outcome)
        return {"fk_gap_max": float(max(gaps))}


def path_step_self_check(outcome):
    """The derived path-step count equals the steps ``fk_estimate`` runs.

    The steps are counted directly as the rows of every noise-coefficient
    evaluation (``sigma_at``) made under ``fk_estimate``, one per live path
    and step; the drift is evaluated twice per step, once inside the
    nonlinear part.  With sigma = 0
    and lambda = +1 every quadratic-model path decays to the equilibrium and
    is capped, so the count must also be n_paths * n_steps; with sigma = 0.5
    some paths exit before the cap and some do not.
    """
    counter = tracing.Tracer()
    sigma_at = models.SdeSystem.sigma_at

    def rows(counts, args, kwargs, sigma):
        counts["rows"] += len(sigma)

    counter.patch(models.SdeSystem, "sigma_at", "models.sigma_at", rows)
    try:
        for sigma in (0.0, 0.5):
            setup = registry.get_model("quadratic", sigma=sigma)
            pair = EigenPair(eigenvalue=1.0, left_eigenvector=np.array([1.0]))
            cfg = feynman_kac.FkConfig(dt=0.01, n_paths=64, t_max=2.0, seed=0)
            before = counter.counts["rows"]
            est = feynman_kac.fk_estimate(setup.system, setup.decomp, pair, setup.domain,
                                          np.array([0.5]), cfg)
            counted = int(counter.counts["rows"] - before)
            derived = tracing.derived_path_steps(est, cfg, pair.eigenvalue)
            outcome.check(derived == counted, f"path-step self-check, sigma={sigma}: "
                          f"derived {derived} path-steps, counted {counted}")
            if sigma == 0.0:
                want = cfg.n_paths * tracing.fk_steps_per_path(cfg, pair.eigenvalue)
                outcome.check(est.n_capped == est.n_paths and counted == want,
                              f"all-capped self-check: counted {counted} path-steps "
                              f"with {est.n_capped} capped, expected {want} all capped")
            else:
                outcome.check(0 < est.n_capped < est.n_paths,
                              f"path-step self-check: {est.n_capped} of {est.n_paths} "
                              "capped, expected some paths to exit")
    finally:
        models.SdeSystem.sigma_at = sigma_at


WORKLOADS = {
    "solve_n1600": SolveN1600,
    "crosscheck_fk": CrosscheckFk,
    "reproduce_all": ReproduceAll,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="empty scratch directory")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    inputs = workload.prepare(args.seed, args.work)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    t_ready = time.monotonic()
    out = os.path.join(args.work, "out")
    os.makedirs(out)
    result = workload.run(inputs, out)
    t_end = time.monotonic()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        # taken before the checks, whose library calls are not the workload's
        layers = tracing.layer_metrics(tracer, t_end - t_ready)
    outcome = Outcome()
    accuracy = workload.check(inputs, out, result, outcome)
    sizes = {name: os.path.getsize(os.path.join(out, name)) for name in os.listdir(out)}
    record = {"t_start": T_START, "t_imported": T_IMPORTED, "t_ready": t_ready,
              "t_end": t_end, "peak_rss_kb": peak_kb, "attempted": outcome.attempted,
              "failures": outcome.failures, "accuracy": accuracy}
    if tracer is not None:
        layers["setup.import_s"] = T_IMPORTED - T_START
        layers["collocation.solution_bytes"] = sizes.get("solution.json", 0)
        layers["cli.output_bytes"] = sum(sizes.values()) if tracer.calls["cli.main"] else 0
        record["layers"] = layers
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()

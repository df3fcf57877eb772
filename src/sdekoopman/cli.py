"""Command-line front end.

Subcommands::

    solve            assemble + solve one configuration; writes solution.json,
                     report.csv and eigenfunction_curve.csv
    fk               Monte Carlo estimates at query points (CSV in/out);
                     --fit adds a kernel-ridge fit as fitted_solution.json
    reproduce        rerun the benchmark experiments with pinned seeds and
                     check their pass bands; writes summary.csv
    semigroup-curve  E[phi(X_t)] vs e^{lambda t} phi(x0) over a time grid
    sweep            quadratic-model conditioning sweep over noise levels

Exit codes: 0 ok, 1 benchmark band failed (reproduce), 2 config/input error
(``ConfigError`` or any other ``ValueError``), 3 numerical failure (any other
``SdeKoopmanError`` or ``LinAlgError``); ``main`` maps exception types to
codes in one place.  Identical invocations (same seed) produce byte-identical
output files.  ``--threads`` is the number of worker processes ``fk`` forks
for its path simulation (default: the CPUs this process may use; small
batches run serially) and never changes results; BLAS pools are pinned to
one thread for bitwise stability.
"""

from __future__ import annotations

import argparse
import os
import sys

# Heavy imports happen inside main() after the thread pools are pinned, so
# the determinism guarantee holds no matter how BLAS was built.
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

EXIT_OK = 0
EXIT_BAND_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _schema_epilog():
    from .config import CONFIG_SCHEMA
    lines = ["config file keys:"]
    for key, (_, desc) in CONFIG_SCHEMA.items():
        lines.append(f"  {key:<20} {desc}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    from .validation import EXPERIMENTS  # heavy: main() pins BLAS first

    parser = argparse.ArgumentParser(
        prog="sdekoopman",
        description="Koopman eigenfunctions of Ito SDEs by kernel collocation "
                    "and Feynman-Kac Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    epilog = _schema_epilog()

    def command(name, handler, help, config="required"):
        """A subparser; ``config`` is "required", "optional" or None (no --config)."""
        p = sub.add_parser(name, help=help, epilog=epilog if config else None,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.set_defaults(handler=handler)
        if config:
            p.add_argument("--config", required=config == "required",
                           help="path to a JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed; overrides the config (default 0)")
        p.add_argument("--out", default=None,
                       help="output directory (default: config output_dir or '.')")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes for fk's path simulation (default: "
                            "the CPUs this process may use); never changes results")
        return p

    command("solve", cmd_solve, "solve the collocation system and report metrics")

    p = command("fk", cmd_fk, "Monte Carlo estimates at query points")
    p.add_argument("--queries", required=True,
                   help="CSV of query points, one point per row")
    p.add_argument("--fit", action="store_true",
                   help="kernel-ridge fit of the estimates (fitted_solution.json)")
    p.add_argument("--eta", type=float, default=1e-4,
                   help="ridge parameter for --fit (default 1e-4)")

    p = command("reproduce", cmd_reproduce, "rerun the benchmark experiments",
                config=None)
    p.add_argument("which", choices=["all", *(n.split("_")[0] for n in EXPERIMENTS)])

    p = command("semigroup-curve", cmd_semigroup_curve,
                "semigroup verification over a time grid")
    p.add_argument("--t-list", required=True,
                   help="comma-separated horizons, e.g. '0.1,0.2,0.5'")

    p = command("sweep", cmd_sweep, "conditioning sweep of the quadratic model",
                config="optional")
    p.add_argument("--sigmas", required=True,
                   help="comma-separated noise levels, e.g. '0,0.3,0.5'")

    return parser


def _outdir(args, cfg=None):
    out = args.out or (cfg.output_dir if cfg is not None and cfg.output_dir else ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _write_solution(path, sol, asys=None):
    from .collocation import save_solution
    save_solution(path, sol, asys)
    print(f"wrote {path}")


def _load_run(args):
    """Config, seed, model setup and FK settings of a config-driven command."""
    from .collocation import GridSpec
    from .config import load_config
    from .registry import get_model

    cfg = load_config(args.config)
    seed = cfg.effective_seed(args.seed)
    grid_spec = None if cfg.grid_spec is None else GridSpec(**cfg.grid_spec)
    setup = get_model(cfg.model_name, **cfg.model_params).with_overrides(
        lengthscale=cfg.kernel_lengthscale, grid_spec=grid_spec, gamma=cfg.gamma,
        lambda_select=cfg.lambda_select)
    return cfg, seed, setup, _fk_config(cfg, seed)


def _fk_config(cfg, seed):
    from .feynman_kac import FkConfig
    return FkConfig(**{**cfg.fk, "seed": seed})


def _floats(text, flag):
    from .errors import ConfigError
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"could not parse {flag} '{text}'")


def _eigenfunction_curve_csv(sol, domain):
    from .models import tensor_points

    pts = tensor_points(domain.lower, domain.upper, 200 if domain.dim == 1 else 20)
    if domain.dim == 1:
        header, cols = "x,phi,h", [pts[:, 0], sol.eval_phi(pts), sol.eval_h(pts)]
    else:
        header, cols = "x1,x2,phi", [pts[:, 0], pts[:, 1], sol.eval_phi(pts)]
    rows = (",".join(repr(float(v)) for v in row) for row in zip(*cols))
    return "\n".join([header, *rows]) + "\n"


def cmd_solve(args) -> int:
    from .collocation import save_solution
    from .validation import reports_to_csv, solve_and_report

    cfg, seed, setup, fk = _load_run(args)
    out = _outdir(args, cfg)
    path = os.path.join(out, "solution.json")
    # written under a temporary name while the metrics run; renamed only
    # once they succeed, so a failing run leaves no solution.json
    partial = path + ".partial"
    try:
        sol, asys, report = solve_and_report(
            setup, seed, fk=fk, metrics=cfg.wanted_metrics(),
            write=lambda sol, asys: save_solution(partial, sol, asys))
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise
    os.replace(partial, path)
    print(f"wrote {path}")
    _write(os.path.join(out, "report.csv"), reports_to_csv([report]))
    _write(os.path.join(out, "eigenfunction_curve.csv"),
           _eigenfunction_curve_csv(sol, setup.domain))
    return EXIT_OK


def _read_queries(path, dim):
    import numpy as np
    from .errors import QueryFileError

    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise QueryFileError(f"query file not found: {path}", 0)
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            vals = [float(p) for p in stripped.split(",")]
        except ValueError:
            if lineno == 1:
                continue  # optional header row
            raise QueryFileError(f"could not parse '{stripped}'", lineno)
        if len(vals) != dim:
            raise QueryFileError(f"expected {dim} coordinates, got {len(vals)}", lineno)
        if not np.all(np.isfinite(vals)):
            raise QueryFileError(f"non-finite coordinate in '{stripped}'", lineno)
        rows.append(vals)
    if not rows:
        raise QueryFileError("query file contains no points", 0)
    return np.asarray(rows, dtype=float)


def cmd_fk(args) -> int:
    from .collocation import CollocationGrid
    from .errors import SdeKoopmanError
    from .feynman_kac import estimates_to_csv, fk_batch, krr_fit
    from .kernels import GaussianKernel

    cfg, _, setup, fk = _load_run(args)
    queries = _read_queries(args.queries, setup.system.dim_state)

    estimates = fk_batch(setup.system, setup.decomp, setup.eigenpair,
                         setup.domain, queries, fk, workers=args.threads)
    out = _outdir(args, cfg)
    _write(os.path.join(out, "fk_estimates.csv"),
           estimates_to_csv(estimates, queries))

    if args.fit:
        failed = [i for i, e in enumerate(estimates) if e.failure is not None]
        if failed:
            raise SdeKoopmanError(
                f"cannot fit: estimates failed at query indices {failed}")
        kern = GaussianKernel(setup.lengthscale)
        values = [e.value for e in estimates]
        fitted = krr_fit(kern, CollocationGrid(points=queries), values, args.eta,
                         eigenpair=setup.eigenpair,
                         equilibrium=setup.decomp.equilibrium)
        _write_solution(os.path.join(out, "fitted_solution.json"), fitted)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    from .validation import (EXPERIMENTS, check_acceptance, format_table,
                             reports_to_csv, run_experiment)

    names = [n for n in EXPERIMENTS if args.which in ("all", n.split("_")[0])]
    reports, all_checks = [], []
    for name in names:
        result = run_experiment(name, seed=args.seed)
        rows = result if isinstance(result, list) else [result]
        reports.extend(rows)
        all_checks.extend((name, *c) for c in check_acceptance(name, result))

    out = _outdir(args)
    _write(os.path.join(out, "summary.csv"), reports_to_csv(reports))
    print(format_table(reports))
    failed = 0
    for name, label, ok, detail in all_checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {label} ({detail})")
        failed += not ok
    if failed:
        print(f"{failed} benchmark band(s) failed")
        return EXIT_BAND_FAILURE
    print("all benchmark bands passed")
    return EXIT_OK


def cmd_semigroup_curve(args) -> int:
    from .feynman_kac import horizon_steps
    from .validation import semigroup_curve, solve_and_report

    cfg, seed, setup, fk = _load_run(args)
    t_list = _floats(args.t_list, "--t-list")
    horizon_steps(t_list, fk.dt)  # before the solve, which a bad list would waste

    sol, _, _ = solve_and_report(setup, seed, fk=fk, metrics=())
    rows = semigroup_curve(setup.system, sol.eval_phi, setup.eigenpair.eigenvalue,
                           setup.semigroup_x0, t_list, fk)
    lines = ["t,mc_mean,prediction,rel_error"]
    for r in rows:
        lines.append(f"{r['t']!r},{r['mc_mean']!r},{r['prediction']!r},{r['rel_error']!r}")
    out = _outdir(args, cfg)
    _write(os.path.join(out, "semigroup_curve.csv"), "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .config import load_config
    from .errors import ConfigError
    from .validation import conditioning_sweep, format_table, reports_to_csv

    fk = cfg = None
    seed = args.seed
    if args.config:
        cfg = load_config(args.config)
        if cfg.model_name != "quadratic":
            raise ConfigError("sweep runs the quadratic model; set model accordingly")
        # sigma comes from --sigmas, which replaces the model's own sigma
        unused = [key for key in cfg.to_dict()
                  if key not in ("model", "fk", "seed", "output_dir")]
        if unused:
            raise ConfigError(f"sweep runs the quadratic model's presets; it does "
                              f"not apply {', '.join(unused)}")
        seed = cfg.effective_seed(args.seed)
        fk = _fk_config(cfg, seed)
    sigmas = _floats(args.sigmas, "--sigmas")
    if not sigmas:
        raise ConfigError("--sigmas must contain at least one value")

    rows = conditioning_sweep(sigmas, fk=fk, seed=seed)
    out = _outdir(args, cfg)
    _write(os.path.join(out, "sweep.csv"), reports_to_csv(rows))
    print(format_table(rows))
    return EXIT_OK


def main(argv=None) -> int:
    for var in _THREAD_ENV:
        os.environ[var] = "1"
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("error: --seed must be a 64-bit unsigned integer", file=sys.stderr)
        return EXIT_CONFIG

    from . import errors
    import numpy as np

    try:
        return args.handler(args)
    except errors.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # LinAlgError subclasses ValueError, so it must be caught first
    except (errors.SdeKoopmanError, np.linalg.LinAlgError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # a library input check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

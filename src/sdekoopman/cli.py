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
``SdeKoopmanError``, ``LinAlgError`` or ``MemoryError``); a file or directory
that cannot be read or written also exits 2.  ``main`` maps exception types
to codes in one place.  Identical invocations (same seed) produce
byte-identical output files.  ``--threads`` is the number of processes
(default: the CPUs this process may use) over which ``fk`` deals its queries,
``reproduce`` its experiments and ``sweep`` its noise levels, through
``workers.map_in_workers`` as their path steps allow; it never changes results.

BLAS pools are pinned to one thread for bitwise stability, once, at the top
of this module: the package ``__init__`` loads its modules lazily, so this
module loads before numpy whether it runs as ``python -m sdekoopman.cli`` or
as the ``sdekoopman`` console script.
"""

from __future__ import annotations

import os

# BLAS sizes its thread pool when numpy loads, so this precedes every import
# that loads numpy; the determinism guarantee then holds however BLAS was built.
os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS"), "1"))

import argparse  # noqa: E402
import sys  # noqa: E402
from dataclasses import astuple, replace  # noqa: E402

import numpy as np  # noqa: E402

# module objects, called through their attributes, so a patched attribute
# (a test's stand-in, a benchmark's timing wrapper) is the one the CLI calls
from . import (collocation, config, errors, feynman_kac, kernels, models,  # noqa: E402
               registry, validation, workers)

EXIT_OK = 0
EXIT_BAND_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _schema_epilog():
    lines = ["config file keys:"]
    for key, (_, desc) in config.CONFIG_SCHEMA.items():
        lines.append(f"  {key:<20} {desc}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
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
                       help="processes over which fk deals its queries, reproduce "
                            "its experiments and sweep its noise levels (default: "
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
    p.add_argument("which",
                   choices=["all", *(n.split("_")[0] for n in validation.EXPERIMENTS)])

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
    out = args.out or (cfg or {}).get("output_dir") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _load_run(args):
    """Config, seed, model setup and FK settings of a config-driven command;
    the config's ``kernel_lengthscale``, ``grid_spec``, ``gamma`` and
    ``lambda_select`` replace the model preset's values."""
    cfg = config.load_config(args.config)
    changes = {}
    if "grid_spec" in cfg:
        changes["grid_spec"] = collocation.GridSpec(**cfg["grid_spec"])
    setup = registry.get_model(**cfg["model"])
    if "kernel_lengthscale" in cfg:
        changes["lengthscale"] = float(cfg["kernel_lengthscale"])
    if "gamma" in cfg:
        changes["gamma"] = float(cfg["gamma"])
    if "lambda_select" in cfg:
        changes["eigenpair"] = models.left_eigenpair(setup.decomp, which=cfg["lambda_select"])
    seed, fk = _seed_and_fk(args, cfg)
    return cfg, seed, replace(setup, **changes), fk


def _seed_and_fk(args, cfg):
    """The run's seed (``--seed``, else ``seed``, else ``fk.seed``, else 0)
    and the FK settings it seeds."""
    fk = cfg.get("fk", {})
    seed = next(s for s in (args.seed, cfg.get("seed"), fk.get("seed"), 0) if s is not None)
    return seed, feynman_kac.FkConfig(**{**fk, "seed": seed})


def _floats(text, flag):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise errors.ConfigError(f"could not parse {flag} '{text}'")


def _csv(header, rows):
    """CSV text with one line per row: a string cell as is, None as an empty
    cell, any other value as the ``repr`` of its Python value."""
    def cell(v):
        v = v.item() if isinstance(v, np.generic) else v
        return v if isinstance(v, str) else "" if v is None else repr(v)

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def _report_csv(reports):
    """The summary table, one row per report; empty cells for absent metrics."""
    return _csv(validation.REPORT_CSV_COLUMNS, map(astuple, reports))


def _fk_estimates_csv(estimates, query_points):
    """One row per query point: query_index, its coordinates (x, or x1..xd),
    value, std_error, n_capped, mean_exit_time, overflow_flag."""
    pts = np.atleast_2d(np.asarray(query_points, dtype=float))
    coords = ["x"] if pts.shape[1] == 1 else [f"x{i + 1}" for i in range(pts.shape[1])]
    header = ["query_index", *coords, "value", "std_error", "n_capped",
              "mean_exit_time", "overflow_flag"]
    return _csv(header, ([i, *x, e.value, e.std_error, e.n_capped, e.mean_exit_time,
                          e.discount_overflow] for i, (x, e) in enumerate(zip(pts, estimates))))


def _eigenfunction_curve_csv(sol, domain):
    pts = models.tensor_points(domain.lower, domain.upper, 200 if domain.dim == 1 else 20)
    if domain.dim == 1:
        header, cols = ["x", "phi", "h"], [pts[:, 0], sol.eval_phi(pts), sol.eval_h(pts)]
    else:
        header, cols = ["x1", "x2", "phi"], [pts[:, 0], pts[:, 1], sol.eval_phi(pts)]
    return _csv(header, zip(*cols))


def cmd_solve(args) -> int:
    cfg, seed, setup, fk = _load_run(args)
    out = _outdir(args, cfg)
    path = os.path.join(out, "solution.json")
    # written under a temporary name while the SVD runs; renamed only once
    # every metric succeeds, so a failing run leaves no solution.json
    partial = path + ".partial"
    try:
        sol, asys, report = validation.solve_and_report(
            setup, seed, fk=fk, metrics=cfg.get("metrics", config.ALLOWED_METRICS),
            write=lambda sol, asys: collocation.save_solution(partial, sol, asys))
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise
    print(f"wrote {path}")
    _write(os.path.join(out, "report.csv"), _report_csv([report]))
    _write(os.path.join(out, "eigenfunction_curve.csv"),
           _eigenfunction_curve_csv(sol, setup.domain))
    return EXIT_OK


def _read_queries(path, domain):
    rows = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            vals = [float(p) for p in stripped.split(",")]
        except ValueError:
            if lineno == 1:
                continue  # optional header row
            raise errors.QueryFileError(f"could not parse '{stripped}'", lineno)
        if len(vals) != domain.dim:
            raise errors.QueryFileError(f"expected {domain.dim} coordinates, got {len(vals)}",
                                        lineno)
        if not domain.contains_strict(vals):  # a NaN or +-inf never is
            raise errors.QueryFileError(f"query {len(rows)} '{stripped}' must lie strictly "
                                        "inside the domain", lineno)
        rows.append(vals)
    if not rows:
        raise errors.QueryFileError("query file contains no points", 0)
    return np.asarray(rows, dtype=float)


def cmd_fk(args) -> int:
    cfg, _, setup, fk = _load_run(args)
    queries = _read_queries(args.queries, setup.domain)
    if args.fit:  # before the batch, which a bad eta or coinciding queries would waste
        feynman_kac.check_eta(args.eta)
        grid = collocation.CollocationGrid(points=queries)
    out = _outdir(args, cfg)

    estimates = feynman_kac.fk_batch(setup.system, setup.decomp, setup.eigenpair,
                                     setup.domain, queries, fk, workers=args.threads)
    _write(os.path.join(out, "fk_estimates.csv"),
           _fk_estimates_csv(estimates, queries))
    failed = [i for i, e in enumerate(estimates) if e.failure is not None]
    if failed:
        raise errors.EvaluationError(f"estimates failed at query indices {failed}: "
                                     f"{estimates[failed[0]].failure}")

    if args.fit:
        kern = kernels.GaussianKernel(setup.lengthscale)
        values = [e.value for e in estimates]
        fitted = feynman_kac.krr_fit(kern, grid, values, args.eta,
                                     eigenpair=setup.eigenpair,
                                     equilibrium=setup.decomp.equilibrium)
        path = os.path.join(out, "fitted_solution.json")
        collocation.save_solution(path, fitted)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    out = _outdir(args)  # before the runs, which a bad --out would waste
    names = [n for n in validation.EXPERIMENTS if args.which in ("all", n.split("_")[0])]
    # each experiment runs at least one semigroup check (test2 one per level)
    results = workers.map_in_workers(
        lambda g: (validation.run_experiment(n, seed=args.seed) for n in g), names,
        args.threads, len(names) * validation.semigroup_path_steps())
    reports, all_checks = [], []
    for name, result in zip(names, results):
        reports.extend(result if isinstance(result, list) else [result])
        all_checks.extend((name, *c) for c in validation.check_acceptance(name, result))

    _write(os.path.join(out, "summary.csv"), _report_csv(reports))
    print(validation.format_table(reports))
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
    cfg, seed, setup, fk = _load_run(args)
    t_list = _floats(args.t_list, "--t-list")
    feynman_kac.horizon_steps(t_list, fk.dt)  # before the solve, which a bad list would waste
    out = _outdir(args, cfg)

    sol, _, _ = validation.solve_and_report(setup, seed, fk=fk, metrics=())
    rows = validation.semigroup_curve(setup.system, sol.eval_phi,
                                      setup.eigenpair.eigenvalue, setup.semigroup_x0,
                                      t_list, fk)
    columns = ("t", "mc_mean", "prediction", "rel_error")
    _write(os.path.join(out, "semigroup_curve.csv"),
           _csv(columns, ([r[c] for c in columns] for r in rows)))
    return EXIT_OK


def cmd_sweep(args) -> int:
    fk = cfg = None
    seed = args.seed
    if args.config:
        cfg = config.load_config(args.config)
        if cfg["model"]["name"] != "quadratic":
            raise errors.ConfigError("sweep runs the quadratic model; set model accordingly")
        # sigma comes from --sigmas, which replaces the model's own sigma
        unused = [key for key in config.CONFIG_SCHEMA
                  if key in cfg and key not in ("model", "fk", "seed", "output_dir")]
        if unused:
            raise errors.ConfigError(f"sweep runs the quadratic model's presets; it "
                                     f"does not apply {', '.join(unused)}")
        seed, fk = _seed_and_fk(args, cfg)
    sigmas = _floats(args.sigmas, "--sigmas")
    if not sigmas:
        raise errors.ConfigError("--sigmas must contain at least one value")
    rows = validation.conditioning_sweep(sigmas, fk=fk, seed=seed, workers=args.threads)
    out = _outdir(args, cfg)
    _write(os.path.join(out, "sweep.csv"), _report_csv(rows))
    print(validation.format_table(rows))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise errors.ConfigError("--threads must be >= 1")
        if args.seed is not None and not 0 <= args.seed < 2**64:
            raise errors.ConfigError("--seed must be a 64-bit unsigned integer")
        return args.handler(args)
    except errors.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # LinAlgError subclasses ValueError, so it must be caught first
    except (errors.SdeKoopmanError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # a library input check
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        if exc.filename is None:  # not about a path (fork, broken pipe)
            raise
        paths = " -> ".join(str(p) for p in (exc.filename, exc.filename2) if p is not None)
        print(f"error: {paths}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

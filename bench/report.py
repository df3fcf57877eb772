#!/usr/bin/env python3
"""Every workload, traced and untraced, in one report; checks all outputs.

    python3 bench/report.py                  # measure and check
    python3 bench/report.py --record-goldens # rewrite bench/goldens.json first

For each workload of BENCHMARK.json this runs ``run.py``'s measurement at
the golden seed twice, untraced (end-to-end metrics) and traced (per-layer
metrics), and prints:

* all seven end-to-end figures by name and unit;
* each per-layer metric next to the end-to-end metric it is expected to move;
* the tracing overhead (traced against untraced ``run_s``), and a check that
  the module self times add up to the traced ``run_s`` within
  ``SELF_TIME_TOLERANCE`` of it.

The traced run alternates traced and untraced repetitions and requires
byte-identical outputs from all of them, so the wrappers provably change no
result.  The report also reruns the five CLI commands exactly as acceptance
criterion 10 (tests/test_acceptance.py) invokes them and compares every file
they write with its golden hash, then prints the environment stamp.  It exits
with 1 if any check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import run

# per-layer metric -> the end-to-end metric and workload it should move
MOVES = {
    "setup.import_s": "setup_s, every workload; largest share on reproduce_all",
    "collocation.make_grid_s": "run_s / peak_rss_mb on solve_n1600 (O(N^2) node check)",
    "collocation.assemble_s": "run_s on solve_n1600",
    "collocation.assemble_bytes": "peak_rss_mb on solve_n1600 (computed)",
    "collocation.solve_s": "run_s on solve_n1600; small share on reproduce_all",
    "collocation.residual_s": "run_s on solve_n1600",
    "collocation.eval_s": "run_s on solve_n1600",
    "collocation.serialize_s": "run_s / peak_rss_mb on solve_n1600; no change elsewhere",
    "collocation.solution_bytes": "run_s / peak_rss_mb on solve_n1600; no change elsewhere",
    "collocation.n_nodes": "workload size (largest grid)",
    "collocation.self_s": "module self time",
    "kernels.eval_matrix_s": "peak_rss_mb / run_s on solve_n1600",
    "kernels.eval_matrix_calls": "peak_rss_mb / run_s on solve_n1600",
    "kernels.eval_matrix_bytes": "peak_rss_mb / run_s on solve_n1600 (computed)",
    "kernels.self_s": "module self time",
    "models.drift_calls": "run_s on crosscheck_fk; one drift call per step halves it",
    "models.sigma_calls": "run_s on crosscheck_fk",
    "models.eval_s": "run_s on crosscheck_fk",
    "models.self_s": "module self time",
    "feynman_kac.fk_batch_s": "run_s on crosscheck_fk",
    "feynman_kac.path_steps": "run_s on crosscheck_fk (computed from FkEstimate)",
    "feynman_kac.path_steps_per_s": "run_s on crosscheck_fk",
    "feynman_kac.capped_frac": "failed_frac on crosscheck_fk",
    "feynman_kac.failed_queries": "failed_frac on crosscheck_fk",
    "feynman_kac.krr_fit_s": "run_s on crosscheck_fk",
    "feynman_kac.simulate_terminal_s": "run_s on reproduce_all and solve_n1600",
    "feynman_kac.semigroup_path_steps": "run_s on reproduce_all and solve_n1600 (computed)",
    "feynman_kac.self_s": "module self time",
    "validation.semigroup_check_s": "run_s / peak_rss_mb on solve_n1600 (phi of terminal states)",
    "validation.run_experiment_s": "run_s on reproduce_all",
    "validation.self_s": "module self time",
    "cli.self_s": "run_s on solve_n1600 (includes json.dumps and file writes)",
    "cli.output_bytes": "run_s on solve_n1600",
    "trace.run_s": "traced run_s",
    "trace.untraced_run_s": "untraced run_s of the same run",
    "trace.overhead_s": "tracing overhead",
    "trace.overhead_pct": "tracing overhead",
    "trace.unattributed_s": "traced run_s minus the sum of module self times",
}

GOLDEN_SEED = 0

# |traced run_s - sum of module self times| may be at most this share of the
# traced run_s: the time spent outside every span, in the benchmark's own
# code and the wrappers
SELF_TIME_TOLERANCE = 0.02

# acceptance criterion 10 of tests/test_acceptance.py, run with --threads 1
CRITERION_10_CONFIG = {"model": {"name": "quadratic", "sigma": 0.3}, "seed": 42,
                       "fk": {"n_paths": 300, "t_max": 3.0}}
CRITERION_10_QUERIES = "0.5\n-0.25\n"
CRITERION_10_COMMANDS = {
    "solve": ["solve", "--config", "cfg.json"],
    "fk": ["fk", "--config", "cfg.json", "--queries", "q.csv"],
    "reproduce": ["reproduce", "test1"],
    "semigroup-curve": ["semigroup-curve", "--config", "cfg.json", "--t-list", "0.1,0.3"],
    "sweep": ["sweep", "--config", "cfg.json", "--sigmas", "0,0.3"],
}


def cli_output_hashes():
    """sha256 of every file the five criterion-10 commands write."""
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="cli-", dir=run.WORK_ROOT)
    try:
        with open(os.path.join(work, "cfg.json"), "w", encoding="utf-8") as fh:
            json.dump(CRITERION_10_CONFIG, fh)
        with open(os.path.join(work, "q.csv"), "w", encoding="utf-8") as fh:
            fh.write(CRITERION_10_QUERIES)
        hashes = {}
        for name, args in CRITERION_10_COMMANDS.items():
            out = os.path.join(work, name)
            proc = subprocess.run([sys.executable, "-m", "sdekoopman.cli", *args,
                                   "--out", out, "--threads", "1"],
                                  cwd=work, env=run.child_env(), capture_output=True,
                                  text=True, timeout=300)
            if proc.returncode != 0:
                raise run.BenchError(f"{name} exited with {proc.returncode}:\n"
                                     f"{proc.stderr[-2000:]}")
            for fname in sorted(os.listdir(out)):
                hashes[f"{name}/{fname}"] = run.sha256_file(os.path.join(out, fname))
        return hashes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def record_goldens(workloads):
    goldens = {"seed": GOLDEN_SEED, "workloads": {}, "cli": cli_output_hashes()}
    for name in workloads:
        rep = run.run_child(name, GOLDEN_SEED, 0, deadline=time.monotonic() + 600)
        if rep["failures"]:
            raise run.BenchError(f"{name} failed its checks: {rep['failures']}")
        goldens["workloads"][name] = rep["files"]
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded goldens for seed {GOLDEN_SEED} in {run.GOLDENS}")


def check_cli_goldens(goldens):
    """Returns the number of criterion-10 outputs that differ from goldens."""
    got = cli_output_hashes()
    want = goldens["cli"]
    changed = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    print(f"criterion-10 CLI outputs: {len(want) - len(changed)}/{len(want)} "
          f"match their golden hashes")
    for name in changed:
        print(f"  changed: {name}")
    return len(changed)


def report_workload(name, spec):
    """Prints one workload's figures; returns the number of failed checks."""
    plain = run.measure(name, GOLDEN_SEED, spec["run_seconds"], 0)
    traced = run.measure(name, GOLDEN_SEED, spec["run_seconds"], 1)
    print(f"\n== {name}")
    print(run.describe(plain))
    layers = traced["layers"]
    print(f"  {'per-layer metric':<36} {'value':>14}  unit   moves")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<36} {layers[m['name']]:>14.6g}  {m['unit']:<6} "
              f"{MOVES[m['name']]}")
    gap = layers["trace.unattributed_s"]
    tolerance = SELF_TIME_TOLERANCE * layers["trace.run_s"]
    print(f"  tracing overhead: traced run_s {layers['trace.run_s']:.4g} s vs untraced "
          f"{layers['trace.untraced_run_s']:.4g} s ({layers['trace.overhead_pct']:+.2f}%)")
    print(f"  traced and untraced repetitions wrote identical outputs: "
          f"{'NO' if traced['outputs_differing'] else 'yes'}")
    failures = plain["failures"] + traced["failures"]
    adds_up = abs(gap) <= tolerance
    print(f"  module self times add up to traced run_s: |{gap:.3g}| s unattributed "
          f"<= {tolerance:.3g} s ({SELF_TIME_TOLERANCE:.0%} of traced run_s): "
          f"{'yes' if adds_up else 'NO'}")
    if not adds_up:
        failures.append(f"{gap:.3g} s of traced run_s is outside every module span")
    for msg in failures:
        print(f"  FAILED: {msg}")
    return len(failures)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args()
    try:
        run.check_checkout()
        spec = run.load_spec()
        names = [w["name"] for w in spec["workloads"]]
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in MOVES]
        if missing:
            raise run.BenchError(f"per-layer metrics without a MOVES entry: {missing}")
        if args.record_goldens:
            record_goldens(names)
        goldens = run.load_goldens()
        if goldens is None:
            raise run.BenchError("no bench/goldens.json; run with --record-goldens")
        failed = check_cli_goldens(goldens)
        for name in names:
            failed += report_workload(name, spec)
    except run.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("\nenv " + json.dumps(run.env_stamp(), sort_keys=True))
    print(f"{'all checks passed' if not failed else f'{failed} check(s) failed'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

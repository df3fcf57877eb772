#!/usr/bin/env python3
"""sdekoopman benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload solve_n1600 --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; nothing needs building.  Each
repetition is a fresh ``bench/child.py`` process with ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread, as the CLI pins it.  A run
repeats the workload while the next repetition still ends within
``--seconds`` (at least twice) with the same seed, so every repetition must write byte-identical outputs; at the
seed recorded in ``bench/goldens.json`` they
must also match the golden sha256 hashes.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the repetitions.  ``--trace 1`` alternates traced and untraced repetitions and
reports the per-layer metrics: medians over the traced repetitions, plus the
tracing overhead against the untraced ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it prints all
seven end-to-end figures of the workload by name and unit, including those
that are not gated; the one before that is the environment stamp, with the
median time of a fixed loop run between repetitions (``host_probe_s``).
"""

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# the thread-pool variables the CLI pins before numpy loads
BLAS_PIN = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                  "VECLIB_MAXIMUM_THREADS")}
MIN_REPS = 2
# a run ends within this many seconds of its start, whatever --seconds says
HARD_LIMIT_S = 165.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ, **BLAS_PIN)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(workload, seed, trace, deadline):
    """One fresh-process repetition; returns the child's record."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    result = os.path.join(work, "result.json")
    log = os.path.join(work, "log.txt")
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--work", work, "--result", result, "--trace", str(trace)]
    try:
        with open(log, "w", encoding="utf-8") as fh:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                    env=child_env(), cwd=ROOT)
            try:
                code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{workload} repetition ran past the time limit")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0:
            with open(log, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"{workload} repetition exited with {code}:\n{tail}")
        with open(result, encoding="utf-8") as fh:
            record = json.load(fh)
        out = os.path.join(work, "out")
        record["files"] = {name: sha256_file(os.path.join(out, name))
                           for name in sorted(os.listdir(out))}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["setup_s"] = record["t_ready"] - t_spawn
    record["run_s"] = record["t_end"] - record["t_ready"]
    return record


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_goldens():
    if not os.path.exists(GOLDENS):
        return None
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def compare_outputs(workload, seed, reps, goldens):
    """Determinism across repetitions and, at the golden seed, golden hashes.

    Returns (attempted, failure messages, files that differ between
    repetitions, files that differ from their goldens or None when the seed
    has none).
    """
    attempted, failures, differing = 0, [], 0
    first = reps[0]["files"]
    for k, rep in enumerate(reps[1:], start=1):
        other = rep["files"]
        for name in sorted(set(first) | set(other)):
            attempted += 1
            if first.get(name) != other.get(name):
                differing += 1
                failures.append(f"repetition {k} wrote a different {name}")
    changed = None
    if goldens is not None and seed == goldens["seed"]:
        golden = goldens["workloads"].get(workload, {})
        changed = 0
        for name in sorted(set(first) | set(golden)):
            attempted += 1
            if first.get(name) != golden.get(name):
                changed += 1
                failures.append(f"{name} differs from its golden hash")
    return attempted, failures, differing, changed


def measure(workload, seed, seconds, trace):
    """Run one workload for ``seconds``; returns the summary of the run."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    reps, probes, longest = [], [], 0.0
    while True:
        now = time.monotonic()
        # stop before a repetition that would end after --seconds
        if len(reps) >= MIN_REPS and now + longest - start > seconds:
            break
        if reps and now + 1.5 * longest > deadline:
            break
        traced = trace and len(reps) % 2 == 0
        reps.append(run_child(workload, seed, int(traced), deadline))
        longest = max(longest, time.monotonic() - now)
        probes.append(host_probe_s())

    attempted = sum(r["attempted"] for r in reps)
    failures = [msg for r in reps for msg in r["failures"]]
    n, bad, differing, changed = compare_outputs(workload, seed, reps, load_goldens())
    attempted += n
    failures += bad
    accuracy = reps[0]["accuracy"]
    summary = {
        "workload": workload, "seed": seed, "trace": trace, "reps": len(reps),
        "attempted": attempted, "failures": failures,
        "outputs_differing": differing, "outputs_changed": changed,
        "semigroup_err_pct": accuracy.get("semigroup_err_pct"),
        "fk_gap_max": accuracy.get("fk_gap_max"),
        "host_probe_s": statistics.median(probes),
    }
    untraced = [r for r in reps if "layers" not in r]
    if not untraced:
        raise BenchError(f"{workload}: no untraced repetition fit in the time limit")
    summary["run_s"] = statistics.median(r["run_s"] for r in untraced)
    summary["setup_s"] = statistics.median(r["setup_s"] for r in untraced)
    summary["peak_rss_mb"] = statistics.median(r["peak_rss_kb"] / 1024 for r in untraced)
    traced = [r for r in reps if "layers" in r]
    if traced:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        traced_s = statistics.median(r["run_s"] for r in traced)
        layers["trace.run_s"] = traced_s
        layers["trace.untraced_run_s"] = summary["run_s"]
        layers["trace.overhead_s"] = traced_s - summary["run_s"]
        layers["trace.overhead_pct"] = 100.0 * (traced_s / summary["run_s"] - 1.0)
        summary["layers"] = layers
    return summary


def host_probe_s():
    """Seconds a fixed pure-Python loop takes, run between repetitions.

    Recorded with each result and never gated: on a shared host whose speed
    drifts, it tells a slow phase of the machine from slower code.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(500_000):
        total += i * i
    return time.perf_counter() - t0


def cache_sizes():
    """L2 and L3 sizes of cpu0 as the kernel reports them (None if unknown)."""
    sizes = {"l2": None, "l3": None}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if f"l{level}" in sizes:
            sizes[f"l{level}"] = size
    return sizes


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def env_stamp():
    """Machine and toolchain facts recorded with each result, never gated."""
    caches = cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_PIN,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "l2_cache": caches["l2"], "l3_cache": caches["l3"],
        "src_lines": src_lines(),
    }


def _fmt(value, unit):
    return "n/a" if value is None else f"{value:.6g} {unit}"


def describe(summary):
    """All seven end-to-end figures of one run on one line."""
    s = summary
    failed = len(s["failures"])
    changed = ("n/a (no goldens at this seed)" if s["outputs_changed"] is None
               else str(s["outputs_changed"]))
    return (f"{s['workload']} seed={s['seed']} reps={s['reps']}: "
            f"run_s={_fmt(s['run_s'], 's')}, setup_s={_fmt(s['setup_s'], 's')}, "
            f"peak_rss_mb={_fmt(s['peak_rss_mb'], 'MB')}, "
            f"failed_frac={failed / s['attempted']:.6g} ({failed}/{s['attempted']}), "
            f"outputs_changed={changed}, "
            f"semigroup_err_pct={_fmt(s['semigroup_err_pct'], '%')}, "
            f"fk_gap_max={_fmt(s['fk_gap_max'], '')}".rstrip())


def result_line(summary, spec):
    values = summary["layers"] if summary["trace"] else summary
    key = "per_layer" if summary["trace"] else "end_to_end"
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec[key]}
    failed = len(summary["failures"])
    return {"correct": failed == 0, "attempted": summary["attempted"],
            "failed": failed, "metrics": metrics}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout():
    """Refuse to run where the program's sources are missing."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sdekoopman", "__init__.py")):
        raise BenchError(f"no sdekoopman sources under {ROOT}/src")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind through run_child so the running repetition is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        check_checkout()
        spec = load_spec()
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload '{args.workload}'")
        summary = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for msg in summary["failures"]:
        print(f"FAILED: {msg}", file=sys.stderr)
    env = dict(env_stamp(), host_probe_s=summary["host_probe_s"])
    print("env " + json.dumps(env, sort_keys=True))
    print(describe(summary))
    print(json.dumps(result_line(summary, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout.  Set-up is timed three times, each in a
fresh process from spawn to its ``ready`` line: two set-up-only processes
and the process that then runs the workload (see ``worker.py``).
``setup_s`` is their median.  The last stdout line is the JSON result; the
lines before it record the machine and the tail percentile used.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_RUNS = 2
TAIL_BEYOND = 10
TIMEOUT_S = 170
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    """Child environment: ``src`` importable, BLAS threads capped at the
    number of usable cores."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    for var in BLAS_VARS:
        env[var] = str(nproc)
    return env, nproc


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND items beyond it,
    as (value, quantile); the maximum when there are too few items."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND
    if k < 1:
        k = len(ordered)
    return ordered[k - 1], k / len(ordered)


def start(cmd, env, deadline):
    """Start a worker and time it to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != b"ready":
        finish(proc, deadline)
        raise RuntimeError("worker failed during set-up")
    return proc, setup


def finish(proc, deadline):
    """Wait for a worker, relay its stderr, return its stdout lines.  On
    timeout the worker's whole session is killed, CLI children included."""
    try:
        out, err = proc.communicate(timeout=max(deadline - time.time(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        sys.stderr.write(err.decode(errors="replace"))
        raise RuntimeError("worker timed out")
    sys.stderr.write(err.decode(errors="replace"))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out.decode().splitlines()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "stieltjes" / "__init__.py",
                           ROOT / "problems") if not p.exists()]
    if missing:
        print(f"not a stieltjes checkout: missing {missing[0]}",
              file=sys.stderr)
        return 2

    deadline = time.time() + TIMEOUT_S
    env, nproc = environment()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        for _ in range(SETUP_ONLY_RUNS):
            proc, setup = start(cmd + ["--setup-only"], env, deadline)
            finish(proc, deadline)
            setups.append(setup)
        proc, setup = start(cmd, env, deadline)
        setups.append(setup)
        lines = finish(proc, deadline)
        raw = json.loads(lines[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    lat = raw["latencies"]
    attempted, failed = len(lat), raw["failed"]
    versions = raw["versions"]
    print("machine: " + json.dumps(
        {"nproc": nproc, **versions,
         **{var: env[var] for var in BLAS_VARS}}, sort_keys=True))
    tail_s, tail_q = tail(lat)
    print(f"latency_tail: quantile {tail_q:.4f} over {attempted} items; "
          f"error_rate {failed / attempted:.4f}; "
          f"setup samples {[round(s, 4) for s in setups]}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(raw["layers"].items())}
        metrics["trace.throughput_per_s"] = {"value": attempted / sum(lat),
                                             "unit": "1/s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "throughput_per_s": {"value": attempted / sum(lat),
                                 "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(lat),
                               "unit": "ms"},
            "latency_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
            "success_rate": {"value": (attempted - failed) / attempted,
                             "unit": "ratio"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh process: set up, signal, then a closed loop.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  Set-up (library
import and input generation) ends with a ``ready`` line on stdout, which
``run.py`` uses to time it.  With ``--setup-only`` the process exits
there.  Otherwise one client runs items back to back until ``--seconds``
have passed, times each library call, checks each output against its
oracle outside the timed region, and prints one JSON line of raw results.

With ``--trace 1`` the layer wrappers of ``tracing.py`` are installed
after set-up; per-layer figures cover the first ``trace_items`` items of
the run (the run goes on until they are done), so their work counts are
the same on every run at one seed.

A run ends at the first whole period of the workload's schedule after
``--seconds``, so every run covers the same mix of item kinds.
"""

import argparse
import copy
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

import tracing
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import_s = None
    if args.workload != "cli-cold":
        t0 = time.perf_counter()
        import stieltjes.cli  # noqa: F401  the whole library, as users load it
        import_s = time.perf_counter() - t0
    workload, items = workloads.pool(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        if args.workload == "cli-cold":
            workload.traced = True
        else:
            tracer = tracing.Tracer()
            tracer.install()
    min_items = workload.trace_items if args.trace else 1

    latencies, failed = [], 0
    calls, counts, self_s = Counter(), Counter(), Counter()
    child_imports = []
    loop_start = time.perf_counter()
    i = 0
    while (i < min_items or i % workload.period
           or time.perf_counter() - loop_start < args.seconds):
        pristine = items[i % len(items)]
        inputs = copy.deepcopy(pristine)
        if tracer is not None:
            tracer.begin(i)
        t0 = time.perf_counter()
        try:
            out = workload.run(inputs)
            ok = True
        except Exception:
            traceback.print_exc()
            ok = False
        latencies.append(time.perf_counter() - t0)
        item_trace = tracer.end() if tracer is not None else None
        try:
            ok = ok and bool(workload.check(pristine, out))
            if ok and args.trace and tracer is None:
                *item_trace, imp = _child_trace(out)
                child_imports.append(imp)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"item {i}: failed", file=sys.stderr)
        failed += not ok
        if item_trace is not None and i < workload.trace_items:
            for total, part in zip((calls, counts, self_s), item_trace):
                total.update(part)
        i += 1

    who = (resource.RUSAGE_CHILDREN if args.workload == "cli-cold"
           else resource.RUSAGE_SELF)
    result = {"latencies": latencies, "failed": failed,
              "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
              "versions": _versions()}
    if args.trace:
        if child_imports:
            import_s = statistics.median(child_imports)
        layers = tracing.layer_metrics(calls, counts, self_s)
        layers["cli.import_s"] = (import_s, "s")
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


def _child_trace(proc):
    """Layer figures a traced CLI child wrote as its last stderr line."""
    doc = json.loads(proc.stderr.decode().strip().splitlines()[-1])
    return (Counter(doc["calls"]), Counter(doc["counts"]),
            Counter(doc["self_s"]), doc["import_s"])


def _versions():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    sys.exit(main())

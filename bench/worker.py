"""One benchmark process: import, set up, warm up, then a closed loop of items.

`run.py` starts this script in a fresh interpreter, with the BLAS thread
count already pinned in the environment, and reads JSON lines from its
stdout: `{"event": "ready"}` once the warm-up item has completed, which
ends set-up, then one `{"event": "result", ...}`.  A probe process stops
after the warm-up item; it exists only to time set-up again.

In the timed phase one client runs one item at a time until the run's
seconds are spent.  Objects that exist when set-up ends are frozen out of
the garbage collector's generations, so a full collection during an item
costs in proportion to what the item allocated.  With tracing on, every input runs twice, once traced
and once not, in alternating order, so that the tracer's overhead is
measured on the same inputs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TAIL_BEYOND = 10
TAIL_CAP = 0.90

_protocol = sys.stdout


def emit(obj):
    _protocol.write(json.dumps(obj) + "\n")
    _protocol.flush()


def tail(times):
    """(value, percentile) of the tail: the highest order statistic with at
    least 10 samples beyond it, capped at p90.  Above p90 the items mostly
    time the host's scheduling jitter and steal bursts (sweep-small at p99,
    cli-reports at p95), which vary too much between runs to gate on.
    Where the order statistic lies at or below the median, as in runs of
    fewer than 22 items, the median is reported as the tail, at p50."""
    s = sorted(times)
    n = len(s)
    idx = min(n - 1 - TAIL_BEYOND, math.ceil(TAIL_CAP * n) - 1)
    if idx <= n // 2:
        return statistics.median(s), 50.0
    return s[idx], 100.0 * (idx + 1) / n


def provenance():
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: n for v, n in sorted(os.environ.items())
                         if v.endswith("_NUM_THREADS")},
    }


class Runner:
    """Runs and checks items; a failing item is counted, never dropped."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = Counter()
        self.check_s = 0.0

    def run(self, i):
        self.attempted += 1
        start = perf_counter()
        try:
            out = self.workload.item(i)
        except Exception as exc:  # an item that raises is a failed item
            self.failures[f"raised {type(exc).__name__}: {exc}"] += 1
            return perf_counter() - start
        elapsed = perf_counter() - start
        try:
            bad = self.workload.check(i, out)
        except Exception as exc:  # so is one whose output cannot be checked
            bad = [f"check raised {type(exc).__name__}: {exc}"]
        self.check_s += perf_counter() - start - elapsed
        if bad:
            self.failures[", ".join(bad)] += 1
        return elapsed


def layer_metrics(tr, items, untraced, traced):
    """Per-item figures from a traced run, keyed by per-layer metric name."""
    per = 1.0 / items
    out = {}
    for layer, (calls, self_s) in tr.layer_totals().items():
        out[f"{layer}.eigh_calls" if layer == "kernel" else f"{layer}.calls"] = (
            calls * per)
        out[f"{layer}.self_s"] = self_s * per
    validate = ("iop", "validate")
    out["iop.validate_calls"] = tr.calls[validate] * per
    out["iop.validate_self_s"] = tr.self_s[validate] * per
    out["dynamics.evolve_s"] = tr.incl_s[("dynamics", "evolve")] * per
    out["kernel.eigh_n3"] = tr.counters["eigh_n3"] * per
    out["serialize.bytes_out"] = tr.counters["bytes_out"] * per
    out["serialize.bytes_in"] = tr.counters["bytes_in"] * per
    out["trace.overhead_ratio"] = (statistics.median(traced)
                                   / statistics.median(untraced) - 1.0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    start = perf_counter()
    import tracer as tracing
    for layer in tracing.LAYERS:
        importlib.import_module(f"iopsim.{layer}")
    import_s = perf_counter() - start

    import workloads

    start = perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    build_s = perf_counter() - start
    try:
        runner = Runner(workload)
        runner.run(0)  # warm-up: part of set-up, excluded from item times
        # Full collections would otherwise rescan every object numpy and
        # scipy made at import; on cli-reports that split the rounds into
        # two clusters ~25 ms apart and the median jumped between them.
        gc.freeze()
        emit({"event": "ready", "bench_s": build_s + runner.check_s})
        result = {"event": "result", "import_s": import_s,
                  "digest": workload.digest()}
        if not args.probe:
            result.update(timed_phase(runner, args, tracing))
        result.update(attempted=runner.attempted,
                      failures=dict(runner.failures),
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      provenance=provenance())
        emit(result)
    finally:
        workload.close()


def timed_phase(runner, args, tracing):
    tr = tracing.Tracer() if args.trace else None
    times, traced = [], []
    phase_start = perf_counter()
    i = 1
    while perf_counter() - phase_start < args.seconds:
        if tr is None:
            times.append(runner.run(i))
        else:
            for with_trace in ((False, True) if i % 2 else (True, False)):
                if with_trace:
                    tr.install()
                    traced.append(runner.run(i))
                    tr.uninstall()
                else:
                    times.append(runner.run(i))
        i += 1
    out = {"items": len(times), "items_s": math.fsum(times),
           "item_p50_s": statistics.median(times)}
    out["item_tail_s"], out["tail_percentile"] = tail(times)
    if tr is not None:
        out["layers"] = layer_metrics(tr, len(traced), times, traced)
    return out


if __name__ == "__main__":
    main()

"""Run one workload of the iopsim benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`, nothing is installed.  Workloads: sweep-small, two-slit-grid,
condensed-chain, cli-reports (see BENCHMARK.json for why each exists).

Every process this script starts is a fresh interpreter with the BLAS
thread count pinned to 1 in its environment before numpy loads.  With
`--trace 0` it launches the workload twice up to its first completed
item, to time set-up, then once more for set-up plus the timed phase of
`--seconds`; it prints every end-to-end metric.  With `--trace 1` it
launches once, runs each input traced and untraced, and prints the
per-layer metrics and the tracer's overhead instead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 whenever that line is printed, and nonzero, with no result,
when the harness itself cannot run (for example without `src/iopsim`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("sweep-small", "two-slit-grid", "condensed-chain", "cli-reports")
SETUP_LAUNCHES = 3
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# Every launch must end inside this many seconds after the run started,
# which keeps the whole run under three minutes.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_tail_s": "s",
                    "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count", "self_s": "s", "validate_calls": "count",
               "validate_self_s": "s", "evolve_s": "s", "eigh_calls": "count",
               "eigh_n3": "count",
               "bytes_out": "bytes", "bytes_in": "bytes", "import_s": "s",
               "overhead_ratio": "ratio"}


class HarnessError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    # reports must not depend on the caller's environment
    env.pop("IOPSIM_SEED", None)
    return env


def launch(args, probe, deadline):
    """Run worker.py once; return (set-up seconds, its result record).

    Set-up runs from the launch to the end of the warm-up item, less the
    time the worker spent on the benchmark's own set-up work."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)
           ] + (["--probe"] if probe else [])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("no time left for another launch")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(),
                            cwd=ROOT, text=True)
    killer = threading.Timer(remaining, proc.kill)
    killer.start()
    setup_s = result = None
    try:
        for line in proc.stdout:
            event = json.loads(line) if line.startswith('{"event"') else {}
            if event.get("event") == "ready":
                setup_s = time.perf_counter() - start - event["bench_s"]
            elif event.get("event") == "result":
                result = event
            elif not event:
                sys.stderr.write(line)
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or setup_s is None or result is None:
        raise HarnessError(f"worker exited with code {proc.returncode}")
    return setup_s, result


def git_commit():
    """HEAD's commit id, or None outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    launches = [launch(args, probe=True, deadline=deadline)
                for _ in range(0 if args.trace else SETUP_LAUNCHES - 1)]
    launches.append(launch(args, probe=False, deadline=deadline))
    main = launches[-1][1]

    attempted = sum(r["attempted"] for _, r in launches)
    failures = {}
    for _, r in launches:
        for name, n in r["failures"].items():
            failures[name] = failures.get(name, 0) + n
    failed = sum(failures.values())
    # every process must produce the same reference output
    consistent = len({r["digest"] for _, r in launches}) == 1
    correct = failed == 0 and consistent

    provenance = dict(main["provenance"], seed=args.seed, commit=git_commit(),
                      workload=args.workload, seconds=args.seconds,
                      trace=args.trace)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, n in sorted(failures.items()):
        print(f"FAILED x{n}: {name}")
    if not consistent:
        print("FAILED: reference output differs between processes")
    print(f"fail_ratio {failed / attempted} ratio "
          f"({failed} of {attempted} items)")

    if args.trace:
        values = dict(main["layers"], **{"setup.import_s": main["import_s"]})
        units = {name: LAYER_UNITS[name.split(".", 1)[1]] for name in values}
    else:
        values = {
            "setup_s": statistics.median(s for s, _ in launches),
            "items_per_s": main["items"] / main["items_s"],
            "item_tail_s": main["item_tail_s"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
        print(f"setup_s is the median of {len(launches)} launches: "
              + ", ".join(str(s) for s, _ in launches))
        print(f"item_tail_s is p{main['tail_percentile']} of "
              f"{main['items']} timed items")
        # Printed but not in the result: the host alternates between fast
        # and slow phases lasting seconds, and a run's median takes the
        # level of whichever phase held more of its items, so it jumps
        # between runs far more than the throughput (a mean) does.
        print(f"item_p50_s {main['item_p50_s']} s (not gated)")
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "iopsim", "__init__.py")):
        print(f"bench: no iopsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        run(args)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

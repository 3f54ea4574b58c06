#!/usr/bin/env python3
"""Track subspace weights of the condensed two-subspace system over time.

Shows that the label probabilities are constants of the block-diagonal
motion for any starting weight, and prints the label trajectory produced
by alternating condensed evolution with subspace-swapping pulses.
"""

import argparse
import sys

from iopsim.errors import IopsimError
from iopsim.scenarios import cat


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p-plus", type=float, nargs="+",
                    default=[0.1, 0.3, 0.5, 0.9])
    ap.add_argument("--steps", type=int, default=20)
    args = ap.parse_args()

    for p in args.p_plus:
        report = cat(p_plus=p, steps=args.steps)
        history = report.outputs["probabilities"]
        drift = max(abs(step[m] - history[0][m])
                    for step in history for m in history[0])
        status = "ok" if report.all_pass() else "CHECK FAILURES"
        print(f"p_plus={p:.2f}: weight drift over {args.steps} steps "
              f"{drift:.2e}, trajectory {report.outputs['label_trajectory']} "
              f"[{status}]")


if __name__ == "__main__":
    try:
        main()
    except IopsimError as exc:
        sys.exit(f"error: {exc}")

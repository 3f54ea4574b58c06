#!/usr/bin/env python3
"""Sweep the spin-up prior through the deflection-measurement scenario.

For each prior, runs the full interaction + branch decomposition and
prints the branch weights, the exact readout probabilities, and the
sampled frequencies, so the weight/probability correspondence is visible
across the whole range.
"""

import argparse
import sys

from iopsim.errors import IopsimError
from iopsim.scenarios import stern_gerlach


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--priors", type=float, nargs="+",
                    default=[0.0, 0.25, 0.5, 0.75, 1.0])
    ap.add_argument("--samples", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    header = f"{'p_up':>6}  {'branches':<24} {'exact up/down':<20} sampled up/down"
    print(header)
    print("-" * len(header))
    for p in args.priors:
        report = stern_gerlach(p_up_prior=p, mc_samples=args.samples,
                               seed=args.seed)
        branches = ", ".join(
            f"{b['label']}:{b['weight']:.3f}"
            for b in report.outputs["branches"]["branches"])
        exact = report.outputs["exact_probabilities"]
        freq = report.outputs["sampled_frequencies"]
        status = "ok" if report.all_pass() else "CHECK FAILURES"
        print(f"{p:>6.2f}  {branches:<24} "
              f"{exact['up']:.4f}/{exact['down']:.4f}      "
              f"{freq['up']:.4f}/{freq['down']:.4f}  {status}")


if __name__ == "__main__":
    try:
        main()
    except IopsimError as exc:
        sys.exit(f"error: {exc}")

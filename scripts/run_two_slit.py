#!/usr/bin/env python3
"""Propagate the two-slit scenario and plot the screen intensities.

Prints the coherent vs incoherent central contrast for a range of step
counts, then renders an ASCII profile of both intensity patterns at the
final step count.
"""

import argparse
import sys

from iopsim.cli import parse_slits
from iopsim.errors import IopsimError
from iopsim.scenarios import two_slit


def ascii_plot(values, width=64, height=12, label=""):
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    stride = max(1, len(values) // width)
    cols = [max(values[i:i + stride]) for i in range(0, len(values), stride)]
    rows = []
    for level in range(height, 0, -1):
        cut = lo + span * (level - 0.5) / height
        rows.append("".join("#" if v >= cut else " " for v in cols))
    print(f"{label} (min {lo:.4g}, max {hi:.4g})")
    print("\n".join(rows))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=128)
    ap.add_argument("--slits", type=parse_slits, default="40:44,84:88")
    ap.add_argument("--steps", type=int, nargs="+", default=[10, 20, 40, 80])
    args = ap.parse_args()

    print(f"{'steps':>6}  {'coherent':>10}  {'incoherent':>10}  margin")
    last = None
    for steps in args.steps:
        report = two_slit(grid_n=args.grid, slit_positions=args.slits, steps=steps)
        ca = report.outputs["contrast_coherent"]
        cb = report.outputs["contrast_incoherent"]
        print(f"{steps:>6}  {ca:>10.5f}  {cb:>10.5f}  {ca - cb:+.5f}")
        last = report

    print()
    ascii_plot(last.outputs["intensity_coherent"],
               label="coherent intensity")
    print()
    ascii_plot(last.outputs["intensity_incoherent"],
               label="incoherent (one slit at a time) intensity")


if __name__ == "__main__":
    try:
        main()
    except IopsimError as exc:
        sys.exit(f"error: {exc}")

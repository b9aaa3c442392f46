#!/usr/bin/env python3
"""Sweep the two-arrival no-recall efficiency ratios over a family of laws
and report how close the near-two-point mixtures push them to 4/3.

Usage: python scripts/bound_sweep.py [--csv out/sweep.csv]
"""

import argparse
import csv
import sys

import numpy as np

from selection_games import distributions as D
from selection_games import efficiency as E
from selection_games.testkit import beta_distribution


def sweep():
    rows = []
    for p in range(1, 8):
        for q in range(1, 8):
            rows.append((f"beta({p},{q})", beta_distribution(p, q)))
    for eps in (0.3, 0.1, 0.03, 0.01):
        for eta in (0.1, 0.01, 0.001):
            rows.append((f"tight(eps={eps},eta={eta})", E.tightness_family(eps, eta)))
    for lo in (0.05, 0.15, 0.25, 0.35):
        for hi in (0.55, 0.7, 0.85, 1.0):
            for w in (0.2, 0.4, 0.6, 0.8):
                for eta in (0.25, 0.05):
                    law = D.mixture_with_uniform(eta, D.discrete([(lo, w), (hi, 1 - w)]))
                    rows.append((f"mix({lo},{hi},{w},{eta})", law))
    for t in np.linspace(-1.0, 1.0, 21):
        rows.append((f"tilt({t:+.1f})", D.piecewise_poly([(0.0, 1.0, [1 - t, 2 * t])])))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    results = []
    for name, law in sweep():
        pos2, poa2 = E.two_arrival_closed_forms(law)
        results.append((name, pos2, poa2))

    worst_pos = max(results, key=lambda r: r[1])
    worst_poa = max(results, key=lambda r: r[2])
    print(f"{len(results)} laws swept; bound 4/3 = {4 / 3:.6f}")
    print(f"largest stability ratio: {worst_pos[1]:.6f} at {worst_pos[0]}")
    print(f"largest anarchy ratio:   {worst_poa[2]:.6f} at {worst_poa[0]}")
    violations = [r for r in results if max(r[1], r[2]) > 4 / 3 + 1e-9]
    print(f"violations of the 4/3 bound: {len(violations)}")

    if args.csv:
        # law names hold commas, such as beta(1,2): the writer quotes them
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["law", "pos2", "poa2"])
            writer.writerows(results)
        print(f"wrote {args.csv}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end closure test at published-experiment scale.

Simulates the full pipeline (pulse generation, amplitude histograms,
comb-fit counts, estimators, budgets) over independent seeds and scores the
pull distribution of each efficiency estimator.  Unit pull variance means
the claimed uncertainties are calibrated.  Each failed seed is printed with
its side and reason keys.
"""

import argparse
import math
import os

from pnrcal.reports import closure_report_table
from pnrcal.simulator import ExperimentConfig, closure_test


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--gamma", type=float, default=0.00709)
    ap.add_argument("--xi", type=float, default=0.98794)
    ap.add_argument("--pulses", type=int, default=2_200_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--centers", type=float, nargs="+", default=[0.0, 1.0, 2.0, 3.0],
                    help="peak centre of photon numbers 0, 1, ...")
    ap.add_argument("--widths", type=float, nargs="+", default=[0.08] * 4,
                    help="peak width of photon numbers 0, 1, ...")
    args = ap.parse_args()

    config = ExperimentConfig(
        gamma_true=args.gamma,
        xi_true=args.xi,
        herald_prob=0.5,
        background_mean=0.00286,
        peak_centers=tuple(args.centers),
        peak_widths=tuple(args.widths),
        n_pulses=args.pulses,
        seed=args.seed,
    )
    report = closure_test(config, args.seeds, n_bins=200, max_index=2,
                          jobs=args.jobs)
    print(closure_report_table(report))
    for e in report.estimators:
        se = e.spread / math.sqrt(e.n_success)
        print(f"{e.name}: bias {e.bias / se:+.2f} SE")
    for line in report.failures:
        print("failure:", line)


if __name__ == "__main__":
    main()

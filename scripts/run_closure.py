#!/usr/bin/env python3
"""End-to-end closure test at published-experiment scale.

Simulates the full pipeline (pulse generation, amplitude histograms,
comb-window counts, estimators, budgets) over independent seeds and scores the
pull distribution of each efficiency estimator.  Unit pull variance means
the claimed uncertainties are calibrated.
"""

import argparse
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
    args = ap.parse_args()

    config = ExperimentConfig(
        gamma_true=args.gamma,
        xi_true=args.xi,
        herald_prob=0.5,
        background_mean=0.00286,
        peak_centers=(0.0, 1.0, 2.0, 3.0),
        peak_widths=(0.08, 0.08, 0.08, 0.08),
        n_pulses=args.pulses,
        seed=args.seed,
    )
    report = closure_test(config, args.seeds, n_bins=200, max_index=2,
                          jobs=args.jobs)
    print(closure_report_table(report))
    for line in report.failures:
        print("failure:", line)


if __name__ == "__main__":
    main()

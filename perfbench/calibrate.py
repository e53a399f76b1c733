#!/usr/bin/env python3
"""Seed-to-seed spread of the checked errors, for the check tolerances.

Usage, from the repository root:

    python3 perfbench/calibrate.py [--smoke] [--seeds 24] [--workload NAME]

Runs one pass per seed (seeds 1000, 1001, ...) and prints, for every
checked quantity, its mean and standard deviation over the seeds and the
tolerance ``mean + 6 sd`` that ``workloads.py`` uses, rounded up.
"""

import argparse
import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from tracing import NullRecorder  # noqa: E402
from workloads import (LOW_K, WORKLOADS, Steps, coeff_error, exact_squeezing_db,  # noqa: E402
                       pass_seed)


def spread(values):
    mean = statistics.fmean(values)
    sd = statistics.stdev(values)
    return mean, sd, mean + 6.0 * sd


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--seeds", type=int, default=24)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    args = p.parse_args()
    names = [args.workload] if args.workload else sorted(WORKLOADS)
    null = NullRecorder()
    for name in names:
        wl = WORKLOADS[name](args.smoke)
        errors, ddb = [], []
        for i in range(args.seeds):
            seed = 1000 + i
            inputs = wl.setup(seed, null)
            outputs = wl.collect(wl.run_pass(inputs, pass_seed(seed, 1), null, Steps()))
            errors.append(coeff_error(outputs["rho"], outputs["kmax"], inputs["state"], LOW_K))
            if "db" in outputs:
                ddb.append(abs(outputs["db"] - exact_squeezing_db(inputs["state"])))
            wl.close(inputs)
        for label, values in (("max_drho", errors), ("|ddB|", ddb)):
            if values:
                mean, sd, tol = spread(values)
                print(f"{name:22s} smoke={args.smoke!s:5s} {label:8s} mean {mean:.4g} "
                      f"sd {sd:.3g} max {max(values):.4g} -> tolerance {tol:.4g}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

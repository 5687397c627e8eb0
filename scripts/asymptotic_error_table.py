#!/usr/bin/env python3
"""Exact terms against the two-term dominant-pole estimate.

Usage:
    python scripts/asymptotic_error_table.py [--max-n 30]
"""

import argparse
import sys

from gridcuts import build_canonical, dominant_form, error_profile, series_terms
from gridcuts.cli import ASYMPTOTICS_MAX_LIMIT
from gridcuts.reference import reference_amplitudes
from gridcuts.series import generating_function


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # a usage error is one line and exit code 2, like every other refusal here
    parser.error = lambda message: parser.exit(2, f"asymptotic_error_table: {message}\n")
    parser.add_argument("--max-n", type=int, default=30)
    args = parser.parse_args()
    # past the cap the float estimate growth^n overflows, as `gridcuts asymptotics` refuses too
    if not 1 <= args.max_n <= ASYMPTOTICS_MAX_LIMIT:
        print(f"asymptotic_error_table: --max-n must be in 1..{ASYMPTOTICS_MAX_LIMIT}", file=sys.stderr)
        return 2

    gf = generating_function(build_canonical(4))
    est = dominant_form(gf, amplitude_reference=reference_amplitudes)
    exact = series_terms(gf, args.max_n)
    errors = error_profile(gf, est, args.max_n)

    print(f"growth {est.growth:.10f}, A {est.amplitude:.6f}, B {est.alternation:.6f}, "
          f"closed-form check {est.exact_check}")
    print(f"{'n':>3} {'exact':>12} {'estimate':>14} {'rel err':>10}")
    for (n, err), value in zip(errors, exact):
        print(f"{n:>3} {value:>12} {est.predict(n):>14.1f} {err:>10.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

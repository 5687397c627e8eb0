#!/usr/bin/env python3
"""Print the three counting conventions side by side.

The stipulation count is the sequence the machine reproduces; raw cuts and
reflection orbits differ from it (first at width 2).  For 3-row boards the
known closed form 2^(n+1) - n - 1 tracks the orbit column, not the cuts.

Usage:
    python scripts/convention_table.py [--m 4] [--max-n 12]
"""

import argparse
import sys

from gridcuts import GridcutsError, count_reports
from gridcuts.oracle import delahaye_formula


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    # a usage error is one line and exit code 2, like every other refusal here
    parser.error = lambda message: parser.exit(2, f"convention_table: {message}\n")
    parser.add_argument("--m", type=int, default=4)
    parser.add_argument("--max-n", type=int, default=12)
    args = parser.parse_args()
    try:
        if args.max_n < 1:
            raise ValueError("--max-n must be at least 1")
        # every width is checked first: a refused row count or budget stops the table before any sweep
        reports = count_reports(args.m, range(1, args.max_n + 1))
    except (GridcutsError, ValueError) as exc:
        # the library's budget advice names a --budget this script does not take
        print(f"convention_table: {str(exc).partition(';')[0]}", file=sys.stderr)
        return 2

    show_formula = args.m == 3
    header = f"{'n':>3} {'canonical':>10} {'cuts':>8} {'orbits':>8}"
    if show_formula:
        header += f" {'2^(k+1)-k-1':>12}"
    print(header)
    for n, report in enumerate(reports, start=1):
        line = f"{n:>3} {report.canonical:>10} {report.cuts:>8} {report.orbits:>8}"
        if show_formula:
            formula = delahaye_formula(n // 2) if n % 2 == 0 else "-"
            line += f" {formula:>12}"
        print(line)
    if not report.canonical_validated:
        print(f"(canonical column unvalidated for m={args.m}; stipulations assume 4 rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

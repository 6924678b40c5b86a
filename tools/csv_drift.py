#!/usr/bin/env python3
"""Compare a regenerated CSV with its checked-in golden copy.

Usage:
  csv_drift.py GOLDEN.csv NEW.csv [--abs-tol X]

Header, shape and every non-numeric cell must match exactly; numeric
cells may differ by at most --abs-tol (default 0: exact). The virtual
clock repeats run to run only to about the 4th decimal of a whole-run
total (vocabulary-registration RPCs interleave differently), so CI
passes a small tolerance for those files and none for the per-rank
scatter seconds of fig9, which repeat exactly.

Stdlib only — the CI image has no third-party Python packages.
"""

import argparse
import csv
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("golden")
    ap.add_argument("new")
    ap.add_argument("--abs-tol", type=float, default=0.0)
    args = ap.parse_args()

    golden = list(csv.reader(open(args.golden)))
    new = list(csv.reader(open(args.new)))
    failures = []
    if len(golden) != len(new):
        failures.append(f"{len(new)} rows, golden has {len(golden)}")
    for i, (g_row, n_row) in enumerate(zip(golden, new), start=1):
        if len(g_row) != len(n_row):
            failures.append(f"row {i}: {len(n_row)} cells, golden has {len(g_row)}")
            continue
        for g, n in zip(g_row, n_row):
            try:
                drift = abs(float(g) - float(n))
            except ValueError:
                if g != n:
                    failures.append(f"row {i}: {n!r} != golden {g!r}")
                continue
            # 1e-9 absorbs the decimal-to-binary rounding of the cells.
            if drift > args.abs_tol + 1e-9:
                failures.append(
                    f"row {i}: {n} drifted {drift:.6g} from golden {g} "
                    f"(tolerance {args.abs_tol:g})"
                )
    for f in failures:
        print(f"{args.new}: {f}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"{args.new}: matches {args.golden} within {args.abs_tol:g}")


if __name__ == "__main__":
    main()

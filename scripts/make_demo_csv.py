#!/usr/bin/env python3
"""Generate a schema-complete synthetic weather CSV for smoke tests.

The output carries every canonical city and feature with plausible seasonal
values, so the full train / eval / occlude / scoremax pipeline runs on it
without any external download.
"""

import argparse
import sys

from stationcast.data import write_demo_csv
from stationcast.errors import ConfigurationError


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", help="CSV path to write")
    parser.add_argument("--days", type=int, default=1000, help="days to generate")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument(
        "--missing",
        type=int,
        default=0,
        help="numeric cells to blank (exercises imputation)",
    )
    args = parser.parse_args()
    try:
        blanked = write_demo_csv(args.out, days=args.days, seed=args.seed,
                                 missing=args.missing)
    except ConfigurationError as exc:
        sys.exit(f"configuration error: {exc}")
    print(f"wrote {args.out}: {args.days} days, {blanked} cells blanked")


if __name__ == "__main__":
    main()

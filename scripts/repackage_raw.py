#!/usr/bin/env python3
"""Repackage per-city wide CSVs into the long-form dataset schema.

Expected input layout: one ``<City>.csv`` per canonical city inside a
directory, each with a ``date`` column (ISO format) plus one column per
canonical feature, in any column order.  Output: a single long-form CSV
(``date,city,<features...>``) sorted by date then canonical city order,
ready for ``stationcast ingest`` / ``stationcast train``.

Cells are passed through verbatim (blanks included — ingestion imputes
them); the script only rearranges and validates column coverage.
"""

import argparse
import csv
import sys
from pathlib import Path

from stationcast.data import CITIES, FEATURES


def read_city(path: Path) -> dict[str, list[str]]:
    """Map each date to its feature values, reordered canonically."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or "date" not in header:
            sys.exit(f"{path}: no header with a 'date' column")
        missing = [f for f in FEATURES if f not in header]
        if missing:
            sys.exit(f"{path}: missing feature columns {missing}")
        order = [header.index(f) for f in FEATURES]
        date_col = header.index("date")
        rows = {}
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(header):
                sys.exit(f"{where}: expected {len(header)} fields, got {len(row)}")
            date = row[date_col]
            if date in rows:
                sys.exit(f"{where}: repeated date {date}")
            rows[date] = [row[i] for i in order]
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("raw_dir", help="directory of per-city wide CSVs")
    parser.add_argument("out", help="long-form CSV to write")
    args = parser.parse_args()

    raw = Path(args.raw_dir)
    per_city = {}
    for city in CITIES:
        path = raw / f"{city}.csv"
        if not path.is_file():
            sys.exit(f"missing per-city file: {path}")
        try:
            per_city[city] = read_city(path)
        except UnicodeDecodeError:
            sys.exit(f"{path}: not UTF-8 text")

    date_sets = [set(rows) for rows in per_city.values()]
    common = sorted(set.intersection(*date_sets))
    if not common:
        sys.exit("no dates shared by all cities")
    dropped = len(set.union(*date_sets)) - len(common)

    with open(args.out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "city", *FEATURES])
        for date in common:
            for city in CITIES:
                writer.writerow([date, city, *per_city[city][date]])

    print(f"wrote {args.out}: {len(common)} days x {len(CITIES)} cities")
    if dropped:
        print(f"dropped {dropped} dates not shared by every city")


if __name__ == "__main__":
    main()

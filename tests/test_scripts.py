"""Smoke tests for the helper scripts in scripts/."""

import csv
import subprocess
import sys
from pathlib import Path

import pytest

from stationcast.data import CITIES, FEATURES, load_dataset

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestMakeDemoCsv:
    def test_output_ingests_cleanly(self, tmp_path):
        out = tmp_path / "demo.csv"
        proc = run_script("make_demo_csv.py", out, "--days", 30, "--seed", 3)
        assert proc.returncode == 0, proc.stderr
        cube = load_dataset(out)
        assert cube.days == 30
        assert cube.cities == CITIES

    def test_missing_cells_reported(self, tmp_path):
        out = tmp_path / "demo.csv"
        proc = run_script(
            "make_demo_csv.py", out, "--days", 30, "--seed", 3, "--missing", 5
        )
        assert "5 cells blanked" in proc.stdout
        assert load_dataset(out).imputed == 5

    def test_every_interior_cell_can_be_blanked(self, tmp_path):
        # 3 days leave one interior day: 16 numeric features x 18 cities.
        out = tmp_path / "demo.csv"
        proc = run_script("make_demo_csv.py", out, "--days", 3, "--missing", 288)
        assert proc.returncode == 0, proc.stderr
        assert "288 cells blanked" in proc.stdout
        assert load_dataset(out).imputed == 288

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--days", 3, "--missing", 289), "cannot blank 289 cells"),
            (("--days", 2, "--missing", 1), "cannot blank 1 cells"),
            (("--days", -1), "at least 1 day"),
            (("--missing", -3), "cannot blank -3 cells"),
        ],
        ids=["too-many", "no-interior-day", "negative-days", "negative-missing"],
    )
    def test_impossible_sizes_fail_fast(self, tmp_path, args, message):
        out = tmp_path / "demo.csv"
        proc = run_script("make_demo_csv.py", out, *args)
        assert proc.returncode != 0
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestRepackageRaw:
    def write_wide(self, tmp_path, source, scramble=True):
        """Split a long-form CSV into per-city wide files, columns shuffled."""
        with open(source, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            rows = list(reader)
        raw = tmp_path / "raw"
        raw.mkdir()
        # Reversed feature order exercises the reordering path.
        columns = list(reversed(FEATURES)) if scramble else list(FEATURES)
        for city in CITIES:
            with open(raw / f"{city}.csv", "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(["date", *columns])
                for row in rows:
                    if row[1] == city:
                        values = dict(zip(FEATURES, row[2:]))
                        writer.writerow([row[0]] + [values[c] for c in columns])
        return raw

    def test_round_trip(self, tmp_path):
        source = tmp_path / "demo.csv"
        run_script("make_demo_csv.py", source, "--days", 25, "--seed", 1)
        raw = self.write_wide(tmp_path, source)
        out = tmp_path / "repackaged.csv"
        proc = run_script("repackage_raw.py", raw, out)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == source.read_bytes()

    def test_unshared_dates_dropped(self, tmp_path):
        source = tmp_path / "demo.csv"
        run_script("make_demo_csv.py", source, "--days", 25, "--seed", 1)
        raw = self.write_wide(tmp_path, source)
        extra = raw / f"{CITIES[0]}.csv"
        with open(extra, newline="") as handle:
            lines = handle.read().splitlines()
        lines.append("2030-01-01" + ",1.0" * (len(FEATURES) - 2) + ",N,Clear")
        extra.write_text("\n".join(lines) + "\n")
        out = tmp_path / "repackaged.csv"
        proc = run_script("repackage_raw.py", raw, out)
        assert proc.returncode == 0, proc.stderr
        assert "dropped 1 dates" in proc.stdout
        assert load_dataset(out).days == 25

    def test_missing_city_file_fails(self, tmp_path):
        source = tmp_path / "demo.csv"
        run_script("make_demo_csv.py", source, "--days", 25, "--seed", 1)
        raw = self.write_wide(tmp_path, source)
        (raw / f"{CITIES[3]}.csv").unlink()
        proc = run_script("repackage_raw.py", raw, tmp_path / "out.csv")
        assert proc.returncode != 0
        assert CITIES[3] in proc.stderr

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
             "line 3: expected 19 fields, got 18"),
            (lambda lines: lines + [lines[1]], "line 27: repeated date"),
        ],
        ids=["short-row", "repeated-date"],
    )
    def test_malformed_rows_name_the_file_and_line(self, tmp_path, edit, message):
        source = tmp_path / "demo.csv"
        run_script("make_demo_csv.py", source, "--days", 25, "--seed", 1)
        raw = self.write_wide(tmp_path, source)
        path = raw / f"{CITIES[2]}.csv"
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        out = tmp_path / "out.csv"
        proc = run_script("repackage_raw.py", raw, out)
        assert proc.returncode != 0
        assert f"{CITIES[2]}.csv, {message}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_a_file_that_is_not_utf8_is_named(self, tmp_path):
        source = tmp_path / "demo.csv"
        run_script("make_demo_csv.py", source, "--days", 25, "--seed", 1)
        raw = self.write_wide(tmp_path, source)
        path = raw / f"{CITIES[2]}.csv"
        path.write_bytes(path.read_bytes() + b"2030-01-01,\xe9\n")
        proc = run_script("repackage_raw.py", raw, tmp_path / "out.csv")
        assert proc.returncode != 0
        assert f"{CITIES[2]}.csv: not UTF-8 text" in proc.stderr
        assert "Traceback" not in proc.stderr

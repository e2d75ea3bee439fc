"""Every function defined in ``src/`` runs under a small command matrix.

Code that only tests call belongs in ``tests/``.  This guard runs each
command in process under the line tracer of ``linetrace.py`` and fails on
any function of the package that none of them reached.  The statement-level
check over the whole suite is ``pytest --lines`` (see ``conftest.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from linetrace import LineTracer, reexecute_package, statements
from stationcast import cli
from stationcast.data import write_demo_csv
from stationcast.explain import check_ascent
from stationcast.models import VARIANTS

# Functions the matrix cannot reach, and why each stays.
UNREACHED = {
    "_forget_worker": "runs only in a child forked after the worker started",
    "usable_cpus": "asked only for ops past SPLIT_WORK, which tiny models stay under",
    "write_demo_csv": "called by perfbench/workloads.py and scripts/make_demo_csv.py",
    "synthetic_cube": "the values write_demo_csv writes",
}


def run_matrix(data, tmp_path, capsys, monkeypatch):
    size = [
        "--lags", "4", "--horizon", "1", "--filters", "2", "--dense", "4",
        "--max-epochs", "1", "--split-ratio", "0.5", "--val-fraction", "0.5",
    ]
    out = tmp_path / "runs"
    for variant in VARIANTS:
        argv = ["train", "--data", str(data), "--out", str(out), "--variant", variant]
        assert cli.main([*argv, *size]) == 0
    runs = sorted(out.iterdir())
    assert len(runs) == len(VARIANTS)
    for run in runs:
        inputs = ["--checkpoint", str(run / "checkpoint.wxtn"), "--data", str(data)]
        assert cli.main(["eval", *inputs]) == 0
        occlude = ["occlude", *inputs, "--samples", "2"]
        assert cli.main([*occlude, "--mode", "patch", "--patch-size", "1"]) == 0
        assert cli.main([*occlude, "--mode", "temporal"]) == 0
        assert cli.main(["scoremax", *inputs, "--iterations", "2", "--lags", "1"]) == 0
    rerun = ["train", "--config", str(runs[0] / "config.txt"), "--out", str(out)]
    assert cli.main(rerun) == 0

    assert cli.main(["ingest", str(data), str(tmp_path / "canonical.csv")]) == 0
    lines = data.read_text().splitlines()
    holed = tmp_path / "holed.csv"
    holed.write_text("\n".join(x for x in lines if "2005-05-10" not in x) + "\n")
    assert cli.main(["ingest", str(holed), str(tmp_path / "canonical.csv")]) == 2
    # The console script: the exit code of main() becomes the process's.
    monkeypatch.setattr(sys, "argv", ["stationcast", "train", "--turbo"])
    with pytest.raises(SystemExit) as done:
        cli.entrypoint()
    assert done.value.code == 1
    capsys.readouterr()


def test_every_src_function_runs_under_a_command(tmp_path, capsys, monkeypatch):
    # Written before the tracer starts: no command makes demo data.
    data = tmp_path / "demo.csv"
    write_demo_csv(data, days=40, seed=3, missing=5)
    with LineTracer() as tracer:
        # Calls made at import count too.
        reexecute_package()
        run_matrix(data, tmp_path, capsys, monkeypatch)

    table, functions = statements()
    reached = {table[key][0] for key in tracer.ran() if key in table}
    unreached = functions - reached
    missed = sorted(unreached - set(UNREACHED))
    assert not missed, f"no command runs {missed}: move them to tests/ or delete them"
    assert set(UNREACHED) <= unreached, "an allowlisted function now runs"


def test_the_tracer_tells_a_skipped_branch_from_a_run_one():
    with LineTracer() as tracer:
        check_ascent(1, 0.5)
    table, _ = statements()
    assert {table[key] for key in tracer.ran()} == {
        ("check_ascent", "if iterations < 1:"),
        ("check_ascent", "if not (np.isfinite(lr) and lr >= 0):"),
    }


def test_lines_refuses_a_narrowed_run(tmp_path):
    # A narrowed run would report the statements other tests cover as unrun.
    root = Path(__file__).resolve().parents[1]
    argv = ["--lines", "tests/test_heatmap.py", "-k", "svg", "-m", "slow",
            "--deselect", "tests/test_heatmap.py::x", "--lf"]
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-o", f"cache_dir={tmp_path}", *argv],
        capture_output=True, text=True, timeout=120, cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert done.returncode == pytest.ExitCode.USAGE_ERROR
    assert "refuses test paths or node IDs, -k, -m, --deselect, --lf" in done.stderr
    assert "passed" not in done.stdout

"""Every function defined in ``src/`` runs under a small command matrix.

Code that only tests call belongs in ``tests/``.  This guard runs each
command in process under a profiler and fails on any function of the
package that none of them reached.
"""

import ast
import importlib.util
import sys
import threading
from pathlib import Path

from stationcast import cli
from stationcast.data import write_demo_csv
from stationcast.models import VARIANTS

PACKAGE = Path(cli.__file__).resolve().parent

# Functions the matrix cannot reach, and why each stays.
UNREACHED = {
    "_forget_worker": "runs only in a child forked after the worker started",
    "entrypoint": "the console script, which calls main() in a new process",
    "usable_cpus": "asked only for ops past SPLIT_WORK, which tiny models stay under",
    "Tensor.__repr__": "a debugging aid that no command prints",
    "write_demo_csv": "called by perfbench/workloads.py and scripts/make_demo_csv.py",
    "synthetic_cube": "the values write_demo_csv writes",
}


def defined_functions() -> dict:
    """``(file, first line) -> qualified name`` of every def in the package.

    The first line is a decorated function's first decorator line, as in
    the code object's ``co_firstlineno``.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}."
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = name[:-1]
            visit(child, path, name)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), "")
    return found


def run_matrix(data, tmp_path, capsys):
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
    assert cli.main(["train", "--turbo"]) == 1
    capsys.readouterr()


def test_every_src_function_runs_under_a_command(tmp_path, capsys):
    # Written before the profiler starts: no command makes demo data.
    data = tmp_path / "demo.csv"
    write_demo_csv(data, days=40, seed=3, missing=5)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        # Load each module once more, so that calls made at import count.
        for path in sorted(PACKAGE.glob("*.py")):
            name = f"stationcast.{path.stem}"
            spec = importlib.util.spec_from_file_location(name, path)
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
        run_matrix(data, tmp_path, capsys)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in called}
    unreached = {
        name for key, name in defined_functions().items() if key not in reached
    }
    missed = sorted(unreached - set(UNREACHED))
    assert not missed, f"no command runs {missed}: move them to tests/ or delete them"
    assert set(UNREACHED) <= unreached, "an allowlisted function now runs"

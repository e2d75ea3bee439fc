"""Self-test of the harness, so it cannot rot: ``python -m pytest perfbench``.

Runs ``run.py --smoke``: every workload, traced and untraced, with every
output check, on tiny models.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_runs_every_workload_and_check():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(results) == sorted(
        f"{name}{suffix}"
        for name in ("train", "occlude", "scoremax")
        for suffix in ("", ".trace")
    )
    for result in results.values():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1

    def traced(name, metric):
        return results[f"{name}.trace"]["metrics"][metric]["value"]

    assert traced("occlude", "autodiff.conv2d.bwd_s") == 0
    assert traced("occlude", "training.adam_step_s") == 0
    assert traced("scoremax", "layers.encoder_s") == 0
    assert traced("train", "training.adam_step.calls") > 0
    assert traced("occlude", "explain.occlusion_useful_ratio") > 0


def test_traced_run_writes_its_spans(tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [
            sys.executable, str(RUN), "--smoke",
            "--workload", "scoremax",
            "--trace", "1",
            "--spans", str(spans),
        ],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    names = {record["name"] for record in records}
    assert {"models.forward", "autodiff.backward", "autodiff.conv2d.bwd"} <= names
    for record in records:
        assert record["end"] >= record["start"] and record["op"] >= 1

"""Benchmark of the stationcast CLI: train, occlude and scoremax.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn
    python3 perfbench/run.py --smoke            # tiny sizes, every workload,
                                                # check and trace, in seconds

One run is one process and one workload. It sets up the workload several
times from ``--seed`` (``setup_s`` is the median), then runs whole units of
CLI commands back to back while the next unit is expected to end within
``--seconds``, and checks every command's outputs. With ``--trace 0`` it
reports the end-to-end figures:

    work_per_s   work done over the run / command wall time over the run;
                 the work is training windows x epochs (train), mask
                 positions x samples over every written map (occlude), or
                 ascent iterations (scoremax)
    setup_s      median set-up time: seed -> CSVs -> checkpoints -> a short
                 warm-up command of the unit's last kind
    peak_rss_mb  peak resident memory of the process

With ``--trace 1`` half the time runs untraced and half traced, and it
reports the per-layer figures of ``tracing.py`` plus the tracing overhead.
The last line of standard output is the JSON result; the lines before it
give the machine record and every figure by name with its unit. The exit
code is 1 if any command failed or any output check failed, and 2 if the
program cannot be found.

Scratch files go to a temporary directory under ``.perfbench_scratch/`` in
the repository root, removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SCRATCH = ROOT / ".perfbench_scratch"
NAMES = ("train", "occlude", "scoremax")

# One BLAS thread: on a 2-core machine two threads gave no faster ops, only
# twice the CPU time and more run-to-run spread.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None, help="default 30, or 0 with --smoke"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny models and inputs, for a self-test"
    )
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    return parser.parse_args(argv)


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "thread_env": {
            key: value for key, value in sorted(os.environ.items()) if "THREAD" in key
        },
    }


def run_unit(commands, tracer, counts):
    """Run one unit's commands; return (wall seconds, work, failed commands)."""
    from workloads import CheckFailed, run_cli

    wall = work = 0.0
    failed = 0
    for command in commands:
        command.out.mkdir(parents=True)
        try:
            counts["ops"] += 1
            if tracer is not None:
                tracer.begin_op(counts["ops"])
            start = time.perf_counter()
            try:
                code, err = run_cli(command.argv)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.end_op()
            if code != 0:
                raise CheckFailed(f"exit code {code}: {err.strip()}")
            work += command.check(command.out)
            wall += elapsed
        except CheckFailed as exc:
            print(f"FAILED {' '.join(command.argv)}: {exc}", file=sys.stderr)
            failed += 1
        except Exception:
            # Any other escape is a failed op too; the run goes on.
            print(f"FAILED {' '.join(command.argv)}:", file=sys.stderr)
            traceback.print_exc()
            failed += 1
        finally:
            shutil.rmtree(command.out, ignore_errors=True)
    return wall, work, failed


def measure(workload, scratch, seconds, min_units, tracer, counts):
    """Run whole units while the next one is expected to end within
    ``seconds``, and at least ``min_units``.

    Returns (wall seconds, work, commands) of every unit that succeeded.
    """
    done = []
    start = time.perf_counter()
    units = 0
    while True:
        elapsed = time.perf_counter() - start
        if units >= min_units and elapsed + elapsed / max(units, 1) > seconds:
            return done
        commands = workload.unit(scratch / f"unit{counts['units']}")
        counts["units"] += 1
        counts["attempted"] += len(commands)
        units += 1
        wall, work, failed = run_unit(commands, tracer, counts)
        counts["failed"] += failed
        if not failed:
            done.append((wall, work, len(commands)))


def run_workload(args) -> int:
    import workloads
    from tracing import METRIC_UNITS, Tracer

    size = workloads.SMOKE if args.smoke else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, size)
    print("machine: " + json.dumps(machine_record()))
    SCRATCH.mkdir(exist_ok=True)
    counts = {"units": 0, "ops": 0, "attempted": 0, "failed": 0}
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        scratch = Path(tmp)
        setup_times = []
        for repeat in range(size.setup_repeats):
            where = scratch / f"setup{repeat}"
            where.mkdir()
            start = time.perf_counter()
            workload.setup(where)
            setup_times.append(time.perf_counter() - start)
            shutil.rmtree(where / "warm-up")
        workload.prepare()

        # train runs at least twice so its checkpoints can be compared.
        min_units = 2 if args.workload == "train" and not args.trace else 1
        if args.trace:
            tracer = Tracer()
            plain = measure(workload, scratch, args.seconds / 2, 1, None, counts)
            tracer.install()
            try:
                traced = measure(workload, scratch, args.seconds / 2, 1, tracer, counts)
            finally:
                tracer.uninstall()
            if args.spans:
                tracer.dump(args.spans)
            plain_s = statistics.median(w / n for w, _, n in plain) if plain else 0.0
            traced_s = statistics.median(w / n for w, _, n in traced) if traced else 0.0
            metrics = tracer.metrics(plain_s, traced_s - plain_s)
            units = METRIC_UNITS
        else:
            done = measure(workload, scratch, args.seconds, min_units, None, counts)
            wall = sum(wall for wall, _, _ in done)
            metrics = {
                "work_per_s": sum(work for _, work, _ in done) / wall if done else 0.0,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
            }
            units = END_TO_END_UNITS
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run still uses it

    print(f"workload: {workload.name}  seed: {args.seed}  units: {counts['units']}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    if not args.trace:
        print(
            f"{workload.label} (= work_per_s): {metrics['work_per_s']:.6g} "
            f"{workload.label_unit}"
        )
        print("unit rates: " + " ".join(f"{w / s:.4g}" for s, w, _ in done))
    print(f"error_rate: {counts['failed']}/{counts['attempted']} failed/attempted")
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; the last line holds every result."""
    traces = (0, 1) if args.smoke else (args.trace,)
    results = {}
    code = 0
    for name in NAMES:
        for trace in traces:
            argv = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            if args.smoke:
                argv.append("--smoke")
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
            code = code or proc.returncode
            try:
                results[f"{name}{'.trace' if trace else ''}"] = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{name} (trace {trace}) exited {proc.returncode} without a result")
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "stationcast" / "__init__.py").is_file():
        print(f"stationcast sources not found under {SOURCE}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 30.0
    if args.workload == "all":
        return run_all(args)
    for variable in THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(SOURCE))
    import stationcast

    if Path(stationcast.__file__).resolve().parent != SOURCE / "stationcast":
        print(f"imported stationcast from {stationcast.__file__}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Shared fixtures, and the ``--lines`` session check."""

import pytest

import linetrace
from stationcast import autodiff as ad

_TRACER = pytest.StashKey()


def pytest_addoption(parser):
    parser.addoption(
        "--lines",
        action="store_true",
        help="trace src/ over the whole session and fail on any statement "
        "no test runs (see tests/linetrace.py)",
    )


def pytest_sessionstart(session):
    config = session.config
    if config.getoption("lines"):
        # A narrowed run would report the statements other tests cover.
        narrowing = {
            "test paths or node IDs": config.args_source == config.ArgsSource.ARGS,
            "-k": config.option.keyword,
            "-m": config.option.markexpr,
            "--deselect": config.option.deselect,
            "--lf": getattr(config.option, "lf", False),
        }
        used = [name for name, on in narrowing.items() if on]
        if used:
            raise pytest.UsageError(
                f"--lines checks the whole suite; it refuses {', '.join(used)}"
            )
        tracer = config.stash[_TRACER] = linetrace.LineTracer()
        tracer.__enter__()
        linetrace.reexecute_package()


def pytest_sessionfinish(session, exitstatus):
    tracer = session.config.stash.get(_TRACER, None)
    if tracer is None:
        return
    tracer.__exit__()
    missed, stale = linetrace.unrun(tracer)
    if missed or stale:
        report = session.config.pluginmanager.get_plugin("terminalreporter")
        report.write_sep("=", "statements of src/ that no test runs")
        for line in missed:
            report.write_line(line)
        for line in stale:
            report.write_line(f"linetrace.UNRUN names one that ran or is gone: {line}")
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def halves(request, monkeypatch):
    """Send every split op past the work gate, with one or two usable CPUs:
    with two, the second half runs on the worker thread.

    Returns the CPU counts handed out, one per split that passed the gate.
    """
    monkeypatch.setattr(ad, "SPLIT_WORK", 0)
    queries = []

    def usable_cpus():
        queries.append(request.param)
        return request.param

    monkeypatch.setattr(ad, "usable_cpus", usable_cpus)
    return queries

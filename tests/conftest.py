"""Shared fixtures."""

import pytest

from stationcast import autodiff as ad


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

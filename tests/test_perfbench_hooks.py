"""The benchmark's tracing hooks still find what they wrap.

``perfbench/tracing.py`` patches ``stationcast`` functions and methods by
name (``autodiff.conv2d``, ``ConvLSTM.step``, ...).  The tier-1 suite does not
collect ``perfbench/``, so a rename here would otherwise surface only as a
crash at the start of every traced benchmark run.
"""

import importlib.util
import threading
from pathlib import Path

import numpy as np

from stationcast import autodiff, layers
from stationcast.autodiff import Tensor

from gradcheck import total

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_uninstalls():
    conv2d = autodiff.conv2d
    step = layers.ConvLSTM.__dict__["step"]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert autodiff.conv2d is not conv2d
        assert layers.ConvLSTM.__dict__["step"] is not step
        rng = np.random.default_rng(0)
        layer = layers.ConvLSTM(rng, 1, 2)
        seq = Tensor(rng.uniform(-1, 1, (2, 3, 1, 4, 4)), requires_grad=True)
        tracer.begin_op(1)
        total(layer(seq)).backward()
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert autodiff.conv2d is conv2d
    assert layers.ConvLSTM.__dict__["step"] is step
    names = {span[0] for span in tracer.spans}
    assert {"autodiff.conv2d", "autodiff.conv2d.bwd", "autodiff.backward"} <= names
    metrics = tracer.metrics(op_s=0.0, overhead_s=0.0)
    assert metrics["autodiff.conv2d.calls"] == 1
    assert metrics["autodiff.tape_nodes"] > 0


def test_tracer_spans_nest_with_the_worker_running(monkeypatch):
    # The worker runs numpy only; a traced name called from it would open
    # a span on the tracer's single stack, out of order with the caller's.
    splits = []
    monkeypatch.setattr(autodiff, "SPLIT_WORK", 0)
    monkeypatch.setattr(autodiff, "usable_cpus", lambda: splits.append(2) or 2)
    tracer = load_tracing().Tracer()
    caller = threading.current_thread()
    open_span = tracer._open

    def open_on_caller(name):
        assert threading.current_thread() is caller, name
        return open_span(name)

    tracer._open = open_on_caller
    tracer.install()
    try:
        rng = np.random.default_rng(1)
        layer = layers.ConvLSTM(rng, 1, 2)
        seq = Tensor(rng.uniform(-1, 1, (2, 3, 1, 4, 4)), requires_grad=True)
        tracer.begin_op(1)
        total(layer(seq)).backward()
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert splits
    assert tracer.metrics(op_s=0.0, overhead_s=0.0)["autodiff.conv2d.calls"] == 1
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            _, parent_start, parent_end, _, _ = tracer.spans[parent]
            assert parent_start <= start <= end <= parent_end, name


def test_tracer_counts_steps_that_carry_a_state():
    # The temporal sweep passes each step the (h, c) pair the previous
    # step returned; the wrapper must hand it through unchanged.
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        rng = np.random.default_rng(2)
        layer = layers.ConvLSTM(rng, 1, 2)
        x = Tensor(rng.uniform(-1, 1, (2, 1, 4, 4)))
        tracer.begin_op(1)
        state = layer.step(x)
        layer.step(x, state)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert tracer.metrics(op_s=0.0, overhead_s=0.0)["layers.convlstm_step.calls"] == 2

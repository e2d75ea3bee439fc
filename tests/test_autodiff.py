"""Tensor-core tests: every op's forward against an independent oracle and
its backward against central finite differences."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationcast import autodiff as ad
from stationcast.autodiff import Tensor, no_grad
from stationcast.errors import ConfigurationError, ContractError, DimensionError

from gradcheck import grad_check, sigmoid, tanh, total


def rand(*shape, seed=0, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def weighted(expr, seed=99):
    """Weight with fixed random values so the gradient of the sum is generic."""
    w = Tensor(rand(*expr.shape, seed=seed))
    return expr * w


# -- forward values ----------------------------------------------------------


def test_arithmetic_forward_matches_numpy():
    a, b = rand(3, 4, seed=1), rand(3, 4, seed=2)
    ta, tb = Tensor(a), Tensor(b)
    np.testing.assert_array_equal((ta + tb).data, a + b)
    np.testing.assert_array_equal((ta - tb).data, a - b)
    np.testing.assert_array_equal((ta * tb).data, a * b)
    np.testing.assert_array_equal((ta / tb).data, a / b)


def test_scalar_operands_broadcast():
    t = Tensor(rand(2, 3, seed=3))
    np.testing.assert_array_equal((t + 1.5).data, t.data + 1.5)
    np.testing.assert_array_equal(ad.mul(2.0, t).data, 2.0 * t.data)
    np.testing.assert_array_equal((1.0 / t).data, 1.0 / t.data)


def test_matmul_inner_mismatch_is_an_error():
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(rand(2, 3)), Tensor(rand(4, 2)))
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(rand(3)), Tensor(rand(3, 2)))


def test_everything_is_float64():
    t = Tensor(np.arange(4, dtype=np.int32))
    assert t.data.dtype == np.float64
    assert (t * 2).data.dtype == np.float64


# -- conv2d against a loop oracle --------------------------------------------


def conv_reference(x, k):
    """Direct quadruple-loop same-padded cross-correlation (the oracle)."""
    cout, cin, kh, kw = k.shape
    _, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((cout, h, w))
    for o in range(cout):
        for r in range(h):
            for c in range(w):
                acc = 0.0
                for ci in range(cin):
                    for i in range(kh):
                        for j in range(kw):
                            rr, cc = r + i - ph, c + j - pw
                            if 0 <= rr < h and 0 <= cc < w:
                                acc += x[ci, rr, cc] * k[o, ci, i, j]
                out[o, r, c] = acc
    return out


def test_conv2d_matches_loop_oracle():
    x = rand(1, 3, 5, 6, seed=10)
    k = rand(4, 3, 3, 3, seed=11)
    got = ad.conv2d(Tensor(x), Tensor(k)).data
    np.testing.assert_allclose(got[0], conv_reference(x[0], k), atol=1e-12)


@pytest.mark.parametrize("extent", [(1, 3), (3, 1), (5, 3)])
def test_conv2d_batched_rectangular_kernels_match_loop_oracle(extent):
    x = rand(2, 3, 5, 6, seed=15)
    k = rand(4, 3, *extent, seed=16)
    got = ad.conv2d(Tensor(x), Tensor(k)).data
    for b in range(2):
        np.testing.assert_allclose(got[b], conv_reference(x[b], k), atol=1e-12)


def _conv2d_and_input_gradient(xs, k, g):
    x = Tensor(xs, requires_grad=True)
    out = ad.conv2d(x, Tensor(k))
    return out.data, out.node.backward(g)[0]


def test_conv2d_batched_equals_per_sample():
    # Besides two images: batches of several column blocks per half that end
    # in a partial block (whole groups of 2 images on 18 x 18, of 1 on 4 x 4).
    cases = [((2, 3, 4, 4), (1, 3)), ((11, 3, 18, 18), (3, 3)),
             ((11, 3, 4, 4), (3, 3)), ((19, 2, 18, 18), (3, 3))]
    for x_shape, extent in cases:
        xs = rand(*x_shape, seed=12)
        k = rand(2, x_shape[1], *extent, seed=13)
        g = rand(x_shape[0], 2, *x_shape[2:], seed=14)
        batched, batched_gx = _conv2d_and_input_gradient(xs, k, g)
        for b in range(x_shape[0]):
            single, single_gx = _conv2d_and_input_gradient(
                xs[b : b + 1], k, g[b : b + 1]
            )
            np.testing.assert_array_equal(batched[b : b + 1], single)
            np.testing.assert_array_equal(batched_gx[b : b + 1], single_gx)


def test_conv2d_identity_kernel_is_identity():
    x = rand(1, 1, 4, 4, seed=14)
    k = np.zeros((1, 1, 3, 3))
    k[0, 0, 1, 1] = 1.0
    np.testing.assert_allclose(ad.conv2d(Tensor(x), Tensor(k)).data, x, atol=0)


def test_conv2d_rejects_even_kernels_and_bad_channels():
    with pytest.raises(ConfigurationError):
        ad.conv2d(Tensor(rand(1, 1, 4, 4)), Tensor(rand(1, 1, 2, 3)))
    with pytest.raises(DimensionError):
        ad.conv2d(Tensor(rand(1, 2, 4, 4)), Tensor(rand(1, 3, 3, 3)))
    with pytest.raises(DimensionError):
        ad.conv2d(Tensor(rand(4, 4)), Tensor(rand(1, 1, 3, 3)))
    with pytest.raises(DimensionError):  # unbatched (Cin, H, W)
        ad.conv2d(Tensor(rand(1, 4, 4)), Tensor(rand(1, 1, 3, 3)))


# -- activations and softmax -------------------------------------------------


def test_sigmoid_is_stable_at_extremes():
    t = Tensor(np.array([-1000.0, 0.0, 1000.0]))
    s = sigmoid(t).data
    assert s[0] == 0.0 and s[1] == 0.5 and s[2] == 1.0
    # Bitwise the sign-split formula, where exp takes -x or x by sign.
    x = np.array([-1e308, -745.0, -1.0, -0.0, 0.0, 1e-300, 1.0, 745.0, 1e308])
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    split = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))
    np.testing.assert_array_equal(sigmoid(Tensor(x)).data, split)


def test_softmax_rows_sum_to_one():
    s = ad.softmax_rows(Tensor(rand(5, 7, seed=20, lo=-30, hi=30))).data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(5), atol=1e-12)
    assert (s >= 0).all()


def test_softmax_handles_huge_logits():
    s = ad.softmax_rows(Tensor(np.array([[1000.0, 1000.0, -1000.0]]))).data
    np.testing.assert_allclose(s, [[0.5, 0.5, 0.0]], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_softmax_rows_always_normalized(rows, cols, seed):
    x = np.random.default_rng(seed).normal(0, 10, size=(rows, cols))
    s = ad.softmax_rows(Tensor(x)).data
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(rows), atol=1e-9)


# -- shape ops ---------------------------------------------------------------


def test_reshape_and_error():
    t = Tensor(rand(2, 6, seed=21))
    assert ad.reshape(t, (3, 4)).shape == (3, 4)
    assert ad.reshape(t, (12,)).shape == (12,)
    with pytest.raises(DimensionError):
        ad.reshape(t, (5, 5))


def test_concat_values_and_errors():
    a, b = Tensor(rand(2, 3, seed=22)), Tensor(rand(4, 3, seed=23))
    joined = ad.concat([a, b], axis=0)
    np.testing.assert_array_equal(joined.data, np.concatenate([a.data, b.data]))
    with pytest.raises(DimensionError):
        ad.concat([a, Tensor(rand(2, 4))], axis=0)
    with pytest.raises(ContractError):
        ad.concat([], axis=0)


def test_getitem_forward():
    t = Tensor(rand(4, 5, seed=24))
    np.testing.assert_array_equal(t[1:3].data, t.data[1:3])
    np.testing.assert_array_equal(t[:, 2].data, t.data[:, 2])


def test_reductions_match_numpy():
    x = rand(3, 4, 5, seed=25)
    t = Tensor(x)
    np.testing.assert_allclose(total(t).data, x.sum())
    np.testing.assert_allclose(t.mean(axis=1).data, x.mean(axis=1))
    np.testing.assert_allclose(
        t.mean(axis=-1, keepdims=True).data, x.mean(axis=-1, keepdims=True)
    )


# -- backward ----------------------------------------------------------------


class TestBackward:
    def test_scalar_chain_exact(self):
        # d/dx of (3x + 2)^2 at x=1 is 2*(3*1+2)*3 = 30
        x = Tensor(np.array(1.0), requires_grad=True)
        z = x * 3.0 + 2.0
        y = z * z
        y.backward()
        assert x.grad == pytest.approx(30.0, abs=1e-12)

    def test_diamond_graph_accumulates_both_paths(self):
        # y = x*x + x -> dy/dx = 2x + 1
        x = Tensor(np.array(3.0), requires_grad=True)
        (x * x + x).backward()
        assert x.grad == pytest.approx(7.0, abs=1e-12)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        total(x * x).backward()
        first = x.grad.copy()
        total(x * x).backward()
        np.testing.assert_allclose(x.grad, 2 * first, atol=0)
        x.zero_grad()
        assert x.grad is None

    def test_backward_rejects_non_scalar_and_unconnected(self):
        x = Tensor(rand(2, 2), requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2).backward()
        with pytest.raises(ContractError):
            Tensor(np.array(1.0)).backward()
        # A tracked leaf is not on the tape either.
        with pytest.raises(ContractError, match="not on the tape"):
            Tensor(np.array(1.0), requires_grad=True).backward()

    def test_only_leaves_keep_gradients(self):
        w = Tensor(rand(3, 4, seed=28), requires_grad=True)
        x = Tensor(rand(2, 3, seed=29), requires_grad=True)
        hidden = ad.matmul(x, w)
        act = tanh(hidden)
        loss = total(act * act)
        loss.backward()
        assert hidden.grad is None and act.grad is None and loss.grad is None
        assert loss.node is None
        first_w, first_x = w.grad.copy(), x.grad.copy()
        with pytest.raises(ContractError, match="already walked"):
            loss.backward()
        np.testing.assert_array_equal(w.grad, first_w)
        np.testing.assert_array_equal(x.grad, first_x)
        assert hidden.grad is None and act.grad is None

    def test_no_grad_suppresses_taping(self):
        x = Tensor(rand(2, 2), requires_grad=True)
        with no_grad():
            y = x * x
        assert y.node is None and not y.requires_grad

    def test_broadcast_add_gradient_shape(self):
        a = Tensor(rand(3, 4, seed=26), requires_grad=True)
        b = Tensor(rand(4, seed=27), requires_grad=True)
        total(a + b).backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, np.full(4, 3.0), atol=0)


OPS = {
    "add": lambda x: x + Tensor(rand(3, 4, seed=50)),
    "sub": lambda x: Tensor(rand(3, 4, seed=51)) - x,
    "mul": lambda x: x * Tensor(rand(3, 4, seed=52)),
    "div": lambda x: x / Tensor(rand(3, 4, seed=53, lo=0.5, hi=2.0)),
    "sqrt": lambda x: ad.sqrt(x * x + 0.7),
    "matmul": lambda x: ad.matmul(x, Tensor(rand(4, 2, seed=54))),
    "sigmoid": sigmoid,
    "tanh": tanh,
    "relu": lambda x: ad.relu(x + 0.1),  # keep clear of the kink
    "softmax": ad.softmax_rows,
    "reshape": lambda x: ad.reshape(x, (4, 3)),
    "transpose": lambda x: ad.transpose(x, (1, 0)),
    "take": lambda x: x[1:, ::2],
    "concat": lambda x: ad.concat([x, x * 2.0], axis=1),
    "mean": lambda x: x.mean(axis=0, keepdims=True),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_gradients_match_finite_differences(name):
    op = OPS[name]
    x = Tensor(rand(3, 4, seed=60))
    err = grad_check(lambda t: weighted(op(t)), x)
    assert err < 1e-6, f"{name}: rel error {err}"


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((2, 3, 4), (4, 5)), ((2, 2, 3, 4), (4, 5)), ((2, 3, 4), (2, 4, 5))],
    ids=["3d-by-2d", "4d-by-2d", "batched-by-batched"],
)
def test_matmul_gradient_both_arguments(a_shape, b_shape):
    a = Tensor(rand(*a_shape, seed=65))
    b = Tensor(rand(*b_shape, seed=66))
    np.testing.assert_allclose(
        ad.matmul(a, b).data, np.matmul(a.data, b.data), rtol=1e-12
    )
    err_a = grad_check(lambda t: weighted(ad.matmul(t, b)), a)
    assert err_a < 1e-6, err_a
    err_b = grad_check(lambda t: weighted(ad.matmul(a, t)), b)
    assert err_b < 1e-6, err_b


def _shared_by_add(second_use):
    # add hands one gradient array to both parents; the later gradient for
    # ``a`` must not be summed into that array, or ``b`` would see it too.
    def f(x):
        a, b = x * 2.0, x * x
        again = second_use(a)
        return total(weighted(a + b)) + total(weighted(again, seed=97))

    return f


@pytest.mark.parametrize(
    "f",
    [
        # The dense use is walked first: slices add into a copy of it.
        lambda x: total(weighted(x[:, :2] * x[:, 2:]))
        + total(weighted(x * 1.5, seed=98)),
        # The slices are walked first: dense uses add into their buffer.
        lambda x: total(weighted(x * x)) + total(weighted(x[:, 1:3] * x[:, :2])),
        _shared_by_add(lambda a: a * 1.5),
        _shared_by_add(lambda a: a[:, 1:]),
    ],
    ids=["dense-first", "slices-first", "add-shared-dense", "add-shared-slice"],
)
def test_pending_gradients_accumulate_without_aliasing(f):
    assert grad_check(f, Tensor(rand(3, 4, seed=67))) < 1e-6


def test_conv2d_gradient_both_arguments():
    # Rectangular kernels on a batched input: the input gradient flips the
    # kernel in space, where a kh/kw mix-up would show.
    cases = [((1, 3, 4, 5), (3, 3)), ((2, 3, 4, 5), (1, 3)),
             ((2, 3, 4, 5), (3, 1)), ((2, 3, 6, 5), (5, 3))]
    for x_shape, extent in cases:
        k = Tensor(rand(2, x_shape[-3], *extent, seed=61), requires_grad=True)
        x = Tensor(rand(*x_shape, seed=62))
        err_x = grad_check(lambda t: weighted(ad.conv2d(t, k)), x)
        assert err_x < 1e-6, (x_shape, extent, err_x)
        k.zero_grad()
        anchor = Tensor(rand(*x_shape, seed=63))
        err_k = grad_check(lambda t: weighted(ad.conv2d(anchor, t)), k)
        assert err_k < 1e-6, (x_shape, extent, err_k)


# -- two fixed halves ----------------------------------------------------------


@pytest.mark.parametrize(
    "x_shape, extent",
    # The last two span several column blocks per half.
    [((3, 2, 4, 4), (3, 3)), ((2, 3, 4, 6), (1, 3)), ((11, 2, 4, 4), (3, 3)),
     ((19, 1, 3, 5), (3, 3))],
)
def test_conv2d_gradient_in_halves(halves, x_shape, extent):
    k = Tensor(rand(2, x_shape[1], *extent, seed=64), requires_grad=True)
    x = Tensor(rand(*x_shape, seed=65))
    assert grad_check(lambda t: weighted(ad.conv2d(t, k)), x) < 1e-6
    k.zero_grad()
    anchor = Tensor(rand(*x_shape, seed=66))
    assert grad_check(lambda t: weighted(ad.conv2d(anchor, t)), k) < 1e-6
    assert halves


def test_conv2d_builds_columns_a_few_images_at_a_time(halves):
    # The default second-layer shape: 80 images (16 samples x 5 lags) of
    # 16 channels into 64 on the 18 x 18 grid.  A half's columns would take
    # 15 MB; a block of four images' columns takes 1.5 MB.
    x = Tensor(rand(80, 16, 18, 18, seed=80), requires_grad=True)
    k = Tensor(rand(64, 16, 3, 3, seed=81), requires_grad=True)
    g = rand(80, 64, 18, 18, seed=82)
    mb = 1 << 20
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, k)
        forward_peak = tracemalloc.get_traced_memory()[1] - entry
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        out.node.backward(g)
        backward_peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert forward_peak < out.data.nbytes + 4 * mb, forward_peak / mb
    assert backward_peak < 12 * mb, backward_peak / mb
    assert halves


def test_run_halves_splits_only_from_the_gate(monkeypatch):
    asked = []
    monkeypatch.setattr(ad, "usable_cpus", lambda: asked.append(1) or 1)
    caller = threading.current_thread()
    calls = []

    def half(lo, hi):
        calls.append((lo, hi, threading.current_thread() is caller))
        return hi - lo

    assert ad.run_halves(8, ad.SPLIT_WORK - 1, half, unit=2) == [8]
    assert calls == [(0, 8, True)] and not asked
    calls.clear()
    assert ad.run_halves(8, ad.SPLIT_WORK, half, unit=2) == [4, 4]
    assert calls == [(0, 4, True), (4, 8, True)] and asked == [1]


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_split_error_surfaces_after_both_halves_stop(monkeypatch, failing):
    monkeypatch.setattr(ad, "SPLIT_WORK", 0)
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
    caller = threading.current_thread()
    stopped = []

    def half(lo, hi):
        on_worker = threading.current_thread() is not caller
        if on_worker == (failing == "worker"):
            raise ValueError(failing)
        time.sleep(0.05)
        stopped.append(on_worker)

    with pytest.raises(ValueError, match=failing):
        ad.run_halves(4, 0, half)
    assert stopped == [failing == "caller"]


def test_worker_half_sees_the_callers_numpy_error_state(monkeypatch):
    monkeypatch.setattr(ad, "SPLIT_WORK", 0)
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
    caller = threading.current_thread()

    def half(lo, hi):
        return threading.current_thread() is not caller, np.geterr()

    with np.errstate(over="ignore", invalid="raise", divide="warn"):
        wanted = np.geterr()
        halves = ad.run_halves(4, 0, half)
    assert halves == [(False, wanted), (True, wanted)]
    assert wanted != np.geterr()


def _matmul_products(a, b, g):
    """``matmul``'s forward value and both gradients for output gradient ``g``."""
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    out = ad.matmul(ta, tb)
    ga, gb = out.node.backward(g)
    return out.data, ga, gb


# The default-size products past the split gate at batch 16: the encoder
# projection, the feed-forward pair and the first head layer of the
# attention models, the first head layer of unistream; and a head with an
# odd batch.
@pytest.mark.parametrize(
    "m, k, n",
    [(288, 576, 576), (288, 576, 1152), (288, 1152, 576), (16, 10368, 256),
     (16, 10368, 512), (15, 10368, 256)],
)
def test_matmul_in_halves_is_bitwise_the_undivided_products(halves, m, k, n):
    a, b, g = rand(m, k, seed=67), rand(k, n, seed=68), rand(m, n, seed=69)
    out, ga, gb = _matmul_products(a, b, g)
    np.testing.assert_array_equal(out, a @ b)
    np.testing.assert_array_equal(ga, g @ b.T)
    np.testing.assert_array_equal(gb, a.T @ g)
    assert len(halves) == 3


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_a_head_of_a_few_rows_keeps_its_bits_in_halves(halves, m):
    # The split falls on an even row, so no half is a single row, which BLAS
    # would compute as a matrix-vector product that rounds differently.
    a, b, g = rand(m, 10368, seed=73), rand(10368, 256, seed=74), rand(m, 256, seed=75)
    out, ga, gb = _matmul_products(a, b, g)
    np.testing.assert_array_equal(out, a @ b)
    np.testing.assert_array_equal(ga, g @ b.T)
    np.testing.assert_array_equal(gb, a.T @ g)


def test_matmul_halves_hold_under_rapid_thread_switches(monkeypatch):
    monkeypatch.setattr(ad, "SPLIT_WORK", 0)
    monkeypatch.setattr(ad, "usable_cpus", lambda: 2)
    a, b, g = rand(96, 80, seed=70), rand(80, 64, seed=71), rand(96, 64, seed=72)
    wanted = (a @ b, g @ b.T, a.T @ g)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 2.0
        rounds = 0
        while rounds < 300 and time.monotonic() < deadline:
            for got, want in zip(_matmul_products(a, b, g), wanted):
                np.testing.assert_array_equal(got, want)
            rounds += 1
    finally:
        sys.setswitchinterval(interval)
    assert rounds >= 10


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert ad.usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ad.usable_cpus() == 1


def test_idle_worker_does_not_hold_up_exit():
    script = (
        "from stationcast import autodiff as ad\n"
        "ad.SPLIT_WORK = 0\n"
        "ad.usable_cpus = lambda: 2\n"
        "assert ad.run_halves(2, 0, lambda lo, hi: hi - lo) == [1, 1]\n"
        "assert ad._worker is not None\n"
    )
    source = Path(ad.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(source))
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60, env=env)


def test_grad_check_restores_tensor_state():
    x = Tensor(rand(2, 2, seed=64))
    assert not x.requires_grad
    before = x.data.copy()
    grad_check(lambda t: t * t, x)
    assert not x.requires_grad and x.grad is None
    np.testing.assert_array_equal(x.data, before)


def _conv_lstm_with_states(seed=70):
    """``conv_lstm`` with states at batch 3 (4 x 4 grid, 2 filters, 3 lags,
    3 x 3 kernel): its five inputs, uniform in (-1, 1) from seeds
    ``seed..seed+4``, and the weighted op of a list of them."""
    shapes = [(9, 8, 4, 4), (8, 2, 3, 3), (8,), (3, 2, 4, 4), (3, 2, 4, 4)]
    inputs = [
        Tensor(rand(*shape, seed=seed + i, lo=-1.0, hi=1.0))
        for i, shape in enumerate(shapes)
    ]

    def op(args):
        return weighted(ad.conv_lstm(args[0], 3, args[1], args[2], tuple(args[3:])))

    return inputs, op


def test_grad_check_passes_correct_tiny_gradients():
    # Counted whole, finite-difference rounding alone puts a pre-activation
    # gradient of 7.7e-6 (the largest is 1.9) 1.1e-5 off, relative, and one
    # of the initial cell state's 2.0e-6 off.
    inputs, op = _conv_lstm_with_states()
    for i, t in enumerate(inputs):
        err = grad_check(lambda x: op(inputs[:i] + [x] + inputs[i + 1 :]), t)
        assert err < 1e-6, (i, err)


@pytest.mark.parametrize("where", [np.argmax, np.argmin], ids=["largest", "smallest"])
def test_grad_check_fails_a_gradient_wrong_in_one_coordinate(where):
    inputs, op = _conv_lstm_with_states()
    xpre = Tensor(inputs[0].data, requires_grad=True)
    total(op([xpre] + inputs[1:])).backward()
    scale = np.abs(xpre.grad)
    error = np.zeros(scale.size)
    error[where(scale)] = 1e-4 * scale.max()
    error = error.reshape(scale.shape)

    def skewed(x):
        """``x``, with ``error`` added to the gradient that reaches it."""
        return ad._record(x.data, (x,), lambda g: (g + error,))

    assert grad_check(lambda x: op([skewed(x)] + inputs[1:]), inputs[0]) > 1e-6

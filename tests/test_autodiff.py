"""Tensor-core tests: every op's forward against an independent oracle and
its backward against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stationcast import autodiff as ad
from stationcast.autodiff import Tensor, grad_check, no_grad
from stationcast.errors import ConfigurationError, ContractError, DimensionError


def rand(*shape, seed=0, lo=-2.0, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


def weighted_sum(expr, seed=99):
    """Reduce with a fixed random weighting so the gradient is generic."""
    w = Tensor(rand(*expr.shape, seed=seed))
    return (expr * w).sum()


# -- forward values ----------------------------------------------------------


def test_arithmetic_forward_matches_numpy():
    a, b = rand(3, 4, seed=1), rand(3, 4, seed=2)
    ta, tb = Tensor(a), Tensor(b)
    np.testing.assert_array_equal((ta + tb).data, a + b)
    np.testing.assert_array_equal((ta - tb).data, a - b)
    np.testing.assert_array_equal((ta * tb).data, a * b)
    np.testing.assert_array_equal((ta / tb).data, a / b)
    np.testing.assert_array_equal((-ta).data, -a)
    np.testing.assert_array_equal((ta**3.0).data, a**3.0)


def test_scalar_operands_broadcast():
    t = Tensor(rand(2, 3, seed=3))
    np.testing.assert_array_equal((t + 1.5).data, t.data + 1.5)
    np.testing.assert_array_equal((2.0 * t).data, 2.0 * t.data)
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


def test_conv2d_batched_equals_per_sample():
    xs = rand(2, 3, 4, 4, seed=12)
    k = rand(2, 3, 1, 3, seed=13)
    batched = ad.conv2d(Tensor(xs), Tensor(k)).data
    for b in range(2):
        single = ad.conv2d(Tensor(xs[b : b + 1]), Tensor(k)).data
        np.testing.assert_array_equal(batched[b : b + 1], single)


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
    s = ad.sigmoid(t).data
    assert s[0] == 0.0 and s[1] == 0.5 and s[2] == 1.0
    # Bitwise the sign-split formula, where exp takes -x or x by sign.
    x = np.array([-1e308, -745.0, -1.0, -0.0, 0.0, 1e-300, 1.0, 745.0, 1e308])
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    split = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))
    np.testing.assert_array_equal(ad.sigmoid(Tensor(x)).data, split)


def test_activation_dispatch_and_unknown_name():
    x = Tensor(np.array([-1.0, 2.0]))
    np.testing.assert_array_equal(ad.activation(x, "relu").data, [0.0, 2.0])
    with pytest.raises(ConfigurationError):
        ad.activation(x, "gelu")


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
    assert t.reshape(3, 4).shape == (3, 4)
    assert t.reshape((12,)).shape == (12,)
    with pytest.raises(DimensionError):
        t.reshape(5, 5)


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
    np.testing.assert_allclose(t.sum().data, x.sum())
    np.testing.assert_allclose(t.mean(axis=1).data, x.mean(axis=1))
    np.testing.assert_allclose(
        t.mean(axis=-1, keepdims=True).data, x.mean(axis=-1, keepdims=True)
    )


# -- backward ----------------------------------------------------------------


class TestBackward:
    def test_scalar_chain_exact(self):
        # d/dx of (3x + 2)^2 at x=1 is 2*(3*1+2)*3 = 30
        x = Tensor(np.array(1.0), requires_grad=True)
        y = (3.0 * x + 2.0) ** 2.0
        y.backward()
        assert x.grad == pytest.approx(30.0, abs=1e-12)

    def test_diamond_graph_accumulates_both_paths(self):
        # y = x*x + x -> dy/dx = 2x + 1
        x = Tensor(np.array(3.0), requires_grad=True)
        (x * x + x).backward()
        assert x.grad == pytest.approx(7.0, abs=1e-12)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (x * x).sum().backward()
        first = x.grad.copy()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * first, atol=0)
        x.zero_grad()
        assert x.grad is None

    def test_backward_rejects_non_scalar_and_unconnected(self):
        x = Tensor(rand(2, 2), requires_grad=True)
        with pytest.raises(ContractError):
            (x * 2).backward()
        with pytest.raises(ContractError):
            Tensor(np.array(1.0)).sum().backward()

    def test_only_leaves_keep_gradients(self):
        w = Tensor(rand(3, 4, seed=28), requires_grad=True)
        x = Tensor(rand(2, 3, seed=29), requires_grad=True)
        hidden = ad.matmul(x, w)
        act = ad.tanh(hidden)
        loss = (act * act).sum()
        loss.backward()
        assert hidden.grad is None and act.grad is None and loss.grad is None
        first_w, first_x = w.grad.copy(), x.grad.copy()
        loss.backward()
        np.testing.assert_array_equal(w.grad, 2 * first_w)
        np.testing.assert_array_equal(x.grad, 2 * first_x)
        assert hidden.grad is None and act.grad is None

    def test_no_grad_suppresses_taping(self):
        x = Tensor(rand(2, 2), requires_grad=True)
        with no_grad():
            y = (x * x).sum()
        assert y.node is None and not y.requires_grad

    def test_broadcast_add_gradient_shape(self):
        a = Tensor(rand(3, 4, seed=26), requires_grad=True)
        b = Tensor(rand(4, seed=27), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, np.full(4, 3.0), atol=0)


OPS = {
    "add": lambda x: x + Tensor(rand(3, 4, seed=50)),
    "sub": lambda x: Tensor(rand(3, 4, seed=51)) - x,
    "mul": lambda x: x * Tensor(rand(3, 4, seed=52)),
    "div": lambda x: x / Tensor(rand(3, 4, seed=53, lo=0.5, hi=2.0)),
    "pow": lambda x: (x * x + 1.2) ** 1.5,
    "sqrt": lambda x: ad.sqrt(x * x + 0.7),
    "matmul": lambda x: ad.matmul(x, Tensor(rand(4, 2, seed=54))),
    "sigmoid": ad.sigmoid,
    "tanh": ad.tanh,
    "relu": lambda x: ad.relu(x + 0.1),  # keep clear of the kink
    "softmax": ad.softmax_rows,
    "reshape": lambda x: ad.reshape(x, (4, 3)),
    "transpose": lambda x: ad.transpose(x, (1, 0)),
    "take": lambda x: x[1:, ::2],
    "concat": lambda x: ad.concat([x, x * 2.0], axis=1),
    "mean": lambda x: x.mean(axis=0, keepdims=True),
    "sum_axis": lambda x: x.sum(axis=1),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_gradients_match_finite_differences(name):
    op = OPS[name]
    x = Tensor(rand(3, 4, seed=60))
    err = grad_check(lambda t: weighted_sum(op(t)), x)
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
    err_a = grad_check(lambda t: weighted_sum(ad.matmul(t, b)), a)
    assert err_a < 1e-6, err_a
    err_b = grad_check(lambda t: weighted_sum(ad.matmul(a, t)), b)
    assert err_b < 1e-6, err_b


def _shared_by_add(second_use):
    # add hands one gradient array to both parents; the later gradient for
    # ``a`` must not be summed into that array, or ``b`` would see it too.
    def f(x):
        a, b = x * 2.0, x * x
        again = second_use(a)
        return weighted_sum(a + b) + weighted_sum(again, seed=97)

    return f


@pytest.mark.parametrize(
    "f",
    [
        # The dense use is walked first: slices add into a copy of it.
        lambda x: weighted_sum(x[:, :2] * x[:, 2:]) + weighted_sum(x * 1.5, seed=98),
        # The slices are walked first: dense uses add into their buffer.
        lambda x: weighted_sum(x * x) + weighted_sum(x[:, 1:3] * x[:, :2]),
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
        err_x = grad_check(lambda t: weighted_sum(ad.conv2d(t, k)), x)
        assert err_x < 1e-6, (x_shape, extent, err_x)
        k.zero_grad()
        anchor = Tensor(rand(*x_shape, seed=63))
        err_k = grad_check(lambda t: weighted_sum(ad.conv2d(anchor, t)), k)
        assert err_k < 1e-6, (x_shape, extent, err_k)


def test_grad_check_restores_tensor_state():
    x = Tensor(rand(2, 2, seed=64))
    assert not x.requires_grad
    before = x.data.copy()
    grad_check(lambda t: (t * t).sum(), x)
    assert not x.requires_grad and x.grad is None
    np.testing.assert_array_equal(x.data, before)

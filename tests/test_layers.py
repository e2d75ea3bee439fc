"""Layer tests: hand oracles for the ConvLSTM cell and the attention head,
normalization identities, and finite-difference gradients through the
encoder block."""

import math

import numpy as np
import pytest

from stationcast import autodiff as ad
from stationcast.autodiff import Tensor
from stationcast.errors import ContractError, DimensionError
from stationcast.layers import (
    AttentionHead,
    BatchNorm,
    ConvLSTM,
    Dense,
    EncoderBlock,
    LayerNorm,
)
from stationcast.serialize import load_arrays, save_arrays

from gradcheck import grad_check, sigmoid, tanh, total


def rng(seed=0):
    return np.random.default_rng(seed)


def zero_params(layer):
    for p in layer.parameters():
        p.data[...] = 0.0


# -- dense -------------------------------------------------------------------


def test_dense_identity_weights_pass_through():
    layer = Dense(rng(), 3, 3)
    layer.weight.data[...] = np.eye(3)
    layer.bias.data[...] = 0.0
    x = rng(1).uniform(-1, 1, (4, 3))
    np.testing.assert_array_equal(layer(Tensor(x)).data, x)


def test_dense_bias_only():
    layer = Dense(rng(), 3, 2, relu=True)
    layer.weight.data[...] = 0.0
    layer.bias.data[...] = [-1.0, 2.0]
    out = layer(Tensor(np.ones((5, 3)))).data
    np.testing.assert_array_equal(out, np.tile([0.0, 2.0], (5, 1)))


def test_dense_width_mismatch():
    with pytest.raises(DimensionError):
        Dense(rng(), 3, 2)(Tensor(np.ones((4, 5))))


def test_dense_gradient():
    layer = Dense(rng(3), 4, 3, relu=True)
    x = Tensor(rng(4).uniform(-1, 1, (5, 4)))
    w = rng(5).standard_normal((5, 3))
    err = grad_check(lambda t: layer(t) * Tensor(w), x)
    assert err < 1e-6
    layer.zero_grad()
    err_w = grad_check(lambda t: layer(x) * Tensor(w), layer.weight)
    assert err_w < 1e-6


# -- normalization -----------------------------------------------------------


def test_layernorm_rows_have_zero_mean_unit_variance():
    layer = LayerNorm(7)
    x = Tensor(rng(6).uniform(-3, 3, (5, 7)))
    normed = layer(x).data  # gain 1, bias 0
    assert np.abs(normed.mean(axis=-1)).max() < 1e-9
    assert np.abs(normed.var(axis=-1) - 1.0).max() < 1e-6


def test_layernorm_gain_bias_applied():
    layer = LayerNorm(3)
    layer.gain.data[...] = 2.0
    layer.bias.data[...] = 0.5
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    expected = 2.0 * LayerNorm(3)(x).data + 0.5
    np.testing.assert_allclose(layer(x).data, expected, atol=1e-12)


class TestBatchNorm:
    def test_train_mode_normalizes_per_channel(self):
        layer = BatchNorm(3)
        # Large variance keeps the epsilon's bias under the tolerance.
        x = Tensor(rng(7).normal(50.0, 20.0, (16, 3, 1, 1)))
        out = layer(x, training=True).data  # gamma=1, beta=0 -> pre-affine
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-9
        assert np.abs(out.var(axis=(0, 2, 3)) - 1.0).max() < 1e-6

    def test_train_mode_4d_normalizes_over_batch_and_space(self):
        layer = BatchNorm(2)
        x = Tensor(rng(8).normal(-10.0, 30.0, (4, 2, 5, 5)))
        out = layer(x, training=True).data
        assert np.abs(out.mean(axis=(0, 2, 3))).max() < 1e-9
        assert np.abs(out.var(axis=(0, 2, 3)) - 1.0).max() < 1e-6

    def test_running_stats_follow_momentum(self):
        layer = BatchNorm(2)
        m = BatchNorm.MOMENTUM
        x = rng(9).normal(3.0, 2.0, (8, 2, 1, 1))
        layer(Tensor(x), training=True)
        expected_mean = m * 0.0 + (1 - m) * x.mean(axis=(0, 2, 3))
        expected_var = m * 1.0 + (1 - m) * x.var(axis=(0, 2, 3))
        np.testing.assert_allclose(layer.running_mean, expected_mean, atol=1e-12)
        np.testing.assert_allclose(layer.running_var, expected_var, atol=1e-12)

    def test_infer_mode_is_deterministic_affine(self):
        layer = BatchNorm(3)
        layer(Tensor(rng(10).normal(0, 1, (8, 3, 1, 1))), training=True)
        x = Tensor(rng(11).normal(0, 1, (4, 3, 1, 1)))
        first = layer(x, training=False).data
        second = layer(x, training=False).data
        np.testing.assert_array_equal(first, second)

    def test_small_batch_rejected_in_train_mode(self):
        layer = BatchNorm(2)
        with pytest.raises(ContractError):
            layer(Tensor(np.ones((1, 2, 1, 1))), training=True)
        # but fine in infer mode
        layer(Tensor(np.ones((1, 2, 1, 1))), training=False)

    def test_rejects_inputs_that_are_not_4d(self):
        layer = BatchNorm(2)
        for shape in ((4, 2), (4, 2, 3)):
            with pytest.raises(DimensionError):
                layer(Tensor(np.ones(shape)), training=False)

    def test_identity_on_standardized_batch(self):
        layer = BatchNorm(2)
        x = rng(12).normal(0, 1, (400, 2, 1, 1))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(
            axis=(0, 2, 3), keepdims=True
        )
        out = layer(Tensor(x), training=True).data
        assert np.abs(out - x).max() < 1e-4

    def test_gradient_through_train_mode(self):
        layer = BatchNorm(2)
        x = Tensor(rng(13).uniform(-2, 2, (6, 2, 1, 1)))
        w = rng(14).standard_normal((6, 2, 1, 1))
        err = grad_check(lambda t: layer(t, training=True) * Tensor(w), x)
        assert err < 1e-5


# -- convlstm ----------------------------------------------------------------


def lstm_scalar_oracle(weights, xs):
    """Pure-scalar LSTM (the independent oracle for 1x1 kernels on a 1x1 grid)."""

    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    (wxi, whi, bi), (wxf, whf, bf), (wxc, whc, bc), (wxo, who, bo) = weights
    h = c = 0.0
    for x in xs:
        i = sig(wxi * x + whi * h + bi)
        f = sig(wxf * x + whf * h + bf)
        o = sig(wxo * x + who * h + bo)
        c = f * c + i * math.tanh(wxc * x + whc * h + bc)
        h = o * math.tanh(c)
    return h, c


def gate(layer, fused, name):
    """Gate ``name``'s row block of a fused ConvLSTM tensor (or its array):
    the blocks are stacked in the order i, f, o, c."""
    n = layer.filters
    k = "ifoc".index(name)
    return fused[k * n : (k + 1) * n]


def scalar_weights(layer):
    return [
        tuple(
            float(gate(layer, fused.data, g).reshape(-1)[0])
            for fused in (layer.w_x, layer.w_h, layer.b)
        )
        for g in "ifco"
    ]


@pytest.mark.parametrize("seed", range(10))
def test_convlstm_matches_scalar_lstm_oracle(seed):
    layer = ConvLSTM(rng(seed), 1, 1, kernel=(1, 1))
    xs = rng(seed + 100).uniform(-2, 2, 5)
    expected_h, _ = lstm_scalar_oracle(scalar_weights(layer), xs)
    got = layer(Tensor(xs.reshape(1, 5, 1, 1, 1))).data
    assert abs(float(got[0, 0, 0, 0]) - expected_h) < 1e-12


def test_convlstm_all_zero_weights_gives_zero_state():
    layer = ConvLSTM(rng(0), 1, 2)
    zero_params(layer)
    x = Tensor(rng(1).uniform(-1, 1, (1, 1, 4, 4)))
    h0 = Tensor(np.zeros((1, 2, 4, 4)))
    h, c = layer.step(x, (h0, Tensor(np.zeros((1, 2, 4, 4)))))
    np.testing.assert_array_equal(h.data, np.zeros((1, 2, 4, 4)))
    np.testing.assert_array_equal(c.data, np.zeros((1, 2, 4, 4)))
    # gates really sit at 0.5: check via the cell update with c_prev = 1
    _, c1 = layer.step(x, (h0, Tensor(np.ones((1, 2, 4, 4)))))
    np.testing.assert_allclose(c1.data, np.full((1, 2, 4, 4), 0.5), atol=1e-15)


def test_convlstm_saturated_forget_gate_keeps_cell():
    layer = ConvLSTM(rng(0), 1, 2)
    zero_params(layer)
    gate(layer, layer.b.data, "f")[...] = 30.0
    c0 = rng(2).uniform(-1, 1, (1, 2, 3, 3))
    x = Tensor(np.zeros((1, 1, 3, 3)))
    _, c = layer.step(x, (Tensor(np.zeros((1, 2, 3, 3))), Tensor(c0)))
    assert np.abs(c.data - c0).max() < 1e-12


def test_convlstm_sequence_equals_manual_steps():
    layer = ConvLSTM(rng(3), 2, 3)
    seq = rng(4).uniform(-1, 1, (1, 3, 2, 4, 4))
    h = Tensor(np.zeros((1, 3, 4, 4)))
    c = Tensor(np.zeros((1, 3, 4, 4)))
    for t in range(3):
        h, c = layer.step(Tensor(seq[:, t]), (h, c))
    np.testing.assert_allclose(layer(Tensor(seq)).data, h.data, atol=1e-15)


def test_convlstm_single_step_sequence():
    layer = ConvLSTM(rng(5), 1, 2)
    seq = rng(6).uniform(-1, 1, (1, 1, 1, 3, 3))
    h, _ = layer.step(
        Tensor(seq[:, 0]),
        (Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros((1, 2, 3, 3)))),
    )
    np.testing.assert_allclose(layer(Tensor(seq)).data, h.data, atol=1e-15)


def test_convlstm_return_sequence_last_slice_matches():
    last_only = ConvLSTM(rng(7), 1, 2)
    with_seq = ConvLSTM(rng(7), 1, 2, return_sequence=True)
    seq = rng(8).uniform(-1, 1, (1, 4, 1, 3, 3))
    full = with_seq(Tensor(seq)).data
    assert full.shape == (1, 4, 2, 3, 3)
    np.testing.assert_array_equal(full[:, -1], last_only(Tensor(seq)).data)


def test_convlstm_hidden_state_bounded():
    layer = ConvLSTM(rng(9), 1, 2)
    seq = rng(10).uniform(-50, 50, (1, 6, 1, 4, 4))
    h = layer(Tensor(seq)).data
    assert np.abs(h).max() < 1.0


def test_convlstm_output_shape_at_reference_size():
    layer = ConvLSTM(rng(11), 1, 32)
    seq = np.zeros((1, 10, 1, 18, 18))
    assert layer(Tensor(seq)).shape == (1, 32, 18, 18)


def test_convlstm_rejects_empty_and_misshaped_input():
    layer = ConvLSTM(rng(12), 1, 2)
    with pytest.raises(ContractError):
        layer(Tensor(np.zeros((1, 0, 1, 3, 3))))
    with pytest.raises(DimensionError):
        layer(Tensor(np.zeros((3, 3))))
    with pytest.raises(DimensionError):  # unbatched (V, Cin, F, C)
        layer(Tensor(np.zeros((3, 1, 3, 3))))
    with pytest.raises(DimensionError):
        layer.step(
            Tensor(np.zeros((1, 1, 3, 3))),
            (Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 2, 3, 3)))),
        )


def test_convlstm_gradient():
    layer = ConvLSTM(rng(13), 1, 2)
    seq = Tensor(rng(14).uniform(-1, 1, (1, 3, 1, 3, 3)))
    w = Tensor(rng(15).standard_normal((1, 2, 3, 3)))
    err = grad_check(lambda t: layer(t) * w, seq)
    assert err < 1e-6
    # The hidden kernel and the bias reach the loss only through the
    # recurrence node's own backward.
    for param in (layer.w_h, layer.b):
        layer.zero_grad()
        err = grad_check(lambda _: layer(seq) * w, param)
        assert err < 1e-6


def test_convlstm_gradient_in_halves(halves):
    layer = ConvLSTM(rng(13), 1, 2)
    draws = rng(16)
    seq = Tensor(draws.uniform(-1, 1, (3, 3, 1, 4, 4)))
    h0, c0 = (Tensor(draws.uniform(-1, 1, (3, 2, 4, 4))) for _ in range(2))
    w = Tensor(draws.standard_normal((3, 2, 4, 4)))
    for t in (seq, h0, c0, layer.w_x, layer.w_h, layer.b):
        layer.zero_grad()
        assert grad_check(lambda _: layer(seq, (h0, c0)) * w, t) < 1e-6
    assert halves


def explicit_gate_step(layer, x, h, c):
    """The ConvLSTM equations written out gate by gate: 8 convolutions."""

    def pre(g):
        bias = ad.reshape(gate(layer, layer.b, g), (layer.filters, 1, 1))
        return (
            ad.conv2d(x, gate(layer, layer.w_x, g))
            + ad.conv2d(h, gate(layer, layer.w_h, g))
            + bias
        )

    i, f, o = sigmoid(pre("i")), sigmoid(pre("f")), sigmoid(pre("o"))
    c_new = f * c + i * tanh(pre("c"))
    return o * tanh(c_new), c_new


@pytest.mark.parametrize("kernel", [(3, 3), (1, 3)])
def test_convlstm_step_matches_explicit_gate_formula(kernel):
    layer = ConvLSTM(rng(21), 2, 3, kernel=kernel)
    draws = rng(22)
    for p in layer.parameters():  # distinct gates and nonzero biases
        p.data[...] = draws.uniform(-1, 1, p.shape)
    x = Tensor(rng(23).uniform(-1, 1, (4, 2, 5, 6)))
    h = Tensor(rng(24).uniform(-1, 1, (4, 3, 5, 6)))
    c = Tensor(rng(25).uniform(-1, 1, (4, 3, 5, 6)))
    got_h, got_c = layer.step(x, (h, c))
    want_h, want_c = explicit_gate_step(layer, x, h, c)
    np.testing.assert_allclose(got_h.data, want_h.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_c.data, want_c.data, rtol=0, atol=1e-12)


def explicit_sequence(layer, seq):
    """Run ``explicit_gate_step`` over every lag from zero states."""
    nb, steps = seq.shape[:2]
    h = c = Tensor(np.zeros((nb, layer.filters) + seq.shape[-2:]))
    hs = []
    for t in range(steps):
        h, c = explicit_gate_step(layer, seq[:, t], h, c)
        hs.append(ad.reshape(h, (nb, 1) + h.shape[1:]))
    return ad.concat(hs, axis=1) if layer.return_sequence else h


def random_gate_layer(kernel, return_sequence=False):
    layer = ConvLSTM(rng(31), 2, 3, kernel=kernel, return_sequence=return_sequence)
    draws = rng(32)
    for p in layer.parameters():  # distinct gates and nonzero biases
        p.data[...] = draws.uniform(-1, 1, p.shape)
    return layer


def value_and_gradients(loss_fn, layer, inputs):
    """The loss-producing outputs plus d loss / d every input and parameter."""
    layer.zero_grad()
    for t in inputs:
        t.zero_grad()
    outputs, loss = loss_fn()
    loss.backward()
    tracked = list(inputs) + list(layer.parameters())
    return [o.data for o in outputs] + [t.grad for t in tracked]


def assert_close_to_scale(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("return_sequence", [False, True])
@pytest.mark.parametrize("kernel", [(3, 3), (1, 3)])
def test_convlstm_sequence_and_gradients_match_explicit_gates(kernel, return_sequence):
    layer = random_gate_layer(kernel, return_sequence)
    seq = Tensor(rng(33).uniform(-1, 1, (4, 3, 2, 5, 6)), requires_grad=True)
    shape = (4, 3, 3, 5, 6) if return_sequence else (4, 3, 5, 6)
    w = Tensor(rng(34).standard_normal(shape))

    def loss_of(run):
        def loss_fn():
            out = run(seq)
            return [out], total(out * w)

        return loss_fn

    got = value_and_gradients(loss_of(layer), layer, [seq])
    want = value_and_gradients(
        loss_of(lambda s: explicit_sequence(layer, s)), layer, [seq]
    )
    assert len(got) == 2 + 3
    assert_close_to_scale(got, want)


@pytest.mark.parametrize("kernel", [(3, 3), (1, 3)])
def test_chained_steps_carry_cell_gradients(kernel):
    layer = random_gate_layer(kernel)
    draws = rng(35)

    def tracked(channels):
        return Tensor(draws.uniform(-1, 1, (4, channels, 5, 6)), requires_grad=True)

    x1, x2, h0, c0 = tracked(2), tracked(2), tracked(3), tracked(3)
    wh, wc = (Tensor(draws.standard_normal((4, 3, 5, 6))) for _ in range(2))

    def loss_of(step):
        def loss_fn():
            h1, c1 = step(layer, x1, h0, c0)
            h2, c2 = step(layer, x2, h1, c1)
            return [h2, c2], total(h2 * wh) + total(c2 * wc)

        return loss_fn

    inputs = [x1, x2, h0, c0]
    got = value_and_gradients(
        loss_of(lambda layer, x, h, c: layer.step(x, (h, c))), layer, inputs
    )
    want = value_and_gradients(loss_of(explicit_gate_step), layer, inputs)
    assert_close_to_scale(got, want)


@pytest.mark.parametrize("kernel", [(3, 3), (1, 3)])
def test_convlstm_in_halves_matches_explicit_gates(halves, kernel):
    # 8 samples of 5 x 6 cells: the halves hold whole 8-column blocks.
    layer = random_gate_layer(kernel, return_sequence=True)
    draws = rng(37)

    def tracked(shape):
        return Tensor(draws.uniform(-1, 1, shape), requires_grad=True)

    seq, h0, c0 = tracked((8, 3, 2, 5, 6)), tracked((8, 3, 5, 6)), tracked((8, 3, 5, 6))
    w = Tensor(draws.standard_normal((8, 3, 3, 5, 6)))

    def explicit(s, state):
        h, c = state
        hs = []
        for t in range(s.shape[1]):
            h, c = explicit_gate_step(layer, s[:, t], h, c)
            hs.append(ad.reshape(h, (8, 1) + h.shape[1:]))
        return ad.concat(hs, axis=1)

    def loss_of(run):
        def loss_fn():
            out = run(seq, (h0, c0))
            return [out], total(out * w)

        return loss_fn

    inputs = [seq, h0, c0]
    got = value_and_gradients(loss_of(layer), layer, inputs)
    assert halves
    want = value_and_gradients(loss_of(explicit), layer, inputs)
    assert_close_to_scale(got, want)


def test_convlstm_resumes_bitwise_from_a_given_state():
    layer = random_gate_layer((3, 3), return_sequence=True)
    seq = rng(36).uniform(-1, 1, (4, 5, 2, 5, 6))
    whole = layer(Tensor(seq)).data
    # Step by step from zeros, then the rest of the window from lag 2's state.
    h, c = layer.step(Tensor(seq[:, 0]))
    np.testing.assert_array_equal(h.data, whole[:, 0])
    for t in (1, 2):
        h, c = layer.step(Tensor(seq[:, t]), (h, c))
        np.testing.assert_array_equal(h.data, whole[:, t])
    rest = layer(Tensor(seq[:, 3:]), (h, c)).data
    np.testing.assert_array_equal(rest, whole[:, 3:])


def tape_tensors(out):
    """Every tensor ``out`` was computed through, ``out`` included."""
    seen, stack = {id(out): out}, [out]
    while stack:
        node = stack.pop().node
        for parent in node.parents if node else ():
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_convlstm_is_one_input_convolution_and_one_recurrence(monkeypatch):
    layer = ConvLSTM(rng(26), 2, 3)
    calls = []
    conv2d = ad.conv2d

    def counting(*args):
        calls.append(args)
        return conv2d(*args)

    monkeypatch.setattr(ad, "conv2d", counting)
    x = Tensor(rng(27).uniform(-1, 1, (2, 2, 4, 4)))
    state = Tensor(np.zeros((2, 3, 4, 4)))
    layer.step(x, (state, state))
    assert len(calls) == 1
    nodes = []
    for steps in (2, 5):
        calls.clear()
        seq = Tensor(rng(28).uniform(-1, 1, (2, steps, 2, 4, 4)), requires_grad=True)
        nodes.append(sum(t.node is not None for t in tape_tensors(layer(seq))))
        assert len(calls) == 1
    assert nodes[0] == nodes[1]


def test_convlstm_tape_holds_no_preactivation_block():
    layer = ConvLSTM(rng(30), 2, 3)
    seq = rng(31).uniform(-1, 1, (2, 4, 2, 4, 5))
    lag_major = seq.transpose(1, 0, 2, 3, 4).reshape(8, 2, 4, 5)
    with ad.no_grad():
        pre = ad.conv2d(lag_major, layer.w_x).data
    out = layer(Tensor(seq, requires_grad=True))
    arrays = [t.data for t in tape_tensors(out) if t.data is not None]
    assert not any(a.shape == pre.shape and np.array_equal(a, pre) for a in arrays)


def test_convlstm_backward_twice_raises_and_keeps_the_first_gradients():
    layer = ConvLSTM(rng(32), 2, 3)
    seq = Tensor(rng(33).uniform(-1, 1, (3, 4, 2, 4, 5)), requires_grad=True)
    h0, c0 = (Tensor(rng(s).uniform(-1, 1, (3, 3, 4, 5)), requires_grad=True)
              for s in (34, 35))
    weights = rng(36).uniform(-1, 1, (3, 3, 4, 5))
    loss = total(layer(seq, (h0, c0)) * weights)
    leaves = [seq, h0, c0, *layer.parameters()]
    loss.backward()
    once = [t.grad.copy() for t in leaves]
    with pytest.raises(ContractError, match="already walked"):
        loss.backward()
    for t, g in zip(leaves, once):
        np.testing.assert_array_equal(t.grad, g)


def test_convlstm_frozen_bias_gets_no_gradient():
    layer = ConvLSTM(rng(37), 2, 3)
    layer.b.requires_grad = False
    out = layer(Tensor(rng(38).uniform(-1, 1, (2, 3, 2, 4, 4)), requires_grad=True))
    (rec,) = [t for t in tape_tensors(out) if t.node and layer.b in t.node.parents]
    grads = rec.node.backward(np.ones_like(rec.data))
    assert grads[1] is not None and grads[2] is None


# -- attention ---------------------------------------------------------------


def test_attention_hand_computed_2x2_case():
    head = AttentionHead(rng(0), 2, 2)
    head.w_q.data[...] = np.eye(2)
    head.w_k.data[...] = [[0.0, 1.0], [1.0, 0.0]]
    head.w_v.data[...] = [[1.0, 2.0], [3.0, 4.0]]
    out = head(Tensor(np.eye(2))).data
    # Scalar evaluation: scores [[0, 1/sqrt2], [1/sqrt2, 0]], softmax weight
    # on the larger score p = e^(1/sqrt2) / (1 + e^(1/sqrt2)).
    expected = np.array(
        [
            [2.3395230986533138, 3.3395230986533138],
            [1.6604769013466862, 2.6604769013466862],
        ]
    )
    assert np.abs(out - expected).max() < 1e-12


def test_attention_identical_rows_give_identical_outputs():
    head = AttentionHead(rng(1), 3, 3)
    row = rng(2).uniform(-1, 1, 3)
    out = head(Tensor(np.tile(row, (4, 1)))).data
    assert np.abs(out - out[0]).max() < 1e-12


def test_attention_zero_queries_average_the_values():
    head = AttentionHead(rng(3), 3, 2)
    head.w_q.data[...] = 0.0
    head.w_k.data[...] = 0.0
    tokens = Tensor(rng(4).uniform(-1, 1, (5, 3)))
    v = tokens.data @ head.w_v.data
    out = head(tokens).data
    np.testing.assert_allclose(out, np.tile(v.mean(axis=0), (5, 1)), atol=1e-12)


def test_attention_outputs_are_convex_combinations():
    head = AttentionHead(rng(5), 4, 3)
    tokens = Tensor(rng(6).uniform(-3, 3, (6, 4)))
    v = tokens.data @ head.w_v.data
    out = head(tokens).data
    assert (out <= v.max(axis=0) + 1e-12).all()
    assert (out >= v.min(axis=0) - 1e-12).all()


def test_attention_embedding_mismatch():
    with pytest.raises(DimensionError):
        AttentionHead(rng(7), 4, 2)(Tensor(np.ones((3, 5))))


# -- encoder block -----------------------------------------------------------


def test_encoder_block_preserves_shape():
    for s, e in ((1, 1), (2, 5), (6, 4)):
        block = EncoderBlock(rng(8), e)
        assert block(Tensor(np.zeros((s, e)))).shape == (s, e)


def test_encoder_block_works_with_projected_key_dim():
    block = EncoderBlock(rng(9), 6, key_dim=3, hidden_dim=5)
    out = block(Tensor(rng(10).uniform(-1, 1, (4, 6))))
    assert out.shape == (4, 6)


def test_encoder_block_gradient_matches_finite_differences():
    block = EncoderBlock(rng(11), 4)
    tokens = Tensor(rng(12).uniform(-1, 1, (3, 4)))
    w = rng(13).standard_normal((3, 4))
    err = grad_check(lambda t: block(t) * Tensor(w), tokens)
    assert err < 1e-5


def test_encoder_default_dims():
    block = EncoderBlock(rng(14), 6)
    assert block.head.w_q.shape == (6, 6)  # d_k defaults to E
    assert block.ff_in.weight.shape == (6, 12)  # d_ff defaults to 2E


# -- parameter plumbing ------------------------------------------------------


def test_named_parameters_unique_and_complete():
    block = EncoderBlock(rng(15), 4)
    names = [n for n, _ in block.named_parameters()]
    assert len(names) == len(set(names))


def test_save_load_round_trip_is_bitwise(tmp_path):
    layer = ConvLSTM(rng(16), 2, 3)
    reloaded = ConvLSTM(rng(17), 2, 3)  # different init
    path = tmp_path / "cell.wxtn"
    save_arrays(path, dict(layer.named_state()), "cell")
    arrays, meta = load_arrays(path)
    assert meta == "cell"
    reloaded.load_state(arrays)
    for (_, a), (_, b) in zip(layer.named_state(), reloaded.named_state()):
        np.testing.assert_array_equal(a, b)


def test_load_rejects_shape_mismatch(tmp_path):
    small = Dense(rng(18), 2, 2)
    big = Dense(rng(19), 3, 3)
    path = tmp_path / "dense.wxtn"
    save_arrays(path, dict(small.named_state()))
    arrays, _ = load_arrays(path)
    with pytest.raises(DimensionError, match="shape"):
        big.load_state(arrays)


def test_load_rejects_unexpected_arrays():
    layer = Dense(rng(18), 2, 2)
    arrays = {name: value.copy() for name, value in layer.named_state()}
    arrays["extra"] = np.zeros(1)
    with pytest.raises(DimensionError, match="extra"):
        layer.load_state(arrays)


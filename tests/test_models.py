"""Model assembly tests: shapes, hand-counted parameters, the stream-symmetry
identity, batch independence, results independent of the worker thread, and
checkpoint round trips."""

import hashlib

import numpy as np
import pytest

from stationcast import autodiff as ad
from stationcast import layers
from stationcast.autodiff import Tensor
from stationcast.errors import ConfigurationError, DimensionError
from stationcast.models import (
    VARIANTS,
    ModelConfig,
    ModelGraph,
    load_checkpoint,
    save_checkpoint,
)
from stationcast.serialize import save_arrays


def tiny(variant, **overrides):
    kwargs = dict(
        variant=variant,
        lags=4,
        features=3,
        cities=5,
        n_targets=2,
        filters=2,
        dense=(7,),
        seed=1,
    )
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


def n_params(layer):
    return sum(p.size for p in layer.parameters())


def batch_for(cfg, n=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, cfg.lags, cfg.features, cfg.cities))


# -- shapes and determinism --------------------------------------------------


def test_default_shape_step_does_not_depend_on_the_worker(monkeypatch):
    monkeypatch.setattr(ad, "SPLIT_WORK", 0)
    model = ModelGraph(ModelConfig(variant="att_multistream"))
    draws = np.random.default_rng(4)
    x = draws.uniform(0, 1, (6, 10, 18, 18))
    y = Tensor(draws.uniform(0, 1, (6, 6)))
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(ad, "usable_cpus", lambda: cpus)
        model.zero_grad()
        out = model.forward(Tensor(x), mode="train")
        ((out - y) * (out - y)).mean().backward()
        runs.append([out.data] + [p.grad for p in model.parameters()])
    for one_cpu, two_cpus in zip(*runs):
        np.testing.assert_array_equal(one_cpu, two_cpus)


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-cpu", "two-cpus"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_default_size_predictions_are_bitwise_whole_or_split_at_the_gate(
    variant, cpus, monkeypatch
):
    # The gate, not every op, is what must split: unistream's second head
    # product (16 x 256 @ 256 x 256) stays below it, and in halves of 8 rows
    # OpenBLAS's Haswell kernels give that product other bits.
    queries = []
    monkeypatch.setattr(ad, "usable_cpus", lambda: queries.append(cpus) or cpus)
    model = ModelGraph(ModelConfig(variant=variant))
    x = np.random.default_rng(6).uniform(0, 1, (16, 10, 18, 18))
    split = model.predict(x)
    assert queries
    monkeypatch.setattr(ad, "SPLIT_WORK", 1 << 62)
    np.testing.assert_array_equal(split, model.predict(x))


@pytest.mark.parametrize("variant", VARIANTS)
def test_output_shape(variant):
    cfg = tiny(variant)
    model = ModelGraph(cfg)
    out = model.forward(batch_for(cfg))
    assert out.shape == (3, cfg.n_targets)
    assert np.isfinite(out.data).all()


@pytest.mark.parametrize("variant", VARIANTS)
def test_infer_mode_is_deterministic(variant):
    cfg = tiny(variant)
    model = ModelGraph(cfg)
    batch = batch_for(cfg)
    np.testing.assert_array_equal(model.forward(batch).data, model.forward(batch).data)


@pytest.mark.parametrize("variant", VARIANTS)
def test_infer_mode_is_batch_independent(variant):
    """Each sample's prediction must not depend on its batch mates."""
    cfg = tiny(variant)
    model = ModelGraph(cfg)
    batch = batch_for(cfg, n=4)
    together = model.forward(batch).data
    for i in range(4):
        alone = model.forward(batch[i : i + 1]).data[0]
        assert np.abs(together[i] - alone).max() < 1e-12


def test_zero_input_stays_finite():
    for variant in VARIANTS:
        cfg = tiny(variant)
        out = ModelGraph(cfg).forward(np.zeros((2, 4, 3, 5)))
        assert np.isfinite(out.data).all()


def test_train_mode_updates_running_stats():
    cfg = tiny("unistream")
    model = ModelGraph(cfg)
    before = model.norm.running_mean.copy()
    model.forward(batch_for(cfg), mode="train")
    assert not np.array_equal(model.norm.running_mean, before)


def test_forward_rejects_bad_shape_and_mode():
    model = ModelGraph(tiny("unistream"))
    with pytest.raises(DimensionError):
        model.forward(np.zeros((2, 4, 3, 6)))  # 6 cities instead of 5
    with pytest.raises(DimensionError):
        model.forward(np.zeros((4, 3, 5)))  # missing batch axis
    with pytest.raises(ConfigurationError):
        model.forward(np.zeros((2, 4, 3, 5)), mode="test")


# -- parameter counts --------------------------------------------------------


def test_hand_counted_parameters_tiny_unistream():
    # ConvLSTM(1->2, 3x3): 4 gates x (18 + 36 + 2) = 224
    # BatchNorm(2): 4    Dense(30->7): 217    Dense(7->2): 16
    assert n_params(ModelGraph(tiny("unistream"))) == 224 + 4 + 217 + 16


def test_hand_counted_parameters_tiny_multistream():
    # Per stream: ConvLSTM(1->2) 224 + ConvLSTM(2->2) 296 = 520; two streams.
    # BatchNorm(4): 8    Dense(60->7): 427    Dense(7->2): 16
    assert n_params(ModelGraph(tiny("multistream"))) == 1040 + 8 + 427 + 16


def test_hand_counted_parameters_tiny_att_unistream():
    # Encoder on E=6 tokens, d_k=6, d_ff=12: QKV 108 + out 36 + two norms 24
    # + feed-forward 84 + 78 = 330 extra over the plain unistream.
    assert n_params(ModelGraph(tiny("att_unistream"))) == 461 + 330


def test_attention_adds_exactly_the_encoder_parameters():
    plain = ModelGraph(tiny("unistream"))
    att = ModelGraph(tiny("att_unistream"))
    assert n_params(att) - n_params(plain) == n_params(att.encoder)


def test_default_configurations_have_similar_parameter_counts():
    counts = {v: n_params(ModelGraph(ModelConfig(variant=v))) for v in VARIANTS}
    assert counts == {
        "unistream": 5_413_574,
        "att_unistream": 5_384_582,
        "multistream": 5_368_774,
        "att_multistream": 5_371_014,
    }
    assert max(counts.values()) / min(counts.values()) < 1.2


def test_running_stats_are_saved_but_not_counted():
    model = ModelGraph(tiny("unistream"))
    state = dict(model.named_state())
    params = dict(model.named_parameters())
    assert "norm.running_mean" in state
    assert "norm.running_mean" not in params


# -- stream symmetry ---------------------------------------------------------


def test_streams_are_exchangeable():
    """Swapping the two streams' parameters while swapping the lag halves of
    the input (plus the downstream channel bookkeeping) is a no-op."""
    cfg = tiny("multistream", lags=6)
    model = ModelGraph(cfg)
    # Give the running stats structure so the swap below is load-bearing.
    stats_rng = np.random.default_rng(99)
    model.norm.running_mean = stats_rng.uniform(-1, 1, 4)
    model.norm.running_var = stats_rng.uniform(0.5, 2.0, 4)

    batch = batch_for(cfg, n=2)
    reference = model.forward(batch).data

    for a, b in zip(model.streams[0].conv, model.streams[1].conv):
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            pa.data[...], pb.data[...] = pb.data.copy(), pa.data.copy()
    f = cfg.filters
    for arr in (
        model.norm.gamma.data,
        model.norm.beta.data,
        model.norm.running_mean,
        model.norm.running_var,
    ):
        arr[...] = np.concatenate([arr[f:], arr[:f]])
    block = f * cfg.features * cfg.cities
    w = model.head[0].weight.data
    w[...] = np.concatenate([w[block:], w[:block]], axis=0)

    half = cfg.lags_per_stream
    swapped_batch = np.concatenate([batch[:, half:], batch[:, :half]], axis=1)
    assert np.abs(model.forward(swapped_batch).data - reference).max() < 1e-12


def test_four_streams():
    cfg = tiny("multistream", lags=8, streams=4)
    model = ModelGraph(cfg)
    assert cfg.lags_per_stream == 2
    assert cfg.merged_channels == 8
    assert model.forward(batch_for(cfg)).shape == (3, 2)


# -- configuration -----------------------------------------------------------


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        ModelConfig(variant="bistream")
    with pytest.raises(ConfigurationError):
        ModelConfig(variant="multistream", lags=10, streams=3)
    with pytest.raises(ConfigurationError):
        ModelConfig(variant="unistream", streams=2)
    with pytest.raises(ConfigurationError):
        ModelConfig(variant="multistream", streams=1)
    with pytest.raises(ConfigurationError):
        ModelConfig(cities=4, n_targets=6)
    with pytest.raises(ConfigurationError):
        ModelConfig(filters=0)
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        ModelConfig(seed=-1)
    # Sign comes before divisibility: -3 is not positive, not "undivided".
    with pytest.raises(ConfigurationError, match="lags must be positive"):
        ModelConfig(variant="multistream", lags=-3)


def test_config_defaults():
    cfg = ModelConfig(variant="multistream")
    assert cfg.streams == 2
    assert cfg.filters == 16
    assert cfg.dense == (512,)
    uni = ModelConfig()
    assert uni.streams == 1
    assert uni.filters == 32
    assert uni.dense == (512, 128)


def test_config_text_round_trip():
    cfg = tiny("att_multistream", key_dim=5, ff_dim=9)
    parsed, extras = ModelConfig.from_text(cfg.to_text())
    assert parsed == cfg
    assert extras == {}


def test_config_text_layout_is_pinned():
    # Checkpoint meta starts with this block, so its bytes must not move.
    cfg = ModelConfig(
        variant="att_multistream", kernel=(5, 3), dense=(7, 6), seed=4,
        key_dim=40, ff_dim=30,
    )
    assert cfg.to_text() == (
        "variant = att_multistream\nlags = 10\nfeatures = 18\ncities = 18\n"
        "n_targets = 6\nstreams = 2\nfilters = 16\nkernel = 5 3\ndense = 7 6\n"
        "seed = 4\nkey_dim = 40\nff_dim = 30\n"
    )
    assert "key_dim" not in ModelConfig("att_unistream", ff_dim=30).to_text()


def test_config_text_extras_and_errors():
    cfg, extras = ModelConfig.from_text(
        "variant = unistream\nhorizon = 2\n# comment\n\nnote = hi\n"
    )
    assert cfg.variant == "unistream"
    assert extras == {"horizon": "2", "note": "hi"}
    with pytest.raises(ConfigurationError):
        ModelConfig.from_text("variant = unistream\nvariant = unistream\n")
    with pytest.raises(ConfigurationError):
        ModelConfig.from_text("just some words\n")
    with pytest.raises(ConfigurationError):
        ModelConfig.from_text("variant = unistream\nlags = many\n")


# -- checkpoints -------------------------------------------------------------


@pytest.mark.parametrize("variant", ["unistream", "att_multistream"])
def test_checkpoint_round_trip_is_bitwise(tmp_path, variant):
    cfg = tiny(variant)
    model = ModelGraph(cfg)
    model.norm.running_mean[...] = 0.25  # exercise buffer persistence
    path = tmp_path / "model.wxtn"
    save_checkpoint(model, path, extras={"horizon": "2", "target_feature": "wind_speed"})
    clone, extras = load_checkpoint(path)
    assert clone.cfg == cfg
    assert extras == {"horizon": "2", "target_feature": "wind_speed"}
    for (name, a), (_, b) in zip(model.named_state(), clone.named_state()):
        np.testing.assert_array_equal(a, b, err_msg=name)
    batch = batch_for(cfg)
    np.testing.assert_array_equal(model.forward(batch).data, clone.forward(batch).data)


def test_checkpoint_state_names_are_pinned():
    """Checkpoints are keyed by these names, in this order; renaming any of
    them would orphan every checkpoint written before."""
    gates = [name for g in "ifco" for name in (f"w_x{g}", f"w_h{g}", f"b_{g}")]
    expected = [
        f"streams{i}.conv{j}.{gate}"
        for i in range(2)
        for j in range(2)
        for gate in gates
    ]
    expected += ["norm.gamma", "norm.beta", "norm.running_mean", "norm.running_var"]
    expected += ["head0.weight", "head0.bias", "head1.weight", "head1.bias"]
    model = ModelGraph(tiny("multistream"))
    assert [name for name, _ in model.named_state()] == expected


@pytest.mark.parametrize(
    "variant, digest",
    [
        ("unistream", "2f482a3ff2fa80d958979b638b3addb54726787b9cbbcdc7149ad426da285fc0"),
        (
            "att_multistream",
            "62e11f99de0c8c9349c78264e503e2ee589a38dcb8b08784251ebf41195ccbeb",
        ),
    ],
)
def test_checkpoint_bytes_are_pinned(tmp_path, variant, digest):
    """A freshly initialised toy model writes exactly these bytes: the
    initial weights, the entry names, their order and the layout all stay
    as checkpoints written before have them."""
    path = tmp_path / "model.wxtn"
    save_checkpoint(ModelGraph(tiny(variant)), path, {"horizon": "1"})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_checkpoint_gate_entries_land_in_their_fused_blocks(tmp_path):
    """Each per-gate entry fills its gate's rows of the fused ConvLSTM
    tensors, whose blocks are stacked in the order i, f, o, c."""
    model = ModelGraph(tiny("unistream"))
    arrays = {name: value.copy() for name, value in model.named_state()}
    for k, gate in enumerate("ifoc"):
        for j, entry in enumerate((f"w_x{gate}", f"w_h{gate}", f"b_{gate}")):
            arrays[f"backbone.{entry}"][...] = 10 * k + j
    path = tmp_path / "gates.wxtn"
    save_arrays(path, arrays, model.cfg.to_text())
    cell = load_checkpoint(path)[0].backbone
    n = cell.filters
    for k in range(4):
        for j, fused in enumerate((cell.w_x, cell.w_h, cell.b)):
            assert (fused.data[k * n : (k + 1) * n] == 10 * k + j).all()


def test_checkpoint_restores_predictions_after_reinit(tmp_path):
    cfg = tiny("multistream")
    model = ModelGraph(cfg)
    batch = batch_for(cfg)
    expected = model.forward(batch).data
    path = tmp_path / "model.wxtn"
    save_checkpoint(model, path)
    fresh = ModelGraph(tiny("multistream", seed=123))  # different init
    assert not np.array_equal(fresh.forward(batch).data, expected)
    clone, _ = load_checkpoint(path)
    np.testing.assert_array_equal(clone.forward(batch).data, expected)


def test_checkpoint_loads_without_drawing_initial_weights(tmp_path, monkeypatch):
    cfg = tiny("att_multistream")
    model = ModelGraph(cfg)
    path = tmp_path / "model.wxtn"
    save_checkpoint(model, path)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew initial weights")

    monkeypatch.setattr(layers, "glorot_uniform", no_draw)
    clone, _ = load_checkpoint(path)
    inputs = batch_for(cfg)
    np.testing.assert_array_equal(clone.predict(inputs), model.predict(inputs))

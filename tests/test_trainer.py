"""Transfer functions, gradient checks, training, and search tests."""

import json

import numpy as np
import pytest

from spinann.crossbar import map_weights
from spinann.device import NeuronDevice
from spinann.errors import ConfigError, DomainError, SearchError
from spinann.trainer import (
    Dataset,
    TrainConfig,
    TransferKind,
    activation,
    activation_derivative,
    load_weights,
    min_hidden_search,
    output_activations,
    predict,
    quantize_weights,
    save_weights,
    train,
)

TH1 = 24e-6
TH2 = 4.4925238268017153e-05


@pytest.fixture(scope="module")
def stt_kind():
    return TransferKind.stt_snn()


@pytest.fixture(scope="module")
def separable():
    x = np.array([[0.05], [0.15], [0.25], [0.75], [0.85], [0.95]])
    y = np.array([0, 0, 0, 1, 1, 1])
    return Dataset(x, y, n_classes=2)


class TestSttTable:
    def test_thresholds_from_device(self, stt_kind):
        dev = NeuronDevice()
        assert stt_kind.th1 == pytest.approx(TH1, rel=1e-12)
        assert stt_kind.th2 == pytest.approx(TH2, rel=1e-9)
        assert stt_kind.v_min == pytest.approx(dev.v_out_min, rel=1e-12)
        assert stt_kind.v_max == pytest.approx(dev.v_out_max, rel=1e-12)
        assert stt_kind.drive_current == pytest.approx(stt_kind.th2)

    def test_table_shape_and_anchors(self, stt_kind):
        assert len(stt_kind.i_nodes) == 1024
        assert len(stt_kind.a_nodes) == 1024
        assert stt_kind.a_nodes[0] == 0.0
        assert stt_kind.a_nodes[-1] == 1.0
        assert np.all(np.diff(stt_kind.i_nodes) > 0.0)
        assert np.all(np.diff(stt_kind.a_nodes) >= 0.0)

    def test_zero_current_zero_activation(self, stt_kind):
        drive = stt_kind.drive_current
        assert activation(0.0 / drive, stt_kind) == 0.0
        assert activation(-30e-6 / drive, stt_kind) == 0.0

    def test_exact_zero_up_to_th1(self, stt_kind):
        drive = stt_kind.drive_current
        assert activation(stt_kind.th1 / drive, stt_kind) == 0.0
        assert activation(0.9 * stt_kind.th1 / drive, stt_kind) == 0.0

    def test_exact_one_at_and_above_th2(self, stt_kind):
        drive = stt_kind.drive_current
        assert activation(stt_kind.th2 / drive, stt_kind) == 1.0
        assert activation(2 * stt_kind.th2 / drive, stt_kind) == 1.0

    def test_continuous_just_above_th1(self, stt_kind):
        dev = NeuronDevice()
        eps = 1e-9
        val = activation((stt_kind.th1 + eps) / stt_kind.drive_current,
                         stt_kind)
        assert 0.0 < val < 1e-3
        direct = (dev.transfer(stt_kind.th1 + eps) - stt_kind.v_min) \
            / (stt_kind.v_max - stt_kind.v_min)
        assert val == pytest.approx(direct, abs=1e-6)

    def test_table_tracks_device_transfer(self, stt_kind):
        dev = NeuronDevice()
        gen = np.random.default_rng(5)
        for i in gen.uniform(stt_kind.th1, stt_kind.th2, size=40):
            direct = (dev.transfer(i) - stt_kind.v_min) \
                / (stt_kind.v_max - stt_kind.v_min)
            assert activation(i / stt_kind.drive_current, stt_kind) \
                == pytest.approx(direct, abs=5e-4)

    def test_serialization_round_trip(self, stt_kind):
        back = TransferKind.from_dict(stt_kind.to_dict())
        assert back.tag == "stt_snn"
        assert back.drive_current == stt_kind.drive_current
        assert np.array_equal(back.i_nodes, stt_kind.i_nodes)
        assert np.array_equal(back.a_nodes, stt_kind.a_nodes)

    def test_slopes_derived_once_and_not_serialized(self, stt_kind):
        np.testing.assert_array_equal(
            stt_kind.slopes,
            np.diff(stt_kind.a_nodes) / np.diff(stt_kind.i_nodes))
        doc = stt_kind.to_dict()
        assert "slopes" not in doc
        np.testing.assert_array_equal(
            TransferKind.from_dict(doc).slopes, stt_kind.slopes)
        assert TransferKind.sigmoid().slopes is None

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigError):
            TransferKind("relu")


class TestActivationAnchors:
    def test_step(self):
        k = TransferKind.step()
        assert activation(-1e-12, k) == 0.0
        assert activation(0.0, k) == 0.0
        assert activation(1e-12, k) == 1.0

    def test_sat_linear_identity_on_segment(self):
        k = TransferKind.sat_linear()
        for z in (0.1, 0.5, 0.93):
            assert activation(z, k) == z
        assert activation(-0.5, k) == 0.0
        assert activation(1.7, k) == 1.0

    def test_sigmoid_anchor(self):
        k = TransferKind.sigmoid()
        assert activation(0.0, k) == 0.5
        assert activation(20.0, k) == pytest.approx(1.0, abs=1e-8)
        assert activation(-20.0, k) == pytest.approx(0.0, abs=1e-8)
        assert activation(-800.0, k) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind_name", ["step", "sat_linear", "sigmoid",
                                           "stt_snn"])
    def test_all_kinds_nondecreasing(self, kind_name, stt_kind):
        k = stt_kind if kind_name == "stt_snn" else TransferKind(kind_name)
        z = np.linspace(-2.0, 2.0, 401)
        a = activation(z, k)
        assert np.all(np.diff(a) >= 0.0)
        assert np.all((a >= 0.0) & (a <= 1.0))

    def test_stt_net_input_anchors(self, stt_kind):
        assert activation(0.0, stt_kind) == 0.0
        assert activation(1.0, stt_kind) == 1.0  # drive current = th2
        mid = stt_kind.th1 / stt_kind.th2
        assert activation(mid, stt_kind) == 0.0
        assert activation(mid + 1e-3, stt_kind) > 0.0


def central_difference(f, z, h):
    return (f(z + h) - f(z - h)) / (2.0 * h)


class TestGradientCheck:
    def test_sigmoid_matches_finite_differences(self):
        k = TransferKind.sigmoid()
        for z in np.linspace(-4.0, 4.0, 17):
            fd = central_difference(lambda t: activation(t, k), z, 1e-6)
            an = activation_derivative(z, k)
            assert an == pytest.approx(fd, rel=1e-4)

    def test_sat_linear_matches_on_smooth_segments(self):
        k = TransferKind.sat_linear()
        for z in (0.1, 0.5, 0.9):
            fd = central_difference(lambda t: activation(t, k), z, 1e-7)
            assert activation_derivative(z, k) == pytest.approx(fd, rel=1e-4)
        for z in (-0.5, 1.5):
            assert activation_derivative(z, k) == 0.0

    def test_stt_matches_on_segment_midpoints(self, stt_kind):
        # Between table nodes the activation is exactly linear, so the
        # finite difference taken inside one segment is the true slope.
        i_nodes = stt_kind.i_nodes
        drive = stt_kind.drive_current
        mids = 0.5 * (i_nodes[1:] + i_nodes[:-1]) / drive
        gaps = np.diff(i_nodes) / drive
        gen = np.random.default_rng(3)
        for idx in gen.integers(2, len(mids) - 1, size=60):
            z = mids[idx]
            h = 0.25 * gaps[idx]
            fd = central_difference(lambda t: activation(t, stt_kind), z, h)
            an = activation_derivative(z, stt_kind)
            if fd > 0.0:
                assert an == pytest.approx(fd, rel=1e-4)

    def test_stt_derivative_zero_outside_thresholds(self, stt_kind):
        r = stt_kind.th1 / stt_kind.th2
        assert activation_derivative(0.5 * r, stt_kind) == 0.0
        assert activation_derivative(1.2, stt_kind) == 0.0
        assert activation_derivative(-0.3, stt_kind) == 0.0

    def test_step_surrogate_window(self):
        k = TransferKind.step()
        assert activation_derivative(0.0, k) == 1.0
        assert activation_derivative(0.49, k) == 1.0
        assert activation_derivative(0.51, k) == 0.0
        # Unit area: the surrogate is the derivative of a ramp rising 0
        # to 1 over the window, so it integrates to one.
        z = np.linspace(-1.0, 1.0, 200001)
        area = np.trapezoid(activation_derivative(z, k), z)
        assert area == pytest.approx(1.0, rel=1e-3)

    def test_step_surrogate_matches_fd_outside_window(self):
        k = TransferKind.step()
        for z in (-2.0, -1.0, 1.0, 2.0):
            fd = central_difference(lambda t: activation(t, k), z, 1e-6)
            assert activation_derivative(z, k) == fd == 0.0


class TestTrain:
    def test_separable_toy_with_one_hidden_sigmoid(self, separable):
        cfg = TrainConfig(learning_rate=1.0, epochs=2000, seed=1)
        res = train(separable, 1, TransferKind.sigmoid(), cfg)
        assert res.converged
        assert res.accuracy == 1.0
        assert np.array_equal(predict(res, separable.features),
                              separable.labels)

    def test_deterministic_per_seed(self, separable):
        cfg = TrainConfig(learning_rate=1.0, epochs=200, seed=7)
        a = train(separable, 2, TransferKind.sigmoid(), cfg)
        b = train(separable, 2, TransferKind.sigmoid(), cfg)
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.w2, b.w2)
        c = train(separable, 2, TransferKind.sigmoid(),
                  TrainConfig(learning_rate=1.0, epochs=200, seed=8))
        assert not np.array_equal(a.w1, c.w1)

    def test_xor_needs_hidden_layer(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        ds = Dataset(x, y, n_classes=2)
        cfg = TrainConfig(learning_rate=2.0, epochs=4000, seed=3,
                          weight_clip=5.0, init_low=-1.0, init_high=1.0)
        res = train(ds, 4, TransferKind.sigmoid(), cfg)
        assert res.converged

    def test_stt_kind_learns_toy(self, separable, stt_kind):
        cfg = TrainConfig(learning_rate=0.02, epochs=4000, seed=0,
                          target_high=0.6)
        res = train(separable, 2, stt_kind, cfg)
        assert res.converged

    def test_non_convergence_reported_not_fatal(self):
        x = np.array([[0.5], [0.5]])
        y = np.array([0, 1])  # identical inputs, different labels
        ds = Dataset(x, y, n_classes=2)
        cfg = TrainConfig(epochs=50, seed=0)
        res = train(ds, 2, TransferKind.sigmoid(), cfg)
        assert not res.converged
        assert res.accuracy < 1.0
        assert res.epochs_run == 50
        assert res.accuracy == res.history[-1, 2]

    def test_history_records_epochs(self, separable):
        cfg = TrainConfig(epochs=30, seed=0, learning_rate=0.1)
        res = train(separable, 1, TransferKind.sat_linear(), cfg)
        assert res.history.shape[1] == 3
        # One measurement per epoch boundary, including the initial state.
        assert len(res.history) == res.epochs_run + 1
        assert np.all(np.isfinite(res.history))

    def test_weight_clip_respected(self, separable):
        cfg = TrainConfig(learning_rate=5.0, epochs=300, seed=2,
                          weight_clip=0.3)
        res = train(separable, 3, TransferKind.sigmoid(), cfg)
        assert np.all(np.abs(res.w1) <= 0.3)
        assert np.all(np.abs(res.w2) <= 0.3)

    def test_invalid_inputs_rejected(self, separable):
        with pytest.raises(DomainError):
            train(separable, 0, TransferKind.sigmoid())
        with pytest.raises(DomainError):
            Dataset(np.zeros((0, 4)), np.zeros(0), n_classes=2)
        with pytest.raises(DomainError):
            Dataset(np.zeros((2, 4)), np.array([0, 5]), n_classes=2)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(DomainError):
            Dataset([[bad], [1.0]], [0, 1], n_classes=2)

    @pytest.mark.parametrize("setting", [
        "learning_rate", "weight_clip", "init_low", "init_high",
        "target_low", "target_high", "positive_weight", "margin_target",
        "margin_weight", "train_sigma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_settings_rejected(self, setting, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**{setting: bad})


class TestQuantizeWeights:
    def test_top_magnitude_and_signs_survive(self):
        gen = np.random.default_rng(4)
        w = gen.uniform(-1.0, 1.0, size=(10, 6))
        q, report = quantize_weights(w)
        assert np.max(np.abs(q)) == pytest.approx(np.max(np.abs(w)),
                                                  rel=1e-12)
        nz = q != 0.0
        assert np.all(np.sign(q[nz]) == np.sign(w[nz]))
        assert report.levels == 32

    def test_error_bounds(self):
        gen = np.random.default_rng(6)
        w = gen.uniform(-1.0, 1.0, size=(20, 8))
        q, report = quantize_weights(w)
        w_max = np.max(np.abs(w))
        half_step = 0.5 * w_max / 32
        err = np.abs(q - w)
        pruned = (w != 0.0) & (q == 0.0)
        assert np.all(err[~pruned] <= half_step * (1 + 1e-9))
        assert np.all(err[pruned] <= w_max / 32)
        assert report.max_error <= w_max / 32
        assert report.pruned == int(pruned.sum())

    def test_matches_crossbar_decode_oracle(self):
        gen = np.random.default_rng(9)
        w = gen.uniform(-1.0, 1.0, size=(7, 5))
        q, _ = quantize_weights(w)
        decoded = map_weights(w).decode_weights()
        np.testing.assert_allclose(q, decoded, rtol=1e-12, atol=1e-18)

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            quantize_weights(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            quantize_weights([[bad, 1.0]])


class TestMinHiddenSearch:
    def test_single_class_needs_one_neuron(self):
        gen = np.random.default_rng(0)
        ds = Dataset(gen.uniform(0, 1, (8, 4)), np.zeros(8, dtype=int),
                     n_classes=1)
        cfg = TrainConfig(epochs=5, seed=0)
        found = min_hidden_search(ds, TransferKind.sigmoid(), cfg)
        assert found.n_hidden == 1

    def test_separable_two_class_needs_one(self, separable):
        cfg = TrainConfig(learning_rate=1.0, epochs=1500, seed=0)
        found = min_hidden_search(separable, TransferKind.sigmoid(), cfg)
        assert found.n_hidden == 1
        assert found.result.converged

    def test_deterministic(self, separable):
        cfg = TrainConfig(learning_rate=1.0, epochs=800, seed=11)
        a = min_hidden_search(separable, TransferKind.sigmoid(), cfg)
        b = min_hidden_search(separable, TransferKind.sigmoid(), cfg)
        assert a.n_hidden == b.n_hidden
        assert np.array_equal(a.result.w1, b.result.w1)

    def test_cap_raises_search_error(self):
        x = np.array([[0.5], [0.5]])
        ds = Dataset(x, np.array([0, 1]), n_classes=2)
        cfg = TrainConfig(epochs=20, seed=0)
        with pytest.raises(SearchError):
            min_hidden_search(ds, TransferKind.sigmoid(), cfg, max_hidden=2,
                              restarts=2)


class TestWeightsFile:
    def test_round_trip(self, tmp_path, separable, stt_kind):
        cfg = TrainConfig(learning_rate=1.5, epochs=500, seed=5,
                          weight_clip=2.0, init_low=0.0, init_high=1.0)
        res = train(separable, 2, stt_kind, cfg)
        path = tmp_path / "weights.json"
        save_weights(path, res)
        back = load_weights(path)
        assert np.array_equal(back.w1, res.w1)
        assert np.array_equal(back.w2, res.w2)
        assert back.kind.tag == "stt_snn"
        assert np.array_equal(back.kind.i_nodes, res.kind.i_nodes)
        assert back.config == res.config
        assert back.accuracy == res.accuracy
        out = output_activations(back, separable.features)
        np.testing.assert_array_equal(
            out, output_activations(res, separable.features))

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/1"}')
        with pytest.raises(ConfigError):
            load_weights(path)

    def _saved_with(self, tmp_path, separable, **stored):
        cfg = TrainConfig(learning_rate=1.0, epochs=50, seed=0)
        res = train(separable, 1, TransferKind.sigmoid(), cfg)
        path = tmp_path / "weights.json"
        save_weights(path, res)
        doc = json.loads(path.read_text())
        doc["config"].update(stored)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("key, value", [
        ("rail_weight", 0.5), ("center_inputs", False),
        ("adaptive_lr", False), ("momentum", 0.5), ("kick_scale", 0.1),
        ("target_accuracy", 0.9), ("surrogate_slope", 2.0)])
    def test_retired_key_at_other_value_rejected(self, tmp_path, separable,
                                                 key, value):
        path = self._saved_with(tmp_path, separable, **{key: value})
        with pytest.raises(ConfigError, match=key):
            load_weights(path)

    def test_unknown_config_key_rejected(self, tmp_path, separable):
        path = self._saved_with(tmp_path, separable, bogus_knob=1.0)
        with pytest.raises(ConfigError, match="bogus_knob"):
            load_weights(path)

    def test_non_finite_setting_rejected(self, tmp_path, separable):
        path = self._saved_with(tmp_path, separable, train_sigma=np.nan)
        with pytest.raises(ConfigError):
            load_weights(path)

"""Transfer functions, gradient checks, training, and search tests."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from spinann import trainer
from spinann.benchmark import HIDDEN_NEURONS, _score, recognizer_configs
from spinann.crossbar import map_weights
from spinann.device import (CROSS_SECTION, I_DEPINNING, I_SATURATION,
                            V_OUT_MAX, V_OUT_MIN, X_MAX, X_MIN, NeuronDevice,
                            wall_velocity)
from spinann.errors import ConfigError, DomainError, SearchError
from spinann.network import T_PROGRAM
from spinann.trainer import (
    NOISE_ENSEMBLE,
    REVIVE_RATE,
    _accuracy,
    _augment,
    _decisions,
    _ensemble_key,
    _forward,
    _margin,
    _net_inputs,
    _revive_dead_rows,
    Dataset,
    TrainConfig,
    TransferKind,
    activation,
    activation_derivative,
    load_weights,
    min_hidden_search,
    output_activations,
    own_margins,
    quantize_weights,
    save_weights,
    finalize,
    train,
)

STORED_RECOGNIZER = (Path(__file__).resolve().parents[1]
                     / "perfbench" / "data" / "recognizer_seed17.json")

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
        assert (stt_kind.th1, stt_kind.th2, stt_kind.v_min, stt_kind.v_max,
                stt_kind.drive_current) == (I_DEPINNING, I_SATURATION,
                                            V_OUT_MIN, V_OUT_MAX,
                                            I_SATURATION)
        assert stt_kind.th1 == pytest.approx(TH1, rel=1e-12, abs=0.0)
        assert stt_kind.th2 == pytest.approx(TH2, rel=1e-9, abs=0.0)

    def test_table_saturates_at_the_program_pulse(self, stt_kind):
        """The table's full-travel current is the one that walks the wall
        end to end within the network's programming pulse."""
        assert stt_kind.th2 == I_SATURATION
        v_sat = wall_velocity(stt_kind.th2 / CROSS_SECTION)
        assert v_sat * T_PROGRAM == pytest.approx(X_MAX - X_MIN, rel=1e-12,
                                                  abs=0.0)

    @pytest.mark.parametrize("n_nodes", [0, 1, 2])
    def test_rejects_degenerate_table_size(self, n_nodes):
        """Below 3 nodes the table cannot hold 0, th1 and th2 apart: at 2
        it would read activation 1.0 at th1, at 1 for every input."""
        with pytest.raises(ConfigError):
            TransferKind.stt_snn(n_nodes=n_nodes)

    @pytest.mark.parametrize("n_nodes, digest", [
        (trainer.STT_TABLE_NODES,
         "15da972205a567a8dbc02d427ea665abded4724709e2a0353a92052869993ef4"),
        (64,
         "c475efca78cc20af1404d8f9fe23a2f2a9b76b1d7c4c8281f2310dcc13312101"),
    ])
    def test_table_pinned(self, n_nodes, digest):
        """SHA-256 over the <f8 bytes of i_nodes, a_nodes, then
        [th1, th2, v_min, v_max]: any change to the device curve or its
        sampling moves it."""
        kind = TransferKind.stt_snn(n_nodes=n_nodes)
        h = hashlib.sha256()
        for part in (kind.i_nodes, kind.a_nodes,
                     [kind.th1, kind.th2, kind.v_min, kind.v_max]):
            h.update(np.asarray(part, dtype="<f8").tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("n_nodes", [3, 64, trainer.STT_TABLE_NODES])
    def test_device_output_needs_no_repair(self, n_nodes):
        """At every node count in use the device's own output at the table
        currents, normalized to the swing, is nondecreasing, exactly 0 at
        and below th1 and exactly 1 at th2, and it is the table."""
        kind = TransferKind.stt_snn(n_nodes)
        volts = np.array([NeuronDevice().transfer(i) for i in kind.i_nodes])
        raw = (volts - V_OUT_MIN) / (V_OUT_MAX - V_OUT_MIN)
        assert np.all(np.diff(raw) >= 0.0)
        below = kind.i_nodes <= I_DEPINNING
        assert below.sum() == 2 and np.all(raw[below] == 0.0)
        assert kind.i_nodes[-1] == I_SATURATION and raw[-1] == 1.0
        np.testing.assert_array_equal(kind.a_nodes, raw)

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

    def test_derivative_table_built_once_and_not_serialized(self):
        """Only training reads the derivative table, so neither
        construction nor load_weights builds it; the first read does,
        once."""
        kind = TransferKind.stt_snn(64)
        assert "derivative_table" not in vars(kind)
        assert "derivative_table" not in vars(
            load_weights(STORED_RECOGNIZER).kind)
        edges, gains = kind.derivative_table
        assert kind.derivative_table[1] is gains
        assert len(gains) == len(edges) + 1
        assert np.all(np.diff(edges) >= 0.0)
        doc = kind.to_dict()
        assert set(doc) == {"tag", *trainer._STT_FILE_KEYS.values()}
        for got, want in zip(TransferKind.from_dict(doc).derivative_table,
                             (edges, gains)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_nodes", [3.5, 1024.0, np.float64(1024)],
                             ids=["fractional", "float", "numpy-float"])
    def test_non_integer_node_count_rejected(self, n_nodes):
        with pytest.raises(ConfigError):
            TransferKind.stt_snn(n_nodes)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigError):
            TransferKind("relu")

    @pytest.mark.parametrize("key, value", [
        ("drive_current_a", np.nan), ("drive_current_a", np.inf),
        ("a_nodes", [0.0, 1.0]),
        ("a_nodes", lambda a: [5.0 * x for x in a]),
        ("a_nodes", lambda a: [x - 0.5 for x in a]),
        ("th1_a", int(np.float64(I_DEPINNING).view(np.int64)))])
    def test_bad_stored_table_rejected(self, stt_kind, key, value):
        """A stored table is the device's or refused: here a non-finite
        drive, activations that would drive the output voltage outside
        the neuron's swing, and an integer holding th1's bits."""
        doc = stt_kind.to_dict()
        doc[key] = value(doc[key]) if callable(value) else value
        with pytest.raises(ConfigError):
            TransferKind.from_dict(doc)

    # Edits of (i_nodes, a_nodes) that np.interp would take without a
    # word (a repeated node also divides by zero in the slopes), and
    # tables of another length than the device's or of two lengths.
    MALFORMED = {
        "reversed-i_nodes": lambda i, a: (i[::-1], a),
        "repeated-i_node": lambda i, a: (np.r_[i[:3], i[2:-1]], a),
        "inf-i_node": lambda i, a: (np.r_[i[:-1], np.inf], a),
        "nan-a_node": lambda i, a: (i, np.r_[a[:5], np.nan, a[6:]]),
        "inf-a_node": lambda i, a: (i, np.r_[a[:-1], np.inf]),
        "falling-a_nodes": lambda i, a: (i, np.r_[a[:-1], 0.5]),
        "empty-table": lambda i, a: (i[:0], a[:0]),
        "one-node": lambda i, a: (i[:1], a[:1]),
        "both-short": lambda i, a: (i[:-1], a[:-1]),
        "short-a_nodes": lambda i, a: (i, a[:-1]),
        "short-i_nodes": lambda i, a: (i[:-1], a),
    }

    @pytest.mark.parametrize("key, share", [("th1_a", 0.6), ("th2_a", 0.9)])
    def test_thresholds_off_the_plateaus_rejected(self, stt_kind, key,
                                                  share):
        """Stored thresholds are the device's or refused: the derivative
        is 0 outside (th1, th2), where the table reads exactly 0 and 1."""
        doc = stt_kind.to_dict()
        doc[key] = share * stt_kind.drive_current
        with pytest.raises(ConfigError):
            TransferKind.from_dict(doc)

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_table_rejected(self, stt_kind, name):
        i_nodes, a_nodes = self.MALFORMED[name](stt_kind.i_nodes,
                                                stt_kind.a_nodes)
        doc = stt_kind.to_dict()
        doc.update(i_nodes_a=i_nodes.tolist(), a_nodes=a_nodes.tolist())
        with pytest.raises(ConfigError):
            TransferKind.from_dict(doc)

    @pytest.mark.parametrize("key", list(trainer._STT_FILE_KEYS.values()))
    def test_one_step_off_refused(self, stt_kind, key):
        """A stored field one np.nextafter step off the device's table, in
        one value of it, is refused by name."""
        doc = stt_kind.to_dict()
        value = np.array(doc[key])
        mid = value.size // 2
        value.flat[mid] = np.nextafter(value.flat[mid], np.inf)
        doc[key] = value.tolist()
        with pytest.raises(ConfigError, match=key):
            TransferKind.from_dict(doc)

    def test_other_node_counts_load(self):
        for n_nodes in (3, 64):
            doc = TransferKind.stt_snn(n_nodes).to_dict()
            assert TransferKind.from_dict(doc).n_nodes == n_nodes

    def test_each_load_owns_the_device_table(self):
        """A loaded table is stt_snn(n)'s bit for bit and writeable, and
        writing to one load's table leaves every other load's intact."""
        device = TransferKind.stt_snn()
        first, second = (load_weights(STORED_RECOGNIZER).kind
                         for _ in range(2))
        for kind in (first, second):
            for name in ("i_nodes", "a_nodes"):
                got, want = getattr(kind, name), getattr(device, name)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
                assert got.flags.writeable
        first.a_nodes[1:] = 0.5
        for kind in (second, load_weights(STORED_RECOGNIZER).kind):
            assert kind.a_nodes.tobytes() == device.a_nodes.tobytes()

    def test_loads_build_one_table(self, monkeypatch):
        """Loads copy one table per node count, built by the first;
        stt_snn still builds its own, one device call per node."""
        calls = []
        transfer = NeuronDevice.transfer
        monkeypatch.setattr(NeuronDevice, "transfer",
                            lambda dev, i: calls.append(i) or transfer(dev, i))
        monkeypatch.setattr(trainer, "_LOADED_KINDS", {})
        load_weights(STORED_RECOGNIZER)
        load_weights(STORED_RECOGNIZER)
        assert len(calls) <= trainer.STT_TABLE_NODES
        for n_nodes in (64, trainer.STT_TABLE_NODES):
            calls.clear()
            assert len(TransferKind.stt_snn(n_nodes).a_nodes) == n_nodes
            assert len(calls) == n_nodes


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


def segment_search_derivative(z, kind):
    """The stt_snn derivative found by searching the node table for each
    net input's segment: the oracle of the derivative table."""
    i = np.asarray(z, dtype=float) * kind.drive_current
    slopes = np.diff(kind.a_nodes) / np.diff(kind.i_nodes)
    segment = np.clip(np.searchsorted(kind.i_nodes, i, side="right") - 1,
                      0, len(kind.i_nodes) - 2)
    inside = (i > kind.th1) & (i < kind.th2)
    return np.where(inside, slopes[segment] * kind.drive_current, 0.0)


def landing_on(current, drive):
    """A net input z with z * drive == current exactly, searched among
    the doubles next to current / drive."""
    z = current / drive
    near = [z]
    for way in (np.inf, -np.inf):
        step = z
        for _ in range(4):
            step = np.nextafter(step, way)
            near.append(step)
    hits = [c for c in near if c * drive == current]
    assert hits, "no net input lands on the current"
    return hits[0]


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

    @pytest.mark.parametrize("table", ["1024", "64", "3"])
    def test_stt_derivative_equals_segment_search(self, table):
        """The derivative table reads, bit for bit, what a search of the
        node table gives: random net inputs, every node with its
        neighbouring doubles, both thresholds exactly and signed zeros."""
        kind = TransferKind.stt_snn(int(table))
        drive = kind.drive_current
        nodes = kind.i_nodes / drive
        z = np.concatenate([
            np.random.default_rng(7).uniform(-0.5, 1.5, 4000),
            nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
            [landing_on(kind.th1, drive), landing_on(kind.th2, drive),
             0.0, -0.0]])
        got = activation_derivative(z, kind)
        assert got.tobytes() == segment_search_derivative(z, kind).tobytes()
        assert 0 < np.count_nonzero(got) < len(z)

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


CLEAR = [[1.0, 0.2, 0.0], [0.1, 0.9, 0.3], [0.0, 0.4, 0.8]]
MISSED = [[0.3, 1.0, 0.0], [0.0, 0.8, 0.2], [0.1, 0.2, 0.7]]


# Every matrix spans exactly [0, 1], so `_score`'s min-max normalization
# leaves it unchanged and all three scorers read the same numbers.
@pytest.mark.parametrize("a, want", [
    pytest.param(CLEAR, [0.8, 0.6, 0.4], id="clear-winner"),
    pytest.param([[1.0, 1.0, 0.0], [0.0, 1.0, 0.5], [0.2, 0.0, 0.9]],
                 [0.0, 0.5, 0.7], id="tie-at-top"),
    pytest.param(MISSED, [-0.7, 0.6, 0.5], id="misclassified"),
    pytest.param([CLEAR, MISSED], [[0.8, 0.6, 0.4], [-0.7, 0.6, 0.5]],
                 id="stacked"),
])
def test_own_margins_is_the_one_decision_rule(a, want):
    a = np.array(a)
    labels = np.arange(3)
    margins = own_margins(a, labels)
    np.testing.assert_allclose(margins, want, rtol=0.0, atol=1e-12)
    matrix, scored = _score(a, 3)
    np.testing.assert_array_equal(matrix, a)
    np.testing.assert_array_equal(scored, margins)
    # A tie at the top is a margin of 0, which counts as wrong.
    assert _accuracy(a, labels) == np.mean(np.array(want) > 0.0)
    assert _margin(a, labels) == margins.min()


class TestStackedEpoch:
    """The noise-aware epoch runs its jittered, clean and ensemble copies
    as one stacked forward pass; it must score exactly as one 2-D pass
    per copy."""

    @pytest.fixture(scope="class")
    def copies(self, corpus):
        """Stored recognizer weights jittered at relative widths 0..30%,
        so some copies decide every letter and some do not."""
        stored = load_weights(STORED_RECOGNIZER)
        rng = np.random.default_rng(5)
        sigma = np.linspace(0.0, 0.3, NOISE_ENSEMBLE)[:, None, None]
        w1 = stored.w1 * (1.0 + sigma * rng.standard_normal(
            (NOISE_ENSEMBLE, *stored.w1.shape)))
        w2 = stored.w2 * (1.0 + sigma * rng.standard_normal(
            (NOISE_ENSEMBLE, *stored.w2.shape)))
        return _augment(corpus.features), w1, w2, stored.kind

    def test_slices_equal_the_2d_pass(self, copies):
        x, w1, w2, kind = copies
        stacked = _forward(x, w1, w2, kind)
        for k in range(NOISE_ENSEMBLE):
            for got, want in zip(stacked, _forward(x, w1[k], w2[k], kind)):
                assert np.array_equal(got[k], want)

    def test_ensemble_key_equals_per_copy_loop(self, copies, corpus):
        x, w1, w2, kind = copies
        labels = corpus.labels
        perfect, margin_sum = 0, 0.0
        for k in range(NOISE_ENSEMBLE):
            _, _, z2, a2 = _forward(x, w1[k], w2[k], kind)
            perfect += _accuracy(a2, labels) == 1.0
            margin_sum += _margin(z2, labels)
        assert 0 < perfect < NOISE_ENSEMBLE
        z2 = _net_inputs(x, w1, w2, kind)[2]
        assert _ensemble_key(*_decisions(z2, labels, kind)) == (
            perfect / NOISE_ENSEMBLE, margin_sum / NOISE_ENSEMBLE)

    @pytest.mark.parametrize("tag", ["stt_snn", "step", "sat_linear"])
    def test_decisions_equal_full_activations(self, copies, corpus, tag):
        """For every kind a noisy fit accepts, scoring the own and the
        top other net input alone decides each row as the full output
        activations do. Rounding the net inputs makes exact ties, and
        step and sat_linear pin many outputs to one rail; the shift by
        -0.8 brings step's and sat_linear's thresholds into play."""
        x, w1, w2, kind = copies
        kind = kind if tag == "stt_snn" else TransferKind(tag)
        z2 = _net_inputs(x, w1, w2, copies[3])[2]
        seen = set()
        for z in (z2, np.round(z2, 1), z2 - 0.8, np.round(z2 - 0.8, 1)):
            hits, margins = _decisions(z, corpus.labels, kind)
            want = own_margins(activation(z, kind), corpus.labels) > 0.0
            assert np.array_equal(hits, want)
            assert np.array_equal(margins, own_margins(z, corpus.labels))
            seen.update(want.ravel().tolist())
        assert seen == {False, True}

    def test_sigmoid_decisions_can_differ(self):
        """The computed sigmoid falls between some adjacent doubles near
        z = -1, so the top net input need not carry the top activation:
        why a noisy fit refuses the sigmoid."""
        k = TransferKind.sigmoid()
        z = (np.float64(-1.0).view(np.int64)
             + np.arange(-500, 500)).view(np.float64)
        z.sort()
        fall = np.flatnonzero(np.diff(activation(z, k)) < 0.0)[0]
        lo, hi = z[fall], z[fall + 1]
        # Row [lo, hi, lo], labelled 0: the full rule ties at the top
        # activation, a wrong answer; the top net input hi scores lower.
        row = np.array([[[lo, hi, lo]]])
        hits, _ = _decisions(row, np.array([0]), k)
        assert hits.all()
        assert not (own_margins(activation(row, k), np.array([0])) > 0.0).all()

    def test_accuracy_of_a_stack_is_the_mean_hit_rate(self, copies, corpus):
        x, w1, w2, kind = copies
        a2 = _forward(x, w1, w2, kind)[3]
        want = float(np.mean(own_margins(a2, corpus.labels) > 0.0))
        got = _accuracy(a2, corpus.labels)
        assert type(got) is float and got == want
        assert 0.0 < got < 1.0

    @pytest.mark.parametrize("levels", [None, 32])
    def test_one_stacked_pass_per_noisy_epoch(self, corpus, monkeypatch,
                                              levels):
        """Each noisy epoch makes two forward calls, the stacked pass and
        the adaptive-rate probe; the last epoch stops before its probe."""
        base, harden, _ = recognizer_configs(seed=17)
        start = train(corpus.dataset, HIDDEN_NEURONS, TransferKind.stt_snn(),
                      dataclasses.replace(base, epochs=10))
        calls = []

        def counted(*args):
            calls.append(args[1].ndim)
            return _net_inputs(*args)

        monkeypatch.setattr(trainer, "_net_inputs", counted)
        res = finalize(start, corpus.dataset, levels=levels,
                       cfg=dataclasses.replace(harden, epochs=20))
        assert res.epochs_run == 20
        assert calls == [3, 2] * 20 + [3]

    @pytest.mark.parametrize("levels", [None, 32])
    def test_noisy_epoch_interpolates_copy_0_and_own_top_pairs(
            self, corpus, monkeypatch, levels):
        """A noisy epoch interpolates every copy's hidden layer, copy 0's
        output layer and, for copies 1.., only each row's own and top
        other output net input: never a stacked output layer."""
        base, harden, _ = recognizer_configs(seed=17)
        start = train(corpus.dataset, HIDDEN_NEURONS, TransferKind.stt_snn(),
                      dataclasses.replace(base, epochs=10))
        shapes = []

        def recorded(z, kind):
            shapes.append(np.shape(z))
            return activation(z, kind)

        monkeypatch.setattr(trainer, "activation", recorded)
        res = finalize(start, corpus.dataset, levels=levels,
                       cfg=dataclasses.replace(harden, epochs=20))
        assert res.epochs_run == 20
        n, copies = len(corpus.labels), 2 + NOISE_ENSEMBLE
        stacked = [(copies, n, HIDDEN_NEURONS), (n, n), (2, copies - 1, n)]
        probe = [(n, HIDDEN_NEURONS), (n, n)]
        assert shapes == (stacked + probe) * 20 + stacked
        assert (NOISE_ENSEMBLE, n, n) not in shapes


class TestMonotoneGuard:
    """Noisy epochs score copies from net inputs, exact only for a
    nondecreasing computed activation, so a noisy fit refuses any other."""

    # A 9-node table whose first segment, at the double just below node
    # 1, interpolates above a_nodes[1]. No device table does (see
    # test_device_tables_pass), so it is planted in an instance's cache.
    I_NODES = [0.09082725693404242, 0.6638109170016626, 0.9773131941063831,
               1.311458150694456, 1.6434506109369693, 3.014967776643726,
               3.5794498836354625, 4.867943794125636, 7.9849585432428185]
    A_NODES = [0.0, 0.09164328648646225, 0.1449095396892509,
               0.3647699914127458, 0.3985132588344562, 0.43044135442174347,
               0.4500780675327587, 0.5059661053855282, 1.0]

    @pytest.fixture(scope="class")
    def overshooting(self):
        kind = TransferKind.stt_snn(3)
        vars(kind).update(i_nodes=np.array(self.I_NODES),
                          a_nodes=np.array(self.A_NODES))
        return kind

    def test_overshooting_table_refused_in_noisy_fit(self, overshooting,
                                                     separable):
        i_nodes, a_nodes = overshooting.i_nodes, overshooting.a_nodes
        assert np.interp(np.nextafter(i_nodes[1], -np.inf), i_nodes,
                         a_nodes) > a_nodes[1]
        with pytest.raises(ConfigError):
            train(separable, 2, overshooting, TrainConfig(train_sigma=0.05))
        clean = train(separable, 2, overshooting, TrainConfig(epochs=20))
        with pytest.raises(ConfigError):
            finalize(clean, separable, levels=None,
                     cfg=TrainConfig(train_sigma=0.05))

    @pytest.mark.parametrize("n_nodes", [3, 64, trainer.STT_TABLE_NODES])
    def test_device_tables_pass(self, separable, n_nodes):
        """Every table in use is monotone as computed, so the guard lets a
        noisy fit through."""
        train(separable, 2, TransferKind.stt_snn(n_nodes),
              TrainConfig(epochs=2, train_sigma=0.05))

    def test_noisy_sigmoid_refused(self, separable):
        with pytest.raises(ConfigError):
            train(separable, 2, TransferKind.sigmoid(),
                  TrainConfig(epochs=20, train_sigma=0.05))

    @pytest.mark.parametrize("tag", ["step", "sat_linear", "stt_snn"])
    def test_noisy_monotone_kinds_train(self, separable, stt_kind, tag):
        kind = stt_kind if tag == "stt_snn" else TransferKind(tag)
        res = train(separable, 2, kind, TrainConfig(
            epochs=200, seed=1, train_sigma=0.05, polish_epochs=5))
        assert res.converged and res.accuracy == 1.0


class TestCleanEpoch:
    """Clean epochs (train_sigma == 0) outside the seed-17 schedule: a
    grid-aware finalize, whose snapped weights are copies of the shadow
    weights, and a polish run with margin_target == 0, which ranks its
    snapshots by _margin."""

    # SHA-256 of (w1, w2), epochs_run and accuracy of each short run.
    GOLDEN = {
        "grid": (
            "900f13cb56d0030ae7346bf147bb5f3495acb09cac07b1f4072476ec65cdf42e",
            "ceab6ebd73bbce1d4a37af8ea5fd98103f0e43f45d00e1a8d4ed71d638946a62",
            20, 15 / 26),
        # Converges at epoch 37; the polish moves the snapshot.
        "polish": (
            "c78bedd33399cb90b89d6677611a5e8c31a63b704492690ab9c139d10b91740c",
            "01ac408c96347f177bb172eb10a4200fa6368039e32336fdd04ec1678364ef69",
            67, 1.0),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_short_run_pinned(self, name, corpus, separable, stt_kind):
        if name == "grid":
            base = recognizer_configs(seed=17)[0]
            start = train(corpus.dataset, HIDDEN_NEURONS, stt_kind,
                          dataclasses.replace(base, epochs=60))
            res = finalize(start, corpus.dataset, levels=32,
                           cfg=dataclasses.replace(base, epochs=20))
        else:
            res = train(separable, 2, stt_kind, TrainConfig(
                learning_rate=1.0, epochs=2000, seed=0, polish_epochs=30))
        digests = tuple(hashlib.sha256(np.ascontiguousarray(
            w, dtype="<f8").tobytes()).hexdigest() for w in (res.w1, res.w2))
        assert (*digests, res.epochs_run, res.accuracy) == self.GOLDEN[name]

    @pytest.mark.parametrize("levels", [None, 32])
    def test_accepted_step_carries_its_probe(self, corpus, monkeypatch,
                                             levels):
        """After an accepted step a clean epoch's only forward pass is its
        own probe, with one snap per layer on the grid; after a rejected
        step it first reruns, and resnaps, its weights. The shadow w2
        that the epoch revives is the previous probe's candidate exactly
        when that step was accepted."""
        cfg = dataclasses.replace(recognizer_configs(seed=17)[0], epochs=20)
        kind = TransferKind.stt_snn()
        start = train(corpus.dataset, HIDDEN_NEURONS, kind, cfg)
        log = []

        def logged(tag, fn, arg):
            def wrapper(*args):
                log.append((tag, args[arg]))
                return fn(*args)
            return wrapper

        monkeypatch.setattr(trainer, "_forward", logged("pass", _forward, 2))
        monkeypatch.setattr(trainer, "_snap_weights",
                            logged("snap", trainer._snap_weights, 0))
        monkeypatch.setattr(trainer, "_revive_dead_rows",
                            logged("revive", _revive_dead_rows, 0))
        if levels is None:
            res = train(corpus.dataset, HIDDEN_NEURONS, kind, cfg)
        else:
            res = finalize(start, corpus.dataset, levels=levels, cfg=cfg)
        assert res.epochs_run == 20

        # Split the log at each epoch's revival of w2; the events before
        # it are the previous epoch's probe and then this epoch's own pass.
        shape2 = start.w2.shape
        epochs, events = [], []
        for tag, w in log:
            if tag != "revive":
                events.append((tag, w))
            elif w.shape == shape2:
                epochs.append((w, events))
                events = []
        snaps_per_pass = 0 if levels is None else 2
        accepted = 0
        for w2, events in epochs[1:]:
            candidate = next(w for _, w in events if w.shape == shape2)
            passes = 1 if w2 is candidate else 2
            accepted += passes == 1
            assert [tag for tag, _ in events].count("pass") == passes
            assert [tag for tag, _ in events].count("snap") == \
                snaps_per_pass * passes
        assert len(epochs) == 20
        assert 0 < accepted < 19


class TestReviveDeadRows:
    WINDOW = (0.0, 1.0)

    def test_live_neurons_untouched(self):
        w = np.arange(12.0).reshape(4, 3)
        z = np.array([[0.5, -1.0, 2.0], [-1.0, 0.5, 0.5]])
        _revive_dead_rows(w, z, self.WINDOW)
        assert np.array_equal(w, np.arange(12.0).reshape(4, 3))

    def test_dead_neurons_pulled_back(self):
        """Column 0 is dead low, column 1 live and column 2 dead high."""
        before = np.arange(12.0).reshape(4, 3) / 7.0
        w = before.copy()
        z = np.array([[0.0, 0.5, 1.0], [-2.0, 3.0, 4.0]])
        _revive_dead_rows(w, z, self.WINDOW)
        assert np.array_equal(w[:, 1], before[:, 1])
        for col, step in ((0, REVIVE_RATE), (2, -REVIVE_RATE)):
            assert np.array_equal(w[:-1, col],
                                  before[:-1, col] * (1.0 - REVIVE_RATE))
            assert w[-1, col] == before[-1, col] + step


class TestTrain:
    def test_separable_toy_with_one_hidden_sigmoid(self, separable):
        cfg = TrainConfig(learning_rate=1.0, epochs=2000, seed=1)
        res = train(separable, 1, TransferKind.sigmoid(), cfg)
        assert res.converged
        assert res.accuracy == 1.0
        assert np.all(own_margins(output_activations(res, separable.features),
                                  separable.labels) > 0.0)

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
        with pytest.raises(ConfigError, match="seed"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("labels, n_classes", [
        ([0.5, 1.7], 2), ([0, 0], True), ([0, 1], 2.5),
        ([0, 1], np.float64(2.0)), ([True, False], 2)],
        ids=["fractional-labels", "bool-classes", "fractional-classes",
             "float-classes", "bool-labels"])
    def test_dataset_refuses_non_integers(self, labels, n_classes):
        with pytest.raises(DomainError):
            Dataset([[0.0], [1.0]], labels, n_classes)

    @pytest.mark.parametrize("n_hidden", [2.5, 2.0, True])
    def test_train_refuses_non_integer_width(self, separable, n_hidden):
        with pytest.raises(DomainError):
            train(separable, n_hidden, TransferKind.sigmoid(),
                  TrainConfig(epochs=5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(DomainError):
            Dataset([[bad], [1.0]], [0, 1], n_classes=2)

    @pytest.mark.parametrize("setting", [
        f.name for f in dataclasses.fields(TrainConfig)
        if isinstance(f.default, float)])
    def test_float_settings_are_finite_real_numbers(self, setting):
        """A bool, a string, None or a non-finite numpy value is refused by
        name; an int or a numpy number equal to the default is taken."""
        for bad in (True, False, np.True_, "0.5", None, np.float32("nan"),
                    np.float64("inf")):
            with pytest.raises(ConfigError, match=setting):
                TrainConfig(**{setting: bad})
        default = getattr(TrainConfig(), setting)
        good = [np.float64(default), np.float32(default)]
        if default.is_integer():
            good += [int(default), np.int64(default)]
        for value in good:
            assert getattr(TrainConfig(**{setting: value}), setting) \
                == default

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
        arr = map_weights(w)
        decoded = (arr.g[0] - arr.g[1]) / arr.scale
        np.testing.assert_allclose(q, decoded, rtol=1e-12, atol=1e-18)

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError):
            quantize_weights(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            quantize_weights([[bad, 1.0]])

    @pytest.mark.parametrize("levels", [
        2, 16, 64, pytest.param(32.0, id="float-32"),
        pytest.param(np.float64(32), id="numpy-float-32"),
        pytest.param(True, id="bool")])
    def test_only_the_crossbar_grid(self, separable, stt_kind, levels):
        """build_network snaps onto the 32-level grid, so weights put on
        any other grid would not be the weights the crossbar holds. The
        count is an integer, as it seeds the fit."""
        with pytest.raises(ConfigError, match="levels"):
            quantize_weights(np.eye(3), levels)
        res = train(separable, 2, stt_kind,
                    TrainConfig(learning_rate=1.0, epochs=5, seed=0))
        with pytest.raises(ConfigError, match="levels"):
            finalize(res, separable, levels=levels)

    def test_integer_levels_accepted(self, separable, stt_kind):
        cfg = TrainConfig(learning_rate=1.0, epochs=5, seed=0)
        res = train(separable, 2, stt_kind, cfg)
        a, b = (finalize(res, separable, levels=n, cfg=cfg)
                for n in (32, np.int64(32)))
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
        assert quantize_weights(np.eye(3), np.int64(32))[1].levels == 32


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

    @pytest.mark.parametrize("counts", [
        {"max_hidden": 1.5}, {"max_hidden": 0}, {"restarts": 1.5},
        {"restarts": True}],
        ids=["fractional-max", "zero-max", "fractional-restarts",
             "bool-restarts"])
    def test_bad_counts_rejected(self, separable, counts):
        with pytest.raises(ConfigError):
            min_hidden_search(separable, TransferKind.sigmoid(),
                              TrainConfig(epochs=5), **counts)

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

    def test_history_round_trip(self, tmp_path, separable, stt_kind):
        res = train(separable, 2, stt_kind,
                    TrainConfig(learning_rate=1.0, epochs=50, seed=0))
        path = tmp_path / "weights.json"
        save_weights(path, res)
        assert len(res.history) == res.epochs_run + 1
        np.testing.assert_array_equal(load_weights(path).history,
                                      res.history)

    def test_file_without_history_loads_empty(self):
        assert load_weights(STORED_RECOGNIZER).history.shape == (0, 3)

    def test_malformed_table_in_file_rejected(self, tmp_path, separable,
                                              stt_kind):
        res = train(separable, 2, stt_kind,
                    TrainConfig(learning_rate=1.0, epochs=5, seed=0))
        path = tmp_path / "weights.json"
        save_weights(path, res)
        doc = json.loads(path.read_text())
        doc["transfer"]["i_nodes_a"].reverse()
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            load_weights(path)

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

    def test_bool_setting_rejected(self, tmp_path):
        """A stored `"learning_rate": true` would train at rate 1.0."""
        with pytest.raises(ConfigError, match="learning_rate"):
            load_weights(self._stored_copy(
                tmp_path,
                lambda doc: doc["config"].update(learning_rate=True)))

    def _stored_copy(self, tmp_path, edit):
        doc = json.loads(STORED_RECOGNIZER.read_text())
        edit(doc)
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("path", [
        "config", "layers", "transfer", "accuracy", "converged",
        "epochs_run", "transfer.tag", "transfer.th1_a", "transfer.a_nodes",
        "layers.0.n_inputs", "layers.1.weights"])
    def test_missing_key_rejected(self, tmp_path, path):
        *parents, key = path.split(".")

        def drop(doc):
            for step in parents:
                doc = doc[int(step) if step.isdigit() else step]
            del doc[key]
        with pytest.raises(ConfigError, match=key):
            load_weights(self._stored_copy(tmp_path, drop))

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["layers"][1].update(
            weights=doc["layers"][1]["weights"][:4], n_inputs=3),
        lambda doc: doc["layers"][1].update(
            weights=doc["layers"][1]["weights"][:4]),
        lambda doc: doc["layers"][0].update(
            weights=[row[:4] for row in doc["layers"][0]["weights"]]),
        lambda doc: doc["layers"].pop(),
        lambda doc: doc["layers"].append(doc["layers"][1]),
    ], ids=["second_reads_3_inputs", "second_cut_to_4_rows",
            "first_cut_to_4_cols", "one_layer", "three_layers"])
    def test_unchained_layers_rejected(self, tmp_path, edit):
        with pytest.raises(ConfigError, match="layer"):
            load_weights(self._stored_copy(tmp_path, edit))

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["layers"][0]["weights"][3].pop(),
        lambda doc: doc["layers"][1]["weights"][0].__setitem__(2, "x"),
    ], ids=["ragged", "not_a_number"])
    def test_malformed_weights_rejected(self, tmp_path, edit):
        with pytest.raises(ConfigError, match="weights"):
            load_weights(self._stored_copy(tmp_path, edit))

    @pytest.mark.parametrize("edit", [
        lambda doc: {**doc, "history": [[0, 1, 2], [1, 2]]},
        lambda doc: {**doc, "history": [1, 2, 3, 4]},
        lambda doc: {**doc, "history": [["epoch", "loss", "accuracy"]]},
        lambda doc: [doc],
        lambda doc: {**doc, "transfer": "stt_snn"},
        lambda doc: {**doc, "layers": "l1"},
        lambda doc: {**doc, "config": [doc["config"]]},
        lambda doc: {**doc, "layers": [doc["layers"][0], 7]},
        lambda doc: {**doc, "transfer": {**doc["transfer"], "th1_a": "24e-6"}},
        lambda doc: {**doc, "transfer": {
            **doc["transfer"],
            "i_nodes_a": [str(i) for i in doc["transfer"]["i_nodes_a"]]}},
    ], ids=["history_ragged", "history_not_triples", "history_strings",
            "top_level_list", "transfer_string", "layers_string",
            "config_list", "layer_int", "th1_string", "i_nodes_strings"])
    def test_malformed_file_rejected(self, tmp_path, edit):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(edit(json.loads(
            STORED_RECOGNIZER.read_text()))))
        with pytest.raises(ConfigError):
            load_weights(path)

    @pytest.mark.parametrize("value", [1.5, -0.25, float("nan"), "1.0",
                                       True, None])
    def test_bad_accuracy_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError, match="accuracy"):
            load_weights(self._stored_copy(
                tmp_path, lambda doc: doc.update(accuracy=value)))

    @pytest.mark.parametrize("value", [-1, 2.5, 4000.0, "4000", True, None])
    def test_bad_epochs_run_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError, match="epochs_run"):
            load_weights(self._stored_copy(
                tmp_path, lambda doc: doc.update(epochs_run=value)))

    def test_zero_epochs_run_accepted(self, tmp_path):
        """A run stopped before its first epoch still loads."""
        back = load_weights(self._stored_copy(
            tmp_path, lambda doc: doc.update(epochs_run=0)))
        assert back.epochs_run == 0

    @pytest.mark.parametrize("value", [1, 0, "true", None])
    def test_non_bool_converged_rejected(self, tmp_path, value):
        with pytest.raises(ConfigError, match="converged"):
            load_weights(self._stored_copy(
                tmp_path, lambda doc: doc.update(converged=value)))

    @pytest.mark.parametrize("key, value", [
        ("epochs", 2.5), ("seed", True), ("kick_patience", 1.0),
        ("polish_epochs", False), ("epochs", "4000"), ("seed", None),
        ("seed", -1)])
    def test_non_integer_count_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key):
            load_weights(self._stored_copy(
                tmp_path, lambda doc: doc["config"].update({key: value})))

    @pytest.mark.parametrize("layer", [0, 1])
    @pytest.mark.parametrize("value", [None, float("nan"), float("-inf")])
    def test_non_finite_weight_rejected(self, tmp_path, layer, value):
        with pytest.raises(ConfigError, match="finite"):
            load_weights(self._stored_copy(
                tmp_path,
                lambda doc: doc["layers"][layer]["weights"][1].__setitem__(
                    0, value)))

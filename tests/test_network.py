"""Network assembly, clocked phases, energy ledger, and readout tests."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from spinann.benchmark import monte_carlo
from spinann.errors import ConfigError, DomainError, TieError
from spinann.network import (
    EnergyReport,
    PhaseSchedule,
    build_network,
    load_network,
    neuron_count_energy,
    readout,
    save_network,
)
from spinann.trainer import (
    TrainConfig,
    TrainResult,
    TransferKind,
    load_weights,
    output_activations,
)

STORED_RECOGNIZER = (Path(__file__).resolve().parents[1]
                     / "perfbench" / "data" / "recognizer_seed17.json")

# Per-neuron phase energies at the nominal operating point, joules:
# program (40 uA)^2 * 300 ohm * 1 ns, sense 100 mV * 25 uA * 1 ns,
# reset (50 uA)^2 * 300 ohm * 1 ns.
E_PROGRAM = 0.48e-15
E_SENSE = 2.5e-15
E_RESET = 0.75e-15


def _toy_result(w1, w2, kind=None):
    return TrainResult(
        w1=np.asarray(w1, dtype=float), w2=np.asarray(w2, dtype=float),
        kind=kind or TransferKind.stt_snn(), config=TrainConfig(),
        accuracy=0.0, converged=False, epochs_run=0, history=None,
    )


@pytest.fixture(scope="module")
def network(recognizer):
    return build_network(recognizer)


def test_negative_duration_rejected():
    with pytest.raises(ConfigError):
        PhaseSchedule(t_program=-1e-9)


@pytest.mark.parametrize("phase", ["t_program", "t_sense", "t_reset"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_duration_rejected(phase, bad):
    with pytest.raises(ConfigError):
        PhaseSchedule(**{phase: bad})


class TestForward:
    def test_matches_float_training_arithmetic(self, recognizer, corpus):
        """Unquantized hardware chain reproduces the trainer's outputs
        mapped onto the neuron voltage swing."""
        net = build_network(recognizer, quantize=False)
        a2 = output_activations(recognizer, corpus.features)
        want = net.kind.v_min + (net.kind.v_max - net.kind.v_min) * a2
        got = np.stack([net.forward(f)[0] for f in corpus.features])
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_deterministic(self, network, corpus):
        v1, e1 = network.forward(corpus.features[12])
        v2, e2 = network.forward(corpus.features[12])
        np.testing.assert_array_equal(v1, v2)
        assert e1.to_dict() == e2.to_dict()

    def test_output_voltages_within_swing(self, network, corpus):
        for f in corpus.features:
            v, _ = network.forward(f)
            assert v.shape == (26,)
            assert (v >= network.kind.v_min - 1e-12).all()
            assert (v <= network.kind.v_max + 1e-12).all()

    def test_inhibited_network_rests_at_low_rail(self):
        """All-negative weights with zero bias keep every column below
        threshold, so every neuron reads the bottom of the swing."""
        w1 = np.full((3, 2), -0.5)
        w1[-1] = 0.0
        w2 = np.full((3, 2), -0.5)
        w2[-1] = 0.0
        net = build_network(_toy_result(w1, w2), quantize=False)
        v, _ = net.forward([0.0, 0.0])
        np.testing.assert_allclose(v, net.kind.v_min, rtol=1e-12)

    def test_feature_validation(self, network, corpus):
        with pytest.raises(DomainError):
            network.forward(np.zeros(63))
        with pytest.raises(DomainError):
            network.forward(np.full(64, 1.5))
        with pytest.raises(DomainError):
            network.forward(np.full(64, np.nan))
        with pytest.raises(DomainError):
            network.forward(np.zeros((26, 63)))
        with pytest.raises(DomainError):
            network.forward(np.zeros((0, 64)))
        for bad in (1.5, np.nan):
            batch = corpus.features.copy()
            batch[7, 3] = bad
            with pytest.raises(DomainError):
                network.forward(batch)

    def test_batch_matches_per_letter_calls(self, network, corpus):
        """A batch reads each row exactly as a call on that row alone and
        charges the sum of the per-letter ledgers."""
        v, e = network.forward(corpus.features)
        singles = [network.forward(f) for f in corpus.features]
        np.testing.assert_array_equal(v, np.stack([s[0] for s in singles]))
        for name, total in e.to_dict().items():
            want = sum(s[1].to_dict()[name] for s in singles)
            assert total == pytest.approx(want, rel=1e-12)

    def test_dimension_properties(self, network):
        assert network.n_features == 64
        assert network.n_outputs == 26
        assert network.n_neurons == 31

    def test_rows_are_conductance_equalized(self, network):
        for layer in network.layers:
            rows = np.concatenate([layer.array.g_tr_plus,
                                   layer.array.g_tr_minus])
            assert rows.max() - rows.min() <= 1e-6 * rows.max()


def _sha256(a):
    return hashlib.sha256(
        np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


class TestGolden:
    """Pins the analog chain of the stored seed-17 recognizer: voltages,
    energy ledger and Monte-Carlo margins, exactly."""

    @pytest.fixture(scope="class")
    def stored_network(self):
        return build_network(load_weights(STORED_RECOGNIZER))

    def test_voltages_and_ledger(self, stored_network, corpus):
        v, e = stored_network.forward(corpus.features)
        assert _sha256(v) == ("31514949e847e2e2dc9c1d20d8575dd7"
                              "b9c1de360192549bc025b88240582778")
        assert e.neuron_program == 3.3068957452001253e-13
        assert e.neuron_sense == 2.015e-12
        assert e.neuron_reset == 6.045000000000001e-13
        assert e.crossbar_static == 4.974664942578433e-12
        assert e.dtcs_static == 7.623192942311578e-12

    def test_monte_carlo_margins(self, stored_network, corpus):
        mc = monte_carlo(stored_network, corpus, 20, sigma=0.05, seed=2)
        assert _sha256(mc.min_margins) == (
            "9894e83233bd9b424e674239502b9466"
            "135d68ebabb13e46f2e026dec85361ac")


class TestBuildValidation:
    def test_requires_spin_transfer(self):
        toy = _toy_result(np.ones((3, 2)), np.ones((3, 2)),
                          kind=TransferKind.sigmoid())
        with pytest.raises(ConfigError):
            build_network(toy)


class TestEnergy:
    def test_report_total_is_sum_of_parts(self):
        rep = EnergyReport(neuron_program=1.0, neuron_sense=2.0,
                           neuron_reset=3.0, crossbar_static=4.0,
                           dtcs_static=5.0)
        assert rep.total == 15.0
        assert rep.neuron_subtotal == 6.0

    def test_inference_energy_positive_and_additive(self, network, corpus):
        _, e = network.forward(corpus.features[0])
        parts = e.to_dict()
        total = parts.pop("total")
        assert all(v > 0.0 for v in parts.values())
        assert total == pytest.approx(sum(parts.values()), rel=1e-12)

    def test_program_phase_energy_scales_with_duration(
            self, recognizer, corpus):
        short = build_network(recognizer,
                              schedule=PhaseSchedule(t_program=1e-9))
        long = build_network(recognizer,
                             schedule=PhaseSchedule(t_program=2e-9))
        _, e1 = short.forward(corpus.features[0])
        _, e2 = long.forward(corpus.features[0])
        assert e2.neuron_program == pytest.approx(2 * e1.neuron_program)
        assert e2.crossbar_static == pytest.approx(2 * e1.crossbar_static)
        assert e2.dtcs_static == pytest.approx(2 * e1.dtcs_static)
        assert e2.neuron_sense == pytest.approx(e1.neuron_sense)

    def test_zero_duration_schedule_spends_nothing(self, recognizer, corpus):
        net = build_network(recognizer,
                            schedule=PhaseSchedule(0.0, 0.0, 0.0))
        _, e = net.forward(corpus.features[0])
        assert e.total == 0.0

    def test_neuron_count_energy_at_operating_point(self, network):
        rep = neuron_count_energy(network)
        n = network.n_neurons
        assert rep.neuron_program == pytest.approx(n * E_PROGRAM, rel=1e-9)
        assert rep.neuron_sense == pytest.approx(n * E_SENSE, rel=1e-9)
        assert rep.neuron_reset == pytest.approx(n * E_RESET, rel=1e-9)
        assert rep.total == pytest.approx(115.63e-15, rel=1e-9)
        assert rep.crossbar_static == 0.0


class TestVariation:
    def test_same_seed_same_clone(self, network, corpus):
        a, _ = network.with_variation(0.05, seed=3).forward(corpus.features[0])
        b, _ = network.with_variation(0.05, seed=3).forward(corpus.features[0])
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_clone(self, network):
        a = network.with_variation(0.05, seed=3)
        b = network.with_variation(0.05, seed=4)
        assert not np.array_equal(a.layers[0].array.g_plus,
                                  b.layers[0].array.g_plus)

    def test_zero_sigma_is_identity(self, network):
        clone = network.with_variation(0.0, seed=7)
        for orig, new in zip(network.layers, clone.layers):
            np.testing.assert_array_equal(orig.array.g_plus, new.array.g_plus)
            np.testing.assert_array_equal(orig.array.dummy_minus,
                                          new.array.dummy_minus)

    def test_variation_never_accumulates(self, network):
        """Re-varying a varied clone perturbs the nominal conductances,
        not the already-perturbed ones."""
        once = network.with_variation(0.1, seed=5)
        again = once.with_variation(0.1, seed=5)
        for a, b in zip(once.layers, again.layers):
            np.testing.assert_array_equal(a.array.g_plus, b.array.g_plus)
        restored = once.with_variation(0.0, seed=9)
        for orig, back in zip(network.layers, restored.layers):
            np.testing.assert_array_equal(orig.array.g_plus,
                                          back.array.g_plus)


class TestReadout:
    def test_winner_and_margin(self):
        label, margin = readout([0.052, 0.069, 0.060])
        assert label == 1
        assert margin == pytest.approx(0.009)

    def test_tie_is_an_error(self):
        with pytest.raises(TieError):
            readout([0.06, 0.07, 0.07])

    def test_single_neuron(self):
        assert readout([0.055]) == (0, 0.055)

    def test_bits_mode(self):
        bits = readout([0.052, 0.069, 0.060], mode="bits", v_threshold=0.065)
        np.testing.assert_array_equal(bits, [1, 0, 1])

    def test_bits_mode_needs_threshold(self):
        with pytest.raises(ConfigError):
            readout([0.05, 0.06], mode="bits")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            readout([0.05, 0.06], mode="softmax")

    def test_empty_vector_rejected(self):
        with pytest.raises(DomainError):
            readout([])

    def test_recognizer_readout_agrees_with_labels(self, network, corpus):
        for i, f in enumerate(corpus.features):
            v, _ = network.forward(f)
            label, margin = readout(v)
            assert label == i
            assert margin > 0.0


class TestSerialization:
    def test_round_trip_preserves_behavior(self, network, corpus, tmp_path):
        path = tmp_path / "network.json"
        save_network(path, network)
        loaded = load_network(path)
        for f in corpus.features[:5]:
            v0, e0 = network.forward(f)
            v1, e1 = loaded.forward(f)
            np.testing.assert_array_equal(v0, v1)
            assert e0.to_dict() == e1.to_dict()

    def test_round_trip_preserves_structure(self, network, tmp_path):
        path = tmp_path / "network.json"
        save_network(path, network)
        assert load_network(path).to_dict() == network.to_dict()

    def test_varied_network_round_trips_with_nominal(self, network,
                                                     corpus, tmp_path):
        varied = network.with_variation(0.05, seed=11)
        path = tmp_path / "varied.json"
        save_network(path, varied)
        loaded = load_network(path)
        v0, _ = varied.forward(corpus.features[3])
        v1, _ = loaded.forward(corpus.features[3])
        np.testing.assert_array_equal(v0, v1)
        restored = loaded.with_variation(0.0, seed=0)
        np.testing.assert_array_equal(restored.layers[0].array.g_plus,
                                      network.layers[0].array.g_plus)

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "spin-ann/999"}')
        with pytest.raises(ConfigError):
            load_network(path)

    def test_previous_schema_rejected(self, network, tmp_path):
        """A file of the first schema, which stored its own operating
        point, is refused rather than loaded at the fixed one."""
        payload = network.to_dict()
        payload.update(schema="spin-ann/1", r_program=150.0)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            load_network(path)

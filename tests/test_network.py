"""Network assembly, clocked phases, energy ledger, and the weights-file
round trip."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from spinann.benchmark import evaluate, monte_carlo
from spinann.crossbar import inject_variation
from spinann.errors import ConfigError, DomainError
from spinann.network import (T_PROGRAM, T_RESET, T_SENSE, build_network,
                             neuron_energy)
from spinann.trainer import (
    TrainConfig,
    TrainResult,
    TransferKind,
    _augment,
    _net_inputs,
    _snap_weights,
    activation,
    load_weights,
    output_activations,
    save_weights,
)

STORED_RECOGNIZER = (Path(__file__).resolve().parents[1]
                     / "perfbench" / "data" / "recognizer_seed17.json")


def _toy_result(w1, w2, kind=None):
    return TrainResult(
        w1=np.asarray(w1, dtype=float), w2=np.asarray(w2, dtype=float),
        kind=kind or TransferKind.stt_snn(), config=TrainConfig(),
        accuracy=0.0, converged=False, epochs_run=0, history=None,
    )


TERMS = ("neuron_program", "neuron_sense", "neuron_reset",
         "crossbar_static", "dtcs_static")


@pytest.fixture(scope="module")
def network(recognizer):
    return build_network(recognizer)


@pytest.fixture(scope="module")
def stored_network():
    return build_network(load_weights(STORED_RECOGNIZER))


def test_phase_durations_are_physical():
    """Each of the three phases the ledger charges lasts a finite,
    positive time; the ledger itself does not check them."""
    for duration in (T_PROGRAM, T_SENSE, T_RESET):
        assert 0.0 < duration < np.inf


# How far the analog chain may stray from the trainer's float pass, as
# measured with 2x headroom: over 20000 random weight pairs (uniform in
# [-1, 1], 64-5-26, ideal and snapped), each reading 8 random feature
# rows, the hidden column currents came within 80 ulps of the drive of
# `drive_current * z1`, and the output voltages within 7.97e-15 V of the
# float outputs mapped onto the swing. The stored recognizer reads 1 ulp
# of v_max (1.39e-17 V).
HIDDEN_ULPS = 160
V_BOUND = 1.6e-14


def _swing(kind, a):
    """Activations mapped onto the neuron output voltage swing."""
    return kind.v_min + (kind.v_max - kind.v_min) * a


def _effective_weights(layer):
    """A stacked layer's weights per copy, `[T, rows, cols]`: the nominal
    `g_tr / scale` times the difference of the copy's bar shares."""
    array = layer.array
    share = array.g / array.g_tr[..., None]
    return layer.g_tr / array.scale * (share[:, 0] - share[:, 1])


class TestForward:
    def test_matches_float_training_arithmetic(self, recognizer, corpus):
        """The unquantized hardware chain reproduces the trainer's outputs
        mapped onto the neuron voltage swing, within V_BOUND."""
        net = build_network(recognizer, quantize=False)
        want = _swing(net.kind, output_activations(recognizer,
                                                   corpus.features))
        got = np.stack([net.forward(f)[0] for f in corpus.features])
        np.testing.assert_allclose(got, want, rtol=0.0, atol=V_BOUND)

    @pytest.mark.parametrize("quantize", [False, True],
                             ids=["ideal", "snapped"])
    def test_random_weights_match_float_pass(self, quantize):
        """Seeded random weight pairs, ideal or snapped with
        `_snap_weights` and mapped onto the grid: each hidden column
        current is within HIDDEN_ULPS ulps of the drive of
        `drive_current * z1`, and each output voltage within V_BOUND of
        the float pass."""
        kind = TransferKind.stt_snn()
        for seed in range(100):
            rng = np.random.default_rng([14, seed])
            w1, w2 = (rng.uniform(-1.0, 1.0, shape)
                      for shape in ((65, 5), (6, 26)))
            if quantize:
                w1, w2 = _snap_weights(w1), _snap_weights(w2)
            x = rng.uniform(0.0, 1.0, (8, 64))
            x_aug = _augment(x)
            result = _toy_result(w1, w2, kind)
            net = build_network(result, quantize=quantize)
            layer = net.layers[0]
            z1 = _net_inputs(x_aug, w1, w2, kind)[0]
            np.testing.assert_allclose(
                layer.array.weighted_sum(layer.i_unit * x_aug),
                kind.drive_current * z1, rtol=0.0,
                atol=HIDDEN_ULPS * np.spacing(kind.drive_current))
            np.testing.assert_allclose(
                net.forward(x)[0], _swing(kind, output_activations(result, x)),
                rtol=0.0, atol=V_BOUND)

    @pytest.mark.parametrize("quantize", [False, True],
                             ids=["ideal", "snapped"])
    def test_perturbed_copies_match_float_pass(self, quantize):
        """Each copy of a stacked, perturbed network computes the float
        pass on its effective weights `(g_tr / scale) * (g[0] / g_tr[0] -
        g[1] / g_tr[1])`, `g_tr / scale` the nominal layer's and the bar
        shares the copy's: the hidden column currents within HIDDEN_ULPS
        ulps of the drive of `drive_current * z1` and the output voltages
        within V_BOUND, as for the nominal network."""
        kind = TransferKind.stt_snn()
        for seed in range(10):
            rng = np.random.default_rng([141, seed])
            w1, w2 = (rng.uniform(-1.0, 1.0, shape)
                      for shape in ((65, 5), (6, 26)))
            if quantize:
                w1, w2 = _snap_weights(w1), _snap_weights(w2)
            x_aug = _augment(rng.uniform(0.0, 1.0, (8, 64)))
            net = build_network(_toy_result(w1, w2, kind), quantize=quantize)
            stacked = net.with_streams(0.05, [
                np.random.default_rng([141, seed, idx]) for idx in (0, 1)], 4)
            w1, w2 = map(_effective_weights, stacked.layers)
            z1, _, z2 = _net_inputs(x_aug, w1, w2, kind)
            hidden = stacked.layers[0]
            np.testing.assert_allclose(
                hidden.array.weighted_sum(hidden.i_unit * x_aug),
                kind.drive_current * z1, rtol=0.0,
                atol=HIDDEN_ULPS * np.spacing(kind.drive_current))
            np.testing.assert_allclose(
                stacked.forward(x_aug[:, :-1])[0],
                _swing(kind, activation(z2, kind)), rtol=0.0, atol=V_BOUND)

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
        for bad in (np.inf, -np.inf):
            row = corpus.features[7].copy()
            row[3] = bad
            with pytest.raises(DomainError):
                network.forward(row)
        for bad in (1.5, np.nan, np.inf, -np.inf):
            batch = corpus.features.copy()
            batch[7, 3] = bad
            with pytest.raises(DomainError):
                network.forward(batch)

    @pytest.mark.parametrize("edge, bound, beyond", [
        (-1e-9, 0.0, -np.inf), (1 + 1e-9, 1.0, np.inf)])
    def test_feature_tolerance_edges(self, network, corpus, edge, bound,
                                     beyond):
        """A feature at the rounding tolerance past 0 or 1 reads as that
        bound; one float step further is refused."""
        row, want = corpus.features[7].copy(), corpus.features[7].copy()
        row[3], want[3] = edge, bound
        np.testing.assert_array_equal(network.forward(row)[0],
                                      network.forward(want)[0])
        row[3] = np.nextafter(edge, beyond)
        with pytest.raises(DomainError):
            network.forward(row)

    def test_batch_matches_per_letter_calls(self, network, corpus):
        """A batch reads each row exactly as a call on that row alone and
        charges the sum of the per-letter ledgers."""
        v, e = network.forward(corpus.features)
        singles = [network.forward(f) for f in corpus.features]
        np.testing.assert_array_equal(v, np.stack([s[0] for s in singles]))
        for name, total in e.to_dict().items():
            want = sum(s[1].to_dict()[name] for s in singles)
            assert total == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_dimension_properties(self, network):
        assert network.n_features == 64
        assert network.n_outputs == 26

    def test_rows_are_conductance_equalized(self, network):
        for layer in network.layers:
            rows = layer.array.g_tr
            assert rows.max() - rows.min() <= 1e-6 * rows.max()


def _sha256(a):
    return hashlib.sha256(
        np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


class TestGolden:
    """Pins the analog chain of the stored seed-17 recognizer: voltages,
    energy ledger, one perturbed clone's conductances and Monte-Carlo
    margins, exactly."""

    def test_voltages_and_ledger(self, stored_network, corpus):
        v, e = stored_network.forward(corpus.features)
        assert _sha256(v) == ("31514949e847e2e2dc9c1d20d8575dd7"
                              "b9c1de360192549bc025b88240582778")
        assert e.neuron_program == 3.3068957452001253e-13
        assert e.neuron_sense == 2.015e-12
        assert e.neuron_reset == 6.045000000000001e-13
        assert e.crossbar_static == 4.974664942578433e-12
        assert e.dtcs_static == 7.623192942311578e-12

    @pytest.mark.parametrize("quantize, want", [
        (True, "55059a4663528b3e1c57bf8eea0c404e"
               "cf70a3e90cb2a3193011751b5a0651fe"),
        (False, "bcaa7a75bd68ce87f93436f64ad96396"
                "b8722a890d8d3e62935551af2febe890"),
    ], ids=["quantized", "ideal"])
    def test_nominal_mapping(self, quantize, want):
        """Every layer's nominal conductances, positive rail then negative,
        cells then dummies; the layers pad with 2 and 7 dummy columns."""
        network = build_network(load_weights(STORED_RECOGNIZER),
                                quantize=quantize)
        assert [layer.array.dummy.shape[-1]
                for layer in network.layers] == [2, 7]
        digest = hashlib.sha256()
        for layer in network.layers:
            array = layer.array
            for g in (array.g[0], array.g[1], array.dummy[0], array.dummy[1]):
                digest.update(np.ascontiguousarray(g, dtype="<f8").tobytes())
        assert digest.hexdigest() == want

    def test_single_clone_conductances(self, stored_network):
        clone = stored_network.with_variation(0.05, seed=3)
        digest = hashlib.sha256()
        for layer in clone.layers:
            array = layer.array
            for g in (array.g[0], array.g[1], array.dummy[0], array.dummy[1]):
                digest.update(np.ascontiguousarray(g, dtype="<f8").tobytes())
        assert digest.hexdigest() == ("42cb323585561a070c81cc4ac205009f"
                                      "2c8ff976cbb93d71f3c38b1c1e186a10")

    def test_monte_carlo_margins(self, stored_network, corpus):
        mc = monte_carlo(stored_network, corpus, 20, sigma=0.05, seed=2)
        assert _sha256(mc.min_margins) == (
            "aed47e40e569a74b53ba6af60503ed1e"
            "1fc768d7afa88ab0646f6c73a7328a74")


class TestBuildValidation:
    def test_requires_spin_transfer(self):
        toy = _toy_result(np.ones((3, 2)), np.ones((3, 2)),
                          kind=TransferKind.sigmoid())
        with pytest.raises(ConfigError):
            build_network(toy)


class TestEnergy:
    def test_paper_operating_point(self):
        program, sense, reset = neuron_energy(np.array([40e-6]))
        assert program == pytest.approx(0.48e-15, rel=1e-12, abs=0.0)
        assert sense == pytest.approx(2.5e-15, rel=1e-12, abs=0.0)
        assert reset == pytest.approx(0.75e-15, rel=1e-12, abs=0.0)
        total = program + sense + reset
        assert total == pytest.approx(3.73e-15, rel=1e-12, abs=0.0)
        assert 3.4e-15 <= total <= 4.1e-15

    def test_report_total_is_sum_of_parts(self, network, corpus):
        _, rep = network.forward(corpus.features[0])
        assert rep.total == (rep.neuron_program + rep.neuron_sense
                             + rep.neuron_reset + rep.crossbar_static
                             + rep.dtcs_static)
        assert rep.to_dict() == {
            **{name: getattr(rep, name) for name in TERMS},
            "total": rep.total}

    def test_inference_energy_positive_and_additive(self, network, corpus):
        _, e = network.forward(corpus.features[0])
        parts = e.to_dict()
        total = parts.pop("total")
        assert all(v > 0.0 for v in parts.values())
        assert total == pytest.approx(sum(parts.values()), rel=1e-12,
                                      abs=0.0)

    def test_program_phase_energy_scales_with_duration(
            self, network, corpus, monkeypatch):
        """The program-phase entries are charged for one T_PROGRAM pulse;
        the sense entry does not depend on it."""
        e1 = network.forward(corpus.features[0])[1].to_dict()
        monkeypatch.setattr("spinann.network.T_PROGRAM", 2e-9)
        _, e2 = network.forward(corpus.features[0])
        for name in ("neuron_program", "crossbar_static", "dtcs_static"):
            assert getattr(e2, name) == pytest.approx(2 * e1[name], abs=0.0)
        assert e2.neuron_sense == pytest.approx(e1["neuron_sense"], abs=0.0)

    def test_zero_duration_schedule_spends_nothing(
            self, network, corpus, monkeypatch):
        """Every ledger entry is charged over one of the three phases."""
        for phase in ("T_PROGRAM", "T_SENSE", "T_RESET"):
            monkeypatch.setattr(f"spinann.network.{phase}", 0.0)
        _, e = network.forward(corpus.features[0])
        assert e.total == 0.0


class TestLedgerOnRead:
    """The ledger is charged from the currents a forward call kept, at the
    module constants, only when one of its terms is read."""

    @pytest.fixture
    def charges(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return neuron_energy(*args)

        monkeypatch.setattr("spinann.network.neuron_energy", counted)
        return calls

    def test_evaluate_charges_nothing(self, stored_network, corpus, charges):
        evaluate(stored_network, corpus)
        assert charges == []

    def test_first_read_charges_each_layer_once(
            self, stored_network, corpus, charges):
        _, e = stored_network.forward(corpus.features)
        assert charges == []
        total = e.total
        assert len(charges) == len(stored_network.layers)
        assert e.total == total
        assert e.to_dict()["neuron_program"] == e.neuron_program
        assert len(charges) == len(stored_network.layers)

    def test_charged_at_the_constants_when_read(
            self, stored_network, corpus, monkeypatch):
        """A ledger read while T_PROGRAM is 2 ns charges twice the 1 ns
        program energy, whenever its forward call ran."""
        once = stored_network.forward(corpus.features[0])[1].neuron_program
        _, e = stored_network.forward(corpus.features[0])
        monkeypatch.setattr("spinann.network.T_PROGRAM", 2e-9)
        assert e.neuron_program == pytest.approx(2 * once, rel=1e-12,
                                                 abs=0.0)

    def test_stacked_ledger_reads_as_accumulated(self, stored_network,
                                                  corpus):
        """A 4-copy stack reads the floats the per-layer `+=` ledger
        charged before it was deferred."""
        _, e = stored_network.with_variation(
            0.05, [3, 11, 4, 2**32 - 1]).forward(corpus.features)
        assert e.to_dict() == {
            "neuron_program": 1.325188330270875e-12,
            "neuron_sense": 8.06e-12,
            "neuron_reset": 2.4180000000000004e-12,
            "crossbar_static": 1.987352085795128e-11,
            "dtcs_static": 3.0477830979570264e-11,
            "total": 6.215454016779242e-11,
        }

    @pytest.mark.parametrize("seeds", [None, [3, 11, 4]])
    def test_layer_ledgers_add_to_the_report(self, stored_network, corpus,
                                             seeds):
        net = stored_network if seeds is None \
            else stored_network.with_variation(0.05, seeds)
        _, e = net.forward(corpus.features)
        assert len(e.layers) == len(net.layers)
        for name in TERMS:
            term = 0.0
            for layer in e.layers:
                term += getattr(layer, name)
            assert term == getattr(e, name)

    @pytest.mark.parametrize("letters", [slice(12, 13), slice(None)],
                             ids=["one", "corpus"])
    def test_crossbar_term_is_cellwise_v2g(self, stored_network, corpus,
                                           letters):
        """Each bar sits at V = I / g_tr over its cells and dummies, all
        ending at 0 V, so the layer's crossbar term is the sum of
        V^2 * g * T_PROGRAM over every cell of both rails."""
        features = corpus.features[letters]
        _, e = stored_network.forward(features)
        kind = stored_network.kind
        activations = features
        for layer, ledger in zip(stored_network.layers, e.layers,
                                 strict=True):
            i_rows = np.concatenate(
                [layer.i_unit * activations,
                 np.full(activations.shape[:-1] + (1,), layer.i_unit)],
                axis=-1)
            array = layer.array
            v = i_rows[..., None, :] / array.g_tr
            cells = np.concatenate([array.g, array.dummy], axis=-1)
            want = float(((v ** 2)[..., None] * cells).sum() * T_PROGRAM)
            assert ledger.crossbar_static == pytest.approx(
                want, rel=1e-12, abs=0.0)
            activations = np.interp(array.weighted_sum(i_rows),
                                    kind.i_nodes, kind.a_nodes)


class TestVariation:
    def test_same_seed_same_clone(self, network, corpus):
        a, _ = network.with_variation(0.05, seed=3).forward(corpus.features[0])
        b, _ = network.with_variation(0.05, seed=3).forward(corpus.features[0])
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_clone(self, network):
        a = network.with_variation(0.05, seed=3)
        b = network.with_variation(0.05, seed=4)
        assert not np.array_equal(a.layers[0].array.g, b.layers[0].array.g)

    def test_zero_sigma_is_identity(self, network):
        clone = network.with_variation(0.0, seed=7)
        for orig, new in zip(network.layers, clone.layers):
            np.testing.assert_array_equal(orig.array.g, new.array.g)
            np.testing.assert_array_equal(orig.array.dummy, new.array.dummy)

    def test_stacked_copies_match_single_clones(self, network, corpus):
        """Copy t of a network stacked from a seed sequence reads the
        corpus exactly as the clone of seed t alone, and its ledger is
        the sum of the per-clone ledgers."""
        seeds = [3, 11, 4, 2**32 - 1]
        stacked = network.with_variation(0.05, seeds)
        v, e = stacked.forward(corpus.features)
        singles = [network.with_variation(0.05, s).forward(corpus.features)
                   for s in seeds]
        assert v.shape == (4, 26, 26)
        np.testing.assert_array_equal(v, np.stack([s[0] for s in singles]))
        for name, total in e.to_dict().items():
            want = sum(s[1].to_dict()[name] for s in singles)
            assert total == pytest.approx(want, rel=1e-12, abs=0.0)
        one, _ = stacked.forward(corpus.features[12])
        np.testing.assert_array_equal(one, v[:, 12:13])

    def test_layer_seeds_match_seed_sequence(self, network):
        """Layer idx of the clone of seed s is `inject_variation` with
        seed `SeedSequence([s, idx])`, for seeds of one to five words
        stacked in one call."""
        seeds = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 17,
                 np.uint64(7)]
        stacked = network.with_variation(0.05, seeds)
        for idx, (layer, varied) in enumerate(
                zip(network.layers, stacked.layers)):
            for t, s in enumerate(seeds):
                want = inject_variation(layer.array, 0.05, seed=int(
                    np.random.SeedSequence([s, idx]).generate_state(1)[0]))
                for name in ("g", "dummy"):
                    np.testing.assert_array_equal(
                        getattr(varied.array, name)[t], getattr(want, name))

    @pytest.mark.parametrize("seed, error", [
        (-1, ValueError), ([4, -1], ValueError), (3.5, TypeError),
        (None, TypeError), ([4, None], TypeError), ([[4, 5]], TypeError),
        ([], ValueError), (True, TypeError), ([4, True], TypeError)])
    def test_bad_seed_rejected(self, network, seed, error):
        with pytest.raises(error):
            network.with_variation(0.05, seed)

    def test_streams_of_other_layer_counts_rejected(self, network):
        rngs = [np.random.default_rng(k) for k in range(3)]
        stacked = network.with_streams(0.05, rngs[:2], 4)
        assert [layer.array.g.shape[0] for layer in stacked.layers] == [4, 4]
        for bad in (rngs[:1], rngs):
            with pytest.raises(ValueError):
                network.with_streams(0.05, bad, 4)

    @pytest.mark.parametrize("sigma", [True, np.True_])
    def test_bool_sigma_rejected(self, network, sigma):
        """A bool is no spread; taken as a number it would run at 1."""
        with pytest.raises(DomainError):
            network.with_variation(sigma, 0)

    def test_zero_sigma_stack_is_nominal(self, network, corpus):
        v, e = network.with_variation(0.0, [5, 6, 7]).forward(
            corpus.features)
        v0, e0 = network.forward(corpus.features)
        np.testing.assert_array_equal(v, np.stack([v0] * 3))
        for name, total in e.to_dict().items():
            assert total == pytest.approx(3 * e0.to_dict()[name], rel=1e-12,
                                          abs=0.0)

    def test_variation_never_accumulates(self, network):
        """Re-varying a varied clone perturbs the nominal conductances,
        not the already-perturbed ones."""
        once = network.with_variation(0.1, seed=5)
        again = once.with_variation(0.1, seed=5)
        for a, b in zip(once.layers, again.layers):
            np.testing.assert_array_equal(a.array.g, b.array.g)
        restored = once.with_variation(0.0, seed=9)
        for orig, back in zip(network.layers, restored.layers):
            np.testing.assert_array_equal(orig.array.g, back.array.g)


class TestSerialization:
    def test_round_trip_preserves_behavior(self, recognizer, network,
                                           corpus, tmp_path):
        """The weights file is the one stored form of a recognizer:
        saving, loading and mapping it again rebuilds every layer and a
        batched forward call bit for bit."""
        path = tmp_path / "weights.json"
        save_weights(path, recognizer)
        loaded = build_network(load_weights(path))
        for a, b in zip(network.layers, loaded.layers, strict=True):
            for name in ("g", "dummy"):
                np.testing.assert_array_equal(getattr(a.array, name),
                                              getattr(b.array, name))
            assert (a.i_unit, a.g_tr) == (b.i_unit, b.g_tr)
        v0, e0 = network.forward(corpus.features)
        v1, e1 = loaded.forward(corpus.features)
        np.testing.assert_array_equal(v0, v1)
        assert e0.to_dict() == e1.to_dict()

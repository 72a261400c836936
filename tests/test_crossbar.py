"""Crossbar mapping, weighted-sum, variation, and write-scheme tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinann.crossbar import (
    ConductanceRange,
    CrossbarArray,
    MappingReport,
    WriteParams,
    inject_variation,
    map_weights,
    program_cell,
)
from spinann.errors import ConfigError, DomainError, WriteError
from spinann.network import build_network

G_MIN = 1.0 / 32e3
G_MAX = 1.0 / 1e3


def quantizer_oracle(target: float, rng: ConductanceRange) -> float:
    """Enumerate every level and pick the closest (first wins on ties)."""
    if target < rng.g_min:
        return rng.g_off
    levels = rng.level_values
    clipped = min(target, rng.g_max)
    return float(levels[np.argmin(np.abs(levels - clipped))])


def mapping_oracle(w: np.ndarray, rng: ConductanceRange):
    """Independent cell-by-cell mapping of weights to paired conductances."""
    scale = rng.g_max / np.max(np.abs(w))
    g_plus = np.zeros_like(w)
    g_minus = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            g = quantizer_oracle(abs(w[i, j]) * scale, rng)
            if w[i, j] > 0.0:
                g_plus[i, j] = g
            elif w[i, j] < 0.0:
                g_minus[i, j] = g
    return g_plus, g_minus, scale


def dot_product_oracle(array: CrossbarArray, i_plus, i_minus) -> np.ndarray:
    """Brute-force per-cell current-divider sum, dummies only in totals."""
    out = np.zeros(array.n_outputs)
    for j in range(array.n_outputs):
        acc = 0.0
        for i in range(array.n_inputs):
            tr_p = array.g_plus[i].sum() + array.dummy_plus[i].sum()
            tr_m = array.g_minus[i].sum() + array.dummy_minus[i].sum()
            if tr_p > 0.0:
                acc += i_plus[i] * array.g_plus[i, j] / tr_p
            if tr_m > 0.0:
                acc -= i_minus[i] * array.g_minus[i, j] / tr_m
        out[j] = acc
    return out


class TestConductanceRange:
    def test_default_window(self):
        rng = ConductanceRange()
        assert rng.g_min == pytest.approx(3.125e-5, rel=1e-12)
        assert rng.g_max == 1e-3
        assert rng.levels == 32
        assert rng.g_off == 0.0

    def test_exactly_32_distinct_levels(self):
        levels = ConductanceRange().level_values
        assert len(set(levels.tolist())) == 32
        # With the default window the step equals g_min, so every level
        # is an integer multiple of g_min.
        multiples = np.arange(1, 33) * G_MIN
        np.testing.assert_allclose(levels, multiples, rtol=1e-12)

    def test_quantize_matches_enumeration_oracle(self):
        rng = ConductanceRange()
        gen = np.random.default_rng(11)
        targets = gen.uniform(0.0, 1.2 * rng.g_max, size=500)
        got = rng.quantize(targets)
        expected = [quantizer_oracle(t, rng) for t in targets]
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)

    def test_half_weight_lands_on_exact_level(self):
        # Mid-scale target: 0.5 * g_max sits exactly on a level, and the
        # mid-rise phrasing g_min + 0.5*(g_max - g_min) falls a half step
        # above it, tying between two levels; the tie takes the lower one.
        rng = ConductanceRange()
        assert float(rng.quantize(0.5 * rng.g_max)) == pytest.approx(
            16 * G_MIN, rel=1e-14)
        mid_rise = rng.g_min + 0.5 * (rng.g_max - rng.g_min)
        assert quantizer_oracle(mid_rise, rng) == pytest.approx(
            16 * G_MIN, rel=1e-14)
        assert abs(mid_rise - 16 * G_MIN) <= 0.5 * rng.step * (1 + 1e-9)

    def test_sub_g_min_prunes_to_off(self):
        rng = ConductanceRange()
        assert float(rng.quantize(0.999 * rng.g_min)) == rng.g_off
        assert float(rng.quantize(rng.g_min)) == pytest.approx(rng.g_min)

    @pytest.mark.parametrize("kwargs", [
        {"g_min": 1e-3, "g_max": 1e-3},
        {"g_off": 5e-5},
        {"g_off": -1e-6},
        {"levels": 1},
    ])
    def test_bad_range_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ConductanceRange(**kwargs)


class TestMapWeights:
    def test_single_entry_anchors_scale(self):
        arr = map_weights(np.array([[0.0, 0.7], [0.0, 0.0]]))
        assert arr.g_plus[0, 1] == pytest.approx(G_MAX, rel=1e-12)
        assert arr.g_minus[0, 1] == 0.0
        off = np.ones((2, 2), dtype=bool)
        off[0, 1] = False
        assert np.all(arr.g_plus[off] == 0.0)
        assert np.all(arr.g_minus[off] == 0.0)

    def test_matches_cellwise_oracle(self):
        gen = np.random.default_rng(7)
        for _ in range(25):
            w = gen.uniform(-1.0, 1.0, size=(6, 5))
            arr = map_weights(w)
            g_plus, g_minus, scale = mapping_oracle(w, arr.range)
            np.testing.assert_allclose(arr.g_plus, g_plus, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(arr.g_minus, g_minus, rtol=1e-12, atol=0.0)
            assert arr.report.scale == pytest.approx(scale, rel=1e-12)

    def test_sign_separation(self):
        gen = np.random.default_rng(3)
        w = gen.uniform(-1.0, 1.0, size=(10, 8))
        arr = map_weights(w)
        both_on = (arr.g_plus > 0.0) & (arr.g_minus > 0.0)
        assert not both_on.any()
        on_plus = arr.g_plus > 0.0
        on_minus = arr.g_minus > 0.0
        assert np.all(w[on_plus] > 0.0)
        assert np.all(w[on_minus] < 0.0)

    def test_round_trip_within_quantization_bound(self):
        gen = np.random.default_rng(5)
        w = gen.uniform(-1.0, 1.0, size=(12, 7))
        arr = map_weights(w)
        decoded = arr.decode_weights()
        half_step_w = 0.5 * arr.range.step / arr.report.scale
        prune_bound_w = arr.range.g_min / arr.report.scale
        err = np.abs(decoded - w)
        pruned = (w != 0.0) & (arr.g_plus == 0.0) & (arr.g_minus == 0.0)
        assert np.all(err[~pruned] <= half_step_w * (1 + 1e-12))
        assert np.all(err[pruned] <= prune_bound_w)
        assert arr.report.pruned == int(pruned.sum())

    def test_bar_totals_equalized(self):
        gen = np.random.default_rng(9)
        w = gen.uniform(-1.0, 1.0, size=(9, 6))
        arr = map_weights(w)
        totals = np.concatenate([arr.g_tr_plus, arr.g_tr_minus])
        spread = totals.max() - totals.min()
        assert spread <= 1e-9 * totals.max()

    def test_dummy_cells_split_below_g_max(self):
        # One input drives many strong synapses while another drives none,
        # so the weak bars need more than one dummy cell's worth of padding.
        w = np.vstack([np.full(6, 1.0), np.full(6, 0.04)])
        arr = map_weights(w)
        assert arr.n_dummy >= 2
        assert np.all(arr.dummy_plus <= G_MAX * (1 + 1e-12))
        assert np.all(arr.dummy_minus <= G_MAX * (1 + 1e-12))
        totals = np.concatenate([arr.g_tr_plus, arr.g_tr_minus])
        assert totals.max() - totals.min() <= 1e-9 * totals.max()

    def test_unquantized_mapping_is_exact(self):
        gen = np.random.default_rng(13)
        w = gen.uniform(-1.0, 1.0, size=(8, 4))
        w[0, 0] = 1e-4  # far below the pruning threshold when quantized
        arr = map_weights(w, quantize=False)
        np.testing.assert_allclose(arr.decode_weights(), w, rtol=1e-12,
                                   atol=1e-18)
        assert arr.report.pruned == 0

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DomainError):
            map_weights(np.zeros((3, 3)))

    def test_non_finite_weights_rejected(self):
        with pytest.raises(DomainError):
            map_weights(np.array([[1.0, np.nan]]))
        with pytest.raises(DomainError):
            map_weights(np.array([[1.0, np.inf]]))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_every_programmed_cell_is_a_level(self, seed):
        gen = np.random.default_rng(seed)
        w = gen.uniform(-1.0, 1.0, size=(5, 4))
        arr = map_weights(w)
        levels = arr.range.level_values
        for g in np.concatenate([arr.g_plus.ravel(), arr.g_minus.ravel()]):
            if g > 0.0:
                assert np.min(np.abs(levels - g)) <= 1e-12 * G_MAX


class TestWeightedSum:
    def test_single_cell_divider_of_one(self):
        rng = ConductanceRange()
        arr = CrossbarArray(
            g_plus=np.array([[G_MAX]]),
            g_minus=np.zeros((1, 1)),
            dummy_plus=np.zeros((1, 1)),
            dummy_minus=np.zeros((1, 1)),
            range=rng,
        )
        out = arr.weighted_sum([37e-6], [0.0])
        assert out[0] == 37e-6

    def test_matches_dense_oracle(self):
        gen = np.random.default_rng(21)
        for _ in range(20):
            w = gen.uniform(-1.0, 1.0, size=(8, 4))
            arr = map_weights(w)
            i_plus = gen.uniform(0.0, 100e-6, size=8)
            i_minus = gen.uniform(0.0, 100e-6, size=8)
            got = arr.weighted_sum(i_plus, i_minus)
            expected = dot_product_oracle(arr, i_plus, i_minus)
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-18)

    def test_zero_inputs_zero_outputs(self):
        arr = map_weights(np.random.default_rng(2).uniform(-1, 1, (5, 3)))
        out = arr.weighted_sum(np.zeros(5), np.zeros(5))
        assert np.all(out == 0.0)

    def test_superposition(self):
        gen = np.random.default_rng(31)
        arr = map_weights(gen.uniform(-1.0, 1.0, size=(6, 4)))
        a_p, a_m = gen.uniform(0, 1e-4, 6), gen.uniform(0, 1e-4, 6)
        b_p, b_m = gen.uniform(0, 1e-4, 6), gen.uniform(0, 1e-4, 6)
        combined = arr.weighted_sum(a_p + b_p, a_m + b_m)
        split = arr.weighted_sum(a_p, a_m) + arr.weighted_sum(b_p, b_m)
        np.testing.assert_allclose(combined, split, rtol=1e-12, atol=1e-20)

    def test_dimension_mismatch_rejected(self):
        arr = map_weights(np.ones((4, 2)))
        with pytest.raises(DomainError):
            arr.weighted_sum(np.zeros(3), np.zeros(4))
        with pytest.raises(DomainError):
            arr.weighted_sum(np.zeros(4), np.zeros(5))

    def test_batch_matches_row_by_row(self, recognizer, corpus):
        """The recognizer's perturbed input layer reads a [26, 65] batch
        exactly as 26 single calls."""
        varied = build_network(recognizer).with_variation(0.05, seed=1)
        layer = varied.layers[0]
        arr = layer.array
        rows = layer.i_unit * np.hstack([corpus.features, np.ones((26, 1))])
        batch = arr.weighted_sum(rows, 0.5 * rows)
        assert batch.shape == (26, arr.n_outputs)
        np.testing.assert_array_equal(
            batch, np.stack([arr.weighted_sum(r, 0.5 * r) for r in rows]))
        with pytest.raises(DomainError):
            arr.weighted_sum(rows[:, :-1], rows[:, :-1])
        with pytest.raises(DomainError):
            arr.weighted_sum(rows, rows[:13])


class TestVariation:
    def test_sigma_zero_is_identity(self):
        arr = map_weights(np.random.default_rng(1).uniform(-1, 1, (6, 4)))
        same = inject_variation(arr, 0.0, seed=42)
        assert np.array_equal(arr.g_plus, same.g_plus)
        assert np.array_equal(arr.g_minus, same.g_minus)
        assert np.array_equal(arr.dummy_plus, same.dummy_plus)
        assert np.array_equal(arr.dummy_minus, same.dummy_minus)

    def test_deterministic_per_seed(self):
        arr = map_weights(np.random.default_rng(1).uniform(-1, 1, (6, 4)))
        a = inject_variation(arr, 0.05, seed=7)
        b = inject_variation(arr, 0.05, seed=7)
        c = inject_variation(arr, 0.05, seed=8)
        assert np.array_equal(a.g_plus, b.g_plus)
        assert not np.array_equal(a.g_plus, c.g_plus)

    def test_five_percent_statistics(self):
        w = np.ones((100, 100))
        arr = map_weights(w)  # every synapse cell at g_max
        varied = inject_variation(arr, 0.05, seed=123)
        cells = varied.g_plus.ravel()
        assert abs(cells.mean() - G_MAX) <= 0.005 * G_MAX
        assert abs(cells.std() - 0.05 * G_MAX) <= 0.1 * 0.05 * G_MAX

    def test_clamped_to_physical_window(self):
        arr = map_weights(np.random.default_rng(4).uniform(-1, 1, (20, 20)))
        wild = inject_variation(arr, 5.0, seed=99)
        for g in (wild.g_plus, wild.g_minus, wild.dummy_plus,
                  wild.dummy_minus):
            assert np.all(g >= 0.0)
            assert np.all(g <= 1.25 * G_MAX + 1e-18)
        assert np.any(wild.g_plus == 0.0)  # some cells driven to the floor

    def test_off_cells_stay_off(self):
        w = np.array([[1.0, 0.0], [-0.5, 0.0]])
        arr = map_weights(w)
        varied = inject_variation(arr, 0.05, seed=3)
        assert varied.g_plus[0, 1] == 0.0
        assert varied.g_minus[0, 1] == 0.0
        assert varied.g_plus[1, 0] == 0.0  # negative weight: plus rail off

    def test_bar_totals_follow_perturbation(self):
        arr = map_weights(np.random.default_rng(6).uniform(-1, 1, (6, 4)))
        varied = inject_variation(arr, 0.05, seed=11)
        assert not np.allclose(varied.g_tr_plus, arr.g_tr_plus, rtol=1e-6)
        np.testing.assert_allclose(
            varied.g_tr_plus,
            varied.g_plus.sum(axis=1) + varied.dummy_plus.sum(axis=1),
            rtol=1e-15)

    def test_nominal_handle_survives_chaining(self):
        arr = map_weights(np.random.default_rng(8).uniform(-1, 1, (4, 3)))
        once = inject_variation(arr, 0.05, seed=1)
        twice = inject_variation(once, 0.05, seed=2)
        assert once.nominal is arr
        assert twice.nominal is arr

    def test_negative_sigma_rejected(self):
        arr = map_weights(np.ones((2, 2)))
        with pytest.raises(DomainError):
            inject_variation(arr, -0.01, seed=0)


class TestProgramCell:
    def test_target_at_start_needs_no_pulses(self):
        params = WriteParams()
        g, pulses, energy = program_cell(1.0 / params.r_start, params)
        assert pulses == 0
        assert energy == 0.0
        assert g == pytest.approx(1.0 / params.r_start, rel=1e-12)

    def test_matches_closed_form_ramp(self):
        params = WriteParams(write_current=8e-6)
        dr = params.ramp_rate * (params.write_current / params.i_reference) \
            * params.t_pulse
        for r_target in (1500.0, 5000.0, 9400.0, 20000.0, 31000.0):
            g, pulses, energy = program_cell(1.0 / r_target, params)
            threshold = round(r_target / params.comparator_resolution) \
                * params.comparator_resolution
            # Smallest n with r_start - n*dr <= threshold, evaluated with
            # the same float arithmetic as the pulse loop.
            n = math.ceil((params.r_start - threshold) / dr)
            while params.r_start - n * dr > threshold:
                n += 1
            while n > 0 and params.r_start - (n - 1) * dr <= threshold:
                n -= 1
            assert pulses == n
            assert 1.0 / g == pytest.approx(params.r_start - n * dr, rel=1e-12)
            expected_energy = params.write_current ** 2 * params.t_pulse \
                * (n * params.r_start - dr * n * (n - 1) / 2)
            assert energy == pytest.approx(expected_energy, rel=1e-12)

    def test_achieved_within_ramp_and_comparator_step(self):
        params = WriteParams(write_current=7e-6)
        dr = params.ramp_rate * (params.write_current / params.i_reference) \
            * params.t_pulse
        gen = np.random.default_rng(17)
        for r_target in gen.uniform(1000.0, 32000.0, size=20):
            g, _, _ = program_cell(1.0 / r_target, params)
            assert abs(1.0 / g - r_target) <= dr + \
                0.5 * params.comparator_resolution

    def test_lower_current_tunes_finer(self):
        r_target = 9400.0
        coarse, _, _ = program_cell(
            1.0 / r_target, WriteParams(write_current=8e-6))
        fine, _, _ = program_cell(
            1.0 / r_target, WriteParams(write_current=4e-6))
        err_coarse = abs(1.0 / coarse - r_target)
        err_fine = abs(1.0 / fine - r_target)
        assert err_fine < err_coarse

    def test_out_of_range_target_rejected(self):
        with pytest.raises(DomainError):
            program_cell(0.5 * G_MIN, WriteParams())
        with pytest.raises(DomainError):
            program_cell(1.5 * G_MAX, WriteParams())

    def test_pulse_budget_enforced(self):
        with pytest.raises(WriteError):
            program_cell(G_MAX, WriteParams(max_pulses=3))

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            WriteParams(write_current=0.0)
        with pytest.raises(ConfigError):
            WriteParams(max_pulses=0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        arr = map_weights(np.random.default_rng(10).uniform(-1, 1, (5, 4)))
        path = tmp_path / "bar.json"
        arr.save(path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == "crossbar/1"
        back = CrossbarArray.load(path)
        assert np.array_equal(back.g_plus, arr.g_plus)
        assert np.array_equal(back.g_minus, arr.g_minus)
        assert np.array_equal(back.dummy_plus, arr.dummy_plus)
        assert np.array_equal(back.dummy_minus, arr.dummy_minus)
        assert back.range == arr.range
        assert back.report == arr.report

    def test_perturbed_document_keeps_nominal(self, tmp_path):
        arr = map_weights(np.random.default_rng(12).uniform(-1, 1, (4, 3)))
        varied = inject_variation(arr, 0.05, seed=5)
        path = tmp_path / "varied.json"
        varied.save(path)
        back = CrossbarArray.load(path)
        assert back.nominal is not None
        assert np.array_equal(back.nominal.g_plus, arr.g_plus)
        assert np.array_equal(back.g_plus, varied.g_plus)

    def test_wrong_schema_rejected(self):
        with pytest.raises(ConfigError):
            CrossbarArray.from_dict({"schema": "crossbar/0"})

    def test_decode_requires_mapping_report(self):
        arr = CrossbarArray(
            g_plus=np.ones((1, 1)) * G_MAX,
            g_minus=np.zeros((1, 1)),
            dummy_plus=np.zeros((1, 1)),
            dummy_minus=np.zeros((1, 1)),
            range=ConductanceRange(),
        )
        with pytest.raises(ConfigError):
            arr.decode_weights()

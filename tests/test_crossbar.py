"""Crossbar mapping, weighted-sum and variation tests."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinann.crossbar import (
    GRID,
    ConductanceRange,
    CrossbarArray,
    inject_variation,
    map_weights,
    perturb,
)
from spinann.errors import ConfigError, DomainError
from spinann.network import build_network
from spinann.trainer import load_weights

STORED_RECOGNIZER = (Path(__file__).resolve().parents[1]
                     / "perfbench" / "data" / "recognizer_seed17.json")

G_MIN = 1.0 / 32e3
G_MAX = 1.0 / 1e3

# Seeds of one to five 32-bit words.
WIDE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 17,
              np.uint64(2**64 - 1)]


def _decoded(arr):
    """Signed weights recovered at the array's mapping scale."""
    return (arr.g[0] - arr.g[1]) / arr.scale


def nodal_column_currents(array, i_rows, r_col):
    """Column currents of a nodal solve of the crossbar's circuit, rail 0's
    minus rail 1's, `[n, n_outputs]` for drives `[n, n_inputs]`.

    On each rail, bar i is a node driven by the current `i_rows[:, i]`,
    cell (i, j) joins it to column node j, its dummies join it to ground,
    and each column reaches ground through `r_col`, whose current the
    column delivers."""
    n_in, n_out = array.n_inputs, array.n_outputs
    drive = np.hstack([i_rows, np.zeros((len(i_rows), n_out))])
    rails = []
    for g, dummy in zip(array.g, array.dummy):
        y = np.zeros((n_in + n_out,) * 2)
        y[:n_in, :n_in] = np.diag(g.sum(axis=1) + dummy.sum(axis=1))
        y[:n_in, n_in:] = -g
        y[n_in:, :n_in] = -g.T
        y[n_in:, n_in:] = np.diag(g.sum(axis=0) + 1.0 / r_col)
        v = np.linalg.solve(y, drive.T).T
        rails.append(v[:, n_in:] / r_col)
    return rails[0] - rails[1]


def quantizer_oracle(target: float, rng: ConductanceRange) -> float:
    """Enumerate every level and pick the closest (first wins on ties)."""
    if target < rng.g_min:
        return 0.0
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


def dot_product_oracle(array: CrossbarArray, i_in) -> np.ndarray:
    """Brute-force per-cell current-divider sum, dummies only in totals;
    each input drives both of its bars."""
    out = np.zeros(array.n_outputs)
    for j in range(array.n_outputs):
        acc = 0.0
        for i in range(array.n_inputs):
            g_p, g_m = array.g[0, i], array.g[1, i]
            tr_p = g_p.sum() + array.dummy[0, i].sum()
            tr_m = g_m.sum() + array.dummy[1, i].sum()
            if tr_p > 0.0:
                acc += i_in[i] * g_p[j] / tr_p
            if tr_m > 0.0:
                acc -= i_in[i] * g_m[j] / tr_m
        out[j] = acc
    return out


class TestConductanceRange:
    def test_default_window(self):
        rng = ConductanceRange()
        assert 0.0 < rng.g_min < rng.g_max
        assert rng.g_min == pytest.approx(3.125e-5, rel=1e-12, abs=0.0)
        assert rng.g_max == 1e-3
        assert rng.levels == 32
        assert float(rng.quantize(0.0)) == 0.0

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
            16 * G_MIN, rel=1e-14, abs=0.0)
        mid_rise = rng.g_min + 0.5 * (rng.g_max - rng.g_min)
        assert quantizer_oracle(mid_rise, rng) == pytest.approx(
            16 * G_MIN, rel=1e-14, abs=0.0)
        assert abs(mid_rise - 16 * G_MIN) <= 0.5 * rng.step * (1 + 1e-9)

    def test_sub_g_min_prunes_to_off(self):
        rng = ConductanceRange()
        assert float(rng.quantize(0.999 * rng.g_min)) == 0.0
        assert float(rng.quantize(rng.g_min)) == pytest.approx(rng.g_min)


class TestMapWeights:
    def test_single_entry_anchors_scale(self):
        arr = map_weights(np.array([[0.0, 0.7], [0.0, 0.0]]))
        assert arr.g.shape == (2, 2, 2)
        assert arr.g[0, 0, 1] == pytest.approx(G_MAX, rel=1e-12, abs=0.0)
        assert arr.g[1, 0, 1] == 0.0
        off = np.ones((2, 2), dtype=bool)
        off[0, 1] = False
        assert np.all(arr.g[:, off] == 0.0)

    def test_matches_cellwise_oracle(self):
        gen = np.random.default_rng(7)
        for _ in range(25):
            w = gen.uniform(-1.0, 1.0, size=(6, 5))
            arr = map_weights(w)
            g_plus, g_minus, scale = mapping_oracle(w, GRID)
            np.testing.assert_allclose(arr.g, [g_plus, g_minus], rtol=1e-12,
                                       atol=0.0)
            assert arr.scale == pytest.approx(scale, rel=1e-12, abs=0.0)

    def test_sign_separation(self):
        gen = np.random.default_rng(3)
        w = gen.uniform(-1.0, 1.0, size=(10, 8))
        arr = map_weights(w)
        on_plus, on_minus = arr.g > 0.0
        assert not (on_plus & on_minus).any()
        assert np.all(w[on_plus] > 0.0)
        assert np.all(w[on_minus] < 0.0)

    def test_round_trip_within_quantization_bound(self):
        gen = np.random.default_rng(5)
        w = gen.uniform(-1.0, 1.0, size=(12, 7))
        arr = map_weights(w)
        decoded = _decoded(arr)
        half_step_w = 0.5 * GRID.step / arr.scale
        prune_bound_w = GRID.g_min / arr.scale
        err = np.abs(decoded - w)
        pruned = (w != 0.0) & np.all(arr.g == 0.0, axis=0)
        assert np.all(err[~pruned] <= half_step_w * (1 + 1e-12))
        assert np.all(err[pruned] <= prune_bound_w)

    def test_bar_totals_equalized(self):
        gen = np.random.default_rng(9)
        w = gen.uniform(-1.0, 1.0, size=(9, 6))
        arr = map_weights(w)
        assert arr.g_tr.shape == (2, 9)
        spread = arr.g_tr.max() - arr.g_tr.min()
        assert spread <= 1e-9 * arr.g_tr.max()

    def test_dummy_cells_split_below_g_max(self):
        # One input drives many strong synapses while another drives none,
        # so the weak bars need more than one dummy cell's worth of padding.
        w = np.vstack([np.full(6, 1.0), np.full(6, 0.04)])
        arr = map_weights(w)
        assert arr.dummy.shape[-1] >= 2
        assert np.all(arr.dummy <= G_MAX * (1 + 1e-12))
        totals = arr.g_tr
        assert totals.max() - totals.min() <= 1e-9 * totals.max()

    def test_unquantized_mapping_is_exact(self):
        gen = np.random.default_rng(13)
        w = gen.uniform(-1.0, 1.0, size=(8, 4))
        w[0, 0] = 1e-4  # far below the pruning threshold when quantized
        arr = map_weights(w, quantize=False)
        np.testing.assert_allclose(_decoded(arr), w, rtol=1e-12,
                                   atol=1e-18)
        assert np.all(np.any(arr.g > 0.0, axis=0))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DomainError):
            map_weights(np.zeros((3, 3)))

    def test_non_finite_weights_rejected(self):
        with pytest.raises(DomainError):
            map_weights(np.array([[1.0, np.nan]]))
        with pytest.raises(DomainError):
            map_weights(np.array([[1.0, np.inf]]))

    @pytest.mark.parametrize("cells", range(1, 13))
    def test_bar_totals_are_row_sums(self, cells):
        """Bar totals equal `g.sum(-1) + dummy.sum(-1)` bit for bit, on
        one array and on a 3-copy stack, for rows of either side of the
        8 cells below which they are added as written; rows of zeros of
        either sign total +0.0, as numpy's sums do."""
        gen = np.random.default_rng(cells)
        for lead in ((), (3,)):
            g = gen.uniform(0.0, G_MAX, lead + (2, 5, cells))
            dummy = gen.uniform(0.0, G_MAX, lead + (2, 5, 13 - cells))
            g[..., 1, :] = dummy[..., 1, :] = -0.0
            g[..., 2, :] = 0.0
            arr = CrossbarArray(g, dummy)
            want = g.sum(axis=-1) + dummy.sum(axis=-1)
            assert arr.g_tr.tobytes() == want.tobytes()

    @pytest.mark.parametrize("g, dummy", [
        (np.zeros((1, 1)), np.zeros((1, 1))),
        (np.zeros((3, 1, 1)), np.zeros((3, 1, 1))),
        (np.zeros((2, 2, 1)), np.zeros((2, 1, 1))),
        (np.zeros((4, 2, 1, 1)), np.zeros((4, 1, 1, 1))),
    ], ids=["no-rail-axis", "three-rails", "dummy-rows", "dummy-rails"])
    def test_bad_shapes_rejected(self, g, dummy):
        with pytest.raises(ConfigError):
            CrossbarArray(g, dummy)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_every_programmed_cell_is_a_level(self, seed):
        gen = np.random.default_rng(seed)
        w = gen.uniform(-1.0, 1.0, size=(5, 4))
        arr = map_weights(w)
        levels = GRID.level_values
        for g in arr.g.ravel():
            if g > 0.0:
                assert np.min(np.abs(levels - g)) <= 1e-12 * G_MAX


class TestWeightedSum:
    def test_single_cell_divider_of_one(self):
        arr = CrossbarArray(g=[[[G_MAX]], [[0.0]]], dummy=np.zeros((2, 1, 1)))
        out = arr.weighted_sum([37e-6])
        assert out[0] == 37e-6

    def test_matches_dense_oracle(self):
        gen = np.random.default_rng(21)
        for _ in range(20):
            w = gen.uniform(-1.0, 1.0, size=(8, 4))
            arr = map_weights(w)
            i_in = gen.uniform(0.0, 100e-6, size=8)
            got = arr.weighted_sum(i_in)
            expected = dot_product_oracle(arr, i_in)
            np.testing.assert_allclose(got, expected, rtol=1e-12,
                                       atol=1e-18)

    def test_zero_inputs_zero_outputs(self):
        arr = map_weights(np.random.default_rng(2).uniform(-1, 1, (5, 3)))
        out = arr.weighted_sum(np.zeros(5))
        assert np.all(out == 0.0)

    def test_superposition(self):
        gen = np.random.default_rng(31)
        arr = map_weights(gen.uniform(-1.0, 1.0, size=(6, 4)))
        a, b = gen.uniform(0, 1e-4, 6), gen.uniform(0, 1e-4, 6)
        combined = arr.weighted_sum(a + b)
        split = arr.weighted_sum(a) + arr.weighted_sum(b)
        np.testing.assert_allclose(combined, split, rtol=1e-12, atol=1e-20)

    def test_dimension_mismatch_rejected(self):
        arr = map_weights(np.ones((4, 2)))
        with pytest.raises(DomainError):
            arr.weighted_sum(np.zeros(3))
        with pytest.raises(DomainError):
            arr.weighted_sum(np.zeros(5))

    def test_nodal_solve_converges_linearly(self, corpus):
        """`weighted_sum` is the nodal solve in the limit of columns at
        0 V: on each layer of the stored recognizer, the largest
        deviation, relative to the largest column current, is
        proportional to the column resistance as it goes to 0."""
        network = build_network(load_weights(STORED_RECOGNIZER))
        activations = corpus.features
        for layer in network.layers:
            i_rows = layer.i_unit * np.hstack(
                [activations, np.ones((len(activations), 1))])
            ideal = layer.array.weighted_sum(i_rows)
            slopes = [np.abs(nodal_column_currents(layer.array, i_rows, r)
                             - ideal).max() / np.abs(ideal).max() / r
                      for r in (1e-4, 1e-3, 1e-2)]
            assert max(slopes) <= 1.001 * min(slopes)
            assert 0.0 < min(slopes) < 1e-2
            activations = np.interp(ideal, network.kind.i_nodes,
                                    network.kind.a_nodes)

    def test_batch_matches_row_by_row(self, recognizer, corpus):
        """The recognizer's perturbed input layer reads a [26, 65] batch
        exactly as 26 single calls."""
        varied = build_network(recognizer).with_variation(0.05, seed=1)
        layer = varied.layers[0]
        arr = layer.array
        rows = layer.i_unit * np.hstack([corpus.features, np.ones((26, 1))])
        batch = arr.weighted_sum(rows)
        assert batch.shape == (26, arr.n_outputs)
        np.testing.assert_array_equal(
            batch, np.stack([arr.weighted_sum(r) for r in rows]))
        with pytest.raises(DomainError):
            arr.weighted_sum(rows[:, :-1])

    def test_dead_bar_carries_no_current(self):
        """A bar whose total conductance is zero passes no current, on a
        single array and on every copy of a stacked one. Bar totals are
        powers of two and drives small integers, so every share and sum
        is exact and the masked-divide oracle must match bit for bit."""
        # Input 1's positive-rail bar and input 2's negative-rail bar are
        # dead in copy 0; copy 1 swaps which inputs are dead.
        g_plus = np.array([[[1.0, 1.0], [0.0, 0.0], [3.0, 1.0]],
                           [[1.0, 3.0], [2.0, 2.0], [0.0, 0.0]]])
        g_minus = np.array([[[0.0, 2.0], [1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [0.0, 1.0], [2.0, 0.0]]])
        dummy_plus = np.array([[[2.0], [0.0], [0.0]],
                               [[0.0], [0.0], [0.0]]])
        dummy_minus = np.array([[[0.0], [1.0], [0.0]],
                                [[0.0], [1.0], [2.0]]])
        # [copy, rail, input, column]
        g = np.stack([g_plus, g_minus], axis=1)
        dummy = np.stack([dummy_plus, dummy_minus], axis=1)

        def oracle(copy, drive):
            rails = []
            for rail in range(2):
                den = (g[copy, rail].sum(axis=1)
                       + dummy[copy, rail].sum(axis=1))
                share = np.divide(drive, den, out=np.zeros(3),
                                  where=den > 0.0)
                rails.append(share @ g[copy, rail])
            return rails[0] - rails[1]

        drives = np.array([[3.0, 5.0, 7.0], [0.0, 1.0, 2.0],
                           [4.0, 0.0, -6.0]])
        stack = CrossbarArray(g, dummy)
        own = np.stack([drives, drives[::-1]])
        for t in range(2):
            single = CrossbarArray(g[t], dummy[t])
            for got, fed in ((single.weighted_sum(drives), drives),
                             (stack.weighted_sum(drives)[t], drives),
                             (stack.weighted_sum(own)[t], own[t])):
                for row, drive in zip(got, fed):
                    np.testing.assert_array_equal(row, oracle(t, drive))
            assert np.isfinite(single.weighted_sum(drives[:2])).all()


class TestVariation:
    def test_sigma_zero_is_identity(self):
        arr = map_weights(np.random.default_rng(1).uniform(-1, 1, (6, 4)))
        same = inject_variation(arr, 0.0, seed=42)
        assert np.array_equal(arr.g, same.g)
        assert np.array_equal(arr.dummy, same.dummy)

    def test_deterministic_per_seed(self):
        arr = map_weights(np.random.default_rng(1).uniform(-1, 1, (6, 4)))
        a = inject_variation(arr, 0.05, seed=7)
        b = inject_variation(arr, 0.05, seed=7)
        c = inject_variation(arr, 0.05, seed=8)
        assert np.array_equal(a.g, b.g)
        assert not np.array_equal(a.g, c.g)

    def test_single_seed_draw_pinned(self):
        """Both rails' perturbed cells and dummies of one seeded draw,
        exactly."""
        arr = map_weights(np.random.default_rng(1).uniform(-1, 1, (6, 4)))
        varied = inject_variation(arr, 0.05, seed=7)
        digest = hashlib.sha256()
        for g in (varied.g[0], varied.g[1], varied.dummy[0],
                  varied.dummy[1]):
            digest.update(np.ascontiguousarray(g, dtype="<f8").tobytes())
        assert digest.hexdigest() == ("dc981a4ec66ee32a9f79d2395a1d878a"
                                      "d69620eb7e8ddca6bd0569d932e3d06d")

    def test_seed_sequence_stacks_single_draws(self):
        """A sequence of seeds gives a stacked array whose copy t, and
        its weighted sums, equal the single draw of seed t."""
        gen = np.random.default_rng(1)
        arr = map_weights(gen.uniform(-1, 1, (6, 4)))
        seeds = [7, 8, 123]
        stack = inject_variation(arr, 0.05, seed=seeds)
        singles = [inject_variation(arr, 0.05, seed=s) for s in seeds]
        assert stack.g.shape == (3, 2, 6, 4)
        assert (stack.n_inputs, stack.n_outputs) == (6, 4)
        assert stack.dummy.shape[-1] == arr.dummy.shape[-1]
        assert stack.nominal is arr
        for name in ("g", "dummy", "g_tr"):
            np.testing.assert_array_equal(
                getattr(stack, name), [getattr(a, name) for a in singles])
        shared = gen.uniform(0.0, 1e-5, (5, 6))
        own = gen.uniform(0.0, 1e-5, (3, 5, 6))
        np.testing.assert_array_equal(
            stack.weighted_sum(shared),
            [a.weighted_sum(shared) for a in singles])
        np.testing.assert_array_equal(
            stack.weighted_sum(own),
            [a.weighted_sum(x) for a, x in zip(singles, own)])

    def test_five_percent_statistics(self):
        w = np.ones((100, 100))
        arr = map_weights(w)  # every synapse cell at g_max
        varied = inject_variation(arr, 0.05, seed=123)
        cells = varied.g[0].ravel()
        assert abs(cells.mean() - G_MAX) <= 0.005 * G_MAX
        assert abs(cells.std() - 0.05 * G_MAX) <= 0.1 * 0.05 * G_MAX

    def test_clamped_to_physical_window(self):
        arr = map_weights(np.random.default_rng(4).uniform(-1, 1, (20, 20)))
        wild = inject_variation(arr, 5.0, seed=99)
        for g in (wild.g, wild.dummy):
            assert np.all(g >= 0.0)
            assert np.all(g <= 1.25 * G_MAX + 1e-18)
        assert np.any(wild.g[0] == 0.0)  # some cells driven to the floor

    def test_off_cells_stay_off(self):
        w = np.array([[1.0, 0.0], [-0.5, 0.0]])
        arr = map_weights(w)
        varied = inject_variation(arr, 0.05, seed=3)
        assert varied.g[0, 0, 1] == 0.0
        assert varied.g[1, 0, 1] == 0.0
        assert varied.g[0, 1, 0] == 0.0  # negative weight: plus rail off

    def test_bar_totals_follow_perturbation(self):
        arr = map_weights(np.random.default_rng(6).uniform(-1, 1, (6, 4)))
        varied = inject_variation(arr, 0.05, seed=11)
        assert not np.allclose(varied.g_tr[0], arr.g_tr[0], rtol=1e-6)
        np.testing.assert_allclose(
            varied.g_tr,
            varied.g.sum(axis=-1) + varied.dummy.sum(axis=-1),
            rtol=1e-15)

    def test_nominal_handle_survives_chaining(self):
        """Varying a varied copy draws on the nominal conductances, so it
        equals varying the nominal array with the same seed."""
        arr = map_weights(np.random.default_rng(8).uniform(-1, 1, (4, 3)))
        once = inject_variation(arr, 0.05, seed=1)
        twice = inject_variation(once, 0.05, seed=2)
        assert once.nominal is arr
        assert twice.nominal is arr
        assert twice.scale == arr.scale
        direct = inject_variation(arr, 0.05, seed=2)
        np.testing.assert_array_equal(twice.g, direct.g)
        np.testing.assert_array_equal(twice.dummy, direct.dummy)

    def test_negative_sigma_rejected(self):
        arr = map_weights(np.ones((2, 2)))
        with pytest.raises(DomainError):
            inject_variation(arr, -0.01, seed=0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        arr = map_weights(np.ones((2, 2)))
        with pytest.raises(DomainError):
            inject_variation(arr, sigma, seed=0)

    @pytest.mark.parametrize("sigma", [True, np.True_])
    def test_bool_sigma_rejected(self, sigma):
        """A bool is no spread; taken as a number it would run at 1."""
        arr = map_weights(np.ones((2, 2)))
        with pytest.raises(DomainError):
            inject_variation(arr, sigma, seed=0)

    @pytest.mark.parametrize("shape", [(15,), (17,), (2, 15), (0, 16),
                                       (1, 2, 16), (), (16, 0)])
    def test_bad_noise_rejected(self, shape):
        """`perturb` takes one standard normal per cell of each copy, 16
        here with the two dummy columns, and at least one copy."""
        arr = map_weights(np.ones((2, 2)))
        assert arr.n_cells == 16
        assert perturb(arr, 0.05, np.zeros((3, 16))).g.shape == (3, 2, 2, 2)
        with pytest.raises(ConfigError):
            perturb(arr, 0.05, np.zeros(shape))

    @pytest.mark.parametrize("seed", [[], np.array([], dtype=np.int64)])
    def test_empty_seed_sequence_rejected(self, seed):
        """No seeds would give a stack of no copies, which `forward`
        cannot run."""
        arr = map_weights(np.ones((2, 2)))
        with pytest.raises(ValueError):
            inject_variation(arr, 0.05, seed=seed)


def _rail_cells(arr):
    """Rail 0's cells, rail 1's, rail 0's dummies and rail 1's."""
    return (arr.g[..., 0, :, :], arr.g[..., 1, :, :],
            arr.dummy[..., 0, :, :], arr.dummy[..., 1, :, :])


def _variation_oracle(arr, sigma, seed):
    """Each rail's perturbed cells and dummies, from one
    `default_rng(seed).normal` draw taken in `_rail_cells` order."""
    fields = _rail_cells(arr)
    noise = np.random.default_rng(seed).normal(
        0.0, sigma, size=sum(g.size for g in fields))
    out, start = [], 0
    for g in fields:
        part = noise[start:start + g.size].reshape(g.shape)
        start += g.size
        out.append(np.where(g > 0.0, np.clip(g * (1.0 + part), 0.0,
                                              1.25 * G_MAX), g))
    return out


class TestSeedReplay:
    """`inject_variation` draws each copy's noise from `default_rng` of
    its seed, bit for bit, for seeds of any width."""

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64, np.uint64])
    def test_integer_arrays(self, dtype):
        """An integer array of seeds stacks the draws of its elements."""
        arr = map_weights(np.random.default_rng(2).uniform(-1, 1, (5, 3)))
        seeds = np.array([0, 7, 2**31, np.iinfo(dtype).max], dtype=dtype)
        stack = inject_variation(arr, 0.05, seed=seeds)
        for t, seed in enumerate(seeds):
            for got, want in zip(_rail_cells(stack),
                                 _variation_oracle(arr, 0.05, int(seed))):
                np.testing.assert_array_equal(got[t], want)

    @pytest.mark.parametrize("seed", WIDE_SEEDS)
    def test_single_draw_matches_default_rng(self, seed):
        arr = map_weights(np.random.default_rng(1).uniform(-1, 1, (6, 4)))
        varied = inject_variation(arr, 0.05, seed=seed)
        for got, want in zip(_rail_cells(varied),
                             _variation_oracle(arr, 0.05, seed)):
            np.testing.assert_array_equal(got, want)

    def test_stacked_draws_of_mixed_widths_match_default_rng(self):
        arr = map_weights(np.random.default_rng(2).uniform(-1, 1, (5, 3)))
        stack = inject_variation(arr, 0.05, seed=WIDE_SEEDS)
        for t, seed in enumerate(WIDE_SEEDS):
            for got, want in zip(_rail_cells(stack),
                                 _variation_oracle(arr, 0.05, seed)):
                np.testing.assert_array_equal(got[t], want)

    @pytest.mark.parametrize("seed", [-1, [3, -1], np.int64(-5)])
    def test_negative_seed_rejected(self, seed):
        arr = map_weights(np.ones((2, 2)))
        with pytest.raises(ValueError):
            inject_variation(arr, 0.05, seed=seed)

    @pytest.mark.parametrize("seed", [3.5, None, "7", [1, 2.5],
                                      np.array([1.0]), [[1, 2]]])
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_non_integer_seed_rejected(self, seed, sigma):
        arr = map_weights(np.ones((2, 2)))
        with pytest.raises(TypeError):
            inject_variation(arr, sigma, seed=seed)

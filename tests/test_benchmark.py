"""Feature extraction, corpus, evaluation, and recognizer recipe tests."""

import hashlib
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinann import benchmark
from spinann.benchmark import (
    DIRECTIONS,
    FEATURE_COUNT,
    GLYPH_SIZE,
    HIDDEN_NEURONS,
    MC_BLOCK_TRIALS,
    POOL_GRID,
    Glyph,
    comparison_configs,
    corpus_feature_scale,
    evaluate,
    extract_features,
    monte_carlo,
    parse_glyph,
    raw_features,
    recognizer_configs,
    wilson_interval,
)
from spinann.errors import ConfigError, DomainError
from spinann.network import build_network
from spinann.trainer import (
    TransferKind,
    finalize,
    load_weights,
    quantize_weights,
    train,
)

STORED_RECOGNIZER = (Path(__file__).resolve().parents[1]
                     / "perfbench" / "data" / "recognizer_seed17.json")


def _reference_correlate(image, kernel):
    """Nested-loop zero-padded correlation, the oracle for raw_features."""
    n, m = image.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for di in range(3):
                for dj in range(3):
                    ii, jj = i + di - 1, j + dj - 1
                    if 0 <= ii < n and 0 <= jj < m:
                        acc += image[ii, jj] * kernel[di, dj]
            out[i, j] = acc
    return out


def _reference_features(bitmap):
    """Rectified oracle correlations, block-averaged over the pooling cells
    one cell at a time, in raw_features' direction-major order."""
    cell = GLYPH_SIZE // POOL_GRID
    feats = []
    for kernel in benchmark._KERNELS:
        resp = np.abs(_reference_correlate(bitmap, kernel))
        for r in range(POOL_GRID):
            for c in range(POOL_GRID):
                feats.append(resp[cell * r:cell * (r + 1),
                                  cell * c:cell * (c + 1)].mean())
    return np.array(feats)


class TestConvolution:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_reference_correlation(self, seed):
        """On a real-valued bitmap the summation order differs from the
        oracle's, so the features agree to rounding."""
        rng = np.random.default_rng(seed)
        bitmap = rng.uniform(-1.0, 1.0, size=(GLYPH_SIZE, GLYPH_SIZE))
        np.testing.assert_allclose(raw_features(bitmap),
                                   _reference_features(bitmap), atol=1e-12)

    def test_kernels_are_zero_sum_and_antisymmetric(self):
        assert benchmark._KERNELS.shape == (len(DIRECTIONS), 3, 3)
        for kernel in benchmark._KERNELS:
            assert kernel.sum() == 0.0
            np.testing.assert_array_equal(np.rot90(kernel, 2), -kernel)


class TestPooling:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.booleans(), min_size=GLYPH_SIZE ** 2,
                    max_size=GLYPH_SIZE ** 2).filter(any))
    def test_matches_block_means(self, bits):
        """On a binary bitmap every sum is an exact integer, so the
        features equal the oracle's bit for bit."""
        bitmap = np.array(bits, dtype=float).reshape(GLYPH_SIZE, GLYPH_SIZE)
        assert np.array_equal(raw_features(bitmap),
                              _reference_features(bitmap))


def _stroke(kind):
    bitmap = np.zeros((GLYPH_SIZE, GLYPH_SIZE))
    span = np.arange(2, 14)
    if kind == "vertical":
        bitmap[span, 7] = 1.0
    elif kind == "horizontal":
        bitmap[7, span] = 1.0
    elif kind == "diag_neg":  # top-left to bottom-right
        bitmap[span, span] = 1.0
    elif kind == "diag_pos":  # bottom-left to top-right
        bitmap[span, 15 - span] = 1.0
    return bitmap


_ORTHOGONAL = {
    "horizontal": "vertical",
    "vertical": "horizontal",
    "diag_pos": "diag_neg",
    "diag_neg": "diag_pos",
}


class TestFeatures:
    def test_feature_layout(self, corpus):
        f = raw_features(corpus.glyphs[0].bitmap)
        assert f.shape == (FEATURE_COUNT,)
        assert (f >= 0.0).all()

    @pytest.mark.parametrize("orientation", DIRECTIONS)
    def test_directional_selectivity(self, orientation):
        """A straight stroke lights up its own band most, its orthogonal
        band least."""
        bands = raw_features(_stroke(orientation)).reshape(len(DIRECTIONS), -1)
        sums = dict(zip(DIRECTIONS, bands.sum(axis=1)))
        assert max(sums, key=sums.get) == orientation
        assert min(sums, key=sums.get) == _ORTHOGONAL[orientation]

    def test_translation_by_one_pool_cell_permutes_features(self):
        """Shifting a stroke by a whole pooling cell relocates pooled
        responses without changing their values."""
        a = np.zeros((GLYPH_SIZE, GLYPH_SIZE))
        b = np.zeros((GLYPH_SIZE, GLYPH_SIZE))
        a[2:14, 5] = 1.0
        b[2:14, 9] = 1.0
        fa = raw_features(a).reshape(len(DIRECTIONS), -1)
        fb = raw_features(b).reshape(len(DIRECTIONS), -1)
        for band_a, band_b in zip(fa, fb):
            np.testing.assert_allclose(
                np.sort(band_a), np.sort(band_b), atol=1e-12
            )

    def test_uniform_ink_has_no_interior_response(self):
        """Gradient kernels see nothing inside a solid block, so the four
        central pooling cells stay exactly zero."""
        cells = raw_features(np.ones((GLYPH_SIZE, GLYPH_SIZE)))
        cells = cells.reshape(len(DIRECTIONS), POOL_GRID, POOL_GRID)
        np.testing.assert_array_equal(cells[:, 1:3, 1:3], 0.0)

    def test_blank_glyph_rejected(self):
        with pytest.raises(DomainError):
            raw_features(np.zeros((GLYPH_SIZE, GLYPH_SIZE)))

    def test_wrong_shape_rejected(self):
        with pytest.raises(DomainError):
            raw_features(np.ones((8, 8)))

    def test_normalization_preserves_ordering(self, corpus, monkeypatch):
        raw = raw_features(corpus.glyphs[3].bitmap)
        monkeypatch.setattr(benchmark, "_stored_feature_scale",
                            lambda: 2.0 * raw.max())
        scaled = extract_features(corpus.glyphs[3].bitmap)
        np.testing.assert_array_equal(np.argsort(raw), np.argsort(scaled))
        np.testing.assert_allclose(scaled, raw / (2.0 * raw.max()))

    def test_strong_responses_clip_to_one(self, corpus):
        """Ink darker than a binary glyph's responds beyond the stored
        scale and saturates at 1."""
        bitmap = 2.0 * corpus.glyphs[0].bitmap
        assert raw_features(bitmap).max() > benchmark._stored_feature_scale()
        f = extract_features(bitmap)
        assert f.max() == 1.0
        assert (f <= 1.0).all()

    def test_default_scale_reproduces_corpus_features(self, corpus):
        got = np.stack([extract_features(g.bitmap) for g in corpus.glyphs])
        np.testing.assert_array_equal(got, corpus.features)

    def test_bad_scale_rejected(self, corpus, monkeypatch):
        for scale in (0.0, -1.0, np.inf, np.nan):
            monkeypatch.setattr(benchmark, "_stored_feature_scale",
                                lambda: scale)
            with pytest.raises(ConfigError):
                extract_features(corpus.glyphs[0].bitmap)


class TestGlyph:
    def test_parse_roundtrip(self):
        text = "\n".join(
            "#" * GLYPH_SIZE if i in (0, 15) else
            "#" + "." * 14 + "#" for i in range(GLYPH_SIZE)
        )
        glyph = parse_glyph(text, "O")
        assert glyph.letter == "O"
        assert glyph.bitmap.sum() == 2 * GLYPH_SIZE + 2 * (GLYPH_SIZE - 2)

    def test_parse_rejects_bad_row_count(self):
        with pytest.raises(ConfigError):
            parse_glyph("#" * GLYPH_SIZE, "A")

    def test_parse_rejects_bad_characters(self):
        rows = ["." * GLYPH_SIZE] * GLYPH_SIZE
        rows[4] = "." * 15 + "x"
        with pytest.raises(ConfigError):
            parse_glyph("\n".join(rows), "A")

    def test_glyph_rejects_bad_letter(self):
        with pytest.raises(ConfigError):
            Glyph(letter="a", bitmap=np.zeros((GLYPH_SIZE, GLYPH_SIZE)))

    def test_glyph_rejects_non_binary_bitmap(self):
        with pytest.raises(ConfigError):
            Glyph(letter="A", bitmap=np.full((GLYPH_SIZE, GLYPH_SIZE), 0.5))


class TestCorpus:
    def test_full_alphabet_in_order(self, corpus):
        assert corpus.letters == tuple(chr(c) for c in range(65, 91))
        assert len(corpus.glyphs) == 26
        np.testing.assert_array_equal(corpus.labels, np.arange(26))

    def test_features_normalized(self, corpus):
        assert corpus.features.shape == (26, FEATURE_COUNT)
        assert corpus.features.min() >= 0.0
        assert corpus.features.max() <= 1.0

    def test_stored_scale_covers_corpus(self, corpus):
        stored = benchmark._stored_feature_scale()
        computed = corpus_feature_scale(list(corpus.glyphs))
        assert stored >= computed
        assert computed == pytest.approx(stored, rel=1e-12)

    def test_letters_are_well_separated(self, corpus):
        dist = np.linalg.norm(
            corpus.features[:, None] - corpus.features[None, :], axis=2
        )
        np.fill_diagonal(dist, np.inf)
        assert dist.min() > 0.5

    def test_features_pinned(self, corpus):
        """SHA-256 of the corpus features as little-endian float64 in C
        order; any change to extraction or to the stored scale moves it."""
        data = np.ascontiguousarray(corpus.features, dtype="<f8").tobytes()
        assert hashlib.sha256(data).hexdigest() == (
            "7f2a03f585f6e076d3fab705ffdf44ec0e009f47bd0b1d46f2a9f1aec20d3eed")

    def test_dataset_view(self, corpus):
        ds = corpus.dataset
        assert ds.n_classes == 26
        np.testing.assert_array_equal(ds.features, corpus.features)


class _TableNet:
    """Fake network: answers each corpus letter with a fixed matrix row,
    with frozen Gaussian perturbations standing in for device variation."""

    def __init__(self, matrix, features):
        self.matrix = matrix
        self.features = features

    def forward(self, f):
        """Rows of `matrix` for one feature vector or a batch of them,
        with no ledger; a stacked fake answers from each of its
        matrices."""
        dist = np.abs(self.features - np.asarray(f)[..., None, :]).sum(axis=-1)
        return self.matrix[..., np.argmin(dist, axis=-1), :], None

    def with_variation(self, sigma, seeds):
        """A stacked fake, one perturbed copy of `matrix` per seed."""
        return _TableNet(np.stack([
            self.matrix
            + sigma * np.random.default_rng(s).standard_normal(
                self.matrix.shape)
            for s in seeds]), self.features)


class TestEvaluate:
    def test_perfect_network_scores_perfectly(self, corpus):
        result = evaluate(_TableNet(np.eye(26), corpus.features), corpus)
        assert result.accuracy == 1.0
        assert result.correct.all()
        np.testing.assert_allclose(result.margins, 1.0)
        assert result.min_margin == 1.0

    def test_ties_count_as_failures(self, corpus):
        result = evaluate(_TableNet(np.ones((26, 26)), corpus.features),
                          corpus)
        assert result.accuracy == 0.0
        assert not result.correct.any()

    def test_misclassification_gives_negative_margin(self, corpus):
        matrix = np.eye(26)
        matrix[4, 9] = 2.0
        result = evaluate(_TableNet(matrix, corpus.features), corpus)
        assert not result.correct[4]
        assert result.margins[4] < 0.0
        assert result.correct.sum() == 25
        assert result.accuracy == pytest.approx(25 / 26)

    def test_normalization_preserves_winners(self, corpus):
        rng = np.random.default_rng(11)
        matrix = rng.uniform(-2.0, 3.0, size=(26, 26))
        result = evaluate(_TableNet(matrix, corpus.features), corpus)
        np.testing.assert_array_equal(
            result.matrix.argmax(axis=1), result.raw_matrix.argmax(axis=1)
        )
        assert result.matrix.min() == 0.0
        assert result.matrix.max() == 1.0

    def test_wrong_output_shape_rejected(self, corpus):
        with pytest.raises(ConfigError):
            evaluate(SimpleNamespace(forward=lambda f: (np.zeros(25), None)),
                     corpus)

    def test_non_network_rejected(self, corpus):
        with pytest.raises(ConfigError):
            evaluate(object(), corpus)
        with pytest.raises(ConfigError):
            evaluate(lambda f: np.eye(26)[0], corpus)

    def test_to_dict_summary(self, corpus):
        payload = evaluate(
            _TableNet(np.eye(26), corpus.features), corpus
        ).to_dict()
        assert payload["n_correct"] == 26
        assert payload["n_letters"] == 26
        assert len(payload["matrix"]) == 26


class TestMonteCarlo:
    def test_zero_sigma_trials_are_identical(self, corpus):
        net = _TableNet(np.eye(26), corpus.features)
        mc = monte_carlo(net, corpus, trials=8, sigma=0.0, seed=5)
        np.testing.assert_array_equal(mc.accuracies, 1.0)
        np.testing.assert_array_equal(mc.min_margins, mc.min_margins[0])
        assert mc.fully_correct_fraction == 1.0
        np.testing.assert_array_equal(mc.letter_error_rate, 0.0)

    def test_repeat_runs_are_bit_identical(self, corpus):
        net = _TableNet(np.eye(26), corpus.features)
        a = monte_carlo(net, corpus, trials=12, sigma=0.1, seed=9)
        b = monte_carlo(net, corpus, trials=12, sigma=0.1, seed=9)
        np.testing.assert_array_equal(a.accuracies, b.accuracies)
        np.testing.assert_array_equal(a.min_margins, b.min_margins)
        assert a.margin_percentiles == b.margin_percentiles

    def test_seed_changes_draws(self, corpus):
        net = _TableNet(np.eye(26), corpus.features)
        a = monte_carlo(net, corpus, trials=12, sigma=0.1, seed=9)
        b = monte_carlo(net, corpus, trials=12, sigma=0.1, seed=10)
        assert not np.array_equal(a.min_margins, b.min_margins)

    def test_margins_shrink_with_variation(self, corpus):
        net = _TableNet(np.eye(26), corpus.features)
        means = [
            monte_carlo(net, corpus, trials=25, sigma=s, seed=3).margin_mean
            for s in (0.0, 0.02, 0.3)
        ]
        assert means[0] > means[1] > means[2]

    def test_percentiles_ordered(self, corpus):
        net = _TableNet(np.eye(26), corpus.features)
        mc = monte_carlo(net, corpus, trials=30, sigma=0.2, seed=1)
        p = mc.margin_percentiles
        assert p["p5"] <= p["p50"] <= p["p95"]
        assert mc.margin_min <= p["p5"]

    def test_validation(self, corpus):
        net = _TableNet(np.eye(26), corpus.features)
        with pytest.raises(ConfigError):
            monte_carlo(net, corpus, trials=0, sigma=0.1)
        with pytest.raises(ConfigError):
            monte_carlo(net, corpus, trials=5, sigma=-0.1)
        with pytest.raises(ConfigError):
            monte_carlo(lambda f: f, corpus, trials=5, sigma=0.1)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, corpus, sigma):
        net = _TableNet(np.eye(26), corpus.features)
        with pytest.raises(ConfigError):
            monte_carlo(net, corpus, trials=5, sigma=sigma)

    def test_wilson_interval_known_case(self):
        lo, hi = wilson_interval(993, 1000)
        assert round(100 * lo, 1) == 98.6 and round(100 * hi, 1) == 99.7
        np.testing.assert_allclose(
            wilson_interval(np.array([993, 7]), 1000),
            [[lo, hi], [1.0 - hi, 1.0 - lo]], rtol=1e-12)
        assert wilson_interval(0, 4000)[0] >= 0.0
        assert wilson_interval(4000, 4000)[1] == 1.0

    def test_intervals_reported(self, corpus):
        matrix = np.eye(26)
        matrix[4, 9] = 0.99
        mc = monte_carlo(_TableNet(matrix, corpus.features), corpus,
                         trials=40, sigma=0.02, seed=4)
        fails = 40 - round(mc.fully_correct_fraction * 40)
        assert 0 < fails < 40
        lo, hi = mc.fully_correct_interval
        assert lo < mc.fully_correct_fraction < hi
        assert mc.letter_error_interval.shape == (26, 2)
        np.testing.assert_allclose(
            mc.letter_error_interval,
            wilson_interval(mc.letter_error_rate * 40, 40), rtol=1e-12)
        payload = mc.to_dict()
        assert payload["fully_correct_interval"] == [lo, hi]
        assert payload["letter_error_interval"] == \
            mc.letter_error_interval.tolist()


class TestRecognizerRecipe:
    def test_hidden_width_constant(self):
        assert HIDDEN_NEURONS == 5

    def test_schedule_structure(self):
        base, harden, refine = recognizer_configs(seed=17)
        assert base.train_sigma == 0.0
        assert harden.train_sigma > 0.0
        assert refine.train_sigma == harden.train_sigma
        assert base.seed == harden.seed == refine.seed == 17
        assert refine.learning_rate < harden.learning_rate

    def test_trained_recognizer_fits_corpus(self, recognizer, corpus):
        assert recognizer.converged
        assert recognizer.accuracy == 1.0
        assert recognizer.w1.shape == (FEATURE_COUNT + 1, HIDDEN_NEURONS)
        assert recognizer.w2.shape == (HIDDEN_NEURONS + 1, 26)

    def test_matches_stored_seed17_recognizer(self, recognizer):
        """The recipe still trains exactly the recognizer the benchmark
        stores, so a change to training that moves its answers fails here."""
        stored = load_weights(STORED_RECOGNIZER)
        assert np.array_equal(recognizer.w1, stored.w1)
        assert np.array_equal(recognizer.w2, stored.w2)
        assert recognizer.accuracy == stored.accuracy
        assert recognizer.epochs_run == stored.epochs_run

    def test_weights_lie_on_level_grid(self, recognizer):
        for w in (recognizer.w1, recognizer.w2):
            snapped, _ = quantize_weights(w, 32)
            assert np.abs(snapped - w).max() < 1e-12

    def test_hardware_network_reads_all_letters(self, recognizer, corpus):
        network = build_network(recognizer)
        result = evaluate(network, corpus)
        assert result.correct.all()
        assert result.min_margin > 0.0

    def test_monte_carlo_matches_per_letter_evaluation(self, recognizer,
                                                       corpus):
        """Blocked trials (two full blocks and a partial one) score
        exactly as `evaluate` on each trial's perturbed copy, drawn from
        the same spawned seed."""
        network = build_network(recognizer)
        seed, trials = 2, 2 * MC_BLOCK_TRIALS + 6
        mc = monte_carlo(network, corpus, trials, sigma=0.05, seed=seed)
        oracle = [
            evaluate(network.with_variation(0.05, seed=int(
                np.random.SeedSequence([seed, t]).generate_state(1)[0])),
                corpus)
            for t in range(trials)
        ]
        np.testing.assert_array_equal(
            mc.accuracies, [r.accuracy for r in oracle])
        np.testing.assert_array_equal(
            mc.min_margins, [r.min_margin for r in oracle])
        np.testing.assert_array_equal(
            mc.letter_error_rate,
            1.0 - sum(r.correct for r in oracle) / trials)

    def test_survives_conductance_variation(self, recognizer, corpus):
        network = build_network(recognizer)
        mc = monte_carlo(network, corpus, trials=100, sigma=0.05, seed=0)
        assert mc.fully_correct_fraction >= 0.95

    # SHA-256 of (w1, w2), epochs_run and accuracy after each stage of a
    # 60/20/20-epoch run of the seed-17 schedule.
    SHORT_GOLDEN = {
        "base": (
            "22eba0b559887efaf7881137491e9a079a61b881aa91615a72403bc1f2fcfae5",
            "43fa58be34aa6a955761a936455d5224da25b1213677f0e70cf0e0a46d4e1e4d",
            60, 12 / 26),
        "harden": (
            "f7371544b3cc89728c8dea611cc2b1987c465c0da480d364c992e0a774623330",
            "e06cf5d49a24f0fb2d587d707200573c30db956b2df9fb5b9920c723fbaee03d",
            20, 16 / 26),
        "refine": (
            "022c2e1334ba7227d5da01e96895f13bf5ba567992d94685b45ec9dd9dbeb995",
            "774f5b3b936f2252b6ae16892dfb8f8c0860555ca64e77eedbba1e397112c57d",
            20, 16 / 26),
    }

    def test_short_schedule_pinned(self, corpus):
        """A short run of all three stages trains exactly the pinned
        weights, so a change to the noise-aware float and grid paths
        fails here in well under a second, not only in the full recipe."""
        base, harden, refine = recognizer_configs(seed=17)
        data = corpus.dataset
        floated = train(data, HIDDEN_NEURONS, TransferKind.stt_snn(),
                        replace(base, epochs=60))
        hardened = finalize(floated, data, levels=None,
                            cfg=replace(harden, epochs=20))
        refined = finalize(hardened, data, levels=32,
                           cfg=replace(refine, epochs=20))
        for name, res in (("base", floated), ("harden", hardened),
                          ("refine", refined)):
            digests = tuple(hashlib.sha256(np.ascontiguousarray(
                w, dtype="<f8").tobytes()).hexdigest()
                for w in (res.w1, res.w2))
            assert (*digests, res.epochs_run, res.accuracy) == \
                self.SHORT_GOLDEN[name], name


class TestComparisonConfigs:
    def test_covers_all_transfer_kinds(self):
        configs = comparison_configs()
        assert set(configs) == {"stt_snn", "sigmoid", "sat_linear", "step"}
        for name, (kind, cfg) in configs.items():
            assert kind.tag == name
            assert cfg.positive_weight == 25.0

    def test_unbounded_kinds_get_wider_clip(self):
        configs = comparison_configs()
        assert configs["sigmoid"][1].weight_clip > \
            configs["stt_snn"][1].weight_clip

    # SHA-256 of (w1, w2) after a short run of each kind's recipe; the
    # step run stalls long enough to fire a plateau kick.
    GOLDEN = {
        "stt_snn": (
            "41bf9b162665ceb6301d49d67dba2617"
            "83a276e8243336174d9108ab7f847c31",
            "a8a56e156668b75d279951ec16833e82"
            "e1751ed1da3b7e039db5ffce1e681d3f"),
        "sigmoid": (
            "bd0ac84b40ed9bca6a16864ea6eb8480"
            "d605bfcb948fed3e64136c4c00af33b7",
            "59fbde6372fa80a672f087e0353f3c69"
            "50fc5fb8fd6b14395b5b33bc33ff8d4e"),
        "sat_linear": (
            "9dc5774fc9cb2551f359989f287854cc"
            "7f59822e186777d4cbee7f994997d9e8",
            "ad1fe8ecfb38b9d4ea0d45581d5cd10e"
            "a2628cc02c1f509a9e9200bdfcf54832"),
        "step": (
            "8764de4e1c572039553aedd0126ed80a"
            "cacaaae96deae6f1ac422e6df53e4862",
            "ca4f0e14cfea954ebc592a44bb5a9340"
            "6c2c2b613aed3cc1c25866b26210276a"),
    }

    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_short_run_weights_pinned(self, name, corpus):
        """Each recipe trains exactly the pinned weights, so a change to
        the trainer's sigmoid, sat_linear or step path fails here."""
        kind, cfg = comparison_configs()[name]
        res = train(corpus.dataset, 5, kind,
                    replace(cfg, epochs=400, kick_patience=50))
        digests = tuple(hashlib.sha256(np.ascontiguousarray(
            w, dtype="<f8").tobytes()).hexdigest() for w in (res.w1, res.w2))
        assert digests == self.GOLDEN[name]

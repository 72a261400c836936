"""Feature extraction, corpus, evaluation, and recognizer recipe tests."""

import dataclasses
import hashlib
import json
from dataclasses import replace
from importlib import resources
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
    FEATURE_SCALE,
    GLYPH_SIZE,
    HIDDEN_NEURONS,
    MC_BLOCK_TRIALS,
    POOL_GRID,
    Corpus,
    EvaluationResult,
    Glyph,
    MonteCarloResult,
    compare_transfer_kinds,
    comparison_configs,
    evaluate,
    extract_features,
    monte_carlo,
    parse_glyph,
    raw_features,
    recognizer_configs,
    wilson_interval,
)
from spinann.crossbar import perturb
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
        """A blank bitmap has no ink, and a NaN or inf one would give NaN
        features."""
        for fill in (0.0, np.nan, np.inf, -np.inf):
            bitmap = np.full((GLYPH_SIZE, GLYPH_SIZE), fill)
            with pytest.raises(DomainError):
                raw_features(bitmap)
            with pytest.raises(DomainError):
                extract_features(bitmap)

    def test_wrong_shape_rejected(self):
        with pytest.raises(DomainError):
            raw_features(np.ones((8, 8)))

    def test_normalization_preserves_ordering(self, corpus):
        """A corpus glyph stays below FEATURE_SCALE, so its features are
        its raw responses divided by it, in the same order."""
        raw = raw_features(corpus.glyphs[3].bitmap)
        scaled = extract_features(corpus.glyphs[3].bitmap)
        np.testing.assert_array_equal(np.argsort(raw), np.argsort(scaled))
        np.testing.assert_array_equal(scaled, raw / FEATURE_SCALE)

    def test_strong_responses_clip_to_one(self, corpus):
        """Ink darker than a binary glyph's responds beyond FEATURE_SCALE
        and saturates at 1."""
        bitmap = 2.0 * corpus.glyphs[0].bitmap
        assert raw_features(bitmap).max() > FEATURE_SCALE
        f = extract_features(bitmap)
        assert f.max() == 1.0
        assert (f <= 1.0).all()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.booleans(), min_size=GLYPH_SIZE ** 2,
                    max_size=GLYPH_SIZE ** 2).filter(any),
           st.sampled_from([1.0, 2.0, 4.0]))
    def test_matches_clipped_raw_features(self, bits, ink):
        """Normalizing and clipping equals `np.clip` of the raw features
        bit for bit. A unit-ink random bitmap stays below FEATURE_SCALE;
        darker ink saturates, so the upper bound bites too."""
        bitmap = ink * np.array(bits, dtype=float).reshape(GLYPH_SIZE,
                                                           GLYPH_SIZE)
        assert np.array_equal(
            extract_features(bitmap),
            np.clip(raw_features(bitmap) / FEATURE_SCALE, 0.0, 1.0))

    def test_default_scale_reproduces_corpus_features(self, corpus):
        got = np.stack([extract_features(g.bitmap) for g in corpus.glyphs])
        np.testing.assert_array_equal(got, corpus.features)


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

    @pytest.mark.parametrize("fill", [np.nan, np.inf, -1.0, 2.0])
    def test_glyph_rejects_any_other_value(self, fill):
        bitmap = np.zeros((GLYPH_SIZE, GLYPH_SIZE))
        bitmap[3, 5] = fill
        with pytest.raises(ConfigError):
            Glyph(letter="A", bitmap=bitmap)

    def test_parse_matches_per_character_reading(self, corpus):
        """Every packaged glyph parses to the bitmap a character-by-
        character reading of its rows gives, as float64."""
        base = resources.files("spinann.data").joinpath("glyphs")
        for glyph in corpus.glyphs:
            text = base.joinpath(f"{glyph.letter}.txt").read_text()
            rows = [line for line in text.splitlines() if line.strip()]
            want = np.array([[1.0 if ch == "#" else 0.0 for ch in line]
                             for line in rows])
            got = parse_glyph(text, glyph.letter).bitmap
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)


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
        """FEATURE_SCALE is the corpus's largest raw response, exactly."""
        computed = max(raw_features(g.bitmap).max() for g in corpus.glyphs)
        assert FEATURE_SCALE == computed

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

    # One layer, so `monte_carlo` gives it one noise stream.
    layers = (None,)

    def with_streams(self, sigma, rngs, copies):
        """A stacked fake: `copies` perturbed copies of `matrix`, their
        noise drawn in copy order from the one layer's generator."""
        (rng,) = rngs
        return _TableNet(self.matrix + sigma * rng.standard_normal(
            (copies,) + self.matrix.shape), self.features)


def _stream_oracle(network, corpus, trials, sigma, seed):
    """`evaluate` on each trial's clone, one at a time: layer idx of
    trial t is perturbed with row t of
    `default_rng([seed, idx]).standard_normal((trials, cells))`."""
    noise = [np.random.default_rng([seed, idx]).standard_normal(
        (trials, layer.array.g.size + layer.array.dummy.size))
        for idx, layer in enumerate(network.layers)]
    return [evaluate(replace(network, layers=[
        replace(layer, array=perturb(layer.array, sigma, z[t]))
        for layer, z in zip(network.layers, noise)]), corpus)
        for t in range(trials)]


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

    def test_least_win_counts_and_tie_fails(self, corpus):
        """A letter whose diagonal wins its row by 1e-9 is correct; one
        tied with another column is not."""
        matrix = np.eye(26)
        matrix[4, 9] = 1.0 - 1e-9
        matrix[5, 2] = 1.0
        result = evaluate(_TableNet(matrix, corpus.features), corpus)
        assert result.correct[4] and not result.correct[5]
        assert result.correct.sum() == 25

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
        for trials in (0, 2.5, 3.0, True, "5", None):
            with pytest.raises(ConfigError):
                monte_carlo(net, corpus, trials=trials, sigma=0.1)
        assert monte_carlo(net, corpus, trials=np.int64(3),
                           sigma=0.1).trials == 3
        with pytest.raises(ConfigError):
            monte_carlo(net, corpus, trials=5, sigma=-0.1)
        with pytest.raises(ConfigError):
            monte_carlo(lambda f: f, corpus, trials=5, sigma=0.1)

    @pytest.mark.parametrize("sigma", [True, np.True_])
    def test_bool_sigma_rejected(self, corpus, sigma):
        """A bool is no spread; taken as a number it would run at 1."""
        net = _TableNet(np.eye(26), corpus.features)
        with pytest.raises(ConfigError):
            monte_carlo(net, corpus, trials=5, sigma=sigma)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, corpus, sigma):
        net = _TableNet(np.eye(26), corpus.features)
        with pytest.raises(ConfigError):
            monte_carlo(net, corpus, trials=5, sigma=sigma)

    def test_least_win_counts_and_tie_fails(self, corpus):
        """At sigma 0 every trial scores the unperturbed matrix: the
        letter that wins by 1e-9 never errs, the tied one always does."""
        matrix = np.eye(26)
        matrix[4, 9] = 1.0 - 1e-9
        matrix[5, 2] = 1.0
        mc = monte_carlo(_TableNet(matrix, corpus.features), corpus,
                         trials=3, sigma=0.0)
        assert mc.letter_error_rate[4] == 0.0
        assert mc.letter_error_rate[5] == 1.0
        np.testing.assert_array_equal(mc.accuracies, 25 / 26)

    @pytest.mark.parametrize("k, n", [
        (0, 1), (1, 1), (0, 10), (1, 10), (3, 7), (1, 1000), (7, 1000),
        (500, 1000), (993, 1000), (20, 20)])
    def test_wilson_interval_solves_score_quadratic(self, k, n):
        """The bounds are the two roots of (k/n - p)^2 = z^2 p (1 - p) / n,
        solved here in the stable form that takes the small root as
        c / q."""
        p_hat, z2 = k / n, 1.959963984540054 ** 2
        a, b, c = 1.0 + z2 / n, -(2.0 * p_hat + z2 / n), p_hat ** 2
        q = 0.5 * (-b + np.sqrt(b * b - 4.0 * a * c))
        np.testing.assert_allclose(wilson_interval(k, n), [c / q, q / a],
                                   rtol=1e-12, atol=0.0)

    def test_reports_are_json_with_numpy_inputs(self, recognizer, corpus):
        """The evaluation, Monte-Carlo and energy dicts are plain JSON
        when the counts, seed, spread and features are numpy scalars and
        float32 arrays."""
        net = build_network(recognizer)
        numpy_corpus = replace(corpus,
                               features=corpus.features.astype(np.float32))
        mc = monte_carlo(net, numpy_corpus, trials=np.int64(3),
                         sigma=np.float32(0.05), seed=np.int64(2))
        reports = (evaluate(net, numpy_corpus), mc,
                   net.forward(numpy_corpus.features)[1])
        for report in reports:
            json.dumps(report.to_dict())
        assert (type(mc.trials), type(mc.sigma), type(mc.seed)) == \
            (int, float, int)

    def test_wilson_interval_known_case(self):
        lo, hi = wilson_interval(993, 1000)
        assert round(100 * lo, 1) == 98.6 and round(100 * hi, 1) == 99.7
        np.testing.assert_allclose(
            wilson_interval(np.array([993, 7]), 1000),
            [[lo, hi], [1.0 - hi, 1.0 - lo]], rtol=1e-12)
        for n in range(1, 2001):
            assert wilson_interval(0, n)[0] == 0.0
            assert wilson_interval(n, n)[1] == 1.0

    @pytest.mark.parametrize("successes, n", [
        (0, 0), (5, 3), (-1, 10), (np.nan, 10), (np.inf, 10), (3, np.nan),
        (3, np.inf), ([1, 11], 10), (0.5, 0.5), (1, True), (1, np.True_)])
    def test_wilson_interval_refuses_impossible_counts(self, successes, n):
        with pytest.raises(DomainError):
            wilson_interval(successes, n)

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


def _json_sha256(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestStoredResults:
    """Both results keep only their margins (with the responses or the
    study's settings) and derive every statistic; the documents of the
    stored recognizer are pinned bit for bit."""

    @pytest.fixture(scope="class")
    def network(self):
        return build_network(load_weights(STORED_RECOGNIZER))

    def test_only_margins_are_stored(self):
        assert [f.name for f in dataclasses.fields(EvaluationResult)] == [
            "matrix", "raw_matrix", "margins"]
        assert [f.name for f in dataclasses.fields(MonteCarloResult)] == [
            "sigma", "seed", "margins"]

    def test_evaluation_document_pinned(self, network, corpus):
        assert _json_sha256(evaluate(network, corpus)) == (
            "b1a8c214503659c4c9a80e13a01ee005"
            "d56b655ba33ed5de526f40781162b52a")

    def test_monte_carlo_document_pinned(self, network, corpus):
        mc = monte_carlo(network, corpus, 70, sigma=0.08, seed=0)
        assert mc.margins.shape == (mc.trials, 26) == (70, 26)
        assert _json_sha256(mc) == ("e56502a1163ae4b17d4947f2ddf073e2"
                                    "7132663c9f3d2b5fef3b2610103eaf43")


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
        row t of each layer's stream."""
        network = build_network(recognizer)
        seed, trials = 2, 2 * MC_BLOCK_TRIALS + 6
        mc = monte_carlo(network, corpus, trials, sigma=0.05, seed=seed)
        oracle = _stream_oracle(network, corpus, trials, 0.05, seed)
        np.testing.assert_array_equal(mc.margins, [r.margins for r in oracle])
        np.testing.assert_array_equal(
            mc.accuracies, [r.accuracy for r in oracle])
        np.testing.assert_array_equal(
            mc.min_margins, [r.min_margin for r in oracle])
        np.testing.assert_array_equal(
            mc.letter_error_rate,
            1.0 - sum(r.correct for r in oracle) / trials)

    @pytest.mark.parametrize("seed", [2**32, 2**130 + 17])
    def test_wide_seed_matches_per_letter_evaluation(self, recognizer,
                                                     corpus, seed):
        """A seed of several words seeds the layer streams
        `default_rng([seed, idx])` too."""
        network = build_network(recognizer)
        mc = monte_carlo(network, corpus, 3, sigma=0.05, seed=seed)
        np.testing.assert_array_equal(mc.min_margins, [
            r.min_margin
            for r in _stream_oracle(network, corpus, 3, 0.05, seed)])

    def test_shorter_call_is_a_prefix(self, corpus):
        """The first k trials of a longer call are the trials of a
        k-trial call."""
        network = build_network(load_weights(STORED_RECOGNIZER))
        full = monte_carlo(network, corpus, 2 * MC_BLOCK_TRIALS + 6,
                           sigma=0.05, seed=3)
        for k in (1, MC_BLOCK_TRIALS - 5, MC_BLOCK_TRIALS + 1):
            mc = monte_carlo(network, corpus, k, sigma=0.05, seed=3)
            np.testing.assert_array_equal(mc.min_margins,
                                          full.min_margins[:k])
            np.testing.assert_array_equal(mc.accuracies, full.accuracies[:k])

    def test_block_size_does_not_move_trials(self, corpus, monkeypatch):
        network = build_network(load_weights(STORED_RECOGNIZER))
        want = monte_carlo(network, corpus, 40, sigma=0.05, seed=6)
        monkeypatch.setattr(benchmark, "MC_BLOCK_TRIALS", 5)
        got = monte_carlo(network, corpus, 40, sigma=0.05, seed=6)
        np.testing.assert_array_equal(got.min_margins, want.min_margins)
        np.testing.assert_array_equal(got.letter_error_rate,
                                      want.letter_error_rate)

    def test_one_generator_per_layer_per_call(self, corpus, monkeypatch):
        """A call makes one noise generator per layer, whatever its
        number of trials and blocks."""
        network = build_network(load_weights(STORED_RECOGNIZER))
        made, real = [], np.random.default_rng

        def counted(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(np.random, "default_rng", counted)
        for trials in (1, MC_BLOCK_TRIALS, MC_BLOCK_TRIALS + 1, 200):
            made.clear()
            monte_carlo(network, corpus, trials, sigma=0.05, seed=4)
            assert made == [([4, 0],), ([4, 1],)]

    @pytest.mark.parametrize("seed, error", [(-1, ValueError),
                                             (2.0, TypeError),
                                             (True, TypeError)])
    def test_bad_seed_rejected(self, recognizer, corpus, seed, error):
        with pytest.raises(error):
            monte_carlo(build_network(recognizer), corpus, 3, sigma=0.05,
                        seed=seed)

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

    @pytest.mark.parametrize("n_letters, want", [
        (2, {"stt_snn": (1, 1, 665), "sigmoid": (1, 1, 2),
             "sat_linear": (1, 1, 21), "step": (1, 1, 1236)}),
        # Restarts and a step up in size: stt_snn and sat_linear converge
        # on their second run, step only at two hidden neurons.
        (3, {"stt_snn": (1, 2, 20), "sigmoid": (1, 1, 18),
             "sat_linear": (1, 2, 12), "step": (2, 3, 1870)}),
    ], ids=["AB", "ABC"])
    def test_small_comparison_pinned(self, corpus, n_letters, want):
        """The whole search on the first letters: per kind, the hidden
        size found, the runs spent and the winning run's epochs."""
        few = Corpus(letters=corpus.letters[:n_letters],
                     glyphs=corpus.glyphs[:n_letters],
                     features=corpus.features[:n_letters],
                     labels=np.arange(n_letters))
        found = compare_transfer_kinds(few, restarts=2, max_hidden=4)
        assert {name: (s.n_hidden, s.attempts, s.result.epochs_run)
                for name, s in found.items()} == want

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

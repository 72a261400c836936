"""Character-recognition benchmark on a 26-letter glyph corpus.

Each letter is a 16x16 binary bitmap shipped with the package.  A glyph is
reduced to 64 features by directional edge extraction: the zero-padded
bitmap is correlated in one pass with a stack of four 3x3 edge kernels
(horizontal, vertical, and the two diagonals), the four responses are
rectified, and each is averaged over a 4x4 grid of pooling cells.  Four
directions times sixteen cells give the 64-component feature vector.
Features are normalized by the largest raw response found anywhere in the
canonical corpus, a constant stored next to the glyphs, so extraction is
deterministic and corpus features land in [0, 1].

`evaluate` runs a network over the corpus and builds the 26x26 response
matrix (rows are input letters, columns are output neurons); `monte_carlo`
scores the same matrix for many variation-perturbed copies of the network
and aggregates accuracy and margin statistics, with Wilson score intervals
on the rates. It perturbs, runs and scores its trials in blocks of
`MC_BLOCK_TRIALS`: one `with_variation` call with the block's seeds
stacks the copies, and one batched forward call reads the whole corpus
through all of them.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigError, DomainError, TrainingError
from .trainer import (
    Dataset,
    SearchResult,
    TrainConfig,
    TrainResult,
    TransferKind,
    finalize,
    min_hidden_search,
    own_margins,
    train,
)

__all__ = [
    "HIDDEN_NEURONS",
    "recognizer_configs",
    "train_recognizer",
    "comparison_configs",
    "compare_transfer_kinds",
    "GLYPH_SIZE",
    "POOL_GRID",
    "FEATURE_COUNT",
    "DIRECTIONS",
    "raw_features",
    "extract_features",
    "Glyph",
    "parse_glyph",
    "Corpus",
    "load_corpus",
    "corpus_feature_scale",
    "EvaluationResult",
    "evaluate",
    "MonteCarloResult",
    "MC_BLOCK_TRIALS",
    "monte_carlo",
    "wilson_interval",
]

GLYPH_SIZE = 16
POOL_GRID = 4
FEATURE_COUNT = 64

# Hidden width of the reference recognizer topology (64-5-26).
HIDDEN_NEURONS = 5

# Monte-Carlo trials perturbed and run together. Blocks of 8 or 16 run
# slower; one stack of 200 trials runs no faster and peaks about 6 MB
# higher.
MC_BLOCK_TRIALS = 32

# Two-sided 95% standard-normal quantile of the Wilson score interval.
_Z95 = 1.959963984540054

# Edge-response direction names, in feature order.
DIRECTIONS = ("horizontal", "vertical", "diag_pos", "diag_neg")

# The four 3x3 edge kernels, stacked in DIRECTIONS order. Each is
# antisymmetric under 180-degree rotation, so after rectification the
# flip distinction between correlation and convolution vanishes.
_KERNELS = np.array([
    # Horizontal strokes (intensity gradient down the rows).
    [[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]],
    # Vertical strokes (gradient across the columns).
    [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]],
    # +45 degree diagonal strokes.
    [[-2.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 2.0]],
    # -45 degree diagonal strokes.
    [[0.0, -1.0, -2.0], [1.0, 0.0, -1.0], [2.0, 1.0, 0.0]],
])


def raw_features(bitmap: np.ndarray) -> np.ndarray:
    """Unnormalized 64-component feature vector of a 16x16 bitmap.

    Feature order is direction-major: the 16 pooled cells (row-major) of
    the horizontal response, then vertical, then the two diagonals. On
    an integer-valued bitmap every sum is a small exact integer and each
    cell mean divides by 16, so the result does not depend on the order
    of summation.
    """
    bitmap = np.asarray(bitmap, dtype=float)
    if bitmap.shape != (GLYPH_SIZE, GLYPH_SIZE):
        raise DomainError(
            f"bitmap must be {GLYPH_SIZE}x{GLYPH_SIZE}, got {bitmap.shape}"
        )
    if not bitmap.any():
        raise DomainError("glyph has no ink")
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(bitmap, 1),
                                                       (3, 3))
    response = np.abs(np.tensordot(_KERNELS, windows, axes=([1, 2], [2, 3])))
    cell = GLYPH_SIZE // POOL_GRID
    return response.reshape(len(DIRECTIONS), POOL_GRID, cell, POOL_GRID,
                            cell).mean(axis=(2, 4)).ravel()


@functools.cache
def _stored_feature_scale() -> float:
    ref = resources.files("spinann.data").joinpath("glyphs/normalization.json")
    payload = json.loads(ref.read_text())
    return float(payload["feature_scale"])


def extract_features(bitmap: np.ndarray) -> np.ndarray:
    """Normalized feature vector of a bitmap, clipped to [0, 1].

    Raw responses are divided by the stored corpus-wide maximum raw
    response, so a canonical glyph maps exactly into [0, 1]; inputs with
    stronger edge content than any corpus letter saturate at 1.
    """
    scale = _stored_feature_scale()
    if not np.isfinite(scale) or scale <= 0.0:
        raise ConfigError("feature scale must be positive and finite")
    return np.clip(raw_features(bitmap) / scale, 0.0, 1.0)


@dataclass(frozen=True)
class Glyph:
    """One corpus entry: a letter and its 16x16 binary bitmap."""

    letter: str
    bitmap: np.ndarray

    def __post_init__(self) -> None:
        if len(self.letter) != 1 or not "A" <= self.letter <= "Z":
            raise ConfigError(f"letter must be 'A'..'Z', got {self.letter!r}")
        bitmap = np.asarray(self.bitmap, dtype=float)
        if bitmap.shape != (GLYPH_SIZE, GLYPH_SIZE):
            raise ConfigError(
                f"bitmap must be {GLYPH_SIZE}x{GLYPH_SIZE}, got {bitmap.shape}"
            )
        if not np.isin(bitmap, (0.0, 1.0)).all():
            raise ConfigError("bitmap entries must be 0 or 1")
        object.__setattr__(self, "bitmap", bitmap)


def parse_glyph(text: str, letter: str) -> Glyph:
    """Parse the corpus text format: 16 lines of 16 '.'/'#' characters."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != GLYPH_SIZE:
        raise ConfigError(
            f"glyph {letter!r}: expected {GLYPH_SIZE} rows, got {len(lines)}"
        )
    rows = []
    for i, line in enumerate(lines):
        if len(line) != GLYPH_SIZE or set(line) - {".", "#"}:
            raise ConfigError(f"glyph {letter!r}: bad row {i}: {line!r}")
        rows.append([1.0 if ch == "#" else 0.0 for ch in line])
    return Glyph(letter=letter, bitmap=np.array(rows))


def corpus_feature_scale(glyphs: list[Glyph]) -> float:
    """Largest raw feature value over a set of glyphs."""
    return float(max(raw_features(g.bitmap).max() for g in glyphs))


@dataclass(frozen=True)
class Corpus:
    """The canonical 26-letter corpus with precomputed features."""

    letters: tuple[str, ...]
    glyphs: tuple[Glyph, ...]
    features: np.ndarray
    labels: np.ndarray

    @property
    def dataset(self) -> Dataset:
        return Dataset(
            features=self.features,
            labels=self.labels,
            n_classes=len(self.letters),
        )


def load_corpus() -> Corpus:
    """Load the packaged canonical corpus and extract its features.

    Features are normalized by the stored corpus-wide constant, the one
    `extract_features` applies to every bitmap.
    """
    letters = tuple(chr(c) for c in range(ord("A"), ord("Z") + 1))
    base = resources.files("spinann.data").joinpath("glyphs")
    glyphs = tuple(
        parse_glyph(base.joinpath(f"{letter}.txt").read_text(), letter)
        for letter in letters
    )
    features = np.stack([extract_features(g.bitmap) for g in glyphs])
    return Corpus(
        letters=letters,
        glyphs=glyphs,
        features=features,
        labels=np.arange(len(letters)),
    )


@dataclass(eq=False)
class EvaluationResult:
    """Corpus evaluation: response matrix plus accuracy and margins.

    `matrix[i, j]` is output neuron j's response to input letter i, min-max
    normalized over the whole matrix; `raw_matrix` keeps the unnormalized
    responses.  A letter counts as correct only when its diagonal entry is
    the strict row maximum, so ties are failures.  `margins[i]` is the
    normalized gap between the diagonal and the best off-diagonal entry of
    row i (negative when the letter is misclassified).
    """

    matrix: np.ndarray
    raw_matrix: np.ndarray
    correct: np.ndarray
    accuracy: float
    margins: np.ndarray
    min_margin: float

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "n_correct": int(self.correct.sum()),
            "n_letters": int(self.correct.size),
            "min_margin": self.min_margin,
            "margins": self.margins.tolist(),
            "matrix": self.matrix.tolist(),
        }


def _score(raw: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalize raw response matrices and read the margins off them.

    `raw` is `[..., n, n]`, one matrix per leading index, each min-max
    normalized on its own (all zeros where it is flat). Returns the
    normalized matrices and the margins `[..., n]`: each diagonal entry
    minus its row's best off-diagonal entry, so a letter is correct only
    when the margin is positive and ties fail. Min-max normalization is
    a positive affine map, so it never changes which neuron wins a row.
    """
    if raw.shape[-2:] != (n, n):
        raise ConfigError(
            f"network produced shape {raw.shape}, expected (..., {n}, {n})"
        )
    lo = raw.min(axis=(-2, -1), keepdims=True)
    hi = raw.max(axis=(-2, -1), keepdims=True)
    matrix = np.divide(raw - lo, hi - lo, out=np.zeros_like(raw),
                       where=hi > lo)
    return matrix, own_margins(matrix, np.arange(n))


def evaluate(network, corpus: Corpus) -> EvaluationResult:
    """Run every corpus letter through a network and score the responses.

    `network` exposes ``forward(features)``, which is called once per
    letter with one feature vector and returns `(responses, ledger)`,
    as `SpinAnnNetwork.forward` does; only the responses are read.
    """
    if not hasattr(network, "forward"):
        raise ConfigError("network must expose forward(features)")
    raw = np.stack([network.forward(f)[0] for f in corpus.features])
    matrix, margins = _score(raw, len(corpus.letters))
    correct = margins > 0.0
    return EvaluationResult(
        matrix=matrix,
        raw_matrix=raw,
        correct=correct,
        accuracy=float(correct.mean()),
        margins=margins,
        min_margin=float(margins.min()),
    )


def wilson_interval(successes, n: int) -> np.ndarray:
    """Wilson score 95% interval of a binomial rate, `[..., 2]`.

    `successes` is a count or an array of counts out of `n` trials; the
    result holds the lower and upper bounds in its last axis, clipped to
    [0, 1] against rounding at the ends.
    """
    p = np.asarray(successes, dtype=float) / n
    z2 = _Z95 * _Z95
    center = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = _Z95 * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    return np.clip(np.stack([center - half, center + half], axis=-1),
                   0.0, 1.0)


@dataclass(eq=False)
class MonteCarloResult:
    """Aggregate statistics over variation-perturbed evaluation trials.

    `fully_correct_interval` (lower, upper) and `letter_error_interval`
    (`[n_letters, 2]`) are Wilson score 95% intervals of
    `fully_correct_fraction` and of each `letter_error_rate`.
    """

    trials: int
    sigma: float
    seed: int
    accuracies: np.ndarray
    min_margins: np.ndarray
    letter_error_rate: np.ndarray
    fully_correct_fraction: float
    margin_min: float
    margin_mean: float
    fully_correct_interval: tuple[float, float]
    letter_error_interval: np.ndarray
    margin_percentiles: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "sigma": self.sigma,
            "seed": self.seed,
            "fully_correct_fraction": self.fully_correct_fraction,
            "fully_correct_interval": list(self.fully_correct_interval),
            "mean_accuracy": float(self.accuracies.mean()),
            "letter_error_rate": self.letter_error_rate.tolist(),
            "letter_error_interval": self.letter_error_interval.tolist(),
            "margin_min": self.margin_min,
            "margin_mean": self.margin_mean,
            "margin_percentiles": self.margin_percentiles,
        }


def monte_carlo(
    network,
    corpus: Corpus,
    trials: int,
    sigma: float,
    seed: int = 0,
) -> MonteCarloResult:
    """Monte-Carlo variation study over conductance perturbations.

    Each trial scores an independently perturbed copy of `network`, whose
    seed `SeedSequence([seed, trial])` spawns from `seed`, so the whole
    study is deterministic.  The trials run in blocks of `MC_BLOCK_TRIALS`:
    `network` must expose ``with_variation(sigma, seeds)`` taking a
    sequence of trial seeds and returning one stacked copy, whose
    ``forward`` takes the whole `[n_letters, n_features]` feature matrix
    and returns `(responses, ledger)` with `[n_trials, n_letters,
    n_letters]` responses.  Slice t must be the responses of the copy
    of the block's seed t alone; a trial's scores then equal `evaluate`
    on that copy.  Trials are aggregated in a fixed order for bit-exact
    reports.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not np.isfinite(sigma) or sigma < 0.0:
        raise ConfigError("sigma must be finite and >= 0")
    if not hasattr(network, "with_variation"):
        raise ConfigError("network must expose with_variation(sigma, seeds)")

    n = len(corpus.letters)
    accuracies = np.empty(trials)
    min_margins = np.empty(trials)
    correct_counts = np.zeros(n)
    for start in range(0, trials, MC_BLOCK_TRIALS):
        block = slice(start, min(start + MC_BLOCK_TRIALS, trials))
        seeds = [
            int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])
            for trial in range(block.start, block.stop)
        ]
        perturbed = network.with_variation(sigma, seeds)
        _, margins = _score(perturbed.forward(corpus.features)[0], n)
        correct = margins > 0.0
        accuracies[block] = correct.mean(axis=-1)
        min_margins[block] = margins.min(axis=-1)
        correct_counts += correct.sum(axis=0)

    percentiles = {
        "p5": float(np.percentile(min_margins, 5)),
        "p50": float(np.percentile(min_margins, 50)),
        "p95": float(np.percentile(min_margins, 95)),
    }
    fully_correct = int(np.sum(accuracies == 1.0))
    return MonteCarloResult(
        trials=trials,
        sigma=sigma,
        seed=seed,
        accuracies=accuracies,
        min_margins=min_margins,
        letter_error_rate=1.0 - correct_counts / trials,
        fully_correct_fraction=fully_correct / trials,
        margin_min=float(min_margins.min()),
        margin_mean=float(min_margins.mean()),
        fully_correct_interval=tuple(
            float(b) for b in wilson_interval(fully_correct, trials)),
        letter_error_interval=wilson_interval(trials - correct_counts,
                                              trials),
        margin_percentiles=percentiles,
    )


# -- reference training recipe -----------------------------------------


def recognizer_configs(
    seed: int = 17,
) -> tuple[TrainConfig, TrainConfig, TrainConfig]:
    """Training schedule for the variation-tolerant letter recognizer.

    Three stages: a float fit with the net-input margin hinge, a float
    hardening pass under programmed-conductance noise, and a grid-aware
    repeat of the hardening whose snapshots rank survival across a
    frozen perturbation ensemble.  The stages share one seed so the
    whole schedule is reproducible from a single integer.
    """
    base = TrainConfig(
        learning_rate=0.05,
        epochs=20000,
        seed=seed,
        target_low=0.0,
        target_high=0.95,
        positive_weight=25.0,
        polish_epochs=4000,
        margin_target=0.2,
        margin_weight=2.0,
        kick_patience=600,
    )
    harden = dataclasses.replace(
        base,
        learning_rate=0.03,
        epochs=4000,
        train_sigma=0.05,
    )
    refine = dataclasses.replace(harden, learning_rate=0.02)
    return base, harden, refine


def train_recognizer(
    corpus: Corpus | None = None,
    seed: int = 17,
    n_hidden: int = HIDDEN_NEURONS,
) -> TrainResult:
    """Train the recognizer; returned weights lie on the level grid.

    Runs the three-stage schedule from recognizer_configs on the glyph
    corpus.  The returned result holds weights exactly representable on
    the levels of the default ConductanceRange, the grid build_network
    maps them onto.  Raises TrainingError if the float stage fails to
    reach 100% on the corpus; pick a different seed in that case.
    """
    corpus = corpus or load_corpus()
    base, harden, refine = recognizer_configs(seed)
    dataset = corpus.dataset
    kind = TransferKind.stt_snn()
    floated = train(dataset, n_hidden, kind, base)
    if not floated.converged:
        raise TrainingError(
            f"float stage stopped at {floated.accuracy:.3f} accuracy "
            f"for seed {seed}; choose another seed")
    hardened = finalize(floated, dataset, levels=None, cfg=harden)
    return finalize(hardened, dataset, cfg=refine)


# -- transfer-kind comparison ------------------------------------------


def comparison_configs() -> dict[str, tuple[TransferKind, TrainConfig]]:
    """Per-kind training configs for the hidden-size comparison.

    Each transfer kind gets hyperparameters tuned to its own geometry
    (clip range, targets inside its output range, net-input margin
    scale), so the comparison measures what the transfer shape costs in
    hidden neurons rather than how one config happens to suit it.
    Seeds inside the search derive from cfg.seed, keeping the whole
    comparison deterministic.
    """
    return {
        "stt_snn": (TransferKind.stt_snn(), TrainConfig(
            learning_rate=0.05, epochs=12000,
            target_low=0.0, target_high=0.95, positive_weight=25.0,
            margin_target=0.2, margin_weight=2.0, kick_patience=600)),
        "sigmoid": (TransferKind.sigmoid(), TrainConfig(
            learning_rate=2.0, epochs=8000,
            weight_clip=4.0, init_low=-1.0, init_high=1.0,
            target_low=0.1, target_high=0.9, positive_weight=25.0,
            margin_target=2.0, margin_weight=1.0, kick_patience=800)),
        "sat_linear": (TransferKind.sat_linear(), TrainConfig(
            learning_rate=0.5, epochs=8000,
            weight_clip=4.0, init_low=-1.0, init_high=1.0,
            target_low=0.05, target_high=0.95, positive_weight=25.0,
            margin_target=0.5, margin_weight=2.0, kick_patience=800)),
        "step": (TransferKind.step(), TrainConfig(
            learning_rate=0.3, epochs=5000,
            weight_clip=2.0, init_low=-1.0, init_high=1.0,
            target_low=0.0, target_high=1.0, positive_weight=25.0,
            margin_target=0.5, margin_weight=2.0, kick_patience=600)),
    }


def compare_transfer_kinds(
    corpus: Corpus | None = None,
    restarts: int = 5,
    max_hidden: int = 48,
) -> dict[str, SearchResult]:
    """Smallest working hidden size per transfer kind on the corpus.

    The soft-limiting spin neuron needs far fewer hidden neurons than a
    hard step and lands near the sigmoid; this runs the search for all
    four kinds and returns {kind tag: SearchResult}.
    """
    corpus = corpus or load_corpus()
    dataset = corpus.dataset
    return {
        name: min_hidden_search(dataset, kind, cfg,
                                max_hidden=max_hidden, restarts=restarts)
        for name, (kind, cfg) in comparison_configs().items()
    }

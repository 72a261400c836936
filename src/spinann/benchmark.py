"""Character-recognition benchmark on a 26-letter glyph corpus.

Each letter is a 16x16 binary bitmap shipped with the package.  A glyph is
reduced to 64 features by directional edge extraction: one gather reads
every 3x3 window of the zero-padded bitmap, one matrix product correlates
them with four 3x3 edge kernels (horizontal, vertical, and the two
diagonals), and a second product with a fixed pooling matrix averages
each rectified response over a 4x4 grid of pooling cells.  Four
directions times sixteen cells give the 64-component feature vector.
Features are normalized by FEATURE_SCALE, the largest raw response found
anywhere in the canonical corpus (a tier-1 test checks it), so extraction
is deterministic and corpus features land in [0, 1].

`evaluate` runs a network over the corpus and builds the 26x26 response
matrix (rows are input letters, columns are output neurons); `monte_carlo`
scores it for many variation-perturbed copies of the network. Both store
the per-letter margins and derive every statistic from them, so no
summary can disagree with them. Trial t reads row t of each layer's noise
stream, and the trials run in blocks of `MC_BLOCK_TRIALS`, each block one
stacked copy that reads the whole corpus in one batched forward call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError, DomainError, TrainingError
from .trainer import (
    Dataset,
    SearchResult,
    TrainConfig,
    TrainResult,
    TransferKind,
    _is_count,
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
    "FEATURE_SCALE",
    "DIRECTIONS",
    "raw_features",
    "extract_features",
    "Glyph",
    "parse_glyph",
    "Corpus",
    "load_corpus",
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

# Largest raw response in the canonical corpus: the normalization every
# feature vector gets.
FEATURE_SCALE = 4.0

# Hidden width of the reference recognizer topology (64-5-26).
HIDDEN_NEURONS = 5

# Monte-Carlo trials perturbed and run together. On the stored recognizer
# (200-trial calls, 2-vCPU shared host, 16 interleaved rounds) blocks of
# 16 run about 12% slower than 32, and 25 as fast. Blocks of 50-200 run
# 3-8% faster, inside the spread between rounds, but a call's
# allocations then peak at 2.4-8.4 MB, against 1.6 MB at 32.
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


# Row k of `_WINDOWS` gathers, from the zero-padded 18x18 buffer, the
# 3x3 window centred on pixel k: its top-left corner plus the offsets
# that the corners of the first 3x3 pixels also are.
_PADDED = GLYPH_SIZE + 2
_CORNERS = np.add.outer(np.arange(GLYPH_SIZE) * _PADDED, np.arange(GLYPH_SIZE))
_WINDOWS = _CORNERS.reshape(-1, 1) + _CORNERS[:3, :3].ravel()
_KERNEL_COLUMNS = _KERNELS.reshape(len(DIRECTIONS), 9).T
# Row c of `_POOL` weighs the 16 pixels of pooling cell c by 1/16.
_BLOCKS = np.kron(np.eye(POOL_GRID), np.ones(GLYPH_SIZE // POOL_GRID))
_POOL = np.kron(_BLOCKS, _BLOCKS) / (GLYPH_SIZE // POOL_GRID) ** 2


def raw_features(bitmap: np.ndarray) -> np.ndarray:
    """Unnormalized 64-component feature vector of a 16x16 bitmap.

    Feature order is direction-major: the 16 pooled cells (row-major) of
    the horizontal response, then vertical, then the two diagonals. The
    `[256, 9]` windows gathered by `_WINDOWS` meet the `[9, 4]` kernel
    columns in one product, and the `[16, 256]` matrix `_POOL` pools
    the rectified responses in a second. On an integer-valued bitmap
    every product and sum is a small exact integer and 1/16 is a power
    of two, so the result does not depend on the order of summation.
    """
    bitmap = np.asarray(bitmap, dtype=float)
    if bitmap.shape != (GLYPH_SIZE, GLYPH_SIZE):
        raise DomainError(
            f"bitmap must be {GLYPH_SIZE}x{GLYPH_SIZE}, got {bitmap.shape}"
        )
    # NaN and inf fail the upper bound, a blank bitmap the lower.
    if not 0.0 < np.abs(bitmap).sum() < np.inf:
        raise DomainError("glyph has no ink or is not finite")
    padded = np.zeros((_PADDED, _PADDED))
    padded[1:-1, 1:-1] = bitmap
    response = np.abs(padded.take(_WINDOWS) @ _KERNEL_COLUMNS)
    return (_POOL @ response).T.ravel()


def extract_features(bitmap: np.ndarray) -> np.ndarray:
    """Normalized feature vector of a bitmap, clipped to [0, 1].

    Raw responses are divided by FEATURE_SCALE, the corpus-wide maximum
    raw response, so a canonical glyph maps exactly into [0, 1]; inputs with
    stronger edge content than any corpus letter saturate at 1. A blank
    or non-finite bitmap is refused, so the output is never NaN.
    """
    return np.minimum(np.maximum(raw_features(bitmap) / FEATURE_SCALE, 0.0),
                      1.0)


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
        if not ((bitmap == 0.0) | (bitmap == 1.0)).all():
            raise ConfigError("bitmap entries must be 0 or 1")
        object.__setattr__(self, "bitmap", bitmap)


def parse_glyph(text: str, letter: str) -> Glyph:
    """Parse the corpus text format: 16 lines of 16 '.'/'#' characters."""
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) != GLYPH_SIZE:
        raise ConfigError(
            f"glyph {letter!r}: expected {GLYPH_SIZE} rows, got {len(lines)}"
        )
    for i, line in enumerate(lines):
        if len(line) != GLYPH_SIZE or set(line) - {".", "#"}:
            raise ConfigError(f"glyph {letter!r}: bad row {i}: {line!r}")
    ink = np.frombuffer("".join(lines).encode(), dtype=np.uint8) == ord("#")
    return Glyph(letter=letter, bitmap=ink.reshape(GLYPH_SIZE, GLYPH_SIZE))


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

    Features are normalized by FEATURE_SCALE, as `extract_features`
    normalizes every bitmap.
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
    """Corpus evaluation: the response matrices and the margins they give.

    Stored: `matrix[i, j]`, output neuron j's response to input letter i,
    min-max normalized over the whole matrix, the unnormalized responses
    `raw_matrix`, and `margins[i]`, the normalized gap between row i's
    diagonal and its best off-diagonal entry. Derived: a letter is
    `correct` only when its margin is positive, so ties are failures, and
    `accuracy` and `min_margin` summarize the margins.
    """

    matrix: np.ndarray
    raw_matrix: np.ndarray
    margins: np.ndarray

    correct = property(lambda self: self.margins > 0.0)
    accuracy = property(lambda self: float(self.correct.mean()))
    min_margin = property(lambda self: float(self.margins.min()))

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
    as `SpinAnnNetwork.forward` does; only the responses are read, so a
    ledger charged on read, as `SpinAnnNetwork`'s is, is never charged.
    """
    if not hasattr(network, "forward"):
        raise ConfigError("network must expose forward(features)")
    raw = np.stack([network.forward(f)[0] for f in corpus.features])
    matrix, margins = _score(raw, len(corpus.letters))
    return EvaluationResult(matrix=matrix, raw_matrix=raw, margins=margins)


def wilson_interval(successes, n: int) -> np.ndarray:
    """Wilson score 95% interval of a binomial rate, `[..., 2]`.

    `successes` is a count or an array of counts out of `n` trials; the
    result holds the lower and upper bounds in its last axis, clipped to
    [0, 1] against rounding, and exactly 0 at 0 successes and 1 at n.
    Counts need not be integers, but `n` must be finite and >= 1 and every
    count within [0, n].
    """
    successes = np.asarray(successes, dtype=float)
    # NaN fails every comparison, so it is refused with the rest.
    if isinstance(n, (bool, np.bool_)) or not (
            1 <= n < np.inf and np.all((successes >= 0) & (successes <= n))):
        raise DomainError(f"need 0 <= successes <= n and 1 <= n < inf, "
                          f"got n = {n!r}")
    p = successes / n
    z2 = _Z95 * _Z95
    center = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = _Z95 * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    lower = np.where(successes == 0, 0.0, center - half)
    upper = np.where(successes == n, 1.0, center + half)
    return np.clip(np.stack([lower, upper], axis=-1), 0.0, 1.0)


@dataclass(eq=False)
class MonteCarloResult:
    """Variation-perturbed evaluation trials: their margins and statistics.

    Stored: `sigma`, `seed` and `margins` `[trials, n_letters]`, row t
    trial t's `EvaluationResult.margins` (26 margins, 208 B, per corpus
    trial, against 16 B for its accuracy and least margin alone). All
    else derives from them, with `correct = margins > 0`, including the
    Wilson score 95% intervals of `fully_correct_fraction` and of each
    `letter_error_rate`: `fully_correct_interval` (lower, upper) and
    `letter_error_interval` (`[n_letters, 2]`).
    """

    sigma: float
    seed: int
    margins: np.ndarray

    trials = property(lambda self: len(self.margins))
    correct = property(lambda self: self.margins > 0.0)
    accuracies = property(lambda self: self.correct.mean(axis=-1))
    min_margins = property(lambda self: self.margins.min(axis=-1))
    margin_min = property(lambda self: float(self.min_margins.min()))
    margin_mean = property(lambda self: float(self.min_margins.mean()))
    # How many trials read each letter right, and every letter right.
    _letter_counts = property(lambda self: self.correct.sum(axis=0))
    _full_count = property(lambda self: int(np.sum(self.accuracies == 1.0)))
    letter_error_rate = property(
        lambda self: 1.0 - self._letter_counts / self.trials)
    fully_correct_fraction = property(
        lambda self: self._full_count / self.trials)
    letter_error_interval = property(lambda self: wilson_interval(
        self.trials - self._letter_counts, self.trials))
    fully_correct_interval = property(lambda self: tuple(
        float(b) for b in wilson_interval(self._full_count, self.trials)))

    @property
    def margin_percentiles(self) -> dict[str, float]:
        least = self.min_margins
        return {f"p{q}": float(np.percentile(least, q)) for q in (5, 50, 95)}

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

    Each trial scores an independently perturbed copy of `network`.
    Layer idx draws its noise from `default_rng([seed, idx])`, `seed` a
    non-negative integer, and trial t's noise is row t of that stream,
    so the study is deterministic, does not depend on the block size,
    and a shorter call's trials are the first trials of a longer one.
    `network` must expose ``layers``, one noise stream per entry, and
    ``with_streams(sigma, rngs, copies)``, which draws the next `copies`
    rows from each layer's generator and returns one stacked copy.  The
    trials run in blocks of `MC_BLOCK_TRIALS`: each stacked copy's
    ``forward`` takes the whole `[n_letters, n_features]` feature matrix
    and returns `(responses, ledger)` with `[copies, n_letters,
    n_letters]` responses, slice t those of the block's copy t alone; a
    trial's margins then equal `evaluate`'s on that copy.
    """
    if not _is_count(trials):
        raise ConfigError(f"trials must be an integer >= 1, got {trials!r}")
    # A bool would run at sigma = 1.
    if isinstance(sigma, (bool, np.bool_)) or not 0.0 <= sigma < np.inf:
        raise ConfigError(f"sigma must be a finite number >= 0, got {sigma!r}")
    # numpy would also take a string or a nested list as entropy, and a
    # bool as the seed 0 or 1.
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {seed!r}")
    if not (hasattr(network, "layers") and hasattr(network, "with_streams")):
        raise ConfigError("network must expose layers and "
                          "with_streams(sigma, rngs, copies)")

    n = len(corpus.letters)
    margins = np.empty((trials, n))
    rngs = [np.random.default_rng([seed, idx])
            for idx in range(len(network.layers))]
    for start in range(0, trials, MC_BLOCK_TRIALS):
        block = margins[start:start + MC_BLOCK_TRIALS]
        perturbed = network.with_streams(sigma, rngs, len(block))
        block[...] = _score(perturbed.forward(corpus.features)[0], n)[1]
    return MonteCarloResult(float(sigma), int(seed), margins)


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
) -> TrainResult:
    """Train the recognizer; returned weights lie on the level grid.

    Runs the three-stage schedule from recognizer_configs, tuned for
    HIDDEN_NEURONS hidden neurons, on the glyph corpus; the weights
    lie on the levels of the crossbar's GRID, which build_network maps
    them onto.  Raises TrainingError if the float stage fails to
    reach 100% on the corpus; pick a different seed in that case.
    """
    corpus = corpus or load_corpus()
    base, harden, refine = recognizer_configs(seed)
    dataset = corpus.dataset
    kind = TransferKind.stt_snn()
    floated = train(dataset, HIDDEN_NEURONS, kind, base)
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

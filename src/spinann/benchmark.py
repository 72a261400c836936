"""Character-recognition benchmark on a 26-letter glyph corpus.

Each letter is a 16x16 binary bitmap shipped with the package.  A glyph is
reduced to 64 features by directional edge extraction: the bitmap is
convolved with four 3x3 edge kernels (horizontal, vertical, and the two
diagonals), the responses are rectified, and each response map is averaged
over a 4x4 grid of pooling cells.  Four directions times sixteen cells give
the 64-component feature vector.  Features are normalized by the largest
raw response found anywhere in the canonical corpus, a constant stored next
to the glyphs, so extraction is deterministic and corpus features land in
[0, 1].

`evaluate` runs a network over the corpus and builds the 26x26 response
matrix (rows are input letters, columns are output neurons); `monte_carlo`
scores the same matrix, read in one batched forward call, for many
variation-perturbed copies of the network and aggregates accuracy and
margin statistics.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

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
    "directional_kernels",
    "convolve_same",
    "pool_average",
    "raw_features",
    "extract_features",
    "Glyph",
    "parse_glyph",
    "load_glyph",
    "Corpus",
    "load_corpus",
    "corpus_feature_scale",
    "EvaluationResult",
    "evaluate",
    "MonteCarloResult",
    "monte_carlo",
]

GLYPH_SIZE = 16
POOL_GRID = 4
FEATURE_COUNT = 64

# Hidden width of the reference recognizer topology (64-5-26).
HIDDEN_NEURONS = 5

# Edge-response direction names, in feature order.
DIRECTIONS = ("horizontal", "vertical", "diag_pos", "diag_neg")

_KERNELS = {
    # Responds to horizontal strokes (intensity gradient down the rows).
    "horizontal": np.array(
        [[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]]
    ),
    # Responds to vertical strokes (gradient across the columns).
    "vertical": np.array(
        [[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]]
    ),
    # +45 degree diagonal strokes.
    "diag_pos": np.array(
        [[-2.0, -1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]
    ),
    # -45 degree diagonal strokes.
    "diag_neg": np.array(
        [[0.0, -1.0, -2.0], [1.0, 0.0, -1.0], [2.0, 1.0, 0.0]]
    ),
}


def directional_kernels() -> dict[str, np.ndarray]:
    """Return copies of the four 3x3 edge kernels keyed by direction."""
    return {name: k.copy() for name, k in _KERNELS.items()}


def convolve_same(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlate `image` with a 3x3 `kernel`, zero-padded to 'same' size.

    All four kernels are antisymmetric under 180-degree rotation, so after
    rectification the flip distinction between correlation and convolution
    vanishes.
    """
    image = np.asarray(image, dtype=float)
    kernel = np.asarray(kernel, dtype=float)
    if image.ndim != 2:
        raise DomainError("image must be a 2-d array")
    if kernel.shape != (3, 3):
        raise DomainError("kernel must be 3x3")
    padded = np.pad(image, 1, mode="constant")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
    return np.tensordot(windows, kernel, axes=([2, 3], [0, 1]))


def pool_average(response: np.ndarray, grid: int = POOL_GRID) -> np.ndarray:
    """Average-pool a square map over a `grid` x `grid` partition."""
    response = np.asarray(response, dtype=float)
    n = response.shape[0]
    if response.ndim != 2 or response.shape[1] != n:
        raise DomainError("response map must be square")
    if n % grid != 0:
        raise DomainError(f"map size {n} not divisible by pooling grid {grid}")
    cell = n // grid
    return response.reshape(grid, cell, grid, cell).mean(axis=(1, 3))


def raw_features(bitmap: np.ndarray) -> np.ndarray:
    """Unnormalized 64-component feature vector of a 16x16 bitmap.

    Feature order is direction-major: the 16 pooled cells (row-major) of
    the horizontal response, then vertical, then the two diagonals.
    """
    bitmap = np.asarray(bitmap, dtype=float)
    if bitmap.shape != (GLYPH_SIZE, GLYPH_SIZE):
        raise DomainError(
            f"bitmap must be {GLYPH_SIZE}x{GLYPH_SIZE}, got {bitmap.shape}"
        )
    if not bitmap.any():
        raise DomainError("glyph has no ink")
    parts = [
        pool_average(np.abs(convolve_same(bitmap, _KERNELS[name]))).ravel()
        for name in DIRECTIONS
    ]
    return np.concatenate(parts)


@functools.cache
def _stored_feature_scale() -> float:
    ref = resources.files("spinann.data").joinpath("glyphs/normalization.json")
    payload = json.loads(ref.read_text())
    return float(payload["feature_scale"])


def extract_features(bitmap: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Normalized feature vector of a bitmap, clipped to [0, 1].

    `scale` defaults to the stored corpus-wide maximum raw response, so a
    canonical glyph maps exactly into [0, 1]; inputs with stronger edge
    content than any corpus letter saturate at 1.
    """
    if scale is None:
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


def load_glyph(path: Path | str) -> Glyph:
    path = Path(path)
    return parse_glyph(path.read_text(), path.stem)


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
    feature_scale: float

    @property
    def dataset(self) -> Dataset:
        return Dataset(
            features=self.features,
            labels=self.labels,
            n_classes=len(self.letters),
        )


def load_corpus(directory: Path | str | None = None) -> Corpus:
    """Load the glyph corpus and extract normalized features.

    With no argument the packaged canonical corpus and its stored
    normalization constant are used.  With an explicit directory the scale
    is recomputed from the glyphs found there (normalization.json in the
    directory, if present, wins).
    """
    letters = tuple(chr(c) for c in range(ord("A"), ord("Z") + 1))
    if directory is None:
        base = resources.files("spinann.data").joinpath("glyphs")
        glyphs = tuple(
            parse_glyph(base.joinpath(f"{letter}.txt").read_text(), letter)
            for letter in letters
        )
        scale = _stored_feature_scale()
    else:
        base = Path(directory)
        glyphs = tuple(
            load_glyph(base / f"{letter}.txt") for letter in letters
        )
        norm = base / "normalization.json"
        if norm.exists():
            scale = float(json.loads(norm.read_text())["feature_scale"])
        else:
            scale = corpus_feature_scale(list(glyphs))
    features = np.stack(
        [extract_features(g.bitmap, scale=scale) for g in glyphs]
    )
    labels = np.arange(len(letters))
    return Corpus(
        letters=letters,
        glyphs=glyphs,
        features=features,
        labels=labels,
        feature_scale=scale,
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


def _responses(out) -> np.ndarray:
    """The response array of a forward call that may also return a ledger."""
    if isinstance(out, tuple):
        out = out[0]
    return np.asarray(out, dtype=float)


def _score(raw: np.ndarray, n: int) -> EvaluationResult:
    """Normalize a raw response matrix and read accuracy and margins off it.

    Min-max normalization is a positive affine map, so it never changes
    which neuron wins a row; accuracy computed on the normalized matrix
    equals accuracy on the raw one.
    """
    if raw.shape != (n, n):
        raise ConfigError(
            f"network produced shape {raw.shape}, expected ({n}, {n})"
        )
    lo, hi = raw.min(), raw.max()
    matrix = (raw - lo) / (hi - lo) if hi > lo else np.zeros_like(raw)

    diag = np.diag(matrix).copy()
    off = matrix.copy()
    np.fill_diagonal(off, -np.inf)
    margins = diag - off.max(axis=1)
    correct = margins > 0.0
    return EvaluationResult(
        matrix=matrix,
        raw_matrix=raw,
        correct=correct,
        accuracy=float(correct.mean()),
        margins=margins,
        min_margin=float(margins.min()),
    )


def evaluate(network, corpus: Corpus) -> EvaluationResult:
    """Run every corpus letter through a network and score the responses.

    `network` exposes ``forward(features)``, which is called once per
    letter with one feature vector and returns the output responses,
    alone or as the first item of a tuple.
    """
    if not hasattr(network, "forward"):
        raise ConfigError("network must expose forward(features)")
    raw = np.stack([_responses(network.forward(f)) for f in corpus.features])
    return _score(raw, len(corpus.letters))


@dataclass(eq=False)
class MonteCarloResult:
    """Aggregate statistics over variation-perturbed evaluation trials."""

    trials: int
    sigma: float
    seed: int
    accuracies: np.ndarray
    min_margins: np.ndarray
    letter_error_rate: np.ndarray
    fully_correct_fraction: float
    margin_min: float
    margin_mean: float
    margin_percentiles: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "sigma": self.sigma,
            "seed": self.seed,
            "fully_correct_fraction": self.fully_correct_fraction,
            "mean_accuracy": float(self.accuracies.mean()),
            "letter_error_rate": self.letter_error_rate.tolist(),
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

    Each trial scores an independently perturbed copy of `network`, which
    must expose ``with_variation(sigma, seed)``.  The copy's ``forward``
    must accept the whole `[n_letters, n_features]` feature matrix and
    return one response row per letter, alone or as the first item of a
    tuple; a trial's scores then equal `evaluate` on that copy.  Trial
    seeds are spawned from `seed` so the whole study is deterministic, and
    trials are aggregated in a fixed order for bit-exact reports.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not np.isfinite(sigma) or sigma < 0.0:
        raise ConfigError("sigma must be finite and >= 0")
    if not hasattr(network, "with_variation"):
        raise ConfigError("network must expose with_variation(sigma, seed)")

    accuracies = np.empty(trials)
    min_margins = np.empty(trials)
    correct_counts = np.zeros(len(corpus.letters))
    for trial in range(trials):
        trial_seed = int(
            np.random.SeedSequence([seed, trial]).generate_state(1)[0]
        )
        perturbed = network.with_variation(sigma, seed=trial_seed)
        result = _score(_responses(perturbed.forward(corpus.features)),
                        len(corpus.letters))
        accuracies[trial] = result.accuracy
        min_margins[trial] = result.min_margin
        correct_counts += result.correct

    percentiles = {
        "p5": float(np.percentile(min_margins, 5)),
        "p50": float(np.percentile(min_margins, 50)),
        "p95": float(np.percentile(min_margins, 95)),
    }
    return MonteCarloResult(
        trials=trials,
        sigma=sigma,
        seed=seed,
        accuracies=accuracies,
        min_margins=min_margins,
        letter_error_rate=1.0 - correct_counts / trials,
        fully_correct_fraction=float(np.mean(accuracies == 1.0)),
        margin_min=float(min_margins.min()),
        margin_mean=float(min_margins.mean()),
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
    levels: int = 32,
    n_hidden: int = HIDDEN_NEURONS,
) -> TrainResult:
    """Train the recognizer; returned weights lie on the level grid.

    Runs the three-stage schedule from recognizer_configs on the glyph
    corpus.  The returned result holds weights exactly representable
    with `levels` conductance levels per cell, ready for mapping onto
    crossbars.  Raises TrainingError if the float stage fails to reach
    100% on the corpus; pick a different seed in that case.
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
    return finalize(hardened, dataset, levels=levels, cfg=refine)


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

"""Offline trainer for the two-layer feed-forward recognizer.

Supports four neuron transfer functions: ideal step, saturating linear,
logistic sigmoid, and the simulated spin-neuron curve. The spin-neuron
activation is the device transfer sampled into a monotone lookup table,
so training and hardware inference share one ground truth; its net input
is a dimensionless weighted sum scaled by a drive current (the current
that a unit net input programs into the neuron).

Training is full-batch gradient descent with momentum and an adaptive
step size on a mean squared error against one-hot targets, with a
straight-through surrogate gradient for the discontinuous step function.
The threshold term of each neuron is an extra always-on input row, which
later maps onto a crossbar row like any other synapse.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .crossbar import GRID, grid_magnitudes
from .device import NeuronDevice
from .errors import ConfigError, DomainError, SearchError

WEIGHTS_SCHEMA = "spin-ann/1"

STT_TABLE_NODES = 1024


def _is_count(n, least: int = 1) -> bool:
    """Whether n is an integer >= least; a bool is an int, but no count."""
    return (isinstance(n, (int, np.integer)) and not isinstance(n, bool)
            and n >= least)


# Weights-file key of each spin-neuron field of a TransferKind.
_STT_FILE_KEYS = {"th1": "th1_a", "th2": "th2_a", "v_min": "v_min_v",
                  "v_max": "v_max_v", "drive_current": "drive_current_a",
                  "i_nodes": "i_nodes_a", "a_nodes": "a_nodes"}


@dataclass(frozen=True, eq=False)
class TransferKind:
    """Neuron activation selector, with device data for the spin neuron.

    For the spin neuron the table maps programming current to the
    normalized sensed output (V - v_min)/(v_max - v_min): exactly 0 up
    to the depinning threshold th1, exactly 1 at the full-travel current
    th2, continuous and nondecreasing between. drive_current converts
    the trainer's dimensionless net input into a programming current.
    slopes, the table's per-segment slopes, is derived once from it.
    """

    tag: str
    th1: float = 0.0
    th2: float = 0.0
    v_min: float = 0.0
    v_max: float = 0.0
    drive_current: float = 0.0
    i_nodes: np.ndarray | None = None
    a_nodes: np.ndarray | None = None
    slopes: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.tag not in ("step", "sat_linear", "sigmoid", "stt_snn"):
            raise ConfigError(f"unknown transfer kind {self.tag!r}")
        if self.tag == "stt_snn":
            if not (self.th2 > self.th1 > 0.0):
                raise ConfigError("need th2 > th1 > 0")
            if not (self.v_max > self.v_min):
                raise ConfigError("need v_max > v_min")
            if not (np.isfinite(self.drive_current)
                    and self.drive_current > 0.0):
                raise ConfigError("drive_current must be positive and finite")
            if self.i_nodes is None or self.a_nodes is None:
                raise ConfigError("spin-neuron kind needs its sampled table")
            if not 0 < len(self.i_nodes) == len(self.a_nodes):
                raise ConfigError("unequal or empty i_nodes and a_nodes")
            # np.interp needs a finite, increasing table; on any other it
            # returns wrong values without an error. An activation outside
            # [0, 1] would drive the output past the voltage swing.
            if not (np.isfinite(self.i_nodes).all()
                    and np.isfinite(self.a_nodes).all()):
                raise ConfigError("the sampled table must be finite")
            if not ((np.diff(self.i_nodes) > 0.0).all()
                    and (np.diff(self.a_nodes) >= 0.0).all()
                    and self.a_nodes[0] >= 0.0 and self.a_nodes[-1] <= 1.0):
                raise ConfigError("need strictly increasing i_nodes and "
                                  "nondecreasing a_nodes within [0, 1]")
            object.__setattr__(self, "slopes",
                               np.diff(self.a_nodes) / np.diff(self.i_nodes))

    @classmethod
    def step(cls) -> "TransferKind":
        return cls("step")

    @classmethod
    def sat_linear(cls) -> "TransferKind":
        return cls("sat_linear")

    @classmethod
    def sigmoid(cls) -> "TransferKind":
        return cls("sigmoid")

    @classmethod
    def stt_snn(cls, n_nodes: int = STT_TABLE_NODES) -> "TransferKind":
        """Sample the default neuron's transfer at the T_PROGRAM pulse
        into a lookup table.

        Nodes are 0 plus a uniform grid over [th1, th2]; between nodes
        the activation is linearly interpolated. drive_current is th2,
        so a net input of 1.0 saturates the neuron. Below 3 nodes the
        table cannot hold 0, th1 and th2 as separate nodes.
        """
        if not _is_count(n_nodes, 3):
            raise ConfigError(f"need an integer n_nodes >= 3, got {n_nodes!r}")
        device = NeuronDevice()
        th1 = device.depinning_current
        th2 = device.saturation_current()
        v_min = device.v_out_min
        v_max = device.v_out_max
        i_nodes = np.concatenate(([0.0], np.linspace(th1, th2, n_nodes - 1)))
        volts = np.array([device.transfer(i) for i in i_nodes])
        a_nodes = (volts - v_min) / (v_max - v_min)
        a_nodes = np.maximum.accumulate(np.clip(a_nodes, 0.0, 1.0))
        a_nodes[i_nodes <= th1] = 0.0
        a_nodes[-1] = 1.0
        return cls(
            tag="stt_snn",
            th1=th1,
            th2=th2,
            v_min=v_min,
            v_max=v_max,
            drive_current=th2,
            i_nodes=i_nodes,
            a_nodes=a_nodes,
        )

    def to_dict(self) -> dict:
        doc = {"tag": self.tag}
        if self.tag == "stt_snn":
            doc.update((key, np.asarray(getattr(self, name)).tolist())
                       for name, key in _STT_FILE_KEYS.items())
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TransferKind":
        if doc["tag"] != "stt_snn":
            return cls(doc["tag"])
        values = {name: doc[key] for name, key in _STT_FILE_KEYS.items()}
        values["i_nodes"] = np.array(values["i_nodes"])
        values["a_nodes"] = np.array(values["a_nodes"])
        return cls(tag="stt_snn", **values)


def _activation_array(z: np.ndarray, kind: TransferKind) -> np.ndarray:
    if kind.tag == "step":
        return np.where(z > 0.0, 1.0, 0.0)
    if kind.tag == "sat_linear":
        return np.clip(z, 0.0, 1.0)
    if kind.tag == "sigmoid":
        e = np.exp(-np.abs(z))  # bounded by 1, no overflow either side
        return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.interp(z * kind.drive_current, kind.i_nodes, kind.a_nodes)


def activation(z, kind: TransferKind):
    """Activation value for dimensionless net input(s) z."""
    out = _activation_array(np.asarray(z, dtype=float), kind)
    return out if out.ndim else float(out)


def activation_derivative(z, kind: TransferKind):
    """Derivative (or surrogate derivative) of activation at z.

    step: straight-through surrogate, 1 on the window |z| <= 1/2 (a
    unit-area rectangle) and 0 outside.
    stt_snn: exact piecewise slope of the lookup table scaled by the
    drive current, zero at and outside the two thresholds.
    """
    z = np.asarray(z, dtype=float)
    if kind.tag == "step":
        out = np.where(np.abs(z) <= 0.5, 1.0, 0.0)
    elif kind.tag == "sat_linear":
        out = np.where((z > 0.0) & (z < 1.0), 1.0, 0.0)
    elif kind.tag == "sigmoid":
        a = _activation_array(z, kind)
        out = a * (1.0 - a)
    else:
        i = z * kind.drive_current
        segment = np.clip(
            np.searchsorted(kind.i_nodes, i, side="right") - 1,
            0, len(kind.i_nodes) - 2)
        inside = (i > kind.th1) & (i < kind.th2)
        out = np.where(inside, kind.slopes[segment] * kind.drive_current, 0.0)
    return out if out.ndim else float(out)


# Dead-neuron recovery for bounded-gradient transfers (_revive_dead_rows):
# each epoch a neuron whose net input leaves the active window for every
# sample moves its threshold row this far back toward the window, and its
# input weights decay by the same fraction.
REVIVE_RATE = 0.01

# Momentum of the descent: the fraction of the previous update that
# carries into the next.
MOMENTUM = 0.9

# Adaptive step-size control: accepted steps that reduce the loss scale
# the rate by LR_UP; steps that raise it by more than the LOSS_SPIKE
# ratio are discarded, the rate shrinks by LR_DOWN and the momentum
# memory is cleared. Keeps updates small enough that neurons are not
# flung across their active window.
LR_UP = 1.05
LR_DOWN = 0.7
LOSS_SPIKE = 1.04

# Half-width of the fan-in-scaled uniform jitter of a plateau kick
# (TrainConfig.kick_patience).
KICK_SCALE = 0.3

# Size of the frozen perturbation ensemble that ranks snapshots under
# noise-aware training (TrainConfig.train_sigma > 0).
NOISE_ENSEMBLE = 8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run.

    weight_clip bounds every weight, threshold rows included; keep it
    above the spin neuron's upper threshold in net-input units (1.0 at
    the default drive current) or the threshold rows cannot hold the
    neurons in their active window.

    Fixed in code: MOMENTUM, the adaptive-rate factors LR_UP, LR_DOWN
    and LOSS_SPIKE, the kick width KICK_SCALE, dead-neuron revival
    REVIVE_RATE and the ensemble size NOISE_ENSEMBLE. Training always
    aims at full accuracy, always centres the inputs (see _fit) and
    trains the step kind through the unit window |z| <= 1/2.
    """

    learning_rate: float = 0.5
    epochs: int = 3000
    seed: int = 0
    weight_clip: float = 1.0
    init_low: float = -0.25
    init_high: float = 0.25
    # Teaching values for the one-hot targets. Saturating transfers have
    # zero gradient at their rails, so aiming slightly inside the rails
    # keeps the optimum in gradient-carrying territory.
    target_low: float = 0.0
    target_high: float = 1.0
    # Error weight on the high-target (own-class) entries. One-hot
    # targets are dominated by zeros; weighting the single positive
    # entry rebalances up- and down-pressure on the output layer. 1
    # keeps plain unweighted error.
    positive_weight: float = 1.0
    # Plateau escape: when the best loss has not improved for
    # kick_patience epochs, jitter all weights by a fan-in-scaled
    # uniform perturbation of half-width KICK_SCALE, clear the momentum
    # memory and restore the initial learning rate. Deterministic per
    # seed; 0 disables.
    kick_patience: int = 0
    # Margin polish: keep training this many extra epochs after full
    # accuracy is first reached and return the snapshot with the
    # widest decision margin among the most accurate epochs seen.
    # Widens the winner-vs-runner-up gap, which is what survives weight
    # quantization and device variation. 0 returns the weights from the
    # first convergent epoch.
    polish_epochs: int = 0
    # Margin hinge on output net inputs: each sample whose own-class
    # net input fails to beat the runner-up's by margin_target
    # contributes an extra error pushing the two apart, scaled by
    # margin_weight. Acting on net inputs rather than activations lets
    # the push continue through saturated regions, where the weight
    # grid and device variation still move the net input. 0 disables.
    margin_target: float = 0.0
    margin_weight: float = 1.0
    # Noise-aware training: multiplicative Gaussian jitter of this
    # relative width on every forward-pass weight, fresh each epoch.
    # Mirrors programmed-conductance variation, steering the optimizer
    # toward configurations whose decisions survive it. When active,
    # snapshots are ranked by performance on a fixed ensemble of
    # NOISE_ENSEMBLE deterministic perturbations instead of the clean
    # margin alone. 0 disables.
    train_sigma: float = 0.0

    def __post_init__(self):
        # `type` rather than `isinstance`, so that a bool passes for no
        # integer.
        counts = ("epochs", "seed", "kick_patience", "polish_epochs")
        wrong = [k for k in counts if type(getattr(self, k)) is not int]
        if wrong:
            raise ConfigError(f"{', '.join(wrong)} must be integers")
        # NaN passes every range check below, as each comparison is False.
        if not all(math.isfinite(v) for v in vars(self).values()
                   if isinstance(v, float)):
            raise ConfigError("training settings must be finite")
        if self.learning_rate <= 0.0 or self.epochs <= 0:
            raise ConfigError("learning_rate and epochs must be positive")
        if self.weight_clip <= 0.0:
            raise ConfigError("weight_clip must be positive")
        if self.init_low >= self.init_high:
            raise ConfigError("need init_low < init_high")
        if not (0.0 <= self.target_low < self.target_high <= 1.0):
            raise ConfigError("need 0 <= target_low < target_high <= 1")
        if self.positive_weight <= 0.0:
            raise ConfigError("positive_weight must be positive")
        if self.kick_patience < 0:
            raise ConfigError("kick_patience must be >= 0")
        if self.polish_epochs < 0:
            raise ConfigError("polish_epochs must be >= 0")
        if self.margin_target < 0.0 or self.margin_weight <= 0.0:
            raise ConfigError("need margin_target >= 0 and margin_weight > 0")
        if self.train_sigma < 0.0:
            raise ConfigError("train_sigma must be >= 0")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix [n_samples x n_features] with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        object.__setattr__(self, "features",
                           np.asarray(self.features, dtype=float))
        labels = np.asarray(self.labels)
        object.__setattr__(self, "labels", labels.astype(int))
        if self.features.ndim != 2 or len(self.features) == 0:
            raise DomainError("dataset must be a non-empty 2-D feature matrix")
        if not np.all(np.isfinite(self.features)):
            raise DomainError("features must be finite")
        if self.labels.shape != (len(self.features),):
            raise DomainError("one label per sample required")
        if not _is_count(self.n_classes):
            raise DomainError("need an integer n_classes >= 1")
        if np.any((self.labels < 0) | (self.labels >= self.n_classes)
                  | (self.labels != labels)):
            raise DomainError("labels must be integers in [0, n_classes)")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def one_hot(self) -> np.ndarray:
        t = np.zeros((len(self.labels), self.n_classes))
        t[np.arange(len(self.labels)), self.labels] = 1.0
        return t


@dataclass(eq=False)
class TrainResult:
    """Trained float weights plus the run's bookkeeping.

    w1 is [(n_features + 1) x n_hidden], w2 [(n_hidden + 1) x n_classes];
    the final row of each is the always-on threshold row.
    """

    w1: np.ndarray
    w2: np.ndarray
    kind: TransferKind
    config: TrainConfig
    accuracy: float
    converged: bool
    epochs_run: int
    history: np.ndarray  # rows of (epoch, loss, accuracy)

    @property
    def n_hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def n_classes(self) -> int:
        return self.w2.shape[1]

    @property
    def n_features(self) -> int:
        return self.w1.shape[0] - 1


def _augment(x: np.ndarray) -> np.ndarray:
    """`[..., n, k]` inputs plus the always-on column: `[..., n, k + 1]`."""
    out = np.ones((*x.shape[:-1], x.shape[-1] + 1))
    out[..., :-1] = x
    return out


def _active_window(kind: TransferKind) -> tuple[float, float] | None:
    """Net-input interval where the activation carries gradient.

    Outside this interval the (surrogate) derivative is identically
    zero. Returns None for transfers with gradient everywhere.
    """
    if kind.tag == "step":
        return -0.5, 0.5
    if kind.tag == "sat_linear":
        return 0.0, 1.0
    if kind.tag == "stt_snn":
        return kind.th1 / kind.drive_current, kind.th2 / kind.drive_current
    return None


def _revive_dead_rows(w: np.ndarray, z: np.ndarray,
                      window: tuple[float, float]) -> None:
    """Pull fully-dead neurons back toward the active window.

    A neuron whose net input is outside the active window for every
    sample has an identically zero gradient and would stay frozen
    forever. Its threshold row gets a fixed nudge back toward the
    window, and its input weights decay toward zero by the same
    fraction; the decay guarantees the threshold row eventually
    dominates the net input, so revival cannot stall against frozen
    input weights. Modifies w in place; neurons with any live sample
    are untouched.
    """
    z_lo, z_hi = window
    dead_low = z.max(0) <= z_lo
    dead_high = z.min(0) >= z_hi
    dead = dead_low | dead_high
    if not dead.any():
        return
    w[:-1, dead] *= 1.0 - REVIVE_RATE
    w[-1, dead_low] += REVIVE_RATE
    w[-1, dead_high] -= REVIVE_RATE


def _fold_offset(w: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Rewrite weights acting on (x - offset) to act on raw x."""
    out = w.copy()
    out[-1] = w[-1] - offset @ w[:-1]
    return out


def _unfold_offset(w: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Inverse of _fold_offset; exact, including on-grid weights."""
    out = w.copy()
    out[-1] = w[-1] + offset @ w[:-1]
    return out


def _forward(x_aug: np.ndarray, w1: np.ndarray, w2: np.ndarray,
             kind: TransferKind):
    """Float forward pass on bias-augmented inputs: (z1, a1_aug, z2, a2),
    with a1_aug the hidden activations plus the always-on column. Weights
    stacked `[K, rows, cols]` give each copy's 2-D pass, bit for bit."""
    z1 = x_aug @ w1
    a1_aug = _augment(activation(z1, kind))
    z2 = a1_aug @ w2
    return z1, a1_aug, z2, activation(z2, kind)


def output_activations(result: TrainResult, features) -> np.ndarray:
    """Output-layer activations of the trained float network."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    return _forward(_augment(x), result.w1, result.w2, result.kind)[3]


def own_margins(a: np.ndarray, labels) -> np.ndarray:
    """Each row's labelled entry minus its best other entry.

    `a` is `[..., n, k]` and `labels` holds the `n` rows' labels; the
    result is `[..., n]`. A row is decided correctly only when its margin
    is positive, so a tie at the top is a wrong answer: saturating
    transfers can pin several outputs to the same rail.
    """
    idx = np.arange(a.shape[-2])
    rest = a.copy()
    rest[..., idx, labels] = -np.inf
    return a[..., idx, labels] - rest.max(axis=-1)


def _accuracy(a2: np.ndarray, labels: np.ndarray) -> float:
    hits = own_margins(a2, labels) > 0.0
    return float(np.count_nonzero(hits)) / hits.size


def _margin(a2: np.ndarray, labels: np.ndarray) -> float:
    """Smallest own-class-vs-runner-up activation gap over the batch."""
    return float(np.min(own_margins(a2, labels)))


def _ensemble_key(z2: np.ndarray, a2: np.ndarray,
                  labels: np.ndarray) -> tuple[float, float]:
    """Snapshot key of a stacked `[K, n, k]` ensemble: the fraction of
    copies deciding every sample right, then the mean worst net-input
    margin. The margins add as floats in copy order; np.sum (pairwise)
    and, from Python 3.12, the builtin sum could round differently."""
    perfect = int(np.all(own_margins(a2, labels) > 0.0, axis=-1).sum())
    margin_sum = 0.0
    for m in own_margins(z2, labels).min(axis=-1).tolist():
        margin_sum += m
    return perfect / len(a2), margin_sum / len(a2)


def _fit(dataset: Dataset, kind: TransferKind, cfg: TrainConfig,
         rng: np.random.Generator, w1: np.ndarray, w2: np.ndarray,
         on_grid: bool, snapshot_from_start: bool) -> TrainResult:
    """Shared gradient-descent engine behind train() and finalize().

    With `on_grid`, every forward pass (and the adaptive-rate probe)
    runs through weights snapped to the representable magnitude grid
    while updates accumulate in the float shadow weights, so the
    returned weights lie exactly on the grid (straight-through
    estimator). Snapshot tracking keeps the epoch with the best
    (accuracy, margin) pair; train() arms it once full accuracy is
    reached, finalize() from the first epoch.

    A noise-aware epoch is one stacked forward pass: copy 0 is jittered
    for the loss and gradient, copy 1 is clean for the accuracy and the
    rest are the frozen snapshot-ranking ensemble.

    An accepted step's probe carries into the next epoch: its snapped
    weights before jitter (off the grid the shadow arrays, which
    the dead-row revival edits in place only after the forward pass)
    and, for a clean epoch, its forward pass and loss. A noisy epoch's
    fresh jitter needs a pass of its own. A rejected step or a kick
    carries nothing.

    The first layer is optimized in mean-removed input coordinates.
    All-positive feature vectors share a large common component that
    makes their gradient directions nearly collinear; removing the
    batch mean during the weight updates conditions the problem. w1
    enters and leaves in raw form, the shift folded exactly into its
    threshold row, so the trained weights still act on raw features.
    The weight clip and the quantization grid apply to the raw form, so
    the returned threshold row obeys the same bounds as every other
    weight.
    """
    offset = dataset.features.mean(axis=0)
    x = _augment(dataset.features - offset)
    w1 = _unfold_offset(w1, offset)
    targets = dataset.one_hot * (cfg.target_high - cfg.target_low) \
        + cfg.target_low
    err_weight = np.where(dataset.one_hot > 0.0, cfg.positive_weight, 1.0)
    n = len(x)
    n_hidden = w1.shape[1]
    window = _active_window(kind)

    labels = dataset.labels
    idx = np.arange(n)

    def fwd_weights(m1, m2):
        if not on_grid:
            return m1, m2
        q1 = _snap_weights(_fold_offset(m1, offset))
        return _unfold_offset(q1, offset), _snap_weights(m2)

    def clip(m):
        return np.minimum(np.maximum(m, -cfg.weight_clip), cfg.weight_clip)

    def _clip_layer1(m1):
        """Clip in raw form so the folded threshold row obeys the same
        bound as every other weight, then return to fit coordinates."""
        return _unfold_offset(clip(_fold_offset(m1, offset)), offset)

    def margin_residual(z_out):
        """Hinge per sample: how far the own-vs-runner-up net-input gap
        falls short of margin_target, the runner-up's index and the gap."""
        rest = z_out.copy()
        rest[idx, labels] = -np.inf
        runner = np.argmax(rest, axis=1)
        gap = z_out[idx, labels] - rest[idx, runner]
        return np.maximum(0.0, cfg.margin_target - gap), runner, gap

    def mean(e):
        # np.mean's own sum and division, without its dispatch.
        return float(np.add.reduce(e, axis=None)) / e.size

    def batch_loss(z_out, a_out):
        """(loss, its margin_residual or None), for the gradient to reuse."""
        loss = mean(err_weight * (a_out - targets) ** 2)
        if cfg.margin_target <= 0.0:
            return loss, None
        residual = margin_residual(z_out)
        return loss + cfg.margin_weight * mean(residual[0] ** 2), residual

    def scored(m1, m2):
        """((z1, a1_aug, z2, a2), (loss, residual)) of one 2-D pass."""
        out = _forward(x, m1, m2, kind)
        return out, batch_loss(out[2], out[3])

    noisy = cfg.train_sigma > 0.0
    if noisy:
        # Jitter factors of the stacked copies: copy 1 is exactly 1.0, and
        # the frozen ensemble (copies 2..) keeps its draws every epoch, so
        # ranks compare geometry, not luck.
        g1 = np.ones((2 + NOISE_ENSEMBLE, *w1.shape))
        g2 = np.ones((2 + NOISE_ENSEMBLE, *w2.shape))
        g1[2:] += cfg.train_sigma * rng.standard_normal(g1[2:].shape)
        g2[2:] += cfg.train_sigma * rng.standard_normal(g2[2:].shape)

    v1 = np.zeros_like(w1)
    v2 = np.zeros_like(w2)
    lr = cfg.learning_rate
    best_loss = np.inf
    best_acc = -1.0
    stalled = 0
    best_snap = None
    polish_left = None
    history = []
    converged = False
    carry = None

    # One measurement per epoch boundary: epoch k's row describes the
    # weights after k updates.
    for epoch in range(cfg.epochs + 1):
        f1, f2, probe = carry or (*fwd_weights(w1, w2), None)
        carry = None
        if noisy:
            # Fresh forward jitter each epoch: gradients are taken on
            # the perturbed network, so descent favors weight
            # configurations whose decisions survive the perturbation.
            g1[0] = 1.0 + cfg.train_sigma * rng.standard_normal(w1.shape)
            g2[0] = 1.0 + cfg.train_sigma * rng.standard_normal(w2.shape)
            s2 = f2 * g2
            stack = _forward(x, f1 * g1, s2, kind)
            z1, a1_aug, z2, a2 = (s[0] for s in stack)
            n2, a2_clean = s2[0], stack[3][1]
            loss, residual = batch_loss(z2, a2)
        else:
            (z1, a1_aug, z2, a2), (loss, residual) = probe or scored(f1, f2)
            n2, a2_clean = f2, a2
        accuracy = _accuracy(a2_clean, labels)
        history.append((epoch, loss, accuracy))
        epochs_run = epoch

        if snapshot_from_start or polish_left is not None \
                or (accuracy == 1.0 and cfg.polish_epochs):
            # Rank equally accurate epochs by what the weight grid and
            # device noise consume: the net-input margin, or under
            # noise-aware training the frozen-ensemble survival.
            if noisy:
                snap = (accuracy,
                        *_ensemble_key(stack[2][2:], stack[3][2:], labels))
            else:
                snap = (accuracy, _margin(z2, labels) if residual is None
                        else float(residual[2].min()))
            if best_snap is None or snap > best_snap[:len(snap)]:
                best_snap = (*snap, f1.copy(), f2.copy())
        if accuracy == 1.0:
            converged = True
            if cfg.polish_epochs == 0:
                break
            if polish_left is None:
                polish_left = cfg.polish_epochs
        if polish_left is not None:
            if polish_left == 0:
                break
            polish_left -= 1
        if epoch == cfg.epochs:
            break

        # Progress means a meaningful loss drop or a new accuracy high;
        # sub-0.1% loss creep on a plateau does not reset the clock.
        if loss < best_loss * (1.0 - 1e-3) or accuracy > best_acc:
            stalled = 0
        else:
            stalled += 1
        best_loss = min(best_loss, loss)
        best_acc = max(best_acc, accuracy)
        if cfg.kick_patience and stalled >= cfg.kick_patience \
                and polish_left is None and accuracy < 1.0:
            w1 = _clip_layer1(
                w1 + rng.uniform(-KICK_SCALE, KICK_SCALE, w1.shape)
                / np.sqrt(dataset.n_features))
            w2 = clip(w2 + rng.uniform(-KICK_SCALE, KICK_SCALE, w2.shape)
                      / np.sqrt(n_hidden))
            v1 = np.zeros_like(v1)
            v2 = np.zeros_like(v2)
            lr = cfg.learning_rate
            best_loss = np.inf
            best_acc = -1.0
            stalled = 0
            continue

        if window is not None:
            _revive_dead_rows(w1, z1, window)
            _revive_dead_rows(w2, z2, window)

        err = err_weight * (a2 - targets)
        delta2 = err * activation_derivative(z2, kind)
        if residual is not None:
            # Push each sample's own net input up and its runner-up's
            # down until the gap reaches margin_target. Applied past
            # the activation derivative so a saturated runner-up keeps
            # moving away instead of parking just over the rail.
            shortfall, runner, _ = residual
            delta2[idx, labels] -= cfg.margin_weight * shortfall
            delta2[idx, runner] += cfg.margin_weight * shortfall
        grad2 = a1_aug.T @ delta2 / n
        delta1 = (delta2 @ n2[:-1].T) * activation_derivative(z1, kind)
        grad1 = x.T @ delta1 / n

        v1_next = MOMENTUM * v1 - lr * grad1
        v2_next = MOMENTUM * v2 - lr * grad2
        w1_next = _clip_layer1(w1 + v1_next)
        w2_next = clip(w2 + v2_next)

        q1, q2 = fwd_weights(w1_next, w2_next)
        # Same jitter as this epoch's forward, so the comparison
        # isolates the effect of the step.
        probe = scored(q1 * g1[0], q2 * g2[0]) if noisy else scored(q1, q2)
        next_loss = probe[1][0]
        if next_loss > loss * LOSS_SPIKE:
            # Overshoot: discard the step, cool down, clear momentum.
            lr *= LR_DOWN
            v1 = np.zeros_like(v1)
            v2 = np.zeros_like(v2)
            continue
        if next_loss < loss:
            lr *= LR_UP
        v1, v2, w1, w2 = v1_next, v2_next, w1_next, w2_next
        carry = q1, q2, None if noisy else probe

    if best_snap is not None:
        accuracy = best_snap[0]
        w1, w2 = best_snap[-2], best_snap[-1]
    elif on_grid:
        w1, w2 = f1, f2

    return TrainResult(
        w1=_fold_offset(w1, offset), w2=w2, kind=kind, config=cfg, accuracy=accuracy,
        converged=converged, epochs_run=epochs_run,
        history=np.array(history).reshape(-1, 3),
    )


def train(dataset: Dataset, n_hidden: int, kind: TransferKind,
          cfg: TrainConfig | None = None) -> TrainResult:
    """Full-batch gradient descent with momentum; deterministic per seed.

    Stops early once training accuracy reaches 100%, plus the
    configured margin-polish window. Non-convergence is
    reported through the converged flag, not raised.
    """
    cfg = cfg or TrainConfig()
    if not _is_count(n_hidden):
        raise DomainError(f"need an integer n_hidden >= 1, got {n_hidden!r}")
    rng = np.random.default_rng(cfg.seed)
    # Fan-in scaling keeps the pre-activation spread comparable across
    # layer widths, so one config transfers between hidden sizes.
    w1 = rng.uniform(cfg.init_low, cfg.init_high,
                     (dataset.n_features + 1, n_hidden)) \
        / np.sqrt(dataset.n_features)
    w2 = rng.uniform(cfg.init_low, cfg.init_high,
                     (n_hidden + 1, dataset.n_classes)) / np.sqrt(n_hidden)
    window = _active_window(kind)
    if window is not None:
        # Bounded-gradient transfers only carry gradient inside their
        # window; start every threshold row inside it so no neuron is
        # born with a dead derivative.
        z_lo, z_hi = window
        mid, quarter = 0.5 * (z_lo + z_hi), 0.25 * (z_hi - z_lo)
        w1[-1, :] = rng.uniform(mid - quarter, mid + quarter, n_hidden)
        w2[-1, :] = rng.uniform(mid - quarter, mid + quarter,
                                dataset.n_classes)
    return _fit(dataset, kind, cfg, rng, w1, w2,
                on_grid=False, snapshot_from_start=False)


def finalize(result: TrainResult, dataset: Dataset,
             levels: int | None = GRID.levels,
             cfg: TrainConfig | None = None) -> TrainResult:
    """Fine-tune a trained network, by default quantization-aware.

    With `levels` at the crossbar's level count (the default), re-runs
    the fitting loop from the trained weights with every forward pass
    quantized to the crossbar's magnitude grid, so the returned weights
    lie exactly on that grid and the reported accuracy is the accuracy
    of exactly the weights a crossbar can hold. Any other grid would be
    snapped again by build_network, so it is refused. With levels=None
    it refines in plain float, which is useful as a hardening stage
    under a different config (for example with training noise enabled).
    Snapshot selection starts at the incoming weights, so the result
    never ranks below them. The input result is untouched.
    """
    if levels not in (None, GRID.levels):
        raise ConfigError(f"levels must be None or {GRID.levels}, "
                          f"got {levels!r}")
    cfg = cfg or result.config
    rng = np.random.default_rng([cfg.seed, 0 if levels is None else levels])
    return _fit(dataset, result.kind, cfg, rng,
                result.w1.copy(), result.w2.copy(),
                on_grid=levels is not None, snapshot_from_start=True)


@dataclass(frozen=True)
class QuantizationReport:
    levels: int
    pruned: int
    max_error: float
    rms_error: float


def _snap_weights(w: np.ndarray) -> np.ndarray:
    """quantize_weights' snapped array alone, for the training loop."""
    mag, scale = grid_magnitudes(w)
    return np.sign(w) * (mag / scale)


def quantize_weights(weights, levels: int = GRID.levels):
    """Snap weights onto the crossbar's representable magnitudes.

    Uses the conductance quantizer in weight space: the largest weight
    magnitude maps to the top level, sub-minimum magnitudes prune to
    zero, signs are untouched. The grid is the crossbar's, so `levels`
    must be its level count. Returns (quantized, report).
    """
    if levels != GRID.levels:
        raise ConfigError(f"levels must be {GRID.levels}, got {levels!r}")
    w = np.asarray(weights, dtype=float)
    quantized = _snap_weights(w)
    err = np.abs(quantized - w)
    report = QuantizationReport(
        levels=levels,
        pruned=int(np.sum((w != 0.0) & (quantized == 0.0))),
        max_error=float(err.max()),
        rms_error=float(np.sqrt(np.mean(err ** 2))),
    )
    return quantized, report


@dataclass(frozen=True)
class SearchResult:
    n_hidden: int
    result: TrainResult
    attempts: int  # total training runs spent


def min_hidden_search(
    dataset: Dataset,
    kind: TransferKind,
    cfg: TrainConfig | None = None,
    max_hidden: int = 48,
    restarts: int = 5,
) -> SearchResult:
    """Smallest hidden-layer size reaching 100% training accuracy.

    Scans sizes upward; each size gets `restarts` independent runs with
    seeds derived deterministically from (cfg.seed, size, restart), and
    the first run meeting the target wins.
    """
    cfg = cfg or TrainConfig()
    if not (_is_count(max_hidden) and _is_count(restarts)):
        raise ConfigError("max_hidden and restarts must be integers >= 1")
    attempts = 0
    for n_hidden in range(1, max_hidden + 1):
        for restart in range(restarts):
            seed = int(np.random.SeedSequence(
                [cfg.seed, n_hidden, restart]).generate_state(1)[0])
            run = train(dataset, n_hidden, kind, replace(cfg, seed=seed))
            attempts += 1
            if run.converged:
                return SearchResult(n_hidden=n_hidden, result=run,
                                    attempts=attempts)
    raise SearchError(
        f"no hidden size up to {max_hidden} reached full accuracy")


# -- weights file ------------------------------------------------------


def save_weights(path, result: TrainResult) -> None:
    """Write the trained network as a versioned JSON weights document."""
    doc = {
        "schema": WEIGHTS_SCHEMA,
        "transfer": result.kind.to_dict(),
        "layers": [
            {"n_inputs": result.n_features, "n_neurons": result.n_hidden,
             "weights": result.w1.tolist()},
            {"n_inputs": result.n_hidden, "n_neurons": result.n_classes,
             "weights": result.w2.tolist()},
        ],
        "accuracy": result.accuracy,
        "converged": result.converged,
        "epochs_run": result.epochs_run,
        "config": dataclasses.asdict(result.config),
        "history": result.history.tolist(),
    }
    Path(path).write_text(json.dumps(doc) + "\n")


# Former TrainConfig fields, now fixed in code: a stored config may hold
# each only at its fixed value, or this code cannot reproduce the run.
_RETIRED_KEYS = {
    "revive_rate": REVIVE_RATE, "lr_up": LR_UP, "lr_down": LR_DOWN,
    "loss_spike": LOSS_SPIKE, "noise_ensemble": NOISE_ENSEMBLE,
    "rail_weight": 0.0, "rail_margin": 0.1, "target_accuracy": 1.0,
    "surrogate_slope": 1.0, "momentum": MOMENTUM, "adaptive_lr": True,
    "kick_scale": KICK_SCALE, "center_inputs": True,
}


def load_weights(path) -> TrainResult:
    """Read a weights file written by save_weights.

    Every malformed file raises ConfigError: a missing key, a value of
    the wrong type or shape, or one that a check below refuses.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
        if doc.get("schema") != WEIGHTS_SCHEMA:
            raise ConfigError(
                f"expected schema {WEIGHTS_SCHEMA}, got {doc.get('schema')!r}")
        stored = dict(doc["config"])
        kind = TransferKind.from_dict(doc["transfer"])
        run = {k: doc[k] for k in ("accuracy", "converged", "epochs_run")}
        layers = doc["layers"]
        if len(layers) != 2 or layers[1]["n_inputs"] != layers[0]["n_neurons"]:
            raise ConfigError("need two layers, the second reading the first")
        w1, w2 = (np.array(layer["weights"], dtype=float) for layer in layers)
        for w, layer in zip((w1, w2), layers):
            if (w.shape != (layer["n_inputs"] + 1, layer["n_neurons"])
                    or not np.isfinite(w).all()):
                raise ConfigError("layer weights must be finite and "
                                  "[n_inputs + 1, n_neurons]")
        accuracy, converged, epochs = run.values()
        # `type` rather than `isinstance`, so that a bool passes for no number.
        if not (type(accuracy) in (int, float) and 0.0 <= accuracy <= 1.0):
            raise ConfigError(f"accuracy must be in [0, 1], got {accuracy!r}")
        if type(converged) is not bool:
            raise ConfigError(f"converged must be a bool, got {converged!r}")
        if not (type(epochs) is int and epochs >= 0):
            raise ConfigError(
                f"epochs_run must be an integer >= 0, got {epochs!r}")
        for key, fixed in _RETIRED_KEYS.items():
            if key in stored and stored.pop(key) != fixed:
                raise ConfigError(f"{key} is fixed at {fixed!r}; "
                                  "this run cannot be reproduced")
        unknown = stored.keys() - {
            f.name for f in dataclasses.fields(TrainConfig)}
        if unknown:
            raise ConfigError(f"unknown training settings {sorted(unknown)}")
        return TrainResult(
            w1=w1,
            w2=w2,
            kind=kind,
            config=TrainConfig(**stored),
            history=np.array(doc.get("history", []),
                             dtype=float).reshape(-1, 3),
            **run,
        )
    except KeyError as err:
        raise ConfigError(f"weights file lacks key {err}") from None
    except (AttributeError, TypeError, ValueError) as err:
        raise ConfigError(f"malformed weights file: {err}") from None

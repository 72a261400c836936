"""Offline trainer for the two-layer feed-forward recognizer.

Supports four neuron transfer functions: ideal step, saturating linear,
logistic sigmoid, and the simulated spin-neuron curve. The spin-neuron
activation is the device transfer sampled into a monotone lookup table,
always the device's (a stored table must equal it bit for bit), so
training and hardware inference share one ground truth; its net input is
a dimensionless weighted sum scaled by a drive current (the current that
a unit net input programs into the neuron).

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
import numbers
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .crossbar import GRID, grid_magnitudes
from .device import (I_DEPINNING, I_SATURATION, V_OUT_MAX, V_OUT_MIN,
                     NeuronDevice)
from .errors import ConfigError, DomainError, SearchError

WEIGHTS_SCHEMA = "spin-ann/1"

STT_TABLE_NODES = 1024


def _is_count(n, least: int = 1) -> bool:
    """Whether n is an integer >= least; a bool is an int, but no count."""
    return (isinstance(n, (int, np.integer)) and not isinstance(n, bool)
            and n >= least)


# Weights-file key of each spin-neuron value of a TransferKind, and the
# device's kind per node count that from_dict checks stored tables against.
_STT_FILE_KEYS = {"th1": "th1_a", "th2": "th2_a", "v_min": "v_min_v",
                  "v_max": "v_max_v", "drive_current": "drive_current_a",
                  "i_nodes": "i_nodes_a", "a_nodes": "a_nodes"}
_LOADED_KINDS: dict[int, TransferKind] = {}


@dataclass(frozen=True, eq=False)
class TransferKind:
    """Neuron activation selector; the spin neuron's table is the device's.

    For the spin neuron the table maps programming current to the
    normalized sensed output (V - v_min)/(v_max - v_min): exactly 0 up
    to the depinning threshold th1, exactly 1 at the full-travel current
    th2, continuous and nondecreasing between. drive_current converts
    the trainer's dimensionless net input into a programming current.
    All five and the table are the device's (stt_snn); none can be set.
    """

    tag: str
    n_nodes: int = STT_TABLE_NODES

    th1, th2, v_min, v_max = I_DEPINNING, I_SATURATION, V_OUT_MIN, V_OUT_MAX
    drive_current = I_SATURATION  # a net input of 1.0 saturates the neuron

    def __post_init__(self):
        if self.tag not in ("step", "sat_linear", "sigmoid", "stt_snn"):
            raise ConfigError(f"unknown transfer kind {self.tag!r}")
        if not _is_count(self.n_nodes, 3):
            raise ConfigError("need an integer n_nodes >= 3")

    @cached_property
    def i_nodes(self) -> np.ndarray:
        """The table's currents: 0, then a uniform grid on [th1, th2]."""
        return np.r_[0.0, np.linspace(self.th1, self.th2, self.n_nodes - 1)]

    @cached_property
    def a_nodes(self) -> np.ndarray:
        """The device's output at i_nodes, normalized to [0, 1]: a
        tier-1 test checks it is nondecreasing, 0 up to th1 and 1 at th2."""
        volts = np.array(list(map(NeuronDevice().transfer, self.i_nodes)))
        return (volts - self.v_min) / (self.v_max - self.v_min)

    @cached_property
    def derivative_table(self) -> tuple[np.ndarray, np.ndarray]:
        """(edges, gains), built on first use: the derivative at current i
        is gains[edges.searchsorted(i, "right")], exact between edges."""
        i, th1, th2 = self.i_nodes, self.th1, self.th2
        edges = np.sort(np.r_[i, np.nextafter(th1, np.inf), th2])
        segment = np.clip(i.searchsorted(edges, "right") - 1, 0, len(i) - 2)
        gain = np.diff(self.a_nodes) / np.diff(i) * self.drive_current
        inside = (edges > th1) & (edges < th2)
        return edges, np.r_[0.0, np.where(inside, gain[segment], 0.0)]

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
        """The spin neuron: the device's transfer at the T_PROGRAM pulse,
        sampled at n_nodes >= 3 currents (0, th1 and th2 apart) and
        interpolated between. Each instance builds its own table on first
        read, with n_nodes device calls."""
        return cls("stt_snn", n_nodes)

    def to_dict(self) -> dict:
        doc = {"tag": self.tag}
        if self.tag == "stt_snn":
            doc.update((key, np.asarray(getattr(self, name)).tolist())
                       for name, key in _STT_FILE_KEYS.items())
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "TransferKind":
        """The kind a to_dict document names. An n-node spin-neuron table
        must be stt_snn(n)'s bit for bit, built once per node count; each
        load's kind caches its own writeable copy of that table."""
        if doc["tag"] != "stt_snn":
            return cls(doc["tag"])
        n_nodes = len(doc["i_nodes_a"])
        device = _LOADED_KINDS.setdefault(n_nodes, cls.stt_snn(n_nodes))
        for name, key in _STT_FILE_KEYS.items():
            got, want = np.asarray(doc[key]), np.asarray(getattr(device, name))
            if got.dtype != want.dtype or got.tobytes() != want.tobytes():
                raise ConfigError(f"stored {key} is not the device's")
        kind = cls.stt_snn(n_nodes)
        vars(kind).update(i_nodes=device.i_nodes.copy(),
                          a_nodes=device.a_nodes.copy())
        return kind


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
        edges, gains = kind.derivative_table
        out = gains[edges.searchsorted(z * kind.drive_current, side="right")]
    return out if out.ndim else float(out)


# Per-epoch pull of a dead neuron back toward its window (_revive_dead_rows).
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
    aims at full accuracy, always centres the inputs (see _Problem) and
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
        # The rest are real numbers, not bools, and finite: NaN would pass
        # every range check below, as each comparison is False.
        wrong = [k for k, v in vars(self).items() if k not in counts and not (
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            and -math.inf < v < math.inf)]
        if wrong:
            raise ConfigError(f"{', '.join(wrong)} must be finite numbers")
        wrong = [k for k in ("learning_rate", "epochs", "weight_clip",
                             "positive_weight", "margin_weight")
                 if getattr(self, k) <= 0]
        if wrong:
            raise ConfigError(f"{', '.join(wrong)} must be positive")
        wrong = [k for k in ("seed", "kick_patience", "polish_epochs",
                             "margin_target", "train_sigma")
                 if getattr(self, k) < 0]
        if wrong:
            raise ConfigError(f"{', '.join(wrong)} must be >= 0")
        if self.init_low >= self.init_high:
            raise ConfigError("need init_low < init_high")
        if not (0.0 <= self.target_low < self.target_high <= 1.0):
            raise ConfigError("need 0 <= target_low < target_high <= 1")


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
                  | (self.labels != labels) | (labels.dtype == bool)):
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


def _net_inputs(x_aug: np.ndarray, w1: np.ndarray, w2: np.ndarray,
                kind: TransferKind):
    """Float forward pass on bias-augmented inputs up to the output net
    inputs: (z1, a1_aug, z2), with a1_aug the hidden activations plus the
    always-on column. Weights stacked `[K, rows, cols]` give each copy's
    2-D pass, bit for bit."""
    z1 = x_aug @ w1
    a1_aug = _augment(activation(z1, kind))
    return z1, a1_aug, a1_aug @ w2


def _forward(x_aug: np.ndarray, w1: np.ndarray, w2: np.ndarray,
             kind: TransferKind):
    """_net_inputs plus the output activations: (z1, a1_aug, z2, a2)."""
    z1, a1_aug, z2 = _net_inputs(x_aug, w1, w2, kind)
    return z1, a1_aug, z2, activation(z2, kind)


def output_activations(result: TrainResult, features) -> np.ndarray:
    """Output-layer activations of the trained float network."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    return _forward(_augment(x), result.w1, result.w2, result.kind)[3]


def _own_and_rest(a: np.ndarray, labels):
    """Each row's labelled entry `[..., n]` of `a` `[..., n, k]`, and a
    copy of `a` with -inf there, whose row maxima are the best others."""
    idx = np.arange(a.shape[-2])
    rest = a.copy()
    rest[..., idx, labels] = -np.inf
    return a[..., idx, labels], rest


def own_margins(a: np.ndarray, labels) -> np.ndarray:
    """Each row's labelled entry minus its best other entry.

    `a` is `[..., n, k]` and `labels` holds the `n` rows' labels; the
    result is `[..., n]`. A row is decided correctly only when its margin
    is positive, so a tie at the top is a wrong answer: saturating
    transfers can pin several outputs to the same rail.
    """
    own, rest = _own_and_rest(a, labels)
    return own - rest.max(axis=-1)


def _accuracy(a2: np.ndarray, labels: np.ndarray) -> float:
    hits = own_margins(a2, labels) > 0.0
    return float(np.count_nonzero(hits)) / hits.size


def _margin(a2: np.ndarray, labels: np.ndarray) -> float:
    """Smallest own-class-vs-runner-up activation gap over the batch."""
    return float(np.min(own_margins(a2, labels)))


def _decisions(z2: np.ndarray, labels: np.ndarray, kind: TransferKind):
    """(hits, margins) `[..., n]` of output net inputs `[..., n, k]`: is
    each row decided right, and its own-vs-best-other net-input gap.
    Only each row's own and top other net input are interpolated."""
    own, rest = _own_and_rest(z2, labels)
    top = rest.max(axis=-1)
    a_own, a_top = activation(np.stack((own, top)), kind)
    return a_own - a_top > 0.0, own - top


def _ensemble_key(hits: np.ndarray,
                  margins: np.ndarray) -> tuple[float, float]:
    """Snapshot key of a `[K, n]` ensemble's _decisions: the fraction of
    copies deciding every sample right, then the mean worst net-input
    margin. The margins add as floats in copy order; np.sum (pairwise)
    and, from Python 3.12, the builtin sum could round differently.
    The hits are own_margins(activation(z2)) > 0 bit for bit, as a noisy
    fit's computed activation is nondecreasing (_fit checks): the best
    other activation is then that of the best other net input."""
    perfect = int(np.all(hits, axis=-1).sum())
    margin_sum = 0.0
    for m in margins.min(axis=-1).tolist():
        margin_sum += m
    return perfect / len(hits), margin_sum / len(hits)


@dataclass(frozen=True, eq=False)
class _Problem:
    """What a fit reads and never changes.

    The first layer is optimized in mean-removed input coordinates: `x`
    is the features less their batch mean `offset`, plus the always-on
    column. All-positive feature vectors share a large common component
    that makes their gradient directions nearly collinear; removing it
    conditions the problem. w1 enters and leaves a fit in raw form, the
    shift folded exactly into its threshold row, and the weight clip and
    the quantization grid apply to that raw form.
    """

    offset: np.ndarray
    x: np.ndarray
    targets: np.ndarray
    err_weight: np.ndarray
    labels: np.ndarray
    idx: np.ndarray  # arange over the samples, to index own entries
    window: tuple[float, float] | None  # _active_window(kind)
    kind: TransferKind
    cfg: TrainConfig
    on_grid: bool
    snapshot_from_start: bool


class _Run:
    """What the epochs of one fit advance; w1 is in fit coordinates.

    g1 and g2 are the jitter factors of a noise-aware epoch's stacked
    copies, None when training is clean. Copy 1 is exactly 1.0, and the
    frozen ensemble (copies 2..) keeps its draws every epoch, so ranks
    compare geometry, not luck. f1 and f2 are the last forward weights.

    `carry` is an accepted step's probe, carried into the next epoch:
    its snapped weights before jitter (off the grid the shadow arrays,
    which the dead-row revival edits in place only after the forward
    pass) and, for a clean epoch, its forward pass and loss. A noisy
    epoch's fresh jitter needs a pass of its own. A rejected step or a
    kick carries nothing.
    """

    def __init__(self, p: _Problem, rng: np.random.Generator,
                 w1: np.ndarray, w2: np.ndarray):
        self.w1, self.w2, self.rng = _unfold_offset(w1, p.offset), w2, rng
        self.g1 = self.g2 = None
        if p.cfg.train_sigma > 0.0:
            self.g1, self.g2 = (np.ones((2 + NOISE_ENSEMBLE, *w.shape))
                                for w in (self.w1, w2))
            for g in (self.g1, self.g2):
                g[2:] += p.cfg.train_sigma * rng.standard_normal(g[2:].shape)
        self.best_snap = self.polish_left = self.carry = None
        self.f1 = self.f2 = None
        self.converged, self.history = False, []
        self.restart(p.cfg)

    def restart(self, cfg: TrainConfig) -> None:
        """Clear the momentum memory and the plateau clock, and restore
        the initial learning rate."""
        self.v1, self.v2 = np.zeros_like(self.w1), np.zeros_like(self.w2)
        self.lr, self.best_loss, self.best_acc, self.stalled = \
            cfg.learning_rate, np.inf, -1.0, 0


def _fwd_weights(p: _Problem, m1: np.ndarray, m2: np.ndarray):
    if not p.on_grid:
        return m1, m2
    q1 = _snap_weights(_fold_offset(m1, p.offset))
    return _unfold_offset(q1, p.offset), _snap_weights(m2)


def _clip(p: _Problem, m: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(m, -p.cfg.weight_clip), p.cfg.weight_clip)


def _clip_layer1(p: _Problem, m1: np.ndarray) -> np.ndarray:
    """Clip in raw form so the folded threshold row obeys the same
    bound as every other weight, then return to fit coordinates."""
    return _unfold_offset(_clip(p, _fold_offset(m1, p.offset)), p.offset)


def _margin_residual(p: _Problem, z_out: np.ndarray):
    """Hinge per sample: how far the own-vs-runner-up net-input gap
    falls short of margin_target, the runner-up's index and the gap."""
    own, rest = _own_and_rest(z_out, p.labels)
    runner = np.argmax(rest, axis=1)
    gap = own - rest[p.idx, runner]
    return np.maximum(0.0, p.cfg.margin_target - gap), runner, gap


def _mean(e: np.ndarray) -> float:
    # np.mean's own sum and division, without its dispatch.
    return float(np.add.reduce(e, axis=None)) / e.size


def _batch_loss(p: _Problem, z_out: np.ndarray, a_out: np.ndarray):
    """(loss, its _margin_residual or None), for the gradient to reuse."""
    loss = _mean(p.err_weight * (a_out - p.targets) ** 2)
    if p.cfg.margin_target <= 0.0:
        return loss, None
    residual = _margin_residual(p, z_out)
    return loss + p.cfg.margin_weight * _mean(residual[0] ** 2), residual


def _scored(p: _Problem, m1: np.ndarray, m2: np.ndarray):
    """((z1, a1_aug, z2, a2), (loss, residual)) of one 2-D pass."""
    out = _forward(p.x, m1, m2, p.kind)
    return out, _batch_loss(p, out[2], out[3])


def _epoch(p: _Problem, run: _Run, epoch: int) -> bool:
    """Measure the weights after `epoch` updates, then update them once;
    True when the run stops instead.

    A noise-aware epoch is one stacked net-input pass: copy 0 is
    jittered for the loss and gradient, copy 1 is clean for the accuracy
    and the rest are the frozen snapshot-ranking ensemble. Copies 1.. are
    scored by _decisions, exact as the activation is nondecreasing (see
    _ensemble_key).
    """
    cfg = p.cfg
    f1, f2, probe = run.carry or (*_fwd_weights(p, run.w1, run.w2), None)
    run.f1, run.f2, run.carry = f1, f2, None
    noisy = run.g1 is not None
    if noisy:
        # Fresh forward jitter each epoch: gradients are taken on the
        # perturbed network, so descent favors weight configurations
        # whose decisions survive the perturbation.
        for g in (run.g1[0], run.g2[0]):
            run.rng.standard_normal(out=g)
            g *= cfg.train_sigma
            g += 1.0
        s2 = f2 * run.g2
        z1s, a1s, z2s = _net_inputs(p.x, f1 * run.g1, s2, p.kind)
        z1, a1_aug, z2, n2 = z1s[0], a1s[0], z2s[0], s2[0]
        a2 = activation(z2, p.kind)
        hits, margins = _decisions(z2s[1:], p.labels, p.kind)
        accuracy = float(np.count_nonzero(hits[0])) / hits[0].size
        loss, residual = _batch_loss(p, z2, a2)
    else:
        (z1, a1_aug, z2, a2), (loss, residual) = probe or _scored(p, f1, f2)
        accuracy, n2 = _accuracy(a2, p.labels), f2
    run.history.append((epoch, loss, accuracy))

    if p.snapshot_from_start or run.polish_left is not None \
            or (accuracy == 1.0 and cfg.polish_epochs):
        # Rank equally accurate epochs by what the weight grid and
        # device noise consume: the net-input margin, or under
        # noise-aware training the frozen-ensemble survival.
        if noisy:
            snap = (accuracy, *_ensemble_key(hits[1:], margins[1:]))
        else:
            snap = (accuracy, _margin(z2, p.labels) if residual is None
                    else float(residual[2].min()))
        if run.best_snap is None or snap > run.best_snap[:len(snap)]:
            run.best_snap = (*snap, f1.copy(), f2.copy())
    if accuracy == 1.0:
        run.converged = True
        if run.polish_left is None:
            run.polish_left = cfg.polish_epochs
    if run.polish_left == 0 or epoch == cfg.epochs:
        return True
    if run.polish_left is not None:
        run.polish_left -= 1

    # Progress means a meaningful loss drop or a new accuracy high;
    # sub-0.1% loss creep on a plateau does not reset the clock.
    if loss < run.best_loss * (1.0 - 1e-3) or accuracy > run.best_acc:
        run.stalled = 0
    else:
        run.stalled += 1
    run.best_loss = min(run.best_loss, loss)
    run.best_acc = max(run.best_acc, accuracy)
    if cfg.kick_patience and run.stalled >= cfg.kick_patience \
            and run.polish_left is None and accuracy < 1.0:
        n_features, n_hidden = run.w1.shape[0] - 1, run.w1.shape[1]
        run.w1 = _clip_layer1(p, run.w1 + run.rng.uniform(
            -KICK_SCALE, KICK_SCALE, run.w1.shape) / np.sqrt(n_features))
        run.w2 = _clip(p, run.w2 + run.rng.uniform(
            -KICK_SCALE, KICK_SCALE, run.w2.shape) / np.sqrt(n_hidden))
        run.restart(cfg)
        return False

    if p.window is not None:
        _revive_dead_rows(run.w1, z1, p.window)
        _revive_dead_rows(run.w2, z2, p.window)
    delta2 = p.err_weight * (a2 - p.targets) * activation_derivative(
        z2, p.kind)
    if residual is not None:
        # Push each sample's own net input up and its runner-up's down
        # until the gap reaches margin_target. Applied past the
        # activation derivative so a saturated runner-up keeps moving
        # away instead of parking just over the rail.
        shortfall, runner, _ = residual
        delta2[p.idx, p.labels] -= cfg.margin_weight * shortfall
        delta2[p.idx, runner] += cfg.margin_weight * shortfall
    delta1 = (delta2 @ n2[:-1].T) * activation_derivative(z1, p.kind)
    n = len(p.x)
    v1 = MOMENTUM * run.v1 - run.lr * (p.x.T @ delta1 / n)
    v2 = MOMENTUM * run.v2 - run.lr * (a1_aug.T @ delta2 / n)
    w1, w2 = _clip_layer1(p, run.w1 + v1), _clip(p, run.w2 + v2)

    q1, q2 = _fwd_weights(p, w1, w2)
    # Same jitter as this epoch's forward, so the comparison isolates
    # the effect of the step.
    probe = _scored(p, q1 * run.g1[0], q2 * run.g2[0]) if noisy \
        else _scored(p, q1, q2)
    next_loss = probe[1][0]
    if next_loss > loss * LOSS_SPIKE:
        # Overshoot: discard the step, cool down, clear momentum.
        run.lr *= LR_DOWN
        run.v1, run.v2 = np.zeros_like(run.v1), np.zeros_like(run.v2)
        return False
    if next_loss < loss:
        run.lr *= LR_UP
    run.v1, run.v2, run.w1, run.w2 = v1, v2, w1, w2
    run.carry = q1, q2, None if noisy else probe
    return False


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
    """
    # Noisy epochs need a nondecreasing computed activation (_ensemble_key):
    # the sigmoid's is not, nor a table's whose segment overshoots a node.
    if cfg.train_sigma > 0.0 and (kind.tag == "sigmoid" or (
            kind.tag == "stt_snn" and not (np.interp(np.nextafter(
                kind.i_nodes[1:], -np.inf), kind.i_nodes, kind.a_nodes)
                <= kind.a_nodes[1:]).all())):
        raise ConfigError("noise-aware training needs a nondecreasing "
                          f"computed activation, which {kind.tag} lacks")
    offset = dataset.features.mean(axis=0)
    one_hot = dataset.one_hot
    p = _Problem(
        offset, _augment(dataset.features - offset),
        one_hot * (cfg.target_high - cfg.target_low) + cfg.target_low,
        np.where(one_hot > 0.0, cfg.positive_weight, 1.0), dataset.labels,
        np.arange(len(one_hot)), _active_window(kind), kind, cfg, on_grid,
        snapshot_from_start)
    run = _Run(p, rng, w1, w2)
    # One measurement per epoch boundary: epoch k's row describes the
    # weights after k updates.
    for epoch in range(cfg.epochs + 1):
        if _epoch(p, run, epoch):
            break
    epochs_run, _, accuracy = run.history[-1]
    if run.best_snap is not None:
        accuracy, w1, w2 = run.best_snap[0], *run.best_snap[-2:]
    else:
        w1, w2 = (run.f1, run.f2) if on_grid else (run.w1, run.w2)
    return TrainResult(
        w1=_fold_offset(w1, offset), w2=w2, kind=kind, config=cfg,
        accuracy=accuracy, converged=run.converged, epochs_run=epochs_run,
        history=np.array(run.history).reshape(-1, 3))


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
    if not (levels is None or _is_count(levels) and levels == GRID.levels):
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
    if not (_is_count(levels) and levels == GRID.levels):
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
        "layers": [{"n_inputs": w.shape[0] - 1, "n_neurons": w.shape[1],
                    "weights": w.tolist()} for w in (result.w1, result.w2)],
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
    the wrong type or shape, a spin-neuron table not the device's bit for
    bit (TransferKind.from_dict), or one that a check below refuses.
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

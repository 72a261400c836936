"""Memristor crossbar synapse array.

Signed weights are stored as paired conductances: the positive-rail bar of
input i carries g_plus[i][j], the negative-rail bar carries g_minus[i][j],
and at most one of the pair is on for any weight. Dummy cells pad every
physical bar to a common total conductance so the current divider is
uniform across inputs, and the column current is the conductance-weighted
sum of the bar currents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError


def _row_products(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """`x @ g` for every row of `x`, each as its own one-row product.

    A batch goes through the same one-row kernel as a single vector, so
    every row's sum runs in the same order and a batched result equals
    the row-by-row one bit for bit; a plain `X @ G` picks a blocked
    kernel whose sums differ in the last bits.
    """
    return np.matmul(x[..., None, :], g)[..., 0, :]


# Gaussian variation tails are kept physical by clamping perturbed
# conductances to this multiple of g_max (3 sigma at 5% stays untouched).
VARIATION_CLAMP_FACTOR = 1.25


@dataclass(frozen=True)
class ConductanceRange:
    """Programmable conductance window and resolution.

    Defaults follow a 1 kOhm..32 kOhm memristor with 32 levels (5-bit
    magnitude); an unprogrammed cell is ideally off, at 0 S.
    """

    g_min: float = 1.0 / 32e3
    g_max: float = 1.0 / 1e3
    levels: int = 32

    def __post_init__(self):
        if not (0.0 < self.g_min < self.g_max):
            raise ConfigError("need 0 < g_min < g_max")
        if self.levels < 2:
            raise ConfigError("need at least 2 conductance levels")

    @property
    def level_values(self) -> np.ndarray:
        """The representable on-state conductances, uniformly spaced."""
        return np.linspace(self.g_min, self.g_max, self.levels)

    @property
    def step(self) -> float:
        return (self.g_max - self.g_min) / (self.levels - 1)

    def quantize(self, g_target) -> np.ndarray:
        """Nearest representable conductance; sub-g_min targets prune to off.

        Levels are uniformly spaced in conductance, not resistance: the
        weighted sum is linear in conductance, so this gives uniform
        weight resolution. Exact half-step ties take the lower level.
        """
        g = np.asarray(g_target, dtype=float)
        x = (np.minimum(g, self.g_max) - self.g_min) / self.step
        idx = np.ceil(x - 0.5)  # nearest, ties toward the lower level
        quantized = self.g_min + idx * self.step
        return np.where(g < self.g_min, 0.0, quantized)


@dataclass(eq=False)
class CrossbarArray:
    """Paired-conductance crossbar with dummy-equalized bar totals.

    g_plus/g_minus are [inputs x neurons] matrices (one physical bar per
    input per polarity); dummy_plus/dummy_minus are [inputs x n_dummy]
    pads bringing every bar total to the common g_tr target. Instances
    are treated as immutable after construction, so the bar totals
    g_tr_plus/g_tr_minus are computed once there; variation injection
    returns a perturbed copy that keeps a handle on the nominal array.
    `scale` is the conductance per unit weight of the mapping that built
    the array, S.
    A stacked array holds T perturbed copies at once: every conductance
    field is [T, rows, cols] and every bar total [T, rows].
    """

    g_plus: np.ndarray
    g_minus: np.ndarray
    dummy_plus: np.ndarray
    dummy_minus: np.ndarray
    range: ConductanceRange
    scale: float | None = None
    nominal: "CrossbarArray | None" = None
    # Total conductance of each positive-/negative-rail bar, dummies
    # included.
    g_tr_plus: np.ndarray = field(init=False, repr=False)
    g_tr_minus: np.ndarray = field(init=False, repr=False)
    # Each rail's divisor: its bar totals with every zero replaced by +inf,
    # a stacked array's given a drive axis after the trial axis.
    _div_plus: np.ndarray = field(init=False, repr=False)
    _div_minus: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.g_plus = np.asarray(self.g_plus, dtype=float)
        self.g_minus = np.asarray(self.g_minus, dtype=float)
        self.dummy_plus = np.asarray(self.dummy_plus, dtype=float)
        self.dummy_minus = np.asarray(self.dummy_minus, dtype=float)
        if self.g_plus.shape != self.g_minus.shape:
            raise ConfigError("g_plus and g_minus shapes differ")
        if self.dummy_plus.shape != self.dummy_minus.shape:
            raise ConfigError("dummy shapes differ")
        if self.dummy_plus.shape[:-1] != self.g_plus.shape[:-1]:
            raise ConfigError("dummy and conductance rows differ")
        self.g_tr_plus = (self.g_plus.sum(axis=-1)
                          + self.dummy_plus.sum(axis=-1))
        self.g_tr_minus = (self.g_minus.sum(axis=-1)
                           + self.dummy_minus.sum(axis=-1))
        rows = (slice(None), None) if self.g_plus.ndim == 3 else ()
        self._div_plus, self._div_minus = (
            np.where(g_tr > 0.0, g_tr, np.inf)[rows]
            for g_tr in (self.g_tr_plus, self.g_tr_minus))

    @property
    def n_inputs(self) -> int:
        return self.g_plus.shape[-2]

    @property
    def n_outputs(self) -> int:
        return self.g_plus.shape[-1]

    @property
    def n_dummy(self) -> int:
        return self.dummy_plus.shape[-1]

    def weighted_sum(self, i_in) -> np.ndarray:
        """Column currents sum_i I * (g+/g_tr+ - g-/g_tr-), dummies excluded.

        Each input drives both of its bars with the current I, and each
        bar is a current divider: the fraction of the bar current
        reaching column j is that cell's share of the bar total. The
        drive has shape `[..., n_inputs]`, every leading index one
        independent drive, and the result is `[..., n_outputs]`.
        A stacked array of T copies inserts its trial axis before the
        drive axis: drives `[n, n_inputs]`, shared by every copy, or
        `[T, n, n_inputs]` give `[T, n, n_outputs]`.
        A bar with zero total conductance divides its drive by +inf, so
        a finite current through it carries none; a negative one gives
        -0.0 rather than +0.0, which compares equal, and
        `SpinAnnNetwork.forward` never drives a negative current.
        """
        i_in = np.asarray(i_in, dtype=float)
        if i_in.shape[-1:] != (self.n_inputs,):
            raise DomainError(
                f"input currents must have shape [..., {self.n_inputs}]"
            )
        g_plus, g_minus = self.g_plus, self.g_minus
        if g_plus.ndim == 3:
            g_plus, g_minus = g_plus[:, None], g_minus[:, None]
        pos = _row_products(i_in / self._div_plus, g_plus)
        neg = _row_products(i_in / self._div_minus, g_minus)
        return pos - neg

    def decode_weights(self) -> np.ndarray:
        """Signed weights recovered at the recorded mapping scale."""
        if self.scale is None:
            raise ConfigError("array was not built from a weight mapping")
        return (self.g_plus - self.g_minus) / self.scale


def map_weights(weights, quantize: bool = True) -> CrossbarArray:
    """Map a signed weight matrix onto paired quantized conductances.

    The largest weight magnitude lands on g_max; positive weights program
    the positive-rail cell, negative weights the negative-rail cell, and
    zero leaves both off. Targets below g_min prune to off rather than
    rounding up, which bounds the error by the same amount without
    inflating small weights. Dummy cells then pad every bar to the
    largest bar total, split across columns so no single dummy exceeds
    g_max. The level grid is the default ConductanceRange, the one
    training snaps onto. ``quantize=False`` keeps continuous conductances
    (ideal-mode reference).
    """
    crange = ConductanceRange()
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise DomainError("weights must be a 2-D matrix")
    if not np.all(np.isfinite(w)):
        raise DomainError("weights must be finite")
    w_max = float(np.max(np.abs(w)))
    if w_max == 0.0:
        raise DomainError("all-zero weight matrix has no mapping scale")
    scale = crange.g_max / w_max

    targets = np.abs(w) * scale
    # The continuous reference mapping has no level grid and no pruning,
    # so the decoded weights reproduce the originals exactly.
    mag = crange.quantize(targets) if quantize else targets
    g_plus = np.where(w > 0.0, mag, 0.0)
    g_minus = np.where(w < 0.0, mag, 0.0)

    # Equalize all 2N physical bars to the global maximum bar total.
    row_plus = g_plus.sum(axis=1)
    row_minus = g_minus.sum(axis=1)
    target = float(max(row_plus.max(), row_minus.max()))
    deficit_plus = target - row_plus
    deficit_minus = target - row_minus
    n_dummy = max(1, int(np.ceil(max(deficit_plus.max(), deficit_minus.max())
                                 / crange.g_max)))
    dummy_plus = _split_dummies(deficit_plus, n_dummy, crange.g_max)
    dummy_minus = _split_dummies(deficit_minus, n_dummy, crange.g_max)

    return CrossbarArray(g_plus, g_minus, dummy_plus, dummy_minus, crange,
                         scale)


def _split_dummies(deficits: np.ndarray, n_dummy: int, g_max: float) -> np.ndarray:
    """Spread each bar's deficit over dummy columns, each cell <= g_max."""
    out = np.zeros((len(deficits), n_dummy))
    for i, d in enumerate(deficits):
        remaining = d
        for k in range(n_dummy):
            out[i, k] = min(remaining, g_max)
            remaining -= out[i, k]
    return out


def inject_variation(array: CrossbarArray, sigma: float,
                     seed) -> CrossbarArray:
    """Multiply every on-state conductance by (1 + N(0, sigma)).

    Dummy cells vary too, and the bar totals are recomputed from the
    perturbed values, so the current dividers shift with the variation.
    `seed` is one seed, giving one perturbed copy, or a 1-D sequence of
    T seeds, giving a stacked array whose copy t equals the copy of
    `seed[t]` alone. Each copy is one `default_rng(seed).normal` draw
    over all cells, split in field order: g_plus, g_minus, dummy_plus,
    dummy_minus. Deterministic for given seeds. sigma = 0 returns
    identical copies.
    """
    if not np.isfinite(sigma) or sigma < 0.0:
        raise DomainError("sigma must be finite and >= 0")
    stacked = np.ndim(seed) == 1
    seeds = seed if stacked else [seed]
    fields = (array.g_plus, array.g_minus, array.dummy_plus,
              array.dummy_minus)
    sizes = [g.size for g in fields]
    noise = np.zeros((len(seeds), sum(sizes)))
    if sigma > 0.0:
        for row, s in zip(noise, seeds):
            row[:] = np.random.default_rng(s).normal(0.0, sigma,
                                                     size=row.size)
    hi = VARIATION_CLAMP_FACTOR * array.range.g_max
    varied = []
    for g, part in zip(fields, np.split(noise, np.cumsum(sizes)[:-1],
                                        axis=1)):
        part = part.reshape((len(seeds),) + g.shape)
        on = g > 0.0
        out = np.where(on, np.clip(g * (1.0 + part), 0.0, hi), g)
        varied.append(out if stacked else out[0])
    return CrossbarArray(
        *varied,
        range=array.range,
        scale=array.scale,
        nominal=array.nominal if array.nominal is not None else array,
    )

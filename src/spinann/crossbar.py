"""Memristor crossbar synapse array.

Signed weights are stored as paired conductances: the positive-rail bar of
input i carries g[0, i, j], the negative-rail bar carries g[1, i, j], and
at most one of the pair is on for any weight. Dummy cells pad every
physical bar to a common total conductance so the current divider is
uniform across inputs. Every column and dummy ends at a virtual ground
(0 V), so each bar divides its current by conductance share alone and
the column current is the conductance-weighted sum of the bar currents.
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


def _row_sums(x: np.ndarray) -> np.ndarray:
    """`x.sum(axis=-1)`, bit for bit.

    numpy adds a row of fewer than 8 cells from left to right, starting
    from +0.0, so such rows are added here in that order, in a few
    whole-array adds rather than one slow last-axis reduction; longer
    rows are summed pairwise, and keep the reduction.
    """
    n = x.shape[-1]
    if not 0 < n < 8:
        return x.sum(axis=-1)
    total = x[..., 0] + 0.0
    for k in range(1, n):
        total += x[..., k]
    return total


# Gaussian variation tails are kept physical by clamping perturbed
# conductances to this multiple of g_max (3 sigma at 5% stays untouched).
VARIATION_CLAMP_FACTOR = 1.25


class ConductanceRange:
    """The programmable conductance window and resolution: a 1 kOhm..32 kOhm
    memristor with 32 levels (5-bit magnitude); an unprogrammed cell is
    ideally off, at 0 S. The window is fixed, so its constants are checked
    by a test, not here.
    """

    g_min = 1.0 / 32e3
    g_max = 1.0 / 1e3
    levels = 32
    # The representable on-state conductances, uniformly spaced; read-only.
    level_values = np.linspace(g_min, g_max, levels)
    level_values.flags.writeable = False
    step = (g_max - g_min) / (levels - 1)

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


# The one conductance grid: mapping quantizes onto it, variation clamps to
# its g_max and training snaps weights onto it.
GRID = ConductanceRange()


@dataclass(eq=False)
class CrossbarArray:
    """Paired-conductance crossbar with dummy-equalized bar totals.

    The rail is an array axis: `g` is [2, inputs, neurons] and `dummy`
    [2, inputs, n_dummy], rail 0 the positive bars and rail 1 the
    negative bars, one physical bar per input per rail. The dummies pad
    every bar total to the common target. Instances are treated as
    immutable after construction, so the bar totals `g_tr` [2, inputs]
    are computed once there; variation injection returns a perturbed
    copy whose `nominal` is the unperturbed array, and every later
    injection perturbs that array instead. `scale` is the
    conductance per unit weight of the mapping that built the array, S.
    A stacked array holds T perturbed copies at once, the trial axis
    first: `g` is [T, 2, inputs, neurons], `dummy` [T, 2, inputs,
    n_dummy] and `g_tr` [T, 2, inputs].
    """

    g: np.ndarray
    dummy: np.ndarray
    scale: float | None = None
    nominal: "CrossbarArray | None" = None
    # Total conductance of each bar, dummies included.
    g_tr: np.ndarray = field(init=False, repr=False)
    # The divisor of each bar's drive: its total with every zero replaced
    # by +inf, a stacked array's given a drive axis after the trial axis.
    _div: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=float)
        self.dummy = np.asarray(self.dummy, dtype=float)
        if self.g.ndim not in (3, 4) or self.g.shape[-3] != 2:
            raise ConfigError("g needs a rail axis of 2 before its bars")
        if self.dummy.shape[:-1] != self.g.shape[:-1]:
            raise ConfigError("dummy and conductance bars differ")
        self.g_tr = _row_sums(self.g) + _row_sums(self.dummy)
        rows = (slice(None), None) if self.g.ndim == 4 else ()
        self._div = np.where(self.g_tr > 0.0, self.g_tr, np.inf)[rows]

    @property
    def n_inputs(self) -> int:
        return self.g.shape[-2]

    @property
    def n_outputs(self) -> int:
        return self.g.shape[-1]

    @property
    def n_cells(self) -> int:
        """Cells of one copy, dummies included: `perturb`'s noise count."""
        return 2 * self.n_inputs * (self.n_outputs + self.dummy.shape[-1])

    def weighted_sum(self, i_in) -> np.ndarray:
        """Column currents sum_i I * (g[0]/g_tr[0] - g[1]/g_tr[1]), dummies
        excluded.

        Each input drives both of its bars with the current I, and each
        bar is a current divider: the fraction of the bar current
        reaching column j is that cell's share of the bar total. Both
        rails run as one divide and one product over the rail axis, and
        the negative rail's columns are subtracted from the positive's.
        The drive has shape `[..., n_inputs]`, every leading index one
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
        g = self.g if self.g.ndim == 3 else self.g[:, None]
        rails = _row_products(i_in[..., None, :] / self._div, g)
        return rails[..., 0, :] - rails[..., 1, :]


def grid_magnitudes(w, quantize: bool = True) -> tuple[np.ndarray, float]:
    """(|w| as conductances, the largest at g_max; S per unit weight).

    `quantize` snaps them onto GRID's levels, pruning targets below g_min
    to off rather than rounding up: that bounds the error by the same
    amount without inflating small weights."""
    mag = np.abs(w)
    w_max = float(mag.max())
    # The largest magnitude is NaN or inf exactly when some weight is.
    if not 0.0 < w_max < np.inf:
        raise DomainError("weights must be finite and not all zero")
    scale = GRID.g_max / w_max
    targets = mag * scale
    return (GRID.quantize(targets) if quantize else targets), scale


def map_weights(weights, quantize: bool = True) -> CrossbarArray:
    """Map a signed weight matrix onto paired quantized conductances.

    The magnitudes are `grid_magnitudes`, training's snap; positive
    weights program the positive-rail cell, negative weights the
    negative-rail cell, and zero leaves both off. Dummy cells then pad
    every bar to the largest bar total, split across columns so no single
    dummy exceeds g_max. ``quantize=False`` keeps continuous conductances
    (ideal mode), so the decoded weights reproduce the originals exactly.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise DomainError("weights must be a 2-D matrix")
    mag, scale = grid_magnitudes(w, quantize)
    g = np.where([w > 0.0, w < 0.0], mag, 0.0)

    # Equalize all 2N physical bars to the global maximum bar total,
    # filling each bar's dummy columns in order, none above g_max.
    bars = g.sum(axis=-1)
    deficit = bars.max() - bars
    n_dummy = max(1, int(np.ceil(deficit.max() / GRID.g_max)))
    dummy = np.empty(bars.shape + (n_dummy,))
    for k in range(n_dummy):
        dummy[..., k] = np.minimum(deficit, GRID.g_max)
        deficit -= dummy[..., k]
    return CrossbarArray(g, dummy, scale)


def perturb(array: CrossbarArray, sigma: float, z) -> CrossbarArray:
    """Multiply every on-state conductance of the nominal array
    (`array.nominal`, else `array`) by (1 + sigma * z).

    Chained calls thus never accumulate variation on variation. Dummy
    cells vary too, and the bar totals are recomputed from the perturbed
    values, so the current dividers shift with the variation. Perturbed
    cells are clamped to [0, VARIATION_CLAMP_FACTOR * GRID.g_max].
    `z` holds one standard normal per cell, in this order: rail 0's
    cells (`g[0]`), rail 1's cells (`g[1]`), then rail 0's and rail 1's
    dummies (`dummy[0]`, `dummy[1]`), each in row-major order. `[n_cells]`
    gives one perturbed copy, and `[T, n_cells]` a stacked array whose
    copy t equals the copy of row t alone. A float64 `z` is scaled in
    place. sigma is a number, not a bool; sigma = 0 returns identical
    copies.
    """
    # A bool would run at sigma = 1.
    if isinstance(sigma, (bool, np.bool_)) or not 0.0 <= sigma < np.inf:
        raise DomainError(f"sigma must be a finite number >= 0, got {sigma!r}")
    array = array.nominal or array
    fields = (array.g, array.dummy)
    flat = np.concatenate([f.ravel() for f in fields])
    varied = np.asarray(z, dtype=float)
    if varied.ndim not in (1, 2) or varied.shape[-1] != flat.size \
            or varied.size == 0:
        raise ConfigError(f"z must be [{flat.size}] or [T, {flat.size}]")
    stacked = varied.ndim == 2
    varied = varied.reshape(-1, flat.size)
    # Each row becomes, in place, its copy's conductances: g * (1 + sigma
    # * z) clamped to [0, VARIATION_CLAMP_FACTOR * g_max] on cells that
    # are on, g elsewhere. `normal(0, sigma)` returns 0 + sigma * z for
    # the same standard-normal stream z; 0 + x differs from x only in the
    # sign of a zero, which 1 + noise erases, so sigma * z gives the same
    # conductances.
    varied *= sigma
    varied += 1.0
    varied *= flat
    np.clip(varied, 0.0, VARIATION_CLAMP_FACTOR * GRID.g_max, out=varied)
    off = np.flatnonzero(~(flat > 0.0))
    varied[:, off] = flat[off]
    parts = [part.reshape((len(varied),) + f.shape) for f, part in
             zip(fields, np.split(varied, [array.g.size], axis=1))]
    return CrossbarArray(
        *(parts if stacked else [p[0] for p in parts]),
        scale=array.scale,
        nominal=array,
    )


def _seed_list(seed) -> list:
    """`seed`, one seed or a 1-D sequence of them, as a list of seeds.

    A seed is an integer, not a bool: anything else raises TypeError, and
    an empty sequence ValueError. numpy refuses a negative one with
    ValueError.
    """
    seeds = list(seed) if np.ndim(seed) == 1 else [seed]
    if np.ndim(seed) > 1 or not all(
            isinstance(s, (int, np.integer)) and not isinstance(s, bool)
            for s in seeds):
        raise TypeError("seed must be an integer or a 1-D sequence of them")
    if not seeds:
        raise ValueError("seed sequence is empty")
    return seeds


def inject_variation(array: CrossbarArray, sigma: float,
                     seed) -> CrossbarArray:
    """`perturb` with each copy's noise drawn from `default_rng(seed)`,
    so it is numpy's `default_rng(seed).normal(0, sigma, cells)` draw,
    bit for bit.

    `seed` is one non-negative integer seed, giving one perturbed copy,
    or a 1-D sequence of T of them, giving a stacked array whose copy t
    equals the copy of `seed[t]` alone; `_seed_list` says which seeds
    are refused.
    """
    seeds = _seed_list(seed)
    z = np.empty((len(seeds), array.n_cells))
    for row, s in zip(z, seeds):
        np.random.default_rng(s).standard_normal(out=row)
    return perturb(array, sigma, z if np.ndim(seed) else z[0])

"""Memristor crossbar synapse array.

Signed weights are stored as paired conductances: the positive-rail bar of
input i carries g_plus[i][j], the negative-rail bar carries g_minus[i][j],
and at most one of the pair is on for any weight. Dummy cells pad every
physical bar to a common total conductance so the current divider is
uniform across inputs, and the column current is the conductance-weighted
sum of the bar currents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, WriteError

SCHEMA = "crossbar/1"


def _safe_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


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
    magnitude); g_off is the ideal off state of an unprogrammed cell.
    """

    g_min: float = 1.0 / 32e3
    g_max: float = 1.0 / 1e3
    levels: int = 32
    g_off: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.g_off < self.g_min < self.g_max):
            raise ConfigError("need 0 <= g_off < g_min < g_max")
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
        return np.where(g < self.g_min, self.g_off, quantized)


@dataclass
class MappingReport:
    """Bookkeeping from a weight-to-conductance mapping."""

    scale: float  # conductance per unit weight, S
    pruned: int  # weights snapped to off because the target fell below g_min
    max_abs_weight: float


@dataclass(eq=False)
class CrossbarArray:
    """Paired-conductance crossbar with dummy-equalized bar totals.

    g_plus/g_minus are [inputs x neurons] matrices (one physical bar per
    input per polarity); dummy_plus/dummy_minus are [inputs x n_dummy]
    pads bringing every bar total to the common g_tr target. Instances
    are treated as immutable after construction, so the bar totals
    g_tr_plus/g_tr_minus are computed once there; variation injection
    returns a perturbed copy that keeps a handle on the nominal array.
    """

    g_plus: np.ndarray
    g_minus: np.ndarray
    dummy_plus: np.ndarray
    dummy_minus: np.ndarray
    range: ConductanceRange
    report: MappingReport | None = None
    nominal: "CrossbarArray | None" = None
    # Total conductance of each positive-/negative-rail bar, dummies
    # included.
    g_tr_plus: np.ndarray = field(init=False, repr=False)
    g_tr_minus: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.g_plus = np.asarray(self.g_plus, dtype=float)
        self.g_minus = np.asarray(self.g_minus, dtype=float)
        self.dummy_plus = np.asarray(self.dummy_plus, dtype=float)
        self.dummy_minus = np.asarray(self.dummy_minus, dtype=float)
        if self.g_plus.shape != self.g_minus.shape:
            raise ConfigError("g_plus and g_minus shapes differ")
        if self.dummy_plus.shape != self.dummy_minus.shape:
            raise ConfigError("dummy shapes differ")
        self.g_tr_plus = self.g_plus.sum(axis=1) + self.dummy_plus.sum(axis=1)
        self.g_tr_minus = (self.g_minus.sum(axis=1)
                           + self.dummy_minus.sum(axis=1))

    @property
    def n_inputs(self) -> int:
        return self.g_plus.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.g_plus.shape[1]

    @property
    def n_dummy(self) -> int:
        return self.dummy_plus.shape[1]

    def weighted_sum(self, i_in_plus, i_in_minus) -> np.ndarray:
        """Column currents sum_i [I+ * g+ - I- * g-] / g_tr, dummies excluded.

        Each bar is a current divider: the fraction of the bar current
        reaching column j is that cell's share of the bar total. The two
        input arrays share one shape `[..., n_inputs]`, every leading
        index one independent drive, and the result is `[..., n_outputs]`.
        """
        i_in_plus = np.asarray(i_in_plus, dtype=float)
        i_in_minus = np.asarray(i_in_minus, dtype=float)
        if (i_in_plus.shape != i_in_minus.shape
                or i_in_plus.shape[-1:] != (self.n_inputs,)):
            raise DomainError(
                f"input currents must share one shape [..., {self.n_inputs}]"
            )
        # A bar with zero total conductance carries no current at all.
        pos = _row_products(_safe_divide(i_in_plus, self.g_tr_plus),
                            self.g_plus)
        neg = _row_products(_safe_divide(i_in_minus, self.g_tr_minus),
                            self.g_minus)
        return pos - neg

    def decode_weights(self) -> np.ndarray:
        """Signed weights recovered at the recorded mapping scale."""
        if self.report is None:
            raise ConfigError("array was not built from a weight mapping")
        return (self.g_plus - self.g_minus) / self.report.scale

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        doc = {
            "schema": SCHEMA,
            "range": {
                "g_min_s": self.range.g_min,
                "g_max_s": self.range.g_max,
                "levels": self.range.levels,
                "g_off_s": self.range.g_off,
            },
            "g_plus_s": self.g_plus.tolist(),
            "g_minus_s": self.g_minus.tolist(),
            "dummy_plus_s": self.dummy_plus.tolist(),
            "dummy_minus_s": self.dummy_minus.tolist(),
        }
        if self.report is not None:
            doc["mapping"] = {
                "scale_s_per_weight": self.report.scale,
                "pruned": self.report.pruned,
                "max_abs_weight": self.report.max_abs_weight,
            }
        if self.nominal is not None:
            doc["nominal"] = {
                "g_plus_s": self.nominal.g_plus.tolist(),
                "g_minus_s": self.nominal.g_minus.tolist(),
                "dummy_plus_s": self.nominal.dummy_plus.tolist(),
                "dummy_minus_s": self.nominal.dummy_minus.tolist(),
            }
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "CrossbarArray":
        if doc.get("schema") != SCHEMA:
            raise ConfigError(f"expected schema {SCHEMA}, got {doc.get('schema')!r}")
        rng = ConductanceRange(
            g_min=doc["range"]["g_min_s"],
            g_max=doc["range"]["g_max_s"],
            levels=doc["range"]["levels"],
            g_off=doc["range"]["g_off_s"],
        )
        report = None
        if "mapping" in doc:
            report = MappingReport(
                scale=doc["mapping"]["scale_s_per_weight"],
                pruned=doc["mapping"]["pruned"],
                max_abs_weight=doc["mapping"]["max_abs_weight"],
            )
        nominal = None
        if "nominal" in doc:
            nom = doc["nominal"]
            nominal = cls(
                g_plus=np.array(nom["g_plus_s"]),
                g_minus=np.array(nom["g_minus_s"]),
                dummy_plus=np.array(nom["dummy_plus_s"]),
                dummy_minus=np.array(nom["dummy_minus_s"]),
                range=rng,
                report=report,
            )
        return cls(
            g_plus=np.array(doc["g_plus_s"]),
            g_minus=np.array(doc["g_minus_s"]),
            dummy_plus=np.array(doc["dummy_plus_s"]),
            dummy_minus=np.array(doc["dummy_minus_s"]),
            range=rng,
            report=report,
            nominal=nominal,
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1) + "\n")

    @classmethod
    def load(cls, path) -> "CrossbarArray":
        return cls.from_dict(json.loads(Path(path).read_text()))


def map_weights(
    weights,
    rng: ConductanceRange | None = None,
    quantize: bool = True,
) -> CrossbarArray:
    """Map a signed weight matrix onto paired quantized conductances.

    The largest weight magnitude lands on g_max; positive weights program
    the positive-rail cell, negative weights the negative-rail cell, and
    zero leaves both off. Targets below g_min prune to off rather than
    rounding up, which bounds the error by the same amount without
    inflating small weights. Dummy cells then pad every bar to the
    largest bar total, split across columns so no single dummy exceeds
    g_max. ``quantize=False`` keeps continuous conductances (ideal-mode
    reference).
    """
    rng = rng or ConductanceRange()
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise DomainError("weights must be a 2-D matrix")
    if not np.all(np.isfinite(w)):
        raise DomainError("weights must be finite")
    w_max = float(np.max(np.abs(w)))
    if w_max == 0.0:
        raise DomainError("all-zero weight matrix has no mapping scale")
    scale = rng.g_max / w_max

    targets = np.abs(w) * scale
    if quantize:
        mag = rng.quantize(targets)
        pruned = int(np.sum((w != 0.0) & (mag == rng.g_off)))
    else:
        # Continuous reference mapping: no level grid and no pruning, so
        # the decoded weights reproduce the originals exactly.
        mag = targets
        pruned = 0
    g_plus = np.where(w > 0.0, mag, rng.g_off)
    g_minus = np.where(w < 0.0, mag, rng.g_off)

    # Equalize all 2N physical bars to the global maximum bar total.
    row_plus = g_plus.sum(axis=1)
    row_minus = g_minus.sum(axis=1)
    target = float(max(row_plus.max(), row_minus.max()))
    deficit_plus = target - row_plus
    deficit_minus = target - row_minus
    n_dummy = max(1, int(np.ceil(max(deficit_plus.max(), deficit_minus.max())
                                 / rng.g_max)))
    dummy_plus = _split_dummies(deficit_plus, n_dummy, rng.g_max)
    dummy_minus = _split_dummies(deficit_minus, n_dummy, rng.g_max)

    report = MappingReport(scale=scale, pruned=pruned, max_abs_weight=w_max)
    return CrossbarArray(g_plus, g_minus, dummy_plus, dummy_minus, rng, report)


def _split_dummies(deficits: np.ndarray, n_dummy: int, g_max: float) -> np.ndarray:
    """Spread each bar's deficit over dummy columns, each cell <= g_max."""
    out = np.zeros((len(deficits), n_dummy))
    for i, d in enumerate(deficits):
        remaining = d
        for k in range(n_dummy):
            out[i, k] = min(remaining, g_max)
            remaining -= out[i, k]
    return out


def inject_variation(array: CrossbarArray, sigma: float, seed) -> CrossbarArray:
    """Multiply every on-state conductance by (1 + N(0, sigma)).

    Dummy cells vary too, and the bar totals are recomputed from the
    perturbed values, so the current dividers shift with the variation.
    Deterministic for a given seed. sigma = 0 returns an identical copy.
    """
    if sigma < 0.0:
        raise DomainError("sigma must be >= 0")
    gen = np.random.default_rng(seed)
    lo = array.range.g_off
    hi = VARIATION_CLAMP_FACTOR * array.range.g_max

    def perturb(g: np.ndarray) -> np.ndarray:
        noise = gen.normal(0.0, sigma, size=g.shape) if sigma > 0.0 else 0.0
        on = g > array.range.g_off
        return np.where(on, np.clip(g * (1.0 + noise), lo, hi), g)

    return CrossbarArray(
        g_plus=perturb(array.g_plus),
        g_minus=perturb(array.g_minus),
        dummy_plus=perturb(array.dummy_plus),
        dummy_minus=perturb(array.dummy_minus),
        range=array.range,
        report=array.report,
        nominal=array.nominal if array.nominal is not None else array,
    )


@dataclass(frozen=True)
class WriteParams:
    """Adjustable-pulse-width write scheme parameters.

    A constant write current ramps the cell resistance; a comparator
    against a DAC-quantized threshold stops the ramp. The ramp rate is
    specified at i_reference and scales linearly with the write current,
    so a smaller current tunes more finely. r_start and t_pulse pin down
    the discrete simulation; they are behavioral stand-ins, not material
    constants.
    """

    write_current: float = 10e-6
    ramp_rate: float = 1e12  # ohm/s at i_reference
    comparator_resolution: float = 10.0  # ohm, DAC step
    max_pulses: int = 100_000
    i_reference: float = 10e-6
    t_pulse: float = 1e-9
    r_start: float = 32e3

    def __post_init__(self):
        for name in ("write_current", "ramp_rate", "comparator_resolution",
                     "i_reference", "t_pulse", "r_start"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.max_pulses <= 0:
            raise ConfigError("max_pulses must be positive")


def program_cell(
    target_g: float,
    params: WriteParams,
    rng: ConductanceRange | None = None,
) -> tuple[float, int, float]:
    """Program one cell to target_g; returns (achieved_g, pulses, energy).

    Pulses shrink the resistance by ramp_rate*(I/i_ref)*t_pulse each until
    it crosses the comparator threshold (the target resistance rounded to
    the DAC step). Write energy integrates I^2*R over the pulses at the
    pre-pulse resistance.
    """
    rng = rng or ConductanceRange()
    if not (rng.g_min <= target_g <= rng.g_max):
        raise DomainError(
            f"target conductance {target_g} outside [{rng.g_min}, {rng.g_max}]"
        )
    r_threshold = round((1.0 / target_g) / params.comparator_resolution) \
        * params.comparator_resolution
    dr = params.ramp_rate * (params.write_current / params.i_reference) \
        * params.t_pulse
    r = params.r_start
    pulses = 0
    energy = 0.0
    while r > r_threshold:
        if pulses >= params.max_pulses:
            raise WriteError(
                f"no convergence to {r_threshold} ohm in {params.max_pulses} pulses"
            )
        energy += params.write_current ** 2 * r * params.t_pulse
        r -= dr
        pulses += 1
    return 1.0 / r, pulses, energy

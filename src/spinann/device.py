"""Compact behavioral model of a domain-wall spin-torque neuron.

The neuron is a magnetic nanostrip whose free layer holds a single domain
wall (DW). A lateral current pulse moves the wall; the wall position sets
the vertical resistance of the MTJ stack on top of the strip, which a
voltage divider converts to the neuron output voltage. Wall kinematics are
a 1-D position model driven by `wall_velocity`, a piecewise-linear
velocity-vs-current-density curve through the calibration anchors
J_ANCHORS and V_ANCHORS; no micromagnetic integration is done.
The module fixes the anchors, the pulse width and the sense point as
constants, which tier-1 tests check; the ledger `network.neuron_energy`
charges each cycle's energy at them.
What follows from these fixed values is computed once, at import: the
resistance-law coefficients RES_NUM, RES_SLOPE and RES_OFFSET, the
depinning and saturation currents I_DEPINNING and I_SATURATION, and the
output rails V_OUT_MIN and V_OUT_MAX that `TransferKind.stt_snn` reads.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Fraction of the vertical critical current considered non-disturbing:
# I_SENSE stays within it, as test_device_constants_are_physical asserts.
SENSE_SAFETY_FRACTION = 0.5
# Width of the programming pulse, s: the neuron curve is sampled at it
# and the network charges its program phase for it.
T_PROGRAM = 1e-9
# Sense current (A) and divider supply (V): the one sense operating point,
# held below read-disturb and charged by the network's ledger.
I_SENSE = 25e-6
V_SENSE_SUPPLY = 0.100

# Free-layer strip geometry, m. The wall midpoint can occupy
# [X_MIN, X_MAX] = [0.5*DW_LENGTH, LENGTH - 0.5*DW_LENGTH]; outside that
# band one of the end segments would have negative area.
LENGTH = 100e-9
WIDTH = 20e-9
THICKNESS = 2e-9
# pi*sqrt(a_ex/k_u) for a_ex = 1.1e-11 J/m and k_u = 3.5e5 J/m^3.
DW_LENGTH = 17.612142597974271e-9
X_MIN = 0.5 * DW_LENGTH
X_MAX = LENGTH - 0.5 * DW_LENGTH
# Lateral current cross-section WIDTH*THICKNESS, m^2.
CROSS_SECTION = WIDTH * THICKNESS

# MTJ stack and read path. RA_AP, RA_DW, RA_P: resistance-area products
# (ohm*um^2) of the anti-parallel, wall, and parallel segments. R_REF
# (ohm) is the reference MTJ of the read divider, whose supply is
# V_SENSE_SUPPLY; I_CRIT_VERTICAL (A) is the vertical current that can
# move the wall.
RA_AP = 5.0
RA_DW = 3.5
RA_P = 2.0
R_REF = 2500.0
I_CRIT_VERTICAL = 100e-6

# Depinning current density, A/m^2: no wall motion at or below it.
J_TH = 6e11

# ohm*um^2 -> ohm*m^2
_RA_SI = 1e-12


# The resistance law num / (slope * x + offset): algebraically the parallel
# combination of the three MTJ segments (anti-parallel left, wall, parallel
# right), so the vertical resistance is a rational function of the wall
# position x. RES_NUM, RES_SLOPE and RES_OFFSET are its coefficients.
_RA_AP_SI, _RA_DW_SI, _RA_P_SI = RA_AP * _RA_SI, RA_DW * _RA_SI, RA_P * _RA_SI
RES_NUM = _RA_AP_SI * _RA_P_SI * _RA_DW_SI
RES_SLOPE = (_RA_AP_SI - _RA_P_SI) * _RA_DW_SI * WIDTH
RES_OFFSET = _RA_P_SI * _RA_DW_SI * WIDTH * LENGTH + (
    _RA_AP_SI * _RA_P_SI - 0.5 * _RA_P_SI * _RA_DW_SI
    - 0.5 * _RA_AP_SI * _RA_DW_SI
) * WIDTH * DW_LENGTH


def neuron_resistance(x: float) -> float:
    """Vertical MTJ resistance (ohm) at wall midpoint position x (m).

    A zero-area end segment (x at either travel limit) is an open circuit;
    the rational form covers that limit without special-casing.
    """
    if not (X_MIN <= x <= X_MAX):
        raise DomainError(f"wall position {x} outside [{X_MIN}, {X_MAX}]")
    return RES_NUM / (RES_SLOPE * x + RES_OFFSET)


def read_voltage(resistance: float) -> float:
    """Divider output V_SENSE_SUPPLY * R_REF / (R_REF + resistance), volts."""
    return V_SENSE_SUPPLY * R_REF / (R_REF + resistance)


def output_voltage(x: float) -> float:
    """Neuron output voltage at wall position x; strictly increasing in x."""
    return read_voltage(neuron_resistance(x))


# Wall velocity calibration, digitized from measured/simulated motion
# curves: velocity V_ANCHORS (m/s) at current density J_ANCHORS (A/m^2).
# Strictly increasing in j, nondecreasing in v, and pinned to v = 0 at
# J_TH, so motion starts exactly at depinning (tier-1 checks all three).
J_ANCHORS = np.array([6.0e11, 6.5e11, 8.0e11, 9.0e11, 1.0e12, 1.25e12, 1.5e12])
V_ANCHORS = np.array([0.0, 25.0, 55.0, 60.0, 75.0, 90.0, 100.0])


def wall_velocity(j: float) -> float:
    """Wall velocity (m/s) at current-density magnitude j (A/m^2).

    Zero at and below J_TH, piecewise linear through the anchors above
    it, and clamped at the last anchor (no extrapolation outside the
    measured regime).
    """
    if j < 0.0:
        raise DomainError("current density magnitude must be >= 0")
    if j <= J_TH:
        return 0.0
    return float(np.interp(j, J_ANCHORS, V_ANCHORS))


# Lateral current (A) at the depinning density: no wall motion at or below.
I_DEPINNING = J_TH * CROSS_SECTION
# Least lateral current (A) that walks the wall end to end within T_PROGRAM:
# the full-travel velocity, inverted on the anchor segment that brackets it.
_V_TRAVEL = (LENGTH - DW_LENGTH) / T_PROGRAM
_HI = int(np.searchsorted(V_ANCHORS, _V_TRAVEL))
_J_LO, _J_HI = J_ANCHORS[_HI - 1], J_ANCHORS[_HI]
_V_LO, _V_HI = V_ANCHORS[_HI - 1], V_ANCHORS[_HI]
I_SATURATION = float(_J_LO + (_V_TRAVEL - _V_LO) * (_J_HI - _J_LO)
                     / (_V_HI - _V_LO)) * CROSS_SECTION
# Output voltage rails (V): the sensed voltage with the wall at X_MIN, X_MAX.
V_OUT_MIN = output_voltage(X_MIN)
V_OUT_MAX = output_voltage(X_MAX)


class NeuronDevice:
    """One spin-torque neuron: the strip and stack above, moved at
    `wall_velocity`.

    Holds no state: every transfer starts from the reset state, so one
    instance is safe to share.
    """

    def transfer(self, i_prog: float) -> float:
        """Output voltage after reset -> program pulse -> sense.

        Reset parks the wall at X_MIN; the T_PROGRAM pulse moves it one
        exact step at the wall velocity for |i_prog|, forward for positive
        current, clamped at the travel limits. The sense current stays within
        SENSE_SAFETY_FRACTION of the vertical critical current, so the read
        never moves the wall. The curve is flat below depinning and
        saturated once the pulse walks the wall end to end.
        """
        j = abs(i_prog) / CROSS_SECTION
        step = wall_velocity(j) * T_PROGRAM
        x = X_MIN + (step if i_prog > 0.0 else -step)
        return output_voltage(min(max(x, X_MIN), X_MAX))

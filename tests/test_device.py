"""Neuron device model: resistance law, readout, transfer, energy."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinann.device import (
    CROSS_SECTION,
    DW_LENGTH,
    I_CRIT_VERTICAL,
    I_DEPINNING,
    I_SATURATION,
    I_SENSE,
    J_ANCHORS,
    J_TH,
    LENGTH,
    R_REF,
    RA_AP,
    RA_DW,
    RA_P,
    RES_NUM,
    RES_OFFSET,
    RES_SLOPE,
    SENSE_SAFETY_FRACTION,
    T_PROGRAM,
    THICKNESS,
    V_ANCHORS,
    V_OUT_MAX,
    V_OUT_MIN,
    V_SENSE_SUPPLY,
    WIDTH,
    X_MAX,
    X_MIN,
    NeuronDevice,
    neuron_resistance,
    output_voltage,
    read_voltage,
    wall_velocity,
)
from spinann.errors import DomainError
from spinann.network import I_RESET, T_RESET


@pytest.fixture
def device():
    return NeuronDevice()


def parallel_resistance_oracle(x):
    """Independent three-segment parallel combination, open at zero area."""
    ra = 1e-12  # ohm*um^2 -> ohm*m^2
    g = 0.0
    area_left = WIDTH * (LENGTH - x - 0.5 * DW_LENGTH)
    area_right = WIDTH * (x - 0.5 * DW_LENGTH)
    area_wall = WIDTH * DW_LENGTH
    if area_left > 0.0:
        g += area_left / (RA_AP * ra)
    if area_right > 0.0:
        g += area_right / (RA_P * ra)
    g += area_wall / (RA_DW * ra)
    return 1.0 / g


def test_device_constants_are_physical():
    """The strip holds the wall, the stack's segments order as the
    resistance law needs, and the sense current cannot move the wall."""
    assert 0.0 < DW_LENGTH < LENGTH
    assert WIDTH > 0.0 and THICKNESS > 0.0
    assert RA_AP > RA_DW > RA_P > 0.0
    assert R_REF > 0.0
    assert I_SENSE <= SENSE_SAFETY_FRACTION * I_CRIT_VERTICAL


class TestResistance:
    def test_wall_length_derivation(self):
        # pi*sqrt(a_ex/k_u) with a_ex = 1.1e-11 J/m, k_u = 3.5e5 J/m^3
        assert DW_LENGTH == math.pi * math.sqrt(1.1e-11 / 3.5e5)

    def test_endpoint_values(self):
        # Frozen from the parallel-segment oracle.
        assert neuron_resistance(X_MIN) == pytest.approx(2324.5421, rel=1e-6)
        assert neuron_resistance(X_MAX) == pytest.approx(1081.6431, rel=1e-6)
        assert neuron_resistance(50e-9) == pytest.approx(1476.3289, rel=1e-6)

    def test_matches_parallel_oracle(self):
        for x in np.linspace(X_MIN, X_MAX, 1000):
            expected = parallel_resistance_oracle(x)
            assert neuron_resistance(x) == pytest.approx(expected, rel=1e-12)

    def test_open_limb_at_travel_limit(self):
        # At X_MIN the right segment has zero area: exactly left || wall.
        ra = 1e-12
        r_left = RA_AP * ra / (WIDTH * (LENGTH - DW_LENGTH))
        r_wall = RA_DW * ra / (WIDTH * DW_LENGTH)
        expected = r_left * r_wall / (r_left + r_wall)
        assert neuron_resistance(X_MIN) == pytest.approx(expected, rel=1e-12)

    def test_rational_form_linearity(self):
        # num/R(x) - offset must be linear in x through the origin.
        xs = np.linspace(X_MIN, X_MAX, 1000)
        rs = np.array([neuron_resistance(x) for x in xs])
        residual = RES_NUM / rs - RES_OFFSET - RES_SLOPE * xs
        assert np.max(np.abs(residual) / (RES_SLOPE * xs)) < 1e-10

    def test_out_of_range_raises(self):
        with pytest.raises(DomainError):
            neuron_resistance(X_MIN - 1e-12)
        with pytest.raises(DomainError):
            neuron_resistance(X_MAX + 1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_strictly_decreasing(self, a, b):
        x1, x2 = sorted(X_MIN + t * (X_MAX - X_MIN) for t in (a, b))
        if x2 - x1 > 1e-12:
            assert neuron_resistance(x1) > neuron_resistance(x2)


class TestReadout:
    def test_endpoint_voltages(self):
        assert output_voltage(X_MIN) == pytest.approx(51.818e-3, rel=1e-4,
                                                       abs=0.0)
        assert output_voltage(X_MAX) == pytest.approx(69.800e-3, rel=1e-4,
                                                       abs=0.0)

    def test_symmetric_divider(self):
        # Neuron resistance equal to the reference splits the supply evenly.
        assert read_voltage(R_REF) == pytest.approx(V_SENSE_SUPPLY / 2,
                                                    rel=1e-15, abs=0.0)

    def test_strictly_increasing(self):
        xs = np.linspace(X_MIN, X_MAX, 400)
        vs = [output_voltage(x) for x in xs]
        assert all(b > a for a, b in zip(vs, vs[1:]))


class TestVelocityTable:
    """The calibration anchors and `wall_velocity` through them."""

    def test_anchors_ordered_and_pinned_at_depinning(self):
        """Strictly increasing in j, nondecreasing in v, and starting at
        (J_TH, 0), so motion starts exactly at depinning."""
        assert J_ANCHORS.shape == V_ANCHORS.shape == (7,)
        assert (np.diff(J_ANCHORS) > 0.0).all()
        assert (np.diff(V_ANCHORS) >= 0.0).all()
        assert (J_ANCHORS[0], V_ANCHORS[0]) == (J_TH, 0.0)

    def test_below_threshold_is_zero(self):
        assert wall_velocity(0.0) == 0.0
        assert wall_velocity(3e11) == 0.0
        assert wall_velocity(J_TH) == 0.0

    def test_negative_density_rejected(self):
        with pytest.raises(DomainError):
            wall_velocity(-1.0)

    def test_anchors_exact(self):
        for j, v in zip(J_ANCHORS, V_ANCHORS):
            assert wall_velocity(j) == v

    def test_clamps_beyond_last_anchor(self):
        assert wall_velocity(10 * J_ANCHORS[-1]) == V_ANCHORS[-1]

    def test_interpolates_between_anchors(self):
        for j0, j1, v0, v1 in zip(J_ANCHORS, J_ANCHORS[1:],
                                  V_ANCHORS, V_ANCHORS[1:]):
            assert wall_velocity(0.5 * (j0 + j1)) == pytest.approx(
                0.5 * (v0 + v1), rel=1e-12)

    def test_saturation_current_is_least_full_travel(self):
        """I_SATURATION walks the wall end to end within T_PROGRAM, and a
        current a part in 1e9 smaller falls short."""
        v_travel = (LENGTH - DW_LENGTH) / T_PROGRAM
        j_sat = I_SATURATION / CROSS_SECTION
        assert wall_velocity(j_sat) == pytest.approx(v_travel, rel=1e-12)
        assert wall_velocity(j_sat * (1.0 - 1e-9)) < v_travel


class TestPulses:
    """The program step of transfer: reset to X_MIN, one T_PROGRAM pulse."""

    def test_zero_current_leaves_position(self, device):
        assert device.transfer(0.0) == V_OUT_MIN
        assert device.transfer(-I_RESET) == V_OUT_MIN

    def test_reset_from_anywhere(self, device):
        """The network's reset pulse, I_RESET for T_RESET, walks the wall
        past its full travel, so every transfer may start from X_MIN."""
        v_reset = wall_velocity(I_RESET / CROSS_SECTION)
        assert v_reset * T_RESET >= X_MAX - X_MIN

    def test_advance_matches_table(self, device):
        # 26 uA over the 2 nm x 20 nm cross-section is 6.5e11 A/m^2.
        j = 26e-6 / CROSS_SECTION
        assert j == pytest.approx(6.5e11)
        x = X_MIN + wall_velocity(j) * T_PROGRAM
        assert x < X_MAX
        assert device.transfer(26e-6) == output_voltage(x)

    def test_saturation_idempotent(self, device):
        assert device.transfer(60e-6) == V_OUT_MAX
        assert device.transfer(120e-6) == V_OUT_MAX


class TestTransfer:
    def test_flat_below_depinning(self, device):
        assert I_DEPINNING == pytest.approx(24e-6)
        assert device.transfer(10e-6) == pytest.approx(V_OUT_MIN, rel=1e-12,
                                                       abs=0.0)
        assert device.transfer(I_DEPINNING) == pytest.approx(
            V_OUT_MIN, rel=1e-12, abs=0.0
        )

    def test_saturates_at_high_current(self, device):
        assert device.transfer(I_SATURATION) == pytest.approx(
            V_OUT_MAX, rel=1e-12, abs=0.0)
        assert device.transfer(2 * I_SATURATION) == pytest.approx(
            V_OUT_MAX, rel=1e-12, abs=0.0)

    def test_saturation_current_value(self):
        # End-to-end travel in 1 ns needs (length - dw_length)/1ns of velocity.
        v_needed = (LENGTH - DW_LENGTH) / 1e-9
        assert v_needed == pytest.approx(83.0, rel=0.01)
        assert T_PROGRAM == 1e-9
        assert I_SATURATION == pytest.approx(44.93e-6, rel=1e-3, abs=0.0)

    def test_monotone_nondecreasing(self, device):
        currents = np.linspace(0.0, 60e-6, 121)
        vs = [device.transfer(i) for i in currents]
        assert all(b >= a for a, b in zip(vs, vs[1:]))

    def test_holds_no_state_between_calls(self, device):
        fresh = device.transfer(30e-6)
        device.transfer(60e-6)
        assert device.transfer(30e-6) == fresh


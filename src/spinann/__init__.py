"""Behavioral simulator of a hybrid spin-CMOS artificial neural network.

Soft-limiting domain-wall spin-torque neurons, memristor crossbar
synapses with dummy-column normalization, and deep-triode current-source
axons, with hardware-aware training, Monte-Carlo variation analysis, and
per-phase energy accounting.
"""

__version__ = "0.1.0"

from .device import NeuronDevice

__all__ = [
    "NeuronDevice",
    "__version__",
]

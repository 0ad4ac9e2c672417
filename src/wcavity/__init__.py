"""Deterministic W-state preparation across N cavity modes.

One atom, prepared excited, couples resonantly to N empty modes at once;
a single timed interaction deposits the excitation symmetrically across
the modes.  The package provides the closed-form dynamics, an independent
numerical propagator, entanglement analysis of the resulting states, and
robustness sweeps, plus a CLI wrapping all of it.
"""

__version__ = "0.1.0"

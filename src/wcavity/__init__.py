"""Deterministic W-state preparation across N cavity modes.

One atom, prepared excited, couples resonantly to N empty modes at once;
a single timed interaction deposits the excitation symmetrically across
the modes.  The package provides the closed-form dynamics, an independent
numerical propagator, entanglement analysis of the resulting states, and
robustness sweeps, plus a CLI wrapping all of it.
"""

import importlib

# Each public name and the module that defines it.  Names are resolved on
# first access (PEP 562) and not stored here, so ``import wcavity`` loads no
# submodule and a name always reads its home module's current binding.
_HOMES = {
    "dynamics": (
        "HermitianOperator",
        "ModelParams",
        "build_hamiltonian",
        "evolve_closed_form",
        "propagate_numeric",
    ),
    "entanglement": (
        "DensityMatrix",
        "concurrence",
        "fidelity",
        "ghz_state",
        "pairwise_concurrences",
        "partial_trace",
        "success_probability",
        "w_state",
    ),
    "fock": (
        "Basis",
        "StateVector",
        "atom_population",
        "build_basis",
        "initial_state",
        "state_from_dict",
    ),
    "protocol": (
        "SweepResult",
        "SweepRow",
        "coupling_disorder_sweep",
        "detuning_sweep",
        "mode_count_sweep",
        "timing_error_sweep",
    ),
    "sector": ("PropagationError", "optimal_time"),
    "validation": ("ValidationReport", "measure_rabi_period", "run_validation"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    if name in _HOMES:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))

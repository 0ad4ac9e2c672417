"""Deterministic W-state preparation across N cavity modes.

One atom, prepared excited, couples resonantly to N empty modes at once;
a single timed interaction deposits the excitation symmetrically across
the modes.  The package provides the closed-form dynamics, an independent
numerical propagator, entanglement analysis of the resulting states, and
robustness sweeps, plus a CLI wrapping all of it.
"""

from .dynamics import (
    Frame,
    HermitianOperator,
    ModelParams,
    PropagationError,
    build_hamiltonian,
    evolve_closed_form,
    evolve_closed_form_general,
    excitation_operator,
    propagate_numeric,
)
from .entanglement import (
    DensityMatrix,
    concurrence,
    fidelity,
    ghz_state,
    pairwise_concurrences,
    partial_trace,
    success_probability,
    w_state,
)
from .fock import (
    AtomLevel,
    Basis,
    BasisState,
    StateVector,
    atom_population,
    build_basis,
    initial_state,
    inner_product,
    state_from_dict,
    state_to_dict,
)
from .protocol import (
    ProtocolResult,
    ScalingRow,
    SweepParameter,
    SweepResult,
    SweepRow,
    SweepSpec,
    coupling_disorder_sweep,
    detuning_sweep,
    mode_count_sweep,
    n_scaling_table,
    optimal_time,
    run_protocol,
    timing_error_sweep,
)
from .validation import ValidationReport, measure_rabi_period, run_validation

__version__ = "0.1.0"

__all__ = [
    "AtomLevel",
    "Basis",
    "BasisState",
    "DensityMatrix",
    "Frame",
    "HermitianOperator",
    "ModelParams",
    "PropagationError",
    "ProtocolResult",
    "ScalingRow",
    "StateVector",
    "SweepParameter",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "ValidationReport",
    "atom_population",
    "build_basis",
    "build_hamiltonian",
    "concurrence",
    "coupling_disorder_sweep",
    "detuning_sweep",
    "evolve_closed_form",
    "evolve_closed_form_general",
    "excitation_operator",
    "fidelity",
    "ghz_state",
    "initial_state",
    "inner_product",
    "measure_rabi_period",
    "mode_count_sweep",
    "n_scaling_table",
    "optimal_time",
    "pairwise_concurrences",
    "partial_trace",
    "propagate_numeric",
    "run_protocol",
    "run_validation",
    "state_from_dict",
    "state_to_dict",
    "success_probability",
    "timing_error_sweep",
    "w_state",
    "__version__",
]

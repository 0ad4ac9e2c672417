"""Preparation protocol, optimal timing, and robustness sweeps.

Conventions: epsilon fixes the inverse time scale.  Timing-error grids
are dimensionless multiples of 1/epsilon (the offset in time is
x / epsilon), detuning grids are multiples of epsilon, disorder grids are
relative standard deviations.  All sweeps are deterministic functions of
(seed, grid, trials); random streams are keyed by (seed, grid index,
trial index) so grid points and trials can run in any order or in
parallel without changing results.
"""

from __future__ import annotations

import datetime
import enum
import math
from typing import TYPE_CHECKING, NamedTuple

# The deterministic sweeps run on `sector`, which needs the standard
# library alone; numpy and its modules are imported inside the functions
# that run them (the disorder sweep, run_protocol, n_scaling_table).
from . import sector
from .sector import SCHEMA_VERSION, SWEEP_PARAMETERS, Value, fmt12, optimal_time, round12

if TYPE_CHECKING:
    from .fock import StateVector


class SweepParameter(enum.Enum):
    # the values of SWEEP_PARAMETERS, in its order
    TIMING_ERROR, COUPLING_DISORDER, DETUNING, MODE_COUNT = SWEEP_PARAMETERS


class SweepSpec(Value):
    """Grid, trial count, and seed for one robustness sweep."""

    __slots__ = ("parameter", "grid", "trials", "seed")

    def __init__(self, parameter: SweepParameter, grid, trials: int = 1, seed: int = 0) -> None:
        grid = tuple(float(x) for x in grid)
        if not grid:
            raise ValueError("sweep grid must not be empty")
        if not all(math.isfinite(x) for x in grid):
            raise ValueError("sweep grid must be finite")
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if parameter is SweepParameter.COUPLING_DISORDER and any(x < 0 for x in grid):
            raise ValueError("disorder grid entries must be >= 0")
        if parameter is SweepParameter.MODE_COUNT and any(x != int(x) or x < 1 for x in grid):
            raise ValueError("mode-count grid entries must be positive integers")
        for name, value in zip(self.__slots__, (parameter, grid, trials, seed)):
            object.__setattr__(self, name, value)


class SweepRow(NamedTuple):
    """One CSV row; the field order is the column order.  A sweep that
    draws nothing repeats its one fidelity as mean, min and max, so that
    every sweep writes the same table."""

    x: float
    fidelity_mean: float
    fidelity_min: float
    fidelity_max: float


CSV_HEADER = ",".join(SweepRow._fields)


class SweepResult(NamedTuple):
    """Rows aligned one-to-one with the grid, plus run metadata."""

    rows: list[SweepRow]
    metadata: dict

    def to_csv_text(self) -> str:
        """CSV form; metadata rides along as # comments, timestamp excluded
        so reruns with the same configuration are byte-identical."""
        lines = [
            f"# {key}={value}"
            for key, value in sorted(self.metadata.items())
            if key != "timestamp"
        ]
        lines.append(CSV_HEADER)
        for row in self.rows:
            lines.append(",".join(fmt12(value) for value in row))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """Combined JSON form: metadata plus the full row table."""
        return {
            "metadata": dict(self.metadata),
            "rows": [
                {name: round12(value) for name, value in zip(SweepRow._fields, row)}
                for row in self.rows
            ],
        }


class ProtocolResult(NamedTuple):
    state: StateVector
    fidelity: float
    success_prob: float
    t_star: float


class ScalingRow(NamedTuple):
    n: int
    t_star: float
    fidelity_closed: float
    fidelity_numeric: float
    amplitude_gap: float


def run_protocol(n: int, epsilon: float) -> ProtocolResult:
    """Prepare, evolve to the optimal time, and score against the W target."""
    from .dynamics import ModelParams, evolve_closed_form
    from .entanglement import fidelity, w_state

    t_star = optimal_time(n, epsilon)
    params = ModelParams.resonant(n, epsilon)
    state = evolve_closed_form(params, t_star)
    # the W target has the atom in its ground state, so the overlap with it
    # is also the success probability
    f = fidelity(state, w_state(n, state.basis))
    return ProtocolResult(state=state, fidelity=f, success_prob=f, t_star=t_star)


def _metadata(spec: SweepSpec, **fields) -> dict:
    """The schema version and the parameter, then ``fields`` in order (the
    values the sweep used), then the timestamp."""
    md = {"schema_version": SCHEMA_VERSION, "parameter": spec.parameter.value, **fields}
    md["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )
    return md


def _require_parameter(spec: SweepSpec, expected: SweepParameter) -> None:
    if spec.parameter is not expected:
        raise ValueError(
            f"sweep spec targets {spec.parameter.value!r}, expected {expected.value!r}"
        )


def timing_error_sweep(n: int, epsilon: float, spec: SweepSpec) -> SweepResult:
    """Fidelity versus timing offset around the optimal time.

    Grid entries are offsets in units of 1/epsilon; the state is evolved
    to t* + x/epsilon (all times from one Lanczos run) and scored against
    the W target, so the rows check the analytic law cos^2(sqrt(n) x) with
    the propagator, not with the formula that predicts it.
    """
    _require_parameter(spec, SweepParameter.TIMING_ERROR)
    t_star = optimal_time(n, epsilon)
    states = sector.evolve((epsilon,) * n, [t_star + x / epsilon for x in spec.grid])
    rows = [SweepRow(x, f, f, f) for x, f in zip(spec.grid, map(sector.w_fidelity, states))]
    return SweepResult(rows, _metadata(spec, n_modes=n, epsilon=epsilon, t_star=t_star))


def coupling_disorder_sweep(n: int, epsilon: float, spec: SweepSpec) -> SweepResult:
    """Monte-Carlo fidelity under relative Gaussian coupling disorder.

    At grid value sigma every trial draws couplings eps_i = eps (1 + sigma
    xi_i) with xi_i standard normal (non-positive draws are redrawn) and
    evolves in closed form to the nominal optimal time.  The draws of one
    grid point are evaluated as one (trials, n) array.
    """
    import numpy as np

    from .dynamics import closed_form_amplitudes
    from .entanglement import fidelities, w_state
    from .fock import build_basis

    _require_parameter(spec, SweepParameter.COUPLING_DISORDER)
    t_star = optimal_time(n, epsilon)
    basis = build_basis(n, n_max=1, excitation_cap=1)
    target = w_state(n, basis)
    rows = []
    for gi, sigma in enumerate(spec.grid):
        couplings = np.empty((spec.trials, n))
        for trial, draw in enumerate(couplings):
            rng = np.random.default_rng([spec.seed, gi, trial])
            draw[:] = epsilon * (1.0 + sigma * rng.standard_normal(n))
            bad = draw <= 0.0
            while bad.any():
                draw[bad] = epsilon * (1.0 + sigma * rng.standard_normal(int(bad.sum())))
                bad = draw <= 0.0
        fids = fidelities(closed_form_amplitudes(couplings, t_star, basis), target)
        rows.append(SweepRow(sigma, float(fids.mean()), float(fids.min()), float(fids.max())))
    return SweepResult(rows, _metadata(
        spec, n_modes=n, epsilon=epsilon, seed=spec.seed, trials=spec.trials,
        rng="numpy PCG64, one stream per (seed, grid_index, trial_index)", t_star=t_star,
        disorder_model="gaussian relative std-dev, non-positive couplings redrawn",
    ))


def detuning_sweep(n: int, epsilon: float, spec: SweepSpec) -> SweepResult:
    """Fidelity versus common-mode detuning, evolved numerically.

    Grid entries are detunings in units of epsilon; all modes are shifted
    together and the evolution runs in the frame rotating at the atomic
    frequency.
    """
    _require_parameter(spec, SweepParameter.DETUNING)
    t_star = optimal_time(n, epsilon)
    couplings = (epsilon,) * n
    rows = []
    for x in spec.grid:
        (psi,) = sector.evolve(couplings, (t_star,), (x * epsilon,) * n)
        f = sector.w_fidelity(psi)
        rows.append(SweepRow(x, f, f, f))
    return SweepResult(rows, _metadata(spec, n_modes=n, epsilon=epsilon, t_star=t_star))


def mode_count_sweep(epsilon: float, spec: SweepSpec) -> SweepResult:
    """Numeric fidelity at the optimal time for each mode count in the grid."""
    _require_parameter(spec, SweepParameter.MODE_COUNT)
    rows = []
    for x in spec.grid:
        n = int(x)
        (psi,) = sector.evolve((epsilon,) * n, (optimal_time(n, epsilon),))
        f = sector.w_fidelity(psi)
        rows.append(SweepRow(float(n), f, f, f))
    return SweepResult(rows, _metadata(spec, epsilon=epsilon))


def n_scaling_table(n_list, epsilon: float) -> list[ScalingRow]:
    """Closed-form versus numeric scorecard across mode counts."""
    import numpy as np

    from .dynamics import ModelParams, build_hamiltonian, evolve_closed_form, propagate_numeric
    from .entanglement import fidelity, w_state
    from .fock import initial_state

    rows = []
    for n in n_list:
        t_star = optimal_time(n, epsilon)
        params = ModelParams.resonant(n, epsilon)
        closed = evolve_closed_form(params, t_star)
        basis = closed.basis
        H = build_hamiltonian(params, basis)
        numeric = propagate_numeric(H, initial_state(basis), t_star)
        target = w_state(n, basis)
        rows.append(
            ScalingRow(
                n=n,
                t_star=t_star,
                fidelity_closed=fidelity(closed, target),
                fidelity_numeric=fidelity(numeric, target),
                amplitude_gap=float(
                    np.max(np.abs(closed.amplitudes - numeric.amplitudes))
                ),
            )
        )
    return rows

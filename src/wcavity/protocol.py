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
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import (
    Frame,
    ModelParams,
    build_hamiltonian,
    evolve_closed_form,
    evolve_closed_form_general,
    propagate_numeric,
)
from .entanglement import fidelity, w_state
from .fock import StateVector, build_basis, initial_state

SCHEMA_VERSION = "1"

RNG_DESCRIPTION = "numpy PCG64, one stream per (seed, grid_index, trial_index)"


def fmt12(value) -> str:
    """Fixed 12-significant-digit decimal rendering for stable diffs."""
    return f"{float(value):.12g}"


def round12(value: float) -> float:
    return float(fmt12(value))


class SweepParameter(enum.Enum):
    TIMING_ERROR = "timing-error"
    COUPLING_DISORDER = "coupling-disorder"
    DETUNING = "detuning"
    MODE_COUNT = "mode-count"


@dataclass(frozen=True)
class SweepSpec:
    """Grid, trial count, and seed for one robustness sweep."""

    parameter: SweepParameter
    grid: tuple[float, ...]
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(x) for x in self.grid))
        if not self.grid:
            raise ValueError("sweep grid must not be empty")
        if not all(math.isfinite(x) for x in self.grid):
            raise ValueError("sweep grid must be finite")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.parameter is SweepParameter.COUPLING_DISORDER and any(
            x < 0 for x in self.grid
        ):
            raise ValueError("disorder grid entries must be >= 0")
        if self.parameter is SweepParameter.MODE_COUNT and any(
            x != int(x) or x < 1 for x in self.grid
        ):
            raise ValueError("mode-count grid entries must be positive integers")


@dataclass(frozen=True)
class SweepRow:
    x: float
    fidelity_mean: float
    fidelity_min: float
    fidelity_max: float
    success_prob_mean: float


_ROW_FIELDS = tuple(f.name for f in fields(SweepRow))

CSV_HEADER = ",".join(_ROW_FIELDS)


@dataclass
class SweepResult:
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
            lines.append(",".join(fmt12(getattr(row, name)) for name in _ROW_FIELDS))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """Combined JSON form: metadata plus the full row table."""
        return {
            "metadata": dict(self.metadata),
            "rows": [
                {name: round12(getattr(row, name)) for name in _ROW_FIELDS}
                for row in self.rows
            ],
        }


@dataclass(frozen=True)
class ProtocolResult:
    state: StateVector
    fidelity: float
    success_prob: float
    t_star: float


@dataclass(frozen=True)
class ScalingRow:
    n: int
    t_star: float
    fidelity_closed: float
    fidelity_numeric: float
    amplitude_gap: float


def optimal_time(n: int, epsilon: float) -> float:
    """Interaction time pi / (2 sqrt(n) epsilon) that completes the transfer."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    return math.pi / (2.0 * math.sqrt(n) * epsilon)


def run_protocol(n: int, epsilon: float) -> ProtocolResult:
    """Prepare, evolve to the optimal time, and score against the W target."""
    t_star = optimal_time(n, epsilon)
    params = ModelParams.resonant(n, epsilon)
    state = evolve_closed_form(params, t_star)
    # the W target has the atom in its ground state, so the overlap with it
    # is also the success probability
    f = fidelity(state, w_state(n, state.basis))
    return ProtocolResult(state=state, fidelity=f, success_prob=f, t_star=t_star)


def _metadata(spec: SweepSpec, n_modes: int, epsilon: float, **extra) -> dict:
    md = {
        "schema_version": SCHEMA_VERSION,
        "parameter": spec.parameter.value,
        "n_modes": n_modes,
        "epsilon": epsilon,
        "seed": spec.seed,
        "trials": spec.trials,
        "rng": RNG_DESCRIPTION,
    }
    md.update(extra)
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
    numerically to t* + x/epsilon and scored against the W target, so the
    rows check the analytic law cos^2(sqrt(n) x) with the propagator, not
    with the formula that predicts it.
    """
    _require_parameter(spec, SweepParameter.TIMING_ERROR)
    t_star = optimal_time(n, epsilon)
    basis = build_basis(n, n_max=1, excitation_cap=1)
    H = build_hamiltonian(ModelParams.resonant(n, epsilon), basis)
    psi0 = initial_state(basis)
    target = w_state(n, basis)
    rows = []
    for x in spec.grid:
        psi = propagate_numeric(H, psi0, t_star + x / epsilon)
        f = fidelity(psi, target)
        rows.append(SweepRow(x, f, f, f, f))
    return SweepResult(rows, _metadata(spec, n, epsilon, t_star=t_star))


def coupling_disorder_sweep(n: int, epsilon: float, spec: SweepSpec) -> SweepResult:
    """Monte-Carlo fidelity under relative Gaussian coupling disorder.

    At grid value sigma every trial draws couplings eps_i = eps (1 + sigma
    xi_i) with xi_i standard normal (non-positive draws are redrawn) and
    evolves in closed form to the nominal optimal time.
    """
    _require_parameter(spec, SweepParameter.COUPLING_DISORDER)
    t_star = optimal_time(n, epsilon)
    basis = build_basis(n, n_max=1, excitation_cap=1)
    target = w_state(n, basis)
    rows = []
    for gi, sigma in enumerate(spec.grid):
        fids = np.empty(spec.trials)
        for trial in range(spec.trials):
            rng = np.random.default_rng([spec.seed, gi, trial])
            couplings = epsilon * (1.0 + sigma * rng.standard_normal(n))
            bad = couplings <= 0.0
            while bad.any():
                couplings[bad] = epsilon * (
                    1.0 + sigma * rng.standard_normal(int(bad.sum()))
                )
                bad = couplings <= 0.0
            params = ModelParams(n, 0.0, (0.0,) * n, tuple(couplings))
            psi = evolve_closed_form_general(params, t_star, basis)
            fids[trial] = fidelity(psi, target)
        mean = float(fids.mean())
        rows.append(SweepRow(sigma, mean, float(fids.min()), float(fids.max()), mean))
    return SweepResult(
        rows,
        _metadata(
            spec,
            n,
            epsilon,
            t_star=t_star,
            disorder_model="gaussian relative std-dev, non-positive couplings redrawn",
        ),
    )


def detuning_sweep(n: int, epsilon: float, spec: SweepSpec) -> SweepResult:
    """Fidelity versus common-mode detuning, evolved numerically.

    Grid entries are detunings in units of epsilon; all modes are shifted
    together and the evolution runs in the frame rotating at the atomic
    frequency.
    """
    _require_parameter(spec, SweepParameter.DETUNING)
    t_star = optimal_time(n, epsilon)
    basis = build_basis(n, n_max=1, excitation_cap=1)
    psi0 = initial_state(basis)
    target = w_state(n, basis)
    rows = []
    for x in spec.grid:
        delta = x * epsilon
        params = ModelParams(
            n, 0.0, (delta,) * n, (epsilon,) * n, Frame.INTERACTION
        )
        psi = propagate_numeric(build_hamiltonian(params, basis), psi0, t_star)
        f = fidelity(psi, target)
        rows.append(SweepRow(x, f, f, f, f))
    return SweepResult(rows, _metadata(spec, n, epsilon, t_star=t_star))


def mode_count_sweep(epsilon: float, spec: SweepSpec) -> SweepResult:
    """Numeric fidelity at the optimal time for each mode count in the grid."""
    _require_parameter(spec, SweepParameter.MODE_COUNT)
    rows = []
    for entry in n_scaling_table([int(x) for x in spec.grid], epsilon):
        f = entry.fidelity_numeric
        rows.append(SweepRow(float(entry.n), f, f, f, f))
    return SweepResult(rows, _metadata(spec, 0, epsilon))


def n_scaling_table(n_list, epsilon: float) -> list[ScalingRow]:
    """Closed-form versus numeric scorecard across mode counts."""
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

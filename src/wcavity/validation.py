"""Self-check suite: the cross-checks behind `wcavity validate`.

Each check measures a defect on randomized inputs and compares it to a
fixed tolerance.  ``inject_fault`` flips the sign of one off-diagonal
Hamiltonian entry before the Hermiticity measurement, so the suite's
ability to fail is itself testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    HERMITICITY_TOL,
    Frame,
    ModelParams,
    build_hamiltonian,
    evolve_closed_form,
    excitation_operator,
    propagate_numeric,
)
from .fock import StateVector, build_basis, initial_state

DEFAULT_SEED = 20240201

CONSERVATION_TOL = 1e-13
UNITARITY_TOL = 1e-10
COMPOSITION_TOL = 1e-9
ORACLE_TOL = 1e-8
RABI_PERIOD_RTOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    cases: int


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def checks_run(self) -> int:
        return len(self.checks)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return self.checks_run - self.passed

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


def _random_params(rng) -> ModelParams:
    n = int(rng.integers(1, 5))
    frame = Frame.LAB if rng.integers(2) else Frame.INTERACTION
    return ModelParams(
        n,
        float(rng.uniform(-5.0, 5.0)),
        tuple(float(w) for w in rng.uniform(-5.0, 5.0, size=n)),
        tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n)),
        frame,
    )


def _random_state(rng, basis) -> StateVector:
    raw = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return StateVector(basis, raw / np.linalg.norm(raw))


def check_hermiticity(rng, draws: int = 50, inject_fault: bool = False) -> CheckResult:
    worst = 0.0
    for k in range(draws):
        params = _random_params(rng)
        basis = build_basis(params.n_modes, n_max=int(rng.integers(1, 3)))
        matrix = np.array(build_hamiltonian(params, basis).matrix)
        if inject_fault and k == 0:
            rows, cols = np.nonzero(matrix)
            off = [(r, c) for r, c in zip(rows, cols) if r != c]
            r, c = off[0] if off else (0, 1)
            matrix[r, c] = -matrix[r, c]
        worst = max(worst, float(np.max(np.abs(matrix - matrix.conj().T))))
    return CheckResult("hermiticity", worst <= HERMITICITY_TOL, worst, HERMITICITY_TOL, draws)


def check_excitation_conservation(rng, draws: int = 50) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        params = _random_params(rng)
        basis = build_basis(params.n_modes, n_max=int(rng.integers(1, 3)))
        H = build_hamiltonian(params, basis).matrix
        N = excitation_operator(basis).matrix
        worst = max(worst, float(np.max(np.abs(H @ N - N @ H))))
    return CheckResult(
        "excitation-conservation", worst <= CONSERVATION_TOL, worst, CONSERVATION_TOL, draws
    )


def check_unitarity(rng, draws: int = 50) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        params = _random_params(rng)
        basis = build_basis(params.n_modes, n_max=1)
        H = build_hamiltonian(params, basis)
        psi = _random_state(rng, basis)
        t = float(rng.uniform(-20.0, 20.0))
        worst = max(worst, abs(propagate_numeric(H, psi, t).norm() - 1.0))
    return CheckResult("propagator-unitarity", worst <= UNITARITY_TOL, worst, UNITARITY_TOL, draws)


def check_composition(rng, draws: int = 50) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        params = _random_params(rng)
        basis = build_basis(params.n_modes, n_max=1)
        H = build_hamiltonian(params, basis)
        psi = _random_state(rng, basis)
        t1 = float(rng.uniform(-5.0, 5.0))
        t2 = float(rng.uniform(-5.0, 5.0))
        two = propagate_numeric(H, propagate_numeric(H, psi, t1), t2)
        one = propagate_numeric(H, psi, t1 + t2)
        worst = max(worst, float(np.max(np.abs(two.amplitudes - one.amplitudes))))
    return CheckResult(
        "propagator-composition", worst <= COMPOSITION_TOL, worst, COMPOSITION_TOL, draws
    )


def check_oracle_equivalence(rng, draws: int = 100) -> CheckResult:
    """Closed form against the numeric propagator on random resonant draws."""
    worst = 0.0
    for _ in range(draws):
        n = int(rng.integers(1, 7))
        eps = float(rng.uniform(0.1, 10.0))
        t = float(rng.uniform(0.0, 4.0 * math.pi / eps))
        params = ModelParams.resonant(n, eps)
        closed = evolve_closed_form(params, t)
        H = build_hamiltonian(params, closed.basis)
        numeric = propagate_numeric(H, initial_state(closed.basis), t)
        worst = max(worst, float(np.max(np.abs(closed.amplitudes - numeric.amplitudes))))
    return CheckResult("closed-form-vs-numeric", worst <= ORACLE_TOL, worst, ORACLE_TOL, draws)


def _bisect(f, a: float, b: float, xtol: float = 1e-14) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign."""
    fa = f(a)
    while b - a > xtol:
        m = 0.5 * (a + b)
        if m in (a, b):  # no float left between the ends
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def measure_rabi_period(n: int, epsilon: float) -> float:
    """Full oscillation period of the excited-state population, measured
    from numerically propagated states.

    The population dips to zero twice per cycle; those minima are located
    as sign changes of the (real) excited-state amplitude and refined by
    bisection.  The period is the distance between the first and third
    minima.  The analytic estimate only sets the sampling density of the
    initial bracketing scan.
    """
    basis = build_basis(n, n_max=1, excitation_cap=1)
    H = build_hamiltonian(ModelParams.resonant(n, epsilon), basis)
    psi0 = initial_state(basis)
    excited = basis.index[basis.states[-1]]  # |e; 0...0> sorts last

    def excited_amplitude(t: float) -> float:
        return float(propagate_numeric(H, psi0, t).amplitudes[excited].real)

    estimate = 2.0 * math.pi / (math.sqrt(n) * epsilon)
    ts = np.linspace(0.0, 1.45 * estimate, 241)
    values = [excited_amplitude(float(t)) for t in ts]
    zeros = []
    for a, b, fa, fb in zip(ts, ts[1:], values, values[1:]):
        if fa == 0.0:
            zeros.append(float(a))
        elif fa * fb < 0.0:
            zeros.append(_bisect(excited_amplitude, float(a), float(b)))
        if len(zeros) == 3:
            break
    if len(zeros) < 3:
        raise RuntimeError("failed to bracket three population minima")
    return zeros[2] - zeros[0]


def check_rabi_period(n_values=range(1, 7), epsilon: float = 1.0) -> CheckResult:
    worst = 0.0
    count = 0
    for n in n_values:
        expected = 2.0 * math.pi / (math.sqrt(n) * epsilon)
        measured = measure_rabi_period(n, epsilon)
        worst = max(worst, abs(measured - expected) / expected)
        count += 1
    return CheckResult("rabi-period", worst <= RABI_PERIOD_RTOL, worst, RABI_PERIOD_RTOL, count)


def run_validation(seed: int = DEFAULT_SEED, inject_fault: bool = False) -> ValidationReport:
    """Run every check on fresh seeded streams; deterministic per seed."""
    streams = np.random.SeedSequence(seed).spawn(5)
    checks = (
        check_hermiticity(np.random.default_rng(streams[0]), inject_fault=inject_fault),
        check_excitation_conservation(np.random.default_rng(streams[1])),
        check_unitarity(np.random.default_rng(streams[2])),
        check_composition(np.random.default_rng(streams[3])),
        check_oracle_equivalence(np.random.default_rng(streams[4])),
        check_rabi_period(),
    )
    return ValidationReport(checks)

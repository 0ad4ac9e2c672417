"""Self-check suite: the cross-checks behind `wcavity validate`.

Each check measures a defect on randomized inputs, evaluating each draw
through one operator and one state as it draws it, and compares the
largest defect to a fixed tolerance.  The dense numpy routes check each
other and ``sector``'s closed form and propagator, the routes
``simulate`` and the sweeps run; ``rabi-period`` times the Rabi period,
four times t*, on ``sector.evolve``; numpy's generator checks
``normals``, the disorder sweep's stream.  ``inject_fault`` runs
``sector.evolve`` backwards in the sector-route check, the sign error a
bug in its 2x2 phase makes, so that the suite's ability to fail on a
route the CLI runs is itself testable.  A route that raises in a check
fails that check (:func:`_check`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dynamics import ModelParams, build_hamiltonian, propagate_numeric
from . import normals, sector
from .fock import StateVector, build_basis, initial_state
from .sector import DEFAULT_SEED, ROUNDING_TOL

COMPOSITION_TOL = 1e-9
ORACLE_TOL = 1e-8
SECTOR_TOL = 1e-10


class CheckResult(NamedTuple):
    name: str
    passed: bool
    measured: float
    tolerance: float
    cases: int


class ValidationReport(NamedTuple):
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
    return ModelParams(
        n,
        tuple(float(d) for d in rng.uniform(-5.0, 5.0, size=n)),
        tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n)),
    )


def _random_amplitudes(rng, basis) -> np.ndarray:
    raw = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return raw / np.linalg.norm(raw)


def _check(name: str, defects, tolerance: float, cases: int) -> CheckResult:
    """The check ``name``: the largest of ``defects``, an iterable that runs
    the routes under check, against ``tolerance``.  A ValueError or
    PropagationError raised on the way is a fault of a route (say, a built
    operator that ``HermitianOperator`` refuses): the check reads FAIL with
    an infinite defect, rather than stopping the suite as bad input."""
    worst = 0.0
    try:
        for defect in defects:
            worst = max(worst, defect)
    except (ValueError, sector.PropagationError):
        worst = math.inf
    return CheckResult(name, worst <= tolerance, worst, tolerance, cases)


def check_unitarity(rng) -> CheckResult:
    """max |V^dag V - I| of the eigenvectors V that ``H.eigh()`` caches and
    ``propagate_numeric`` evolves in: a drift that its renormalization would
    hide shows here."""
    def defects():
        for _ in range(50):
            params = _random_params(rng)
            H = build_hamiltonian(params, build_basis(params.n_modes))
            _, eigvecs = H.eigh()
            gram = eigvecs.conj().T @ eigvecs
            yield float(np.max(np.abs(gram - np.eye(len(gram)))))
    return _check("propagator-unitarity", defects(), ROUNDING_TOL, 50)


def check_composition(rng) -> CheckResult:
    def defects():
        for _ in range(50):
            params = _random_params(rng)
            basis = build_basis(params.n_modes)
            psi = StateVector(basis, _random_amplitudes(rng, basis))
            t1 = float(rng.uniform(-5.0, 5.0))
            t2 = float(rng.uniform(-5.0, 5.0))
            H = build_hamiltonian(params, basis)
            two = propagate_numeric(H, propagate_numeric(H, psi, t1), t2)
            one = propagate_numeric(H, psi, t1 + t2)
            yield float(np.max(np.abs(two.amplitudes - one.amplitudes)))
    return _check("propagator-composition", defects(), COMPOSITION_TOL, 50)


def _sector_gap(params: ModelParams, t: float, pair) -> float:
    """The amplitude gap between the N + 2 amplitudes that ``pair``, of a
    ``sector`` route at time t, stands for and the dense sector propagator."""
    basis = build_basis(params.n_modes, excitation_cap=1)
    dense = propagate_numeric(build_hamiltonian(params, basis), initial_state(basis), t)
    amps = sector.amplitudes(params.couplings, pair)
    return max(abs(a - b) for a, b in zip(amps, dense.amplitudes.tolist()))


def check_oracle_equivalence(rng) -> CheckResult:
    """``sector.closed_form``, the closed form that ``simulate`` and the
    coupling-disorder sweep run, against the dense numeric propagator on
    random resonant draws."""
    def gaps():
        for _ in range(100):
            n = int(rng.integers(1, 7))
            eps = float(rng.uniform(0.1, 10.0))
            t = float(rng.uniform(0.0, 4.0 * math.pi / eps))
            params = ModelParams.resonant(n, eps)
            yield _sector_gap(params, t, sector.closed_form(params.couplings, t))
    return _check("closed-form-vs-numeric", gaps(), ORACLE_TOL, 100)


def check_sector_route(rng, inject_fault: bool = False) -> CheckResult:
    """``sector.evolve``, the route ``simulate`` and three sweeps run,
    against the dense sector route on random draws: unequal couplings and
    one common detuning.  With ``inject_fault``, ``sector.evolve`` runs to
    -t instead of t."""
    sign = -1.0 if inject_fault else 1.0

    def gaps():
        for _ in range(24):
            n = int(rng.integers(1, 7))
            couplings = tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n))
            detuning = float(rng.uniform(-5.0, 5.0))
            t = float(rng.uniform(-5.0, 5.0))
            (pair,) = sector.evolve(couplings, ((sign * t, detuning),))
            yield _sector_gap(ModelParams(n, (detuning,) * n, couplings), t, pair)
    return _check("sector-vs-dense", gaps(), SECTOR_TOL, 24)


def check_rng_stream(rng) -> CheckResult:
    """The standard-library normal stream of the coupling-disorder sweep
    against ``numpy.random.default_rng(key).standard_normal`` on random
    keys of one to four entries, each of 1, 32 or 64 random bits: the
    number of draws whose bits differ, of ``keys * draws``."""
    keys, draws, differ = 8, 256, 0
    for _ in range(keys):
        key = [int(rng.integers(0, 2**int(rng.choice([1, 32, 64])), dtype=np.uint64))
               for _ in range(int(rng.integers(1, 5)))]
        expected = np.random.default_rng(key).standard_normal(draws).tolist()
        ours = normals.standard_normals(key)
        differ += sum(next(ours).hex() != x.hex() for x in expected)
    return CheckResult("rng-stream", differ == 0, float(differ), 0.0, keys * draws)


def _find_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """A root of f between a and b, where fa = f(a) and fb = f(b) differ in
    sign or one is zero, by regula falsi with the Illinois step: a point
    where f is exactly zero or, once no float is left between the ends, the
    end that the chord of the ends rounds onto."""
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    while True:
        x = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < x < max(a, b):  # x rounds onto an end: step inside
            end, other = (a, b) if abs(x - a) < abs(x - b) else (b, a)
            x = math.nextafter(end, other)
            if x == other:
                return end
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fb < 0.0):
            fa *= 0.5  # a is kept twice in a row
        else:
            a, fa = b, fb
        b, fb = x, fx


def measure_rabi_period(n: int, epsilon: float) -> float:
    """Full oscillation period of the excited-state population of
    ``sector.evolve`` at n resonant modes of coupling ``epsilon``.

    The excited amplitude, cos(sqrt(n) epsilon t), changes sign twice per
    cycle.  One ``evolve`` call scans 121 times up to the third change, and
    :func:`_find_root` refines each; the period is the distance between the
    first and third zeros.  The analytic estimate only sets the span, and
    fewer than three changes in it raise ValueError.
    """
    couplings = (epsilon,) * n

    def excited_amplitude(t: float) -> float:
        ((excited, _),) = sector.evolve(couplings, ((t, 0.0),))
        return excited.real

    estimate = 2.0 * math.pi / (math.sqrt(n) * epsilon)
    ts = np.linspace(0.0, 1.45 * estimate, 121).tolist()
    states = sector.evolve(couplings, [(t, 0.0) for t in ts])
    zeros, fa = [], next(states)[0].real
    for a, b, (excited, _) in zip(ts, ts[1:], states):
        fb = excited.real
        if fa == 0.0 or fa * fb < 0.0:
            zeros.append(_find_root(excited_amplitude, a, b, fa, fb))
            if len(zeros) == 3:
                return zeros[2] - zeros[0]
        fa = fb
    raise ValueError("fewer than three sign changes in 1.45 estimated periods")


def check_rabi_period() -> CheckResult:
    """The period of :func:`measure_rabi_period` against 2 pi / sqrt(N) at
    N = 1..6 and epsilon = 1: the relative error."""
    def errors():
        for n in range(1, 7):
            expected = 2.0 * math.pi / math.sqrt(n)
            yield abs(measure_rabi_period(n, 1.0) - expected) / expected
    return _check("rabi-period", errors(), ROUNDING_TOL, 6)


def run_validation(seed: int = DEFAULT_SEED, inject_fault: bool = False) -> ValidationReport:
    """Run every check on fresh seeded streams; deterministic per seed."""
    # streams 0 and 1 go unused, so that each check keeps the stream, and
    # the draws, that it has always had at a given seed
    streams = np.random.SeedSequence(seed).spawn(7)
    checks = (
        check_unitarity(np.random.default_rng(streams[2])),
        check_composition(np.random.default_rng(streams[3])),
        check_oracle_equivalence(np.random.default_rng(streams[4])),
        check_rabi_period(),
        check_sector_route(np.random.default_rng(streams[5]), inject_fault=inject_fault),
        check_rng_stream(np.random.default_rng(streams[6])),
    )
    return ValidationReport(checks)

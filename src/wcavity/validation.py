"""Self-check suite: the cross-checks behind `wcavity validate`.

Each check measures a defect on randomized inputs, evaluating each draw
through one operator and one state as it draws it, and compares the
largest defect to ``sector.ROUNDING_TOL`` (``rng-stream`` counts the
draws that differ, and admits none).  The dense numpy routes, on the
N + 2 state sector where ``dynamics.build_hamiltonian`` builds each
operator from its couplings and detunings alone, check each other
and ``sector``'s closed form and propagator, the routes ``simulate``
and the sweeps run; ``rabi-period`` times the Rabi period,
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

from .dynamics import build_hamiltonian, propagate_numeric
from . import normals, sector
from .fock import StateVector, initial_state
from .sector import DEFAULT_SEED, ROUNDING_TOL


class CheckResult(NamedTuple):
    name: str
    passed: bool
    measured: float
    tolerance: float
    cases: int


def _random_params(rng) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(couplings, detunings) of one to four modes, the detunings drawn first."""
    n = int(rng.integers(1, 5))
    detunings = tuple(float(d) for d in rng.uniform(-5.0, 5.0, size=n))
    return tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n)), detunings


def _random_amplitudes(rng, basis) -> np.ndarray:
    raw = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return raw / np.linalg.norm(raw)


def _check(name: str, defects, cases: int) -> CheckResult:
    """The check ``name``: the largest defect of ``defects(cases)``, an
    iterable that runs the routes under check on ``cases`` draws, against
    ``ROUNDING_TOL``.  A ValueError or PropagationError raised on the way is
    a fault of a route (say, a built operator that ``HermitianOperator``
    refuses): the check reads FAIL with an infinite defect, rather than
    stopping the suite as bad input."""
    worst = 0.0
    try:
        for defect in defects(cases):
            worst = max(worst, defect)
    except (ValueError, sector.PropagationError):
        worst = math.inf
    return CheckResult(name, worst <= ROUNDING_TOL, worst, ROUNDING_TOL, cases)


def check_unitarity(rng) -> CheckResult:
    """max |V^dag V - I| of the eigenvectors V that ``H.eigh()`` caches and
    ``propagate_numeric`` evolves in: a drift that its renormalization would
    hide shows here."""
    def defects(draws):
        for _ in range(draws):
            couplings, detunings = _random_params(rng)
            H = build_hamiltonian(couplings=couplings, detunings=detunings)
            _, eigvecs = H.eigh()
            gram = eigvecs.conj().T @ eigvecs
            yield float(np.max(np.abs(gram - np.eye(len(gram)))))
    return _check("propagator-unitarity", defects, 50)


def check_composition(rng) -> CheckResult:
    def defects(draws):
        for _ in range(draws):
            couplings, detunings = _random_params(rng)
            H = build_hamiltonian(couplings=couplings, detunings=detunings)
            psi = StateVector(H.basis, _random_amplitudes(rng, H.basis))
            t1 = float(rng.uniform(-5.0, 5.0))
            t2 = float(rng.uniform(-5.0, 5.0))
            two = propagate_numeric(H, propagate_numeric(H, psi, t1), t2)
            one = propagate_numeric(H, psi, t1 + t2)
            yield float(np.max(np.abs(two.amplitudes - one.amplitudes)))
    return _check("propagator-composition", defects, 50)


def _sector_gap(couplings, detuning: float, t: float, mode: sector.BrightMode, pair) -> float:
    """The amplitude gap between the N + 2 amplitudes that ``pair`` of
    ``mode``, at time t, stands for and the dense sector propagator of
    ``couplings`` and one common ``detuning``."""
    H = build_hamiltonian(couplings=couplings, detunings=(detuning,) * len(couplings))
    dense = propagate_numeric(H, initial_state(H.basis), t)
    amps = sector.amplitudes(mode, pair)
    return max(abs(a - b) for a, b in zip(amps, dense.amplitudes.tolist()))


def check_oracle_equivalence(rng) -> CheckResult:
    """``sector.closed_form``, the closed form that ``simulate`` and the
    coupling-disorder sweep run, against the dense numeric propagator on
    random resonant draws."""
    def gaps(draws):
        for _ in range(draws):
            n = int(rng.integers(1, 7))
            eps = float(rng.uniform(0.1, 10.0))
            t = float(rng.uniform(0.0, 4.0 * math.pi / eps))
            mode = sector.bright_mode((eps,) * n)
            yield _sector_gap((eps,) * n, 0.0, t, mode, sector.closed_form(mode, t))
    return _check("closed-form-vs-numeric", gaps, 100)


def check_sector_route(rng, inject_fault: bool = False) -> CheckResult:
    """``sector.evolve``, the route ``simulate`` and three sweeps run,
    against the dense sector route on random draws: unequal couplings and
    one common detuning.  With ``inject_fault``, ``sector.evolve`` runs to
    -t instead of t."""
    sign = -1.0 if inject_fault else 1.0

    def gaps(draws):
        for _ in range(draws):
            n = int(rng.integers(1, 7))
            couplings = tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n))
            detuning = float(rng.uniform(-5.0, 5.0))
            t = float(rng.uniform(-5.0, 5.0))
            mode = sector.bright_mode(couplings)
            (pair,) = sector.evolve(mode, ((sign * t, detuning),))
            yield _sector_gap(couplings, detuning, t, mode, pair)
    return _check("sector-vs-dense", gaps, 24)


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
    mode = sector.bright_mode((epsilon,) * n)

    def excited_amplitude(t: float) -> float:
        ((excited, _),) = sector.evolve(mode, ((t, 0.0),))
        return excited.real

    estimate = 2.0 * math.pi / (math.sqrt(n) * epsilon)
    ts = np.linspace(0.0, 1.45 * estimate, 121).tolist()
    states = sector.evolve(mode, [(t, 0.0) for t in ts])
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
    def errors(modes):
        for n in range(1, modes + 1):
            expected = 2.0 * math.pi / math.sqrt(n)
            yield abs(measure_rabi_period(n, 1.0) - expected) / expected
    return _check("rabi-period", errors, 6)


def run_validation(seed: int = DEFAULT_SEED,
                   inject_fault: bool = False) -> tuple[CheckResult, ...]:
    """Every check's result, each run on a fresh seeded stream;
    deterministic per seed."""
    # streams 0 and 1 go unused, so that each check keeps the stream, and
    # the draws, that it has always had at a given seed
    streams = np.random.SeedSequence(seed).spawn(7)
    return (
        check_unitarity(np.random.default_rng(streams[2])),
        check_composition(np.random.default_rng(streams[3])),
        check_oracle_equivalence(np.random.default_rng(streams[4])),
        check_rabi_period(),
        check_sector_route(np.random.default_rng(streams[5]), inject_fault=inject_fault),
        check_rng_stream(np.random.default_rng(streams[6])),
    )

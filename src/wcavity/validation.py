"""Self-check suite: the cross-checks behind `wcavity validate`.

Each check measures a defect on randomized inputs and compares it to a
fixed tolerance.  The dense numpy routes check each other, and they in
turn check ``sector``'s closed form and propagator, the routes
``simulate`` and the sweeps run; numpy's generator checks ``normals``,
the stream the coupling-disorder sweep draws.
``inject_fault`` runs ``sector.evolve`` backwards in time in the
sector-route check, the sign error a bug in its 2x2 phase makes, so the
suite's ability to fail on a route the CLI runs is itself testable.  A
route that raises in a check fails that check (:func:`_check`).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dynamics import ModelParams, build_hamiltonian, propagate_numeric, propagate_times
from . import normals, sector
from .fock import StateVector, build_basis, initial_state
from .sector import DEFAULT_SEED, ROUNDING_TOL

CONSERVATION_TOL = 1e-13
UNITARITY_TOL = 1e-10
COMPOSITION_TOL = 1e-9
ORACLE_TOL = 1e-8
SECTOR_TOL = 1e-10
RABI_PERIOD_RTOL = 1e-6


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


#: Largest stack of dense (dim, dim) complex matrices that the propagation
#: checks evaluate at once; more draws on one basis make several stacks.
#: Measured on `run_validation`: unbounded stacks raised the peak RSS by
#: about 0.6 MiB over one draw at a time, 32 KiB stacks did not, and they
#: ran the three checks as fast as 64 KiB or unbounded ones.
STACK_BYTES = 32 * 1024


def _stacks(draws):
    """The draws grouped by basis, the first item of each draw: (basis,
    list of the rest of each draw) pairs, in draw order, each holding at
    most ``STACK_BYTES`` of complex matrices.  Bases are told apart by
    identity: ``build_basis`` hands out one object per truncation, and
    ``draws`` keeps every basis alive meanwhile."""
    groups: dict[int, tuple] = {}
    for basis, *rest in draws:
        groups.setdefault(id(basis), (basis, []))[1].append(rest)
    stacks = []
    for basis, items in groups.values():
        size = max(1, STACK_BYTES // (16 * basis.dim**2))
        stacks.extend((basis, items[k:k + size]) for k in range(0, len(items), size))
    return stacks


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


def check_hermiticity(rng, draws: int = 50) -> CheckResult:
    """The defect each built operator measured on construction."""
    def defects():
        for _ in range(draws):
            params = _random_params(rng)
            basis = build_basis(params.n_modes, n_max=int(rng.integers(1, 3)))
            yield build_hamiltonian(params, basis).defect
    return _check("hermiticity", defects(), ROUNDING_TOL, draws)


def check_excitation_conservation(rng, draws: int = 50) -> CheckResult:
    def defects():
        for _ in range(draws):
            params = _random_params(rng)
            basis = build_basis(params.n_modes, n_max=int(rng.integers(1, 3)))
            H = build_hamiltonian(params, basis).matrix
            n = basis.levels.sum(axis=1)  # the diagonal of the excitation operator
            # N is diagonal, so [H, N]_jk = H_jk (n_k - n_j)
            yield float(np.max(np.abs(H * (n[None, :] - n[:, None]))))
    return _check("excitation-conservation", defects(), CONSERVATION_TOL, draws)


# The propagation checks draw every input first, in the order of one draw
# after another, then evaluate the draws on one basis in stacks through
# the dense oracle; each item evolves as it would alone.


def check_unitarity(rng, draws: int = 50) -> CheckResult:
    inputs = []
    for _ in range(draws):
        params = _random_params(rng)
        basis = build_basis(params.n_modes, n_max=1)
        inputs.append((basis, params, _random_amplitudes(rng, basis),
                       float(rng.uniform(-20.0, 20.0))))

    def defects():
        for basis, stack in _stacks(inputs):
            params, amps, t = zip(*stack)
            H = build_hamiltonian(params, basis)
            psi = StateVector(basis, amps)
            yield float(np.max(np.abs(propagate_numeric(H, psi, t).norm() - 1.0)))
    return _check("propagator-unitarity", defects(), UNITARITY_TOL, draws)


def check_composition(rng, draws: int = 50) -> CheckResult:
    inputs = []
    for _ in range(draws):
        params = _random_params(rng)
        basis = build_basis(params.n_modes, n_max=1)
        amps = _random_amplitudes(rng, basis)
        t1 = float(rng.uniform(-5.0, 5.0))
        t2 = float(rng.uniform(-5.0, 5.0))
        inputs.append((basis, params, amps, t1, t2))

    def defects():
        for basis, stack in _stacks(inputs):
            params, amps, t1, t2 = zip(*stack)
            t1, t2 = np.array(t1), np.array(t2)
            H = build_hamiltonian(params, basis)
            psi = StateVector(basis, amps)
            two = propagate_numeric(H, propagate_numeric(H, psi, t1), t2)
            one = propagate_numeric(H, psi, t1 + t2)
            yield float(np.max(np.abs(two.amplitudes - one.amplitudes)))
    return _check("propagator-composition", defects(), COMPOSITION_TOL, draws)


def _sector_gaps(inputs, route):
    """The amplitude gap between ``route(params, t)``, the N + 2 amplitudes
    of a ``sector`` route, and the dense sector propagator, for each
    (basis, params, t) draw, evaluated in stacks."""
    for basis, stack in _stacks(inputs):
        params, t = zip(*stack)
        dense = propagate_numeric(build_hamiltonian(params, basis), initial_state(basis), t)
        for item, time, expected in zip(params, t, dense.amplitudes.tolist()):
            yield max(abs(a - b) for a, b in zip(route(item, time), expected))


def check_oracle_equivalence(rng, draws: int = 100) -> CheckResult:
    """``sector.closed_form``, the closed form that ``simulate`` and the
    coupling-disorder sweep run, against the dense numeric propagator on
    random resonant draws."""
    inputs = []
    for _ in range(draws):
        n = int(rng.integers(1, 7))
        eps = float(rng.uniform(0.1, 10.0))
        t = float(rng.uniform(0.0, 4.0 * math.pi / eps))
        inputs.append((build_basis(n, n_max=1, excitation_cap=1), ModelParams.resonant(n, eps), t))
    gaps = _sector_gaps(inputs, lambda params, t: sector.closed_form(params.couplings, t))
    return _check("closed-form-vs-numeric", gaps, ORACLE_TOL, draws)


def check_sector_route(rng, draws: int = 24, inject_fault: bool = False) -> CheckResult:
    """``sector.evolve``, the route ``simulate`` and three sweeps run,
    against the dense sector route on random draws: unequal couplings and
    one common detuning.  With ``inject_fault``, ``sector.evolve`` runs to
    -t instead of t."""
    sign = -1.0 if inject_fault else 1.0
    inputs = []
    for _ in range(draws):
        n = int(rng.integers(1, 7))
        couplings = tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n))
        detuning = float(rng.uniform(-5.0, 5.0))
        t = float(rng.uniform(-5.0, 5.0))
        params = ModelParams(n, (detuning,) * n, couplings)
        inputs.append((build_basis(n, n_max=1, excitation_cap=1), params, t))

    def route(params, t):
        (amps,) = sector.evolve(params.couplings, ((sign * t, params.detunings[0]),))
        return amps
    return _check("sector-vs-dense", _sector_gaps(inputs, route), SECTOR_TOL, draws)


def check_rng_stream(rng, keys: int = 8, draws: int = 256) -> CheckResult:
    """The standard-library normal stream of the coupling-disorder sweep
    against ``numpy.random.default_rng(key).standard_normal`` on random
    keys of one to four entries, each of 1, 32 or 64 random bits: the
    number of draws whose bits differ, of ``keys * draws``."""
    differ = 0
    for _ in range(keys):
        key = [int(rng.integers(0, 2**int(rng.choice([1, 32, 64])), dtype=np.uint64))
               for _ in range(int(rng.integers(1, 5)))]
        expected = np.random.default_rng(key).standard_normal(draws).tolist()
        ours = normals.standard_normals(key)
        differ += sum(next(ours).hex() != x.hex() for x in expected)
    return CheckResult("rng-stream", differ == 0, float(differ), 0.0, keys * draws)


#: Sub-intervals per bracket and round of :func:`_refine_roots`: about seven
#: rounds narrow a bracket of the Rabi scan's spacing to 1e-14.
REFINE_POINTS = 64


def _refine_roots(f, brackets, xtol: float = 1e-14) -> list[float]:
    """One root of f in each bracket (a, b, f(a)), where f(a) is zero or
    differs in sign from f(b).  ``f`` maps a 1-D array of points to their
    values.

    All brackets are narrowed together: each round evaluates the interior
    nodes of ``REFINE_POINTS`` equal sub-intervals of every open bracket in
    one call of f and keeps the sub-interval where the sign changes, until
    the bracket is at most xtol wide or has no float left inside.
    """
    brackets = [tuple(map(float, bracket)) for bracket in brackets]
    roots = [a if fa == 0.0 else None for a, _, fa in brackets]
    fractions = np.linspace(0.0, 1.0, REFINE_POINTS + 1)[1:-1]
    while None in roots:
        live = [i for i, root in enumerate(roots) if root is None]
        inner = np.array([brackets[i][0] + (brackets[i][1] - brackets[i][0]) * fractions
                          for i in live])
        values = f(inner.ravel()).reshape(inner.shape)
        for i, xs, vs in zip(live, inner.tolist(), values.tolist()):
            a, b, fa = brackets[i]
            nodes, vals = [a, *xs, b], [fa, *vs]
            # the first interior node that is a root or past the sign
            # change; with none, the change lies in the last sub-interval
            k = next((j for j, v in enumerate(vs, 1) if v == 0.0 or (v < 0.0) != (fa < 0.0)),
                     REFINE_POINTS)
            if k < REFINE_POINTS and vals[k] == 0.0:
                roots[i] = nodes[k]
                continue
            lo, hi = nodes[k - 1], nodes[k]
            if hi - lo <= xtol or (lo, hi) == (a, b):
                roots[i] = 0.5 * (lo + hi)
            brackets[i] = (lo, hi, vals[k - 1])
    return roots


def measure_rabi_period(n: int, epsilon: float) -> float:
    """Full oscillation period of the excited-state population, measured
    from numerically propagated states.

    The population dips to zero twice per cycle; those minima are located
    as sign changes of the (real) excited-state amplitude on a 241-point
    scan and refined together by :func:`_refine_roots`.  The period is the
    distance between the first and third minima.  The analytic estimate
    only sets the sampling density of the scan.  Every evaluation goes
    through one array propagation of a single Hamiltonian, so the call
    diagonalizes once.
    """
    basis = build_basis(n, n_max=1, excitation_cap=1)
    H = build_hamiltonian(ModelParams.resonant(n, epsilon), basis)
    psi0 = initial_state(basis)
    excited = basis.index[basis.states[-1]]  # |e; 0...0> sorts last

    def excited_amplitude(ts) -> np.ndarray:
        return propagate_times(H, psi0, ts)[:, excited].real

    estimate = 2.0 * math.pi / (math.sqrt(n) * epsilon)
    ts = np.linspace(0.0, 1.45 * estimate, 241)
    values = excited_amplitude(ts)
    brackets = []
    for a, b, fa, fb in zip(ts, ts[1:], values, values[1:]):
        if fa == 0.0 or fa * fb < 0.0:
            brackets.append((a, b, fa))
        if len(brackets) == 3:
            break
    if len(brackets) < 3:
        raise RuntimeError("failed to bracket three population minima")
    zeros = _refine_roots(excited_amplitude, brackets)
    return zeros[2] - zeros[0]


def check_rabi_period(n_values=range(1, 7), epsilon: float = 1.0) -> CheckResult:
    def errors():
        for n in n_values:
            expected = 2.0 * math.pi / (math.sqrt(n) * epsilon)
            yield abs(measure_rabi_period(n, epsilon) - expected) / expected
    return _check("rabi-period", errors(), RABI_PERIOD_RTOL, len(n_values))


def run_validation(seed: int = DEFAULT_SEED, inject_fault: bool = False) -> ValidationReport:
    """Run every check on fresh seeded streams; deterministic per seed."""
    streams = np.random.SeedSequence(seed).spawn(7)
    checks = (
        check_hermiticity(np.random.default_rng(streams[0])),
        check_excitation_conservation(np.random.default_rng(streams[1])),
        check_unitarity(np.random.default_rng(streams[2])),
        check_composition(np.random.default_rng(streams[3])),
        check_oracle_equivalence(np.random.default_rng(streams[4])),
        check_rabi_period(),
        check_sector_route(np.random.default_rng(streams[5]), inject_fault=inject_fault),
        check_rng_stream(np.random.default_rng(streams[6])),
    )
    return ValidationReport(checks)

import inspect
import math
import random
import types
import zlib

import numpy as np
import pytest
import scipy.linalg

from wcavity import normals, sector, validation
from wcavity.cli import main
from wcavity.fock import build_basis
from wcavity.validation import (
    _find_root,
    build_arrowhead,
    check_composition,
    check_hamiltonian_moments,
    check_oracle_equivalence,
    check_rabi_period,
    check_rng_stream,
    check_sector_route,
    check_unitarity,
    jacobi,
    measure_rabi_period,
    propagate,
    run_validation,
)

from fault import backwards
from qubit_space import reference_hamiltonian


CHECK_NAMES = [
    "propagator-unitarity", "propagator-composition", "closed-form-vs-numeric",
    "rabi-period", "sector-vs-dense", "rng-stream", "hamiltonian-moments",
]


def test_all_checks_pass_by_default():
    checks = run_validation()
    assert [c.name for c in checks] == CHECK_NAMES
    assert [c.cases for c in checks] == [50, 50, 100, 6, 24, 2048, 50]
    assert all(c.passed for c in checks)


def test_deterministic_per_seed():
    a = run_validation(seed=7)
    b = run_validation(seed=7)
    assert [(c.name, c.measured) for c in a] == [(c.name, c.measured) for c in b]


def test_fault_injection_fails_only_the_sector_route(monkeypatch):
    monkeypatch.setattr(sector, "evolve", backwards(sector.evolve))
    outcomes = {c.name: c.passed for c in run_validation()}
    assert outcomes["sector-vs-dense"] is False
    assert all(ok for name, ok in outcomes.items() if name != "sector-vs-dense")


@pytest.mark.parametrize("n,epsilon", [(1, 1.0), (3, 0.7), (5, 2.5)])
def test_rabi_period_measurement(n, epsilon):
    expected = 2.0 * math.pi / (math.sqrt(n) * epsilon)
    measured = measure_rabi_period(n, epsilon)
    assert abs(measured - expected) / expected <= 1e-9


def test_rabi_period_evolves_only_on_the_sector_route(monkeypatch):
    """One ``sector.evolve`` call scans 121 times, the doubles of
    ``numpy.linspace`` over 1.45 estimated periods, then each refinement
    step evolves one time; no dense operator is diagonalized."""
    points = []
    real = sector.evolve
    monkeypatch.setattr(sector, "evolve",
                        lambda c, pts: points.append(list(pts)) or real(c, pts))
    monkeypatch.setattr(validation, "jacobi", None)
    measure_rabi_period(4, 1.3)
    estimate = 2.0 * math.pi / (math.sqrt(4) * 1.3)
    assert [t for t, _ in points[0]] == np.linspace(0.0, 1.45 * estimate, 121).tolist()
    assert all(len(p) == 1 for p in points[1:])
    assert all(detuning == 0.0 for p in points for _, detuning in p)


def recording(monkeypatch, name, calls):
    """Record the arguments of each call of ``validation.<name>``."""
    real = getattr(validation, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(validation, name, wrapper)


def test_validation_builds_and_diagonalizes_only_the_sector(monkeypatch):
    """Every operator that ``run_validation`` builds is on the N + 2 state
    sector of its couplings, N <= 6, and each that a check propagates is
    diagonalized once; ``hamiltonian-moments``, last, diagonalizes none
    of its 50."""
    built, diagonalized = [], []
    recording(monkeypatch, "build_arrowhead", built)
    recording(monkeypatch, "jacobi", diagonalized)
    assert all(check.passed for check in run_validation())
    assert len(diagonalized) == 50 + 50 + 100 + 24
    assert len(built) == len(diagonalized) + 50
    for (couplings, _), (matrix,) in zip(built, diagonalized):
        assert len(matrix) == len(couplings) + 2 <= 8
    assert all(len(couplings) <= 4 for couplings, _ in built[len(diagonalized):])


@pytest.mark.parametrize("seed", range(1, 21))
def test_every_seed_passes_and_a_fault_fails_only_the_sector_route(seed, monkeypatch):
    """At each seed the seven checks run in their order and pass, each within
    ``ROUNDING_TOL``.  With ``sector.evolve`` run to -t, ``sector-vs-dense``
    alone fails, and each other check's result is the clean run's."""
    clean = run_validation(seed=seed)
    monkeypatch.setattr(sector, "evolve", backwards(sector.evolve))
    faulty = run_validation(seed=seed)
    assert [c.name for c in clean] == [c.name for c in faulty] == CHECK_NAMES
    assert all(c.passed and c.measured <= sector.ROUNDING_TOL for c in clean)
    assert [c.name for c in faulty if not c.passed] == ["sector-vs-dense"]
    assert [c for c in faulty if c.passed] == [c for c in clean if c.name != "sector-vs-dense"]


def test_composition_diagonalizes_once_per_draw(monkeypatch):
    """Three propagations a draw, t1 then t2 and t1 + t2, of 50 draws, all
    from the one diagonalization of the draw's operator."""
    diagonalized, propagated = [], []
    recording(monkeypatch, "jacobi", diagonalized)
    recording(monkeypatch, "propagate", propagated)
    check_composition(random.Random(0))
    assert len(diagonalized) == 50 and len(propagated) == 150


def test_unitarity_check_and_the_propagator_both_refuse_a_drift(monkeypatch):
    """Eigenvectors scaled by 1 + 1e-11 make every evolved norm drift by
    about 2e-11, above ``ROUNDING_TOL``: the check reads the eigenvectors
    themselves and fails, and ``propagate`` raises rather than dividing
    the drift out."""
    assert check_unitarity(random.Random(3)).measured <= 1e-14
    real = validation.jacobi

    def scaled(matrix):
        values, vectors = real(matrix)
        return values, [[x * (1.0 + 1e-11) for x in row] for row in vectors]

    monkeypatch.setattr(validation, "jacobi", scaled)
    result = check_unitarity(random.Random(3))
    assert not result.passed
    assert 1e-11 < result.measured < 1e-10
    spectrum = scaled(build_arrowhead((1.0, 1.0), (0.0, 0.0)))
    with pytest.raises(sector.PropagationError, match="norm drift"):
        propagate(spectrum, [0j, 0j, 0j, 1 + 0j], 0.7)


def assert_draws_only_the_parameters(check):
    rng, reference = random.Random(5), random.Random(5)
    assert check(rng).cases == 50
    for _ in range(50):
        validation._random_params(reference)
    assert rng.getstate() == reference.getstate()


def test_unitarity_check_draws_only_the_parameters():
    assert_draws_only_the_parameters(check_unitarity)


def test_moments_check_draws_only_the_parameters():
    assert_draws_only_the_parameters(check_hamiltonian_moments)


def test_composition_check_fails_on_a_time_offset_in_the_propagator(monkeypatch):
    """A propagator that evolves every state 0.01 too far, a fixed delay,
    breaks U(t2) U(t1) = U(t1 + t2), which no single evolution shows."""
    real = validation.propagate
    monkeypatch.setattr(validation, "propagate",
                        lambda spectrum, psi, t: real(spectrum, psi, t + 0.01))
    result = check_composition(random.Random(3))
    assert not result.passed
    assert result.measured > 1e-4


@pytest.mark.parametrize("scale", [1e-4, 1e-9])
def test_rabi_check_fails_on_scaled_couplings_in_the_sector_route(scale, monkeypatch):
    """An Omega scaled by 1 + scale in the record that ``sector.evolve``
    gets still gives unit-norm states, but shortens the period by a
    relative ``scale``; at 1e-9 that is below the old tolerance of 1e-6
    and above 1e-12."""
    real = sector.evolve
    assert check_rabi_period().passed
    monkeypatch.setattr(sector, "evolve", lambda mode, points: real(
        mode._replace(omega=mode.omega * (1.0 + scale)), points))
    result = check_rabi_period()
    assert not result.passed
    assert result.measured == pytest.approx(scale, rel=1e-3)


def test_rabi_check_fails_on_a_period_beyond_its_scan(monkeypatch):
    """An Omega scaled by 0.8 in the record that ``sector.evolve`` gets
    lengthens the period by 1.25, which puts the third sign change past
    the scan: the check reads FAIL with an infinite defect instead of
    stopping the suite."""
    real = sector.evolve
    monkeypatch.setattr(sector, "evolve", lambda mode, points: real(
        mode._replace(omega=mode.omega * 0.8), points))
    result = check_rabi_period()
    assert not result.passed and result.measured == math.inf


def test_rng_stream_check_fails_on_one_flipped_draw(monkeypatch):
    """A stream whose 100th normal has its sign flipped differs from
    numpy's at every key."""
    real = normals.standard_normals

    def flipped(key):
        for k, x in enumerate(real(key)):
            yield -x if k == 99 else x

    monkeypatch.setattr(normals, "standard_normals", flipped)
    result = check_rng_stream()
    assert not result.passed
    assert result.measured == 8.0


def test_rng_stream_checksums_are_those_of_numpys_draws():
    """Each committed checksum is the ``zlib.crc32`` of numpy's live draws
    at its key, and the keys hold 1-, 32- and 64-bit words, the edge words
    among them, in one to four entries."""
    for key, crc in validation.RNG_KEYS:
        draws = np.random.default_rng(list(key)).standard_normal(validation.RNG_DRAWS)
        text = "".join(f"{x.hex()}\n" for x in draws.tolist())
        assert zlib.crc32(text.encode()) == crc, key
    keys = [key for key, _ in validation.RNG_KEYS]
    assert {len(key) for key in keys} == {1, 2, 3, 4}
    words = {word for key in keys for word in key}
    assert {0, 1, 2**32 - 1, 2**63, 2**64 - 1} <= words
    assert {word.bit_length() for word in words} >= {0, 1, 32, 64}


def test_an_operator_the_oracle_refuses_fails_its_checks(monkeypatch, capsys):
    """A build whose exchange elements lose their symmetric partner by a
    relative 1e-9 is refused by ``jacobi``: every check that diagonalizes
    an operator reads FAIL with an infinite defect, and validate exits 1, a
    failed check, not 2, bad input.  ``hamiltonian-moments`` reads the
    skewed exchange terms of tr H^3 and fails with a finite defect near
    1e-9; ``rabi-period`` and ``rng-stream`` build no operator and pass."""
    real = validation.build_arrowhead

    def skewed(couplings, detunings):
        matrix = real(couplings, detunings)
        matrix[-1] = [x * (1 + 1e-9) for x in matrix[-1]]
        return matrix

    monkeypatch.setattr(validation, "build_arrowhead", skewed)
    assert main(["validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL propagator-unitarity: measured=inf ")
    assert [line.split(":")[0] for line in lines if line.startswith("PASS")] == [
        "PASS rabi-period", "PASS rng-stream"]
    moments = lines[6]
    assert moments.startswith("FAIL hamiltonian-moments: measured=")
    assert 1e-12 < float(moments.split("measured=")[1].split()[0]) < 1e-8
    assert lines[-1] == "summary: checks_run=7 passed=2 failed=5"


def test_hitting_the_sweep_cap_fails_the_checks_not_the_suite(monkeypatch, capsys):
    """Every operator takes at least two sweeps, the last of which rotates
    nothing: at a cap of one sweep ``jacobi`` raises, and each check that
    diagonalizes reads FAIL with an infinite defect, while the suite runs
    on; ``hamiltonian-moments`` runs no Jacobi and passes."""
    monkeypatch.setattr(validation, "JACOBI_SWEEPS", 1)
    with pytest.raises(sector.PropagationError, match="after 1 sweeps"):
        jacobi(build_arrowhead((1.0,), (0.0,)))
    checks = run_validation()
    assert [c.name for c in checks if not c.passed] == CHECK_NAMES[:3] + ["sector-vs-dense"]
    assert all(c.measured == math.inf for c in checks if not c.passed)
    assert main(["validate"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "summary: checks_run=7 passed=3 failed=4"


def test_find_root_takes_exact_zeros_and_stops_between_adjacent_floats():
    def line(x):
        return x - 0.5

    # 0.5 is the first midpoint of a bracket, and either end of another
    assert _find_root(line, 0.0, 1.0, -0.5, 0.5) == 0.5
    assert _find_root(line, 0.5, 0.75, 0.0, 0.25) == 0.5
    assert _find_root(line, 0.25, 0.5, -0.25, 0.0) == 0.5

    # f is never zero, so only running out of floats inside the bracket ends
    # the search; near 1e3 the floats are 1.1e-13 apart
    after = math.nextafter(1000.0, math.inf)
    calls = []

    def step(x):
        calls.append(x)
        return -1.0 if x <= 1000.0 else 1.0

    assert _find_root(step, 0.0, 2048.0, -1.0, 1.0) in (1000.0, after)
    assert 1000.0 in calls and after in calls and len(calls) < 100


def test_find_root_takes_a_decreasing_bracket():
    """fa > 0 > fb, as at the Rabi scan's first zero of cos(Omega t): the
    float pi / 2 lies 6.1e-17 below the zero of cos and the next float
    1.6e-16 above it, so the end with the smaller |f| is pi / 2."""
    above = math.nextafter(math.pi / 2, math.inf)
    assert math.cos(math.pi / 2) > 0.0 > math.cos(above)
    assert _find_root(math.cos, 1.0, 2.0, math.cos(1.0), math.cos(2.0)) == math.pi / 2


@pytest.mark.parametrize("f, a, b", [
    (math.cos, 1.0, 2.0),
    (math.cos, 1.5, 1.6),
    (lambda x: x - 1000.0, 0.0, 1024.0),
    (lambda x: -1.0 if x <= 1000.0 else 1.0, 0.0, 2048.0),
])
def test_find_root_evaluates_only_strictly_inside_the_bracket(f, a, b):
    calls = []

    def traced(x):
        calls.append(x)
        return f(x)

    root = _find_root(traced, a, b, f(a), f(b))
    assert calls and all(a < x < b for x in calls)
    assert a <= root <= b


def test_injected_fault_runs_the_sector_route_backwards(monkeypatch):
    """The tests' fault is a sign error of the time that ``sector.evolve``
    gets, which the dense route does not share."""
    times = []
    real = sector.evolve

    def recorded(mode, points):
        points = list(points)
        times.extend(t for t, _ in points)
        return real(mode, points)

    monkeypatch.setattr(sector, "evolve", recorded)
    clean = check_sector_route(random.Random(3))
    forward = list(times)
    times.clear()
    monkeypatch.setattr(sector, "evolve", backwards(recorded))
    faulty = check_sector_route(random.Random(3))
    assert clean.passed and not faulty.passed
    assert times == [-t for t in forward]


def _params_one_draw_at_a_time(check, rng):
    """The (couplings, detunings) of each draw, with every input taken from
    rng in the order in which the check draws it."""
    params = []
    for _ in range(100 if check == "oracle" else 50 if check == "composition" else 24):
        if check == "composition":
            n = rng.randint(1, 4)
            detunings = tuple(rng.uniform(-5.0, 5.0) for _ in range(n))
            params.append((tuple(rng.uniform(0.1, 3.0) for _ in range(n)), detunings))
            [rng.gauss(0.0, 1.0) for _ in range(2 * (n + 2))]  # the state
            rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)  # t1, t2
            continue
        n = rng.randint(1, 6)
        if check == "oracle":
            eps = rng.uniform(0.1, 10.0)
            rng.uniform(0.0, 4.0 * math.pi / eps)  # the time
            params.append(((eps,) * n, (0.0,) * n))
        else:
            couplings = tuple(rng.uniform(0.1, 3.0) for _ in range(n))
            detuning = rng.uniform(-5.0, 5.0)
            rng.uniform(-5.0, 5.0)  # the time
            params.append((couplings, (detuning,) * n))
    return params


@pytest.mark.parametrize("check, run", [
    ("composition", check_composition),
    ("oracle", check_oracle_equivalence),
    ("sector", check_sector_route),
])
def test_checks_take_the_per_draw_inputs(check, run, monkeypatch):
    """Each check builds one operator per draw, in the order of its draws,
    from inputs read off its stream in a fixed order: the draws, and so the
    measured values, do not depend on how the draws are evaluated."""
    seen = []
    recording(monkeypatch, "build_arrowhead", seen)
    rng, reference_rng = random.Random(5), random.Random(5)
    result = run(rng)
    reference = _params_one_draw_at_a_time(check, reference_rng)
    assert rng.getstate() == reference_rng.getstate()
    assert seen == reference
    assert result.passed and result.cases == len(reference)


# The lines of the two checks that run no dense oracle and draw from no
# stream: they read the same at every seed, as they did when the oracle
# was numpy's (the scan's times are numpy.linspace's doubles, and the
# stream check finds no draw that differs).
UNCHANGED_LINES = [
    "PASS rabi-period: measured=2.448e-16 tolerance=1e-12 cases=6",
    "PASS rng-stream: measured=0.000e+00 tolerance=0 cases=2048",
]


@pytest.mark.parametrize("seed", ["default", "123"])
def test_validate_keeps_the_lines_of_the_checks_without_a_stream(seed, capsys):
    args = ["validate"] if seed == "default" else ["validate", "--seed", seed]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [lines[3], lines[5]] == UNCHANGED_LINES


def test_sector_check_passes_on_the_sector_route():
    result = check_sector_route(random.Random(3))
    assert result.passed and result.cases == 24
    assert result.measured <= 1e-13


@pytest.mark.parametrize("fault", ["conjugated state", "photon sign"])
def test_sector_check_fails_on_a_faulted_sector_evolve(fault, monkeypatch):
    """``sector-vs-dense`` runs ``sector.evolve``, the route of ``simulate``
    and three sweeps.  A conjugated pair (the evolution run backwards)
    and a flipped sign on the bright amplitude, which carries every
    photon, are wrong states; the check fails on both, without raising."""
    real = sector.evolve

    def faulted(mode, points):
        states = real(mode, points)
        if fault == "conjugated state":
            return [(excited.conjugate(), bright.conjugate()) for excited, bright in states]
        return [(excited, -bright) for excited, bright in states]

    monkeypatch.setattr(sector, "evolve", faulted)
    result = check_sector_route(random.Random(3))
    assert not result.passed
    assert result.measured > 1e-3


@pytest.mark.parametrize("fault", ["photon sign", "omega scaled"])
def test_closed_form_check_fails_on_a_faulted_sector_closed_form(fault, monkeypatch):
    """``closed-form-vs-numeric`` runs ``sector.closed_form``, the closed
    form of ``simulate`` and the disorder sweep.  A flipped sign on the
    bright amplitude of the pair gives a wrong state, and a record whose
    Omega is scaled by 1 + 1e-6, with beta and ||beta||^2 taken at it,
    fails the closed form's own norm check; the check fails on both,
    without raising."""
    real = sector.closed_form

    def faulted(mode, t):
        if fault == "photon sign":
            excited, bright = real(mode, t)
            return excited, -bright
        omega = mode.omega * (1.0 + 1e-6)
        beta = tuple(b * (mode.omega / omega) for b in mode.beta)
        return real(mode._replace(omega=omega, beta=beta,
                                  squares=math.fsum([b * b for b in beta])), t)

    assert check_oracle_equivalence(random.Random(3)).passed
    monkeypatch.setattr(sector, "closed_form", faulted)
    result = check_oracle_equivalence(random.Random(3))
    assert not result.passed
    assert result.measured > 1e-3
    assert (result.measured == math.inf) == (fault == "omega scaled")


def mutant(module, old: str, new: str) -> types.ModuleType:
    """A copy of ``module`` built from its source with the one occurrence
    of ``old`` replaced by ``new``."""
    source = inspect.getsource(module)
    assert source.count(old) == 1, old
    copy = types.ModuleType(module.__name__)
    copy.__package__ = module.__package__
    exec(compile(source.replace(old, new), module.__file__, "exec"), vars(copy))
    return copy


# One source mutant per dense check: the module, the text replaced and its
# replacement, and the checks that fail under it, the guarded one first.
MUTANTS = {
    # Jacobi's cosine, 1 / sqrt(1 + t) for 1 / sqrt(1 + t^2): the rotations
    # are no longer orthogonal
    "jacobi-cosine": (validation, "c = 1.0 / math.sqrt(1.0 + t * t)",
                      "c = 1.0 / math.sqrt(1.0 + t)", CHECK_NAMES[:3] + ["sector-vs-dense"]),
    # the eigenbasis read by rows, not columns, on the way in: V D V psi is
    # unitary, but no group in t
    "propagate-transposed": (validation, "weight = vectors[k][j]", "weight = vectors[j][k]",
                             CHECK_NAMES[1:3] + ["sector-vs-dense"]),
    # the photon amplitude of the closed form with its sign flipped
    "closed-form-sign": (sector, "complex(0.0, -math.sin(angle))",
                         "complex(0.0, math.sin(angle))", ["closed-form-vs-numeric"]),
    # the half detuning of the pair's 2x2 with its sign flipped
    "evolve-half-detuning": (sector, "mean, half = 0.5 * detuning, -0.5 * detuning",
                             "mean, half = 0.5 * detuning, 0.5 * detuning",
                             ["sector-vs-dense"]),
    # mode i's detuning on mode N + 1 - i's diagonal: the propagating checks
    # hold for any symmetric matrix or draw one common detuning
    "arrowhead-detuning-index": (validation, "matrix[k][k] = 0.0 + detuning",
                                 "matrix[i][i] = 0.0 + detuning", ["hamiltonian-moments"]),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_dense_check_fails_on_a_mutant_of_its_route(name, monkeypatch):
    """Each mutant fails the check that guards its route, and the checks
    it reaches through that route, at every one of seeds 1-3; a mutant of
    ``sector`` replaces only the function it mutates."""
    module, old, new, failing = MUTANTS[name]
    copy = mutant(module, old, new)
    if module is validation:
        for function in ("build_arrowhead", "jacobi", "propagate"):
            monkeypatch.setattr(validation, function, getattr(copy, function))
    else:
        for function in ("closed_form", "evolve"):
            monkeypatch.setattr(sector, function, getattr(copy, function))
    for seed in (1, 2, 3):
        checks = run_validation(seed=seed)
        assert [c.name for c in checks if not c.passed] == failing, seed


def random_arrowhead(rng):
    n = int(rng.integers(1, 7))
    return (tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n)),
            tuple(float(d) for d in rng.uniform(-5.0, 5.0, size=n)))


def eigenspace_projectors(values, vectors, gap=1e-9):
    """(eigenvalue, projector) of each cluster of eigenvalues closer than
    ``gap``, ascending: the projectors do not depend on the eigenvectors'
    signs, order or basis within a multiple eigenvalue."""
    order = np.argsort(values)
    values, vectors = np.asarray(values)[order], np.asarray(vectors)[:, order]
    clusters, start = [], 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] - values[k - 1] > gap:
            block = vectors[:, start:k]
            clusters.append((values[start], block @ block.T))
            start = k
    return clusters


def assert_same_eigensystem(matrix):
    values, vectors = jacobi(matrix)
    expected_values, expected_vectors = np.linalg.eigh(np.array(matrix))
    assert np.sort(values) == pytest.approx(expected_values, abs=1e-13)
    ours = eigenspace_projectors(values, vectors)
    theirs = eigenspace_projectors(expected_values, expected_vectors)
    assert [len(p) for _, p in ours] == [len(p) for _, p in theirs]
    for (value, projector), (expected, expected_projector) in zip(ours, theirs):
        assert value == pytest.approx(expected, abs=1e-13)
        assert np.max(np.abs(projector - expected_projector)) <= 1e-13
    return values


@pytest.mark.parametrize("seed", range(20))
def test_jacobi_agrees_with_numpy_eigh_on_random_arrowheads(seed):
    couplings, detunings = random_arrowhead(np.random.default_rng(seed))
    assert_same_eigensystem(build_arrowhead(couplings, detunings))


@pytest.mark.parametrize("n", range(1, 7))
def test_jacobi_agrees_with_numpy_eigh_at_equal_couplings(n):
    """Equal couplings eps on resonance: the eigenvalues are -+ sqrt(N) eps
    and an N-fold 0, the N - 1 dark modes beside the decoupled |g;0>; the
    zero eigenspace's projector is the same as numpy's."""
    values = assert_same_eigensystem(build_arrowhead((0.7,) * n, (0.0,) * n))
    zeros = sorted(values)[1:-1]
    assert len(zeros) == n and max(map(abs, zeros)) <= 1e-15
    assert sorted(values)[-1] == pytest.approx(math.sqrt(n) * 0.7, abs=1e-14)


def test_jacobi_refuses_what_is_not_a_finite_symmetric_square():
    with pytest.raises(ValueError, match="square"):
        jacobi([[0.0, 1.0], [1.0]])
    with pytest.raises(ValueError, match="finite"):
        jacobi([[0.0, math.inf], [math.inf, 0.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        jacobi([[0.0, 1.0], [1.0 + 1e-9, 0.0]])


@pytest.mark.parametrize("seed", range(10))
def test_propagate_agrees_with_scipy_expm(seed):
    rng = np.random.default_rng(seed)
    couplings, detunings = random_arrowhead(rng)
    matrix = build_arrowhead(couplings, detunings)
    raw = rng.standard_normal(len(matrix)) + 1j * rng.standard_normal(len(matrix))
    psi = (raw / np.linalg.norm(raw)).tolist()
    t = float(rng.uniform(-5.0, 5.0))
    expected = scipy.linalg.expm(-1j * t * np.array(matrix)) @ np.array(psi)
    got = propagate(jacobi(matrix), psi, t)
    assert np.max(np.abs(np.array(got) - expected)) <= 1e-13


def test_propagate_refuses_a_time_or_angle_off_the_doubles():
    spectrum = jacobi(build_arrowhead((1.0,), (0.0,)))
    with pytest.raises(ValueError, match="finite"):
        propagate(spectrum, [0j, 0j, 1 + 0j], math.inf)
    with pytest.raises(sector.PropagationError, match="non-finite"):
        propagate(([1e300, 0.0, -1e300], spectrum[1]), [0j, 0j, 1 + 0j], 1e10)


@pytest.mark.parametrize("seed", range(10))
def test_arrowhead_is_the_dense_hamiltonian(seed):
    """The one builder of H writes, on random draws of one to six modes with
    unequal couplings and detunings, the matrix that the tests' per-state
    loop writes on the sector of ``build_basis``, bit for bit."""
    couplings, detunings = random_arrowhead(np.random.default_rng(seed))
    expected = reference_hamiltonian(build_basis(len(couplings)),
                                     couplings=couplings, detunings=detunings)
    got = np.array(build_arrowhead(couplings, detunings), dtype=complex)
    assert got.tobytes() == expected.tobytes()

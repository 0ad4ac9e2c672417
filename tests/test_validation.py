import math
import sys

import numpy as np
import pytest

from wcavity import dynamics, fock, normals, sector, validation
from wcavity.cli import main
from wcavity.dynamics import HermitianOperator
from wcavity.fock import build_basis, initial_state
from wcavity.validation import (
    _find_root,
    check_composition,
    check_oracle_equivalence,
    check_rabi_period,
    check_rng_stream,
    check_sector_route,
    check_unitarity,
    measure_rabi_period,
    run_validation,
)

from codes import exchange_pairs


def test_all_checks_pass_by_default():
    checks = run_validation()
    assert [c.name for c in checks] == [
        "propagator-unitarity", "propagator-composition", "closed-form-vs-numeric",
        "rabi-period", "sector-vs-dense", "rng-stream",
    ]
    assert all(c.passed for c in checks)


def test_deterministic_per_seed():
    a = run_validation(seed=7)
    b = run_validation(seed=7)
    assert [(c.name, c.measured) for c in a] == [(c.name, c.measured) for c in b]


def test_fault_injection_fails_only_the_sector_route():
    outcomes = {c.name: c.passed for c in run_validation(inject_fault=True)}
    assert outcomes["sector-vs-dense"] is False
    assert all(ok for name, ok in outcomes.items() if name != "sector-vs-dense")


@pytest.mark.parametrize("n,epsilon", [(1, 1.0), (3, 0.7), (5, 2.5)])
def test_rabi_period_measurement(n, epsilon):
    expected = 2.0 * math.pi / (math.sqrt(n) * epsilon)
    measured = measure_rabi_period(n, epsilon)
    assert abs(measured - expected) / expected <= 1e-9


def test_rabi_period_evolves_only_on_the_sector_route(eigh_calls, monkeypatch):
    """One ``sector.evolve`` call scans 121 times, then each refinement
    step evolves one time; no dense operator is diagonalized."""
    points = []
    real = sector.evolve
    monkeypatch.setattr(sector, "evolve",
                        lambda c, pts: points.append(list(pts)) or real(c, pts))
    measure_rabi_period(4, 1.3)
    assert eigh_calls == []
    assert len(points[0]) == 121 and all(len(p) == 1 for p in points[1:])
    assert all(detuning == 0.0 for p in points for _, detuning in p)


def test_validation_builds_only_the_sector(monkeypatch, eigh_calls):
    """Every basis that ``run_validation`` builds, one per operator inside
    ``build_hamiltonian``, and every operator it assembles and
    diagonalizes, is on the N + 2 state sector, N <= 6."""
    built, assembled = [], []
    real_basis, real_build = fock.build_basis, validation.build_hamiltonian

    def recording_basis(n_modes):
        basis = real_basis(n_modes)
        built.append((n_modes, basis.dim))
        return basis

    def recording_build(**params):
        H = real_build(**params)
        assembled.append((H.basis.n_modes, H.basis.dim))
        return H

    for module in [m for k, m in sys.modules.items() if k.startswith("wcavity.")]:
        if getattr(module, "build_basis", None) is real_basis:
            monkeypatch.setattr(module, "build_basis", recording_basis)
    monkeypatch.setattr(validation, "build_hamiltonian", recording_build)
    assert all(check.passed for check in run_validation())
    assert len(built) == len(assembled) == 50 + 50 + 100 + 24
    for n, dim in built + assembled:
        assert dim == n + 2 <= 8
    assert set(eigh_calls) <= {(dim, dim) for _, dim in assembled}


@pytest.mark.parametrize("seed", range(1, 21))
def test_every_seed_passes_and_a_fault_fails_only_the_sector_route(seed, monkeypatch):
    """At each seed the six checks run in their order on N + 2 state
    bases and pass, and ``inject_fault`` fails ``sector-vs-dense`` alone."""
    extra = []
    real_basis = dynamics.build_basis

    def recording_basis(n_modes):
        basis = real_basis(n_modes)
        extra.append(basis.dim - n_modes)
        return basis

    monkeypatch.setattr(dynamics, "build_basis", recording_basis)
    clean = run_validation(seed=seed)
    faulty = run_validation(seed=seed, inject_fault=True)
    assert [c.name for c in clean] == [c.name for c in faulty] == [
        "propagator-unitarity", "propagator-composition", "closed-form-vs-numeric",
        "rabi-period", "sector-vs-dense", "rng-stream",
    ]
    assert all(c.passed for c in clean)
    assert [c.name for c in faulty if not c.passed] == ["sector-vs-dense"]
    assert extra and set(extra) == {2}


def test_composition_diagonalizes_once_per_propagation(eigh_calls):
    """Three propagations a draw, t1 then t2 and t1 + t2, of 50 draws."""
    check_composition(np.random.default_rng(0))
    assert len(eigh_calls) == 150 and all(len(shape) == 2 for shape in eigh_calls)


def test_unitarity_check_and_the_propagator_both_refuse_a_drift(monkeypatch):
    """Eigenvectors scaled by 1 + 1e-11 make every evolved norm drift by
    about 2e-11, above ``ROUNDING_TOL``: the check reads the cached
    eigenvectors themselves and fails, and ``propagate_numeric`` raises
    rather than dividing the drift out."""
    assert check_unitarity(np.random.default_rng(3)).measured <= 1e-14
    real_eigh = np.linalg.eigh

    def scaled_eigh(matrix):
        vals, vecs = real_eigh(matrix)
        return vals, vecs * (1.0 + 1e-11)

    monkeypatch.setattr(np.linalg, "eigh", scaled_eigh)
    result = check_unitarity(np.random.default_rng(3))
    assert not result.passed
    assert 1e-11 < result.measured < 1e-10
    basis = build_basis(2)
    H = dynamics.build_hamiltonian(couplings=(1.0, 1.0), detunings=(0.0, 0.0))
    with pytest.raises(sector.PropagationError, match="norm drift"):
        dynamics.propagate_numeric(H, initial_state(basis), 0.7)


def test_unitarity_check_draws_only_the_parameters():
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    assert check_unitarity(rng).cases == 50
    for _ in range(50):
        validation._random_params(reference)
    assert rng.bit_generator.state == reference.bit_generator.state


def test_composition_check_fails_on_a_time_offset_in_the_propagator(monkeypatch):
    """A propagator that evolves every state 0.01 too far, a fixed delay,
    breaks U(t2) U(t1) = U(t1 + t2), which no single evolution shows."""
    real = dynamics.propagate_numeric
    monkeypatch.setattr(validation, "propagate_numeric", lambda H, psi, t: real(H, psi, t + 0.01))
    result = check_composition(np.random.default_rng(3))
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
    numpy's in one draw per key."""
    real = normals.standard_normals

    def flipped(key):
        for k, x in enumerate(real(key)):
            yield -x if k == 99 else x

    monkeypatch.setattr(normals, "standard_normals", flipped)
    result = check_rng_stream(np.random.default_rng(3))
    assert not result.passed
    assert result.measured == 8.0


def test_an_operator_the_oracle_refuses_fails_its_checks(monkeypatch, capsys):
    """A build whose exchange elements lose their Hermitian partner by a
    relative 1e-9 is refused by ``HermitianOperator``: every check that
    builds an operator reads FAIL with an infinite defect, and validate
    exits 1, a failed check, not 2, bad input.  ``rabi-period`` and
    ``rng-stream`` build none and pass."""
    real_build = validation.build_hamiltonian

    def skewed(**params):
        H = real_build(**params)
        matrix = np.array(H.matrix)
        ground, excited, _ = map(list, zip(*exchange_pairs(H.basis)))
        matrix[..., ground, excited] *= 1 + 1e-9
        return HermitianOperator(H.basis, matrix)

    monkeypatch.setattr(validation, "build_hamiltonian", skewed)
    assert main(["validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL propagator-unitarity: measured=inf ")
    assert [line.split(":")[0] for line in lines if line.startswith("PASS")] == [
        "PASS rabi-period", "PASS rng-stream"]
    assert lines[-1] == "summary: checks_run=6 passed=2 failed=4"


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
    """The fault is a sign error of the time that ``sector.evolve`` gets,
    which the dense route does not share."""
    times = []
    real = sector.evolve
    monkeypatch.setattr(sector, "evolve",
                        lambda c, points: times.extend(t for t, _ in points) or real(c, points))
    clean = check_sector_route(np.random.default_rng(3))
    forward = list(times)
    times.clear()
    faulty = check_sector_route(np.random.default_rng(3), inject_fault=True)
    assert clean.passed and not faulty.passed
    assert times == [-t for t in forward]


def _params_one_draw_at_a_time(check, rng):
    """The (couplings, detunings) of each draw, with every input taken from
    rng in the order in which the check has always drawn it."""
    params = []
    for _ in range(100 if check == "oracle" else 50 if check == "composition" else 24):
        if check == "composition":
            n = int(rng.integers(1, 5))
            detunings = tuple(float(d) for d in rng.uniform(-5.0, 5.0, size=n))
            params.append((tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n)), detunings))
            rng.standard_normal(n + 2), rng.standard_normal(n + 2)  # the state
            rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)  # t1, t2
            continue
        n = int(rng.integers(1, 7))
        if check == "oracle":
            eps = float(rng.uniform(0.1, 10.0))
            rng.uniform(0.0, 4.0 * math.pi / eps)  # the time
            params.append(((eps,) * n, (0.0,) * n))
        else:
            couplings = tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n))
            detuning = float(rng.uniform(-5.0, 5.0))
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
    real = validation.build_hamiltonian

    def recording(*, couplings, detunings):
        seen.append((couplings, detunings))
        return real(couplings=couplings, detunings=detunings)

    monkeypatch.setattr(validation, "build_hamiltonian", recording)
    rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
    result = run(rng)
    reference = _params_one_draw_at_a_time(check, reference_rng)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert seen == reference
    assert result.passed and result.cases == len(reference)


# The lines of the checks that survived the move from stacked to per-draw
# evaluation, as stacked evaluation printed them, and the rabi-period line
# of the sector-route measurement; at seed 123, the closed-form-vs-numeric
# and sector-vs-dense lines as sector's fsum norm rounds them.  The two
# propagator checks, which moved from the qubit space to the sector, and
# seed 7 and --inject-fault are pinned in tests/data/corpus.json.
STACKED_LINES = {
    "default": [
        "PASS closed-form-vs-numeric: measured=6.943e-15 tolerance=1e-12 cases=100",
        "PASS rabi-period: measured=2.448e-16 tolerance=1e-12 cases=6",
        "PASS sector-vs-dense: measured=6.492e-15 tolerance=1e-12 cases=24",
        "PASS rng-stream: measured=0.000e+00 tolerance=0 cases=2048",
    ],
    "123": [
        "PASS closed-form-vs-numeric: measured=5.276e-15 tolerance=1e-12 cases=100",
        "PASS rabi-period: measured=2.448e-16 tolerance=1e-12 cases=6",
        "PASS sector-vs-dense: measured=2.982e-15 tolerance=1e-12 cases=24",
        "PASS rng-stream: measured=0.000e+00 tolerance=0 cases=2048",
    ],
}


@pytest.mark.parametrize("seed", sorted(STACKED_LINES))
def test_validate_prints_what_stacked_evaluation_printed(seed, capsys):
    args = ["validate"] if seed == "default" else ["validate", "--seed", seed]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:6] == STACKED_LINES[seed]


def test_sector_check_passes_on_the_sector_route():
    result = check_sector_route(np.random.default_rng(3))
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
    result = check_sector_route(np.random.default_rng(3))
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

    assert check_oracle_equivalence(np.random.default_rng(3)).passed
    monkeypatch.setattr(sector, "closed_form", faulted)
    result = check_oracle_equivalence(np.random.default_rng(3))
    assert not result.passed
    assert result.measured > 1e-3
    assert (result.measured == math.inf) == (fault == "omega scaled")

import math
from collections import Counter

import numpy as np
import pytest

from wcavity import sector, validation
from wcavity.dynamics import HermitianOperator, ModelParams
from wcavity.fock import AtomLevel, BasisState, vacuum_occupations
from wcavity.validation import (
    _refine_roots,
    check_composition,
    check_excitation_conservation,
    check_oracle_equivalence,
    check_sector_route,
    measure_rabi_period,
    run_validation,
)


def test_all_checks_pass_by_default():
    report = run_validation()
    assert report.all_passed
    assert report.checks_run == 8
    assert report.passed == 8
    assert report.failed == 0


def test_deterministic_per_seed():
    a = run_validation(seed=7)
    b = run_validation(seed=7)
    assert [(c.name, c.measured) for c in a.checks] == [
        (c.name, c.measured) for c in b.checks
    ]


def test_fault_injection_fails_only_the_sector_route():
    report = run_validation(inject_fault=True)
    outcomes = {c.name: c.passed for c in report.checks}
    assert outcomes["sector-vs-dense"] is False
    assert all(ok for name, ok in outcomes.items() if name != "sector-vs-dense")
    assert report.failed == 1


@pytest.mark.parametrize("n,epsilon", [(1, 1.0), (3, 0.7), (5, 2.5)])
def test_rabi_period_measurement(n, epsilon):
    expected = 2.0 * math.pi / (math.sqrt(n) * epsilon)
    measured = measure_rabi_period(n, epsilon)
    assert abs(measured - expected) / expected <= 1e-9


def test_rabi_period_diagonalizes_once(eigh_calls):
    measure_rabi_period(4, 1.3)
    assert eigh_calls == [(6, 6)]


def test_composition_diagonalizes_once_per_draw(eigh_calls):
    check_composition(np.random.default_rng(0))
    # one eigh call per stack; each stack diagonalizes one matrix per draw
    assert sum(math.prod(shape[:-2]) for shape in eigh_calls) == 50


def test_stacks_hold_at_most_stack_bytes_of_matrices(eigh_calls):
    check_composition(np.random.default_rng(0))
    assert all(math.prod(shape) * 16 <= validation.STACK_BYTES for shape in eigh_calls)
    assert any(shape[0] > 1 for shape in eigh_calls)  # and draws are stacked


def test_conservation_check_sees_an_excitation_changing_element(monkeypatch):
    real_build = validation.build_hamiltonian

    def leaky(params, basis):
        # couple |g; 0...0> to |e; 0...0>, whose excitation numbers differ by 1
        matrix = np.array(real_build(params, basis).matrix)
        vacuum = vacuum_occupations(basis.n_modes)
        g0 = basis.index[BasisState(AtomLevel.GROUND, vacuum)]
        e0 = basis.index[BasisState(AtomLevel.EXCITED, vacuum)]
        matrix[g0, e0] = matrix[e0, g0] = 0.25
        return HermitianOperator(basis, matrix)

    monkeypatch.setattr(validation, "build_hamiltonian", leaky)
    result = check_excitation_conservation(np.random.default_rng(1), draws=3)
    assert not result.passed
    assert result.measured == 0.25


def test_refine_roots_takes_exact_zeros_and_stops_between_adjacent_floats():
    def line(xs):
        return np.asarray(xs) - 0.5

    # 0.5 is an interior node of the first bracket and the left end of the second
    assert _refine_roots(line, [(0.0, 1.0, -0.5), (0.5, 0.75, 0.0)]) == [0.5, 0.5]

    after_one = float(np.nextafter(1.0, 2.0))

    def step(xs):
        return np.where(np.asarray(xs) <= 1.0, -1.0, 1.0)

    # no tolerance: only running out of floats inside the bracket ends it
    assert _refine_roots(step, [(0.0, 2.0, -1.0)], xtol=0.0)[0] in (1.0, after_one)


def test_hermiticity_check_reads_the_stored_defect(monkeypatch):
    defects = []
    real = validation.build_hamiltonian

    def recording(params, basis):
        H = real(params, basis)
        defects.append(H.defect)
        return H

    monkeypatch.setattr(validation, "build_hamiltonian", recording)
    result = validation.check_hermiticity(np.random.default_rng(3))
    assert result.passed and result.measured == max(defects) and len(defects) == 50


def test_injected_fault_runs_the_sector_route_backwards(monkeypatch):
    """The fault is a sign error of the time that ``sector.evolve`` gets,
    which the dense route does not share."""
    times = []
    real = sector.evolve
    monkeypatch.setattr(sector, "evolve", lambda c, ts, d: times.extend(ts) or real(c, ts, d))
    clean = check_sector_route(np.random.default_rng(3))
    forward = list(times)
    times.clear()
    faulty = check_sector_route(np.random.default_rng(3), inject_fault=True)
    assert clean.passed and not faulty.passed
    assert times == [-t for t in forward]


def _params_one_draw_at_a_time(check, rng):
    """The ModelParams of each draw, with every input taken from rng as the
    per-draw checks took it before the draws were stacked."""
    params = []
    for _ in range(100 if check == "oracle" else 50):
        if check == "oracle":
            n = int(rng.integers(1, 7))
            eps = float(rng.uniform(0.1, 10.0))
            rng.uniform(0.0, 4.0 * math.pi / eps)  # the time
            params.append(ModelParams.resonant(n, eps))
            continue
        params.append(validation._random_params(rng))
        dim = validation.build_basis(params[-1].n_modes, n_max=1).dim
        rng.standard_normal(dim), rng.standard_normal(dim)  # the state
        if check == "unitarity":
            rng.uniform(-20.0, 20.0)
        else:
            rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
    return params


@pytest.mark.parametrize("check, run", [
    ("unitarity", validation.check_unitarity),
    ("composition", validation.check_composition),
    ("oracle", validation.check_oracle_equivalence),
])
def test_stacked_checks_take_the_per_draw_inputs(check, run, monkeypatch):
    seen = []
    real = validation.build_hamiltonian

    def recording(params, basis):
        seen.extend(params)
        return real(params, basis)

    monkeypatch.setattr(validation, "build_hamiltonian", recording)
    stacked_rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
    result = run(stacked_rng)
    reference = _params_one_draw_at_a_time(check, reference_rng)
    assert stacked_rng.bit_generator.state == reference_rng.bit_generator.state
    assert Counter(seen) == Counter(reference)
    assert result.passed and result.cases == len(reference)


def test_sector_check_passes_on_the_sector_route():
    result = check_sector_route(np.random.default_rng(3))
    assert result.passed and result.cases == 24
    assert result.measured <= 1e-13


@pytest.mark.parametrize("fault", ["conjugated state", "photon sign"])
def test_sector_check_fails_on_a_faulted_sector_evolve(fault, monkeypatch):
    """``sector-vs-dense`` runs ``sector.evolve``, the route of ``simulate``
    and three sweeps.  A conjugated state (the evolution run backwards)
    and a flipped sign on the photon amplitudes are wrong states; the
    check fails on both, without raising."""
    real = sector.evolve

    def faulted(couplings, times, detuning=0.0):
        states = real(couplings, times, detuning)
        if fault == "conjugated state":
            return [[a.conjugate() for a in amps] for amps in states]
        return [[-a for a in amps[:-1]] + amps[-1:] for amps in states]

    monkeypatch.setattr(sector, "evolve", faulted)
    result = check_sector_route(np.random.default_rng(3))
    assert not result.passed
    assert result.measured > 1e-3


@pytest.mark.parametrize("fault", ["photon sign", "omega scaled"])
def test_closed_form_check_fails_on_a_faulted_sector_closed_form(fault, monkeypatch):
    """``closed-form-vs-numeric`` runs ``sector.closed_form``, the closed
    form of ``simulate`` and the disorder sweep.  A flipped sign on the
    photon amplitudes gives a wrong state, and an Omega scaled by 1 + 1e-6
    fails the closed form's own norm check; the check fails on both,
    without raising."""
    real = sector.closed_form

    def faulted(couplings, t, omega=None):
        if fault == "photon sign":
            amps = real(couplings, t)
            return [-a for a in amps[:-1]] + amps[-1:]
        return real(couplings, t, math.hypot(*couplings) * (1.0 + 1e-6))

    assert check_oracle_equivalence(np.random.default_rng(3)).passed
    monkeypatch.setattr(sector, "closed_form", faulted)
    result = check_oracle_equivalence(np.random.default_rng(3))
    assert not result.passed
    assert result.measured > 1e-3

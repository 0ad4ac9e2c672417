"""The standard-library sector route against the numpy routes: the
evolution against the dense sector propagator and scipy's ``expm``, the
pair reductions and X-state concurrences against ``partial_trace`` and
``concurrence``."""

import itertools
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcavity import sector
from wcavity.dynamics import (
    ModelParams,
    PropagationError,
    build_hamiltonian,
    propagate_numeric,
)
from wcavity.entanglement import (
    concurrence,
    fidelity,
    ghz_state,
    partial_trace,
    support_basis,
    w_state,
)
from wcavity.fock import AtomLevel, BasisState, StateVector, build_basis, initial_state

from numpy_route import closed_form_rows


def dense_operator(couplings, detuning):
    """The interaction-frame Hamiltonian on the N + 2 sector, atom at 0 and
    every mode at ``detuning``."""
    n = len(couplings)
    params = ModelParams(n, (detuning,) * n, tuple(couplings))
    return build_hamiltonian(params, build_basis(n, excitation_cap=1))


def test_sector_order_is_that_of_the_capped_basis_and_the_support():
    for n in (1, 2, 5):
        states = build_basis(n, excitation_cap=1).states
        assert len(states) == n + 2
        assert states[0] == BasisState(AtomLevel.GROUND, (0,) * n)
        assert states[n + 1] == BasisState(AtomLevel.EXCITED, (0,) * n)
        for j in range(1, n + 1):
            mode = n + 1 - j  # 1-based
            assert states[j].occupations == tuple(int(i == mode - 1) for i in range(n))
        if n >= 2:
            support = support_basis(n).states
            assert support[:n + 1] == states[:n + 1]
            assert support[n + 1] == BasisState(AtomLevel.GROUND, (1,) * n)


couplings_st = st.integers(1, 13).flatmap(
    lambda n: st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)
)


@settings(max_examples=60, deadline=None)
@given(couplings=couplings_st, detuning=st.floats(-5.0, 5.0),
       times=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
def test_evolution_matches_dense_propagator_and_expm(couplings, detuning, times):
    """Every time of one call against the dense sector propagator and
    ``expm``; the one-time call is the one-item case."""
    states = list(sector.evolve(couplings, [(t, detuning) for t in times]))
    H = dense_operator(couplings, detuning)
    psi0 = initial_state(H.basis)
    dense = [propagate_numeric(H, psi0, t).amplitudes for t in times]
    assert len(states) == len(times)
    for amps, row, t in zip(states, dense, times):
        ref = scipy.linalg.expm(-1j * H.matrix * t) @ psi0.amplitudes
        np.testing.assert_allclose(amps, row, atol=1e-12, rtol=0)
        np.testing.assert_allclose(amps, ref, atol=1e-12, rtol=0)
        assert list(sector.evolve(couplings, ((t, detuning),))) == [amps]


@settings(max_examples=60, deadline=None)
@given(couplings=couplings_st, points=st.lists(
    st.tuples(st.floats(-10.0, 10.0), st.just(0.0) | st.floats(-5.0, 5.0)), min_size=1, max_size=6))
def test_one_call_evolves_each_point_as_a_call_of_its_own(couplings, points):
    """Mixed (t, detuning) points, from an iterator as the sweeps pass
    them, give the states of one call per point bit for bit (signed zeros
    too): the detuning sweep's bytes rest on this."""
    alone = [state for point in points for state in sector.evolve(couplings, [point])]
    assert repr(list(sector.evolve(couplings, iter(points)))) == repr(alone)


def test_evolve_yields_each_state_when_it_is_taken():
    """An endless stream of points gives its first states, and a bad point
    raises only when its state is taken."""
    points = itertools.chain([(0.3, 0.0)], itertools.repeat((math.nan, 0.0)))
    states = sector.evolve((1.0, 0.5), points)
    assert next(states) == next(sector.evolve((1.0, 0.5), ((0.3, 0.0),)))
    with pytest.raises(ValueError, match="evolution time must be finite"):
        next(states)


def test_closed_form_takes_omega_as_the_norm_of_the_couplings():
    """The default Omega is ``_norm`` of the couplings, the square root of
    their ``math.fsum`` sum of squares: equal and unequal couplings, N up
    to ``MAX_MODES``."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, sector.MAX_MODES + 1))
        draws = rng.uniform(0.1, 3.0, size=n) if rng.integers(2) else [rng.uniform(0.1, 3.0)] * n
        couplings = [float(c) for c in draws]
        t = float(rng.uniform(-10.0, 10.0))
        omega = sector._norm(couplings)
        assert omega == math.sqrt(math.fsum(c * c for c in couplings))
        assert repr(sector.closed_form(couplings, t)) == repr(
            sector.closed_form(couplings, t, omega))


@pytest.mark.parametrize("epsilon", [5.05e-309, 1e-170, 1e160, 5.18e307])
def test_norm_scales_by_a_power_of_two_bit_for_bit(epsilon):
    """Couplings scaled by 2^k, near each end of the admitted epsilon and
    where their squares leave the normal doubles, have ``_norm`` times 2^k
    as their norm, bit for bit: the power of two that ``_norm`` scales by
    where the sum of squares overflows or nears the subnormals is exact,
    and one rounding of the same real number is taken either way."""
    k = math.frexp(epsilon)[1] - 1
    rng = np.random.default_rng(28)
    for n in (1, 2, 3, 13, sector.MAX_MODES):
        # 40 significant bits, so that 2^k times each is exact at the
        # subnormal end too
        couplings = [math.ldexp(float(m), -39) for m in rng.integers(2**39, 2**40, size=n)]
        scaled = [c * 2.0**k for c in couplings]
        assert scaled == [math.ldexp(c, k) for c in couplings]
        assert repr(sector._norm(scaled)) == repr(sector._norm(couplings) * 2.0**k)


@settings(max_examples=40, deadline=None)
@given(couplings=couplings_st, t=st.floats(-10.0, 10.0))
# the default Omega is 2 ulps from numpy's here, and the angle Omega t
# 2 |Omega t| 2^-52 apart: the amplitudes by 1.52e-14
@example(couplings=[2.348, 2.814, 2.519, 2.048, 2.814, 1.31, 0.38, 0.406, 2.977, 0.802, 0.788,
                    0.482], t=10.0)
# |Omega t| = 0.08: cos(Omega t) rounds to the next double below 1, 2^-53 apart
@example(couplings=[0.49238269594934003, 0.7887660150954287, 0.7381126323108442,
                    1.1995158180436216], t=-0.0446252711760419)
def test_closed_form_matches_the_numpy_closed_form_and_the_route(couplings, t):
    numpy_closed = closed_form_rows([couplings], t)[0]
    # numpy's Omega, the square root of its sum of squares: the same angle
    omega = float(np.sqrt(np.sum(np.square([couplings]), axis=1))[0])
    np.testing.assert_allclose(sector.closed_form(couplings, t, omega), numpy_closed,
                               atol=1e-14, rtol=0)
    # the default Omega, whose sum of squares ``math.fsum`` rounds once, may
    # round a few ulps from numpy's pairwise sum: each amplitude moves by a
    # few |Omega t| 2^-52, and by one rounding of its own
    closed = sector.closed_form(couplings, t)
    np.testing.assert_allclose(closed, numpy_closed, atol=(4 * abs(omega * t) + 1) * 2**-52,
                               rtol=0)
    (evolved,) = sector.evolve(couplings, ((t, 0.0),))
    np.testing.assert_allclose(closed, evolved, atol=1e-13, rtol=0)


def test_resonant_transfer_reaches_w_at_optimal_time():
    """F(t*) = 1 with the atom in its ground state, whatever the coupling
    scale, and t* falls with N."""
    counts = (1, 2, 3, 5, 8, 9)
    for eps in (0.5, 1.0, 1.3, 2.0):
        t_stars = [sector.optimal_time(n, eps) for n in counts]
        assert all(a > b for a, b in itertools.pairwise(t_stars))
        for n, t in zip(counts, t_stars):
            (amps,) = sector.evolve((eps,) * n, ((t, 0.0),))
            assert sector.w_fidelity(amps) == pytest.approx(1.0, abs=1e-14)
            assert abs(amps[n + 1]) <= 1e-15
            assert sum(abs(a) ** 2 for a in amps[:n + 1]) == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(couplings=couplings_st, t=st.floats(-10.0, 10.0))
def test_w_fidelity_matches_numpy_fidelity(couplings, t):
    n = len(couplings)
    (amps,) = sector.evolve(couplings, ((t, 0.0),))
    basis = build_basis(n, excitation_cap=1)
    want = fidelity(w_state(n, basis), StateVector(basis, amps))
    assert sector.w_fidelity(amps) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("detuning", [0.0, -1.7, 7.3])
def test_w_fidelity_is_the_fsum_overlap_at_the_largest_admitted_n(detuning):
    """At N = ``sector.MAX_MODES``, at t* and at later times, ``w_fidelity``
    is the squared modulus of an overlap whose real and imaginary parts
    ``math.fsum`` sums, bit for bit, whatever the interpreter's ``sum``."""
    n, eps = sector.MAX_MODES, 0.3
    t_star = sector.optimal_time(n, eps)
    weight = 1.0 / math.sqrt(n)
    points = [(k * t_star, detuning * eps) for k in (1.0, 1.37, 2.9)]
    for amps in sector.evolve((eps,) * n, points):
        terms = [weight * a for a in amps[1:n + 1]]
        exact = abs(complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)))
        assert repr(sector.w_fidelity(amps)) == repr(min(exact ** 2, 1.0))


def two_level_excited_population(omega, detuning, t):
    """P_e = 1 - (Omega / g)^2 sin^2(g t), g = sqrt(Omega^2 + detuning^2 / 4):
    the atom's population under the Morris-Shore 2x2 matrix."""
    g = math.hypot(omega, 0.5 * detuning)
    return 1.0 - (omega / g) ** 2 * math.sin(g * t) ** 2


def test_common_detuning_keeps_the_bright_mode_shape():
    """Under one common detuning every photon amplitude stays eps_i / Omega
    times one factor, and the atom follows the two-level law."""
    couplings, detuning, t = (1.0, 2.0, 2.0), 0.4, 0.7
    (amps,) = sector.evolve(couplings, ((t, detuning),))
    assert amps[0] == 0
    photon = math.sqrt(1.0 - abs(amps[4]) ** 2)
    np.testing.assert_allclose(np.abs(amps[1:4]), [photon * 2 / 3, photon * 2 / 3, photon / 3],
                               atol=1e-15, rtol=0)
    assert np.ptp(np.angle(amps[1:4])) <= 1e-15
    assert abs(amps[4]) ** 2 == pytest.approx(two_level_excited_population(3.0, detuning, t),
                                              abs=1e-15)


@pytest.mark.parametrize("n, detuning", [(65536, -1.7 * 0.3), (82426, 0.0)])
def test_evolution_at_large_n_follows_the_two_level_law(n, detuning):
    """At N = 65536 with a detuning of -1.7 epsilon and at N = 82426 on
    resonance, far above ``sector.MAX_MODES``, the atom's population at t*
    and at a later time is the two-level P_e, and every mode holds an
    equal share of the rest."""
    eps = 0.3
    omega = eps * math.sqrt(n)
    t_star = sector.optimal_time(n, eps)
    times = (t_star, 3.7 * t_star)
    for (amps, t) in zip(sector.evolve((eps,) * n, [(t, detuning) for t in times]), times):
        p_excited = two_level_excited_population(omega, detuning, t)
        assert abs(amps[n + 1]) ** 2 == pytest.approx(p_excited, abs=1e-12)
        assert abs(amps[1]) ** 2 == pytest.approx((1.0 - p_excited) / n, abs=1e-15)
        assert abs(amps[n]) == abs(amps[1])


@pytest.mark.parametrize("couplings, t, error, match", [
    ((), 1.0, ValueError, "n_modes"),
    ((1.0, 0.0), 1.0, ValueError, "strictly positive"),
    ((1.0, math.inf), 1.0, ValueError, "finite"),
    ((1.0, 1.0), math.nan, ValueError, "evolution time must be finite"),
    ((1e200, 1e200), 1e200, PropagationError, "non-finite"),
])
def test_evolve_refuses_bad_input(couplings, t, error, match):
    with pytest.raises(error, match=match):
        list(sector.evolve(couplings, ((0.5, 0.0), (t, 0.0))))


def test_a_coupling_norm_that_overflows_is_a_numerical_failure():
    """Finite couplings whose Omega leaves the doubles raise
    PropagationError, not a wrong state."""
    with pytest.raises(PropagationError, match="coupling norm inf is not finite"):
        list(sector.evolve((1.5e308,) * 2, ((0.9, 0.0),)))


@pytest.mark.parametrize("n, detuning", [(3, 0.0), (5, 1e300)])
def test_require_angles_refuses_exactly_the_times_evolve_cannot_turn(n, detuning):
    """At the last double t at which ``evolve`` of n unit couplings turns
    without overflow, the angle rule admits t and refuses the next double,
    at which ``evolve`` raises."""
    couplings = (1.0,) * n

    def turns(t):
        try:
            list(sector.evolve(couplings, ((t, detuning),)))
        except PropagationError:
            return False
        return True

    t = sys.float_info.max / math.hypot(0.5 * detuning, math.sqrt(n))
    while turns(t):
        t = math.nextafter(t, math.inf)
    while not turns(t):
        t = math.nextafter(t, 0.0)
    sector.require_angles(n, 1.0, [(t, (t, detuning))], "--time")
    beyond = math.nextafter(t, math.inf)
    with pytest.raises(ValueError, match=r"^--time .* is too large for --epsilon 1\.0: the angle"):
        sector.require_angles(n, 1.0, [(beyond, (beyond, detuning))], "--time")


def test_norm_drift_raises_and_small_drift_is_renormalized():
    (state,) = sector.evolve((1.0, 0.5), ((0.3, 0.0),))
    with pytest.raises(PropagationError, match="norm drift"):
        sector._renormalized([a * (1.0 + 1e-9) for a in state])
    with pytest.raises(PropagationError, match="non-finite"):
        sector._renormalized([*state[:-1], complex(math.nan, 0.0)])
    renormalized = sector._renormalized([a * (1.0 + 1e-11) for a in state])
    np.testing.assert_allclose(renormalized, state, atol=1e-15, rtol=0)


@pytest.mark.parametrize("bad,message", [
    (0.0, "positive"), (-1.0, "positive"), (math.inf, "finite"), (math.nan, "finite"),
])
def test_closed_form_rejects_any_bad_coupling(bad, message):
    with pytest.raises(ValueError, match=message):
        sector.closed_form((1.0, bad, 1.0), 0.5)


def test_closed_form_checks_finite_unit_norm(monkeypatch):
    with pytest.raises(ValueError, match="finite"):
        sector.closed_form((1e200, 1e200), 1e200)
    monkeypatch.setattr(sector, "_norm", lambda amps: 1.0 + 1e-11)
    with pytest.raises(ValueError, match="deviates from 1"):
        sector.closed_form((1.0, 1.0), 0.3)


def numpy_pair_concurrences(amps):
    n = len(amps) - 2
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    psi = StateVector(support_basis(n), amps)
    rhos = [partial_trace(psi, pair) for pair in pairs]
    return pairs, [rho.matrix for rho in rhos], [concurrence(rho) for rho in rhos]


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("state", ["W", "GHZ"])
def test_x_concurrence_equals_numpy_concurrence(n, state):
    support = sector.w_support(n) if state == "W" else sector.ghz_support(n)
    basis = support_basis(n)
    target = w_state(n, basis) if state == "W" else ghz_state(n, basis)
    np.testing.assert_array_equal(support, target.amplitudes)
    pairs, matrices, expected = numpy_pair_concurrences(support)
    reductions = dict(sector.pair_reductions(support))
    got = sector.pairwise_concurrences(support)
    assert list(got) == pairs == list(reductions)
    for pair, matrix, want in zip(pairs, matrices, expected):
        np.testing.assert_allclose(reductions[pair], matrix, atol=1e-15, rtol=0)
        assert got[pair] == pytest.approx(want, abs=1e-12)
        assert got[pair] == pytest.approx(2 / n if state == "W" else float(n == 2), abs=1e-12)


def test_three_modes_trace_all_ones_with_the_photon_of_the_third_mode():
    """At N = 3 the environment of |1,1,1> for pair (i, j) is one photon in
    the third mode, as for |1_k>: the two are coherent in the reduction."""
    amps = [0.0, 0.6, 0.0, 0.0, 0.8]  # 0.6 |g;0,0,1> + 0.8 |g;1,1,1>
    reductions = dict(sector.pair_reductions(amps))
    pairs, matrices, expected = numpy_pair_concurrences(amps)
    assert reductions[1, 2][0][3] == pytest.approx(0.48)
    for pair, matrix, want in zip(pairs, matrices, expected):
        np.testing.assert_allclose(reductions[pair], matrix, atol=1e-15, rtol=0)
        assert sector.x_concurrence(reductions[pair]) == pytest.approx(want, abs=1e-12)
    assert sector.x_concurrence(reductions[1, 2]) == pytest.approx(0.96, abs=1e-12)


# zero, or of modulus at least 0.05: numpy's concurrence floors eigenvalues
# below 1e-13 of the largest, which moves it by about twice the smallest
# amplitude of a nearly pure product reduction
amplitude_st = st.just(0j) | st.builds(
    lambda r, phase: r * complex(math.cos(phase), math.sin(phase)),
    st.floats(0.05, 1.0), st.floats(0.0, 2 * math.pi),
)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), data=st.data())
def test_x_shaped_support_states_match_numpy(n, data):
    """Support states without vacuum (N >= 3) or without single photons
    reduce to X states; their concurrences equal the numpy ones."""
    parts = data.draw(st.lists(amplitude_st, min_size=n + 2, max_size=n + 2))
    if n == 2 or data.draw(st.booleans()):
        parts[1:n + 1] = [0.0] * n
    else:
        parts[0] = 0.0
    norm = math.sqrt(sum(abs(a) ** 2 for a in parts))
    if norm == 0.0:
        parts, norm = [1.0] + [0.0] * (n + 1), 1.0
    amps = [a / norm for a in parts]
    pairs, _, expected = numpy_pair_concurrences(amps)
    got = sector.pairwise_concurrences(amps)
    for pair, want in zip(pairs, expected):
        assert got[pair] == pytest.approx(want, abs=1e-12)


def test_an_empty_environment_leaves_rho_00_exactly_zero():
    """2/3 |1_2> + 1/3 |1_1> + 2/3 |1,1,1>: the pair (1, 2) leaves no
    |00> weight, and its concurrence is 2 |rho_12| = 4/9 to rounding."""
    reductions = dict(sector.pair_reductions([0.0, 0.0, 2 / 3, 1 / 3, 2 / 3]))
    assert reductions[1, 2][0][0] == 0.0
    assert sector.x_concurrence(reductions[1, 2]) == pytest.approx(4 / 9, abs=1e-15)


def test_a_reduction_that_is_not_x_shaped_is_refused():
    """W plus vacuum: <00|rho|01> = a_vac a_j is far from 0."""
    n = 4
    amps = [math.sqrt(0.5)] + [math.sqrt(0.5 / n)] * n + [0.0]
    with pytest.raises(ValueError, match="not an X state"):
        sector.pairwise_concurrences(amps)

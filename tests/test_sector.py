"""The standard-library sector route against the numpy routes: the
evolution against the dense sector propagator and scipy's ``expm``, the
pairwise concurrences against ``concurrence`` of ``partial_trace``."""

import itertools
import math
import re
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wcavity import sector
from wcavity.dynamics import (
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
from wcavity.fock import StateVector, build_basis, initial_state

from numpy_route import closed_form_rows


def dense_operator(couplings, detuning):
    """The interaction-frame Hamiltonian on the N + 2 sector, atom at 0 and
    every mode at ``detuning``."""
    return build_hamiltonian(couplings=couplings, detunings=(detuning,) * len(couplings))


@pytest.mark.parametrize("n", range(1, 8))
def test_sector_index_is_the_code_of_the_capped_basis_and_the_support(n):
    """Sector index 0 is code 0 (|g;0>), index j is code 2^(j - 1), |g; one
    photon in mode N + 1 - j>, and index N + 1 is code 2^N (|e;0>); the
    support has |g;1...1>, code 2^N - 1, at index N + 1."""
    codes = build_basis(n).codes
    assert codes == (0, *(2 ** (j - 1) for j in range(1, n + 1)), 2**n)
    if n >= 2:
        assert support_basis(n).codes == (*codes[:n + 1], 2**n - 1)


couplings_st = st.integers(1, 13).flatmap(
    lambda n: st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n)
)


@settings(max_examples=60, deadline=None)
@given(couplings=couplings_st, detuning=st.floats(-5.0, 5.0),
       times=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4))
def test_evolution_matches_dense_propagator_and_expm(couplings, detuning, times):
    """Every time of one call against the dense sector propagator and
    ``expm``; the one-time call is the one-item case."""
    mode = sector.bright_mode(couplings)
    states = list(sector.evolve(mode, [(t, detuning) for t in times]))
    H = dense_operator(couplings, detuning)
    psi0 = initial_state(H.basis)
    dense = [propagate_numeric(H, psi0, t).amplitudes for t in times]
    assert len(states) == len(times)
    for pair, row, t in zip(states, dense, times):
        amps = sector.amplitudes(mode, pair)
        ref = scipy.linalg.expm(-1j * H.matrix * t) @ psi0.amplitudes
        np.testing.assert_allclose(amps, row, atol=1e-12, rtol=0)
        np.testing.assert_allclose(amps, ref, atol=1e-12, rtol=0)
        assert list(sector.evolve(mode, ((t, detuning),))) == [pair]


@settings(max_examples=60, deadline=None)
@given(couplings=couplings_st, points=st.lists(
    st.tuples(st.floats(-10.0, 10.0), st.just(0.0) | st.floats(-5.0, 5.0)), min_size=1, max_size=6))
def test_one_call_evolves_each_point_as_a_call_of_its_own(couplings, points):
    """Mixed (t, detuning) points, from an iterator as the sweeps pass
    them, give the states of one call per point bit for bit (signed zeros
    too): the detuning sweep's bytes rest on this."""
    mode = sector.bright_mode(couplings)
    alone = [state for point in points for state in sector.evolve(mode, [point])]
    assert repr(list(sector.evolve(mode, iter(points)))) == repr(alone)


def test_evolve_yields_each_state_when_it_is_taken():
    """An endless stream of points gives its first states, and a bad point
    raises only when its state is taken."""
    points = itertools.chain([(0.3, 0.0)], itertools.repeat((math.nan, 0.0)))
    mode = sector.bright_mode((1.0, 0.5))
    states = sector.evolve(mode, points)
    assert next(states) == next(sector.evolve(mode, ((0.3, 0.0),)))
    with pytest.raises(ValueError, match="evolution time must be finite"):
        next(states)


def test_closed_form_takes_omega_as_the_norm_of_the_couplings():
    """The Omega of ``bright_mode`` is ``_norm`` of the couplings, the
    square root of their ``math.fsum`` sum of squares, and the pair and
    the amplitudes it stands for are those of the formula at that Omega,
    bit for bit: equal and unequal couplings, N up to ``MAX_MODES``."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, sector.MAX_MODES + 1))
        draws = rng.uniform(0.1, 3.0, size=n) if rng.integers(2) else [rng.uniform(0.1, 3.0)] * n
        couplings = [float(c) for c in draws]
        t = float(rng.uniform(-10.0, 10.0))
        mode = sector.bright_mode(couplings)
        omega = mode.omega
        assert omega == sector._norm(couplings) == math.sqrt(math.fsum(c * c for c in couplings))
        s = math.sin(omega * t)
        formula = [0j, *(complex(0.0, -(c / omega) * s) for c in reversed(couplings)),
                   complex(math.cos(omega * t), 0.0)]
        pair = sector.closed_form(mode, t)
        assert repr(pair) == repr((formula[-1], complex(0.0, -s)))
        assert repr(sector.amplitudes(mode, pair)) == repr(formula)


@pytest.mark.parametrize("epsilon", [5.05e-309, 1e-170, 1e154, 1e160, 5.18e307])
def test_norm_scales_by_a_power_of_two_bit_for_bit(epsilon):
    """Couplings scaled by 2^k, near each end of the admitted epsilon, where
    their squares leave the normal doubles, and where the squares are
    finite but their sum overflows, have ``_norm`` times 2^k
    as their norm, bit for bit: the power of two that ``_norm`` scales by
    where the sum of squares overflows or nears the subnormals is exact,
    and one rounding of the same real number is taken either way.  Real
    parts, and the .real and .imag of complex values, give the norm of
    the former formula, which squared both parts of every input as
    complex, bit for bit in both branches."""
    k = math.frexp(epsilon)[1] - 1
    rng = np.random.default_rng(28)
    for n in (1, 2, 3, 13, sector.MAX_MODES):
        # 40 significant bits, so that 2^k times each is exact at the
        # subnormal end too
        couplings = [math.ldexp(float(m), -39) for m in rng.integers(2**39, 2**40, size=n)]
        scaled = [c * 2.0**k for c in couplings]
        assert scaled == [math.ldexp(c, k) for c in couplings]
        assert repr(sector._norm(scaled)) == repr(sector._norm(couplings) * 2.0**k)
        assert repr(sector._norm(scaled)) == repr(complex_parts_norm(scaled))
        amps = [complex(a, -b) for a, b in zip(scaled, reversed(scaled))]
        parts = [x for a in amps for x in (a.real, a.imag)]
        assert repr(sector._norm(parts)) == repr(complex_parts_norm(amps))


def complex_parts_norm(amps) -> float:
    """The norm that ``sector._norm`` took of complex or real ``amps``
    before it took real parts alone: a sum of squares of every .real and
    every .imag, the zero ones of a real input too."""
    try:
        total = math.fsum([a.real * a.real for a in amps] + [a.imag * a.imag for a in amps])
    except OverflowError:
        total = math.inf
    if sector._SQUARES_MIN <= total < math.inf or math.isnan(total):
        return math.sqrt(total)
    parts = [a.real for a in amps] + [a.imag for a in amps]
    exponent = math.frexp(max(map(abs, parts), default=0.0))[1]
    scaled = [math.ldexp(x, -exponent) for x in parts]
    try:
        return math.ldexp(math.sqrt(math.fsum([x * x for x in scaled])), exponent)
    except OverflowError:
        return math.inf


@settings(max_examples=40, deadline=None)
@given(couplings=couplings_st, t=st.floats(-10.0, 10.0))
# Omega is 2 ulps from numpy's here, and the angle Omega t 2 |Omega t| 2^-52
# apart: the amplitudes by 1.52e-14
@example(couplings=[2.348, 2.814, 2.519, 2.048, 2.814, 1.31, 0.38, 0.406, 2.977, 0.802, 0.788,
                    0.482], t=10.0)
# |Omega t| = 0.08: cos(Omega t) rounds to the next double below 1, 2^-53 apart
@example(couplings=[0.49238269594934003, 0.7887660150954287, 0.7381126323108442,
                    1.1995158180436216], t=-0.0446252711760419)
def test_closed_form_matches_the_numpy_closed_form_and_the_route(couplings, t):
    mode = sector.bright_mode(couplings)
    closed = sector.amplitudes(mode, sector.closed_form(mode, t))
    # numpy's amplitudes at ``_norm``'s Omega: the same angle
    omega, eps, n = mode.omega, np.array(couplings), len(couplings)
    at_omega = np.zeros(n + 2, dtype=complex)
    at_omega[n + 1] = np.cos(omega * t)
    at_omega[n:0:-1] = -1j * (eps / omega) * np.sin(omega * t)
    np.testing.assert_allclose(closed, at_omega, atol=1e-14, rtol=0)
    # numpy's own Omega, its pairwise sum of squares, may round a few ulps
    # from the ``math.fsum`` one: each amplitude moves by a few
    # |Omega t| 2^-52, and by one rounding of its own
    numpy_closed = closed_form_rows([couplings], t)[0]
    np.testing.assert_allclose(closed, numpy_closed, atol=(4 * abs(omega * t) + 1) * 2**-52,
                               rtol=0)
    (evolved,) = sector.evolve(mode, ((t, 0.0),))
    np.testing.assert_allclose(closed, sector.amplitudes(mode, evolved), atol=1e-13, rtol=0)


def test_resonant_transfer_reaches_w_at_optimal_time():
    """F(t*) = 1 with the atom in its ground state, whatever the coupling
    scale, and t* falls with N."""
    counts = (1, 2, 3, 5, 8, 9)
    for eps in (0.5, 1.0, 1.3, 2.0):
        t_stars = [sector.optimal_time(n, eps) for n in counts]
        assert all(a > b for a, b in itertools.pairwise(t_stars))
        for n, t in zip(counts, t_stars):
            mode = sector.bright_mode((eps,) * n)
            (pair,) = sector.evolve(mode, ((t, 0.0),))
            assert sector.w_fidelity(pair, mode) == pytest.approx(1.0, abs=1e-14)
            amps = sector.amplitudes(mode, pair)
            assert abs(amps[n + 1]) <= 1e-15
            assert sum(abs(a) ** 2 for a in amps[:n + 1]) == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(couplings=couplings_st, t=st.floats(-10.0, 10.0))
def test_w_fidelity_matches_numpy_fidelity(couplings, t):
    n = len(couplings)
    mode = sector.bright_mode(couplings)
    (pair,) = sector.evolve(mode, ((t, 0.0),))
    basis = build_basis(n)
    want = fidelity(w_state(basis), StateVector(basis, sector.amplitudes(mode, pair)))
    assert sector.w_fidelity(pair, mode) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("detuning", [0.0, -1.7, 7.3])
def test_w_fidelity_is_the_fsum_overlap_at_the_largest_admitted_n(detuning):
    """At N = ``sector.MAX_MODES``, at t* and at later times, the overlap
    of ``bright_mode`` is the ``math.fsum`` of 1/sqrt(N) times each
    eps_i / Omega, bit for bit whatever the interpreter's ``sum``, and
    ``w_fidelity`` of a pair, the
    squared modulus of its bright amplitude times that overlap, is the
    squared modulus of the ``math.fsum`` overlap of the W state with the
    N + 2 amplitudes the pair stands for, within 2 ulps."""
    n, eps = sector.MAX_MODES, 0.3
    couplings = [eps] * n
    t_star = sector.optimal_time(n, eps)
    weight, omega = 1.0 / math.sqrt(n), sector._norm(couplings)
    mode = sector.bright_mode(couplings)
    overlap = mode.overlap
    assert repr(overlap) == repr(math.fsum([weight * (c / omega) for c in couplings]))
    points = [(k * t_star, detuning * eps) for k in (1.0, 1.37, 2.9)]
    for pair in sector.evolve(mode, points):
        terms = [weight * a for a in sector.amplitudes(mode, pair)[1:n + 1]]
        exact = abs(complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)))
        fid = sector.w_fidelity(pair, mode)
        assert repr(fid) == repr(min(abs(pair[1] * overlap) ** 2, 1.0))
        assert fid == pytest.approx(min(exact ** 2, 1.0), rel=0, abs=2 * math.ulp(1.0))


def two_level_excited_population(omega, detuning, t):
    """P_e = 1 - (Omega / g)^2 sin^2(g t), g = sqrt(Omega^2 + detuning^2 / 4):
    the atom's population under the Morris-Shore 2x2 matrix."""
    g = math.hypot(omega, 0.5 * detuning)
    return 1.0 - (omega / g) ** 2 * math.sin(g * t) ** 2


def test_common_detuning_keeps_the_bright_mode_shape():
    """Under one common detuning every photon amplitude stays eps_i / Omega
    times one factor, and the atom follows the two-level law."""
    couplings, detuning, t = (1.0, 2.0, 2.0), 0.4, 0.7
    mode = sector.bright_mode(couplings)
    (pair,) = sector.evolve(mode, ((t, detuning),))
    amps = sector.amplitudes(mode, pair)
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
    mode = sector.bright_mode((eps,) * n)
    omega = eps * math.sqrt(n)
    t_star = sector.optimal_time(n, eps)
    times = (t_star, 3.7 * t_star)
    for (pair, t) in zip(sector.evolve(mode, [(t, detuning) for t in times]), times):
        amps = sector.amplitudes(mode, pair)
        p_excited = two_level_excited_population(omega, detuning, t)
        assert abs(amps[n + 1]) ** 2 == pytest.approx(p_excited, abs=1e-12)
        assert abs(amps[1]) ** 2 == pytest.approx((1.0 - p_excited) / n, abs=1e-15)
        assert abs(amps[n]) == abs(amps[1])


@pytest.mark.parametrize("couplings, t, detuning, error, match", [
    ((1.0, 1.0), math.nan, 0.0, ValueError, "evolution time must be finite"),
    ((1.0, 1.0), 1.0, math.inf, ValueError, "model parameters must be finite"),
    ((1e200, 1e200), 1e200, 0.0, PropagationError, "non-finite"),
])
def test_evolve_refuses_bad_input(couplings, t, detuning, error, match):
    """The points are ``evolve``'s to check, each when its state is taken;
    the couplings are checked by ``bright_mode``."""
    states = sector.evolve(sector.bright_mode(couplings), ((0.5, 0.0), (t, detuning)))
    next(states)
    with pytest.raises(error, match=match):
        next(states)


def test_a_coupling_norm_that_overflows_is_a_numerical_failure():
    """Finite couplings whose Omega leaves the doubles have a record with
    Omega = inf, and ``evolve`` of it raises PropagationError, not a wrong
    state."""
    mode = sector.bright_mode((1.5e308,) * 2)
    assert mode.omega == math.inf
    with pytest.raises(PropagationError, match="coupling norm inf is not finite"):
        list(sector.evolve(mode, ((0.9, 0.0),)))


@pytest.mark.parametrize("n, detuning", [(3, 0.0), (5, 1e300)])
def test_require_angles_refuses_exactly_the_times_evolve_cannot_turn(n, detuning):
    """At the last double t at which ``evolve`` of n unit couplings turns
    without overflow, the angle rule admits t and refuses the next double,
    at which ``evolve`` raises."""
    mode = sector.bright_mode((1.0,) * n)

    def turns(t):
        try:
            list(sector.evolve(mode, ((t, detuning),)))
        except PropagationError:
            return False
        return True

    t = sys.float_info.max / math.hypot(0.5 * detuning, math.sqrt(n))
    while turns(t):
        t = math.nextafter(t, math.inf)
    while not turns(t):
        t = math.nextafter(t, 0.0)
    sector.require_angles(mode, 1.0, [(t, (t, detuning))], "--time")
    beyond = math.nextafter(t, math.inf)
    with pytest.raises(ValueError, match=r"^--time .* is too large for --epsilon 1\.0: the angle"):
        sector.require_angles(mode, 1.0, [(beyond, (beyond, detuning))], "--time")


def test_norm_drift_raises_and_small_drift_is_renormalized(monkeypatch):
    """A record built at an Omega off the couplings' norm by a factor
    1 / (1 + d) has ||beta||^2 = (1 + d)^2, and so moves the norm of the
    state that each pair stands for by about 0.9 d: at d = 1e-9 and at
    d = 1e-11, a drift above ``ROUNDING_TOL``, that raises, and at
    d = 4e-13 the pair is divided by that norm.  At t = 1.2, |bright|^2 is
    about 0.9."""
    couplings = (1.0, 0.5)
    real = sector._norm

    def drifted(d):
        with monkeypatch.context() as patch:
            patch.setattr(sector, "_norm", lambda v: real(v) / (1.0 + d))
            mode = sector.bright_mode(couplings)
        assert mode.squares == math.fsum([(c / (real(couplings) / (1.0 + d))) ** 2
                                          for c in couplings])
        return sector.evolve(mode, ((1.2, 0.0),))

    for d in (1e-9, 1e-11):
        with pytest.raises(PropagationError, match="norm drift"):
            list(drifted(d))
    ((excited, bright),) = drifted(4e-13)
    squares = math.fsum([(c / (real(couplings) / (1.0 + 4e-13))) ** 2 for c in couplings])
    assert abs(squares - 1.0) > 4e-13
    assert abs(excited) ** 2 + abs(bright) ** 2 * squares == pytest.approx(1.0, abs=1e-15)
    assert abs(abs(excited) ** 2 + abs(bright) ** 2 - 1.0) > 4e-13


class FsumCounter:
    """``math`` for ``sector``, with an ``fsum`` that counts the parts it
    receives."""

    def __init__(self):
        self.parts = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def fsum(self, parts):
        parts = list(parts)
        self.parts += len(parts)
        return math.fsum(parts)


@pytest.mark.parametrize("route", ["evolve", "timing-error sweep", "detuning sweep"])
def test_the_work_per_point_does_not_grow_with_n(route, monkeypatch):
    """The parts that ``math.fsum`` receives in ``sector`` to evolve and
    score 101 points, less those for 1 point, are the same at N = 1 and at
    N = 1000, and at most 8 a point: the O(N) sums are taken once per call,
    and each point is one Morris-Shore pair."""
    from wcavity import protocol

    def parts(n, points):
        counter = FsumCounter()
        monkeypatch.setattr(sector, "math", counter)
        if route == "evolve":
            mode = sector.bright_mode((0.7,) * n)
            times = [(0.01 * k, 0.1 * k) for k in range(points)]
            for pair in sector.evolve(mode, times):
                sector.w_fidelity(pair, mode)
        else:
            sweep = (protocol.timing_error_sweep if route == "timing-error sweep"
                     else protocol.detuning_sweep)
            assert len(sweep(n, 0.7, [0.001 * k for k in range(points)])) == points
        monkeypatch.setattr(sector, "math", math)
        return counter.parts

    per_point = [(parts(n, 101) - parts(n, 1)) / 100 for n in (1, 1000)]
    assert per_point[0] == per_point[1] <= 8


@pytest.mark.parametrize("couplings, message", [
    ((), "n_modes must be >= 1"),
    ((1.0, 0.0, 1.0), "strictly positive"),
    ((1.0, -1.0, 1.0), "strictly positive"),
    ((1.0, math.inf, 1.0), "model parameters must be finite"),
    ((1.0, math.nan, 1.0), "model parameters must be finite"),
])
def test_bright_mode_rejects_any_bad_coupling(couplings, message):
    """A coupling set is checked once, when its record is built, so that
    no route gets the record of a bad one."""
    with pytest.raises(ValueError, match=message):
        sector.bright_mode(couplings)


def test_bright_mode_takes_a_numpy_array():
    """An array of couplings is a sized sequence like a tuple: the same
    record, and the same refusal of none."""
    assert sector.bright_mode(np.array([0.7, 1.3, 2.2])) == sector.bright_mode((0.7, 1.3, 2.2))
    with pytest.raises(ValueError, match="n_modes must be >= 1"):
        sector.bright_mode(np.ones(0))


def test_closed_form_checks_finite_unit_norm(monkeypatch):
    with pytest.raises(ValueError, match="finite"):
        sector.closed_form(sector.bright_mode((1e200, 1e200)), 1e200)
    monkeypatch.setattr(sector, "_norm", lambda amps: 1.0 + 1e-11)
    with pytest.raises(ValueError, match="deviates from 1"):
        sector.closed_form(sector.bright_mode((1.0, 1.0)), 0.3)


def numpy_pair_concurrences(amps):
    n = len(amps) - 2
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    psi = StateVector(support_basis(n), amps)
    return pairs, [concurrence(partial_trace(psi, pair)) for pair in pairs]


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("state", ["W", "GHZ"])
def test_pairwise_concurrences_equal_numpy_concurrence(n, state):
    support = sector.w_support(n) if state == "W" else sector.ghz_support(n)
    basis = support_basis(n)
    target = w_state(basis) if state == "W" else ghz_state(basis)
    np.testing.assert_array_equal(support, target.amplitudes)
    pairs, expected = numpy_pair_concurrences(support)
    got = sector.pairwise_concurrences(support)
    assert list(got) == pairs
    for pair, want in zip(pairs, expected):
        assert got[pair] == pytest.approx(want, abs=1e-12)
        assert got[pair] == pytest.approx(2 / n if state == "W" else float(n == 2), abs=1e-12)


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
    """Support states of the W class (single photons alone) or the GHZ
    class (no single photon) reduce to X states; their concurrences equal
    the numpy ones."""
    parts = data.draw(st.lists(amplitude_st, min_size=n + 2, max_size=n + 2))
    if data.draw(st.booleans()):
        parts[1:n + 1] = [0.0] * n
    else:
        parts[0] = parts[n + 1] = 0.0
    norm = math.sqrt(sum(abs(a) ** 2 for a in parts))
    if norm == 0.0:
        parts, norm = [1.0] + [0.0] * (n + 1), 1.0
    amps = [a / norm for a in parts]
    pairs, expected = numpy_pair_concurrences(amps)
    got = sector.pairwise_concurrences(amps)
    for pair, want in zip(pairs, expected):
        assert got[pair] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("amps", [
    # W plus vacuum: <00|rho|01> = a_vac a_j is far from 0
    [math.sqrt(0.5)] + [math.sqrt(0.5 / 4)] * 4 + [0.0],
    # at N = 2, 0.6 |g;1_1> + 0.8 |g;1,1>: <01|rho|11> = 0.48
    [0.0, 0.6, 0.0, 0.8],
    # at N = 3, 0.6 |g;0,0,1> + 0.8 |g;1,1,1>: an X state, but of neither class
    [0.0, 0.6, 0.0, 0.0, 0.8],
    # 0.6 |g;0> + 0.8 |g;1_N>: X-shaped on the pairs without mode N, not on
    # the first pair with it
    [0.6, 0.8, 0.0, 0.0, 0.0, 0.0],
    [0.6, 0.8] + [0.0] * 9,
    # the class is read off exact zeros: W with a vacuum amplitude of 2e-20
    [2e-20] + [0.5] * 4 + [0.0],
])
def test_a_state_of_neither_class_is_refused(amps):
    with pytest.raises(ValueError, match="not W- or GHZ-class"):
        sector.pairwise_concurrences(amps)


@pytest.mark.parametrize("amps, bad", [
    # inf and NaN on |g;1...1> once scored 1.0 and nan on every pair
    ([0.0, 0.5, 0.5, 0.5, math.inf], "inf"),
    ([0.0, 0.5, 0.5, 0.5, math.nan], "nan"),
    # a non-finite vacuum or mode amplitude, real or complex; a finite
    # amplitude whose modulus overflows is not one of them
    ([math.nan, 0.5, 0.5, 0.5, 0.0], "nan"),
    ([0.0, 0.5, -math.inf, 0.5, 0.0], "-inf"),
    ([0.0, complex(0.5, math.nan), 0.5, 0.5, complex(1e308, 1e308)], "(0.5+nanj)"),
])
def test_a_non_finite_amplitude_is_refused(amps, bad):
    with pytest.raises(ValueError, match=re.escape(f"support amplitude {bad} is not finite")):
        sector.pairwise_concurrences(amps)


def test_pairwise_concurrences_need_two_modes():
    with pytest.raises(ValueError, match="needs n >= 2, got 1"):
        sector.pairwise_concurrences([0.0, 1.0, 0.0])

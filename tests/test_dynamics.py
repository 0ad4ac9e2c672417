import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wcavity import fock, sector
from wcavity.dynamics import (
    HermitianOperator,
    PropagationError,
    build_hamiltonian,
    evolve_closed_form,
    hermiticity_defect,
    propagate_numeric,
)
from wcavity.entanglement import fidelity
from wcavity.fock import StateVector, build_basis, initial_state

from codes import e, excitations, g
from qubit_space import qubit_basis, qubit_hamiltonian, reference_hamiltonian


def resonant(n_modes, coupling):
    """The keywords of ``build_hamiltonian`` for N modes on resonance with
    the atom, each of one coupling."""
    return {"couplings": (coupling,) * n_modes, "detunings": (0.0,) * n_modes}


def random_params(rng, n_modes=None):
    """The keywords of ``build_hamiltonian`` for ``n_modes`` modes, or one
    to four: random detunings, then random couplings."""
    n = int(n_modes or rng.integers(1, 5))
    detunings = tuple(float(d) for d in rng.uniform(-5.0, 5.0, size=n))
    return {"couplings": tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n)),
            "detunings": detunings}


def random_state(rng, basis):
    raw = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return StateVector(basis, raw / np.linalg.norm(raw))


class TestBuildHamiltonian:
    @pytest.mark.parametrize("couplings, detunings", [((1.0,) * 3, (0.0,) * 2),
                                                      ((1.0,) * 2, (0.0,) * 3)])
    def test_refuses_unequal_counts_of_couplings_and_detunings(self, couplings, detunings):
        # zip would otherwise pair the first of each and drop the rest
        with pytest.raises(ValueError, match=re.escape(
                f"one detuning per coupling: got {len(couplings)} couplings "
                f"and {len(detunings)} detunings")):
            build_hamiltonian(couplings=couplings, detunings=detunings)

    def test_refuses_no_modes(self):
        with pytest.raises(ValueError, match="n_modes must be a positive integer, got 0"):
            build_hamiltonian(couplings=(), detunings=())

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_refuses_a_non_finite_detuning_or_coupling(self, value):
        with pytest.raises(ValueError, match="model parameters must be finite"):
            build_hamiltonian(couplings=(1.0, 1.0), detunings=(0.0, value))
        with pytest.raises(ValueError, match="model parameters must be finite"):
            build_hamiltonian(couplings=(1.0, value), detunings=(0.0, 0.0))

    @pytest.mark.parametrize("coupling", [0.0, -0.0, -1.0])
    def test_refuses_a_non_positive_coupling(self, coupling):
        with pytest.raises(ValueError, match="couplings must be strictly positive"):
            build_hamiltonian(couplings=(1.0, coupling), detunings=(0.0, 0.0))

    def test_refuses_more_modes_than_build_basis_admits_after_the_values(self):
        """N above ``MAX_MODES`` is refused with ``build_basis``'s message,
        after a non-finite value is, and before any row is built."""
        n = sector.MAX_MODES + 1
        with pytest.raises(ValueError, match="model parameters must be finite"):
            build_hamiltonian(couplings=(1.0,) * n, detunings=(math.nan,) * n)
        with pytest.raises(ValueError) as basis_refusal:
            build_basis(n)
        with pytest.raises(ValueError, match=f"^{re.escape(str(basis_refusal.value))}$"):
            build_hamiltonian(**resonant(n, 1.0))

    def test_takes_its_couplings_and_detunings_by_keyword_only(self):
        with pytest.raises(TypeError):
            build_hamiltonian((1.0,), (0.0,))
        with pytest.raises(TypeError):  # and no basis: it builds build_basis(N)
            build_hamiltonian(build_basis(1), couplings=(1.0,), detunings=(0.0,))

    def test_single_mode_interaction_matrix(self):
        # hand evaluation on the basis (|g;0>, |g;1>, |e;0>)
        H = build_hamiltonian(**resonant(1, 0.8))
        assert H.basis == build_basis(1)
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 2] = expected[2, 1] = 0.8
        np.testing.assert_array_equal(H.matrix, expected)

    def test_three_mode_excited_row(self):
        H = build_hamiltonian(**resonant(3, 1.3))
        basis = H.basis
        row = basis.index[e(0, 0, 0)]
        for s in (g(1, 0, 0), g(0, 1, 0), g(0, 0, 1)):
            assert H.matrix[row, basis.index[s]] == 1.3
        assert H.matrix[row, basis.index[g(0, 0, 0)]] == 0.0
        assert H.matrix[row, row] == 0.0

    def test_diagonal_holds_the_mode_detunings(self):
        H = build_hamiltonian(couplings=(0.5, 0.5), detunings=(0.7, -0.25))
        diagonal = {code: H.matrix[k, k] for code, k in H.basis.index.items()}
        assert diagonal == {g(0, 0): 0.0, g(1, 0): 0.7, g(0, 1): -0.25, e(0, 0): 0.0}

    def test_truncation_drops_out_of_range_transitions(self):
        # |e;1> would couple to |g;2>, which a qubit mode cannot hold
        basis = qubit_basis(1)
        H = qubit_hamiltonian(**resonant(1, 1.0)).matrix
        row = basis.index[e(1)]
        off_diag = np.delete(H[row], row)
        assert np.all(off_diag == np.delete(H[:, row], row))
        assert H[row, basis.index[g(1)]] == 0.0
        assert H[row, basis.index[e(0)]] == 0.0

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            params = random_params(rng, n_modes=int(rng.integers(1, 6)))
            H = build_hamiltonian(**params)
            np.testing.assert_array_equal(H.matrix, reference_hamiltonian(H.basis, **params))

    @pytest.mark.parametrize("n", [5, 7])
    def test_equals_the_per_state_loop_bit_for_bit(self, n):
        """Unequal detunings and unequal couplings: every entry is the
        loop's on the sector, bit for bit."""
        params = {"couplings": tuple(0.3 + 0.7 * i for i in range(n)),
                  "detunings": tuple(0.1 * (i + 1) * (-1) ** i + 1 / (i + 3) for i in range(n))}
        H = build_hamiltonian(**params)
        assert H.matrix.tobytes() == reference_hamiltonian(H.basis, **params).tobytes()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_is_the_restriction_of_the_qubit_model(self, n):
        """H of the per-state loop on the whole qubit space has no entry
        between a sector code (0, 1, 2, ..., 2^N) and any other code, and
        its block on the sector codes is ``build_hamiltonian``'s matrix,
        bit for bit: signed zeros among the detunings included."""
        rng = np.random.default_rng(n)
        full = qubit_basis(n)
        inside = [full.index[code] for code in build_basis(n).codes]
        outside = sorted(set(range(full.dim)) - set(inside))
        for _ in range(10):
            params = random_params(rng, n_modes=n)
            signed = rng.choice([0.0, -0.0], size=n)
            zeroed = rng.random(n) < 0.3
            params["detunings"] = tuple(float(z) if zero else d for d, z, zero
                                        in zip(params["detunings"], signed, zeroed))
            reference = reference_hamiltonian(full, **params)
            assert not reference[np.ix_(inside, outside)].any()
            assert not reference[np.ix_(outside, inside)].any()
            block = np.ascontiguousarray(reference[np.ix_(inside, inside)])
            assert build_hamiltonian(**params).matrix.tobytes() == block.tobytes()

    def test_hermiticity_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            H = build_hamiltonian(**random_params(rng)).matrix
            assert np.max(np.abs(H - H.conj().T)) <= 1e-12


class TestEqualBases:
    """Each ``build_basis`` call builds a new basis, so states and
    operators on equal but distinct bases meet, as in
    ``validation._sector_gap`` and ``evolve_closed_form``."""

    def test_a_state_and_an_operator_on_two_builds_propagate_and_score(self):
        H = build_hamiltonian(**resonant(3, 1.0))
        psi0 = initial_state(build_basis(3))
        assert H.basis is not psi0.basis and H.basis == psi0.basis
        dense = propagate_numeric(H, psi0, 0.4)
        closed = evolve_closed_form((1.0,) * 3, 0.4)  # on a third build_basis(3)
        assert closed.basis is not dense.basis
        assert fidelity(closed, dense) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("build, n", [(qubit_hamiltonian, 3), (build_hamiltonian, 4)],
                             ids=["qubit", "n4"])
    def test_bases_of_other_codes_or_n_are_refused(self, build, n):
        H = build(**resonant(n, 1.0))
        psi = initial_state(build_basis(3))
        with pytest.raises(ValueError, match="live on different bases"):
            propagate_numeric(H, psi, 0.4)
        with pytest.raises(ValueError, match="live on different bases"):
            fidelity(initial_state(H.basis), psi)


class TestExcitationOperator:
    def test_diagonal_eigenvalues(self):
        basis = qubit_basis(3)
        N = np.diag(excitations(basis))
        assert N[basis.index[e(0, 0, 0)], basis.index[e(0, 0, 0)]] == 1.0
        assert N[basis.index[g(1, 1, 0)], basis.index[g(1, 1, 0)]] == 2.0
        assert N[basis.index[g(0, 0, 0)], basis.index[g(0, 0, 0)]] == 0.0

    def test_commutes_with_hamiltonian_randomized(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            H = qubit_hamiltonian(**random_params(rng))
            N = np.diag(excitations(H.basis))
            H = H.matrix
            comm = H @ N - N @ H
            assert np.max(np.abs(comm)) <= 1e-13


class TestClosedForm:
    def test_time_zero_is_initial_state(self):
        psi = evolve_closed_form((1.0,) * 3, 0.0)
        assert psi.amplitude(e(0, 0, 0)) == 1.0

    def test_three_modes_at_optimal_time(self):
        eps = 1.0
        t_star = math.pi / (2.0 * math.sqrt(3.0) * eps)
        psi = evolve_closed_form((eps,) * 3, t_star)
        assert abs(psi.amplitude(e(0, 0, 0))) <= 1e-12
        for s in (g(1, 0, 0), g(0, 1, 0), g(0, 0, 1)):
            assert psi.amplitude(s) == pytest.approx(-1j / math.sqrt(3.0), abs=1e-12)

    def test_single_mode_quarter_rotation(self):
        psi = evolve_closed_form((1.0,), math.pi / 4.0)
        assert psi.amplitude(e(0)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert psi.amplitude(g(1)) == pytest.approx(-1j / math.sqrt(2.0), abs=1e-12)

    def test_takes_unequal_couplings(self):
        psi = evolve_closed_form((1.0, 1.2), 0.1)
        omega = math.sqrt(1.0 + 1.2**2)
        assert psi.amplitude(e(0, 0)) == pytest.approx(math.cos(0.1 * omega), abs=1e-15)
        assert psi.amplitude(g(0, 1)) == pytest.approx(
            -1.2j / omega * math.sin(0.1 * omega), abs=1e-15
        )

    def test_takes_a_numpy_array_of_couplings(self):
        couplings = (0.7, 1.3, 2.2)
        psi = evolve_closed_form(np.array(couplings), 0.5)
        assert psi.amplitudes.tobytes() == evolve_closed_form(couplings, 0.5).amplitudes.tobytes()

    def test_is_the_sector_closed_form_bit_for_bit(self):
        couplings = (0.7, 1.3, 2.2)
        for t in (0.0, 0.37, -4.1, 250.0):
            psi = evolve_closed_form(couplings, t)
            assert psi.basis == build_basis(3)
            mode = sector.bright_mode(couplings)
            closed = np.array(sector.amplitudes(mode, sector.closed_form(mode, t)))
            assert psi.amplitudes.tobytes() == closed.tobytes()


class TestClosedFormGeneral:
    def test_reduces_to_identical_coupling_form(self):
        # equal couplings: cos(sqrt(N) eps t) and -i sin(sqrt(N) eps t) / sqrt(N)
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            eps = float(rng.uniform(0.1, 5.0))
            t = float(rng.uniform(0.0, 10.0))
            psi = evolve_closed_form((eps,) * n, t)
            phase = math.sqrt(n) * eps * t
            assert abs(psi.amplitude(e(*(0,) * n)) - math.cos(phase)) <= 1e-14
            for i in range(n):
                one = tuple(int(m == i) for m in range(n))
                want = -1j * math.sin(phase) / math.sqrt(n)
                assert abs(psi.amplitude(g(*one)) - want) <= 1e-14

    def test_three_four_coupling_case(self):
        # Omega = 5, t = pi/10: full transfer weighted by eps_i / Omega
        t = math.pi / 10.0
        psi = evolve_closed_form((3.0, 4.0), t)
        assert abs(psi.amplitude(e(0, 0))) <= 1e-12
        assert psi.amplitude(g(1, 0)) == pytest.approx(-0.6j, abs=1e-12)
        assert psi.amplitude(g(0, 1)) == pytest.approx(-0.8j, abs=1e-12)
        # independent confirmation through the numeric propagator
        basis = psi.basis
        H = build_hamiltonian(couplings=(3.0, 4.0), detunings=(0.0, 0.0))
        ref = propagate_numeric(H, initial_state(basis), t)
        assert np.max(np.abs(psi.amplitudes - ref.amplitudes)) <= 1e-10

    def test_validated_against_numeric_on_random_draws(self):
        # formula must agree with the propagator before it is used anywhere
        rng = np.random.default_rng(2718)
        worst = 0.0
        for _ in range(120):
            n = int(rng.integers(1, 7))
            eps = tuple(float(c) for c in rng.uniform(0.1, 10.0, size=n))
            t = float(rng.uniform(0.0, 4.0 * math.pi / max(eps)))
            closed = evolve_closed_form(eps, t)
            H = build_hamiltonian(couplings=eps, detunings=(0.0,) * n)
            numeric = propagate_numeric(H, initial_state(closed.basis), t)
            worst = max(worst, float(np.max(np.abs(closed.amplitudes - numeric.amplitudes))))
        assert worst <= 1e-8


class TestClosedFormAmplitudes:
    def test_rejects_any_non_finite_row(self):
        # Omega t overflows in one draw of four: its row would be NaN and is
        # refused, while the other draws give unit-norm rows at the same time
        couplings = np.ones((4, 2))
        couplings[2] = 1e200
        for k, draw in enumerate(couplings):
            couplings = tuple(float(c) for c in draw)
            if k == 2:
                with pytest.raises(ValueError, match="finite"):
                    evolve_closed_form(couplings, 1e200)
            else:
                assert evolve_closed_form(couplings, 1e200).norm() == pytest.approx(1.0, abs=1e-15)


class TestPropagateNumeric:
    def test_time_zero_identity(self):
        basis = build_basis(3)
        H = build_hamiltonian(**resonant(3, 1.0))
        psi0 = initial_state(basis)
        out = propagate_numeric(H, psi0, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi0.amplitudes, atol=1e-15)

    def test_matches_closed_form_at_optimal_time(self):
        eps = 1.0
        t_star = math.pi / (2.0 * math.sqrt(3.0) * eps)
        closed = evolve_closed_form((eps,) * 3, t_star)
        H = build_hamiltonian(**resonant(3, eps))
        numeric = propagate_numeric(H, initial_state(closed.basis), t_star)
        assert np.max(np.abs(closed.amplitudes - numeric.amplitudes)) <= 1e-10

    def test_oracle_equivalence_random_resonant_draws(self):
        rng = np.random.default_rng(314159)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 7))
            eps = float(rng.uniform(0.1, 10.0))
            t = float(rng.uniform(0.0, 4.0 * math.pi / eps))
            closed = evolve_closed_form((eps,) * n, t)
            H = build_hamiltonian(**resonant(n, eps))
            numeric = propagate_numeric(H, initial_state(closed.basis), t)
            worst = max(worst, float(np.max(np.abs(closed.amplitudes - numeric.amplitudes))))
        assert worst <= 1e-8

    def test_agrees_with_scipy_expm(self):
        # third route: Pade scaling-and-squaring from scipy
        rng = np.random.default_rng(99)
        for _ in range(10):
            H = qubit_hamiltonian(**random_params(rng))
            psi = random_state(rng, H.basis)
            t = float(rng.uniform(-5.0, 5.0))
            mine = propagate_numeric(H, psi, t)
            ref = scipy.linalg.expm(-1j * H.matrix * t) @ psi.amplitudes
            assert np.max(np.abs(mine.amplitudes - ref)) <= 1e-10

    def test_unitarity_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            H = qubit_hamiltonian(**random_params(rng))
            psi = random_state(rng, H.basis)
            t = float(rng.uniform(-20.0, 20.0))
            assert abs(propagate_numeric(H, psi, t).norm() - 1.0) <= 1e-10

    def test_composition_randomized(self):
        rng = np.random.default_rng(555)
        for _ in range(50):
            H = qubit_hamiltonian(**random_params(rng))
            psi = random_state(rng, H.basis)
            t1 = float(rng.uniform(-5.0, 5.0))
            t2 = float(rng.uniform(-5.0, 5.0))
            two_step = propagate_numeric(H, propagate_numeric(H, psi, t1), t2)
            one_step = propagate_numeric(H, psi, t1 + t2)
            assert np.max(np.abs(two_step.amplitudes - one_step.amplitudes)) <= 1e-9

    def test_lab_and_interaction_frames_agree_on_moduli(self):
        """The lab-frame H of atomic frequency omega_a and mode frequencies
        omega_i exceeds the interaction-frame H of the detunings
        delta_i = omega_i - omega_a by omega_a (s_z + sum_i n_i), which
        commutes with both: the two evolve every state to the same moduli.
        This anchors the sign of the detunings."""
        rng = np.random.default_rng(77)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            omega_a = float(rng.uniform(-5.0, 5.0))
            omega_modes = tuple(float(w) for w in rng.uniform(-5.0, 5.0, size=n))
            couplings = tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n))
            params = {"couplings": couplings,
                      "detunings": tuple(w - omega_a for w in omega_modes)}
            basis = qubit_basis(n)
            lab = HermitianOperator(
                basis, reference_hamiltonian(basis, **params, lab=(omega_a, omega_modes))
            )
            psi = random_state(rng, basis)
            t = float(rng.uniform(0.0, 8.0))
            lab_out = propagate_numeric(lab, psi, t)
            int_out = propagate_numeric(qubit_hamiltonian(**params), psi, t)
            gap = np.max(np.abs(np.abs(lab_out.amplitudes) - np.abs(int_out.amplitudes)))
            assert gap <= 1e-10

    def test_population_periodicity(self):
        # excited-state population repeats after 2*pi/(sqrt(N) eps)
        rng = np.random.default_rng(31)
        for n in range(1, 7):
            eps = float(rng.uniform(0.2, 4.0))
            basis = build_basis(n)
            H = build_hamiltonian(**resonant(n, eps))
            psi0 = initial_state(basis)
            excited = basis.index[e(*([0] * n))]
            period = 2.0 * math.pi / (math.sqrt(n) * eps)
            for t in np.linspace(0.0, period, 7):
                p_t = abs(propagate_numeric(H, psi0, float(t)).amplitudes[excited]) ** 2
                p_shift = abs(
                    propagate_numeric(H, psi0, float(t) + period).amplitudes[excited]
                ) ** 2
                assert p_shift == pytest.approx(p_t, abs=1e-10)

    def test_rejects_basis_mismatch(self):
        H = build_hamiltonian(**resonant(2, 1.0))
        with pytest.raises(ValueError, match="different bases"):
            propagate_numeric(H, initial_state(build_basis(3)), 1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan, -math.inf])
    def test_rejects_nonfinite_time(self, t):
        basis = build_basis(1)
        H = build_hamiltonian(**resonant(1, 1.0))
        with pytest.raises(ValueError, match="finite"):
            propagate_numeric(H, initial_state(basis), t)

    def test_takes_one_time(self):
        H = qubit_hamiltonian(**resonant(2, 1.0))
        with pytest.raises(TypeError):
            propagate_numeric(H, initial_state(H.basis), np.array([0.1, 0.2]))

    def test_overflow_raises_propagation_error(self):
        H = build_hamiltonian(couplings=(1.0,), detunings=(1e308,))
        with pytest.raises(PropagationError, match="non-finite"):
            propagate_numeric(H, initial_state(H.basis), 1e10)

    def test_norm_drift_guard(self, monkeypatch):
        basis = build_basis(2)
        H = build_hamiltonian(**resonant(2, 1.0))
        psi = initial_state(basis)
        real_eigh = np.linalg.eigh

        def skewed_eigh(matrix):
            vals, vecs = real_eigh(matrix)
            return vals, vecs * (1.0 + 1e-6)

        monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
        with pytest.raises(PropagationError, match="norm drift"):
            propagate_numeric(H, psi, 0.5)

    def test_drift_that_grows_with_time_raises(self, monkeypatch):
        basis = build_basis(2)
        H = build_hamiltonian(**resonant(2, 1.0))
        real_eigh = np.linalg.eigh

        def decaying_eigh(matrix):
            # an imaginary part on one eigenvalue: exact at t = 0, a norm
            # drift that grows with |t| elsewhere
            vals, vecs = real_eigh(matrix)
            return vals + np.where(np.arange(len(vals)) == 0, 1e-6j, 0.0), vecs

        monkeypatch.setattr(np.linalg, "eigh", decaying_eigh)
        psi = StateVector(basis, np.full(basis.dim, 1.0 / math.sqrt(basis.dim)))
        np.testing.assert_allclose(propagate_numeric(H, psi, 0.0).amplitudes, psi.amplitudes,
                                   atol=1e-15)
        with pytest.raises(PropagationError, match="norm drift"):
            propagate_numeric(H, psi, 2.0)

    def test_diagonalizes_once_per_call(self, eigh_calls):
        basis = build_basis(3)
        H = build_hamiltonian(**resonant(3, 1.0))
        psi0 = initial_state(basis)
        for t in np.linspace(0.0, 2.0, 50).tolist():
            propagate_numeric(H, psi0, t)
        propagate_numeric(H, propagate_numeric(H, psi0, 0.3), 0.4)
        assert eigh_calls == [(basis.dim, basis.dim)] * 52


@settings(max_examples=60, deadline=None)
@given(
    basis_spec=st.one_of(
        st.tuples(st.integers(1, 4), st.none()),
        st.tuples(st.integers(1, 5), st.just(1)),
    ),
    seed=st.integers(0, 2**32 - 1),
    times=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6),
)
def test_propagate_numeric_matches_scipy_expm(basis_spec, seed, times):
    n, cap = basis_spec
    rng = np.random.default_rng(seed)
    params = random_params(rng, n_modes=n)
    H = build_hamiltonian(**params) if cap else qubit_hamiltonian(**params)
    psi = random_state(rng, H.basis)
    for t in times:
        ref = scipy.linalg.expm(-1j * H.matrix * t) @ psi.amplitudes
        np.testing.assert_allclose(propagate_numeric(H, psi, t).amplitudes, ref,
                                   atol=1e-12, rtol=0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    detuning=st.floats(-2.0, 2.0),
    epsilon=st.floats(0.25, 4.0),
    time=st.floats(0.0, 6.0),
)
def test_sector_evolution_equals_the_dense_full_space(n, detuning, epsilon, time):
    """H conserves the excitation number, so |e; 0...0> evolved on the
    excitation <= 1 sector equals its evolution on the whole qubit space
    of dimension 2 * 2^N, where every other amplitude stays 0."""
    params = {"couplings": (epsilon,) * n, "detunings": (detuning,) * n}
    sector, full = build_basis(n), qubit_basis(n)
    assert full.dim == 2 * 2**n
    small = propagate_numeric(build_hamiltonian(**params), initial_state(sector), time)
    dense = propagate_numeric(qubit_hamiltonian(**params), initial_state(full), time)
    embedded = np.zeros(full.dim, dtype=complex)
    embedded[[full.index[code] for code in sector.codes]] = small.amplitudes
    np.testing.assert_allclose(embedded, dense.amplitudes, atol=1e-12, rtol=0)


@pytest.mark.parametrize("drift", [2e-12, 5e-11])
@pytest.mark.parametrize("route", ["sector.evolve", "propagate_numeric"])
def test_a_drift_above_the_rounding_tolerance_raises(route, drift, monkeypatch):
    """A norm drift above ``ROUNDING_TOL`` and at most 1e-10, which both
    propagators once divided out, raises from each, as ``StateVector``
    refuses such a norm from any other source.  The sector's record
    carries ||beta||^2 = 1 + 2 drift, evolved to where |bright| = 1; the
    dense route's eigenvectors are scaled by 1 + drift / 2."""
    if route == "sector.evolve":
        mode = sector.bright_mode((1.0,))._replace(squares=1.0 + 2.0 * drift)

        def run():
            return list(sector.evolve(mode, ((0.5 * math.pi, 0.0),)))
    else:
        basis = build_basis(2)
        H = build_hamiltonian(**resonant(2, 1.0))
        real_eigh = np.linalg.eigh

        def scaled_eigh(matrix):
            vals, vecs = real_eigh(matrix)
            return vals, vecs * (1.0 + 0.5 * drift)

        monkeypatch.setattr(np.linalg, "eigh", scaled_eigh)

        def run():
            return propagate_numeric(H, initial_state(basis), 0.5)
    with pytest.raises(PropagationError, match="norm drift") as raised:
        run()
    measured = float(re.search(r"norm drift (\S+) exceeds", str(raised.value)).group(1))
    assert sector.ROUNDING_TOL < measured <= 1e-10
    assert measured == pytest.approx(drift, rel=0.01)


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        basis = build_basis(1)
        mat = np.zeros((3, 3), dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(basis, mat)

    def test_rejects_wrong_shape(self):
        basis = build_basis(1)
        with pytest.raises(ValueError):
            HermitianOperator(basis, np.eye(2))

    def test_constructor_copies(self):
        basis = build_basis(1)
        mat = np.zeros((3, 3), dtype=complex)
        mat[1, 2] = mat[2, 1] = 0.5
        H = HermitianOperator(basis, mat)
        assert mat.flags.writeable and not H.matrix.flags.writeable
        mat[1, 2] = 7.0  # a later write to the input leaves the operator as it was
        assert H.matrix[1, 2] == 0.5 and H.defect == 0.0

    def test_keeps_its_defect(self):
        basis = build_basis(1)
        mat = np.zeros((3, 3), dtype=complex)
        mat[0, 1], mat[1, 0] = 0.5, 0.5 + 4e-13
        H = HermitianOperator(basis, mat)
        assert H.defect == hermiticity_defect(mat) == pytest.approx(4e-13, rel=1e-3)
        assert isinstance(H.defect, float)
        assert build_hamiltonian(**resonant(1, 1.0)).defect == 0.0

    def test_refuses_a_stack(self):
        basis = build_basis(1)
        with pytest.raises(ValueError, match=r"shape \(2, 3, 3\) does not match"):
            HermitianOperator(basis, np.zeros((2, 3, 3)))

    @pytest.mark.parametrize("entry", [math.nan, complex(0.0, math.inf)])
    def test_rejects_a_non_finite_entry(self, entry):
        basis = build_basis(1)
        mat = np.zeros((3, 3), dtype=complex)
        mat[1, 1] = entry
        with pytest.raises(ValueError, match="operator entries must be finite"):
            HermitianOperator(basis, mat)

    def test_accepts_a_transposed_view(self):
        """A view whose last axis is not contiguous is checked and copied
        like any other matrix."""
        basis = build_basis(1)
        mat = np.zeros((3, 3), dtype=complex)
        mat[0, 1], mat[1, 0] = 0.5j, -0.5j
        view = mat.T
        assert not view.flags.c_contiguous
        H = HermitianOperator(basis, view)
        np.testing.assert_array_equal(H.matrix, view)
        assert not np.shares_memory(H.matrix, mat) and not H.matrix.flags.writeable

    def test_build_hamiltonian_peaks_below_three_dense_matrices(self):
        """The constructor checks the assembled matrix before it copies it,
        so the assembled matrix, its copy and the Hermiticity gap are never
        all alive: at dim 512, N = 510, the peak stays within 2.6 matrices."""
        params = resonant(510, 1.0)
        tracemalloc.start()
        try:
            H = build_hamiltonian(**params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.basis.dim == 512
        assert peak <= 2.6 * H.basis.dim**2 * np.dtype(complex).itemsize


class TestEachResultIsACheckedCopy:
    @pytest.fixture
    def row_checks(self, monkeypatch):
        calls = []
        real = fock.require_unit_rows

        def counting(amplitudes):
            calls.append(np.shape(amplitudes))
            return real(amplitudes)

        monkeypatch.setattr(fock, "require_unit_rows", counting)
        return calls

    def test_build_hamiltonian_owns_a_read_only_matrix(self):
        H = build_hamiltonian(**resonant(3, 1.0))
        assert not H.matrix.flags.writeable

    def test_closed_form_checks_its_row_once(self, row_checks, monkeypatch):
        # sector.bright_mode takes Omega as the norm of the couplings once,
        # sector.closed_form checks the squared norm of that bright mode,
        # and the StateVector constructor checks the amplitudes it copies
        norms = []
        real = sector._norm
        monkeypatch.setattr(sector, "_norm", lambda parts: norms.append(len(parts)) or real(parts))
        psi = evolve_closed_form((1.0,) * 3, 0.4)
        assert (row_checks, norms) == ([(5,)], [3])
        assert not psi.amplitudes.flags.writeable

    def test_numeric_route_checks_its_row_once(self, row_checks):
        basis = build_basis(3)
        psi0 = initial_state(basis)
        H = build_hamiltonian(**resonant(3, 1.0))
        row_checks.clear()
        psi = propagate_numeric(H, psi0, 0.4)
        assert row_checks == [(5,)]
        assert not psi.amplitudes.flags.writeable
        assert not any(np.shares_memory(psi.amplitudes, arr) for arr in (psi0.amplitudes, H.matrix))

    def test_a_bad_row_raises_as_before(self):
        # Omega does not overflow, but the angle Omega t does
        overflowing = (1e200, 1e200)
        assert evolve_closed_form(overflowing, 1.0).norm() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            evolve_closed_form(overflowing, 1e200)

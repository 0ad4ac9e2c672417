import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from wcavity import fock, sector
from wcavity.dynamics import (
    HermitianOperator,
    ModelParams,
    PropagationError,
    build_hamiltonian,
    evolve_closed_form,
    hermiticity_defect,
    propagate_numeric,
)
from wcavity.fock import AtomLevel, BasisState, StateVector, build_basis, initial_state


def g(*occ):
    return BasisState(AtomLevel.GROUND, tuple(occ))


def e(*occ):
    return BasisState(AtomLevel.EXCITED, tuple(occ))


def random_params(rng, n_modes=None):
    n = int(n_modes or rng.integers(1, 5))
    detunings = tuple(float(d) for d in rng.uniform(-5.0, 5.0, size=n))
    return ModelParams(n, detunings, tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n)))


def random_state(rng, basis):
    raw = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return StateVector(basis, raw / np.linalg.norm(raw))


def reference_hamiltonian(params, basis, lab=None):
    """The per-state loop that assembled H before the array version; kept
    as the reference it must match bit for bit.  With ``lab`` =
    (omega_a, omega_modes), the lab-frame H of those frequencies and
    params' couplings instead: omega_a s_z + sum_i omega_i n_i, with
    s_z = +-1/2, on the diagonal."""
    dim = basis.dim
    matrix = np.zeros((dim, dim), dtype=complex)
    for k, state in enumerate(basis.states):
        if lab is None:
            diag = sum(d * n for d, n in zip(params.detunings, state.occupations))
        else:
            omega_a, omega_modes = lab
            s_z = 0.5 if state.atom is AtomLevel.EXCITED else -0.5
            diag = omega_a * s_z + sum(w * n for w, n in zip(omega_modes, state.occupations))
        matrix[k, k] = diag
    for k, state in enumerate(basis.states):
        if state.atom is not AtomLevel.GROUND:
            continue
        for i, n_i in enumerate(state.occupations):
            if n_i == 0:
                continue
            occ = list(state.occupations)
            occ[i] = 0
            partner = basis.index[BasisState(AtomLevel.EXCITED, tuple(occ))]
            matrix[partner, k] += params.couplings[i]
            matrix[k, partner] += params.couplings[i]
    return matrix


class TestModelParams:
    def test_validates_lengths(self):
        with pytest.raises(ValueError, match="2 mode detunings, got 1"):
            ModelParams(2, (0.0,), (1.0, 1.0))
        with pytest.raises(ValueError, match="2 couplings, got 1"):
            ModelParams(2, (0.0, 0.0), (1.0,))

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError, match="positive"):
            ModelParams(1, (0.0,), (0.0,))

    def test_rejects_a_non_finite_detuning(self):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(2, (0.0, math.inf), (1.0, 1.0))

    def test_resonant_has_zero_detunings(self):
        assert ModelParams.resonant(3, 0.7) == ModelParams(3, (0.0,) * 3, (0.7,) * 3)


class TestBuildHamiltonian:
    def test_single_mode_interaction_matrix(self):
        # hand evaluation on the basis (|g;0>, |g;1>, |e;0>)
        basis = build_basis(1, excitation_cap=1)
        H = build_hamiltonian(ModelParams.resonant(1, 0.8), basis).matrix
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 2] = expected[2, 1] = 0.8
        np.testing.assert_array_equal(H, expected)

    def test_three_mode_excited_row(self):
        basis = build_basis(3, excitation_cap=1)
        H = build_hamiltonian(ModelParams.resonant(3, 1.3), basis).matrix
        row = basis.index[e(0, 0, 0)]
        for s in (g(1, 0, 0), g(0, 1, 0), g(0, 0, 1)):
            assert H[row, basis.index[s]] == 1.3
        assert H[row, basis.index[g(0, 0, 0)]] == 0.0
        assert H[row, row] == 0.0

    def test_diagonal_holds_the_mode_detunings(self):
        basis = build_basis(2)
        H = build_hamiltonian(ModelParams(2, (0.7, -0.25), (0.5, 0.5)), basis).matrix
        assert H[basis.index[g(1, 0)], basis.index[g(1, 0)]] == 0.7
        assert H[basis.index[g(1, 1)], basis.index[g(1, 1)]] == 0.7 - 0.25
        assert H[basis.index[e(0, 1)], basis.index[e(0, 1)]] == -0.25
        assert H[basis.index[e(0, 0)], basis.index[e(0, 0)]] == 0.0

    def test_truncation_drops_out_of_range_transitions(self):
        # |e;1> would couple to |g;2>, which a qubit mode cannot hold
        basis = build_basis(1)
        H = build_hamiltonian(ModelParams.resonant(1, 1.0), basis).matrix
        row = basis.index[e(1)]
        off_diag = np.delete(H[row], row)
        assert np.all(off_diag == np.delete(H[:, row], row))
        assert H[row, basis.index[g(1)]] == 0.0
        assert H[row, basis.index[e(0)]] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_hamiltonian(ModelParams.resonant(2, 1.0), build_basis(3, excitation_cap=1))

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(8)
        for cap in [None, 1, 2, 3, 4, 0]:
            for _ in range(15):
                params = random_params(rng, n_modes=int(rng.integers(1, 6 if cap else 5)))
                basis = build_basis(params.n_modes, excitation_cap=cap)
                H = build_hamiltonian(params, basis).matrix
                np.testing.assert_array_equal(H, reference_hamiltonian(params, basis))

    def test_hermiticity_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            params = random_params(rng)
            basis = build_basis(params.n_modes)
            H = build_hamiltonian(params, basis).matrix
            assert np.max(np.abs(H - H.conj().T)) <= 1e-12


class TestExcitationOperator:
    def test_diagonal_eigenvalues(self):
        basis = build_basis(3)
        N = np.diag(basis.levels.sum(axis=1))
        assert N[basis.index[e(0, 0, 0)], basis.index[e(0, 0, 0)]] == 1.0
        assert N[basis.index[g(1, 1, 0)], basis.index[g(1, 1, 0)]] == 2.0
        assert N[basis.index[g(0, 0, 0)], basis.index[g(0, 0, 0)]] == 0.0

    def test_commutes_with_hamiltonian_randomized(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            params = random_params(rng)
            basis = build_basis(params.n_modes)
            H = build_hamiltonian(params, basis).matrix
            N = np.diag(basis.levels.sum(axis=1))
            comm = H @ N - N @ H
            assert np.max(np.abs(comm)) <= 1e-13


class TestClosedForm:
    def test_time_zero_is_initial_state(self):
        params = ModelParams.resonant(3, 1.0)
        psi = evolve_closed_form(params, 0.0)
        assert psi.amplitude(e(0, 0, 0)) == 1.0

    def test_three_modes_at_optimal_time(self):
        eps = 1.0
        t_star = math.pi / (2.0 * math.sqrt(3.0) * eps)
        psi = evolve_closed_form(ModelParams.resonant(3, eps), t_star)
        assert abs(psi.amplitude(e(0, 0, 0))) <= 1e-12
        for s in (g(1, 0, 0), g(0, 1, 0), g(0, 0, 1)):
            assert psi.amplitude(s) == pytest.approx(-1j / math.sqrt(3.0), abs=1e-12)

    def test_single_mode_quarter_rotation(self):
        psi = evolve_closed_form(ModelParams.resonant(1, 1.0), math.pi / 4.0)
        assert psi.amplitude(e(0)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert psi.amplitude(g(1)) == pytest.approx(-1j / math.sqrt(2.0), abs=1e-12)

    def test_takes_unequal_couplings(self):
        params = ModelParams(2, (0.0, 0.0), (1.0, 1.2))
        psi = evolve_closed_form(params, 0.1)
        omega = math.sqrt(1.0 + 1.2**2)
        assert psi.amplitude(e(0, 0)) == pytest.approx(math.cos(0.1 * omega), abs=1e-15)
        assert psi.amplitude(g(0, 1)) == pytest.approx(
            -1.2j / omega * math.sin(0.1 * omega), abs=1e-15
        )

    def test_is_the_sector_closed_form_bit_for_bit(self):
        params = ModelParams(3, (0.0,) * 3, (0.7, 1.3, 2.2))
        for t in (0.0, 0.37, -4.1, 250.0):
            psi = evolve_closed_form(params, t)
            assert psi.basis == build_basis(3, excitation_cap=1)
            pair = sector.closed_form(params.couplings, t)
            closed = np.array(sector.amplitudes(params.couplings, pair))
            assert psi.amplitudes.tobytes() == closed.tobytes()


class TestClosedFormGeneral:
    def test_reduces_to_identical_coupling_form(self):
        # equal couplings: cos(sqrt(N) eps t) and -i sin(sqrt(N) eps t) / sqrt(N)
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            eps = float(rng.uniform(0.1, 5.0))
            t = float(rng.uniform(0.0, 10.0))
            psi = evolve_closed_form(ModelParams.resonant(n, eps), t)
            phase = math.sqrt(n) * eps * t
            assert abs(psi.amplitude(e(*(0,) * n)) - math.cos(phase)) <= 1e-14
            for i in range(n):
                one = tuple(int(m == i) for m in range(n))
                want = -1j * math.sin(phase) / math.sqrt(n)
                assert abs(psi.amplitude(g(*one)) - want) <= 1e-14

    def test_three_four_coupling_case(self):
        # Omega = 5, t = pi/10: full transfer weighted by eps_i / Omega
        params = ModelParams(2, (0.0, 0.0), (3.0, 4.0))
        t = math.pi / 10.0
        psi = evolve_closed_form(params, t)
        assert abs(psi.amplitude(e(0, 0))) <= 1e-12
        assert psi.amplitude(g(1, 0)) == pytest.approx(-0.6j, abs=1e-12)
        assert psi.amplitude(g(0, 1)) == pytest.approx(-0.8j, abs=1e-12)
        # independent confirmation through the numeric propagator
        basis = psi.basis
        H = build_hamiltonian(params, basis)
        ref = propagate_numeric(H, initial_state(basis), t)
        assert np.max(np.abs(psi.amplitudes - ref.amplitudes)) <= 1e-10

    def test_rejects_detuning(self):
        params = ModelParams(2, (0.0, 0.3), (1.0, 1.0))
        with pytest.raises(ValueError, match="detuned"):
            evolve_closed_form(params, 0.1)

    def test_validated_against_numeric_on_random_draws(self):
        # formula must agree with the propagator before it is used anywhere
        rng = np.random.default_rng(2718)
        worst = 0.0
        for _ in range(120):
            n = int(rng.integers(1, 7))
            eps = tuple(float(c) for c in rng.uniform(0.1, 10.0, size=n))
            t = float(rng.uniform(0.0, 4.0 * math.pi / max(eps)))
            params = ModelParams(n, (0.0,) * n, eps)
            closed = evolve_closed_form(params, t)
            H = build_hamiltonian(params, closed.basis)
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
            params = ModelParams(2, (0.0, 0.0), tuple(float(c) for c in draw))
            if k == 2:
                with pytest.raises(ValueError, match="finite"):
                    evolve_closed_form(params, 1e200)
            else:
                assert evolve_closed_form(params, 1e200).norm() == pytest.approx(1.0, abs=1e-15)


class TestPropagateNumeric:
    def test_time_zero_identity(self):
        basis = build_basis(3, excitation_cap=1)
        H = build_hamiltonian(ModelParams.resonant(3, 1.0), basis)
        psi0 = initial_state(basis)
        out = propagate_numeric(H, psi0, 0.0)
        np.testing.assert_allclose(out.amplitudes, psi0.amplitudes, atol=1e-15)

    def test_matches_closed_form_at_optimal_time(self):
        eps = 1.0
        t_star = math.pi / (2.0 * math.sqrt(3.0) * eps)
        params = ModelParams.resonant(3, eps)
        closed = evolve_closed_form(params, t_star)
        H = build_hamiltonian(params, closed.basis)
        numeric = propagate_numeric(H, initial_state(closed.basis), t_star)
        assert np.max(np.abs(closed.amplitudes - numeric.amplitudes)) <= 1e-10

    def test_oracle_equivalence_random_resonant_draws(self):
        rng = np.random.default_rng(314159)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 7))
            eps = float(rng.uniform(0.1, 10.0))
            t = float(rng.uniform(0.0, 4.0 * math.pi / eps))
            params = ModelParams.resonant(n, eps)
            closed = evolve_closed_form(params, t)
            H = build_hamiltonian(params, closed.basis)
            numeric = propagate_numeric(H, initial_state(closed.basis), t)
            worst = max(worst, float(np.max(np.abs(closed.amplitudes - numeric.amplitudes))))
        assert worst <= 1e-8

    def test_agrees_with_scipy_expm(self):
        # third route: Pade scaling-and-squaring from scipy
        rng = np.random.default_rng(99)
        for _ in range(10):
            params = random_params(rng)
            basis = build_basis(params.n_modes)
            H = build_hamiltonian(params, basis)
            psi = random_state(rng, basis)
            t = float(rng.uniform(-5.0, 5.0))
            mine = propagate_numeric(H, psi, t)
            ref = scipy.linalg.expm(-1j * H.matrix * t) @ psi.amplitudes
            assert np.max(np.abs(mine.amplitudes - ref)) <= 1e-10

    def test_unitarity_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            params = random_params(rng)
            basis = build_basis(params.n_modes)
            H = build_hamiltonian(params, basis)
            psi = random_state(rng, basis)
            t = float(rng.uniform(-20.0, 20.0))
            assert abs(propagate_numeric(H, psi, t).norm() - 1.0) <= 1e-10

    def test_composition_randomized(self):
        rng = np.random.default_rng(555)
        for _ in range(50):
            params = random_params(rng)
            basis = build_basis(params.n_modes)
            H = build_hamiltonian(params, basis)
            psi = random_state(rng, basis)
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
            params = ModelParams(n, tuple(w - omega_a for w in omega_modes), couplings)
            basis = build_basis(n)
            lab = HermitianOperator(
                basis, reference_hamiltonian(params, basis, lab=(omega_a, omega_modes))
            )
            psi = random_state(rng, basis)
            t = float(rng.uniform(0.0, 8.0))
            lab_out = propagate_numeric(lab, psi, t)
            int_out = propagate_numeric(build_hamiltonian(params, basis), psi, t)
            gap = np.max(np.abs(np.abs(lab_out.amplitudes) - np.abs(int_out.amplitudes)))
            assert gap <= 1e-10

    def test_population_periodicity(self):
        # excited-state population repeats after 2*pi/(sqrt(N) eps)
        rng = np.random.default_rng(31)
        for n in range(1, 7):
            eps = float(rng.uniform(0.2, 4.0))
            params = ModelParams.resonant(n, eps)
            basis = build_basis(n, excitation_cap=1)
            H = build_hamiltonian(params, basis)
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
        H = build_hamiltonian(ModelParams.resonant(2, 1.0), build_basis(2, excitation_cap=1))
        with pytest.raises(ValueError, match="different bases"):
            propagate_numeric(H, initial_state(build_basis(3, excitation_cap=1)), 1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan, -math.inf])
    def test_rejects_nonfinite_time(self, t):
        basis = build_basis(1, excitation_cap=1)
        H = build_hamiltonian(ModelParams.resonant(1, 1.0), basis)
        with pytest.raises(ValueError, match="finite"):
            propagate_numeric(H, initial_state(basis), t)

    def test_takes_one_time(self):
        basis = build_basis(2)
        H = build_hamiltonian(ModelParams.resonant(2, 1.0), basis)
        with pytest.raises(TypeError):
            propagate_numeric(H, initial_state(basis), np.array([0.1, 0.2]))

    def test_overflow_raises_propagation_error(self):
        basis = build_basis(1)
        H = build_hamiltonian(ModelParams(1, (1e308,), (1.0,)), basis)
        with pytest.raises(PropagationError, match="non-finite"):
            propagate_numeric(H, initial_state(basis), 1e10)

    def test_norm_drift_guard(self, monkeypatch):
        basis = build_basis(2, excitation_cap=1)
        H = build_hamiltonian(ModelParams.resonant(2, 1.0), basis)
        psi = initial_state(basis)
        real_eigh = np.linalg.eigh

        def skewed_eigh(matrix):
            vals, vecs = real_eigh(matrix)
            return vals, vecs * (1.0 + 1e-6)

        monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
        with pytest.raises(PropagationError, match="norm drift"):
            propagate_numeric(H, psi, 0.5)

    def test_drift_that_grows_with_time_raises(self, monkeypatch):
        basis = build_basis(2, excitation_cap=1)
        H = build_hamiltonian(ModelParams.resonant(2, 1.0), basis)
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

    def test_diagonalizes_once_per_operator(self, eigh_calls):
        basis = build_basis(3, excitation_cap=1)
        H = build_hamiltonian(ModelParams.resonant(3, 1.0), basis)
        psi0 = initial_state(basis)
        for t in np.linspace(0.0, 2.0, 50).tolist():
            propagate_numeric(H, psi0, t)
        propagate_numeric(H, propagate_numeric(H, psi0, 0.3), 0.4)
        assert eigh_calls == [(basis.dim, basis.dim)]
        vals, vecs = H.eigh()
        assert not vals.flags.writeable and not vecs.flags.writeable


@settings(max_examples=60, deadline=None)
@given(
    basis_spec=st.one_of(
        st.tuples(st.integers(1, 4), st.none()),
        st.tuples(st.integers(1, 5), st.integers(0, 3)),
    ),
    seed=st.integers(0, 2**32 - 1),
    times=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6),
)
def test_propagate_numeric_matches_scipy_expm(basis_spec, seed, times):
    n, cap = basis_spec
    rng = np.random.default_rng(seed)
    params = random_params(rng, n_modes=n)
    basis = build_basis(n, excitation_cap=cap)
    H = build_hamiltonian(params, basis)
    psi = random_state(rng, basis)
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
    params = ModelParams(n, (detuning,) * n, (epsilon,) * n)
    sector, full = build_basis(n, excitation_cap=1), build_basis(n)
    assert full.dim == 2 * 2**n
    small = propagate_numeric(build_hamiltonian(params, sector), initial_state(sector), time)
    dense = propagate_numeric(build_hamiltonian(params, full), initial_state(full), time)
    embedded = np.zeros(full.dim, dtype=complex)
    embedded[[full.index[state] for state in sector.states]] = small.amplitudes
    np.testing.assert_allclose(embedded, dense.amplitudes, atol=1e-12, rtol=0)


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        basis = build_basis(1, excitation_cap=1)
        mat = np.zeros((3, 3), dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(basis, mat)

    def test_rejects_wrong_shape(self):
        basis = build_basis(1, excitation_cap=1)
        with pytest.raises(ValueError):
            HermitianOperator(basis, np.eye(2))

    def test_constructor_copies_and_the_owning_path_takes_over(self):
        basis = build_basis(1, excitation_cap=1)
        mat = np.zeros((3, 3), dtype=complex)
        mat[1, 2] = mat[2, 1] = 0.5
        copied = HermitianOperator(basis, mat)
        assert copied.matrix is not mat and mat.flags.writeable
        owned = HermitianOperator._from_owned(basis, mat)
        assert owned.matrix is mat and not mat.flags.writeable
        assert owned.defect == copied.defect == 0.0
        bad = mat.copy()
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator._from_owned(basis, bad)

    def test_keeps_its_defect(self):
        basis = build_basis(1, excitation_cap=1)
        mat = np.zeros((3, 3), dtype=complex)
        mat[0, 1], mat[1, 0] = 0.5, 0.5 + 4e-13
        H = HermitianOperator(basis, mat)
        assert H.defect == hermiticity_defect(mat) == pytest.approx(4e-13, rel=1e-3)
        assert isinstance(H.defect, float)
        assert build_hamiltonian(ModelParams.resonant(1, 1.0), basis).defect == 0.0

    def test_refuses_a_stack(self):
        basis = build_basis(1, excitation_cap=1)
        with pytest.raises(ValueError, match=r"shape \(2, 3, 3\) does not match"):
            HermitianOperator(basis, np.zeros((2, 3, 3)))


class TestRowsAreCheckedOnce:
    @pytest.fixture
    def row_checks(self, monkeypatch):
        calls = []
        real = fock.require_unit_rows

        def counting(amplitudes):
            calls.append(np.shape(amplitudes))
            return real(amplitudes)

        monkeypatch.setattr(fock, "require_unit_rows", counting)
        return calls

    def test_closed_form_checks_its_row_once(self, row_checks, monkeypatch):
        # sector.closed_form takes Omega as the norm of the couplings and
        # checks the squared norm of the bright mode, sector.amplitudes
        # takes Omega again to spread the pair, and the state takes the
        # amplitudes over unchecked
        norms = []
        real = sector._norm
        monkeypatch.setattr(sector, "_norm", lambda parts: norms.append(len(parts)) or real(parts))
        psi = evolve_closed_form(ModelParams.resonant(3, 1.0), 0.4)
        assert (row_checks, norms) == ([], [3, 3])
        assert not psi.amplitudes.flags.writeable

    def test_numeric_route_checks_in_propagate_numeric_only(self, row_checks):
        basis = build_basis(3, excitation_cap=1)
        psi0 = initial_state(basis)
        row_checks.clear()
        psi = propagate_numeric(build_hamiltonian(ModelParams.resonant(3, 1.0), basis), psi0, 0.4)
        assert row_checks == []
        assert not psi.amplitudes.flags.writeable

    def test_a_bad_row_raises_as_before(self):
        # Omega does not overflow, but the angle Omega t does
        overflowing = ModelParams(2, (0.0, 0.0), (1e200, 1e200))
        assert evolve_closed_form(overflowing, 1.0).norm() == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            evolve_closed_form(overflowing, 1e200)

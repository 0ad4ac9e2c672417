import math

import numpy as np
import pytest
import scipy.linalg

from wcavity.dynamics import (
    Frame,
    HermitianOperator,
    ModelParams,
    PropagationError,
    build_hamiltonian,
    evolve_closed_form,
    evolve_closed_form_general,
    excitation_operator,
    propagate_numeric,
)
from wcavity.fock import AtomLevel, BasisState, StateVector, build_basis, initial_state


def g(*occ):
    return BasisState(AtomLevel.GROUND, tuple(occ))


def e(*occ):
    return BasisState(AtomLevel.EXCITED, tuple(occ))


def random_params(rng, frame=None, resonant=False, identical=False, n_modes=None):
    n = int(n_modes or rng.integers(1, 5))
    omega_atom = float(rng.uniform(-5.0, 5.0))
    if resonant:
        omegas = (omega_atom,) * n
    else:
        omegas = tuple(float(w) for w in rng.uniform(-5.0, 5.0, size=n))
    if identical:
        eps = (float(rng.uniform(0.1, 3.0)),) * n
    else:
        eps = tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n))
    if frame is None:
        frame = Frame.LAB if rng.integers(2) else Frame.INTERACTION
    return ModelParams(n, omega_atom, omegas, eps, frame)


def random_state(rng, basis):
    raw = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return StateVector(basis, raw / np.linalg.norm(raw))


class TestModelParams:
    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            ModelParams(2, 1.0, (1.0,), (1.0, 1.0))
        with pytest.raises(ValueError):
            ModelParams(2, 1.0, (1.0, 1.0), (1.0,))

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError, match="positive"):
            ModelParams(1, 1.0, (1.0,), (0.0,))

    def test_resonant_identical_flag(self):
        assert ModelParams.resonant(3, 0.7).is_resonant_identical()
        detuned = ModelParams(3, 1.0, (1.0, 1.0, 1.5), (0.7,) * 3)
        assert not detuned.is_resonant_identical()
        uneven = ModelParams(3, 1.0, (1.0,) * 3, (0.7, 0.7, 0.8))
        assert uneven.is_resonant() and not uneven.is_resonant_identical()

    def test_tolerates_rounding_level_spread(self):
        eps = (0.7, 0.7 * (1 + 1e-15), 0.7)
        assert ModelParams(3, 1.0, (1.0,) * 3, eps).is_resonant_identical()


class TestBuildHamiltonian:
    def test_single_mode_interaction_matrix(self):
        # hand evaluation on the basis (|g;0>, |g;1>, |e;0>)
        basis = build_basis(1, 1, 1)
        H = build_hamiltonian(ModelParams.resonant(1, 0.8), basis).matrix
        expected = np.zeros((3, 3), dtype=complex)
        expected[1, 2] = expected[2, 1] = 0.8
        np.testing.assert_array_equal(H, expected)

    def test_three_mode_excited_row(self):
        basis = build_basis(3, 1, 1)
        H = build_hamiltonian(ModelParams.resonant(3, 1.3), basis).matrix
        row = basis.index[e(0, 0, 0)]
        for s in (g(1, 0, 0), g(0, 1, 0), g(0, 0, 1)):
            assert H[row, basis.index[s]] == 1.3
        assert H[row, basis.index[g(0, 0, 0)]] == 0.0
        assert H[row, row] == 0.0

    def test_lab_frame_diagonal(self):
        basis = build_basis(2, 1, None)
        params = ModelParams(2, 3.0, (2.0, 2.5), (0.5, 0.5), Frame.LAB)
        H = build_hamiltonian(params, basis).matrix
        assert H[basis.index[g(0, 0)], basis.index[g(0, 0)]] == -1.5  # -omega_atom/2
        assert H[basis.index[e(0, 0)], basis.index[e(0, 0)]] == 1.5
        assert H[basis.index[g(1, 1)], basis.index[g(1, 1)]] == -1.5 + 2.0 + 2.5

    def test_interaction_frame_keeps_residual_detuning(self):
        basis = build_basis(1, 1, None)
        params = ModelParams(1, 2.0, (2.7,), (0.5,), Frame.INTERACTION)
        H = build_hamiltonian(params, basis).matrix
        assert H[basis.index[g(1)], basis.index[g(1)]] == pytest.approx(0.7)
        assert H[basis.index[e(0)], basis.index[e(0)]] == 0.0

    def test_bosonic_sqrt_factors(self):
        basis = build_basis(1, 2, None)
        H = build_hamiltonian(ModelParams.resonant(1, 1.0), basis).matrix
        assert H[basis.index[e(1)], basis.index[g(2)]] == pytest.approx(math.sqrt(2.0))
        assert H[basis.index[e(0)], basis.index[g(1)]] == pytest.approx(1.0)

    def test_truncation_drops_out_of_range_transitions(self):
        # |e;1> would couple to |g;2>, which n_max = 1 excludes
        basis = build_basis(1, 1, None)
        H = build_hamiltonian(ModelParams.resonant(1, 1.0), basis).matrix
        row = basis.index[e(1)]
        off_diag = np.delete(H[row], row)
        assert np.all(off_diag == np.delete(H[:, row], row))
        assert H[row, basis.index[g(1)]] == 0.0
        assert H[row, basis.index[e(0)]] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_hamiltonian(ModelParams.resonant(2, 1.0), build_basis(3, 1, 1))

    def test_hermiticity_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            params = random_params(rng)
            basis = build_basis(params.n_modes, n_max=int(rng.integers(1, 3)))
            H = build_hamiltonian(params, basis).matrix
            assert np.max(np.abs(H - H.conj().T)) <= 1e-12


class TestExcitationOperator:
    def test_diagonal_eigenvalues(self):
        basis = build_basis(3, 1, None)
        N = excitation_operator(basis).matrix
        assert N[basis.index[e(0, 0, 0)], basis.index[e(0, 0, 0)]] == 1.0
        assert N[basis.index[g(1, 1, 0)], basis.index[g(1, 1, 0)]] == 2.0
        assert N[basis.index[g(0, 0, 0)], basis.index[g(0, 0, 0)]] == 0.0

    def test_commutes_with_hamiltonian_randomized(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            params = random_params(rng)
            basis = build_basis(params.n_modes, n_max=int(rng.integers(1, 3)))
            H = build_hamiltonian(params, basis).matrix
            N = excitation_operator(basis).matrix
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

    def test_rejects_lab_frame(self):
        params = ModelParams.resonant(2, 1.0, frame=Frame.LAB)
        with pytest.raises(ValueError, match="interaction-frame"):
            evolve_closed_form(params, 0.1)

    def test_rejects_unequal_couplings(self):
        params = ModelParams(2, 0.0, (0.0, 0.0), (1.0, 1.2))
        with pytest.raises(ValueError, match="identical couplings"):
            evolve_closed_form(params, 0.1)

    def test_embeds_into_larger_basis(self):
        params = ModelParams.resonant(3, 1.0)
        big = build_basis(3, 1, None)
        psi_big = evolve_closed_form(params, 0.37, big)
        psi_small = evolve_closed_form(params, 0.37)
        for state in psi_small.basis.states:
            assert psi_big.amplitude(state) == psi_small.amplitude(state)
        assert abs(psi_big.amplitude(g(1, 1, 0))) == 0.0

    def test_rejects_basis_without_sector(self):
        params = ModelParams.resonant(2, 1.0)
        basis = build_basis(2, 1, excitation_cap=0)
        with pytest.raises(ValueError, match="single-excitation"):
            evolve_closed_form(params, 0.1, basis)


class TestClosedFormGeneral:
    def test_reduces_to_identical_coupling_form(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            eps = float(rng.uniform(0.1, 5.0))
            t = float(rng.uniform(0.0, 10.0))
            params = ModelParams.resonant(n, eps)
            a = evolve_closed_form(params, t)
            b = evolve_closed_form_general(params, t)
            assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-14

    def test_three_four_coupling_case(self):
        # Omega = 5, t = pi/10: full transfer weighted by eps_i / Omega
        params = ModelParams(2, 0.0, (0.0, 0.0), (3.0, 4.0))
        t = math.pi / 10.0
        psi = evolve_closed_form_general(params, t)
        assert abs(psi.amplitude(e(0, 0))) <= 1e-12
        assert psi.amplitude(g(1, 0)) == pytest.approx(-0.6j, abs=1e-12)
        assert psi.amplitude(g(0, 1)) == pytest.approx(-0.8j, abs=1e-12)
        # independent confirmation through the numeric propagator
        basis = psi.basis
        H = build_hamiltonian(params, basis)
        ref = propagate_numeric(H, initial_state(basis), t)
        assert np.max(np.abs(psi.amplitudes - ref.amplitudes)) <= 1e-10

    def test_rejects_detuning(self):
        params = ModelParams(2, 0.0, (0.0, 0.3), (1.0, 1.0))
        with pytest.raises(ValueError, match="detuned"):
            evolve_closed_form_general(params, 0.1)

    def test_validated_against_numeric_on_random_draws(self):
        # formula must agree with the propagator before it is used anywhere
        rng = np.random.default_rng(2718)
        worst = 0.0
        for _ in range(120):
            n = int(rng.integers(1, 7))
            eps = tuple(float(c) for c in rng.uniform(0.1, 10.0, size=n))
            t = float(rng.uniform(0.0, 4.0 * math.pi / max(eps)))
            params = ModelParams(n, 0.0, (0.0,) * n, eps)
            closed = evolve_closed_form_general(params, t)
            H = build_hamiltonian(params, closed.basis)
            numeric = propagate_numeric(H, initial_state(closed.basis), t)
            worst = max(worst, float(np.max(np.abs(closed.amplitudes - numeric.amplitudes))))
        assert worst <= 1e-8


class TestPropagateNumeric:
    def test_time_zero_identity(self):
        basis = build_basis(3, 1, 1)
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
            basis = build_basis(params.n_modes, n_max=1)
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
            basis = build_basis(params.n_modes, n_max=int(rng.integers(1, 3)))
            H = build_hamiltonian(params, basis)
            psi = random_state(rng, basis)
            t = float(rng.uniform(-20.0, 20.0))
            assert abs(propagate_numeric(H, psi, t).norm() - 1.0) <= 1e-10

    def test_composition_randomized(self):
        rng = np.random.default_rng(555)
        for _ in range(50):
            params = random_params(rng)
            basis = build_basis(params.n_modes, n_max=1)
            H = build_hamiltonian(params, basis)
            psi = random_state(rng, basis)
            t1 = float(rng.uniform(-5.0, 5.0))
            t2 = float(rng.uniform(-5.0, 5.0))
            two_step = propagate_numeric(H, propagate_numeric(H, psi, t1), t2)
            one_step = propagate_numeric(H, psi, t1 + t2)
            assert np.max(np.abs(two_step.amplitudes - one_step.amplitudes)) <= 1e-9

    def test_lab_and_interaction_frames_agree_on_moduli(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            base = random_params(rng, frame=Frame.LAB)
            inter = ModelParams(
                base.n_modes, base.omega_atom, base.omega_modes, base.couplings,
                Frame.INTERACTION,
            )
            basis = build_basis(base.n_modes, n_max=1)
            psi = random_state(rng, basis)
            t = float(rng.uniform(0.0, 8.0))
            lab_out = propagate_numeric(build_hamiltonian(base, basis), psi, t)
            int_out = propagate_numeric(build_hamiltonian(inter, basis), psi, t)
            gap = np.max(np.abs(np.abs(lab_out.amplitudes) - np.abs(int_out.amplitudes)))
            assert gap <= 1e-10

    def test_population_periodicity(self):
        # excited-state population repeats after 2*pi/(sqrt(N) eps)
        rng = np.random.default_rng(31)
        for n in range(1, 7):
            eps = float(rng.uniform(0.2, 4.0))
            params = ModelParams.resonant(n, eps)
            basis = build_basis(n, 1, 1)
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
        H = build_hamiltonian(ModelParams.resonant(2, 1.0), build_basis(2, 1, 1))
        with pytest.raises(ValueError, match="different bases"):
            propagate_numeric(H, initial_state(build_basis(3, 1, 1)), 1.0)

    def test_rejects_nonfinite_time(self):
        basis = build_basis(1, 1, 1)
        H = build_hamiltonian(ModelParams.resonant(1, 1.0), basis)
        with pytest.raises(ValueError, match="finite"):
            propagate_numeric(H, initial_state(basis), math.inf)

    def test_overflow_raises_propagation_error(self):
        basis = build_basis(1, 1, None)
        params = ModelParams(1, 1e308, (1e308,), (1.0,), Frame.LAB)
        H = build_hamiltonian(params, basis)
        with pytest.raises(PropagationError, match="non-finite"):
            propagate_numeric(H, initial_state(basis), 1e10)

    def test_norm_drift_guard(self, monkeypatch):
        basis = build_basis(2, 1, 1)
        H = build_hamiltonian(ModelParams.resonant(2, 1.0), basis)
        psi = initial_state(basis)
        real_eigh = np.linalg.eigh

        def skewed_eigh(matrix):
            vals, vecs = real_eigh(matrix)
            return vals, vecs * (1.0 + 1e-6)

        monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
        with pytest.raises(PropagationError, match="norm drift"):
            propagate_numeric(H, psi, 0.5)


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        basis = build_basis(1, 1, 1)
        mat = np.zeros((3, 3), dtype=complex)
        mat[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianOperator(basis, mat)

    def test_rejects_wrong_shape(self):
        basis = build_basis(1, 1, 1)
        with pytest.raises(ValueError):
            HermitianOperator(basis, np.eye(2))

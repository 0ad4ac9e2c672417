import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcavity.dynamics import build_hamiltonian, evolve_closed_form, propagate_numeric
from wcavity.entanglement import (
    DensityMatrix,
    concurrence,
    fidelity,
    ghz_state,
    pairwise_concurrences,
    partial_trace,
    success_probability,
    support_basis,
    w_state,
)
from wcavity.fock import Basis, StateVector, build_basis, initial_state

from codes import e, g
from qubit_space import qubit_basis


def oracle_partial_trace(psi, keep):
    """Brute-force reduction: embed into the full qubit register and sum
    over every discarded configuration index pair by pair."""
    basis = psi.basis
    labels = sorted(keep)
    n_subsystems = basis.n_modes + 1
    discard = [s for s in range(n_subsystems) if s not in labels]

    def amplitude(bits):
        pos = basis.index.get(int("".join(map(str, bits)), 2))
        return 0j if pos is None else complex(psi.amplitudes[pos])

    dim = 2 ** len(labels)
    rho = np.zeros((dim, dim), dtype=complex)
    for r_bits in itertools.product((0, 1), repeat=len(labels)):
        for c_bits in itertools.product((0, 1), repeat=len(labels)):
            r = int("".join(map(str, r_bits)) or "0", 2)
            c = int("".join(map(str, c_bits)) or "0", 2)
            for d_bits in itertools.product((0, 1), repeat=len(discard)):
                full_r = [0] * n_subsystems
                full_c = [0] * n_subsystems
                for s, b in zip(labels, r_bits):
                    full_r[s] = b
                for s, b in zip(labels, c_bits):
                    full_c[s] = b
                for s, b in zip(discard, d_bits):
                    full_r[s] = b
                    full_c[s] = b
                rho[r, c] += amplitude(full_r) * amplitude(full_c).conjugate()
    return rho


def oracle_concurrence(matrix):
    """Independent route: non-Hermitian eigenvalues of rho * rho~."""
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    yy = np.kron(sy, sy)
    R = matrix @ yy @ matrix.conj() @ yy
    lams = np.sqrt(np.abs(np.sort(np.linalg.eigvals(R).real)))[::-1]
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))


def random_state(rng, basis):
    raw = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return StateVector(basis, raw / np.linalg.norm(raw))


def random_unitary(rng, dim=2):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return q


PSI_PLUS = np.zeros(4, dtype=complex)
PSI_PLUS[1] = PSI_PLUS[2] = 1.0 / math.sqrt(2.0)


class TestTargetStates:
    def test_w3_amplitudes(self):
        basis = build_basis(3)
        psi = w_state(basis)
        for s in (g(1, 0, 0), g(0, 1, 0), g(0, 0, 1)):
            assert psi.amplitude(s) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
        assert psi.amplitude(e(0, 0, 0)) == 0.0
        assert psi.amplitude(g(0, 0, 0)) == 0.0

    def test_w1_is_single_photon(self):
        psi = w_state(build_basis(1))
        assert psi.amplitude(g(1)) == 1.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_w_norm(self, n):
        assert w_state(build_basis(n)).norm() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", (2, 5))
    def test_w_reads_the_mode_count_from_the_basis(self, n):
        psi = w_state(qubit_basis(n))
        assert psi.basis.n_modes == n
        assert np.count_nonzero(psi.amplitudes) == n

    def test_w_requires_single_photon_states(self):
        with pytest.raises(ValueError, match=r"basis too small: missing \|g;10>"):
            w_state(Basis(2, (0,)))  # the vacuum alone

    def test_ghz3(self):
        basis = qubit_basis(3)
        psi = ghz_state(basis)
        assert psi.amplitude(g(0, 0, 0)) == pytest.approx(1.0 / math.sqrt(2.0))
        assert psi.amplitude(g(1, 1, 1)) == pytest.approx(1.0 / math.sqrt(2.0))
        assert psi.norm() == pytest.approx(1.0, abs=1e-14)

    def test_ghz2_is_bell_pair(self):
        psi = ghz_state(qubit_basis(2))
        assert psi.amplitude(g(0, 0)) == pytest.approx(1.0 / math.sqrt(2.0))
        assert psi.amplitude(g(1, 1)) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_ghz_refuses_the_sector_basis(self):
        # the sector lacks |g;111>
        with pytest.raises(ValueError, match=r"missing \|g;111> \(GHZ component\)"):
            ghz_state(build_basis(3))


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(12)
        basis = qubit_basis(3)
        psi = random_state(rng, basis)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        basis = build_basis(2)
        a = np.zeros(4, complex)
        a[basis.index[e(0, 0)]] = 1.0
        b = np.zeros(4, complex)
        b[basis.index[g(1, 0)]] = 1.0
        assert fidelity(StateVector(basis, a), StateVector(basis, b)) == 0.0

    def test_w3_against_two_mode_superposition(self):
        basis = build_basis(3)
        amps = np.zeros(5, complex)
        for s in (g(1, 0, 0), g(0, 1, 0)):
            amps[basis.index[s]] = 1.0 / math.sqrt(2.0)
        phi = StateVector(basis, amps)
        assert fidelity(w_state(basis), phi) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_basis_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(initial_state(build_basis(2)),
                     initial_state(build_basis(3)))


class TestSuccessProbability:
    def test_unity_at_optimal_time(self):
        eps = 1.0
        t_star = math.pi / (2.0 * math.sqrt(3.0) * eps)
        psi = evolve_closed_form((eps,) * 3, t_star)
        assert success_probability(psi) == pytest.approx(1.0, abs=1e-12)

    def test_zero_for_initial_state(self):
        assert success_probability(initial_state(build_basis(3))) == 0.0

    def test_half_at_half_rotation(self):
        eps = 1.0
        n = 4
        t = math.pi / (4.0 * math.sqrt(n) * eps)
        closed = evolve_closed_form((eps,) * n, t)
        assert success_probability(closed) == pytest.approx(0.5, abs=1e-12)
        H = build_hamiltonian(couplings=(eps,) * n, detunings=(0.0,) * n)
        numeric = propagate_numeric(H, initial_state(closed.basis), t)
        assert success_probability(numeric) == pytest.approx(0.5, abs=1e-9)


class TestPartialTrace:
    def test_product_state_single_mode(self):
        basis = qubit_basis(2)
        amps = np.zeros(8, complex)
        amps[basis.index[g(1, 0)]] = 1.0
        rho = partial_trace(StateVector(basis, amps), {1})
        np.testing.assert_allclose(rho.matrix, [[0, 0], [0, 1]], atol=1e-15)

    def test_w3_pair_reduction(self):
        basis = build_basis(3)
        rho = partial_trace(w_state(basis), {1, 2})
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0 / 3.0
        expected += (2.0 / 3.0) * np.outer(PSI_PLUS, PSI_PLUS.conj())
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)
        np.testing.assert_allclose(
            rho.matrix, oracle_partial_trace(w_state(basis), {1, 2}), atol=1e-14
        )

    def test_ghz3_pair_reduction_is_separable_mixture(self):
        basis = qubit_basis(3)
        psi = ghz_state(basis)
        rho = partial_trace(psi, {1, 2})
        expected = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)
        np.testing.assert_allclose(rho.matrix, oracle_partial_trace(psi, {1, 2}), atol=1e-14)

    def test_matches_oracle_on_random_states(self):
        rng = np.random.default_rng(20)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            basis = qubit_basis(n)
            psi = random_state(rng, basis)
            size = int(rng.integers(1, min(n + 1, 3) + 1))
            keep = set(map(int, rng.choice(n + 1, size=size, replace=False)))
            rho = partial_trace(psi, keep)
            np.testing.assert_allclose(
                rho.matrix, oracle_partial_trace(psi, keep), atol=1e-12
            )
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 4),
        cap=st.sampled_from([None, 1]),
        zero_share=st.sampled_from([0.0, 0.5, 0.9]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_matches_oracle_on_full_and_capped_bases(self, n, cap, zero_share, seed, data):
        basis = build_basis(n) if cap else qubit_basis(n)
        keep = data.draw(st.sets(st.integers(0, n), min_size=1), label="keep")
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        raw[rng.random(basis.dim) < zero_share] = 0.0
        raw[rng.integers(basis.dim)] += 1.0
        psi = StateVector(basis, raw / np.linalg.norm(raw))
        rho = partial_trace(psi, keep)
        np.testing.assert_allclose(
            rho.matrix, oracle_partial_trace(psi, keep), atol=1e-12, rtol=0
        )

    def test_w100_sector_pair_discards_99_subsystems(self):
        # atom plus 98 modes are traced out: more discarded qubits than an
        # int64 group key can hold
        basis = build_basis(100)
        rho = partial_trace(w_state(basis), {17, 83})
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 0.98
        expected[1:3, 1:3] = 0.01
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-14)
        assert concurrence(rho) == pytest.approx(2.0 / 100.0, abs=1e-12)

    def test_atom_reduction_of_entangled_state(self):
        eps = 1.0
        t = math.pi / (4.0 * math.sqrt(2.0) * eps)  # half-transferred
        psi = evolve_closed_form((eps,) * 2, t)
        rho = partial_trace(psi, {0})
        assert rho.matrix[1, 1].real == pytest.approx(0.5, abs=1e-12)
        assert rho.matrix[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_product_cut_gives_pure_reduction(self):
        rng = np.random.default_rng(33)
        basis = qubit_basis(2)
        for _ in range(10):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            amps = np.zeros(8, complex)
            for n1 in (0, 1):
                for n2 in (0, 1):
                    amps[basis.index[g(n1, n2)]] = a[n1] * b[n2]
            rho = partial_trace(StateVector(basis, amps), {1})
            purity = np.trace(rho.matrix @ rho.matrix).real
            assert purity == pytest.approx(1.0, abs=1e-10)

    def test_rejects_empty_keep(self):
        with pytest.raises(ValueError, match="empty"):
            partial_trace(w_state(build_basis(2)), set())

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="indices"):
            partial_trace(w_state(build_basis(2)), {3})


class TestConcurrence:
    def test_bell_state(self):
        bell = np.zeros(4, complex)
        bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
        rho = DensityMatrix((1, 2), np.outer(bell, bell.conj()))
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        vec = np.zeros(4, complex)
        vec[1] = 1.0  # |01>
        rho = DensityMatrix((1, 2), np.outer(vec, vec.conj()))
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-15)

    def test_w3_reduced_pair(self):
        rho = partial_trace(w_state(build_basis(3)), {1, 2})
        assert concurrence(rho) == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert oracle_concurrence(rho.matrix) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_ghz3_reduced_pair(self):
        rho = partial_trace(ghz_state(qubit_basis(3)), {1, 2})
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_w_pairs_carry_two_over_n(self, n):
        basis = qubit_basis(n)
        psi = w_state(basis)
        for pair, value in pairwise_concurrences(psi).items():
            assert value == pytest.approx(2.0 / n, abs=1e-9), pair

    @pytest.mark.parametrize("n", range(3, 9))
    def test_ghz_pairs_carry_nothing(self, n):
        basis = qubit_basis(n)
        psi = ghz_state(basis)
        for pair, value in pairwise_concurrences(psi).items():
            assert value == pytest.approx(0.0, abs=1e-12), pair

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(404)
        rho = partial_trace(w_state(build_basis(4)), {2, 3})
        base = concurrence(rho)
        for _ in range(10):
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = DensityMatrix((2, 3), u @ rho.matrix @ u.conj().T)
            assert concurrence(rotated) == pytest.approx(base, abs=1e-9)

    def test_agrees_with_eigenvalue_oracle_on_random_mixtures(self):
        # route agreement is limited to ~1e-8 by sqrt amplification of the
        # oracle's eigenvalue noise on generic full-rank mixtures
        rng = np.random.default_rng(505)
        for _ in range(20):
            vecs = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            weights = rng.uniform(0.1, 1.0, size=3)
            weights /= weights.sum()
            mat = sum(
                w * np.outer(v, v.conj()) / np.vdot(v, v).real
                for w, v in zip(weights, vecs)
            )
            rho = DensityMatrix((1, 2), mat)
            assert concurrence(rho) == pytest.approx(oracle_concurrence(mat), abs=5e-8)

    def test_single_mode_has_no_pairs(self):
        assert pairwise_concurrences(w_state(build_basis(1))) == {}

    def test_rejects_wrong_dimension(self):
        rho = partial_trace(w_state(build_basis(3)), {1})
        with pytest.raises(ValueError, match="two-qubit"):
            concurrence(rho)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        mat[0, 1] = 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix((1, 2), mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix((1, 2), np.diag([0.5, 0.5, 0.5, 0.0]).astype(complex))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix((1, 2), np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            DensityMatrix((1, 2), np.eye(3) / 3.0)


class TestSupportBasis:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_holds_the_w_and_ghz_support_in_full_basis_order(self, n):
        basis = support_basis(n)
        full = qubit_basis(n)
        assert basis.dim == n + 2
        positions = [full.index[code] for code in basis.codes]
        assert positions == sorted(positions)
        for make in (w_state, ghz_state):
            on_full = make(full)
            assert set(np.flatnonzero(on_full.amplitudes)) <= set(positions)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_concurrences_equal_the_full_basis_ones_bit_for_bit(self, n):
        for make in (w_state, ghz_state):
            assert pairwise_concurrences(make(support_basis(n))) == pairwise_concurrences(
                make(qubit_basis(n))
            )

    def test_reaches_beyond_the_full_space_limit(self):
        n = 20  # the full space would hold 2 * 2^20 states
        c = pairwise_concurrences(w_state(support_basis(n)))
        assert len(c) == n * (n - 1) // 2
        assert all(v == pytest.approx(2.0 / n, abs=1e-12) for v in c.values())
        assert all(v == 0.0 for v in pairwise_concurrences(ghz_state(support_basis(n))).values())

    def test_refuses_one_mode(self):
        with pytest.raises(ValueError, match="n >= 2"):
            support_basis(1)

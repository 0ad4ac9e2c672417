import math

import numpy as np
import pytest

from wcavity.fock import (
    AtomLevel,
    BasisState,
    StateVector,
    atom_population,
    build_basis,
    initial_state,
    inner_product,
    require_full_dimension,
    state_from_dict,
    state_to_dict,
)


def g(*occ):
    return BasisState(AtomLevel.GROUND, tuple(occ))


def e(*occ):
    return BasisState(AtomLevel.EXCITED, tuple(occ))


class TestBuildBasis:
    def test_single_mode_single_excitation(self):
        basis = build_basis(n_modes=1, n_max=1, excitation_cap=1)
        assert basis.states == (g(0), g(1), e(0))

    def test_three_modes_single_excitation(self):
        basis = build_basis(n_modes=3, n_max=1, excitation_cap=1)
        assert basis.dim == 5
        assert set(basis.states) == {g(0, 0, 0), g(1, 0, 0), g(0, 1, 0), g(0, 0, 1), e(0, 0, 0)}
        # ground block first, then the excited block
        assert basis.states[0] == g(0, 0, 0)
        assert basis.states[-1] == e(0, 0, 0)

    def test_two_modes_uncapped(self):
        basis = build_basis(n_modes=2, n_max=1)
        assert basis.dim == 8  # 2 atom levels x 2^2 occupations

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_single_excitation_dimension(self, n):
        assert build_basis(n, n_max=1, excitation_cap=1).dim == n + 2

    def test_index_round_trip(self):
        for basis in (
            build_basis(3, 1, 1),
            build_basis(2, 2, None),
            build_basis(4, 1, 2),
            build_basis(2, 3, 3),
        ):
            for k, state in enumerate(basis.states):
                assert basis.index[state] == k

    def test_cap_filters_total_excitation(self):
        basis = build_basis(3, n_max=2, excitation_cap=2)
        assert all(s.total_excitation <= 2 for s in basis.states)
        # brute-force count over the full product space
        expected = sum(
            1
            for atom in (0, 1)
            for occ in np.ndindex(3, 3, 3)
            if atom + sum(occ) <= 2
        )
        assert basis.dim == expected

    def test_deterministic_ordering(self):
        assert build_basis(3, 2, 2).states == build_basis(3, 2, 2).states

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            build_basis(0, 1, 1)

    def test_rejects_oversized_space(self):
        with pytest.raises(ValueError, match="truncation too large"):
            build_basis(14, n_max=1)  # 2^15 > 16384
        with pytest.raises(ValueError, match="truncation too large"):
            build_basis(9, n_max=2, excitation_cap=18)  # 2 * 3^9 > 16384

    def test_dimension_limit_is_inclusive(self):
        assert build_basis(13, n_max=1).dim == 16384

    def test_large_mode_count_with_cap(self):
        basis = build_basis(2000, n_max=1, excitation_cap=1)
        assert basis.dim == 2002

    def test_full_dimension_without_enumeration(self):
        assert require_full_dimension(13, 1) == 16384 == build_basis(13, n_max=1).dim
        assert require_full_dimension(4, 2) == build_basis(4, n_max=2).dim
        with pytest.raises(ValueError, match="truncation too large"):
            require_full_dimension(14, 1)

    def test_levels_table_matches_states(self):
        for basis in (build_basis(3, 2), build_basis(4, 1, excitation_cap=2)):
            levels = basis.levels
            assert levels.shape == (basis.dim, basis.n_modes + 1)
            assert [tuple(row) for row in levels.tolist()] == [
                (int(s.atom), *s.occupations) for s in basis.states
            ]
            assert basis.levels is levels  # built once per basis
            assert not levels.flags.writeable


class TestStateVector:
    def test_initial_state_three_modes(self):
        basis = build_basis(3, 1, 1)
        psi = initial_state(basis)
        assert psi.amplitude(e(0, 0, 0)) == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_initial_state_one_mode(self):
        basis = build_basis(1, 1, 1)
        psi = initial_state(basis)
        assert psi.amplitude(e(0)) == 1.0

    def test_initial_state_is_normalized(self):
        psi = initial_state(build_basis(4, 1, 1))
        assert psi.norm() == pytest.approx(1.0, abs=1e-15)

    def test_initial_state_requires_excited_atom(self):
        basis = build_basis(2, 1, excitation_cap=0)
        with pytest.raises(ValueError):
            initial_state(basis)

    def test_rejects_unnormalized(self):
        basis = build_basis(1, 1, 1)
        with pytest.raises(ValueError, match="norm"):
            StateVector(basis, [0.5, 0.0, 0.0])

    def test_rejects_wrong_length(self):
        basis = build_basis(1, 1, 1)
        with pytest.raises(ValueError):
            StateVector(basis, [1.0, 0.0])

    def test_immutable(self):
        psi = initial_state(build_basis(1, 1, 1))
        with pytest.raises((ValueError, AttributeError)):
            psi.amplitudes[0] = 0.0

    def test_randomized_constructor_norm_invariant(self):
        rng = np.random.default_rng(7)
        basis = build_basis(3, 1, None)
        for _ in range(25):
            raw = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            psi = StateVector(basis, raw / np.linalg.norm(raw))
            assert abs(psi.norm() - 1.0) <= 1e-12


class TestInnerProduct:
    def test_self_overlap_is_one(self):
        rng = np.random.default_rng(3)
        basis = build_basis(2, 1, None)
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = StateVector(basis, raw / np.linalg.norm(raw))
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_basis_states(self):
        basis = build_basis(3, 1, 1)
        a = np.zeros(5, complex)
        a[basis.index[e(0, 0, 0)]] = 1.0
        b = np.zeros(5, complex)
        b[basis.index[g(1, 0, 0)]] = 1.0
        assert inner_product(StateVector(basis, a), StateVector(basis, b)) == 0.0

    def test_w3_overlap_against_brute_force(self):
        # <W_3 | phi> with phi = (|100> + |010>)/sqrt(2), atom ground in both
        basis = build_basis(3, 1, 1)
        w = np.zeros(5, complex)
        for s in (g(1, 0, 0), g(0, 1, 0), g(0, 0, 1)):
            w[basis.index[s]] = 1 / math.sqrt(3)
        phi = np.zeros(5, complex)
        for s in (g(1, 0, 0), g(0, 1, 0)):
            phi[basis.index[s]] = 1 / math.sqrt(2)
        # independent oracle: explicit summation over basis positions
        brute = sum(w[k].conjugate() * phi[k] for k in range(5))
        expected = math.sqrt(2.0 / 3.0)
        assert brute == pytest.approx(expected, abs=1e-15)
        got = inner_product(StateVector(basis, w), StateVector(basis, phi))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(11)
        basis = build_basis(2, 2, None)
        for _ in range(20):
            ra = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            rb = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            a = StateVector(basis, ra / np.linalg.norm(ra))
            b = StateVector(basis, rb / np.linalg.norm(rb))
            assert inner_product(a, b) == pytest.approx(
                inner_product(b, a).conjugate(), abs=1e-12
            )

    def test_basis_mismatch(self):
        a = initial_state(build_basis(2, 1, 1))
        b = initial_state(build_basis(3, 1, 1))
        with pytest.raises(ValueError, match="different bases"):
            inner_product(a, b)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        basis = build_basis(3, 1, 1)
        raw = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        psi = StateVector(basis, raw / np.linalg.norm(raw))
        back = state_from_dict(state_to_dict(psi))
        assert back.basis == psi.basis
        np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)

    def test_schema_shape(self):
        psi = initial_state(build_basis(2, 1, 1))
        data = state_to_dict(psi)
        assert data["basis"] == {"n_modes": 2, "n_max": 1, "excitation_cap": 1}
        assert all(len(pair) == 2 for pair in data["amplitudes"])
        assert data["amplitudes"][psi.basis.index[e(0, 0)]] == [1.0, 0.0]

    def test_uncapped_round_trip(self):
        psi = initial_state(build_basis(2, 1, None))
        data = state_to_dict(psi)
        assert data["basis"]["excitation_cap"] is None
        assert state_from_dict(data).basis == psi.basis


def test_atom_population_splits_by_level():
    basis = build_basis(2, 1, 1)
    amps = np.zeros(4, complex)
    amps[basis.index[e(0, 0)]] = math.sqrt(0.25)
    amps[basis.index[g(1, 0)]] = math.sqrt(0.5)
    amps[basis.index[g(0, 1)]] = math.sqrt(0.25)
    psi = StateVector(basis, amps)
    assert atom_population(psi, AtomLevel.GROUND) == pytest.approx(0.75, abs=1e-12)
    assert atom_population(psi, AtomLevel.EXCITED) == pytest.approx(0.25, abs=1e-12)


def test_basis_state_labels():
    assert g(1, 0, 0).label() == "|g;100>"
    assert e(0).label() == "|e;0>"
    assert g(0, 12).label() == "|g;0,12>"

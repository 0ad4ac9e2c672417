import numpy as np
import pytest

from wcavity.entanglement import support_basis
from wcavity.fock import StateVector, build_basis, initial_state
from wcavity.sector import MAX_MODES

from codes import digits, e, g
from qubit_space import qubit_basis


class TestBuildBasis:
    def test_single_mode_single_excitation(self):
        basis = build_basis(n_modes=1)
        assert basis.codes == (g(0), g(1), e(0)) == (0, 1, 2)

    def test_three_modes_single_excitation(self):
        basis = build_basis(n_modes=3)
        assert basis.dim == 5
        assert basis.codes == (g(0, 0, 0), g(0, 0, 1), g(0, 1, 0), g(1, 0, 0), e(0, 0, 0))

    @pytest.mark.parametrize("n_modes", range(1, 8))
    def test_codes_are_the_ascending_codes_of_at_most_one_excitation(self, n_modes):
        """The sector is the ascending codes of the qubit space,
        0 .. 2 * 2^N - 1, with at most one set bit."""
        assert build_basis(n_modes).codes == tuple(
            code for code in range(2 * 2**n_modes) if bin(code).count("1") <= 1
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_single_excitation_dimension(self, n):
        assert build_basis(n).dim == n + 2

    def test_index_round_trip(self):
        for basis in (
            build_basis(3),
            qubit_basis(2),
            qubit_basis(5),
            build_basis(40),
        ):
            for k, code in enumerate(basis.codes):
                assert basis.index[code] == k
            with pytest.raises(TypeError):  # equal bases hold equal indexes: read-only
                basis.index[basis.codes[0]] = 1

    def test_cap_filters_total_excitation(self):
        basis = build_basis(4)
        assert all(sum(digits(code, 4)) <= 1 for code in basis.codes)
        # brute-force count over the full product space
        expected = sum(
            1
            for atom in (0, 1)
            for occ in np.ndindex(2, 2, 2, 2)
            if atom + sum(occ) <= 1
        )
        assert basis.dim == expected

    def test_deterministic_ordering(self):
        assert build_basis(4).codes == build_basis(4).codes

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            build_basis(0)

    def test_has_no_photon_number_truncation(self):
        """Every mode is a qubit and the sector is the one space built:
        there is no n_max or excitation cap to pass, and no alias of
        either is taken in silence."""
        with pytest.raises(TypeError):
            build_basis(3, n_max=1)
        with pytest.raises(TypeError):
            build_basis(3, excitation_cap=1)
        with pytest.raises(TypeError):
            build_basis(3, 1)

    def test_builds_a_new_equal_basis_on_each_call(self):
        basis = build_basis(3)
        assert build_basis(3) == basis and build_basis(3) is not basis
        assert hash(build_basis(3)) == hash(basis)
        assert build_basis(4) != basis

    def test_a_basis_is_its_mode_count_and_its_codes(self):
        basis = build_basis(3)
        assert basis.__slots__ == ("n_modes", "codes", "index")
        assert not hasattr(basis, "__dict__")

    @pytest.mark.parametrize("n_modes", [True, False, 3.0, 1.0, -1, "3", 0, None,
                                         np.float64(2.0), np.bool_(True)])
    def test_refuses_a_non_integer_or_a_bool(self, n_modes):
        with pytest.raises(ValueError, match="integer"):
            build_basis(n_modes)

    @pytest.mark.parametrize("n_modes", [np.int64(3), np.uint8(3), np.intp(3)])
    def test_takes_a_numpy_integer_as_its_int(self, n_modes):
        basis = build_basis(n_modes)
        assert basis == build_basis(3) and type(basis.n_modes) is int

    def test_mode_limit_is_inclusive(self):
        basis = build_basis(MAX_MODES)
        assert basis.dim == MAX_MODES + 2 == 1024
        assert basis.codes[-1] == 2**MAX_MODES  # an exact int at any N
        with pytest.raises(ValueError, match="n_modes is above the limit of 1022 modes"):
            build_basis(MAX_MODES + 1)


class TestStateVector:
    def test_initial_state_three_modes(self):
        basis = build_basis(3)
        psi = initial_state(basis)
        assert psi.amplitude(e(0, 0, 0)) == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1

    def test_initial_state_one_mode(self):
        basis = build_basis(1)
        psi = initial_state(basis)
        assert psi.amplitude(e(0)) == 1.0

    def test_initial_state_is_normalized(self):
        psi = initial_state(build_basis(4))
        assert psi.norm() == pytest.approx(1.0, abs=1e-15)

    def test_initial_state_requires_excited_atom(self):
        with pytest.raises(ValueError, match=r"excited-atom vacuum"):
            initial_state(support_basis(2))  # the field states only

    def test_rejects_unnormalized(self):
        basis = build_basis(1)
        with pytest.raises(ValueError, match="norm"):
            StateVector(basis, [0.5, 0.0, 0.0])

    def test_rejects_wrong_length(self):
        basis = build_basis(1)
        with pytest.raises(ValueError):
            StateVector(basis, [1.0, 0.0])

    def test_immutable(self):
        psi = initial_state(build_basis(1))
        with pytest.raises((ValueError, AttributeError)):
            psi.amplitudes[0] = 0.0

    def test_constructor_copies(self):
        basis = build_basis(1)
        amps = np.array([0.0, 1.0, 0.0], dtype=complex)
        psi = StateVector(basis, amps)
        assert amps.flags.writeable and not psi.amplitudes.flags.writeable
        amps[1] = 0.0  # a later write to the input leaves the state as it was
        assert psi.amplitude(g(1)) == 1.0

    def test_randomized_constructor_norm_invariant(self):
        rng = np.random.default_rng(7)
        basis = qubit_basis(3)
        for _ in range(25):
            raw = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
            psi = StateVector(basis, raw / np.linalg.norm(raw))
            assert abs(psi.norm() - 1.0) <= 1e-12


def test_basis_labels_its_codes():
    assert qubit_basis(3).label(g(1, 0, 0)) == "|g;100>"
    assert build_basis(3).label(0b0010) == "|g;010>"
    assert build_basis(1).label(e(0)) == "|e;0>"


def test_state_vector_holds_one_state():
    basis = build_basis(2)
    with pytest.raises(ValueError, match=r"shape \(3, 4\), basis has dimension 4"):
        StateVector(basis, np.eye(basis.dim, dtype=complex)[:3])

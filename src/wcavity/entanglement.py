"""Target states, overlap scores, partial trace, and pairwise concurrence.

Field modes are treated as qubits (n_max = 1); the atom counts as
subsystem 0 so that partial-trace indexing is uniform across atom and
modes.  Everything here is a pure function.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .dynamics import HERMITICITY_TOL
from .fock import (
    AtomLevel,
    Basis,
    BasisState,
    StateVector,
    _require_same_basis,
    inner_product,
    vacuum_occupations,
)

TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


class DensityMatrix:
    """Reduced state over a subset of subsystems (each a qubit).

    ``subsystem_labels`` lists the retained subsystems in ascending order
    (0 = atom, i = mode i); the first label is the most significant bit of
    the row/column index.  The constructor enforces Hermiticity, unit
    trace, and positivity up to rounding.
    """

    __slots__ = ("subsystem_labels", "matrix")

    def __init__(self, subsystem_labels, matrix) -> None:
        labels = tuple(int(s) for s in subsystem_labels)
        mat = np.array(matrix, dtype=complex)
        dim = 2 ** len(labels)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not fit {len(labels)} qubits")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {trace!r} deviates from 1")
        if float(np.min(np.linalg.eigvalsh(mat))) < EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        mat.flags.writeable = False
        object.__setattr__(self, "subsystem_labels", labels)
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def _lookup(basis: Basis, state: BasisState, why: str) -> int:
    pos = basis.index.get(state)
    if pos is None:
        raise ValueError(f"basis too small: missing {state.label()} ({why})")
    return pos


def w_state(n: int, basis: Basis) -> StateVector:
    """|W_n> on the field with the atom in the ground state.

    Equal real amplitudes 1/sqrt(n) on each |g; 1_i>; the single shared
    excitation survives the loss of any one mode.
    """
    if n != basis.n_modes:
        raise ValueError(f"requested W state over {n} modes on a {basis.n_modes}-mode basis")
    amps = np.zeros(basis.dim, dtype=complex)
    vacuum = vacuum_occupations(n)
    for i in range(n):
        occ = list(vacuum)
        occ[i] = 1
        state = BasisState(AtomLevel.GROUND, tuple(occ))
        amps[_lookup(basis, state, "single-photon component")] = 1.0 / math.sqrt(n)
    return StateVector(basis, amps)


def ghz_state(n: int, basis: Basis) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on the field, atom in the ground state."""
    if n != basis.n_modes:
        raise ValueError(f"requested GHZ state over {n} modes on a {basis.n_modes}-mode basis")
    if basis.excitation_cap is not None and basis.excitation_cap < n:
        raise ValueError(
            f"basis excitation cap {basis.excitation_cap} below {n}: cannot hold |1...1>"
        )
    amps = np.zeros(basis.dim, dtype=complex)
    zeros = BasisState(AtomLevel.GROUND, vacuum_occupations(n))
    ones = BasisState(AtomLevel.GROUND, (1,) * n)
    amps[_lookup(basis, zeros, "all-vacuum component")] = 1.0 / math.sqrt(2.0)
    amps[_lookup(basis, ones, "all-ones component")] = 1.0 / math.sqrt(2.0)
    return StateVector(basis, amps)


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|^2, clipped into [0, 1] against rounding."""
    _require_same_basis(psi, phi)
    overlap = abs(inner_product(psi, phi)) ** 2
    return float(min(max(overlap, 0.0), 1.0))


def success_probability(psi: StateVector, n: int) -> float:
    """Probability of the atom-ground, field-W outcome: |<W_n, g|psi>|^2."""
    return fidelity(w_state(n, psi.basis), psi)


def partial_trace(psi: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state over the kept subsystems.

    Parameters
    ----------
    psi : StateVector
        Pure state on a basis with n_max = 1 (every subsystem a qubit).
    keep : iterable of int
        Subsystem indices to retain: 0 is the atom, 1..N the modes.

    The complementary subsystems are summed out in the occupation basis:
    entries of the reduced matrix accumulate products of amplitudes whose
    discarded configurations coincide.  Basis states absent from a capped
    basis carry zero amplitude.
    """
    basis = psi.basis
    if basis.n_max != 1:
        raise ValueError("partial trace requires n_max = 1 (qubit subsystems)")
    labels = sorted({int(s) for s in keep})
    if not labels:
        raise ValueError("keep set must not be empty")
    if labels[0] < 0 or labels[-1] > basis.n_modes:
        raise ValueError(f"subsystem indices must lie in 0..{basis.n_modes}")

    # row g of M holds the amplitudes of the states whose discarded
    # subsystems share configuration g, at their kept index; then
    # rho[r, c] = sum_g M[g, r] M[g, c]^*.  Zero amplitudes add nothing,
    # and W and GHZ states occupy only a few basis states.
    occupied = np.flatnonzero(psi.amplitudes)
    levels = basis.levels[occupied]
    kept_index = levels[:, labels] @ (1 << np.arange(len(labels) - 1, -1, -1))
    # packed bits keep the group key exact however many subsystems are
    # discarded, where an int64 key would overflow past 63
    packed = np.ascontiguousarray(
        np.packbits(np.delete(levels, labels, axis=1).astype(bool), axis=1)
    )
    if packed.shape[1]:
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, group = np.unique(keys, return_inverse=True)
    else:
        group = np.zeros(len(occupied), dtype=np.intp)
    M = np.zeros((int(group.max()) + 1, 2 ** len(labels)), dtype=complex)
    M[group, kept_index] = psi.amplitudes[occupied]
    rho = M.T @ M.conj()
    return DensityMatrix(labels, rho)


#: Eigenvalues below this fraction of the spectral radius are treated as
#: exact zeros; sqrt would otherwise amplify their rounding noise from
#: ~1e-16 to ~1e-8 on rank-deficient reduced states.
_SPECTRAL_FLOOR = 1e-13


def _floored_eigenvalues(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(matrix)
    cut = _SPECTRAL_FLOOR * max(float(vals[-1]), 0.0)
    return np.where(vals > cut, vals, 0.0), vecs


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = _floored_eigenvalues(matrix)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence: 0 for separable states, 1 for Bell states.

    Computed as max(0, l1 - l2 - l3 - l4) where the l_k are the descending
    square roots of the eigenvalues of rho * (sy x sy) rho^* (sy x sy).
    The eigenvalues are extracted from the Hermitian similarity form
    sqrt(rho) rho~ sqrt(rho), symmetrized before decomposition to suppress
    rounding asymmetry.
    """
    if rho.matrix.shape != (4, 4):
        raise ValueError("concurrence is defined for two-qubit states (4x4 matrices)")
    flip = np.kron(_SIGMA_Y, _SIGMA_Y)
    rho_tilde = flip @ rho.matrix.conj() @ flip
    root = _psd_sqrt(rho.matrix)
    core = root @ rho_tilde @ root
    core = (core + core.conj().T) / 2.0
    vals, _ = _floored_eigenvalues(core)
    lams = np.sqrt(vals)[::-1]
    value = lams[0] - lams[1] - lams[2] - lams[3]
    return float(min(max(value, 0.0), 1.0))


def pairwise_concurrences(psi: StateVector) -> dict[tuple[int, int], float]:
    """Concurrence of every two-mode reduction of the given pure state."""
    n = psi.basis.n_modes
    return {
        (i, j): concurrence(partial_trace(psi, {i, j}))
        for i, j in itertools.combinations(range(1, n + 1), 2)
    }

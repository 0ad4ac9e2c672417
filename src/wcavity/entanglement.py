"""Target states, overlap scores, partial trace, and pairwise concurrence.

Field modes are qubits (at most one photon each); the atom counts as
subsystem 0 so that partial-trace indexing is uniform across atom and
modes.  States are placed and grouped by their codes, the rule of the
``fock`` module docstring, in which subsystem s is bit N - s.  Everything
here is a pure function.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .dynamics import hermiticity_defect
from .fock import Basis, Frozen, StateVector, _require_same_basis
from .sector import ROUNDING_TOL


class DensityMatrix(Frozen):
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
        if hermiticity_defect(mat) > ROUNDING_TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > ROUNDING_TOL:
            raise ValueError(f"density matrix trace {trace!r} deviates from 1")
        if float(np.min(np.linalg.eigvalsh(mat))) < -ROUNDING_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        mat.flags.writeable = False
        object.__setattr__(self, "subsystem_labels", labels)
        object.__setattr__(self, "matrix", mat)


def support_basis(n: int) -> Basis:
    """The N + 2 states that W_n and GHZ_n occupy, atom in the ground
    state: the vacuum, each |g; 1_i>, and |g; 1...1>, which are the codes
    0, 1, 2, 4, ..., 2^(N - 1) and 2^N - 1 of ``fock``'s rule, ascending as
    in the full basis.  Both states and their reductions are exact on it,
    with N + 2 states where the full space has 2 * 2^N."""
    if n < 2:
        raise ValueError(f"the W and GHZ support needs n >= 2, got {n!r}")
    return Basis(n, (0, *(1 << i for i in range(n)), (1 << n) - 1))


def _superposition(basis: Basis, codes: tuple[int, ...], why: str) -> StateVector:
    """Equal real amplitudes 1/sqrt(len(codes)) on the states of ``codes``;
    ValueError naming the first that ``basis`` lacks."""
    amps = np.zeros(basis.dim, dtype=complex)
    for code in codes:
        if code not in basis.index:
            raise ValueError(f"basis too small: missing {basis.label(code)} ({why})")
        amps[basis.index[code]] = 1.0 / math.sqrt(len(codes))
    return StateVector(basis, amps)


def w_state(basis: Basis) -> StateVector:
    """|W_n> on the field with the atom in the ground state, n the
    basis's ``n_modes``.

    Equal real amplitudes 1/sqrt(n) on each |g; 1_i>, of code 2^(n - i);
    the single shared excitation survives the loss of any one mode.
    """
    n = basis.n_modes
    return _superposition(basis, tuple(1 << n - i for i in range(1, n + 1)),
                          "single-photon component")


def ghz_state(basis: Basis) -> StateVector:
    """(|0...0> + |1...1>)/sqrt(2) on the field, atom in the ground state:
    the codes 0 and 2^n - 1, n the basis's ``n_modes``; ValueError
    naming |g;1...1> on a basis that lacks it, such as the sector's."""
    return _superposition(basis, (0, (1 << basis.n_modes) - 1), "GHZ component")


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|^2, clipped into [0, 1] against rounding."""
    _require_same_basis(psi, phi)
    return float(np.clip(np.abs(np.conj(psi.amplitudes) @ phi.amplitudes) ** 2, 0.0, 1.0))


def success_probability(psi: StateVector) -> float:
    """Probability of the atom-ground, field-W outcome: |<W_n, g|psi>|^2,
    n the number of modes of psi's basis."""
    return fidelity(w_state(psi.basis), psi)


def partial_trace(psi: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state over the kept subsystems.

    Parameters
    ----------
    psi : StateVector
        Pure state (every subsystem a qubit).
    keep : iterable of int
        Subsystem indices to retain: 0 is the atom, 1..N the modes.

    The complementary subsystems are summed out in the occupation basis:
    entries of the reduced matrix accumulate products of amplitudes whose
    discarded configurations coincide.  Basis states absent from a
    partial basis carry zero amplitude.
    """
    basis = psi.basis
    labels = sorted({int(s) for s in keep})
    if not labels:
        raise ValueError("keep set must not be empty")
    if labels[0] < 0 or labels[-1] > basis.n_modes:
        raise ValueError(f"subsystem indices must lie in 0..{basis.n_modes}")

    # row g of M holds the amplitudes of the states whose discarded
    # subsystems share configuration g, at their kept index; then
    # rho[r, c] = sum_g M[g, r] M[g, c]^*.  Zero amplitudes add nothing,
    # and W and GHZ states occupy only a few basis states.  Subsystem s is
    # bit N - s of a code: its kept bits give its kept index, the first
    # label most significant, and a configuration g is the code with the
    # kept bits cleared, exact ints at any N; groups are numbered ascending.
    occupied = np.flatnonzero(psi.amplitudes)
    bits = [1 << basis.n_modes - s for s in labels]
    kept_mask = sum(bits)
    place = {sum(itertools.compress(bits, kept)): r
             for r, kept in enumerate(itertools.product((0, 1), repeat=len(bits)))}
    codes = [basis.codes[k] for k in occupied.tolist()]
    keys = [code & ~kept_mask for code in codes]
    group = {key: g for g, key in enumerate(sorted(set(keys)))}
    M = np.zeros((len(group), 2 ** len(labels)), dtype=complex)
    kept_index = [place[code & kept_mask] for code in codes]
    M[[group[key] for key in keys], kept_index] = psi.amplitudes[occupied]
    return DensityMatrix(labels, M.T @ M.conj())


#: Eigenvalues below this fraction of the spectral radius are treated as
#: exact zeros; sqrt would otherwise amplify their rounding noise from
#: ~1e-16 to ~1e-8 on rank-deficient reduced states.
_SPECTRAL_FLOOR = 1e-13

#: sigma_y (x) sigma_y, the spin flip of two qubits.
_FLIP = np.kron([[0.0, -1j], [1j, 0.0]], [[0.0, -1j], [1j, 0.0]])
_FLIP.flags.writeable = False


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
    rho_tilde = _FLIP @ rho.matrix.conj() @ _FLIP
    root = _psd_sqrt(rho.matrix)
    core = root @ rho_tilde @ root
    core = (core + core.conj().T) / 2.0
    vals, _ = _floored_eigenvalues(core)
    lams = np.sqrt(vals)[::-1]
    return float(min(max(lams[0] - lams[1] - lams[2] - lams[3], 0.0), 1.0))


def pairwise_concurrences(psi: StateVector) -> dict[tuple[int, int], float]:
    """Concurrence of every two-mode reduction of the given pure state,
    keyed by mode pair (i, j), i < j, in lexicographic order."""
    return {
        (i, j): concurrence(partial_trace(psi, {i, j}))
        for i, j in itertools.combinations(range(1, psi.basis.n_modes + 1), 2)
    }

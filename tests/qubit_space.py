"""The qubit space of the atom and N modes, every code 0 .. 2 * 2^N - 1
of the ``fock`` module docstring, and its Hamiltonian by a per-state
loop: the space of the dense oracle in the tests.  ``fock.build_basis``
builds only the one-excitation sector, and ``dynamics.build_hamiltonian``
only H there."""

import functools

import numpy as np

from wcavity.dynamics import HermitianOperator
from wcavity.fock import Basis

from codes import digits, exchange_pairs


@functools.lru_cache(maxsize=None)
def qubit_basis(n_modes: int) -> Basis:
    """The basis of every state of the atom and ``n_modes`` qubit modes,
    of dimension 2 * 2^N, built once per N."""
    return Basis(n_modes, tuple(range(2 << n_modes)))


def reference_hamiltonian(basis, *, couplings, detunings, lab=None):
    """The matrix of H on ``basis`` by a per-state loop over the digits of
    each code: each state's photons put their modes' detunings, summed in
    mode order, on the diagonal, and each exchange |g, n> -> |e, n - 1_i>
    that ``basis`` holds puts eps_i between the two states.  A transition
    that would put a second photon in a mode is dropped.  With ``lab`` =
    (omega_a, omega_modes), the lab-frame H of those frequencies and the
    couplings instead: omega_a s_z + sum_i omega_i n_i, with s_z = +-1/2,
    on the diagonal."""
    dim = basis.dim
    matrix = np.zeros((dim, dim), dtype=complex)
    states = [digits(code, basis.n_modes) for code in basis.codes]
    for k, (atom, *occupations) in enumerate(states):
        if lab is None:
            diag = sum(d * n for d, n in zip(detunings, occupations))
        else:
            omega_a, omega_modes = lab
            s_z = 0.5 if atom == 1 else -0.5
            diag = omega_a * s_z + sum(w * n for w, n in zip(omega_modes, occupations))
        matrix[k, k] = diag
    for k, partner, i in exchange_pairs(basis):
        matrix[partner, k] += couplings[i]
        matrix[k, partner] += couplings[i]
    return matrix


def qubit_hamiltonian(*, couplings, detunings) -> HermitianOperator:
    """H of the ``couplings`` and ``detunings``, one of each per mode, on
    the whole qubit space ``qubit_basis(N)``, by the per-state loop."""
    basis = qubit_basis(len(couplings))
    return HermitianOperator(
        basis, reference_hamiltonian(basis, couplings=couplings, detunings=detunings))

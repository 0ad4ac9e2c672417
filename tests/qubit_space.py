"""The qubit space of the atom and N modes, every code 0 .. 2 * 2^N - 1
of the ``fock`` module docstring: the space of the dense oracle in the
tests.  ``fock.build_basis`` builds only the one-excitation sector."""

import functools

from wcavity.fock import Basis


@functools.lru_cache(maxsize=None)
def qubit_basis(n_modes: int) -> Basis:
    """The basis of every state of the atom and ``n_modes`` qubit modes,
    of dimension 2 * 2^N, built once per N."""
    return Basis(n_modes, tuple(range(2 << n_modes)))

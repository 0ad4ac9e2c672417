"""Atom-field Hamiltonian and time evolution (hbar = 1 throughout).

Two independent evolution routes are provided on purpose:

* the closed form of the resonant exchange dynamics that starts from the
  excited-atom vacuum state (``sector.closed_form``, as a state vector),
  and
* a dense numerical propagator built from the spectral decomposition of
  the (Hermitian) Hamiltonian.

The two must agree to tight tolerance; the numerical route serves as the
correctness oracle for the closed form and vice versa.  Every route
takes one operator, one state and one time, and each propagation runs
one ``eigh``.  ``build_hamiltonian`` builds H on the one-excitation
sector of ``fock.build_basis``, where one excited atom and N empty modes
stay, as in the paper's protocol; an operator on any other basis is a
``HermitianOperator`` of a matrix built by hand.

The inputs are plain sequences, one entry per mode, in rad per unit
time: the couplings eps_i > 0 and the detunings delta_i = omega_i -
omega_a, in the interaction frame that rotates at the atomic frequency.
"""

from __future__ import annotations

import math

import numpy as np

from . import sector
from .fock import ROUNDING_TOL, Basis, Frozen, StateVector, _require_same_basis, build_basis
from .sector import PropagationError


def hermiticity_defect(matrix) -> float:
    """max |H - H^dag| of a square matrix."""
    gap = np.conj(matrix.T)
    gap -= matrix  # in place: one temporary matrix, and |H^dag - H| = |H - H^dag|
    return float(np.abs(gap).max(initial=0.0))


class HermitianOperator(Frozen):
    """Dense (dim, dim) matrix observable on a truncated basis; validated
    Hermitian.

    The constructor checks the matrix's shape, finiteness and Hermiticity,
    then copies it and marks the copy read-only.  ``defect`` keeps the
    measured max |H - H^dag|.
    """

    __slots__ = ("basis", "matrix", "defect")

    def __init__(self, basis: Basis, matrix) -> None:
        # checked before the copy: the input, the copy and the Hermiticity gap never coexist
        mat = np.asarray(matrix, dtype=complex)
        if mat.shape != (basis.dim, basis.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match basis dimension {basis.dim}")
        if not np.isfinite(mat).all():
            raise ValueError("operator entries must be finite")
        defect = hermiticity_defect(mat)
        if defect > ROUNDING_TOL:
            raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {defect:.3e}")
        mat = mat.copy()
        mat.flags.writeable = False
        for name, value in (("basis", basis), ("matrix", mat), ("defect", defect)):
            object.__setattr__(self, name, value)


def build_hamiltonian(*, couplings, detunings) -> HermitianOperator:
    """Assemble the atom-field Hamiltonian on the N + 2 states of
    ``build_basis(N)``, N the number of couplings, in the interaction frame::

        H = sum_i delta_i * n_i + sum_i eps_i * (a_i s_+ + a_i^dag s_-)

    with eps_i the ``couplings`` and delta_i the ``detunings``, one of each
    per mode (ValueError for unequal counts, a non-finite value or a
    coupling that is not positive); at resonance only the exchange term
    survives.  On the sector H is an arrowhead: mode i's detuning, as
    0.0 + delta_i, on the diagonal at |g;1_i>, index N + 1 - i, and its
    coupling between that state and |e;0>, index N + 1.
    """
    if len(couplings) != len(detunings):
        raise ValueError(f"one detuning per coupling: got {len(couplings)} couplings "
                         f"and {len(detunings)} detunings")
    if not all(math.isfinite(v) for v in (*detunings, *couplings)):
        raise ValueError("model parameters must be finite")
    if any(c <= 0 for c in couplings):
        raise ValueError("couplings must be strictly positive")
    basis = build_basis(len(couplings))
    excited = basis.n_modes + 1
    matrix = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i, (detuning, coupling) in enumerate(zip(detunings, couplings), start=1):
        k = excited - i
        matrix[k, k] = 0.0 + detuning
        matrix[k, excited] = matrix[excited, k] = coupling
    return HermitianOperator(basis, matrix)


def evolve_closed_form(couplings, t: float) -> StateVector:
    """Resonant interaction-frame evolution of the excited-atom vacuum,
    for any positive couplings, one per mode: the ``sector.closed_form``
    pair of their ``sector.bright_mode``, spread by ``sector.amplitudes``
    onto ``build_basis(N)``, whose order is the sector's.

    With Omega = sqrt(sum_i eps_i^2) the excited amplitude is cos(Omega t)
    and mode i carries -i (eps_i / Omega) sin(Omega t): only the coupling-
    weighted symmetric photon combination is ever populated.  Equal
    couplings give cos(sqrt(N) eps t) and -i sin(sqrt(N) eps t)/sqrt(N).
    A detuned evolution is ``propagate_numeric``'s.
    """
    mode = sector.bright_mode(couplings)
    amps = sector.amplitudes(mode, sector.closed_form(mode, t))
    return StateVector(build_basis(len(couplings)), amps)


# The benchmark's traced run (perfbench/spans.py) still looks this name up.
evolve_closed_form_general = evolve_closed_form


def propagate_numeric(H: HermitianOperator, psi0: StateVector, t: float) -> StateVector:
    """Evolve psi0 by exp(-i H t) for one time t (which may be negative).

    The eigenphases of H's spectral decomposition, from one
    ``numpy.linalg.eigh`` of ``H.matrix`` per call, are applied exactly,
    so the propagator is unitary up to rounding.  The state is
    renormalized only when its norm drift is at most ``ROUNDING_TOL``, the
    drift that ``StateVector`` admits; a larger drift raises
    :class:`PropagationError`, as do non-finite amplitudes.  H must share
    psi0's basis, and t must be finite (ValueError).
    """
    _require_same_basis(H, psi0)
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t!r}")
    eigvals, eigvecs = np.linalg.eigh(H.matrix)
    with np.errstate(invalid="ignore", over="ignore"):
        phases = np.exp(-1j * eigvals * t)
        coeffs = eigvecs.conj().T @ psi0.amplitudes  # eigvecs^dag psi0
        out = (phases * coeffs) @ eigvecs.T
    if not np.isfinite(out).all():
        raise PropagationError("propagation produced non-finite amplitudes (parameter overflow)")
    # by axis=-1: numpy's plain norm of a 1-D array takes its dot product,
    # which rounds otherwise and moves the gaps that validate prints
    norm = np.linalg.norm(out, axis=-1)
    drift = float(abs(norm - 1.0))
    if drift > ROUNDING_TOL:
        raise PropagationError(
            f"norm drift {drift:.3e} exceeds {ROUNDING_TOL}: propagator defect"
        )
    out /= norm
    return StateVector(psi0.basis, out)

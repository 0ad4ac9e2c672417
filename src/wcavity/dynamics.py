"""Atom-field Hamiltonian and time evolution (hbar = 1 throughout).

Two independent evolution routes are provided on purpose:

* the closed form of the resonant exchange dynamics that starts from the
  excited-atom vacuum state (``sector.closed_form``, as a state vector),
  and
* a dense numerical propagator built from the spectral decomposition of
  the (Hermitian) Hamiltonian.

The two must agree to tight tolerance; the numerical route serves as the
correctness oracle for the closed form and vice versa.  Every route
takes one operator, one state and one time; an operator keeps its
decomposition after the first use, so one Hamiltonian evolved to any
number of times costs one ``eigh``.  Each mode is a qubit, as in the
paper's protocol, where one excitation spreads over empty modes.
"""

from __future__ import annotations

import math

import numpy as np

from . import sector
from .fock import ROUNDING_TOL, Basis, Frozen, StateVector, Value, _require_same_basis, build_basis
from .sector import PropagationError

class ModelParams(Value):
    """Physical parameters of the atom + N-mode model, in the interaction
    frame that rotates at the atomic frequency.

    detunings holds each mode's detuning omega_i - omega_a from the atom
    and couplings the exchange strengths, all in rad per unit time, one
    of each per mode: ``n_modes`` is the number of couplings.  Couplings
    must be strictly positive.
    """

    __slots__ = ("n_modes", "detunings", "couplings")

    def __init__(self, detunings: tuple[float, ...], couplings: tuple[float, ...]) -> None:
        detunings = tuple(float(d) for d in detunings)
        couplings = tuple(float(c) for c in couplings)
        n_modes = len(couplings)
        if n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if len(detunings) != n_modes:
            raise ValueError(f"expected one detuning per coupling: {len(detunings)} detunings, "
                             f"{n_modes} couplings")
        if not all(math.isfinite(v) for v in (*detunings, *couplings)):
            raise ValueError("model parameters must be finite")
        if any(c <= 0 for c in couplings):
            raise ValueError("couplings must be strictly positive")
        for name, value in zip(self.__slots__, (n_modes, detunings, couplings)):
            object.__setattr__(self, name, value)

    @classmethod
    def resonant(cls, n_modes: int, coupling: float) -> "ModelParams":
        """All modes on resonance with the atom, identical couplings."""
        return cls((0.0,) * n_modes, (coupling,) * n_modes)


def hermiticity_defect(matrix) -> float:
    """max |H - H^dag| of a square matrix."""
    gap = np.conj(matrix.T)
    gap -= matrix  # in place: one temporary matrix, and |H^dag - H| = |H - H^dag|
    return float(np.abs(gap).max(initial=0.0))


class HermitianOperator(Frozen):
    """Dense (dim, dim) matrix observable on a truncated basis; validated
    Hermitian.

    The constructor checks the matrix's shape, finiteness and Hermiticity,
    then copies it and marks the copy read-only, so its spectral
    decomposition is computed on first use and kept (:meth:`eigh`).
    ``defect`` keeps the measured max |H - H^dag|.
    """

    __slots__ = ("basis", "matrix", "defect", "_eigh")

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
        for name, value in (("basis", basis), ("matrix", mat), ("defect", defect), ("_eigh", None)):
            object.__setattr__(self, name, value)

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (eigenvalues, eigenvectors) from ``numpy.linalg.eigh``,
        computed once per operator."""
        if self._eigh is None:
            eigvals, eigvecs = np.linalg.eigh(self.matrix)
            eigvals.flags.writeable = False
            eigvecs.flags.writeable = False
            object.__setattr__(self, "_eigh", (eigvals, eigvecs))
        return self._eigh


def build_hamiltonian(params: ModelParams, basis: Basis) -> HermitianOperator:
    """Assemble the atom-field Hamiltonian on the given basis, in the
    interaction frame::

        H = sum_i delta_i * n_i + sum_i eps_i * (a_i s_+ + a_i^dag s_-)

    with delta_i the mode detunings; at resonance only the exchange term
    survives.  Each mode holds at most one photon, so each exchange
    element is its coupling; a transition that would put a second photon
    in a mode is dropped.  A basis that holds a state but not its exchange
    partner, such as ``entanglement.support_basis``, raises ValueError.
    """
    if params.n_modes != basis.n_modes:
        raise ValueError(
            f"params describe {params.n_modes} modes but basis has {basis.n_modes}"
        )
    occupations = basis.levels[:, 1:]
    # one mode at a time, so that each entry rounds like sum_i delta_i n_i
    # taken in mode order
    diagonal = np.zeros(basis.dim)
    for i, detuning in enumerate(params.detunings):
        diagonal = diagonal + detuning * occupations[:, i]
    matrix = np.zeros((basis.dim, basis.dim), dtype=complex)
    np.fill_diagonal(matrix, diagonal)

    # exchange term: <e, n - 1_i| a_i s_+ |g, n> = 1
    ground, excited, mode = basis.exchange_pairs
    elements = np.array(params.couplings)[mode]
    matrix[excited, ground] = elements
    matrix[ground, excited] = elements
    return HermitianOperator(basis, matrix)


def evolve_closed_form(params: ModelParams, t: float) -> StateVector:
    """Resonant interaction-frame evolution of the excited-atom vacuum,
    for any positive couplings: the ``sector.closed_form`` pair of their
    ``sector.bright_mode``, spread by ``sector.amplitudes`` onto the sector
    ``build_basis(N, excitation_cap=1)``, whose order is the sector's.

    With Omega = sqrt(sum_i eps_i^2) the excited amplitude is cos(Omega t)
    and mode i carries -i (eps_i / Omega) sin(Omega t): only the coupling-
    weighted symmetric photon combination is ever populated.  Equal
    couplings give cos(sqrt(N) eps t) and -i sin(sqrt(N) eps t)/sqrt(N).
    """
    if any(params.detunings):
        raise ValueError("detuned parameters: use propagate_numeric")
    mode = sector.bright_mode(params.couplings)
    amps = sector.amplitudes(mode, sector.closed_form(mode, t))
    return StateVector(build_basis(params.n_modes, excitation_cap=1), amps)


# The benchmark's traced run (perfbench/spans.py) still looks this name up.
evolve_closed_form_general = evolve_closed_form


def propagate_numeric(H: HermitianOperator, psi0: StateVector, t: float) -> StateVector:
    """Evolve psi0 by exp(-i H t) for one time t (which may be negative).

    The eigenphases of the operator's cached spectral decomposition
    (:meth:`HermitianOperator.eigh`) are applied exactly, so the
    propagator is unitary up to rounding.  The state is renormalized only
    when its norm drift is at most ``ROUNDING_TOL``, the drift that
    ``StateVector`` admits; a larger drift raises
    :class:`PropagationError`, as do non-finite amplitudes.  H
    must share psi0's basis, and t must be finite (ValueError).
    """
    _require_same_basis(H, psi0)
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t!r}")
    eigvals, eigvecs = H.eigh()
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

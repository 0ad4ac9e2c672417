"""Atom-field Hamiltonian and time evolution (hbar = 1 throughout).

Two independent evolution routes are provided on purpose:

* closed-form expressions for the resonant exchange dynamics that starts
  from the excited-atom vacuum state, and
* a dense numerical propagator built from the spectral decomposition of
  the (Hermitian) Hamiltonian.

The two must agree to tight tolerance; the numerical route serves as the
correctness oracle for the closed forms and vice versa.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fock import AtomLevel, Basis, BasisState, StateVector, build_basis, vacuum_occupations

#: Hermiticity and dimension checks on operator construction.
HERMITICITY_TOL = 1e-12

#: Norm drift above this signals a propagator defect rather than rounding.
NORM_DRIFT_TOL = 1e-10

#: Relative tolerance used when testing parameter degeneracy (equal
#: couplings, resonance).
PARAM_RTOL = 1e-12


class Frame(enum.Enum):
    """Reference frame for the Hamiltonian.

    LAB keeps the free atomic and photonic energies.  INTERACTION is the
    frame co-rotating at the atomic frequency; at resonance only the
    exchange coupling survives, off resonance the modes keep their
    residual detuning (omega_i - omega_atom).
    """

    LAB = "lab"
    INTERACTION = "interaction"


class PropagationError(RuntimeError):
    """Numerical failure during time evolution (norm drift, overflow)."""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= PARAM_RTOL * max(abs(a), abs(b), 1.0)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the atom + N-mode model.

    omega_atom is the atomic transition frequency, omega_modes the mode
    frequencies and couplings the exchange strengths, all in rad per unit
    time.  Couplings must be strictly positive.
    """

    n_modes: int
    omega_atom: float
    omega_modes: tuple[float, ...]
    couplings: tuple[float, ...]
    frame: Frame = Frame.INTERACTION

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        object.__setattr__(self, "omega_modes", tuple(float(w) for w in self.omega_modes))
        object.__setattr__(self, "couplings", tuple(float(c) for c in self.couplings))
        if len(self.omega_modes) != self.n_modes:
            raise ValueError(
                f"expected {self.n_modes} mode frequencies, got {len(self.omega_modes)}"
            )
        if len(self.couplings) != self.n_modes:
            raise ValueError(f"expected {self.n_modes} couplings, got {len(self.couplings)}")
        values = (self.omega_atom, *self.omega_modes, *self.couplings)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("model parameters must be finite")
        if any(c <= 0 for c in self.couplings):
            raise ValueError("couplings must be strictly positive")

    @classmethod
    def resonant(
        cls,
        n_modes: int,
        coupling: float,
        omega: float = 0.0,
        frame: Frame = Frame.INTERACTION,
    ) -> "ModelParams":
        """All modes on resonance with the atom, identical couplings."""
        return cls(n_modes, omega, (omega,) * n_modes, (coupling,) * n_modes, frame)

    def is_resonant(self) -> bool:
        """True iff every mode frequency equals the atomic frequency."""
        return all(_close(w, self.omega_atom) for w in self.omega_modes)

    def is_resonant_identical(self) -> bool:
        """True iff resonant and all couplings agree to relative 1e-12."""
        c0 = self.couplings[0]
        return self.is_resonant() and all(_close(c, c0) for c in self.couplings)


class HermitianOperator:
    """Dense matrix observable on a truncated basis; validated Hermitian."""

    __slots__ = ("basis", "matrix")

    def __init__(self, basis: Basis, matrix) -> None:
        mat = np.array(matrix, dtype=complex)
        if mat.shape != (basis.dim, basis.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match basis dimension {basis.dim}")
        if not np.all(np.isfinite(mat.view(float))):
            raise ValueError("operator entries must be finite")
        defect = float(np.max(np.abs(mat - mat.conj().T))) if basis.dim else 0.0
        if defect > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {defect:.3e}")
        mat.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "matrix", mat)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")


def build_hamiltonian(params: ModelParams, basis: Basis) -> HermitianOperator:
    """Assemble the atom-field Hamiltonian on the given truncated basis.

    Lab frame::

        H = omega_atom * s_z + sum_i omega_i * n_i
            + sum_i eps_i * (a_i s_+ + a_i^dag s_-)

    with s_z = (|e><e| - |g><g|)/2.  Interaction frame (rotating at the
    atomic frequency) keeps the exchange term and the residual mode
    detunings sum_i (omega_i - omega_atom) * n_i; at resonance only the
    exchange term survives.  Photon transitions carry the bosonic
    sqrt(n) factors; transitions leaving the truncated space are dropped.
    """
    if params.n_modes != basis.n_modes:
        raise ValueError(
            f"params describe {params.n_modes} modes but basis has {basis.n_modes}"
        )
    dim = basis.dim
    matrix = np.zeros((dim, dim), dtype=complex)

    for k, state in enumerate(basis.states):
        if params.frame is Frame.LAB:
            s_z = 0.5 if state.atom is AtomLevel.EXCITED else -0.5
            diag = params.omega_atom * s_z + sum(
                w * n for w, n in zip(params.omega_modes, state.occupations)
            )
        else:
            diag = sum(
                (w - params.omega_atom) * n
                for w, n in zip(params.omega_modes, state.occupations)
            )
        matrix[k, k] = diag

    # exchange term: <e, n - 1_i| a_i s_+ |g, n> = sqrt(n_i)
    for k, state in enumerate(basis.states):
        if state.atom is not AtomLevel.GROUND:
            continue
        for i, n_i in enumerate(state.occupations):
            if n_i == 0:
                continue
            occ = list(state.occupations)
            occ[i] = n_i - 1
            partner = basis.index[BasisState(AtomLevel.EXCITED, tuple(occ))]
            element = params.couplings[i] * math.sqrt(n_i)
            matrix[partner, k] += element
            matrix[k, partner] += element

    return HermitianOperator(basis, matrix)


def excitation_operator(basis: Basis) -> HermitianOperator:
    """Total excitation number |e><e| + sum_i n_i (diagonal, conserved)."""
    diag = np.array([s.total_excitation for s in basis.states], dtype=complex)
    return HermitianOperator(basis, np.diag(diag))


def evolve_closed_form(
    params: ModelParams, t: float, basis: Basis | None = None
) -> StateVector:
    """Resonant identical-coupling evolution of the excited-atom vacuum.

    The equal-coupling case of :func:`evolve_closed_form_general`:
    cos(sqrt(N) eps t) on |e; 0...0> and -i sin(sqrt(N) eps t)/sqrt(N) on
    each |g; 1_i>, the interaction-frame state with the common phase
    factor discarded.
    """
    if params.frame is not Frame.INTERACTION:
        raise ValueError("closed form is an interaction-frame expression")
    if not params.is_resonant_identical():
        raise ValueError(
            "closed form requires resonance and identical couplings; "
            "use evolve_closed_form_general or propagate_numeric"
        )
    return evolve_closed_form_general(params, t, basis)


def evolve_closed_form_general(
    params: ModelParams, t: float, basis: Basis | None = None
) -> StateVector:
    """Resonant evolution with arbitrary couplings.

    With Omega = sqrt(sum_i eps_i^2) the excited amplitude is cos(Omega t)
    and mode i carries -i (eps_i / Omega) sin(Omega t): only the coupling-
    weighted symmetric photon combination is ever populated.
    """
    if params.frame is not Frame.INTERACTION:
        raise ValueError("closed form is an interaction-frame expression")
    if not params.is_resonant():
        raise ValueError("detuned parameters: use propagate_numeric")
    if basis is None:
        basis = build_basis(params.n_modes, n_max=1, excitation_cap=1)
    elif basis.n_modes != params.n_modes:
        raise ValueError("basis mode count does not match params")
    eps = np.asarray(params.couplings, dtype=float)
    omega = float(np.sqrt(np.sum(eps**2)))
    photon = -1j * (eps / omega) * math.sin(omega * t)
    vacuum = vacuum_occupations(basis.n_modes)
    amps = np.zeros(basis.dim, dtype=complex)
    try:
        amps[basis.index[BasisState(AtomLevel.EXCITED, vacuum)]] = math.cos(omega * t)
        for i, amp in enumerate(photon):
            occ = list(vacuum)
            occ[i] = 1
            amps[basis.index[BasisState(AtomLevel.GROUND, tuple(occ))]] = amp
    except KeyError as exc:
        raise ValueError("basis does not contain the single-excitation sector") from exc
    return StateVector(basis, amps)


def propagate_numeric(H: HermitianOperator, psi0: StateVector, t: float) -> StateVector:
    """Evolve psi0 by exp(-i H t) via spectral decomposition.

    The Hermitian matrix is diagonalized (``numpy.linalg.eigh``) and the
    eigenphases applied exactly, so the propagator is unitary up to
    rounding.  The result is renormalized only when the norm drift stays
    below ``NORM_DRIFT_TOL``; anything larger raises
    :class:`PropagationError`, as do non-finite amplitudes.

    Parameters
    ----------
    H : HermitianOperator
        Generator of the evolution, sharing psi0's basis.
    psi0 : StateVector
        Initial state.
    t : float
        Evolution time (may be negative).
    """
    if H.basis is not psi0.basis and H.basis != psi0.basis:
        raise ValueError("operator and state live on different bases")
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t!r}")
    eigvals, eigvecs = np.linalg.eigh(H.matrix)
    with np.errstate(invalid="ignore", over="ignore"):
        phases = np.exp(-1j * eigvals * t)
        out = eigvecs @ (phases * (eigvecs.conj().T @ psi0.amplitudes))
    if not np.all(np.isfinite(out.view(float))):
        raise PropagationError("propagation produced non-finite amplitudes (parameter overflow)")
    norm = float(np.linalg.norm(out))
    drift = abs(norm - 1.0)
    if drift > NORM_DRIFT_TOL:
        raise PropagationError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL}: propagator defect"
        )
    return StateVector(psi0.basis, out / norm)

"""Atom-field Hamiltonian and time evolution (hbar = 1 throughout).

Two independent evolution routes are provided on purpose:

* closed-form expressions for the resonant exchange dynamics that starts
  from the excited-atom vacuum state, and
* a dense numerical propagator built from the spectral decomposition of
  the (Hermitian) Hamiltonian.

The two must agree to tight tolerance; the numerical route serves as the
correctness oracle for the closed forms and vice versa.  Both evaluate
many times (or many coupling draws) as one array: an operator keeps its
decomposition after the first use, so one Hamiltonian evolved to any
number of times costs one ``eigh``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    AtomLevel,
    Basis,
    BasisState,
    StateVector,
    build_basis,
    require_unit_rows,
    vacuum_occupations,
)

#: Hermiticity and dimension checks on operator construction.
HERMITICITY_TOL = 1e-12

#: Norm drift above this signals a propagator defect rather than rounding.
NORM_DRIFT_TOL = 1e-10

#: Relative tolerance used when testing parameter degeneracy (equal
#: couplings, resonance).
PARAM_RTOL = 1e-12

# The next two belong to `protocol` and `validation`, which import them
# back; they live here because every CLI path loads this module, and the
# CLI needs them before it knows whether it will load those two.

#: The quantities a robustness sweep varies (``protocol.SweepParameter``):
#: the evolution time, the couplings, the mode detuning and the mode count.
SWEEP_PARAMETERS = ("timing-error", "coupling-disorder", "detuning", "mode-count")

#: Seed of the randomized self-checks (``validation.run_validation``).
DEFAULT_SEED = 20240201


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
    """Dense matrix observable on a truncated basis; validated Hermitian.

    The matrix is read-only, so its spectral decomposition is computed on
    first use and kept (:meth:`eigh`).
    """

    __slots__ = ("basis", "matrix", "_eigh")

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
        object.__setattr__(self, "_eigh", None)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

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
    occupations = basis.levels[:, 1:]
    if params.frame is Frame.LAB:
        shifts = params.omega_modes
        diag = params.omega_atom * (basis.levels[:, 0] - 0.5)  # s_z = +-1/2
    else:
        shifts = tuple(w - params.omega_atom for w in params.omega_modes)
        diag = 0.0
    # one mode at a time, so that each entry rounds like sum_i w_i n_i
    # taken in mode order
    photon = np.zeros(basis.dim)
    for i, w in enumerate(shifts):
        photon = photon + w * occupations[:, i]
    matrix = np.diag((diag + photon).astype(complex))

    # exchange term: <e, n - 1_i| a_i s_+ |g, n> = sqrt(n_i)
    ground, excited, mode = basis.exchange_pairs
    elements = np.asarray(params.couplings)[mode] * np.sqrt(occupations[ground, mode])
    matrix[excited, ground] = elements
    matrix[ground, excited] = elements
    return HermitianOperator(basis, matrix)


def excitation_operator(basis: Basis) -> HermitianOperator:
    """Total excitation number |e><e| + sum_i n_i (diagonal, conserved)."""
    return HermitianOperator(basis, np.diag(basis.levels.sum(axis=1).astype(complex)))


def optimal_time(n: int, epsilon: float) -> float:
    """Interaction time pi / (2 sqrt(n) epsilon) that completes the transfer."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    return math.pi / (2.0 * math.sqrt(n) * epsilon)


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
    amps = closed_form_amplitudes(np.array([params.couplings]), t, basis)
    return StateVector(basis, amps[0])


def closed_form_amplitudes(couplings, t: float, basis: Basis) -> np.ndarray:
    """Resonant interaction-frame amplitudes at time t, one row per row of
    the (draws, n_modes) coupling array: the array form of
    :func:`evolve_closed_form_general`.

    Checks what ModelParams and StateVector check for a single draw: the
    couplings must be finite and strictly positive, and every row finite
    with unit norm within ``NORM_TOL``.
    """
    eps = np.asarray(couplings, dtype=float)
    if eps.ndim != 2 or eps.shape[1] != basis.n_modes:
        raise ValueError("basis mode count does not match params")
    if not np.all(np.isfinite(eps)):
        raise ValueError("model parameters must be finite")
    if np.any(eps <= 0):
        raise ValueError("couplings must be strictly positive")
    vacuum = vacuum_occupations(basis.n_modes)
    try:
        excited = basis.index[BasisState(AtomLevel.EXCITED, vacuum)]
        photons = [
            basis.index[BasisState(AtomLevel.GROUND, vacuum[:i] + (1,) + vacuum[i + 1:])]
            for i in range(basis.n_modes)
        ]
    except KeyError as exc:
        raise ValueError("basis does not contain the single-excitation sector") from exc
    amps = np.zeros((len(eps), basis.dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the row check
        omega = np.sqrt(np.sum(eps**2, axis=1))
        amps[:, excited] = np.cos(omega * t)
        amps[:, photons] = -1j * (eps / omega[:, None]) * np.sin(omega * t)[:, None]
    require_unit_rows(amps)
    return amps


def propagate_numeric(H: HermitianOperator, psi0: StateVector, t: float) -> StateVector:
    """Evolve psi0 by exp(-i H t): the one-time case of
    :func:`propagate_times`, with the same checks."""
    return StateVector(psi0.basis, propagate_times(H, psi0, [t])[0])


def propagate_times(H: HermitianOperator, psi0: StateVector, times) -> np.ndarray:
    """Evolve psi0 by exp(-i H t) for each t in a 1-D array of times.

    The eigenphases of the operator's cached spectral decomposition
    (:meth:`HermitianOperator.eigh`) are applied exactly, for all times in
    one matrix product, so the propagator is unitary up to rounding.  Each
    row is renormalized only when its norm drift stays below
    ``NORM_DRIFT_TOL``; a larger drift in any row raises
    :class:`PropagationError`, as do non-finite amplitudes.

    Parameters
    ----------
    H : HermitianOperator
        Generator of the evolution, sharing psi0's basis.
    psi0 : StateVector
        Initial state.
    times : 1-D array of float
        Evolution times (may be negative).

    Returns
    -------
    ndarray, shape (len(times), dim)
        The evolved amplitudes, one row per time.
    """
    if H.basis is not psi0.basis and H.basis != psi0.basis:
        raise ValueError("operator and state live on different bases")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D array, got shape {times.shape}")
    if not np.all(np.isfinite(times)):
        bad = float(times[~np.isfinite(times)][0])
        raise ValueError(f"evolution time must be finite, got {bad!r}")
    eigvals, eigvecs = H.eigh()
    with np.errstate(invalid="ignore", over="ignore"):
        phases = np.exp(-1j * eigvals * times[:, None])
        out = (phases * (eigvecs.conj().T @ psi0.amplitudes)) @ eigvecs.T
    if not np.isfinite(out).all():
        raise PropagationError("propagation produced non-finite amplitudes (parameter overflow)")
    norms = np.linalg.norm(out, axis=1)
    drift = float(np.max(np.abs(norms - 1.0), initial=0.0))
    if drift > NORM_DRIFT_TOL:
        raise PropagationError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL}: propagator defect"
        )
    return out / norms[:, None]

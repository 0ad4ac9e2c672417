"""Atom-field Hamiltonian and time evolution (hbar = 1 throughout).

Two independent evolution routes are provided on purpose:

* the closed form of the resonant exchange dynamics that starts from the
  excited-atom vacuum state (``sector.closed_form``, as a state vector),
  and
* a dense numerical propagator built from the spectral decomposition of
  the (Hermitian) Hamiltonian.

The two must agree to tight tolerance; the numerical route serves as the
correctness oracle for the closed form and vice versa.  The propagator
evaluates many times (or a stack of operators) as one array: an operator
keeps its decomposition after the first use, so one Hamiltonian evolved
to any number of times costs one ``eigh``.
"""

from __future__ import annotations

import math

import numpy as np

from . import sector
from .fock import ROUNDING_TOL, Basis, Frozen, StateVector, Value, build_basis
from .sector import NORM_DRIFT_TOL, PropagationError

class ModelParams(Value):
    """Physical parameters of the atom + N-mode model, in the interaction
    frame that rotates at the atomic frequency.

    detunings holds each mode's detuning omega_i - omega_a from the atom
    and couplings the exchange strengths, all in rad per unit time.
    Couplings must be strictly positive.
    """

    __slots__ = ("n_modes", "detunings", "couplings")

    def __init__(self, n_modes: int, detunings: tuple[float, ...],
                 couplings: tuple[float, ...]) -> None:
        if n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        detunings = tuple(float(d) for d in detunings)
        couplings = tuple(float(c) for c in couplings)
        if len(detunings) != n_modes:
            raise ValueError(f"expected {n_modes} mode detunings, got {len(detunings)}")
        if len(couplings) != n_modes:
            raise ValueError(f"expected {n_modes} couplings, got {len(couplings)}")
        if not all(math.isfinite(v) for v in (*detunings, *couplings)):
            raise ValueError("model parameters must be finite")
        if any(c <= 0 for c in couplings):
            raise ValueError("couplings must be strictly positive")
        for name, value in zip(self.__slots__, (n_modes, detunings, couplings)):
            object.__setattr__(self, name, value)

    @classmethod
    def resonant(cls, n_modes: int, coupling: float) -> "ModelParams":
        """All modes on resonance with the atom, identical couplings."""
        return cls(n_modes, (0.0,) * n_modes, (coupling,) * n_modes)


def hermiticity_defect(matrix) -> np.ndarray:
    """max |H - H^dag| of a square matrix, or one value per item of a
    (P, dim, dim) stack."""
    gap = np.conj(np.swapaxes(matrix, -1, -2))
    gap -= matrix  # in place: one temporary matrix, and |H^dag - H| = |H - H^dag|
    return np.abs(gap).max(axis=(-2, -1), initial=0.0)


class HermitianOperator(Frozen):
    """Dense matrix observable on a truncated basis; validated Hermitian.

    ``matrix`` is one (dim, dim) operator or a stack of P of them,
    (P, dim, dim), on one basis; every item is checked.  ``defect`` keeps
    the measured max |H - H^dag|: a float, or one value per item of a
    stack.  The matrix is read-only, so its spectral decomposition is
    computed on first use and kept (:meth:`eigh`).
    """

    __slots__ = ("basis", "matrix", "defect", "_eigh")

    def __init__(self, basis: Basis, matrix) -> None:
        self._take(basis, np.array(matrix, dtype=complex))

    @classmethod
    def _from_owned(cls, basis: Basis, matrix: np.ndarray) -> "HermitianOperator":
        """An operator over a complex array that its caller has just made
        and hands over: checked as the constructor checks, but not copied."""
        self = object.__new__(cls)
        self._take(basis, matrix)
        return self

    def _take(self, basis: Basis, mat: np.ndarray) -> None:
        if mat.shape[-2:] != (basis.dim, basis.dim) or mat.ndim not in (2, 3):
            raise ValueError(f"matrix shape {mat.shape} does not match basis dimension {basis.dim}")
        if not np.isfinite(mat.view(float)).all():
            raise ValueError("operator entries must be finite")
        defect = hermiticity_defect(mat)
        worst = float(defect.max(initial=0.0))
        if worst > ROUNDING_TOL:
            raise ValueError(f"matrix is not Hermitian: max |H - H^dag| = {worst:.3e}")
        if mat.ndim == 2:
            defect = float(defect)
        else:
            defect.flags.writeable = False
        mat.flags.writeable = False
        for name, value in (("basis", basis), ("matrix", mat), ("defect", defect), ("_eigh", None)):
            object.__setattr__(self, name, value)

    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (eigenvalues, eigenvectors) from ``numpy.linalg.eigh``,
        computed once per operator; for a stack, one decomposition per
        item, from one call."""
        if self._eigh is None:
            eigvals, eigvecs = np.linalg.eigh(self.matrix)
            eigvals.flags.writeable = False
            eigvecs.flags.writeable = False
            object.__setattr__(self, "_eigh", (eigvals, eigvecs))
        return self._eigh


def build_hamiltonian(params, basis: Basis) -> HermitianOperator:
    """Assemble the atom-field Hamiltonian on the given truncated basis,
    in the interaction frame::

        H = sum_i delta_i * n_i + sum_i eps_i * (a_i s_+ + a_i^dag s_-)

    with delta_i the mode detunings; at resonance only the exchange term
    survives.  Photon transitions carry the bosonic sqrt(n) factors;
    transitions leaving the truncated space are dropped.

    ``params`` is one ModelParams, or a non-empty sequence of them for a
    stacked operator; one ModelParams is built as the one-item stack, and
    each item of a stack equals its own single build bit for bit.
    """
    stack = [params] if isinstance(params, ModelParams) else list(params)
    if not stack:
        raise ValueError("build_hamiltonian needs at least one ModelParams")
    for item in stack:
        if item.n_modes != basis.n_modes:
            raise ValueError(
                f"params describe {item.n_modes} modes but basis has {basis.n_modes}"
            )
    occupations = basis.levels[:, 1:]
    detunings = np.array([item.detunings for item in stack])
    # one mode at a time, so that each entry rounds like sum_i delta_i n_i
    # taken in mode order
    diagonal = np.zeros((len(stack), basis.dim))
    for i in range(basis.n_modes):
        diagonal = diagonal + detunings[:, i, None] * occupations[:, i]
    matrix = np.zeros((len(stack), basis.dim, basis.dim), dtype=complex)
    matrix.reshape(len(stack), -1)[:, :: basis.dim + 1] = diagonal

    # exchange term: <e, n - 1_i| a_i s_+ |g, n> = sqrt(n_i)
    ground, excited, mode = basis.exchange_pairs
    couplings = np.array([item.couplings for item in stack])
    elements = couplings[:, mode] * np.sqrt(occupations[ground, mode])
    matrix[:, excited, ground] = elements
    matrix[:, ground, excited] = elements
    owned = matrix[0] if isinstance(params, ModelParams) else matrix
    return HermitianOperator._from_owned(basis, owned)


def evolve_closed_form(params: ModelParams, t: float) -> StateVector:
    """Resonant interaction-frame evolution of the excited-atom vacuum,
    for any positive couplings: ``sector.closed_form`` as a state on the
    single-excitation sector, ``build_basis(N, excitation_cap=1)``, whose
    order is the sector's.

    With Omega = sqrt(sum_i eps_i^2) the excited amplitude is cos(Omega t)
    and mode i carries -i (eps_i / Omega) sin(Omega t): only the coupling-
    weighted symmetric photon combination is ever populated.  Equal
    couplings give cos(sqrt(N) eps t) and -i sin(sqrt(N) eps t)/sqrt(N).
    """
    if any(params.detunings):
        raise ValueError("detuned parameters: use propagate_numeric")
    basis = build_basis(params.n_modes, n_max=1, excitation_cap=1)
    return StateVector._from_checked(basis, np.array(sector.closed_form(params.couplings, t)))


# The benchmark's traced run (perfbench/spans.py) still looks this name up.
evolve_closed_form_general = evolve_closed_form


def propagate_numeric(H: HermitianOperator, psi0: StateVector, t) -> StateVector:
    """Evolve psi0 by exp(-i H t): the one-time case of
    :func:`propagate_times`, with the same checks.  For a stacked H, t is
    one time for every item or a 1-D array of one time per item, and the
    result is the stack of evolved states."""
    times = np.asarray(t, dtype=float)[..., None]
    return StateVector._from_checked(psi0.basis, propagate_times(H, psi0, times)[..., 0, :])


def propagate_times(H: HermitianOperator, psi0: StateVector, times) -> np.ndarray:
    """Evolve psi0 by exp(-i H t) for each t in an array of times.

    The eigenphases of the operator's cached spectral decomposition
    (:meth:`HermitianOperator.eigh`) are applied exactly, for all times in
    one matrix product, so the propagator is unitary up to rounding.  Each
    row is renormalized only when its norm drift stays below
    ``NORM_DRIFT_TOL``; a larger drift in any row raises
    :class:`PropagationError`, as do non-finite amplitudes.

    A single operator is evolved as the one-item stack of a stacked one,
    so every item of a stack evolves as it would alone.

    Parameters
    ----------
    H : HermitianOperator
        Generator of the evolution, sharing psi0's basis: one operator or
        a stack of P.
    psi0 : StateVector
        Initial state; for a stacked H, one state for every item or a
        stack of P, one per item.
    times : array of float
        Evolution times (may be negative): a 1-D array of T times, or for
        a stacked H a (P, T) array of T times per item.

    Returns
    -------
    ndarray, shape (T, dim), or (P, T, dim) for a stacked H
        The evolved amplitudes, one row per time.
    """
    if H.basis is not psi0.basis and H.basis != psi0.basis:
        raise ValueError("operator and state live on different bases")
    stacked = H.matrix.ndim == 3
    items = len(H.matrix) if stacked else 1
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 or (stacked and times.ndim == 2 and len(times) in (1, items))):
        shape = "1-D" if not stacked else f"1-D or ({items}, T)"
        raise ValueError(f"times must be a {shape} array, got shape {times.shape}")
    if psi0.amplitudes.ndim == 2 and len(psi0.amplitudes) not in ((1, items) if stacked else ()):
        operators = f"a stack of {items} operators" if stacked else "one operator"
        raise ValueError(f"a stack of {len(psi0.amplitudes)} states does not fit {operators}")
    if not np.all(np.isfinite(times)):
        bad = float(times[~np.isfinite(times)][0])
        raise ValueError(f"evolution time must be finite, got {bad!r}")
    eigvals, eigvecs = H.eigh()
    if not stacked:
        eigvals, eigvecs = eigvals[None], eigvecs[None]
    times = times.reshape(-1, times.shape[-1])  # (1 or P, T)
    amps = psi0.amplitudes.reshape(-1, H.basis.dim, 1)  # (1 or P, dim, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        phases = np.exp(-1j * eigvals[:, None, :] * times[:, :, None])
        coeffs = (eigvecs.conj().swapaxes(-1, -2) @ amps).swapaxes(-1, -2)  # eigvecs^dag psi0, as rows
        out = (phases * coeffs) @ eigvecs.swapaxes(-1, -2)
    if not np.isfinite(out).all():
        raise PropagationError("propagation produced non-finite amplitudes (parameter overflow)")
    norms = np.linalg.norm(out, axis=-1)
    drift = float(np.max(np.abs(norms - 1.0), initial=0.0))
    if drift > NORM_DRIFT_TOL:
        raise PropagationError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL}: propagator defect"
        )
    out /= norms[..., None]
    return out if stacked else out[0]

"""Truncated Hilbert space of one two-level atom coupled to N bosonic modes.

The basis is the set of occupation-number states |atom; n_1 ... n_N> with
0 <= n_i <= n_max, optionally filtered by a cap on the total excitation
number (atomic excitation plus total photon count).  Ordering is
deterministic: ground-state block before excited-state block, occupations
ascending lexicographically within each block.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

#: Tolerance on | ||psi|| - 1 | accepted by the StateVector constructor.
NORM_TOL = 1e-12

#: Largest basis dimension accepted by default (dense matrices stay tractable).
MAX_DIMENSION = 16384


class AtomLevel(enum.IntEnum):
    """Two-level atom: integer value doubles as the excitation count."""

    GROUND = 0
    EXCITED = 1


@dataclass(frozen=True)
class BasisState:
    """One occupation-number label: atom level plus photon count per mode."""

    atom: AtomLevel
    occupations: tuple[int, ...]

    @property
    def total_excitation(self) -> int:
        return int(self.atom) + sum(self.occupations)

    def label(self) -> str:
        atom = "e" if self.atom is AtomLevel.EXCITED else "g"
        if any(n > 9 for n in self.occupations):
            occ = ",".join(str(n) for n in self.occupations)
        else:
            occ = "".join(str(n) for n in self.occupations)
        return f"|{atom};{occ}>"


@dataclass(frozen=True)
class Basis:
    """Ordered basis of the truncated atom + N-mode space.

    Use :func:`build_basis` to construct one; the ``index`` attribute maps
    each :class:`BasisState` back to its position in ``states``.
    """

    n_modes: int
    n_max: int
    excitation_cap: int | None
    states: tuple[BasisState, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "index", {state: k for k, state in enumerate(self.states)}
        )

    @property
    def dim(self) -> int:
        return len(self.states)

    @functools.cached_property
    def levels(self) -> np.ndarray:
        """Read-only (dim, n_modes + 1) integer array, one row per state:
        the atom level in column 0, the photon count of mode i in column i.
        Built once per basis."""
        rows = [(int(s.atom), *s.occupations) for s in self.states]
        arr = np.array(rows, dtype=np.int64).reshape(self.dim, self.n_modes + 1)
        arr.flags.writeable = False
        return arr


class StateVector:
    """Normalized complex amplitude vector over an ordered basis.

    Immutable: the amplitude array is copied and marked read-only.  The
    constructor rejects vectors whose 2-norm deviates from 1 by more than
    ``NORM_TOL`` so that propagator defects surface immediately.
    """

    __slots__ = ("basis", "amplitudes")

    def __init__(self, basis: Basis, amplitudes) -> None:
        arr = np.array(amplitudes, dtype=complex)
        if arr.shape != (basis.dim,):
            raise ValueError(
                f"amplitude vector has shape {arr.shape}, basis has dimension {basis.dim}"
            )
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state vector norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        arr.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "amplitudes", arr)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def amplitude(self, state: BasisState) -> complex:
        """Amplitude on a single basis state."""
        return complex(self.amplitudes[self.basis.index[state]])

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _capped_occupations(n_modes: int, n_max: int, budget: int):
    """Yield occupation tuples with sum <= budget, ascending lexicographic."""
    occ = [0] * n_modes
    total = 0
    while True:
        yield tuple(occ)
        # lexicographic successor: positions right of the bumped one are
        # already zeroed by the leftward scan
        i = n_modes - 1
        while i >= 0:
            if occ[i] < n_max and total + 1 <= budget:
                occ[i] += 1
                total += 1
                break
            total -= occ[i]
            occ[i] = 0
            i -= 1
        else:
            return


def require_full_dimension(n_modes: int, n_max: int) -> int:
    """Dimension 2 (n_max + 1)^n_modes of the uncapped basis, computed
    without enumerating it; raises ValueError above ``MAX_DIMENSION``."""
    dim = 2 * (n_max + 1) ** n_modes
    if dim > MAX_DIMENSION:
        raise ValueError(
            f"truncation too large: dimension {dim} exceeds safety limit {MAX_DIMENSION}"
        )
    return dim


def build_basis(
    n_modes: int,
    n_max: int = 1,
    excitation_cap: int | None = None,
) -> Basis:
    """Enumerate the complete truncated basis.

    Parameters
    ----------
    n_modes : int
        Number of bosonic modes, >= 1.
    n_max : int
        Per-mode photon-number truncation, >= 1.
    excitation_cap : int or None
        If given, keep only states with total excitation <= cap.  The cap
        counts the atomic excitation, so ``excitation_cap=1`` with
        ``n_max=1`` yields the single-excitation sector of dimension
        ``n_modes + 2``.

    A dimension above ``MAX_DIMENSION`` raises ValueError.
    """
    if not isinstance(n_modes, int) or n_modes < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
    if excitation_cap is not None and (
        not isinstance(excitation_cap, int) or excitation_cap < 0
    ):
        raise ValueError(f"excitation_cap must be a non-negative integer, got {excitation_cap!r}")

    states: list[BasisState] = []
    if excitation_cap is None:
        require_full_dimension(n_modes, n_max)
        for atom in (AtomLevel.GROUND, AtomLevel.EXCITED):
            for occ in itertools.product(range(n_max + 1), repeat=n_modes):
                states.append(BasisState(atom, occ))
    else:
        for atom in (AtomLevel.GROUND, AtomLevel.EXCITED):
            budget = excitation_cap - int(atom)
            if budget < 0:
                continue
            for occ in _capped_occupations(n_modes, n_max, budget):
                states.append(BasisState(atom, occ))
                if len(states) > MAX_DIMENSION:
                    raise ValueError(
                        f"truncation too large: dimension exceeds safety limit {MAX_DIMENSION}"
                    )
    return Basis(n_modes, n_max, excitation_cap, tuple(states))


def vacuum_occupations(n_modes: int) -> tuple[int, ...]:
    return (0,) * n_modes


def initial_state(basis: Basis) -> StateVector:
    """Excited atom, all modes in vacuum: unit amplitude on |e; 0...0>."""
    target = BasisState(AtomLevel.EXCITED, vacuum_occupations(basis.n_modes))
    pos = basis.index.get(target)
    if pos is None:
        raise ValueError(
            "basis does not contain the excited-atom vacuum state "
            "(excitation cap excludes the atom?)"
        )
    amps = np.zeros(basis.dim, dtype=complex)
    amps[pos] = 1.0
    return StateVector(basis, amps)


def _require_same_basis(a: StateVector, b: StateVector) -> None:
    if a.basis is not b.basis and a.basis != b.basis:
        raise ValueError("state vectors live on different bases")


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    _require_same_basis(a, b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def atom_population(psi: StateVector, level: AtomLevel) -> float:
    """Total probability of finding the atom in the given level."""
    total = 0.0
    for state, amp in zip(psi.basis.states, psi.amplitudes):
        if state.atom is level:
            total += abs(amp) ** 2
    return min(float(total), 1.0)


def state_to_dict(psi: StateVector) -> dict:
    """JSON-ready form: basis parameters plus [re, im] amplitude pairs."""
    return {
        "basis": {
            "n_modes": psi.basis.n_modes,
            "n_max": psi.basis.n_max,
            "excitation_cap": psi.basis.excitation_cap,
        },
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }


def state_from_dict(data: dict) -> StateVector:
    """Inverse of :func:`state_to_dict`; rebuilds the basis deterministically."""
    spec = data["basis"]
    basis = build_basis(
        int(spec["n_modes"]),
        int(spec["n_max"]),
        None if spec.get("excitation_cap") is None else int(spec["excitation_cap"]),
    )
    amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
    return StateVector(basis, amps)

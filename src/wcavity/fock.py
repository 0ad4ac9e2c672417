"""Hilbert space of one two-level atom coupled to N modes, each a qubit.

The states are the occupation-number states |atom; n_1 ... n_N>, each
n_i 0 or 1, as in the paper's protocol, where one excitation spreads over
empty modes.  A state is its code, the integer whose binary digits, most
significant first, are the atom level (0 ground, 1 excited) and the
photon numbers of modes 1..N::

    code = atom * 2^N + sum_i n_i * 2^(N - i)

so |g;0...0> is 0, |g;1_i> is 2^(N - i) and |e;0...0> is 2^N.  A basis
is its N and its codes, in ascending order: each route reads a state's
atom level and photons off its code's bits.  The package builds one
space, the one-excitation sector 0, 1, 2, 4, ..., 2^N
(:func:`build_basis`); any other set of codes, such as the whole qubit
space 0 .. 2 * 2^N - 1, is a ``Basis`` built by hand.
"""

from __future__ import annotations

import operator
import types

import numpy as np

from .sector import ROUNDING_TOL, require_modes


class Frozen:
    """Base of the immutable classes: every attribute is a slot, set once
    in ``__init__`` through ``object.__setattr__``; setting or deleting one
    afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Basis(Frozen):
    """Ordered basis of the atom + N-qubit-mode space: its ``n_modes`` and
    the ascending tuple ``codes`` of its states (the module docstring
    gives the code rule), and nothing else.  The read-only ``index`` maps
    each code back to its position in ``codes``; two bases are equal when
    their N and codes are.

    :func:`build_basis` constructs the one-excitation sector.  Any other
    set of states is built by hand as ``Basis(n_modes, codes)``, such as
    the support of a few target states (``entanglement.support_basis``).
    """

    __slots__ = ("n_modes", "codes", "index")

    def __init__(self, n_modes: int, codes: tuple[int, ...]) -> None:
        index = types.MappingProxyType({code: k for k, code in enumerate(codes)})
        for name, value in zip(self.__slots__, (n_modes, codes, index)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented  # never equal to a tuple of its N and codes
        return self is other or (self.n_modes, self.codes) == (other.n_modes, other.codes)

    def __hash__(self):
        return hash((self.n_modes, self.codes))

    def __repr__(self):
        return f"Basis(n_modes={self.n_modes!r}, dim={self.dim!r})"

    @property
    def dim(self) -> int:
        return len(self.codes)

    def label(self, code: int) -> str:
        """The ket of a code, atom then modes 1..N: ``|g;010>``."""
        digits = format(code, f"0{self.n_modes + 1}b")
        return f"|{'ge'[int(digits[0])]};{digits[1:]}>"


class StateVector(Frozen):
    """Normalized complex amplitude vector over an ordered basis.

    Immutable: the amplitude array is copied and marked read-only.  The
    constructor rejects vectors whose 2-norm deviates from 1 by more than
    ``ROUNDING_TOL`` so that propagator defects surface immediately.
    """

    __slots__ = ("basis", "amplitudes")

    def __init__(self, basis: Basis, amplitudes) -> None:
        arr = np.array(amplitudes, dtype=complex)
        if arr.shape != (basis.dim,):
            raise ValueError(
                f"amplitude vector has shape {arr.shape}, basis has dimension {basis.dim}"
            )
        require_unit_rows(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "amplitudes", arr)

    def amplitude(self, code: int) -> complex:
        """Amplitude on the basis state of one code."""
        return complex(self.amplitudes[self.basis.index[code]])

    def norm(self) -> float:
        """2-norm of the amplitudes."""
        return float(np.linalg.norm(self.amplitudes))


def require_unit_rows(amplitudes: np.ndarray) -> None:
    """Raise ValueError unless every amplitude is finite and every state,
    one per index of the leading axes, has 2-norm within ``ROUNDING_TOL`` of 1.
    A 1-D array is one state."""
    if not np.isfinite(amplitudes).all():
        raise ValueError("amplitudes must be finite")
    norms = np.linalg.norm(amplitudes, axis=-1)
    bad = np.abs(norms - 1.0) > ROUNDING_TOL
    if bad.any():
        norm = float(norms[bad].flat[0])
        raise ValueError(f"state vector norm {norm!r} deviates from 1 beyond {ROUNDING_TOL}")


def build_basis(n_modes: int) -> Basis:
    """The basis of the one-excitation sector of N modes (the atomic
    excitation counts), its N + 2 codes ascending: 0, 1, 2, 4, ..., 2^N.

    ``n_modes`` must be an integer from 1 to ``sector.MAX_MODES``, read by
    ``operator.index``, so that a numpy integer counts as its int; a bool
    or a float that equals an int is refused like any other non-integer
    (ValueError).  Each call builds a new basis, equal to every other of
    its N.
    """
    try:
        n = operator.index(n_modes)
    except TypeError:
        n = 0
    if isinstance(n_modes, bool) or n < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
    require_modes(n, "n_modes")
    return Basis(n, (0, *(1 << i for i in range(n + 1))))


def initial_state(basis: Basis) -> StateVector:
    """Excited atom, all modes in vacuum: unit amplitude on |e; 0...0>."""
    pos = basis.index.get(1 << basis.n_modes)
    if pos is None:
        raise ValueError("basis does not contain the excited-atom vacuum state")
    amps = np.zeros(basis.dim, dtype=complex)
    amps[pos] = 1.0
    return StateVector(basis, amps)


def _require_same_basis(a, b) -> None:
    """ValueError unless two states or operators share their basis."""
    if a.basis != b.basis:
        raise ValueError(f"{type(a).__name__} and {type(b).__name__} live on different bases")

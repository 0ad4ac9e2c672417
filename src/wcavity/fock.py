"""Hilbert space of one two-level atom coupled to N modes, each a qubit.

The states are the occupation-number states |atom; n_1 ... n_N>, each
n_i 0 or 1, as in the paper's protocol, where one excitation spreads over
empty modes.  A state is its code, the integer whose binary digits, most
significant first, are the atom level (0 ground, 1 excited) and the
photon numbers of modes 1..N::

    code = atom * 2^N + sum_i n_i * 2^(N - i)

so |g;0...0> is 0, |g;1_i> is 2^(N - i) and |e;0...0> is 2^N.  A basis
lists its codes in ascending order: the whole space is 0 .. 2 * 2^N - 1,
and the one-excitation sector is 0, 1, 2, 4, ..., 2^N.
"""

from __future__ import annotations

import functools
import types

import numpy as np

from .sector import ROUNDING_TOL

#: Largest basis dimension accepted (the full space at N = 10): one dense
#: complex matrix on it takes 64 MiB.
MAX_DIMENSION = 2048


class Frozen:
    """Base of the immutable classes: every attribute is a slot, set once
    in ``__init__`` through ``object.__setattr__``; setting or deleting one
    afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Value(Frozen):
    """A Frozen class whose instances are equal, and hash alike, when they
    are of one class and their ``_key()`` (by default, the slot values) is
    equal; never equal to a tuple of those values."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Basis(Value):
    """Ordered basis of the atom + N-qubit-mode space: the ascending tuple
    ``codes`` of its states (the module docstring gives the code rule).

    Use :func:`build_basis` to construct one; the read-only ``index``
    attribute maps each code back to its position in ``codes``.  Bases
    are shared between callers, so nothing in one may change.

    A basis may also hold only some states of its space, built by hand
    as ``Basis(n_modes, codes)``, such as the support of a few target
    states (``entanglement.support_basis``).
    """

    # __dict__ holds the cached_property values, which bypass __setattr__
    __slots__ = ("n_modes", "codes", "index", "__dict__")

    def __init__(self, n_modes: int, codes: tuple[int, ...]) -> None:
        index = types.MappingProxyType({code: k for k, code in enumerate(codes)})
        for name, value in zip(self.__slots__, (n_modes, codes, index)):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return (self.n_modes, self.codes)

    def __repr__(self):
        return f"Basis(n_modes={self.n_modes!r}, dim={self.dim!r})"

    @property
    def dim(self) -> int:
        return len(self.codes)

    def label(self, code: int) -> str:
        """The ket of a code, atom then modes 1..N: ``|g;010>``."""
        digits = format(code, f"0{self.n_modes + 1}b")
        return f"|{'ge'[int(digits[0])]};{digits[1:]}>"

    @functools.cached_property
    def levels(self) -> np.ndarray:
        """Read-only (dim, n_modes + 1) integer array, one row per state:
        the binary digits of its code, so the atom level in column 0 and
        the photon count of mode i in column i.  Built once per basis."""
        width = self.n_modes + 1
        digits = "".join(format(code, f"0{width}b") for code in self.codes).encode()
        arr = np.frombuffer(digits, dtype=np.uint8).reshape(self.dim, width) - ord("0")
        arr = arr.astype(np.int64)
        arr.flags.writeable = False
        return arr

    @functools.cached_property
    def exchange_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only index arrays (ground, excited, mode), one entry per
        nonzero element <e, n - 1_i| a_i s_+ |g, n> = 1: the state
        |g, n> sits at ``ground``, its partner |e, n - 1_i>, of code
        ``code ^ 2^N ^ 2^(N - i)``, at ``excited``, and i - 1 is ``mode``.
        Ascending by ground state, then by mode.  Built once per basis; a
        basis that holds a state but not its partner raises ValueError."""
        levels, top = self.levels, 1 << self.n_modes
        ground, mode = np.nonzero(levels[:, 1:] * (levels[:, :1] == 0))
        try:
            excited = np.array([self.index[self.codes[k] ^ top ^ (top >> 1 + i)]
                                for k, i in zip(ground.tolist(), mode.tolist())], dtype=np.intp)
        except KeyError as missing:
            raise ValueError(f"basis lacks {self.label(missing.args[0])}, "
                             "the exchange partner of a state it holds") from None
        arrays = (ground, excited, mode)
        for arr in arrays:
            arr.flags.writeable = False
        return arrays


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


def build_basis(n_modes: int, excitation_cap: int | None = None) -> Basis:
    """The basis of one of the two spaces the package uses, its codes
    ascending.

    Parameters
    ----------
    n_modes : int
        Number of modes, >= 1.
    excitation_cap : None or 1
        ``None`` gives the whole qubit space, of dimension 2 * 2^N;
        ``1`` gives the one-excitation sector (the atomic excitation
        counts), of dimension N + 2.  Any other cap is refused.

    A dimension above ``MAX_DIMENSION`` raises ValueError before any code
    is built.  Bases are memoized per (n_modes, excitation_cap): a
    repeated call returns the same read-only object.  The arguments are
    checked before the cache is consulted, so a float that equals an int
    is refused like any other.
    """
    if not isinstance(n_modes, int) or n_modes < 1:
        raise ValueError(f"n_modes must be a positive integer, got {n_modes!r}")
    if excitation_cap is not None and (not isinstance(excitation_cap, int) or excitation_cap != 1):
        raise ValueError("excitation_cap must be None (the qubit space) or the integer 1 "
                         f"(the one-excitation sector), got {excitation_cap!r}")
    return _enumerate_basis(n_modes, excitation_cap)


@functools.lru_cache(maxsize=32)
def _enumerate_basis(n_modes: int, excitation_cap: int | None) -> Basis:
    # past MAX_DIMENSION modes 2 << N is over the limit anyway: min builds no huge int
    dim = 2 << min(n_modes, MAX_DIMENSION) if excitation_cap is None else n_modes + 2
    if dim > MAX_DIMENSION:
        raise ValueError(f"truncation too large: dimension exceeds safety limit {MAX_DIMENSION}")
    codes = range(dim) if excitation_cap is None else (0, *(1 << i for i in range(n_modes + 1)))
    return Basis(n_modes, tuple(codes))


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
    if a.basis is not b.basis and a.basis != b.basis:
        raise ValueError(f"{type(a).__name__} and {type(b).__name__} live on different bases")

"""The numpy closed form and W score that the coupling-disorder sweep ran
before it moved to ``sector``, kept here as the tests' oracle: of
``sector.closed_form``, and of the sweep's bytes."""

import math

import numpy as np

from wcavity.fock import require_unit_rows


def closed_form_rows(couplings, t) -> np.ndarray:
    """Resonant interaction-frame amplitudes of |e;0> at time t, one row of
    N + 2 in sector order per row of the (draws, N) couplings:
    cos(Omega t) on |e;0> and -i (eps_i / Omega) sin(Omega t) on mode i,
    with numpy's Omega, the square root of its sum of squares.  ``t`` is
    one time, or a 1-D array of one time per draw.  Raises ValueError, as
    the sweep does, on a non-finite coupling and on a row that is not
    finite with unit norm."""
    eps = np.asarray(couplings, dtype=float)
    if not np.all(np.isfinite(eps)):
        raise ValueError("model parameters must be finite")
    n = eps.shape[1]
    t = np.asarray(t, dtype=float)
    amps = np.zeros((len(eps), n + 2), dtype=complex)
    with np.errstate(all="ignore"):  # an overflow fails the row check
        omega = np.sqrt(np.sum(eps**2, axis=1))
        amps[:, n + 1] = np.cos(omega * t)
        # mode i (0-based) sits at index N - i
        amps[:, n:0:-1] = -1j * (eps / omega[:, None]) * np.sin(omega * t)[:, None]
    require_unit_rows(amps)
    return amps


def w_fidelities(rows) -> np.ndarray:
    """|<W_N, g|row>|^2 for each row of N + 2 sector amplitudes, clipped
    into [0, 1] against rounding."""
    n = np.shape(rows)[-1] - 2
    target = np.zeros(n + 2, dtype=complex)
    target[1:n + 1] = 1.0 / math.sqrt(n)
    return np.clip(np.abs(np.conj(rows) @ target) ** 2, 0.0, 1.0)

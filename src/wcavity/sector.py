"""The N + 2 state sector, on the standard library alone.

One excited atom and N empty modes stay in the sector of the vacuum and
the states with one excitation.  With every mode detuned by one common
delta from the atom, the Hamiltonian takes |e;0> into a 2-dimensional
invariant subspace: |e;0> and the bright mode sum_i eps_i |g;1_i> / Omega,
Omega = sqrt(sum_i eps_i^2), coupled by Omega, the bright mode at energy
delta (the Morris-Shore reduction; Morris and Shore, Phys. Rev. A 27, 906
(1983)).  A state is the pair (excited, bright) of its amplitudes on those
two; the exact 2x2 exponential gives it at any time in O(1) work, and
``amplitudes`` spreads it onto the N + 2 states where they are output.

Sector order, that of ``fock.build_basis(N)``: the ascending codes of
the ``fock`` module docstring, so index 0 is |g;0> (code 0), index j
(1 <= j <= N) is |g; one photon in mode N + 1 - j> (code 2^(j - 1)),
and index N + 1 is |e;0> (code 2^N).  The W and GHZ support
(``entanglement.support_basis``) has the same order, with |g;1...1>
(code 2^N - 1) at index N + 1.  Pair concurrences are scored for unit
states on it of two classes: W (single photons alone) and GHZ (none).

This module imports only ``math`` (and ``collections.abc`` and ``typing``,
for annotations and one record), so that no command loads numpy; its
oracles are the numpy modules in the tests and ``validation`` in
``validate``.  It also holds the size rule that admits every command but
``validate``; how a number is written is ``cli``'s alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

#: The one rounding tolerance: | ||psi|| - 1 | of a state, | H - H^dag | of
#: an operator, | tr rho - 1 | and minus the least eigenvalue of a density
#: matrix, | ||beta||^2 - 1 | of a closed form, the norm drift of either
#: propagator, and each defect and gap that ``validate`` checks.
ROUNDING_TOL = 1e-12

#: Seed of the randomized self-checks (``validation.run_validation``).
DEFAULT_SEED = 20240201

#: Most modes a run may have, a sector of 1024 states: a bound on time and
#: memory, not on rounding, since each sum over the modes here is rounded once.
MAX_MODES = 1022

#: Most amplitudes a run may charge for, N + 2 per point it evolves or
#: scores as one pair (``require_amplitudes``): the size, not the cost.
MAX_AMPLITUDES = 2**20


class PropagationError(RuntimeError):
    """Numerical failure during time evolution (norm drift, overflow)."""


def optimal_time(n: int, epsilon: float) -> float:
    """Interaction time pi / (2 sqrt(n) epsilon) that completes the
    transfer; ValueError unless it is positive and finite in doubles."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not epsilon > 0:
        raise ValueError("epsilon must be > 0")
    t_star = math.pi / (2.0 * math.sqrt(n) * epsilon)
    if not 0.0 < t_star < math.inf:
        raise ValueError(f"epsilon {epsilon!r} is too {'large' if t_star == 0.0 else 'small'}: "
                         f"t* = pi / (2 sqrt(N) epsilon) is {t_star!r} at N = {n}")
    return t_star


def require_modes(n: int, source: str) -> None:
    """Refuse (ValueError) fewer than 1 or more than ``MAX_MODES`` modes; the
    second message names the input ``source`` that set N, as the CLI reads it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_MODES:
        raise ValueError(f"{source} is above the limit of {MAX_MODES} modes")


def require_amplitudes(command: str, n: int, points: int) -> None:
    """Refuse (ValueError) a run of ``command`` that charges more than
    ``MAX_AMPLITUDES`` amplitudes: ``points`` x (N + 2)."""
    if points * (n + 2) > MAX_AMPLITUDES:
        raise ValueError(f"{command} too large: its size is {points} points x {n + 2} "
                         f"amplitudes = {points * (n + 2)}, above the limit of {MAX_AMPLITUDES}")


#: Smallest sum of squares that ``_norm`` takes as it is, 2^53 times the
#: smallest normal double: below it, squares that count may be subnormal.
_SQUARES_MIN = 2.0**-969


def _norm(parts) -> float:
    """sqrt(sum x^2) of real ``parts`` (pass a complex's .real and .imag):
    IEEE products, one ``math.fsum`` and one ``math.sqrt``, so that no
    interpreter changes its double.  A sum of squares that overflows or
    falls toward the subnormals is taken of the parts scaled by a power of
    two, which is exact, and the norm scaled back; beyond the doubles, inf."""
    try:
        total = math.fsum([x * x for x in parts])
    except OverflowError:  # a partial sum left the doubles
        total = math.inf
    if _SQUARES_MIN <= total < math.inf or math.isnan(total):
        return math.sqrt(total)
    exponent = math.frexp(max(map(abs, parts), default=0.0))[1]
    scaled = [math.ldexp(x, -exponent) for x in parts]
    try:
        return math.ldexp(math.sqrt(math.fsum([x * x for x in scaled])), exponent)
    except OverflowError:
        return math.inf


class BrightMode(NamedTuple):
    """Omega, beta_i = eps_i / Omega, ||beta||^2 and <W_N|beta> of couplings."""

    omega: float
    beta: tuple[float, ...]
    squares: float
    overlap: float


def bright_mode(couplings) -> BrightMode:
    """The reduction of ``couplings``, mode i's at index i - 1, positive and
    finite (ValueError); an Omega that overflows is inf, for a route to refuse."""
    if len(couplings) == 0:
        raise ValueError("n_modes must be >= 1")
    if not all(math.isfinite(c) for c in couplings):
        raise ValueError("model parameters must be finite")
    if any(c <= 0 for c in couplings):
        raise ValueError("couplings must be strictly positive")
    omega, weight = _norm(couplings), 1.0 / math.sqrt(len(couplings))
    beta = tuple(c / omega for c in couplings)
    return BrightMode(omega, beta, math.fsum([b * b for b in beta]),
                      math.fsum([weight * b for b in beta]))


def evolve(mode: BrightMode, points) -> Iterator[tuple[complex, complex]]:
    """exp(-i H t) |e;0> in the interaction frame at each (t, detuning) of
    ``points``: yields one pair (excited, bright) of amplitudes on |e;0>
    and the bright mode per point, so that a caller holds only the states
    it keeps.  The couplings are those of ``mode``, a :func:`bright_mode`,
    and every mode has the point's detuning from the atom (0.0: on
    resonance).  Each point is checked when its state is taken.

    Each pair is the exact exponential of the Morris-Shore 2x2 matrix
    [[0, Omega], [Omega, delta]] on (1, 0), divided by the norm of its
    state, sqrt(|excited|^2 + |bright|^2 ||beta||^2); an Omega that is not
    finite, a drift of that norm above ``ROUNDING_TOL``, or non-finite
    amplitudes, raise :class:`PropagationError`."""
    omega, squares = mode.omega, mode.squares
    if not math.isfinite(omega):
        raise PropagationError(f"coupling norm {omega!r} is not finite")
    for t, detuning in points:
        if not math.isfinite(detuning):
            raise ValueError("model parameters must be finite")
        if not math.isfinite(t):
            raise ValueError(f"evolution time must be finite, got {t!r}")
        # exp(-i T t) (1, 0) for T = [[0, omega], [omega, detuning]] is
        # e^{-i m t} (cos(g t) - i sin(g t) d / g, -i sin(g t) omega / g), with
        # m the mean and d the half difference of the diagonal, g = |(d, omega)|
        mean, half = 0.5 * detuning, -0.5 * detuning
        g = _norm((half, omega))
        angle, turn = g * t, mean * t
        if not (math.isfinite(angle) and math.isfinite(turn)):
            raise PropagationError("propagation produced non-finite amplitudes "
                                   "(parameter overflow)")
        c, s = math.cos(angle), math.sin(angle)
        phase = complex(math.cos(turn), -math.sin(turn))
        excited = phase * complex(c, -s * (half / g))
        bright = phase * complex(0.0, -s * (omega / g))
        norm = math.sqrt(math.fsum([excited.real * excited.real, excited.imag * excited.imag,
                                    bright.real * bright.real * squares,
                                    bright.imag * bright.imag * squares]))
        drift = abs(norm - 1.0)
        if not drift <= ROUNDING_TOL:
            raise PropagationError(
                f"norm drift {drift:.3e} exceeds {ROUNDING_TOL}: propagator defect")
        yield excited / norm, bright / norm


def require_angles(mode: BrightMode, epsilon: float, points, source: str) -> None:
    """Refuse (ValueError) the first (x, (t, detuning)) of ``points`` at
    which ``evolve`` of ``mode``, a :func:`bright_mode` of equal couplings
    ``epsilon``, turns by an angle |(detuning / 2, Omega)| t that is not a
    finite double; the message names the input ``source`` x and the
    coupling ``--epsilon``, as the CLI reads them.  An Omega that overflows
    is inf, whose angles are refused."""
    for x, (t, detuning) in points:
        if not math.isfinite(_norm((0.5 * detuning, mode.omega)) * t):
            raise ValueError(f"{source} {x!r} is too large for --epsilon {epsilon!r}: "
                             "the angle sqrt(Omega^2 + detuning^2 / 4) t is not finite")


def closed_form(mode: BrightMode, t: float) -> tuple[complex, complex]:
    """The resonant pair (excited, bright) = (cos(Omega t), -i sin(Omega t))
    of the excited-atom vacuum at time t, interaction frame, with the Omega
    of ``mode`` as ``evolve`` takes it.  The angle must be finite and
    ||beta||^2 within ``ROUNDING_TOL`` of 1 (ValueError)."""
    angle, squares = mode.omega * t, mode.squares
    if not math.isfinite(angle):
        raise ValueError("amplitudes must be finite")
    if not abs(squares - 1.0) <= ROUNDING_TOL:
        raise ValueError(f"bright mode norm^2 {squares!r} deviates from 1 beyond {ROUNDING_TOL}")
    return complex(math.cos(angle), 0.0), complex(0.0, -math.sin(angle))


def amplitudes(mode: BrightMode, pair) -> list[complex]:
    """The N + 2 sector amplitudes of the state that ``pair`` of ``mode``
    stands for: 0 on |g;0>, bright beta_i on mode i, excited on |e;0>."""
    excited, bright = pair
    return [bright * r for r in (0.0, *reversed(mode.beta))] + [excited]


def w_fidelity(pair, mode: BrightMode) -> float:
    """|<W_N, g|psi>|^2 = |bright <W_N|beta>|^2 of a pair of ``mode``,
    clipped to 1 against rounding."""
    return min(abs(pair[1] * mode.overlap) ** 2, 1.0)


def w_support(n: int) -> list[float]:
    """|W_N> on its N + 2 support states: 1/sqrt(N) on each |g;1_i>."""
    weight = 1.0 / math.sqrt(n)
    return [0.0] + [weight] * n + [0.0]


def ghz_support(n: int) -> list[float]:
    """(|0...0> + |1...1>)/sqrt(2) on its N + 2 support states."""
    half = 1.0 / math.sqrt(2.0)
    return [half] + [0.0] * n + [half]


def pairwise_concurrences(support) -> dict[tuple[int, int], float]:
    """Concurrence of every two-mode reduction rho of the pure state with
    the N + 2 support amplitudes ``support`` (the atom in its ground
    state), keyed by mode pair (i, j), i < j, in lexicographic order.

    In the W and GHZ classes (module docstring) rho (order |n_i n_j> = 00,
    01, 10, 11, p_ab on the diagonal) is an X state, of concurrence
    2 max(0, |rho_12| - sqrt(p_00 p_11), |rho_03| - sqrt(p_01 p_10))
    (Wootters; Yu and Eberly), clipped into [0, 1].  W: p_11 = rho_03 = 0,
    rho_12 = a_j a_i*.  GHZ: p_01 = p_10 = rho_12 = 0, rho_03 = |g;0>
    |g;1,1>* at N = 2 and 0 beyond (|g;1...1> leaves photons that |g;0>
    does not).  So C = 2 (|rho_12| + |rho_03|), in O(1) work per pair.
    ValueError refuses a non-finite amplitude (naming it), a norm off 1
    beyond ``ROUNDING_TOL``, and a state of neither class."""
    n = len(support) - 2
    if n < 2:
        raise ValueError(f"the W and GHZ support needs n >= 2, got {n!r}")
    for a in support:
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError(f"support amplitude {a!r} is not finite")
    norm = _norm([a.real for a in support] + [a.imag for a in support])
    if not abs(norm - 1.0) <= ROUNDING_TOL:
        raise ValueError(f"support state norm {norm!r} deviates from 1 beyond {ROUNDING_TOL}")
    vac, ones, modes = support[0], support[n + 1], support[n:0:-1]  # mode k's at index k - 1
    if any(modes) and (vac or ones):
        raise ValueError("not W- or GHZ-class: single photons beside |g;0> or |g;1...1>")
    rho_03 = abs(vac * ones.conjugate()) if n == 2 else 0.0
    return {(i, j): min(2.0 * (abs(modes[j - 1] * modes[i - 1].conjugate()) + rho_03), 1.0)
            for i in range(1, n) for j in range(i + 1, n + 1)}

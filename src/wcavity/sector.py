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

Sector order, that of ``fock.build_basis(N, excitation_cap=1)``: index 0
is |g;0>, index j (1 <= j <= N) is |g; one photon in mode N + 1 - j>, and
index N + 1 is |e;0>.  The W and GHZ support (``entanglement.support_basis``)
has the same order, with |g;1...1> at index N + 1.

This module imports only ``math`` (and ``collections.abc``, for one
annotation), so that a process running ``simulate``, ``entanglement`` or
a sweep never loads numpy; the numpy modules are its oracle.  It also
holds the conventions every output shares: the schema version, the
12-digit number format and the names of the sweep parameters; and the
size rule that admits every command but ``validate``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

#: Version of the report and sweep-file layout.
SCHEMA_VERSION = "3"

#: The rounding tolerance of every constructor check: | ||psi|| - 1 | of a
#: state, | H - H^dag | of an operator, | tr rho - 1 | of a density matrix.
ROUNDING_TOL = 1e-12

#: Norm drift above this signals a propagator defect rather than rounding.
NORM_DRIFT_TOL = 1e-10

#: Largest modulus of an entry of a two-mode reduction outside its
#: diagonal and anti-diagonal for which the reduction counts as an X state.
X_SHAPE_TOL = 1e-15

#: The quantities a robustness sweep varies, each named by this string in
#: the CLI, in ``protocol.require_grid`` and in every output: the evolution
#: time, the couplings, the mode detuning and the mode count.
SWEEP_PARAMETERS = ("timing-error", "coupling-disorder", "detuning", "mode-count")

#: Seed of the randomized self-checks (``validation.run_validation``).
DEFAULT_SEED = 20240201

#: Most modes a run may have, a sector of 1024 states.  It bounds the time
#: and memory of a run, not its rounding: each sum over the modes in this
#: module is rounded once, by ``math.fsum``, at any N.
MAX_MODES = 1022

#: Most amplitudes a run may charge for, N + 2 per point it evolves or
#: scores as one pair (``require_amplitudes``): the size, not the cost.
MAX_AMPLITUDES = 2**20


class PropagationError(RuntimeError):
    """Numerical failure during time evolution (norm drift, overflow)."""


def fmt12(value) -> str:
    """Fixed 12-significant-digit decimal rendering for stable diffs."""
    return f"{float(value):.12g}"


def round12(value: float) -> float:
    return float(fmt12(value))


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
        raise ValueError(f"{command} too large: it computes {points * (n + 2)} amplitudes, "
                         f"above the limit of {MAX_AMPLITUDES}")


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


def _require_couplings(couplings) -> None:
    if not couplings:
        raise ValueError("n_modes must be >= 1")
    if not all(math.isfinite(c) for c in couplings):
        raise ValueError("model parameters must be finite")
    if any(c <= 0 for c in couplings):
        raise ValueError("couplings must be strictly positive")


def evolve(couplings, points) -> Iterator[tuple[complex, complex]]:
    """exp(-i H t) |e;0> in the interaction frame at each (t, detuning) of
    ``points``: yields one pair (excited, bright) of amplitudes on |e;0>
    and the bright mode per point, so that a caller holds only the states
    it keeps.  Mode i (1-based) has coupling ``couplings[i - 1]``, and
    every mode the point's detuning from the atom (0.0: on resonance).
    The inputs are checked when the first state is taken.

    Each pair is the exact exponential of the Morris-Shore 2x2 matrix
    [[0, Omega], [Omega, delta]] on (1, 0), divided by the norm of its
    state, sqrt(|excited|^2 + |bright|^2 ||beta||^2); a drift of that norm
    above ``NORM_DRIFT_TOL``, or non-finite amplitudes, raise
    :class:`PropagationError`."""
    _require_couplings(couplings)
    omega = _norm(couplings)
    if not math.isfinite(omega):
        raise PropagationError(f"coupling norm {omega!r} is not finite")
    squares = math.fsum([(c / omega) * (c / omega) for c in couplings])  # ||beta||^2, once
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
        if not drift <= NORM_DRIFT_TOL:
            raise PropagationError(
                f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL}: propagator defect")
        yield excited / norm, bright / norm


def require_angles(n: int, epsilon: float, points, source: str) -> None:
    """Refuse (ValueError) the first (x, (t, detuning)) of ``points`` at
    which ``evolve`` of n couplings ``epsilon`` turns by an angle
    |(detuning / 2, Omega)| t that is not a finite double; the message
    names the input ``source`` x and the coupling ``--epsilon``, as the CLI
    reads them."""
    omega = _norm((epsilon,) * n)
    for x, (t, detuning) in points:
        if not math.isfinite(_norm((0.5 * detuning, omega)) * t):
            raise ValueError(f"{source} {x!r} is too large for --epsilon {epsilon!r}: "
                             "the angle sqrt(Omega^2 + detuning^2 / 4) t is not finite")


def closed_form(couplings, t: float) -> tuple[complex, complex]:
    """The resonant pair (excited, bright) = (cos(Omega t), -i sin(Omega t))
    of the excited-atom vacuum at time t, interaction frame, with Omega the
    couplings' norm, as ``evolve`` takes it.  The angle must be finite and
    the bright mode's squared norm within ``ROUNDING_TOL`` of 1 (ValueError)."""
    _require_couplings(couplings)
    omega = _norm(couplings)
    angle = omega * t
    if not math.isfinite(angle):
        raise ValueError("amplitudes must be finite")
    squares = math.fsum([(c / omega) * (c / omega) for c in couplings])
    if not abs(squares - 1.0) <= ROUNDING_TOL:
        raise ValueError(f"bright mode norm^2 {squares!r} deviates from 1 beyond {ROUNDING_TOL}")
    return complex(math.cos(angle), 0.0), complex(0.0, -math.sin(angle))


def amplitudes(couplings, pair) -> list[complex]:
    """The N + 2 sector amplitudes of the state that ``pair`` of ``couplings``
    stands for: 0 on |g;0>, bright eps_i / Omega on mode i, excited on |e;0>."""
    excited, bright = pair
    omega = _norm(couplings)
    return [bright * r for r in (0.0, *(c / omega for c in reversed(couplings)))] + [excited]


def w_overlap(couplings) -> float:
    """<W_N|beta> = sum_i (1 / sqrt(N)) (eps_i / Omega), the W state's overlap
    with the bright mode of ``couplings``, correctly rounded by ``math.fsum``."""
    weight = 1.0 / math.sqrt(len(couplings))
    omega = _norm(couplings)
    return math.fsum([weight * (c / omega) for c in couplings])


def w_fidelity(pair, overlap: float) -> float:
    """|<W_N, g|psi>|^2 = |bright <W_N|beta>|^2 of a pair, ``overlap`` the
    ``w_overlap`` of its couplings, clipped to 1 against rounding."""
    return min(abs(pair[1] * overlap) ** 2, 1.0)


def w_support(n: int) -> list[float]:
    """|W_N> on its N + 2 support states: 1/sqrt(N) on each |g;1_i>."""
    weight = 1.0 / math.sqrt(n)
    return [0.0] + [weight] * n + [0.0]


def ghz_support(n: int) -> list[float]:
    """(|0...0> + |1...1>)/sqrt(2) on its N + 2 support states."""
    half = 1.0 / math.sqrt(2.0)
    return [half] + [0.0] * n + [half]


def pair_reductions(support):
    """Yield ((i, j), rho) for every mode pair i < j, in lexicographic
    order: the reduced density matrix of modes i and j, a 4x4 nested list
    in the order |n_i n_j> = 00, 01, 10, 11, of the pure state with the
    N + 2 support amplitudes ``support`` (the atom in its ground state).

    Tracing out the atom and the other modes groups the support states by
    what they leave there: |g;0>, |g;1_i> and |g;1_j> leave nothing;
    |g;1_k> leaves one photon in mode k; |g;1...1> leaves N - 2 photons,
    which is nothing at N = 2 and the photon of |g;1_k> at N = 3.
    """
    n = len(support) - 2
    if n < 2:
        raise ValueError(f"the W and GHZ support needs n >= 2, got {n!r}")
    vac, ones = support[0], support[n + 1]
    singles = [abs(a) ** 2 for a in support[1:n + 1]]
    for i in range(1, n):
        x = support[n + 1 - i]
        for j in range(i + 1, n + 1):
            y = support[n + 1 - j]
            # summed, not subtracted from the total: rho_00 multiplies
            # rho_33 under a square root, which would turn a rounding
            # residue of 1e-17 into a concurrence error of 1e-8
            lo, hi = n - j, n - i
            rest = math.fsum(singles[:lo] + singles[lo + 1:hi] + singles[hi + 1:])
            # the state that leaves what |g;1...1> leaves: |g;0> at N = 2,
            # |g;1_k> for the third mode k at N = 3, none beyond
            partner = vac if n == 2 else support[i + j - 2] if n == 3 else 0.0
            rho = [
                [abs(vac) ** 2 + rest, vac * y.conjugate(), vac * x.conjugate(),
                 partner * ones.conjugate()],
                [0.0, abs(y) ** 2, y * x.conjugate(), y * ones.conjugate() if n == 2 else 0.0],
                [0.0, 0.0, abs(x) ** 2, x * ones.conjugate() if n == 2 else 0.0],
                [0.0, 0.0, 0.0, abs(ones) ** 2],
            ]
            for r in range(1, 4):
                for c in range(r):
                    rho[r][c] = rho[c][r].conjugate()
            yield (i, j), rho


def x_concurrence(rho) -> float:
    """Concurrence of a two-qubit X state (Wootters; Yu and Eberly):
    2 max(0, |rho_12| - sqrt(rho_00 rho_33), |rho_03| - sqrt(rho_11 rho_22)),
    clipped into [0, 1].  Raises ValueError unless every entry off the
    diagonal and the anti-diagonal is at most ``X_SHAPE_TOL`` in modulus."""
    off = max(abs(rho[r][c]) for r, c in ((0, 1), (0, 2), (1, 3), (2, 3)))
    if not off <= X_SHAPE_TOL:
        raise ValueError(f"two-mode reduction is not an X state: off-X entry {off:.3e}")
    d = [rho[k][k].real for k in range(4)]
    coherent = abs(rho[1][2]) - math.sqrt(max(d[0] * d[3], 0.0))
    paired = abs(rho[0][3]) - math.sqrt(max(d[1] * d[2], 0.0))
    return min(max(2.0 * coherent, 2.0 * paired, 0.0), 1.0)


def pairwise_concurrences(support) -> dict[tuple[int, int], float]:
    """Concurrence of every two-mode reduction of the state with N + 2
    support amplitudes ``support``, keyed by mode pair (i, j), i < j, in
    lexicographic order."""
    return {pair: x_concurrence(rho) for pair, rho in pair_reductions(support)}

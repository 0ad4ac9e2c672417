"""Self-check suite: the cross-checks behind `wcavity validate`, on the
standard library alone.

Each check measures a defect on randomized inputs, evaluating each draw
through one operator and one state as it draws it, and compares the
largest defect to ``sector.ROUNDING_TOL`` (``rng-stream`` counts the
keys whose draws differ, and admits none).  The dense oracle here builds
each operator on the N + 2 state sector from its couplings and
detunings alone (:func:`build_arrowhead`, the one builder of H: the
numpy oracle ``dynamics.build_hamiltonian`` wraps its rows),
diagonalizes it by cyclic Jacobi rotations (:func:`jacobi`) and evolves
a state by the phases of its eigenvalues (:func:`propagate`).  It checks
itself and ``sector``'s closed form and propagator, the routes
``simulate`` and the sweeps run; ``rabi-period`` times the Rabi period,
four times t*, on ``sector.evolve``; a committed checksum of numpy's
draws checks ``normals``, the disorder sweep's stream; and
``hamiltonian-moments`` checks the builder's layout by tr H^3, which
ties each mode's detuning to its coupling.  A route that raises in a
check fails that check (:func:`_check`).  The checks read ``sector``'s
routes off the module at each call, so a test can patch one from outside:
the tests run ``sector.evolve`` to -t instead of t, the sign error a bug
in its 2x2 phase makes, and ``sector-vs-dense`` alone fails.

Each check draws from its own ``random.Random``, keyed by the seed and
the check's name.  Every sum of floats is a plain loop or ``math.fsum``
and every modulus a ``math.sqrt``, neither the builtin ``sum`` nor
``math.hypot``, whose roundings changed in Python 3.12: the bytes of
``validate`` do not depend on the interpreter.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import NamedTuple

from . import normals, sector
from .sector import DEFAULT_SEED, ROUNDING_TOL


class CheckResult(NamedTuple):
    name: str
    passed: bool
    measured: float
    tolerance: float
    cases: int


#: The sweeps after which :func:`jacobi` gives up on a matrix.
JACOBI_SWEEPS = 64

#: The fraction of ||A||_F at or below which :func:`jacobi` takes an
#: off-diagonal entry for zero: without it, the rotations of a matrix with
#: a multiple eigenvalue (equal couplings) leave entries near 1e-17 that
#: they never zero.
JACOBI_SKIP = 2.0**-60


def build_arrowhead(couplings, detunings) -> list[list[float]]:
    """The atom-field Hamiltonian on the N + 2 sector states of the
    ``sector`` module docstring, N the number of couplings, in the
    interaction frame::

        H = sum_i delta_i * n_i + sum_i eps_i * (a_i s_+ + a_i^dag s_-)

    with eps_i the ``couplings`` and delta_i the ``detunings``, one of each
    per mode (ValueError for unequal counts, a non-finite value or a
    coupling that is not positive, then for more than ``sector.MAX_MODES``
    modes, before any row is built), as a list of rows.  It is a real
    arrowhead: mode i's detuning, as 0.0 + delta_i, on the diagonal at
    |g;1_i>, index N + 1 - i, and its coupling between that state and
    |e;0>, index N + 1.  :func:`check_hamiltonian_moments` checks that
    layout, and ``dynamics.build_hamiltonian`` wraps these rows.
    """
    if len(couplings) != len(detunings):
        raise ValueError(f"one detuning per coupling: got {len(couplings)} couplings "
                         f"and {len(detunings)} detunings")
    if not all(math.isfinite(v) for v in (*detunings, *couplings)):
        raise ValueError("model parameters must be finite")
    if any(c <= 0 for c in couplings):
        raise ValueError("couplings must be strictly positive")
    if len(couplings) > sector.MAX_MODES:
        raise ValueError(f"n_modes is above the limit of {sector.MAX_MODES} modes")
    excited = len(couplings) + 1
    matrix = [[0.0] * (excited + 1) for _ in range(excited + 1)]
    for i, (detuning, coupling) in enumerate(zip(detunings, couplings), start=1):
        k = excited - i
        matrix[k][k] = 0.0 + detuning
        matrix[k][excited] = matrix[excited][k] = float(coupling)
    return matrix


def jacobi(matrix) -> tuple[list[float], list[list[float]]]:
    """(eigenvalues, V) of a real symmetric matrix, a list of rows: V's
    column j is the unit eigenvector of eigenvalue j.

    Cyclic Jacobi, row by row (Golub and Van Loan, *Matrix Computations*,
    section 8.5): each rotation zeroes one off-diagonal entry, taking the
    smaller rotation angle, and an entry of at most ``JACOBI_SKIP`` times
    ||A||_F counts as zero.  The sweeps stop after one that rotates
    nothing.  ValueError refuses a matrix that is not square, not finite
    or not symmetric within ``ROUNDING_TOL``; a matrix not diagonal after
    ``JACOBI_SWEEPS`` sweeps raises :class:`sector.PropagationError`."""
    n = len(matrix)
    a = [[float(x) for x in row] for row in matrix]
    if any(len(row) != n for row in a):
        raise ValueError("the matrix must be square")
    norm = math.sqrt(math.fsum([x * x for row in a for x in row]))
    if not math.isfinite(norm):
        raise ValueError("operator entries must be finite")
    for p in range(n):
        for q in range(p + 1, n):
            if not abs(a[p][q] - a[q][p]) <= ROUNDING_TOL:
                raise ValueError(f"matrix is not symmetric: |A_pq - A_qp| = "
                                 f"{abs(a[p][q] - a[q][p]):.3e} at ({p}, {q})")
            a[q][p] = a[p][q]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    floor = JACOBI_SKIP * norm
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if abs(apq) <= floor:
                    continue
                rotated = True
                aq = a[q]
                # t = tan(theta) is the smaller root of t^2 + 2 tau t - 1 = 0
                tau = (aq[q] - ap[p]) / (2.0 * apq)
                root = math.sqrt(1.0 + tau * tau)
                t = 1.0 / (tau + root) if tau >= 0.0 else -1.0 / (root - tau)
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                ap[p] -= t * apq
                aq[q] += t * apq
                ap[q] = aq[p] = 0.0
                for k in range(n):
                    if k != p and k != q:
                        ak = a[k]
                        akp, akq = ak[p], ak[q]
                        ak[p] = ap[k] = c * akp - s * akq
                        ak[q] = aq[k] = s * akp + c * akq
                for row in v:
                    vp, vq = row[p], row[q]
                    row[p] = c * vp - s * vq
                    row[q] = s * vp + c * vq
        if not rotated:
            return [a[i][i] for i in range(n)], v
    raise sector.PropagationError(f"Jacobi left an off-diagonal entry above "
                                  f"{JACOBI_SKIP} ||A||_F after {JACOBI_SWEEPS} sweeps")


def propagate(spectrum, psi, t: float) -> list[complex]:
    """exp(-i H t) psi for one time t (which may be negative), H given by
    its ``spectrum``, the (eigenvalues, V) of :func:`jacobi`, and psi by
    its amplitudes.

    psi is taken into the eigenbasis (V^T psi), each component turned by
    exp(-i lambda t), and taken back.  The state is renormalized only when
    its norm drift is at most ``ROUNDING_TOL``; a larger drift, or a
    non-finite amplitude, raises :class:`sector.PropagationError`.  t must
    be finite (ValueError)."""
    values, vectors = spectrum
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t!r}")
    dim = len(values)
    turned = []
    for j in range(dim):
        re = im = 0.0
        for k in range(dim):
            weight = vectors[k][j]
            re += weight * psi[k].real
            im += weight * psi[k].imag
        angle = values[j] * t
        if not math.isfinite(angle):
            raise sector.PropagationError("propagation produced non-finite amplitudes "
                                          "(parameter overflow)")
        c, s = math.cos(angle), -math.sin(angle)
        turned.append((re * c - im * s, re * s + im * c))
    out = []
    for row in vectors:
        re = im = 0.0
        for weight, (x, y) in zip(row, turned):
            re += weight * x
            im += weight * y
        out.append((re, im))
    if not all(math.isfinite(re) and math.isfinite(im) for re, im in out):
        raise sector.PropagationError("propagation produced non-finite amplitudes "
                                      "(parameter overflow)")
    norm = math.sqrt(math.fsum([x * x for pair in out for x in pair]))
    drift = abs(norm - 1.0)
    if drift > ROUNDING_TOL:
        raise sector.PropagationError(
            f"norm drift {drift:.3e} exceeds {ROUNDING_TOL}: propagator defect")
    return [complex(re / norm, im / norm) for re, im in out]


def _gap(a, b) -> float:
    """max |a_k - b_k| of two amplitude sequences."""
    worst = 0.0
    for x, y in zip(a, b):
        d = x - y
        worst = max(worst, math.sqrt(d.real * d.real + d.imag * d.imag))
    return worst


def _random_params(rng) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(couplings, detunings) of one to four modes, the detunings drawn first."""
    n = rng.randint(1, 4)
    detunings = tuple(rng.uniform(-5.0, 5.0) for _ in range(n))
    return tuple(rng.uniform(0.1, 3.0) for _ in range(n)), detunings


def _random_state(rng, dim: int) -> list[complex]:
    """A unit vector of ``dim`` complex amplitudes, the real parts drawn
    first, each part a standard normal."""
    parts = [rng.gauss(0.0, 1.0) for _ in range(2 * dim)]
    norm = math.sqrt(math.fsum([x * x for x in parts]))
    return [complex(re / norm, im / norm) for re, im in zip(parts[:dim], parts[dim:])]


def _check(name: str, defects, cases: int) -> CheckResult:
    """The check ``name``: the largest defect of ``defects(cases)``, an
    iterable that runs the routes under check on ``cases`` draws, against
    ``ROUNDING_TOL``.  A ValueError or PropagationError raised on the way is
    a fault of a route (say, a built operator that :func:`jacobi` refuses,
    or one it does not diagonalize in ``JACOBI_SWEEPS`` sweeps): the check
    reads FAIL with an infinite defect, rather than stopping the suite as
    bad input."""
    worst = 0.0
    try:
        for defect in defects(cases):
            worst = max(worst, defect)
    except (ValueError, sector.PropagationError):
        worst = math.inf
    return CheckResult(name, worst <= ROUNDING_TOL, worst, ROUNDING_TOL, cases)


def check_unitarity(rng) -> CheckResult:
    """max |V^T V - I| of the eigenvectors V of :func:`jacobi`, which
    :func:`propagate` evolves in: a drift that its renormalization would
    hide shows here."""
    def defects(draws):
        for _ in range(draws):
            couplings, detunings = _random_params(rng)
            _, v = jacobi(build_arrowhead(couplings, detunings))
            worst = 0.0
            for i in range(len(v)):
                for j in range(i, len(v)):
                    dot = 0.0
                    for row in v:
                        dot += row[i] * row[j]
                    worst = max(worst, abs(dot - (i == j)))
            yield worst
    return _check("propagator-unitarity", defects, 50)


def check_composition(rng) -> CheckResult:
    """U(t2) U(t1) psi against U(t1 + t2) psi on random states, all three
    from one diagonalization of each drawn operator."""
    def defects(draws):
        for _ in range(draws):
            couplings, detunings = _random_params(rng)
            spectrum = jacobi(build_arrowhead(couplings, detunings))
            psi = _random_state(rng, len(couplings) + 2)
            t1 = rng.uniform(-5.0, 5.0)
            t2 = rng.uniform(-5.0, 5.0)
            two = propagate(spectrum, propagate(spectrum, psi, t1), t2)
            yield _gap(two, propagate(spectrum, psi, t1 + t2))
    return _check("propagator-composition", defects, 50)


def _sector_gap(couplings, detuning: float, t: float, mode: sector.BrightMode, pair) -> float:
    """The amplitude gap between the N + 2 amplitudes that ``pair`` of
    ``mode``, at time t, stands for and the dense sector propagator of
    ``couplings`` and one common ``detuning``."""
    n = len(couplings)
    spectrum = jacobi(build_arrowhead(couplings, (detuning,) * n))
    dense = propagate(spectrum, [0j] * (n + 1) + [1 + 0j], t)
    return _gap(sector.amplitudes(mode, pair), dense)


def check_oracle_equivalence(rng) -> CheckResult:
    """``sector.closed_form``, the closed form that ``simulate`` and the
    coupling-disorder sweep run, against the dense propagator on random
    resonant draws."""
    def gaps(draws):
        for _ in range(draws):
            n = rng.randint(1, 6)
            eps = rng.uniform(0.1, 10.0)
            t = rng.uniform(0.0, 4.0 * math.pi / eps)
            mode = sector.bright_mode((eps,) * n)
            yield _sector_gap((eps,) * n, 0.0, t, mode, sector.closed_form(mode, t))
    return _check("closed-form-vs-numeric", gaps, 100)


def check_sector_route(rng) -> CheckResult:
    """``sector.evolve``, the route ``simulate`` and three sweeps run,
    against the dense sector route on random draws: unequal couplings and
    one common detuning."""
    def gaps(draws):
        for _ in range(draws):
            n = rng.randint(1, 6)
            couplings = tuple(rng.uniform(0.1, 3.0) for _ in range(n))
            detuning = rng.uniform(-5.0, 5.0)
            t = rng.uniform(-5.0, 5.0)
            mode = sector.bright_mode(couplings)
            (pair,) = sector.evolve(mode, ((t, detuning),))
            yield _sector_gap(couplings, detuning, t, mode, pair)
    return _check("sector-vs-dense", gaps, 24)


def check_hamiltonian_moments(rng) -> CheckResult:
    """tr H^3 of :func:`build_arrowhead` against sum_i delta_i^3 +
    3 sum_i eps_i^2 delta_i on random draws, relative to sum_i |delta_i|^3
    + 3 sum_i eps_i^2 |delta_i|.  tr H and tr H^2 do not tie a mode's
    detuning to its coupling, and tr H^3 does, read off the rows as
    sum_ijk H_ij H_jk H_ki with no index convention: a detuning written on
    another mode's diagonal fails here, where every check that propagates
    holds for any symmetric matrix or draws one common detuning."""
    def defects(draws):
        for _ in range(draws):
            couplings, detunings = _random_params(rng)
            h = build_arrowhead(couplings, detunings)
            dim = range(len(h))
            trace = math.fsum([h[i][j] * h[j][k] * h[k][i] for i in dim for j in dim for k in dim])
            law = math.fsum([*(d * d * d for d in detunings),
                             *(3.0 * e * e * d for e, d in zip(couplings, detunings))])
            scale = math.fsum([*(abs(d * d * d) for d in detunings),
                               *(3.0 * e * e * abs(d) for e, d in zip(couplings, detunings))])
            yield abs(trace - law) / scale
    return _check("hamiltonian-moments", defects, 50)


#: The keys of ``rng-stream``, one to four entries of 1, 32 and 64 bits,
#: the edge words 0, 2^32 - 1, 2^63 and 2^64 - 1 among them, and the
#: ``zlib.crc32`` of the text of numpy's first 256 draws at each,
#: ``numpy.random.default_rng(key).standard_normal(256)``: each draw's
#: ``float.hex`` and a newline (numpy 2.4.6).
RNG_KEYS = (
    ((0,), 0x51FF3F09),
    ((1,), 0x9A5E4A3F),
    ((2**32 - 1, 0), 0x7FE88C84),
    ((2**63, 1, 2**32 - 1), 0xFD17BB89),
    ((2**64 - 1,), 0x05E18A42),
    ((3141592653, 2**64 - 1, 0, 1), 0x285C02FE),
    ((20240201, 7, 99), 0x9B358DEC),
    ((0x9E3779B97F4A7C15, 0xDEADBEEF, 1, 0), 0x6E906773),
)

#: Draws of ``rng-stream`` per key.
RNG_DRAWS = 256


def stream_checksum(key) -> int:
    """The ``zlib.crc32`` of the first ``RNG_DRAWS`` normals of
    ``normals.standard_normals(key)``, as :data:`RNG_KEYS` holds numpy's."""
    stream = normals.standard_normals(key)
    return zlib.crc32("".join(f"{next(stream).hex()}\n" for _ in range(RNG_DRAWS)).encode())


def check_rng_stream() -> CheckResult:
    """The standard-library normal stream of the coupling-disorder sweep
    against numpy's ``default_rng(key).standard_normal`` at each key of
    :data:`RNG_KEYS`, by checksum: the number of keys whose draws differ."""
    differ = sum(stream_checksum(key) != crc for key, crc in RNG_KEYS)
    return CheckResult("rng-stream", differ == 0, float(differ), 0.0,
                       len(RNG_KEYS) * RNG_DRAWS)


def _find_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """A root of f between a < b, where fa = f(a) and fb = f(b) differ in
    sign or one is zero, by bisection: a point where f is exactly zero or,
    once no float is left between the ends, the end with the smaller |f|."""
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    while True:
        x = a + 0.5 * (b - a)
        if not a < x < b:
            return a if abs(fa) <= abs(fb) else b
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx


def measure_rabi_period(n: int, epsilon: float) -> float:
    """Full oscillation period of the excited-state population of
    ``sector.evolve`` at n resonant modes of coupling ``epsilon``.

    The excited amplitude, cos(sqrt(n) epsilon t), changes sign twice per
    cycle.  One ``evolve`` call scans 121 evenly spaced times up to the
    third change, and :func:`_find_root` bisects each, one ``evolve`` call a
    point; the period is the distance between the first and third zeros.
    The analytic estimate only sets the span, and fewer than three changes
    in it raise ValueError.
    """
    mode = sector.bright_mode((epsilon,) * n)

    def excited_amplitude(t: float) -> float:
        ((excited, _),) = sector.evolve(mode, ((t, 0.0),))
        return excited.real

    span = 1.45 * (2.0 * math.pi / (math.sqrt(n) * epsilon))
    step = span / 120  # numpy.linspace's times
    ts = [k * step for k in range(120)] + [span]
    states = sector.evolve(mode, [(t, 0.0) for t in ts])
    zeros, fa = [], next(states)[0].real
    for a, b, (excited, _) in zip(ts, ts[1:], states):
        fb = excited.real
        if fa == 0.0 or fa * fb < 0.0:
            zeros.append(_find_root(excited_amplitude, a, b, fa, fb))
            if len(zeros) == 3:
                return zeros[2] - zeros[0]
        fa = fb
    raise ValueError("fewer than three sign changes in 1.45 estimated periods")


def check_rabi_period() -> CheckResult:
    """The period of :func:`measure_rabi_period` against 2 pi / sqrt(N) at
    N = 1..6 and epsilon = 1: the relative error."""
    def errors(modes):
        for n in range(1, modes + 1):
            expected = 2.0 * math.pi / math.sqrt(n)
            yield abs(measure_rabi_period(n, 1.0) - expected) / expected
    return _check("rabi-period", errors, 6)


def run_validation(seed: int = DEFAULT_SEED) -> tuple[CheckResult, ...]:
    """Every check's result, each drawing from its own stream, keyed by
    ``seed`` and the check's name; deterministic per seed."""
    def stream(name: str) -> random.Random:
        return random.Random(f"{seed} {name}")

    return (
        check_unitarity(stream("propagator-unitarity")),
        check_composition(stream("propagator-composition")),
        check_oracle_equivalence(stream("closed-form-vs-numeric")),
        check_rabi_period(),
        check_sector_route(stream("sector-vs-dense")),
        check_rng_stream(),
        check_hamiltonian_moments(stream("hamiltonian-moments")),
    )

"""Preparation protocol, optimal timing, and robustness sweeps.

Conventions: epsilon fixes the inverse time scale.  Timing-error grids
are dimensionless multiples of 1/epsilon (the offset in time is
x / epsilon), detuning grids are multiples of epsilon, disorder grids are
relative standard deviations.  All sweeps are deterministic functions of
(seed, grid, trials); random streams are keyed by (seed, grid index,
trial index) so grid points and trials can run in any order or in
parallel without changing results.

Each sweep takes plain values, a grid of None for its default grid, and
checks them with ``require_grid`` before any work.  It returns one
``SweepRow`` per grid entry, in grid order, and nothing else: its inputs
are the caller's, and t* is ``optimal_time`` of them.  The CLI admits a
sweep by that call alone, so the library and the CLI refuse a bad grid,
an input above the size rule, or one the sweep cannot run in doubles,
with one message.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# The sweeps run on `sector`, and the disorder sweep draws from `normals`,
# both on the standard library alone: no numpy module is imported here.
from . import sector
from .sector import optimal_time


def _linspace(start: float, stop: float, num: int) -> tuple[float, ...]:
    """``num`` evenly spaced points from ``start`` to ``stop``, computed
    as numpy.linspace computes them, so that each is the same double."""
    step = (stop - start) / (num - 1)
    return (*(i * step + start for i in range(num - 1)), stop)


def _default_grid(parameter: str, n: int | None) -> tuple[float, ...]:
    if parameter == "timing-error":
        span = 0.2 * math.pi / (2.0 * math.sqrt(n))  # +-20% of the optimal time
        return _linspace(-span, span, 41)
    if parameter == "coupling-disorder":
        return _linspace(0.0, 0.1, 11)
    if parameter == "detuning":
        return _linspace(-2.0, 2.0, 41)
    return tuple(float(n) for n in range(1, 9))


def _points(parameter: str, grid, t_star: float, epsilon: float):
    """The (t, detuning) of each entry x of a timing-error or detuning grid."""
    if parameter == "timing-error":
        return ((t_star + x / epsilon, 0.0) for x in grid)
    return ((t_star, x * epsilon) for x in grid)


def require_grid(parameter: str, grid, n: int | None, epsilon: float, trials: int = 1,
                 seed: int = 0) -> tuple[float, ...]:
    """``grid``, or the default grid if it is None, as a tuple of floats,
    once it and N, epsilon, ``trials`` and ``seed`` are inputs that the
    sweep of ``parameter`` (a key of ``cli.SWEEP_UNREAD``) runs in
    doubles; ``n`` is None for the mode-count sweep, whose grid lists the
    counts.  The size rule is ``sector``'s: N (for the mode-count sweep,
    the largest grid entry) from 1 to ``sector.MAX_MODES``, and grid length
    x ``trials`` points of N + 2 amplitudes.  The range rule is the
    route's: t* and each angle of ``sector.evolve`` must be finite
    (``sector.require_angles``), and the disorder sweep's t* and its drawn
    couplings' sum of squares finite
    (``_require_normal_squares``).  The CLI makes no admission call of its
    own: a sweep it runs refuses here, and the CLI prints this message."""
    if n is not None:  # first: the default grid and the range rule need 1 <= N
        sector.require_modes(n, f"--n {n}")
    source = "--grid entry"
    if grid is None:
        grid, source = _default_grid(parameter, n), "default grid entry"
    grid = tuple(float(x) for x in grid)
    if not grid:
        raise ValueError("sweep grid must not be empty")
    if not all(math.isfinite(x) for x in grid):
        raise ValueError("sweep grid must be finite")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if parameter == "coupling-disorder":
        if any(x < 0 for x in grid):
            raise ValueError("disorder grid entries must be >= 0")
        optimal_time(n, epsilon)  # here, so that a refused sweep imports no normals
        _require_normal_squares(n, epsilon, grid, source)
    elif parameter == "mode-count":
        if any(x != int(x) or x < 1 for x in grid):
            raise ValueError("mode-count grid entries must be positive integers")
        # t* falls as N grows, so the ends of the grid bound it, and each
        # count evolves to its t* only
        for count in (int(min(grid)), int(max(grid))):
            optimal_time(count, epsilon)
        n = int(max(grid))
        sector.require_modes(n, f"--grid entry {max(grid)!r}")
    else:
        points = _points(parameter, grid, optimal_time(n, epsilon), epsilon)
        mode = sector.bright_mode((epsilon,) * n)
        sector.require_angles(mode, epsilon, zip(grid, points), source)
    sector.require_amplitudes("sweep", n, len(grid) * trials)
    return grid


class SweepRow(NamedTuple):
    """One row of a sweep, at grid entry ``x``; the CLI writes the fields
    in this order.  A sweep that draws nothing repeats its one fidelity as
    mean, min and max, so that every sweep writes the same table."""

    x: float
    fidelity_mean: float
    fidelity_min: float
    fidelity_max: float


def _evolved_sweep(parameter: str, n: int, epsilon: float, grid) -> list[SweepRow]:
    """A timing-error or detuning sweep: one ``sector.evolve`` call, scored."""
    grid = require_grid(parameter, grid, n, epsilon)
    t_star, mode = optimal_time(n, epsilon), sector.bright_mode((epsilon,) * n)
    states = sector.evolve(mode, _points(parameter, grid, t_star, epsilon))
    return [SweepRow(x, *[sector.w_fidelity(pair, mode)] * 3) for x, pair in zip(grid, states)]


def timing_error_sweep(n: int, epsilon: float, grid) -> list[SweepRow]:
    """Fidelity versus timing offset around the optimal time.

    Grid entries are offsets in units of 1/epsilon; the state is evolved
    to t* + x/epsilon and scored against the W target, so the rows check
    the analytic law cos^2(sqrt(n) x) with the propagator, not with the
    formula that predicts it.
    """
    return _evolved_sweep("timing-error", n, epsilon, grid)


def _disorder_couplings(normals, n: int, epsilon: float, sigma: float) -> list[float]:
    """eps_i = eps (1 + sigma xi_i) for the next n draws xi_i of
    ``normals``; while any is non-positive, each such coupling, in index
    order, takes the next draw."""
    couplings = [epsilon * (1.0 + sigma * next(normals)) for _ in range(n)]
    while True:
        bad = [i for i, c in enumerate(couplings) if c <= 0.0]
        if not bad:
            return couplings
        for i in bad:
            couplings[i] = epsilon * (1.0 + sigma * next(normals))


#: A bound on |xi| of every draw of ``normals.standard_normals``: its
#: ziggurat tail returns at most R + 53 ln 2 / R, about 13.71.
_NORMAL_BOUND = 14.0


def _require_normal_squares(n: int, epsilon: float, grid, source: str) -> None:
    """Refuse an epsilon whose N-fold sum of squares overflows.  Then
    refuse the first sigma of ``grid`` at which a drawn coupling
    epsilon (1 + xi sigma), |xi| <= ``_NORMAL_BOUND``, may make that sum
    overflow; the message names the input ``source`` sigma and the
    coupling ``--epsilon``, as the CLI reads them.  It is the upper range
    of the numpy route, which summed the squared couplings in doubles;
    ``sector._norm`` needs no such range, but the sweep keeps it.  An
    epsilon whose square underflows runs: ``_norm`` scales such couplings
    by a power of two, and the cells the CLI writes are those of
    epsilon = 1."""
    if not math.isfinite(n * (epsilon * epsilon)):
        raise ValueError(f"--epsilon {epsilon!r} is too large: N * epsilon^2 overflows at N = {n}")
    for sigma in grid:
        largest = epsilon * (1.0 + _NORMAL_BOUND * sigma)
        if not math.isfinite(n * (largest * largest)):
            raise ValueError(f"{source} {sigma!r} is too large for --epsilon {epsilon!r}: "
                             f"N * (epsilon (1 + {_NORMAL_BOUND:g} sigma))^2 overflows at N = {n}")


def coupling_disorder_sweep(n: int, epsilon: float, grid, trials: int, seed: int) -> list[SweepRow]:
    """Monte-Carlo fidelity under relative Gaussian coupling disorder.

    At grid value sigma every trial draws couplings eps_i = eps (1 + sigma
    xi_i) with xi_i standard normal (non-positive draws are redrawn) and
    evolves in closed form to the nominal optimal time.  The draws are
    those of ``numpy.random.default_rng([seed, grid index, trial
    index]).standard_normal``, reproduced by :mod:`wcavity.normals`.  Each
    trial is scored as it is drawn, by ``sector.w_fidelity`` of the
    ``sector.closed_form`` pair of its ``sector.bright_mode`` at t*; a row's
    mean, the ``math.fsum`` of its trials over their count, rounds once.
    The tests compare the rows with the numpy route this sweep replaced,
    and decide a cell where the two differ by a 50-digit reference.
    """
    grid = require_grid("coupling-disorder", grid, n, epsilon, trials, seed)
    from .normals import standard_normals  # after the refusal: a refused sweep compiles nothing

    t_star = optimal_time(n, epsilon)
    rows = []
    for gi, sigma in enumerate(grid):
        # require_grid bounds every coupling, and the sum of their squares
        draws = (_disorder_couplings(standard_normals((seed, gi, trial)), n, epsilon, sigma)
                 for trial in range(trials))
        fids = [sector.w_fidelity(sector.closed_form(mode, t_star), mode)
                for mode in map(sector.bright_mode, draws)]
        rows.append(SweepRow(sigma, math.fsum(fids) / len(fids), min(fids), max(fids)))
    return rows


def detuning_sweep(n: int, epsilon: float, grid) -> list[SweepRow]:
    """Fidelity versus common-mode detuning at the optimal time.

    Grid entries are detunings in units of epsilon; all modes are shifted
    together and the evolution runs in the frame rotating at the atomic
    frequency.
    """
    return _evolved_sweep("detuning", n, epsilon, grid)


def mode_count_sweep(epsilon: float, grid) -> list[SweepRow]:
    """Numeric fidelity at the optimal time for each mode count in the
    grid; a count that repeats is evolved once."""
    counts = [int(x) for x in require_grid("mode-count", grid, None, epsilon)]
    fidelities = {}
    for n in dict.fromkeys(counts):
        mode = sector.bright_mode((epsilon,) * n)
        (pair,) = sector.evolve(mode, ((optimal_time(n, epsilon), 0.0),))
        fidelities[n] = sector.w_fidelity(pair, mode)
    return [SweepRow(float(n), *[fidelities[n]] * 3) for n in counts]

"""Preparation protocol, optimal timing, and robustness sweeps.

Conventions: epsilon fixes the inverse time scale.  Timing-error grids
are dimensionless multiples of 1/epsilon (the offset in time is
x / epsilon), detuning grids are multiples of epsilon, disorder grids are
relative standard deviations.  All sweeps are deterministic functions of
(seed, grid, trials); random streams are keyed by (seed, grid index,
trial index) so grid points and trials can run in any order or in
parallel without changing results.

Each sweep takes plain values, a grid of None for its default grid, and
checks them with ``require_grid`` before any work, as the CLI does: both
refuse a bad grid, an input above the size rule, or one the sweep cannot
run in doubles, with one message.
"""

from __future__ import annotations

import math
import sys
import time
from typing import NamedTuple

# The sweeps run on `sector`, and the disorder sweep draws from `normals`,
# both on the standard library alone: no numpy module is imported here.
from . import sector
from .sector import SCHEMA_VERSION, fmt12, optimal_time, round12


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
    sweep of ``parameter`` (one of ``sector.SWEEP_PARAMETERS``) runs in
    doubles; ``n`` is None for the mode-count sweep, whose grid lists the
    counts.  The size rule is ``sector``'s: N (for the mode-count sweep,
    the largest grid entry) from 1 to ``sector.MAX_MODES``, and grid length
    x ``trials`` points of N + 2 amplitudes.  The range rule is the
    route's: t* and each angle of ``sector.evolve`` must be finite
    (``sector.require_angles``), and the disorder sweep's epsilon^2 normal
    (``_require_normal_squares``).  The CLI refuses with the same
    messages, after the same call."""
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
        if epsilon > 0:  # else optimal_time refuses it
            _require_normal_squares(n, epsilon)
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
        sector.require_angles(n, epsilon, zip(grid, points), source)
    sector.require_amplitudes("sweep", n, len(grid) * trials)
    return grid


class SweepRow(NamedTuple):
    """One CSV row; the field order is the column order.  A sweep that
    draws nothing repeats its one fidelity as mean, min and max, so that
    every sweep writes the same table."""

    x: float
    fidelity_mean: float
    fidelity_min: float
    fidelity_max: float


CSV_HEADER = ",".join(SweepRow._fields)


class SweepResult(NamedTuple):
    """Rows aligned one-to-one with the grid, plus run metadata."""

    rows: list[SweepRow]
    metadata: dict

    def to_csv_text(self) -> str:
        """CSV form; metadata rides along as # comments, timestamp excluded
        so reruns with the same configuration are byte-identical."""
        lines = [
            f"# {key}={value}"
            for key, value in sorted(self.metadata.items())
            if key != "timestamp"
        ]
        lines.append(CSV_HEADER)
        for row in self.rows:
            lines.append(",".join(fmt12(value) for value in row))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """Combined JSON form: metadata plus the full row table."""
        return {
            "metadata": dict(self.metadata),
            "rows": [
                {name: round12(value) for name, value in zip(SweepRow._fields, row)}
                for row in self.rows
            ],
        }


def _metadata(parameter: str, **fields) -> dict:
    """The schema version and the parameter, then ``fields`` in order (the
    values the sweep used), then the timestamp."""
    md = {"schema_version": SCHEMA_VERSION, "parameter": parameter, **fields}
    md["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
    return md


def _evolved_sweep(parameter: str, n: int, epsilon: float, grid) -> SweepResult:
    """A timing-error or detuning sweep: one ``sector.evolve`` call, scored."""
    grid = require_grid(parameter, grid, n, epsilon)
    t_star = optimal_time(n, epsilon)
    states = sector.evolve((epsilon,) * n, _points(parameter, grid, t_star, epsilon))
    rows = [SweepRow(x, f, f, f) for x, f in zip(grid, map(sector.w_fidelity, states))]
    return SweepResult(rows, _metadata(parameter, n_modes=n, epsilon=epsilon, t_star=t_star))


def timing_error_sweep(n: int, epsilon: float, grid) -> SweepResult:
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


def _pairwise_sum(values) -> float:
    """The sum of ``values`` in numpy's pairwise order (``np.add.reduce`` of
    a float64 array): one running sum below 8 values, eight interleaved
    sums up to 128, and above that the two halves, split at a multiple of
    8, summed apart."""
    n = len(values)
    if n < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if n <= 128:
        acc = list(values[:8])
        stop = n - n % 8
        for i in range(8, stop, 8):
            for j in range(8):
                acc[j] += values[i + j]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for value in values[stop:]:
            total += value
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _w_fidelity_fsum(amps) -> float:
    """``sector.w_fidelity`` with each part of the overlap summed by
    ``math.fsum``, so correctly rounded: the numpy route's BLAS dot agreed
    with it to 12 digits on every disorder row compared, Python's ``sum``
    did not (N = 40, seed 0, sigma = 0.03)."""
    n = len(amps) - 2
    weight = 1.0 / math.sqrt(n)
    terms = [weight * a for a in amps[1:n + 1]]
    overlap = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    return min(max(abs(overlap) ** 2, 0.0), 1.0)


def _numpy_omega(couplings) -> float:
    """Omega = sqrt(sum_i eps_i^2) rounded as numpy rounds it, not as
    ``math.hypot`` does: where sin(Omega t*) nearly vanishes, one ulp of
    Omega moves a fidelity's 12th digit (N = 6, seed 0, sigma = 2).  An
    Omega^2 that overflows is infinite, and ``closed_form`` refuses it."""
    return math.sqrt(_pairwise_sum([c * c for c in couplings]))


def _require_normal_squares(n: int, epsilon: float) -> None:
    """Refuse an epsilon whose square, or N-fold sum of squares, leaves the
    normal doubles: ``_numpy_omega`` sums the squared couplings, and a
    subnormal square keeps too few digits for the norm check."""
    square = epsilon * epsilon
    if square < sys.float_info.min:
        raise ValueError(f"--epsilon {epsilon!r} is too small: "
                         "its square is below the smallest normal double")
    if not math.isfinite(n * square):
        raise ValueError(f"--epsilon {epsilon!r} is too large: N * epsilon^2 overflows at N = {n}")


def coupling_disorder_sweep(n: int, epsilon: float, grid, trials: int, seed: int) -> SweepResult:
    """Monte-Carlo fidelity under relative Gaussian coupling disorder.

    At grid value sigma every trial draws couplings eps_i = eps (1 + sigma
    xi_i) with xi_i standard normal (non-positive draws are redrawn) and
    evolves in closed form to the nominal optimal time.  The draws are
    those of ``numpy.random.default_rng([seed, grid index, trial
    index]).standard_normal``, reproduced by :mod:`wcavity.normals`, and a
    row's mean sums its trials in numpy's order, so the rows are those of
    the numpy route that the tests keep as the oracle.
    """
    from .normals import standard_normals

    grid = require_grid("coupling-disorder", grid, n, epsilon, trials, seed)
    t_star = optimal_time(n, epsilon)
    rows = []
    for gi, sigma in enumerate(grid):
        draws = [_disorder_couplings(standard_normals((seed, gi, trial)), n, epsilon, sigma)
                 for trial in range(trials)]
        # every coupling of the grid point is checked before any trial is
        # scored, as the numpy route checked its (trials, n) array
        if not all(math.isfinite(c) for draw in draws for c in draw):
            raise ValueError("model parameters must be finite")
        fids = [_w_fidelity_fsum(sector.closed_form(draw, t_star, _numpy_omega(draw)))
                for draw in draws]
        rows.append(SweepRow(sigma, _pairwise_sum(fids) / len(fids), min(fids), max(fids)))
    return SweepResult(rows, _metadata(
        "coupling-disorder", n_modes=n, epsilon=epsilon, seed=seed, trials=trials,
        rng="numpy PCG64, one stream per (seed, grid_index, trial_index)", t_star=t_star,
        disorder_model="gaussian relative std-dev, non-positive couplings redrawn",
    ))


def detuning_sweep(n: int, epsilon: float, grid) -> SweepResult:
    """Fidelity versus common-mode detuning at the optimal time.

    Grid entries are detunings in units of epsilon; all modes are shifted
    together and the evolution runs in the frame rotating at the atomic
    frequency.
    """
    return _evolved_sweep("detuning", n, epsilon, grid)


def mode_count_sweep(epsilon: float, grid) -> SweepResult:
    """Numeric fidelity at the optimal time for each mode count in the
    grid; a count that repeats is evolved once."""
    counts = [int(x) for x in require_grid("mode-count", grid, None, epsilon)]
    fidelities = {}
    for n in dict.fromkeys(counts):
        (psi,) = sector.evolve((epsilon,) * n, ((optimal_time(n, epsilon), 0.0),))
        fidelities[n] = sector.w_fidelity(psi)
    rows = [SweepRow(float(n), *[fidelities[n]] * 3) for n in counts]
    return SweepResult(rows, _metadata("mode-count", epsilon=epsilon))

"""Inputs of the two benchmark workloads, generated from the seed.

The seed chooses values only: simulate times, the disorder sweep's seed
and the ``validate --seed``.  It never changes how much work an operation
does, so a claim can be re-checked on a fresh seed under the same load.
Cycle ``c`` of a workload draws from its own PCG64 stream keyed by
``(seed, workload index, c)``, so cycles can be generated in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("cli-small", "cli-dense")

#: Largest mode count ever sent to a command that works on the dense full
#: space of dimension 2 * 2**N.  One dense copy of H takes dim**2 * 16 bytes:
#: 64 MiB at N = 10, 4 GiB at N = 13.
FULL_SPACE_N_MAX = 10

BYTES_PER_COMPLEX = 16

DISORDER_GRID = tuple(float(x) for x in np.linspace(0.0, 0.1, 11))  # CLI default
DISORDER_TRIALS = 100  # also the CLI default

#: A cycle of cli-small (a set-up, its 7 calls and a speed probe) takes
#: about this long on a calm 2-core host.
SECONDS_PER_CYCLE = 6.0
#: Fewest calls in a run: with 10 calls beyond it, the tail then lies above
#: the median (p58 of 24).
MIN_CALLS = 24


def default_grid(parameter: str, n: int) -> tuple[float, ...]:
    """The grid the CLI uses when ``--grid`` is not given."""
    if parameter == "timing-error":
        span = 0.2 * optimal_time(n)
        return tuple(float(x) for x in np.linspace(-span, span, 41))
    if parameter == "coupling-disorder":
        return DISORDER_GRID
    if parameter == "detuning":
        return tuple(float(x) for x in np.linspace(-2.0, 2.0, 41))
    return tuple(float(x) for x in range(1, 9))


def dense_bytes(dim: int) -> int:
    return dim * dim * BYTES_PER_COMPLEX


def full_space_dim(n: int) -> int:
    """Dimension of the n_max = 1 full space; refuses N above the guard."""
    if n > FULL_SPACE_N_MAX:
        raise ValueError(
            f"full-space N={n} exceeds the benchmark guard N<={FULL_SPACE_N_MAX} "
            f"(one dense H would take {dense_bytes(2 * 2**n)} bytes)"
        )
    return 2 * 2**n


def optimal_time(n: int) -> float:
    """t* = pi / (2 sqrt(N) eps) at eps = 1, which every workload uses."""
    return math.pi / (2.0 * math.sqrt(n))


@dataclass(frozen=True)
class CliOp:
    """One ``python -m wcavity`` invocation and what its check needs."""

    kind: str
    n: int
    argv: tuple[str, ...]
    dense_bytes: int
    out: str | None = None
    grid: tuple[float, ...] | None = None
    trials: int = 1
    time: float | None = None
    seed: int | None = None


def _rng(seed: int, workload: str, cycle: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), cycle])


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _simulate(n: int, rng) -> CliOp:
    time = float(rng.uniform(0.25, 1.75)) * optimal_time(n)
    argv = ("simulate", "--n", str(n), "--time", repr(time))
    return CliOp("simulate", n, argv, dense_bytes(full_space_dim(n)), time=time)


def _entanglement(n: int) -> CliOp:
    argv = ("entanglement", "--n", str(n))
    return CliOp("entanglement", n, argv, dense_bytes(full_space_dim(n)))


def _validate(rng) -> CliOp:
    seed = _draw_seed(rng)
    return CliOp("validate", 0, ("validate", "--seed", str(seed)), 0, seed=seed)


def _sweep(parameter: str, n: int, seed: int | None = None) -> CliOp:
    """A sweep on the CLI's default grid, in the one-excitation sector of
    dimension N + 2.  The mode-count sweep takes no ``--n``."""
    grid = default_grid(parameter, n)
    out = f"{parameter}.csv"
    args = ["sweep", "--parameter", parameter, "--out", out]
    if parameter != "mode-count":
        args[1:1] = ["--n", str(n)]
    if seed is not None:
        args += ["--seed", str(seed)]
    size = int(max(grid)) if parameter == "mode-count" else n
    trials = DISORDER_TRIALS if parameter == "coupling-disorder" else 1  # the CLI's defaults
    return CliOp(f"sweep-{parameter}", n, tuple(args), dense_bytes(size + 2), out, grid, trials,
                 seed=seed)


def cli_cycle(workload: str, seed: int, cycle: int) -> list[CliOp]:
    """The fixed command mix of one cycle of a CLI workload."""
    rng = _rng(seed, workload, cycle)
    if workload == "cli-small":
        disorder_seed = _draw_seed(rng)
        ops = [
            _simulate(3, rng),
            _entanglement(4),
            _validate(rng),
            _sweep("timing-error", 3),
            _sweep("coupling-disorder", 3, disorder_seed),
            _sweep("detuning", 3),
            _sweep("mode-count", 3),
        ]
        return ops
    if workload == "cli-dense":
        return [_simulate(9, rng), _entanglement(10), _simulate(9, rng), _entanglement(10)]
    raise ValueError(f"{workload!r} is not a CLI workload")


def planned_cycles(workload: str, seconds: float) -> int:
    """Cycles in a run.  The count depends on ``--seconds`` only, never on
    the program's speed, so every commit runs the same operations and its
    tail is the same order statistic."""
    per_cycle = len(cli_cycle(workload, 0, 0))
    return max(round(seconds / SECONDS_PER_CYCLE), math.ceil(MIN_CALLS / per_cycle))


def dense_bytes_max(workload: str) -> int:
    """Largest dense matrix, in bytes, that any input of the workload needs."""
    return max(op.dense_bytes for op in cli_cycle(workload, 0, 0))

"""Output checks: each operation's result against an independent law.

Every check returns None when the output is right, or a one-line reason.
The laws are the paper's closed forms, recomputed here from the inputs,
never read back from the program.  Every workload runs at eps = 1:

* timing offsets x (units of 1/eps): F = cos^2(sqrt(N) x);
* common detuning D = x eps, g = sqrt(N) eps, G^2 = g^2 + D^2/4:
  F = g^2 / G^2 * sin^2(G t*)  (bright-mode two-level reduction);
* coupling disorder: F = sin^2(W t*) (sum eps_i)^2 / (N W^2), W^2 = sum eps_i^2,
  with the couplings redrawn from the documented PCG64 stream of each
  (seed, grid index, trial);
* mode count: F = 1 at t* for every N;
* W_N keeps concurrence 2/N on every mode pair, GHZ_N none (Dur, Vidal
  and Cirac, PRA 62, 062314, 2000).
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import optimal_time

TOL = 1e-9
GAP_TOL = 1e-8


def timing_law(n: int, x: float) -> float:
    return math.cos(math.sqrt(n) * x) ** 2


def detuning_law(n: int, x: float) -> float:
    big2 = n + x**2 / 4.0
    return n / big2 * math.sin(math.sqrt(big2) * optimal_time(n)) ** 2


def disorder_fidelities(n: int, sigma: float, seed: int, grid_index: int,
                        trials: int) -> np.ndarray:
    t_star = optimal_time(n)
    out = np.empty(trials)
    for trial in range(trials):
        rng = np.random.default_rng([seed, grid_index, trial])
        couplings = 1.0 + sigma * rng.standard_normal(n)
        bad = couplings <= 0.0
        while bad.any():
            couplings[bad] = 1.0 + sigma * rng.standard_normal(int(bad.sum()))
            bad = couplings <= 0.0
        omega2 = float(np.sum(couplings**2))
        out[trial] = (
            math.sin(math.sqrt(omega2) * t_star) ** 2 * float(np.sum(couplings)) ** 2
            / (n * omega2)
        )
    return out


def _grid_mismatch(grid, rows) -> str | None:
    if len(rows) != len(grid):
        return f"{len(rows)} rows for a {len(grid)}-point grid"
    for row, x in zip(rows, grid):
        if abs(row[0] - x) > TOL:
            return f"row x={row[0]!r} where the grid has {x!r}"
    return None


def _rows_off(rows, expected_per_row) -> str | None:
    """Each row is (x, mean, min, max, success_prob_mean); ``expected_per_row``
    gives the four expected values of each row."""
    for row, expected in zip(rows, expected_per_row):
        for got, want in zip(row[1:], expected):
            if not abs(got - want) <= TOL:
                return f"row x={row[0]!r}: {got!r} differs from the law {want!r}"
    return None


def check_sweep(parameter: str, n: int, grid, rows, seed: int = 0,
                trials: int = 1) -> str | None:
    """Check the rows of one sweep against its law."""
    bad = _grid_mismatch(grid, rows)
    if bad:
        return bad
    if parameter == "timing-error":
        expected = [(timing_law(n, x),) * 4 for x in grid]
    elif parameter == "detuning":
        expected = [(detuning_law(n, x),) * 4 for x in grid]
    elif parameter == "coupling-disorder":
        expected = []
        for gi, sigma in enumerate(grid):
            f = disorder_fidelities(n, sigma, seed, gi, trials)
            expected.append((f.mean(), f.min(), f.max(), f.mean()))
    elif parameter == "mode-count":
        expected = [(1.0,) * 4 for _ in grid]
    else:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    return _rows_off(rows, expected)


def parse_sweep_csv(text: str) -> list[tuple[float, ...]]:
    """Rows of a sweep CSV; comment lines and the header are skipped."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or not lines[0].startswith("x,"):
        raise ValueError("sweep CSV has no header")
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def check_simulate(n: int, time: float, text: str) -> str | None:
    report = json.loads(text)
    if abs(report["t"] - time) > TOL * max(1.0, abs(time)):
        return f"report t={report['t']!r} for --time {time!r}"
    want = math.sin(math.sqrt(n) * time) ** 2
    if not abs(report["fidelity_W"] - want) <= TOL:
        return f"fidelity_W {report['fidelity_W']!r} differs from sin^2(sqrt(N) t) = {want!r}"
    if not report["closed_vs_numeric_gap"] <= GAP_TOL:
        return f"closed_vs_numeric_gap {report['closed_vs_numeric_gap']!r} above {GAP_TOL}"
    return None


def check_entanglement(n: int, text: str) -> str | None:
    rows = json.loads(text)["rows"]
    if len(rows) != n * (n - 1) // 2:
        return f"{len(rows)} pairs reported for N={n}"
    for row in rows:
        if not abs(row["concurrence_w"] - 2.0 / n) <= TOL:
            return f"W pair {row['pair']}: concurrence {row['concurrence_w']!r}, law 2/N"
        if not abs(row["concurrence_ghz"]) <= TOL:
            return f"GHZ pair {row['pair']}: concurrence {row['concurrence_ghz']!r}, law 0"
    return None


def check_validate(text: str) -> str | None:
    summary = [line for line in text.splitlines() if line.startswith("summary:")]
    if len(summary) != 1 or not summary[0].rstrip().endswith(" failed=0"):
        return f"validate summary is {summary!r}"
    return None


def check_cli_op(op, exit_code: int, stdout: str, out_text: str | None) -> str | None:
    """Check one CLI operation (a ``workloads.CliOp``) from its exit code,
    its standard output and the text of its ``--out`` file."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        if op.kind == "simulate":
            return check_simulate(op.n, op.time, stdout)
        if op.kind == "entanglement":
            return check_entanglement(op.n, stdout)
        if op.kind == "validate":
            return check_validate(stdout)
        return check_sweep(op.kind.removeprefix("sweep-"), op.n, op.grid,
                           parse_sweep_csv(out_text), seed=op.seed or 0, trials=op.trials)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def tally(reasons: list) -> dict:
    """Attempted and failed counts from one reason (or None) per operation."""
    failures = [r for r in reasons if r is not None]
    return {
        "attempted": len(reasons),
        "failed": len(failures),
        "error_rate": len(failures) / len(reasons) if reasons else 0.0,
        "first_failures": failures[:3],
    }

import json
import math
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcavity import normals, sector
from wcavity.cli import build_parser, main
from wcavity.dynamics import (
    ModelParams,
    build_hamiltonian,
    propagate_numeric,
)
from wcavity.entanglement import fidelity, w_state
from wcavity.fock import build_basis, initial_state
from wcavity.protocol import (
    CSV_HEADER,
    _NORMAL_BOUND,
    SweepResult,
    SweepRow,
    _default_grid,
    coupling_disorder_sweep,
    detuning_sweep,
    fmt12,
    mode_count_sweep,
    optimal_time,
    require_grid,
    timing_error_sweep,
)

import reference
from numpy_route import closed_form_rows, w_fidelities

# regression pin computed from the first run of this exact configuration
DISORDER_PIN_MEAN = 0.99672126307888109

# regression pin for common detuning of 10 epsilon at n = 3; the
# two-level reduction predicts (O^2 / (O^2 + D^2/4)) sin^2(sqrt(...) t*)
DETUNING_10_PIN = 0.10634368162342059


class TestOptimalTime:
    def test_three_modes(self):
        assert optimal_time(3, 1.0) == pytest.approx(0.906900, abs=5e-7)
        assert optimal_time(3, 1.0) == pytest.approx(math.pi / (2 * math.sqrt(3)), rel=1e-15)

    def test_single_mode(self):
        assert optimal_time(1, 1.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_scaling_with_coupling(self):
        assert optimal_time(4, 2.0) == pytest.approx(math.pi / 8, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            optimal_time(0, 1.0)
        with pytest.raises(ValueError):
            optimal_time(3, 0.0)
        with pytest.raises(ValueError):
            optimal_time(3, -1.0)
        with pytest.raises(ValueError):
            optimal_time(3, math.nan)

    @pytest.mark.parametrize("epsilon, message", [
        (6e307, "epsilon 6e+307 is too large: t* = pi / (2 sqrt(N) epsilon) is 0.0 at N = 3"),
        (1e-320, "epsilon 1e-320 is too small: t* = pi / (2 sqrt(N) epsilon) is inf at N = 3"),
    ], ids=["too-large", "too-small"])
    def test_refuses_a_time_outside_the_doubles(self, epsilon, message):
        """2 sqrt(N) epsilon overflows to a t* of 0, or t* itself does."""
        with pytest.raises(ValueError) as refused:
            optimal_time(3, epsilon)
        assert str(refused.value) == message


class TestTimingErrorSweep:
    def test_zero_offset_is_ideal(self):
        res = timing_error_sweep(3, 1.0, (0.0,))
        assert res.rows[0].fidelity_mean == pytest.approx(1.0, abs=1e-9)

    def test_quarter_period_overshoot_kills_fidelity(self):
        n = 3
        x = math.pi / (2.0 * math.sqrt(n))  # offset of t*/1, one quarter period
        res = timing_error_sweep(n, 1.0, (x,))
        assert res.rows[0].fidelity_mean == pytest.approx(0.0, abs=1e-8)

    def test_sixth_period_offset(self):
        n = 4
        x = math.pi / (6.0 * math.sqrt(n))
        res = timing_error_sweep(n, 1.0, (x,))
        assert res.rows[0].fidelity_mean == pytest.approx(0.75, abs=1e-8)

    def test_matches_cosine_squared_law(self):
        n, eps = 3, 1.0
        t_star = optimal_time(n, eps)
        grid = np.linspace(-t_star / 2.0, t_star / 2.0, 41) * eps
        res = timing_error_sweep(n, eps, grid)
        for row in res.rows:
            expected = math.cos(math.sqrt(n) * row.x) ** 2
            assert row.fidelity_mean == pytest.approx(expected, abs=1e-8)

    def test_epsilon_rescaling_leaves_dimensionless_grid_invariant(self):
        grid = (0.0, 0.2, 0.4)
        a = timing_error_sweep(3, 0.5, grid)
        b = timing_error_sweep(3, 2.0, grid)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.fidelity_mean == pytest.approx(rb.fidelity_mean, abs=1e-12)

    def test_evolves_once(self, eigh_calls, monkeypatch):
        """All grid times come from one ``sector.evolve`` call, with no
        dense diagonalization."""
        runs = []
        real = sector.evolve
        monkeypatch.setattr(sector, "evolve", lambda *args: runs.append(args) or real(*args))
        timing_error_sweep(3, 1.0, _default_grid("timing-error", 3))
        assert len(runs) == 1
        assert eigh_calls == []


class TestCouplingDisorderSweep:
    def test_zero_disorder_reduces_to_ideal(self):
        res = coupling_disorder_sweep(3, 1.0, (0.0,), 10, 1)
        row = res.rows[0]
        assert row.fidelity_mean == pytest.approx(1.0, abs=1e-12)
        assert row.fidelity_min == pytest.approx(1.0, abs=1e-12)
        assert row.fidelity_max == pytest.approx(1.0, abs=1e-12)

    def test_row_bounds(self):
        res = coupling_disorder_sweep(3, 1.0, (0.0, 0.02, 0.1, 0.5), 25, 7)
        for row in res.rows:
            assert 0.0 <= row.fidelity_min <= row.fidelity_mean <= row.fidelity_max <= 1.0

    def test_regression_pin(self):
        res = coupling_disorder_sweep(3, 1.0, (0.05,), 200, 42)
        assert res.rows[0].fidelity_mean == pytest.approx(DISORDER_PIN_MEAN, abs=1e-12)

    def test_deterministic_per_seed(self):
        a = coupling_disorder_sweep(4, 1.0, (0.03, 0.06), 20, 9)
        b = coupling_disorder_sweep(4, 1.0, (0.03, 0.06), 20, 9)
        assert "".join(a.csv_lines()) == "".join(b.csv_lines())
        c = coupling_disorder_sweep(4, 1.0, (0.03, 0.06), 20, 10)
        assert a.rows != c.rows

    def test_large_disorder_survives_redraw_rule(self):
        res = coupling_disorder_sweep(2, 1.0, (2.0,), 50, 3)
        row = res.rows[0]
        assert 0.0 <= row.fidelity_min and row.fidelity_max <= 1.0

    @pytest.mark.parametrize("grid", [(0.0, 1e200), (1e154,)])
    def test_a_sigma_whose_draws_may_overflow_is_refused_before_drawing(
            self, grid, capsys, monkeypatch):
        """Every draw is at most ``_NORMAL_BOUND`` in size, so a sigma at
        which N (epsilon (1 + 14 sigma))^2 overflows is refused up front,
        by name, as the CLI refuses it; 1e154 ran before this rule, with
        draws that happened to stay small."""
        monkeypatch.setattr(normals, "standard_normals", None)  # no draw is made
        message = f"^--grid entry {re.escape(repr(max(grid)))} is too large for --epsilon 1.0: "
        with pytest.raises(ValueError, match=message + r".* overflows at N = 3$") as refused:
            coupling_disorder_sweep(3, 1.0, grid, 20, 0)
        assert_cli_refuses(capsys, refused.value, "--n", "3", "--parameter", "coupling-disorder",
                           "--grid", ",".join(map(repr, grid)), "--trials", "20")

    def test_a_default_grid_entry_is_named_as_such(self, capsys):
        # sigma = 0.04 is the first entry of 0, 0.01, ..., 0.1 at which
        # 3 (5e153 (1 + 14 sigma))^2 overflows
        with pytest.raises(ValueError, match=r"^default grid entry 0\.04 is too large "
                                             r"for --epsilon 5e\+153: ") as refused:
            coupling_disorder_sweep(3, 5e153, None, 1, 0)
        assert_cli_refuses(capsys, refused.value, "--n", "3", "--parameter", "coupling-disorder",
                           "--epsilon", "5e153")

    def test_the_normal_bound_holds_every_draw(self):
        """The largest |draw| of ``normals.standard_normals`` comes from its
        ziggurat tail at the largest uniform double below 1:
        R + ln(2^53) / R."""
        tail = normals.ZIGGURAT_R + 53.0 * math.log(2.0) * normals.ZIGGURAT_INV_R
        assert 13.7 < tail < _NORMAL_BOUND == 14.0

    def test_rejects_negative_sigma(self, capsys):
        with pytest.raises(ValueError, match=">= 0") as refused:
            coupling_disorder_sweep(3, 1.0, (-0.1,), 1, 0)
        assert_cli_refuses(capsys, refused.value, "--parameter", "coupling-disorder",
                           "--grid", "-0.1")


def numpy_disorder_draws(n: int, epsilon: float, sigma: float, trials: int, seed: int,
                         grid_index: int) -> np.ndarray:
    """The (trials, n) couplings of one row of the disorder sweep's numpy
    route: one ``default_rng([seed, grid index, trial])`` per trial, each
    non-positive coupling redrawn."""
    couplings = np.empty((trials, n))
    for trial, draw in enumerate(couplings):
        rng = np.random.default_rng([seed, grid_index, trial])
        draw[:] = epsilon * (1.0 + sigma * rng.standard_normal(n))
        bad = draw <= 0.0
        while bad.any():
            draw[bad] = epsilon * (1.0 + sigma * rng.standard_normal(int(bad.sum())))
            bad = draw <= 0.0
    return couplings


def numpy_disorder_rows(n: int, epsilon: float, grid, trials: int,
                        seed: int) -> list[SweepRow]:
    """The oracle of the disorder sweep: its numpy route, the couplings of
    ``numpy_disorder_draws`` evolved by ``closed_form_rows``, scored by
    ``w_fidelities`` and averaged by ``np.mean``."""
    t_star = optimal_time(n, epsilon)
    rows = []
    for gi, sigma in enumerate(grid):
        couplings = numpy_disorder_draws(n, epsilon, sigma, trials, seed, gi)
        fids = w_fidelities(closed_form_rows(couplings, t_star))
        rows.append(SweepRow(sigma, float(np.mean(fids)), float(fids.min()), float(fids.max())))
    return rows


def omega_bound(couplings, t: float) -> float:
    """|dF/dOmega| ulp(Omega) + 4 ulp(F) for one disorder trial at the Omega
    the sweep rounds, F = sin^2(Omega t) (sum_i eps_i)^2 / (N Omega^2): how
    far one ulp of Omega, and the rounding of F, may move the trial."""
    omega, total, n = sector._norm(couplings), math.fsum(couplings), len(couplings)
    s, c = math.sin(omega * t), math.cos(omega * t)
    weight = total * total / (n * omega * omega)
    slope = 2.0 * weight * s * (t * c - s / omega)
    return abs(slope) * math.ulp(omega) + 4.0 * math.ulp(weight * s * s)


#: The (sigma, field) of each cell of the redrawn grid that the disorder
#: sweep writes otherwise than its numpy route, per (N, seed).
REDRAWN_MOVED = {(6, 0): [(2.0, "fidelity_min")], (12, 123): [(5.0, "fidelity_min")]}


class TestDisorderOracle:
    """The standard-library disorder sweep writes the bytes of its numpy
    route, but for the cells where the 50-digit reference shows that
    neither is correctly rounded."""

    @pytest.mark.parametrize("seed", [0, 7, 42, 123])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12, 40])
    def test_default_grid_csv_equals_the_numpy_route(self, n, seed):
        args = (_default_grid("coupling-disorder", n), 100, seed)
        result = coupling_disorder_sweep(n, 1.0, *args)
        oracle = SweepResult(numpy_disorder_rows(n, 1.0, *args), result.metadata)
        assert "".join(result.csv_lines()) == "".join(oracle.csv_lines())

    @pytest.mark.parametrize("n, seed", [(2, 3), (6, 0), (12, 123)])
    def test_redrawn_couplings_csv_equals_the_numpy_route(self, n, seed):
        """At sigma >= 2 a draw is non-positive one time in three or more.
        At sigma = 2 (N = 6, seed 0) and 5 (N = 12, seed 123) a fidelity
        near 1e-7 turns on the last bit of Omega, which ``sector._norm`` and
        numpy round apart, and neither route writes the correctly rounded
        cell.  A cell may differ from the numpy route's only there: where
        the 50-digit reference shows that the numpy cell is not correctly
        rounded either, and the sweep's double lies within
        ``omega_bound`` of the reference (of the draw the cell reports; for
        a mean, the mean of the trials' bounds)."""
        grid, trials = (0.5, 1.0, 2.0, 5.0, 10.0), 100
        t_star = optimal_time(n, 1.0)
        rows = coupling_disorder_sweep(n, 1.0, grid, trials, seed).rows
        oracle = numpy_disorder_rows(n, 1.0, grid, trials, seed)
        assert [row.x for row in rows] == [row.x for row in oracle] == list(grid)
        differing = []
        for gi, (row, numpy_row) in enumerate(zip(rows, oracle)):
            for field in SweepRow._fields[1:]:
                got, numpy_cell = getattr(row, field), getattr(numpy_row, field)
                if fmt12(got) == fmt12(numpy_cell):
                    continue
                differing.append((row.x, field))
                draws = numpy_disorder_draws(n, 1.0, row.x, trials, seed, gi).tolist()
                exact = [next(reference.fidelities(draw, [(t_star, 0.0)])) for draw in draws]
                bounds = [omega_bound(draw, t_star) for draw in draws]
                if field == "fidelity_mean":
                    cell, bound = reference.mean(exact), math.fsum(bounds) / trials
                else:
                    fids = [sector.w_fidelity(sector.closed_form(draw, t_star),
                                              sector.w_overlap(draw)) for draw in draws]
                    cell = (min if field == "fidelity_min" else max)(exact)
                    bound = bounds[fids.index(got)]
                assert reference.round12(cell) != fmt12(numpy_cell)
                assert abs(Decimal(got) - cell) <= bound
        assert differing == REDRAWN_MOVED.get((n, seed), [])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("sigma", [1e308, 1e200, 1e155])
    def test_what_the_numpy_route_overflows_on_is_refused_up_front(self, sigma):
        # 1e308: some coupling is infinite; 1e200 and 1e155: sum eps_i^2
        # overflows.  The sweep refuses each sigma before it draws.
        args = ((sigma,), 20, 0)
        with pytest.raises(ValueError, match="finite"):
            numpy_disorder_rows(3, 1.0, *args)
        with pytest.raises(ValueError, match=r"^--grid entry .* \(1 \+ 14 sigma\)\)\^2 overflows"):
            coupling_disorder_sweep(3, 1.0, *args)

    def test_pinned_cell(self):
        """N = 40, seed 0, sigma = 0.03: Python's sum over the overlap gave
        a max of ...844; math.fsum and the numpy route give ...845, the
        correctly rounded value of the reference."""
        grid = _default_grid("coupling-disorder", 40)[:4]
        row = coupling_disorder_sweep(40, 1.0, grid, 100, 0).rows[3]
        assert fmt12(row.x) == "0.03"
        t_star = optimal_time(40, 1.0)
        exact = max(next(reference.fidelities(draw, [(t_star, 0.0)]))
                    for draw in numpy_disorder_draws(40, 1.0, row.x, 100, 0, 3).tolist())
        assert reference.round12(exact) == fmt12(row.fidelity_max) == "0.999497342845"


class TestDetuningSweep:
    def test_zero_detuning_is_ideal(self):
        res = detuning_sweep(3, 1.0, (0.0,))
        assert res.rows[0].fidelity_mean == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_in_detuning_sign(self):
        grid = (-3.0, -1.0, -0.2, 0.2, 1.0, 3.0)
        res = detuning_sweep(3, 1.0, grid)
        by_x = {row.x: row.fidelity_mean for row in res.rows}
        for x in (0.2, 1.0, 3.0):
            assert by_x[x] == pytest.approx(by_x[-x], abs=1e-9)

    def test_large_detuning_suppression(self):
        # two-level reduction: bright mode at splitting Delta against
        # collective coupling Omega = sqrt(n) eps
        n, eps, x = 3, 1.0, 10.0
        res = detuning_sweep(n, eps, (x,))
        got = res.rows[0].fidelity_mean
        omega_sq = n * eps**2
        rabi = math.sqrt(omega_sq + (x * eps) ** 2 / 4.0)
        analytic = (omega_sq / rabi**2) * math.sin(rabi * optimal_time(n, eps)) ** 2
        assert got == pytest.approx(analytic, abs=1e-9)
        assert got == pytest.approx(DETUNING_10_PIN, abs=1e-12)
        assert got <= omega_sq / rabi**2  # suppression envelope 3/28
        assert got < 0.15

    def test_matches_two_level_reduction_across_grid(self):
        n, eps = 5, 1.3
        grid = (-4.0, -0.7, 0.3, 2.1, 8.0)
        res = detuning_sweep(n, eps, grid)
        t_star = optimal_time(n, eps)
        for row in res.rows:
            omega_sq = n * eps**2
            rabi = math.sqrt(omega_sq + (row.x * eps) ** 2 / 4.0)
            analytic = (omega_sq / rabi**2) * math.sin(rabi * t_star) ** 2
            assert row.fidelity_mean == pytest.approx(analytic, abs=1e-9)

    def test_evolves_once(self, monkeypatch):
        """All grid points come from one ``sector.evolve`` call: t* at the
        detuning x epsilon of each entry x."""
        runs = []
        real = sector.evolve

        def recording(couplings, points):
            runs.append(list(points))
            return real(couplings, runs[-1])

        monkeypatch.setattr(sector, "evolve", recording)
        grid = (-2.0, 0.0, 0.7)
        detuning_sweep(4, 1.3, grid)
        t_star = optimal_time(4, 1.3)
        assert runs == [[(t_star, x * 1.3) for x in grid]]


class TestModeCountSweep:
    def test_all_counts_succeed(self):
        res = mode_count_sweep(1.0, tuple(float(n) for n in range(1, 9)))
        assert [row.x for row in res.rows] == [float(n) for n in range(1, 9)]
        for row in res.rows:
            assert row.fidelity_mean == pytest.approx(1.0, abs=1e-9)

    def test_evolves_each_distinct_count_once(self, monkeypatch):
        """A row depends on its count alone, so a repeated count is evolved
        once and its rows equal those of a sweep over that count alone."""
        grid = (4.0, 4.0, 1.0, 4.0)
        alone = {n: mode_count_sweep(1.3, (n,)).rows[0] for n in (1.0, 4.0)}
        counts = []
        real = sector.evolve
        monkeypatch.setattr(sector, "evolve",
                            lambda couplings, *args: counts.append(len(couplings))
                            or real(couplings, *args))
        res = mode_count_sweep(1.3, grid)
        assert counts == [4, 1]
        assert res.rows == [alone[n] for n in grid]

    def test_rejects_fractional_counts(self, capsys):
        with pytest.raises(ValueError, match="positive integers") as refused:
            mode_count_sweep(1.0, (2.5,))
        assert_cli_refuses(capsys, refused.value, "--parameter", "mode-count", "--grid", "2.5")


# The dense numpy routes these sweeps ran before the N + 2 sector route
# replaced them are its oracle: every row agrees with them to 1e-12.
ORACLE_TOL = 1e-12

n_st = st.integers(1, 13)
epsilon_st = st.floats(0.1, 10.0)
grid_st = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8)


def dense_fidelity(n, epsilon, t, detuning=0.0):
    """W fidelity of |e;0> evolved by the dense sector propagator, all
    modes detuned by ``detuning`` from the atom."""
    basis = build_basis(n, excitation_cap=1)
    params = ModelParams(n, (detuning,) * n, (epsilon,) * n)
    psi = propagate_numeric(build_hamiltonian(params, basis), initial_state(basis), t)
    return fidelity(psi, w_state(n, basis))


def assert_rows(result, grid, fids):
    assert [row.x for row in result.rows] == [float(x) for x in grid]
    for row, f in zip(result.rows, fids):
        for value in row[1:]:
            assert abs(value - f) <= ORACLE_TOL


@settings(max_examples=40, deadline=None)
@given(n=n_st, epsilon=epsilon_st, grid=grid_st)
def test_timing_rows_match_the_dense_propagator(n, epsilon, grid):
    result = timing_error_sweep(n, epsilon, grid)
    t_star = optimal_time(n, epsilon)
    assert_rows(result, grid, [dense_fidelity(n, epsilon, t_star + x / epsilon) for x in grid])


@settings(max_examples=40, deadline=None)
@given(n=n_st, epsilon=epsilon_st, grid=grid_st)
def test_detuning_rows_match_the_dense_propagator(n, epsilon, grid):
    result = detuning_sweep(n, epsilon, grid)
    t_star = optimal_time(n, epsilon)
    assert_rows(result, grid, [dense_fidelity(n, epsilon, t_star, x * epsilon) for x in grid])


@settings(max_examples=30, deadline=None)
@given(epsilon=epsilon_st, grid=st.lists(n_st, min_size=1, max_size=6))
def test_mode_count_rows_match_the_dense_propagator(epsilon, grid):
    result = mode_count_sweep(epsilon, grid)
    assert_rows(result, grid, [dense_fidelity(n, epsilon, optimal_time(n, epsilon))
                               for n in grid])


def assert_cli_refuses(capsys, message, *args):
    """``wcavity sweep *args`` exits 2 with ``message`` and writes nothing."""
    assert main(["sweep", *args, "--out", "-"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("call, message, args, cli_message", [
    (lambda: timing_error_sweep(3, 1.0, ()), "sweep grid must not be empty", ["--grid", ","],
     None),
    (lambda: detuning_sweep(3, 1.0, (0.0, math.nan)), "sweep grid must be finite",
     ["--parameter", "detuning", "--grid", "0,nan"], None),
    # the CLI checks --trials and --seed as options first, and names the flag
    (lambda: coupling_disorder_sweep(3, 1.0, (0.0,), 0, 0), "trials must be >= 1",
     ["--parameter", "coupling-disorder", "--trials", "0"], "--trials must be >= 1"),
    (lambda: coupling_disorder_sweep(3, 1.0, (0.0,), 1, -1), "seed must be a non-negative integer",
     ["--parameter", "coupling-disorder", "--seed", "-1"], "--seed must be >= 0"),
    # a NaN epsilon is not positive, not an epsilon^2 that overflows
    (lambda: coupling_disorder_sweep(3, math.nan, (0.0,), 1, 0), "epsilon must be > 0",
     ["--parameter", "coupling-disorder", "--epsilon", "nan"], "--epsilon must be finite and > 0"),
    # t* = pi / (2 sqrt(N) epsilon) leaves the doubles (sector.optimal_time)
    (lambda: timing_error_sweep(3, 6e307, (0.0,)),
     "epsilon 6e+307 is too large: t* = pi / (2 sqrt(N) epsilon) is 0.0 at N = 3",
     ["--n", "3", "--epsilon", "6e307", "--grid", "0"], None),
    (lambda: detuning_sweep(3, 6e307, (0.0,)),
     "epsilon 6e+307 is too large: t* = pi / (2 sqrt(N) epsilon) is 0.0 at N = 3",
     ["--n", "3", "--parameter", "detuning", "--epsilon", "6e307", "--grid", "0"], None),
    (lambda: mode_count_sweep(1e-320, (3.0,)),
     "epsilon 1e-320 is too small: t* = pi / (2 sqrt(N) epsilon) is inf at N = 3",
     ["--parameter", "mode-count", "--epsilon", "1e-320", "--grid", "3"], None),
    # the size rule: a count too large to build couplings for, and an N
    # whose 12th digit the left-to-right overlap no longer keeps
    (lambda: mode_count_sweep(1.0, (1e19,)), "--grid entry 1e+19 is above the limit of 1022 modes",
     ["--parameter", "mode-count", "--grid", "1e19"], None),
    (lambda: timing_error_sweep(10**19, 1.0, (0.0,)),
     "--n 10000000000000000000 is above the limit of 1022 modes",
     ["--n", "10000000000000000000", "--grid", "0"], None),
    (lambda: detuning_sweep(2000, 1.0, (0.0,)), "--n 2000 is above the limit of 1022 modes",
     ["--n", "2000", "--parameter", "detuning", "--grid", "0"], None),
], ids=["empty-grid", "nonfinite-grid", "zero-trials", "negative-seed", "disorder-nan-epsilon",
        "timing-t-star", "detuning-t-star", "mode-count-t-star", "mode-count-size",
        "timing-size", "detuning-size"])
def test_sweep_and_cli_refuse_a_bad_input(call, message, args, cli_message, capsys):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
    assert_cli_refuses(capsys, cli_message or message, *args)


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize("sweep", [
    lambda n: timing_error_sweep(n, 1.0, None),
    lambda n: detuning_sweep(n, 1.0, None),
    lambda n: coupling_disorder_sweep(n, 1.0, None, 1, 0),
], ids=["timing-error", "detuning", "coupling-disorder"])
def test_a_sweep_refuses_n_below_one_before_its_default_grid(sweep, n):
    """N is checked first, with ``optimal_time``'s message, so that the
    timing-error default grid never takes sqrt(N) of N < 1."""
    with pytest.raises(ValueError) as refused:
        sweep(n)
    with pytest.raises(ValueError) as by_optimal_time:
        optimal_time(n, 1.0)
    assert str(refused.value) == str(by_optimal_time.value) == "n must be >= 1"


def test_require_grid_returns_the_grid_as_floats():
    grid = require_grid("mode-count", [1, 2.0], None, 1.0)
    assert grid == (1.0, 2.0) and all(type(x) is float for x in grid)


def corpus_sweep_refusals():
    """(argv, message) of each sweep in the output corpus that the range
    or the size rule refuses: its stderr without the CLI's ``error: ``
    prefix."""
    corpus = json.loads((Path(__file__).parent / "data" / "corpus.json").read_text())
    for entry in corpus:
        stderr = entry["stderr"]
        if entry["argv"][:1] == ["sweep"] and (" is too " in stderr or " above the limit" in stderr):
            yield entry["argv"], stderr.removeprefix("error: ").rstrip("\n")


SWEEP_REFUSALS = list(corpus_sweep_refusals())


def test_the_corpus_pins_the_sweep_refusals():
    # by range: the angle of five grid entries, the disorder sweep's
    # epsilon^2 twice and its sigma twice, and t* five times; by size: N
    # three times, the largest mode count and the amplitude count once each
    assert len(SWEEP_REFUSALS) == 19
    assert sum(" above the limit" in message for _, message in SWEEP_REFUSALS) == 5


@pytest.mark.parametrize("argv, message", SWEEP_REFUSALS, ids=[" ".join(a) for a, _ in SWEEP_REFUSALS])
def test_library_refuses_what_the_cli_refuses_with_its_message(argv, message, monkeypatch):
    """Each sweep the CLI refuses by range or size raises ValueError from
    the library too, with the CLI's message: the same N, epsilon and grid
    (None for the default grid) and the CLI's defaults for the rest.  A
    size refusal comes before the route builds any coupling tuple."""
    args = vars(build_parser().parse_args(argv))
    defaults = {"n": 3, "epsilon": 1.0, "parameter": "timing-error", "trials": 100, "seed": 0}
    n, eps, parameter, trials, seed = (defaults[k] if args[k] is None else args[k]
                                       for k in defaults)
    grid = args["grid"]
    call = {
        "timing-error": lambda: timing_error_sweep(n, eps, grid),
        "coupling-disorder": lambda: coupling_disorder_sweep(n, eps, grid, trials, seed),
        "detuning": lambda: detuning_sweep(n, eps, grid),
        "mode-count": lambda: mode_count_sweep(eps, grid),
    }[parameter]
    routes = []
    for name in ("require_angles", "evolve", "closed_form"):
        real = getattr(sector, name)
        monkeypatch.setattr(sector, name, lambda *a, real=real: routes.append(a) or real(*a))
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
    assert routes == [] or " is too " in message


def test_mode_count_sweep_refuses_before_it_evolves(monkeypatch):
    """A grid whose largest count has no finite t* is refused before the
    smaller counts are evolved."""
    runs = []
    real = sector.evolve
    monkeypatch.setattr(sector, "evolve", lambda *args: runs.append(args) or real(*args))
    with pytest.raises(ValueError, match=r"^epsilon 1\.43e\+307 is too large: .* at N = 40$"):
        mode_count_sweep(1.43e307, (1, 40))
    assert runs == []


class TestSweepResultSerialization:
    def test_csv_shape_and_determinism(self):
        res = timing_error_sweep(3, 1.0, (0.0, 0.1))
        text = "".join(res.csv_lines())
        lines = text.strip().split("\n")
        comments = [l for l in lines if l.startswith("# ")]
        data = [l for l in lines if not l.startswith("# ")]
        assert data[0] == CSV_HEADER
        assert len(data) == 3
        assert data[1].split(",")[0] == "0"
        assert "# schema_version=3" in comments
        # the timing sweep draws nothing, so it reports no seed
        assert not any(l.startswith(("# seed=", "# trials=", "# rng=")) for l in comments)
        assert not any("timestamp" in l for l in comments)
        # metadata carries the timestamp; the CSV stays reproducible
        assert "timestamp" in res.metadata

    def test_combined_dict_form(self):
        res = detuning_sweep(2, 1.0, (0.0,))
        data = res.to_dict()
        assert data["metadata"]["parameter"] == "detuning"
        assert "timestamp" in data["metadata"]
        assert data["rows"][0]["fidelity_mean"] == pytest.approx(1.0, abs=1e-9)

    def test_fixed_precision_formatting(self):
        assert fmt12(1.0) == "1"
        assert fmt12(0.1234567890123456) == "0.123456789012"
        assert fmt12(-0.5) == "-0.5"


GOLDEN_DIR = Path(__file__).parent / "data"

# each file's sweep, and its arguments before and after the default grid
GOLDEN_SWEEPS = {
    "timing-error": (timing_error_sweep, (3, 1.0), ()),
    "detuning": (detuning_sweep, (3, 1.0), ()),
    "mode-count": (mode_count_sweep, (1.0,), ()),
    "coupling-disorder-seed0": (coupling_disorder_sweep, (3, 1.0), (100, 0)),
    "coupling-disorder-seed42": (coupling_disorder_sweep, (3, 1.0), (100, 42)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_csv_matches_golden_bytes(name):
    """Same seed, same bytes across versions: the CSVs under tests/data
    were written at N = 3, epsilon = 1 on the CLI's default grids, at
    schema version 3 with every number unchanged from schema version 1;
    every change must reproduce them exactly."""
    sweep, before, after = GOLDEN_SWEEPS[name]
    result = sweep(*before, _default_grid(name.partition("-seed")[0], 3), *after)
    expected = (GOLDEN_DIR / f"sweep_{name}_n3.csv").read_text()
    assert "".join(result.csv_lines()) == expected

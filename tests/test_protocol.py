import math
from pathlib import Path

import numpy as np
import pytest

from wcavity.cli import _default_grid
from wcavity.fock import AtomLevel, atom_population
from wcavity.protocol import (
    CSV_HEADER,
    SweepParameter,
    SweepSpec,
    coupling_disorder_sweep,
    detuning_sweep,
    fmt12,
    mode_count_sweep,
    n_scaling_table,
    optimal_time,
    run_protocol,
    timing_error_sweep,
)

# regression pin computed from the first run of this exact configuration
DISORDER_PIN_MEAN = 0.99672126307888109

# regression pin for common detuning of 10 epsilon at n = 3; the
# two-level reduction predicts (O^2 / (O^2 + D^2/4)) sin^2(sqrt(...) t*)
DETUNING_10_PIN = 0.10634368162342059


def timing_spec(grid, **kw):
    return SweepSpec(SweepParameter.TIMING_ERROR, grid, **kw)


def disorder_spec(grid, **kw):
    return SweepSpec(SweepParameter.COUPLING_DISORDER, grid, **kw)


def detuning_spec(grid, **kw):
    return SweepSpec(SweepParameter.DETUNING, grid, **kw)


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


class TestRunProtocol:
    def test_three_modes_succeeds_deterministically(self):
        result = run_protocol(3, 1.0)
        assert result.fidelity == pytest.approx(1.0, abs=1e-9)
        assert result.success_prob == pytest.approx(1.0, abs=1e-9)
        assert result.t_star == optimal_time(3, 1.0)

    def test_eight_modes(self):
        assert run_protocol(8, 1.0).fidelity == pytest.approx(1.0, abs=1e-9)

    def test_atom_ends_in_ground_state(self):
        result = run_protocol(5, 1.0)
        assert atom_population(result.state, AtomLevel.GROUND) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_fidelity_independent_of_coupling_scale(self):
        values = [run_protocol(3, eps).fidelity for eps in (0.5, 1.0, 2.0)]
        assert max(values) - min(values) <= 1e-12


class TestTimingErrorSweep:
    def test_zero_offset_is_ideal(self):
        res = timing_error_sweep(3, 1.0, timing_spec((0.0,)))
        assert res.rows[0].fidelity_mean == pytest.approx(1.0, abs=1e-9)

    def test_quarter_period_overshoot_kills_fidelity(self):
        n = 3
        x = math.pi / (2.0 * math.sqrt(n))  # offset of t*/1, one quarter period
        res = timing_error_sweep(n, 1.0, timing_spec((x,)))
        assert res.rows[0].fidelity_mean == pytest.approx(0.0, abs=1e-8)

    def test_sixth_period_offset(self):
        n = 4
        x = math.pi / (6.0 * math.sqrt(n))
        res = timing_error_sweep(n, 1.0, timing_spec((x,)))
        assert res.rows[0].fidelity_mean == pytest.approx(0.75, abs=1e-8)

    def test_matches_cosine_squared_law(self):
        n, eps = 3, 1.0
        t_star = optimal_time(n, eps)
        grid = np.linspace(-t_star / 2.0, t_star / 2.0, 41) * eps
        res = timing_error_sweep(n, eps, timing_spec(tuple(grid)))
        for row in res.rows:
            expected = math.cos(math.sqrt(n) * row.x) ** 2
            assert row.fidelity_mean == pytest.approx(expected, abs=1e-8)

    def test_epsilon_rescaling_leaves_dimensionless_grid_invariant(self):
        grid = (0.0, 0.2, 0.4)
        a = timing_error_sweep(3, 0.5, timing_spec(grid))
        b = timing_error_sweep(3, 2.0, timing_spec(grid))
        for ra, rb in zip(a.rows, b.rows):
            assert ra.fidelity_mean == pytest.approx(rb.fidelity_mean, abs=1e-12)

    def test_rejects_wrong_parameter(self):
        with pytest.raises(ValueError, match="timing-error"):
            timing_error_sweep(3, 1.0, disorder_spec((0.0,)))


class TestCouplingDisorderSweep:
    def test_zero_disorder_reduces_to_ideal(self):
        res = coupling_disorder_sweep(3, 1.0, disorder_spec((0.0,), trials=10, seed=1))
        row = res.rows[0]
        assert row.fidelity_mean == pytest.approx(1.0, abs=1e-12)
        assert row.fidelity_min == pytest.approx(1.0, abs=1e-12)
        assert row.fidelity_max == pytest.approx(1.0, abs=1e-12)

    def test_row_bounds(self):
        res = coupling_disorder_sweep(
            3, 1.0, disorder_spec((0.0, 0.02, 0.1, 0.5), trials=25, seed=7)
        )
        for row in res.rows:
            assert 0.0 <= row.fidelity_min <= row.fidelity_mean <= row.fidelity_max <= 1.0
            assert row.success_prob_mean <= row.fidelity_mean + 1e-15

    def test_regression_pin(self):
        res = coupling_disorder_sweep(3, 1.0, disorder_spec((0.05,), trials=200, seed=42))
        assert res.rows[0].fidelity_mean == pytest.approx(DISORDER_PIN_MEAN, abs=1e-12)

    def test_deterministic_per_seed(self):
        spec = disorder_spec((0.03, 0.06), trials=20, seed=9)
        a = coupling_disorder_sweep(4, 1.0, spec)
        b = coupling_disorder_sweep(4, 1.0, spec)
        assert a.to_csv_text() == b.to_csv_text()
        c = coupling_disorder_sweep(4, 1.0, disorder_spec((0.03, 0.06), trials=20, seed=10))
        assert a.rows != c.rows

    def test_large_disorder_survives_redraw_rule(self):
        res = coupling_disorder_sweep(2, 1.0, disorder_spec((2.0,), trials=50, seed=3))
        row = res.rows[0]
        assert 0.0 <= row.fidelity_min and row.fidelity_max <= 1.0

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match=">= 0"):
            disorder_spec((-0.1,))


class TestDetuningSweep:
    def test_zero_detuning_is_ideal(self):
        res = detuning_sweep(3, 1.0, detuning_spec((0.0,)))
        assert res.rows[0].fidelity_mean == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_in_detuning_sign(self):
        grid = (-3.0, -1.0, -0.2, 0.2, 1.0, 3.0)
        res = detuning_sweep(3, 1.0, detuning_spec(grid))
        by_x = {row.x: row.fidelity_mean for row in res.rows}
        for x in (0.2, 1.0, 3.0):
            assert by_x[x] == pytest.approx(by_x[-x], abs=1e-9)

    def test_large_detuning_suppression(self):
        # two-level reduction: bright mode at splitting Delta against
        # collective coupling Omega = sqrt(n) eps
        n, eps, x = 3, 1.0, 10.0
        res = detuning_sweep(n, eps, detuning_spec((x,)))
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
        res = detuning_sweep(n, eps, detuning_spec(grid))
        t_star = optimal_time(n, eps)
        for row in res.rows:
            omega_sq = n * eps**2
            rabi = math.sqrt(omega_sq + (row.x * eps) ** 2 / 4.0)
            analytic = (omega_sq / rabi**2) * math.sin(rabi * t_star) ** 2
            assert row.fidelity_mean == pytest.approx(analytic, abs=1e-9)

    def test_rejects_wrong_parameter(self):
        with pytest.raises(ValueError, match="detuning"):
            detuning_sweep(3, 1.0, timing_spec((0.0,)))


class TestModeCountSweep:
    def test_all_counts_succeed(self):
        spec = SweepSpec(SweepParameter.MODE_COUNT, tuple(float(n) for n in range(1, 9)))
        res = mode_count_sweep(1.0, spec)
        assert [row.x for row in res.rows] == [float(n) for n in range(1, 9)]
        for row in res.rows:
            assert row.fidelity_mean == pytest.approx(1.0, abs=1e-9)

    def test_rejects_fractional_counts(self):
        with pytest.raises(ValueError, match="positive integers"):
            SweepSpec(SweepParameter.MODE_COUNT, (2.5,))


class TestNScalingTable:
    def test_full_scorecard(self):
        rows = n_scaling_table(range(1, 9), 1.0)
        for row in rows:
            assert row.fidelity_closed == pytest.approx(1.0, abs=1e-9)
            assert row.fidelity_numeric == pytest.approx(1.0, abs=1e-9)
            assert row.amplitude_gap <= 1e-8
        t_stars = [row.t_star for row in rows]
        assert all(a > b for a, b in zip(t_stars, t_stars[1:]))


class TestSweepSpecValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            timing_spec(())

    def test_rejects_nonfinite_grid(self):
        with pytest.raises(ValueError, match="finite"):
            timing_spec((0.0, math.nan))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            timing_spec((0.0,), trials=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            timing_spec((0.0,), seed=-1)


class TestSweepResultSerialization:
    def test_csv_shape_and_determinism(self):
        res = timing_error_sweep(3, 1.0, timing_spec((0.0, 0.1), seed=5))
        text = res.to_csv_text()
        lines = text.strip().split("\n")
        comments = [l for l in lines if l.startswith("# ")]
        data = [l for l in lines if not l.startswith("# ")]
        assert data[0] == CSV_HEADER
        assert len(data) == 3
        assert data[1].split(",")[0] == "0"
        assert any(l.startswith("# schema_version=") for l in comments)
        assert any(l.startswith("# seed=5") for l in comments)
        assert not any("timestamp" in l for l in comments)
        # metadata carries the timestamp; the CSV stays reproducible
        assert "timestamp" in res.metadata

    def test_combined_dict_form(self):
        res = detuning_sweep(2, 1.0, detuning_spec((0.0,)))
        data = res.to_dict()
        assert data["metadata"]["parameter"] == "detuning"
        assert "timestamp" in data["metadata"]
        assert data["rows"][0]["fidelity_mean"] == pytest.approx(1.0, abs=1e-9)

    def test_fixed_precision_formatting(self):
        assert fmt12(1.0) == "1"
        assert fmt12(0.1234567890123456) == "0.123456789012"
        assert fmt12(-0.5) == "-0.5"


GOLDEN_DIR = Path(__file__).parent / "data"

GOLDEN_SWEEPS = {
    "timing-error": (SweepParameter.TIMING_ERROR, 1, 0),
    "detuning": (SweepParameter.DETUNING, 1, 0),
    "mode-count": (SweepParameter.MODE_COUNT, 1, 0),
    "coupling-disorder-seed0": (SweepParameter.COUPLING_DISORDER, 100, 0),
    "coupling-disorder-seed42": (SweepParameter.COUPLING_DISORDER, 100, 42),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_csv_matches_golden_bytes(name):
    """Same seed, same bytes across versions: the CSVs under tests/data
    were written by an earlier version at N = 3, epsilon = 1 on the CLI's
    default grids; every change must reproduce them exactly."""
    parameter, trials, seed = GOLDEN_SWEEPS[name]
    spec = SweepSpec(parameter, _default_grid(parameter, 3), trials=trials, seed=seed)
    if parameter is SweepParameter.MODE_COUNT:
        result = mode_count_sweep(1.0, spec)
    elif parameter is SweepParameter.TIMING_ERROR:
        result = timing_error_sweep(3, 1.0, spec)
    elif parameter is SweepParameter.DETUNING:
        result = detuning_sweep(3, 1.0, spec)
    else:
        result = coupling_disorder_sweep(3, 1.0, spec)
    expected = (GOLDEN_DIR / f"sweep_{name}_n3.csv").read_text()
    assert result.to_csv_text() == expected

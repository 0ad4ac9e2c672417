import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wcavity
from wcavity.cli import LAB_OMEGA, main
from wcavity.cli import build_parser, resolve_config
from wcavity.dynamics import (
    Frame,
    ModelParams,
    PropagationError,
    build_hamiltonian,
    propagate_numeric,
)
from wcavity.entanglement import fidelity, success_probability, w_state
from wcavity.fock import AtomLevel, atom_population, build_basis, initial_state, state_from_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSimulate:
    def test_default_run_reaches_w_state(self, capsys):
        report = run_json(capsys, "simulate", "--n", "3", "--epsilon", "1")
        assert report["fidelity_W"] == pytest.approx(1.0, abs=1e-9)
        assert report["success_prob"] == pytest.approx(1.0, abs=1e-9)
        assert report["atom_ground_prob"] == pytest.approx(1.0, abs=1e-9)
        assert report["closed_vs_numeric_gap"] <= 1e-9
        assert report["schema_version"] == "1"
        assert report["config"]["n"] == 3

    def test_zero_time_is_no_evolution(self, capsys):
        report = run_json(capsys, "simulate", "--n", "3", "--epsilon", "1", "--time", "0")
        assert report["fidelity_W"] == pytest.approx(0.0, abs=1e-12)
        assert report["atom_ground_prob"] == pytest.approx(0.0, abs=1e-12)

    def test_partial_rotation_two_modes(self, capsys):
        report = run_json(capsys, "simulate", "--n", "2", "--epsilon", "1", "--time", "0.5")
        expected = math.sin(math.sqrt(2.0) * 0.5) ** 2
        assert report["fidelity_W"] == pytest.approx(expected, abs=1e-9)

    def test_time_flag_is_in_inverse_epsilon_units(self, capsys):
        report = run_json(capsys, "simulate", "--n", "2", "--epsilon", "2", "--time", "0.5")
        assert report["t"] == pytest.approx(0.25, abs=1e-12)
        expected = math.sin(math.sqrt(2.0) * 2.0 * 0.25) ** 2
        assert report["fidelity_W"] == pytest.approx(expected, abs=1e-9)

    def test_si_mode_takes_absolute_time(self, capsys):
        report = run_json(
            capsys, "simulate", "--n", "2", "--epsilon", "2", "--time", "0.5", "--si"
        )
        assert report["t"] == pytest.approx(0.5, abs=1e-12)

    def test_dump_state_round_trips(self, capsys):
        report = run_json(capsys, "simulate", "--n", "3", "--dump-state")
        psi = state_from_dict(report["state"])
        assert psi.basis.n_modes == 3
        assert abs(psi.norm() - 1.0) <= 1e-9

    def test_lab_frame_agrees_on_observables(self, capsys):
        inter = run_json(capsys, "simulate", "--n", "3", "--time", "0.4")
        lab = run_json(capsys, "simulate", "--n", "3", "--time", "0.4", "--frame", "lab")
        assert lab["fidelity_W"] == pytest.approx(inter["fidelity_W"], abs=1e-9)
        assert lab["closed_vs_numeric_gap"] <= 1e-9

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--n", "3", "--format", "csv", "--out", str(out)
        )
        assert code == 0, err
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# schema_version=1"
        assert lines[1].startswith("# config=")
        assert any(line.startswith("fidelity_W,1") for line in lines)

    def test_larger_truncation_still_exact(self, capsys):
        report = run_json(capsys, "simulate", "--n", "2", "--nmax", "3")
        assert report["fidelity_W"] == pytest.approx(1.0, abs=1e-9)
        assert report["closed_vs_numeric_gap"] <= 1e-9


    def test_largest_admitted_truncation_runs(self, capsys):
        report = run_json(capsys, "simulate", "--n", "13")  # full dimension 16384
        assert report["fidelity_W"] == pytest.approx(1.0, abs=1e-9)


def dense_route(n, n_max, epsilon, t, frame):
    """The simulate evolution on the whole truncated space 2 (n_max + 1)^N."""
    basis = build_basis(n, n_max)
    params = ModelParams.resonant(n, epsilon, omega=LAB_OMEGA, frame=frame)
    return propagate_numeric(build_hamiltonian(params, basis), initial_state(basis), t)


@settings(max_examples=40, deadline=None)
@given(
    size=st.one_of(
        st.tuples(st.integers(1, 8), st.just(1)), st.tuples(st.integers(1, 4), st.just(2))
    ),
    frame=st.sampled_from(["interaction", "lab"]),
    epsilon=st.floats(0.25, 4.0),
    time=st.floats(0.0, 6.0),
    dump=st.booleans(),
)
def test_simulate_matches_dense_full_space(size, frame, epsilon, time, dump):
    n, n_max = size
    argv = ["simulate", "--n", str(n), "--nmax", str(n_max), "--frame", frame,
            "--epsilon", repr(epsilon), "--time", repr(time)]
    if dump:
        argv.append("--dump-state")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    report = json.loads(buf.getvalue())

    dense = dense_route(n, n_max, epsilon, time / epsilon, Frame(frame))
    assert report["fidelity_W"] == pytest.approx(
        fidelity(w_state(n, dense.basis), dense), abs=1e-12
    )
    assert report["success_prob"] == pytest.approx(success_probability(dense, n), abs=1e-12)
    assert report["atom_ground_prob"] == pytest.approx(
        atom_population(dense, AtomLevel.GROUND), abs=1e-12
    )
    assert report["closed_vs_numeric_gap"] <= 1e-9
    if dump:
        state = report["state"]
        assert state["basis"] == {"n_modes": n, "n_max": n_max, "excitation_cap": None}
        assert len(state["amplitudes"]) == dense.basis.dim
        amps = np.array([complex(re, im) for re, im in state["amplitudes"]])
        np.testing.assert_allclose(amps, dense.amplitudes, atol=1e-12, rtol=0)


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(wcavity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = "import sys, wcavity.cli; assert not any(m.startswith('scipy') for m in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


class TestSweep:
    def test_single_point_timing_sweep(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--n", "3", "--parameter", "timing-error",
            "--grid", "0", "--out", str(out),
        )
        assert code == 0, err
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "x,fidelity_mean,fidelity_min,fidelity_max,success_prob_mean"
        assert data[1] == "0,1,1,1,1"
        meta = json.loads((tmp_path / "sweep.meta.json").read_text())
        assert meta["parameter"] == "timing-error"
        assert "timestamp" in meta

    def test_zero_disorder_rows_are_ideal(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--parameter", "coupling-disorder",
            "--grid", "0", "--trials", "10", "--out", str(out),
        )
        assert code == 0, err
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data[1] == "0,1,1,1,1"

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        out = tmp_path / "a.csv"
        args = [
            "sweep", "--n", "3", "--parameter", "coupling-disorder",
            "--grid", "0.02,0.05", "--trials", "25", "--seed", "42",
            "--out", str(out),
        ]
        assert run_cli(capsys, *args)[0] == 0
        first = out.read_bytes()
        assert run_cli(capsys, *args)[0] == 0
        assert out.read_bytes() == first

    def test_combined_json_form(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code, _, err = run_cli(
            capsys, "sweep", "--parameter", "detuning", "--grid", "0,1",
            "--format", "json", "--out", str(out),
        )
        assert code == 0, err
        data = json.loads(out.read_text())
        assert data["metadata"]["parameter"] == "detuning"
        assert data["rows"][0]["fidelity_mean"] == pytest.approx(1.0, abs=1e-9)

    def test_mode_count_sweep(self, capsys, tmp_path):
        out = tmp_path / "m.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--parameter", "mode-count", "--grid", "1,2,3,4",
            "--out", str(out),
        )
        assert code == 0, err
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data) == 5
        for line in data[1:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_default_grid_is_materialized_in_config(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, _ = run_cli(capsys, "sweep", "--n", "3", "--out", str(out))
        assert code == 0
        meta = json.loads((tmp_path / "t.meta.json").read_text())
        config = json.loads(meta["config"])
        assert len(config["sweep"]["grid"]) == 41

    def test_missing_out_is_bad_input(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--parameter", "timing-error")
        assert code == 2
        assert "--out" in err

    def test_unparseable_grid_is_bad_input(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--grid", "a,b", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "grid" in err


class TestEntanglement:
    def test_three_modes(self, capsys):
        report = run_json(capsys, "entanglement", "--n", "3")
        assert len(report["rows"]) == 3
        for row in report["rows"]:
            assert row["concurrence_w"] == pytest.approx(2.0 / 3.0, abs=1e-9)
            assert row["concurrence_ghz"] == pytest.approx(0.0, abs=1e-12)
            assert 0 in row["traced_out"]

    def test_four_modes(self, capsys):
        report = run_json(capsys, "entanglement", "--n", "4")
        assert len(report["rows"]) == 6
        for row in report["rows"]:
            assert row["concurrence_w"] == pytest.approx(0.5, abs=1e-9)
            assert 0.0 <= row["concurrence_w"] <= 1.0

    def test_rejects_single_mode(self, capsys):
        code, _, err = run_cli(capsys, "entanglement", "--n", "1")
        assert code == 2
        assert ">= 2" in err


class TestValidate:
    def test_clean_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "validate")
        assert code == 0
        lines = out.strip().split("\n")
        assert sum(1 for l in lines if l.startswith("PASS ")) == 6
        assert lines[-1] == "summary: checks_run=6 passed=6 failed=0"

    def test_injected_fault_fails_hermiticity(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--inject-fault")
        assert code == 1
        assert "FAIL hermiticity" in out
        assert "failed=1" in out

    def test_report_file(self, capsys, tmp_path):
        out = tmp_path / "validate.json"
        code, _, _ = run_cli(capsys, "validate", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["summary"] == {"checks_run": 6, "passed": 6, "failed": 0}
        assert all(c["passed"] for c in data["checks"])


class TestConfigHandling:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4\nepsilon = 2.0\ntime = 0\n")
        report = run_json(capsys, "simulate", "--config", str(cfg))
        assert report["config"]["n"] == 4
        assert report["config"]["epsilon"] == 2.0
        assert report["fidelity_W"] == pytest.approx(0.0, abs=1e-12)

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4\n# comment line\ndump-state = true\n")
        report = run_json(capsys, "simulate", "--config", str(cfg), "--n", "3")
        assert report["config"]["n"] == 3
        assert "state" in report  # dump-state taken from the file

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_invalid_n(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "0")
        assert code == 2
        assert "--n" in err

    def test_invalid_epsilon(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--epsilon", "-1")
        assert code == 2

    def test_unknown_flag_exits_two(self, capsys):
        assert run_cli(capsys, "simulate", "--bogus")[0] == 2

    def test_unknown_frame_choice_exits_two(self, capsys):
        assert run_cli(capsys, "simulate", "--frame", "rotating")[0] == 2

    def test_unknown_config_file_format_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        out = tmp_path / "sweep.out"
        for argv in (("simulate",), ("sweep", "--out", str(out))):
            code, stdout, err = run_cli(capsys, *argv, "--config", str(cfg))
            assert code == 2
            assert "unknown format 'xml'" in err
            assert stdout == ""
        assert not out.exists()

    def test_oversized_basis_is_bad_input(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "14")
        assert code == 2
        assert "truncation too large" in err


def test_numerical_failure_maps_to_exit_three(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise PropagationError("synthetic norm drift")

    monkeypatch.setattr("wcavity.cli.propagate_numeric", explode)
    code, _, err = run_cli(capsys, "simulate", "--n", "3")
    assert code == 3
    assert "numerical failure" in err


# options each subcommand reads; every other option is refused
READS = {
    "simulate": {"n", "epsilon", "time", "frame", "nmax", "out", "format", "dump_state", "si"},
    "sweep": {"n", "epsilon", "out", "format", "seed", "parameter", "grid", "trials"},
    "entanglement": {"n", "out", "format"},
    "validate": {"out", "format", "seed"},
}
# a valid value for each option; None marks a bare flag
SAMPLE = {
    "n": "3", "epsilon": "1", "time": "1", "frame": "lab", "nmax": "1", "out": "-",
    "format": "json", "seed": "1", "dump_state": None, "si": None,
    "parameter": "detuning", "grid": "0", "trials": "1",
}
# the options that a subcommand accepted at schema version 1 but never read
UNREAD = {
    "simulate": ["seed"],
    "sweep": ["time", "frame", "nmax", "dump_state", "si"],
    "entanglement": ["epsilon", "time", "frame", "nmax", "seed", "dump_state", "si"],
    "validate": ["n", "epsilon", "time", "frame", "nmax", "dump_state", "si"],
}
REMOVED = [(command, key) for command, keys in UNREAD.items() for key in keys]


def flag(key):
    return "--" + key.replace("_", "-")


@pytest.mark.parametrize("command", sorted(READS))
def test_flags_file_keys_and_echo_name_the_same_options(command, tmp_path):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        a.dest for a in sub.choices[command]._actions if a.option_strings
    } - {"help", "config", "inject_fault"}

    required = ["--out", str(tmp_path / "x.csv")] if command == "sweep" else []
    file_keys = set()
    for key, value in SAMPLE.items():
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = {'true' if value is None else value}\n")
        try:
            resolve_config(parser.parse_args([command, "--config", str(cfg), *required]))
        except ValueError as exc:
            assert "unknown config file keys" in str(exc)
        else:
            file_keys.add(key)

    out = tmp_path / "report.json"
    extra = ["--grid", "0"] if command == "sweep" else []
    assert main([command, "--format", "json", "--out", str(out), *extra]) == 0
    report = json.loads(out.read_text())
    echo = json.loads(report["metadata"]["config"]) if command == "sweep" else report["config"]
    nested = echo.pop("sweep", {})
    assert echo.pop("command") == command
    echoed = set(echo) | set(nested)

    assert flags == file_keys == echoed == READS[command]


@pytest.mark.parametrize("command,key", REMOVED)
def test_unread_option_is_refused(command, key, capsys, tmp_path):
    out = tmp_path / "x.out"
    value = [] if SAMPLE[key] is None else [SAMPLE[key]]
    code, stdout, err = run_cli(capsys, command, flag(key), *value, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert "unrecognized arguments" in err
    assert not out.exists()

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {'true' if SAMPLE[key] is None else SAMPLE[key]}\n")
    code, stdout, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert f"unknown config file keys: ['{key}']" in err
    assert not out.exists()


@pytest.mark.parametrize("command,key", [
    ("simulate", "epsilon"), ("simulate", "time"), ("sweep", "epsilon"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_non_finite_epsilon_and_time_are_refused(command, key, value, source, capsys, tmp_path):
    out = tmp_path / "x.out"
    if source == "flag":
        argv = [f"{flag(key)}={value}"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv = ["--config", str(cfg)]
    code, stdout, err = run_cli(capsys, command, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {flag(key)} must be finite")
    assert not out.exists()


def test_validate_csv_reads_back_as_two_tables(capsys, tmp_path):
    out = tmp_path / "v.csv"
    code, _, err = run_cli(capsys, "validate", "--format", "csv", "--out", str(out))
    assert code == 0, err
    with out.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert rows[0] == ["name", "passed", "measured", "tolerance", "cases"]
    checks, summary = rows[1:7], rows[7:]
    assert all(len(r) == 5 and r[1] == "True" for r in checks)
    assert summary == [
        ["summary.checks_run", "6"], ["summary.passed", "6"], ["summary.failed", "0"]
    ]


@pytest.mark.parametrize("argv", [
    ("simulate",),
    ("sweep", "--grid", "0"),
    ("validate",),
])
def test_unwritable_out_is_bad_input(argv, capsys, tmp_path):
    missing = tmp_path / "missing" / "x.csv"
    code, _, err = run_cli(capsys, *argv, "--out", str(missing))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert not missing.parent.exists()


def test_sweep_leaves_no_partial_output_when_the_sidecar_fails(capsys, tmp_path):
    out = tmp_path / "x.csv"
    (tmp_path / "x.meta.json").mkdir()  # the sidecar path cannot be written
    code, _, err = run_cli(capsys, "sweep", "--grid", "0", "--out", str(out))
    assert code == 2
    assert err.startswith("error: ")
    assert not out.exists()
    assert (tmp_path / "x.meta.json").is_dir()

import contextlib
import csv
import errno
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wcavity
from wcavity import cli, protocol, sector
from wcavity.cli import main, read_config, run
from wcavity.dynamics import (
    PropagationError,
    build_hamiltonian,
    evolve_closed_form,
    propagate_numeric,
)
from wcavity.entanglement import fidelity, success_probability, w_state
from wcavity.fock import StateVector, build_basis, initial_state
from wcavity.protocol import require_grid
from wcavity.sector import MAX_AMPLITUDES, MAX_MODES, ROUNDING_TOL

import fault
from codes import digits
from qubit_space import qubit_hamiltonian

# the sweep parameters, in the order of protocol.SWEEPS
PARAMETERS = list(protocol.SWEEPS)


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
        # both equal fidelity_W
        assert "success_prob" not in report and "atom_ground_prob" not in report
        assert report["closed_vs_numeric_gap"] <= 1e-9
        assert report["schema_version"] == "4"
        assert report["config"]["n"] == 3

    def test_zero_time_is_no_evolution(self, capsys):
        report = run_json(capsys, "simulate", "--n", "3", "--epsilon", "1", "--time", "0")
        assert report["fidelity_W"] == pytest.approx(0.0, abs=1e-12)

    def test_partial_rotation_two_modes(self, capsys):
        report = run_json(capsys, "simulate", "--n", "2", "--epsilon", "1", "--time", "0.5")
        expected = math.sin(math.sqrt(2.0) * 0.5) ** 2
        assert report["fidelity_W"] == pytest.approx(expected, abs=1e-9)

    def test_time_flag_is_in_inverse_epsilon_units(self, capsys):
        report = run_json(capsys, "simulate", "--n", "2", "--epsilon", "2", "--time", "0.5")
        assert report["t"] == pytest.approx(0.25, abs=1e-12)
        expected = math.sin(math.sqrt(2.0) * 2.0 * 0.25) ** 2
        assert report["fidelity_W"] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dumped_amplitudes_are_the_dense_sector_state(self, n, capsys):
        """The ``amplitudes`` rows of ``--dump-state``, indexed 0..N+1 in the
        order of ``build_basis(N)``, are the state there:
        the dense sector propagator matches them within ``ROUNDING_TOL``,
        and at time 0 they are |e; 0>, the last state of that order.  Each
        part is rounded to 12 digits, within 5e-12 of its size, so their
        norm is within 5e-12 of 1, but not always within ``ROUNDING_TOL``
        (0.9999999999989159 at N = 5 here): the state is rebuilt from the
        rows divided by their norm."""
        rng = random.Random(n)
        basis = build_basis(n)
        for time in [0.0] + [rng.uniform(-6.0, 6.0) for _ in range(4)]:
            eps = rng.uniform(0.25, 4.0)
            rows = run_json(capsys, "simulate", "--n", str(n), "--epsilon", repr(eps),
                            "--time", repr(time), "--dump-state")["amplitudes"]
            assert [row["amplitude_index"] for row in rows] == list(range(n + 2))
            amps = np.array([complex(row["re"], row["im"]) for row in rows])
            norm = np.linalg.norm(amps)
            assert abs(norm - 1.0) <= 5e-12
            StateVector(basis, amps / norm)  # refuses any but N + 2 amplitudes of norm 1
            H = build_hamiltonian(couplings=(eps,) * n, detunings=(0.0,) * n)
            dense = propagate_numeric(H, initial_state(basis), time / eps)
            assert np.max(np.abs(amps - dense.amplitudes)) <= ROUNDING_TOL
            if time == 0.0:
                assert rows[-1] == {"amplitude_index": n + 1, "re": 1.0, "im": 0.0}

    def test_csv_format(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, _, err = run_cli(
            capsys, "simulate", "--n", "3", "--format", "csv", "--out", str(out)
        )
        assert code == 0, err
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "# schema_version=4"
        assert lines[1].startswith("# config=")
        assert any(line.startswith("fidelity_W,1") for line in lines)

    def test_largest_admitted_truncation_runs(self, capsys):
        # MAX_MODES, the most modes any command runs
        report = run_json(capsys, "simulate", "--n", str(MAX_MODES))
        assert report["fidelity_W"] == pytest.approx(1.0, abs=1e-9)
        assert report["closed_vs_numeric_gap"] <= 1e-9


def dense_route(n, epsilon, t):
    """The simulate evolution on the whole truncated space 2 * 2^N."""
    H = qubit_hamiltonian(couplings=(epsilon,) * n, detunings=(0.0,) * n)
    return propagate_numeric(H, initial_state(H.basis), t)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 8),
    epsilon=st.floats(0.25, 4.0),
    time=st.floats(0.0, 6.0),
    dump=st.booleans(),
)
def test_simulate_matches_dense_full_space(n, epsilon, time, dump):
    argv = ["simulate", "--n", str(n), "--epsilon", repr(epsilon), "--time", repr(time)]
    if dump:
        argv.append("--dump-state")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    report = json.loads(buf.getvalue())

    dense = dense_route(n, epsilon, time / epsilon)
    assert report["fidelity_W"] == pytest.approx(
        fidelity(w_state(dense.basis), dense), abs=1e-12
    )
    # the W target has the atom in its ground state: the fidelity is the
    # success probability and the atom's ground population
    assert report["fidelity_W"] == pytest.approx(success_probability(dense), abs=1e-12)
    ground = dense.amplitudes[[digits(code, n)[0] == 0 for code in dense.basis.codes]]
    assert report["fidelity_W"] == pytest.approx(float(np.sum(np.abs(ground) ** 2)), abs=1e-12)
    assert report["closed_vs_numeric_gap"] <= 1e-9
    if dump:
        sector = build_basis(n)
        amps = np.array([complex(row["re"], row["im"]) for row in report["amplitudes"]])
        assert len(amps) == sector.dim == n + 2
        # the dense route's amplitudes at the sector states, which hold all its norm
        at_sector = dense.amplitudes[[dense.basis.index[code] for code in sector.codes]]
        np.testing.assert_allclose(amps, at_sector, atol=1e-12, rtol=0)
        assert np.linalg.norm(at_sector) == pytest.approx(1.0, abs=1e-12)


def package_env():
    """The environment of a child interpreter that imports this package."""
    src = str(Path(wcavity.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, wcavity.cli; assert not any(m.startswith('scipy') for m in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=package_env(), capture_output=True, text=True,
        timeout=120,
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
        assert data[0] == "x,fidelity_mean,fidelity_min,fidelity_max"
        assert data[1] == "0,1,1,1"
        assert echoed_config(out.read_text())["parameter"] == "timing-error"
        meta = json.loads((tmp_path / "sweep.meta.json").read_text())
        assert list(meta) == ["schema_version", "timestamp"]

    def test_zero_disorder_rows_are_ideal(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--parameter", "coupling-disorder",
            "--grid", "0", "--trials", "10", "--out", str(out),
        )
        assert code == 0, err
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data[1] == "0,1,1,1"

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
        assert data["config"]["parameter"] == "detuning"
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
        assert len(echoed_config(out.read_text())["grid"]) == 41

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


def echoed_config(text: str) -> dict:
    """The config that a CSV report echoes on its ``# config=`` line."""
    return json.loads(next(l for l in text.splitlines() if l.startswith("# config="))[9:])


def sweep_rows(text: str) -> list[tuple[float, ...]]:
    """The rows of a sweep CSV, under its comment lines and header."""
    lines = [l for l in text.splitlines() if not l.startswith("# ")]
    assert lines[0] == "x,fidelity_mean,fidelity_min,fidelity_max"
    return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]


def test_default_grids_are_the_numpy_linspace_doubles():
    """Each default grid of ``protocol.SWEEPS`` is built with the standard
    library, bit for bit the ``np.linspace`` grid it used to be, at every N
    the sweeps admit."""
    fixed = {
        "coupling-disorder": np.linspace(0.0, 0.1, 11),
        "detuning": np.linspace(-2.0, 2.0, 41),
        "mode-count": np.arange(1.0, 9.0),
    }
    for n in range(1, 1023):
        span = 0.2 * math.pi / (2.0 * math.sqrt(n))
        for parameter in PARAMETERS:
            want = fixed.get(parameter)
            if want is None:
                want = np.linspace(-span, span, 41)
            got = protocol.SWEEPS[parameter]["grid"](n)
            assert all(type(x) is float for x in got)
            assert [x.hex() for x in got] == [float(x).hex() for x in want], (parameter, n)


@pytest.mark.parametrize("parameter", ["timing-error", "coupling-disorder", "detuning",
                                       "mode-count"])
def test_default_grid_echo_is_that_of_the_numpy_grid(parameter, capsys, tmp_path, monkeypatch):
    """The ``# config=`` line echoes the default grid, in the flat config,
    with the bytes it had when the grid's values were ``np.float64``."""
    args = ["sweep", "--parameter", parameter]
    if parameter != "mode-count":
        args += ["--n", "5"]
    outputs = []
    for numpy_grid in (False, True):
        if numpy_grid:
            stdlib = protocol.SWEEPS[parameter]["grid"]
            monkeypatch.setitem(protocol.SWEEPS[parameter], "grid",
                                lambda n: tuple(np.array(stdlib(n))))
        # the echoed config names --out: both runs write s.csv in a directory of their own
        (tmp_path / str(numpy_grid)).mkdir()
        monkeypatch.chdir(tmp_path / str(numpy_grid))
        out = Path("s.csv")
        assert run_cli(capsys, *args, "--out", str(out))[0] == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    # the flat config, the default grid in it
    config = echoed_config(outputs[0].decode())
    assert config["grid"] == list(stdlib(config.get("n")))


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_sweep_calls_the_function_bound_on_protocol_at_the_call(parameter, capsys, monkeypatch):
    """A wrapper bound on ``protocol`` after import, as the benchmark's
    tracer binds one, sees the sweep's one call, with the given grid."""
    import wcavity.protocol

    name = parameter.replace("-", "_") + "_sweep"
    real, calls = getattr(wcavity.protocol, name), []
    monkeypatch.setattr(wcavity.protocol, name,
                        lambda **kwargs: calls.append(kwargs) or real(**kwargs))
    assert run_cli(capsys, "sweep", "--parameter", parameter, "--grid", "1", "--out", "-")[0] == 0
    assert len(calls) == 1 and calls[0]["grid"] == (1.0,)


def test_largest_detuning_sweep_follows_the_bright_mode_law(capsys):
    """At N = 1022, the largest N the detuning sweep admits, every row is
    the two-level law g^2 / G^2 sin^2(G t*) of the bright mode: collective
    coupling g = sqrt(N) epsilon, G = sqrt(g^2 + delta^2 / 4)."""
    n = 1022
    code, out, err = run_cli(capsys, "sweep", "--n", str(n), "--parameter", "detuning",
                             "--out", "-")
    assert code == 0, err
    rows = sweep_rows(out)
    assert len(rows) == 41
    g2, t_star = float(n), math.pi / (2.0 * math.sqrt(n))
    for x, *fids in rows:
        big_g2 = g2 + x * x / 4.0
        law = g2 / big_g2 * math.sin(math.sqrt(big_g2) * t_star) ** 2
        assert all(abs(f - law) <= 1e-9 for f in fids), x


def test_mode_count_sweep_reaches_w_at_the_largest_admitted_count(capsys):
    code, out, err = run_cli(capsys, "sweep", "--parameter", "mode-count",
                             "--grid", "1,2,511,1022", "--out", "-")
    assert code == 0, err
    assert sweep_rows(out) == [(float(n), 1.0, 1.0, 1.0) for n in (1, 2, 511, 1022)]


class TestEntanglement:
    def test_three_modes(self, capsys):
        report = run_json(capsys, "entanglement", "--n", "3")
        assert len(report["rows"]) == 3
        for row in report["rows"]:
            assert row["concurrence_w"] == pytest.approx(2.0 / 3.0, abs=1e-9)
            assert row["concurrence_ghz"] == pytest.approx(0.0, abs=1e-12)
            assert set(row) == {"pair", "concurrence_w", "concurrence_ghz"}

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
        assert sum(1 for l in lines if l.startswith("PASS ")) == 7
        assert lines[-1] == "summary: checks_run=7 passed=7 failed=0"

    def test_injected_fault_fails_the_sector_route(self, capsys, monkeypatch):
        """With ``sector.evolve`` run to -t, validate exits 1, fails
        ``sector-vs-dense`` alone and writes these pinned bytes."""
        monkeypatch.setattr(sector, "evolve", fault.backwards(sector.evolve))
        code, out, _ = run_cli(capsys, "validate", "--seed", "7")
        assert code == 1
        assert [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL ")] == [
            "FAIL sector-vs-dense"]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9d3886e94db0a2b181f5a94f181218cff1eb25e9b98f4a2ca74ef46d8769ac9a")

    def test_a_sitecustomize_on_the_path_injects_the_fault(self, capsys, tmp_path, monkeypatch):
        """The route README and CI give for a fresh process: a
        ``sitecustomize`` that calls ``fault.inject()``, on ``PYTHONPATH``
        with the tests, makes ``python -m wcavity validate --seed 7`` write
        the bytes and exit code of the in-process faulted run."""
        (tmp_path / "sitecustomize.py").write_text("import fault; fault.inject()\n")
        monkeypatch.setattr(sector, "evolve", fault.backwards(sector.evolve))
        code, out, err = run_cli(capsys, "validate", "--seed", "7")
        assert code == 1
        env = package_env()
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tmp_path), str(Path(fault.__file__).parent), env["PYTHONPATH"]])
        proc = subprocess.run([sys.executable, "-m", "wcavity", "validate", "--seed", "7"],
                              env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    def test_report_file(self, capsys, tmp_path):
        out = tmp_path / "validate.json"
        code, _, _ = run_cli(capsys, "validate", "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert list(data) == ["schema_version", "config", "checks"]
        assert len(data["checks"]) == 7 and all(c["passed"] for c in data["checks"])

    @pytest.mark.parametrize("source", ["flag", "config", "out-dash"])
    def test_format_without_an_out_file_is_refused(self, source, capsys, tmp_path):
        """validate prints text lines; --format sets only its --out file's."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = csv\n")
        argv = {"flag": ["--format", "csv"], "config": ["--config", str(cfg)],
                "out-dash": ["--format", "json", "--out", "-"]}[source]
        code, stdout, err = run_cli(capsys, "validate", *argv)
        assert code == 2
        assert stdout == ""
        # a value read from the file is named by its file line
        where = f"{cfg}:1: key 'format': " if source == "config" else ""
        assert err == (f"error: {where}--format sets the format of validate's --out file, "
                       "and there is none: validate prints its text lines\n")


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
        assert "amplitudes" in report  # dump-state taken from the file

    @pytest.mark.parametrize("spelling", ["off", "No", "0", "FALSE"])
    def test_config_file_turns_a_flag_off(self, spelling, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n = 3\ndump-state = {spelling}\n")
        report = run_json(capsys, "simulate", "--config", str(cfg))
        assert report["config"]["dump_state"] is False
        assert "amplitudes" not in report

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 4\nbogus = 1\nalso = 2\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert err == f"error: {cfg}:2: unknown config file keys: ['also', 'bogus']\n"

    @pytest.mark.parametrize("text, line, message", [
        ("n=abc\n", 1, "key 'n': invalid literal for int() with base 10: 'abc'"),
        ("# a comment\nepsilon = fast\n", 2, "key 'epsilon': could not convert"),
        ("dump-state = maybe\n", 1, "key 'dump_state': expected a boolean, got 'maybe'"),
        ("n = 4\nepsilon = 2\nn = 5\n", 3, "key 'n' is set again (first on line 1)"),
        ("dump_state = true\ndump-state = false\n", 2, "key 'dump_state' is set again"),
    ], ids=["int", "float", "bool", "twice", "twice-spelled-apart"])
    def test_config_file_error_names_the_file_line_and_key(self, text, line, message,
                                                           capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "s.json"
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {cfg}:{line}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("text, argv, message", [
        ("n=abc\n", ["--n", "3"], "key 'n': invalid literal for int() with base 10: 'abc'"),
        ("parameter=bogus\n", ["--parameter", "detuning"],
         "key 'parameter': unknown parameter 'bogus'"),
        ("trials=0\n", ["--parameter", "coupling-disorder", "--trials", "5"],
         "key 'trials': --trials must be >= 1"),
        ("grid = a,b\n", ["--n", "3", "--grid", "0"],
         "key 'grid': could not convert string to float: 'a'"),
    ], ids=["parse", "choice", "validity", "grid"])
    def test_config_value_a_flag_overrides_is_still_checked(self, text, argv, message,
                                                            capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, stdout, err = run_cli(capsys, "sweep", *argv, "--config", str(cfg), "--out", "-")
        assert (code, stdout, err) == (2, "", f"error: {cfg}:1: {message}\n")

    def test_config_file_is_read_as_utf8_in_an_ascii_locale(self, tmp_path):
        """Under the C locale, with neither locale coercion nor UTF-8 mode,
        the locale's encoding is ASCII; a config file is read as UTF-8 all the same."""
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# r\u00e9glage\nn = 4\n".encode("utf-8"))
        env = dict(package_env(), PYTHONCOERCECLOCALE="0", LC_ALL="C")
        env.pop("PYTHONUTF8", None)
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "wcavity", "simulate", "--config", str(cfg),
             "--out", str(tmp_path / "report.json")],
            env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads((tmp_path / "report.json").read_text())["config"]["n"] == 4

    def test_config_file_may_start_with_a_byte_order_mark(self, capsys, tmp_path):
        """An editor may save UTF-8 with a byte-order mark; it is not read
        as part of the first key."""
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfn = 4\n")
        report = run_json(capsys, "simulate", "--config", str(cfg))
        assert report["config"]["n"] == 4

    def test_a_config_file_that_is_not_utf8_is_named(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xffn = 4\n")
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert (code, stdout) == (2, "")
        assert err == (f"error: {cfg}: 'utf-8' codec can't decode byte 0xff in position 0: "
                       "invalid start byte\n")

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

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["sweep", "--parameter", "coupling-disorder", "--grid", "0"],
    ], ids=["validate", "sweep"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_negative_seed_names_the_flag(self, argv, source, capsys, tmp_path):
        out, cfg = tmp_path / "x.out", tmp_path / "run.cfg"
        if source == "flag":
            given, where = ["--seed", "-1"], ""
        else:
            cfg.write_text("seed = -1\n")
            given, where = ["--config", str(cfg)], f"{cfg}:1: key 'seed': "
        code, stdout, err = run_cli(capsys, *argv, *given, "--out", str(out))
        assert (code, stdout, err) == (2, "", f"error: {where}--seed must be >= 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_too_few_trials_names_the_flag(self, value, source, capsys, tmp_path):
        out, cfg = tmp_path / "x.csv", tmp_path / "run.cfg"
        if source == "flag":
            given, where = ["--trials", value], ""
        else:
            cfg.write_text(f"trials = {value}\n")
            given, where = ["--config", str(cfg)], f"{cfg}:1: key 'trials': "
        code, stdout, err = run_cli(capsys, "sweep", "--parameter", "coupling-disorder",
                                    *given, "--out", str(out))
        assert (code, stdout, err) == (2, "", f"error: {where}--trials must be >= 1\n")
        assert not out.exists()

    def test_unknown_flag_exits_two(self, capsys):
        assert run_cli(capsys, "simulate", "--bogus")[0] == 2

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
        code, _, err = run_cli(capsys, "simulate", "--n", "1023")
        assert code == 2
        assert "--n 1023 is above the limit of 1022 modes" in err


def test_numerical_failure_maps_to_exit_three(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise PropagationError("synthetic norm drift")

    monkeypatch.setattr("wcavity.sector.evolve", explode)
    code, _, err = run_cli(capsys, "simulate", "--n", "3")
    assert code == 3
    assert "numerical failure" in err


# options each subcommand reads; every other option is refused
READS = {
    "simulate": {"n", "epsilon", "time", "out", "format", "dump_state"},
    "sweep": {"n", "epsilon", "out", "format", "seed", "parameter", "grid", "trials"},
    "entanglement": {"n", "out", "format"},
    "validate": {"out", "format", "seed"},
}
# a valid value for each option; None marks a bare flag
SAMPLE = {
    "n": "3", "epsilon": "1", "time": "1", "frame": "lab", "nmax": "2", "out": "-",
    "format": "json", "seed": "1", "dump_state": None, "si": None,
    "parameter": "detuning", "grid": "0", "trials": "1",
}
# the options that a subcommand accepted at schema version 1 but never read,
# and simulate's retired --nmax, --frame and --si, which changed no reported
# number beyond rounding or a rescaling of --time
UNREAD = {
    "simulate": ["seed", "nmax", "frame", "si"],
    "sweep": ["time", "frame", "nmax", "dump_state", "si"],
    "entanglement": ["epsilon", "time", "frame", "nmax", "seed", "dump_state", "si"],
    "validate": ["n", "epsilon", "time", "frame", "nmax", "dump_state", "si"],
}
REMOVED = [(command, key) for command, keys in UNREAD.items() for key in keys]


def flag(key):
    return "--" + key.replace("_", "-")


def help_text(capsys, *argv):
    """The help that ``main(argv)`` prints, with exit 0 and no stderr."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    return out


def help_rows(text):
    """The help of each flag that a help text lists, by flag."""
    rows = {}
    for line in text.splitlines():
        if line.startswith("  -"):
            left, _, help_ = line.strip().partition("  ")
            rows[left.split()[0].rstrip(",")] = help_.strip()
    return rows


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_names_the_default_of_the_command(command, capsys):
    """``<command> --help`` lists each flag the command reads, in
    ``OPTIONS`` order, then ``--config`` and ``-h``; each option's help
    is its ``Option.help``, then its choices, then the default this
    command resolves, from ``Command.defaults`` or else
    ``Option.default``, unless that is None or a bool; no help in
    ``OPTIONS`` states a default as literal text.  ``-h``, and ``--help``
    after other flags, print the same text."""
    spec = cli.COMMANDS[command]
    text = help_text(capsys, command, "--help")
    assert text.startswith(f"usage: wcavity {command} [--flag value ...]\n\n{spec.help}\n")
    assert help_text(capsys, command, "-h") == text
    assert help_text(capsys, command, "--format", "csv", "--help") == text
    rows = help_rows(text)
    keys = [key for key in cli.OPTIONS if key in spec.options]
    assert list(rows) == [*(flag(key) for key in keys), "--config", "-h"]
    for key in keys:
        option = cli.OPTIONS[key]
        assert "(default " not in option.help, key
        want = option.help + (f": {', '.join(option.choices())}" if option.choices else "")
        default = spec.defaults.get(key, option.default)
        if default is not None and not isinstance(default, bool):
            want += f" (default {default})"
        assert rows[flag(key)] == want


def test_help_lists_the_commands(capsys):
    text = help_text(capsys, "--help")
    assert help_text(capsys, "-h") == text
    assert text.startswith("usage: wcavity <command> [--flag value ...]\n")
    for name, spec in cli.COMMANDS.items():
        assert f"  {name} " in text and f" {spec.help}\n" in text


def test_a_sweep_parameter_is_one_entry_of_the_table(capsys, monkeypatch):
    """A parameter added as one ``protocol.SWEEPS`` entry, with its
    ``protocol.<name>_sweep`` and no other edit, is a choice of ``sweep
    --help``, is refused an option it does not read, with the entry's
    reason, and writes its CSV: here the interaction time as a fraction
    x of t*, whose fidelity is sin^2(x pi / 2)."""
    monkeypatch.setitem(protocol.SWEEPS, "time-fraction", {
        "unread": {"seed": "a toy reason", "trials": "a toy reason"},
        "grid": lambda n: (0.0, 0.5, 1.0),
        "point": lambda x, t_star, epsilon: (x * t_star, 0.0),
    })
    monkeypatch.setattr(protocol, "time_fraction_sweep", raising=False,
                        value=lambda n, epsilon, grid: protocol._evolved_sweep(
                            "time-fraction", n, epsilon, grid))
    assert help_rows(help_text(capsys, "sweep", "--help"))["--parameter"] == (
        "swept quantity: coupling-disorder, detuning, mode-count, time-fraction, timing-error "
        "(default timing-error)")
    code, _, err = run_cli(capsys, "sweep", "--parameter", "time-fraction", "--seed", "1",
                           "--out", "-")
    assert (code, err) == (2, "error: --seed is not read by --parameter time-fraction "
                              "(a toy reason)\n")
    code, out, err = run_cli(capsys, "sweep", "--n", "4", "--parameter", "time-fraction",
                             "--out", "-")
    assert code == 0, err
    config = echoed_config(out)
    assert (config["parameter"], config["grid"]) == ("time-fraction", [0.0, 0.5, 1.0])
    assert "seed" not in config and "trials" not in config
    rows = sweep_rows(out)
    assert [row[0] for row in rows] == [0.0, 0.5, 1.0]
    for x, *fids in rows:
        assert fids == pytest.approx([math.sin(x * math.pi / 2) ** 2] * 3, abs=1e-11), x


@pytest.mark.parametrize("command", sorted(READS))
def test_flags_file_keys_and_echo_name_the_same_options(command, tmp_path):
    """The flags ``read_config`` reads, the flags the help lists, the config
    file keys and the echoed config are the same options."""
    flags = set()
    for key, value in SAMPLE.items():
        try:
            read_config([command, flag(key), *([] if value is None else [value])])
        except ValueError as exc:  # a flag read may still be refused later
            if str(exc) == f"{command} reads no flag {flag(key)!r}":
                continue
        flags.add(key)
    listed = set(help_rows(cli._help(command)))
    assert listed == {flag(key) for key in flags} | {"--config", "-h"}

    # the disorder sweep is the one that reads every sweep key, and
    # validate reads --format only for an --out file
    required = {"sweep": ["--out", str(tmp_path / "x.csv"), "--parameter", "coupling-disorder"],
                "validate": ["--out", str(tmp_path / "v.json")]}.get(command, [])
    file_keys = set()
    for key, value in SAMPLE.items():
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{key} = {'true' if value is None else value}\n")
        try:
            read_config([command, "--config", str(cfg), *required])
        except ValueError as exc:
            assert "unknown config file keys" in str(exc)
        else:
            file_keys.add(key)

    out = tmp_path / "report.json"
    extra = ["--grid", "0", "--parameter", "coupling-disorder"] if command == "sweep" else []
    assert main([command, "--format", "json", "--out", str(out), *extra]) == 0
    echo = json.loads(out.read_text())["config"]
    assert echo.pop("command") == command
    echoed = set(echo)

    assert flags == file_keys == echoed == READS[command]


@pytest.mark.parametrize("command,key", REMOVED)
def test_unread_option_is_refused(command, key, capsys, tmp_path):
    out = tmp_path / "x.out"
    value = [] if SAMPLE[key] is None else [SAMPLE[key]]
    code, stdout, err = run_cli(capsys, command, flag(key), *value, "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: {command} reads no flag '{flag(key)}'\n")
    assert not out.exists()

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {'true' if SAMPLE[key] is None else SAMPLE[key]}\n")
    code, stdout, err = run_cli(capsys, command, "--config", str(cfg), "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert f"unknown config file keys: ['{key}']" in err
    assert not out.exists()


# each flag that takes a value, by subcommand
DOUBLE_DASH = [(command, name) for command in sorted(READS)
               for name in [*(flag(key) for key in sorted(READS[command])
                              if SAMPLE[key] is not None), "--config"]]
# the reason each option whose type refuses the value -- gives
NOT_INT, NOT_FLOAT = ("invalid literal for int() with base 10: '--'",
                      "could not convert string to float: '--'")
REASONS = {"--n": NOT_INT, "--seed": NOT_INT, "--trials": NOT_INT,
           "--epsilon": NOT_FLOAT, "--time": NOT_FLOAT, "--grid": NOT_FLOAT}


@pytest.mark.parametrize("command,name", DOUBLE_DASH)
def test_a_double_dash_flag_value_is_read_as_given(command, name, capsys, tmp_path, monkeypatch):
    """``--<flag>=--`` has the value ``--``: ``--out`` and ``--config``
    name the path ``--``, ``--format`` and ``--parameter`` refuse an
    unknown choice, and every other option refuses it by its type, as
    ``--<flag>: <reason>``."""
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command, f"{name}=--")
    written = sorted(path.name for path in tmp_path.iterdir())
    if name == "--out":
        assert (code, err) == (0, "")
        assert written == (["--", "--.meta.json"] if command == "sweep" else ["--"])
        assert (out == "") is (command != "validate")
        return
    if name == "--config":
        assert err == "error: [Errno 2] No such file or directory: '--'\n"
    elif name in ("--format", "--parameter"):
        assert err == f"error: unknown {name[2:]} '--'\n"
    else:
        assert err == f"error: {name}: {REASONS[name]}\n"
    assert (code, out, written) == (2, "", [])


@pytest.mark.parametrize("command,key", [
    ("simulate", "epsilon"), ("simulate", "time"), ("sweep", "epsilon"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_non_finite_epsilon_and_time_are_refused(command, key, value, source, capsys, tmp_path):
    out, cfg = tmp_path / "x.out", tmp_path / "run.cfg"
    if source == "flag":
        argv, where = [f"{flag(key)}={value}"], ""
    else:
        cfg.write_text(f"{key} = {value}\n")
        argv, where = ["--config", str(cfg)], f"{cfg}:1: key '{key}': "
    code, stdout, err = run_cli(capsys, command, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith(f"error: {where}{flag(key)} must be finite")
    assert not out.exists()


def test_validate_csv_reads_back_as_its_checks_table(capsys, tmp_path):
    out = tmp_path / "v.csv"
    code, _, err = run_cli(capsys, "validate", "--format", "csv", "--out", str(out))
    assert code == 0, err
    with out.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
    assert rows[0] == ["name", "passed", "measured", "tolerance", "cases"]
    assert len(rows) == 8 and all(len(r) == 5 and r[1] == "True" for r in rows[1:])


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


def test_sweep_leaves_no_partial_output_when_a_line_fails(capsys, tmp_path, monkeypatch):
    """The CSV is written as its lines are made: a line that fails after
    the file is opened removes the file."""

    def failing_lines(config, results):
        yield "# first\n"
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_report_lines", failing_lines)
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "sweep", "--grid", "0", "--out", str(out))
    assert (code, err) == (2, "error: disk full\n")
    assert list(tmp_path.iterdir()) == []


def test_sweep_keeps_an_out_file_that_existed_when_the_sidecar_fails(capsys, tmp_path):
    """A failed write removes only the files its run created: an --out
    file that existed before holds the run's CSV and is left in place."""
    out = tmp_path / "x.csv"
    out.write_text("earlier\n")
    (tmp_path / "x.meta.json").mkdir()  # the sidecar path cannot be written
    code, _, err = run_cli(capsys, "sweep", "--grid", "0", "--out", str(out))
    assert code == 2
    assert err.startswith("error: ")
    assert out.read_text().startswith("# schema_version=4\n# config=")
    assert (tmp_path / "x.meta.json").is_dir()


def run_with_file_size_limit(argv, limit, cwd):
    """``main(argv)`` in a fresh process whose files may grow to ``limit``
    bytes: a write past it stops part-way and raises EFBIG."""
    code = (
        "import resource, signal, sys\n"
        "from wcavity.cli import main\n"
        "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
        "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
        f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, hard))\n"
        f"sys.exit(main({argv!r}))\n"
    )
    return subprocess.run([sys.executable, "-c", code], env=package_env(), cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_simulate_leaves_no_file_when_a_write_fails_part_way(tmp_path):
    proc = run_with_file_size_limit(["simulate", "--out", "report.json"], 10, tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: [Errno {errno.EFBIG}]")
    assert list(tmp_path.iterdir()) == []


def test_sweep_removes_the_csv_and_sidecar_it_created_when_the_sidecar_fails(
        capsys, tmp_path, monkeypatch):
    """The sidecar's write fails part-way, after the CSV is written: both
    files, created by the run, are removed."""
    opened = []

    def failing_open(path, mode, **kwargs):
        handle = open(path, mode, **kwargs)
        opened.append(Path(path).name)
        if Path(path).suffixes == [".meta", ".json"]:
            def writelines(lines):
                handle.write("{")
                handle.flush()
                raise OSError(errno.EFBIG, "File too large")
            handle.writelines = writelines
        return handle

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    code, _, err = run_cli(capsys, "sweep", "--grid", "0", "--out", str(tmp_path / "x.csv"))
    assert (code, err) == (2, f"error: [Errno {errno.EFBIG}] File too large\n")
    assert opened == ["x.csv", "x.meta.json"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("parameter", PARAMETERS)
def test_a_sweep_is_admitted_by_one_require_grid_call(parameter, capsys, monkeypatch):
    """The CLI leaves the admission of a sweep to the sweep, which calls
    ``protocol.require_grid`` once."""
    from wcavity import protocol

    calls = []
    real = protocol.require_grid

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(protocol, "require_grid", counting)
    args = ["sweep", "--parameter", parameter, "--out", "-"]
    args += [] if parameter == "mode-count" else ["--n", "2"]
    code, _, err = run_cli(capsys, *args)
    assert code == 0, err
    assert calls == [parameter]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_sweep_to_a_fifo_writes_no_sidecar(capsys, tmp_path):
    """An --out that exists and is no regular file (a FIFO, a device) is
    written as stdout is: the CSV alone, whose comment lines carry the
    schema version and the config, and no sidecar beside it."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    args = ["sweep", "--parameter", "mode-count", "--grid", "1,2"]
    code, stdout, err = run_cli(capsys, *args, "--out", str(fifo))
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert (code, stdout, err) == (0, "", "")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pipe"]
    code, stdout, _ = run_cli(capsys, *args, "--out", "-")
    assert code == 0
    assert received == [stdout.replace('"out": "-"', f'"out": "{fifo}"')]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_out_dash_writes_the_body_to_stdout_and_no_file(fmt, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["sweep", "--parameter", "coupling-disorder", "--grid", "0,0.05", "--trials", "5",
            "--seed", "3", "--format", fmt]
    code, stdout, err = run_cli(capsys, *args, "--out", "-")
    assert code == 0, err
    assert list(tmp_path.iterdir()) == []

    assert run_cli(capsys, *args, "--out", "file")[0] == 0
    written = (tmp_path / "file").read_text()
    # the two differ only in the echoed --out
    assert stdout.replace('"out": "-"', '"out": "file"') == written


def test_mode_count_sweep_refuses_n(capsys, tmp_path):
    out = tmp_path / "m.csv"
    args = ["sweep", "--parameter", "mode-count", "--grid", "1,2", "--out", str(out)]
    code, stdout, err = run_cli(capsys, *args, "--n", "5")
    assert code == 2
    assert stdout == ""
    assert "--n is not read by --parameter mode-count" in err
    assert not out.exists()

    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 5\n")
    code, _, err = run_cli(capsys, *args, "--config", str(cfg))
    assert code == 2
    assert "--n is not read" in err
    assert not out.exists()

    assert run_cli(capsys, *args)[0] == 0
    config = echoed_config(out.read_text())
    assert "n" not in config
    assert config["parameter"] == "mode-count"


@pytest.mark.parametrize("parameter", ["timing-error", "detuning", "mode-count"])
@pytest.mark.parametrize("key", ["trials", "seed"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_sweep_refuses_trials_and_seed_it_never_reads(parameter, key, source, capsys, tmp_path):
    """Only the disorder sweep draws random trials; elsewhere a given
    --trials or --seed would be echoed into the CSV without being used."""
    out, cfg = tmp_path / "x.csv", tmp_path / "run.cfg"
    args = ["sweep", "--parameter", parameter, "--grid", "1", "--out", str(out)]
    if source == "flag":
        given, where = [flag(key), "7"], ""
    else:
        cfg.write_text(f"{key} = 7\n")
        given, where = ["--config", str(cfg)], f"{cfg}:1: key '{key}': "
    code, stdout, err = run_cli(capsys, *args, *given)
    assert (code, stdout) == (2, "")
    assert err == (f"error: {where}{flag(key)} is not read by --parameter {parameter} "
                   "(only coupling-disorder draws random trials)\n")
    assert not out.exists()

    # not given, it is not echoed
    assert run_cli(capsys, *args)[0] == 0
    assert key not in echoed_config(out.read_text())


# the arguments and the result keys of each command's report
REPORTS = {
    "simulate": (["--n", "3"], {"t", "fidelity_W", "closed_vs_numeric_gap"}),
    "sweep": (["--parameter", "coupling-disorder", "--n", "3", "--grid", "0,0.05", "--trials",
               "5", "--seed", "3"], {"rows"}),
    "entanglement": (["--n", "3"], {"rows"}),
    "validate": (["--seed", "7"], {"checks"}),
}


def keys_under(value):
    """Every dict key and NamedTuple-row field name under ``value``."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield key
            yield from keys_under(inner)
    elif isinstance(value, list):
        for inner in value:
            yield from keys_under(inner)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(REPORTS))
def test_every_report_writes_each_input_once(command, fmt, capsys, tmp_path):
    """Every command writes one layout, ``{"schema_version", "config",
    <results>}``: the top-level keys are exactly those, no key of the
    config is written outside it, and a rerun writes the same bytes.  A
    sweep's CSV file has a sidecar of the schema version and the
    timestamp, the two values a rerun does not reproduce, and of no
    other value."""
    argv, results = REPORTS[command]
    out = tmp_path / f"report.{fmt}"
    argv = [command, *argv, "--format", fmt, "--out", str(out)]
    assert run_cli(capsys, *argv)[0] == 0
    first = out.read_bytes()
    assert run_cli(capsys, *argv)[0] == 0
    assert out.read_bytes() == first

    text = first.decode()
    if fmt == "json":
        report = json.loads(text)
        assert list(report)[:2] == ["schema_version", "config"]
        assert set(report) == {"schema_version", "config"} | results
        config = report.pop("config")
        written = set(keys_under(report))
    else:
        lines = text.splitlines()
        assert [line for line in lines if line.startswith("#")] == lines[:2]
        assert lines[0] == "# schema_version=4"
        config = echoed_config(text)
        # the key of each key,value line and each table's header fields
        written = {cell for line in lines[2:] for cell in line.split(",")}
    assert config["command"] == command
    assert not written & set(config), written & set(config)

    sidecar = tmp_path / "report.meta.json"
    assert sorted(tmp_path.iterdir()) == sorted(
        [out, sidecar] if (command, fmt) == ("sweep", "csv") else [out])
    if sidecar.exists():
        stamp = json.loads(sidecar.read_text())
        assert list(stamp) == ["schema_version", "timestamp"] and stamp["schema_version"] == "4"


# REPORTS, and simulate with its dumped state
SHAPES = {**{command: argv for command, (argv, _) in REPORTS.items()},
          "simulate --dump-state": ["--n", "3", "--dump-state"]}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(SHAPES))
def test_every_report_is_its_scalars_and_tables(case, fmt, capsys, tmp_path):
    """Every result is a scalar, a number, or a table, a list of flat row
    objects with one set of keys.  As CSV the report writes each scalar as
    a ``key,value`` line of the JSON value, in the JSON order, and then each
    table under a header of its JSON row keys, one line per row.  No
    result repeats the config or another result: none is named ``t_star``,
    ``state`` or ``summary``."""
    command, *_ = case.split()
    argv = [command, *SHAPES[case], "--format", "json", "--out", str(tmp_path / "r.json")]
    assert run_cli(capsys, *argv)[0] == 0
    report = json.loads((tmp_path / "r.json").read_text())
    results = {k: v for k, v in report.items() if k not in ("schema_version", "config")}
    assert not {"t_star", "state", "summary"} & set(results)
    scalars = {k: v for k, v in results.items() if not isinstance(v, list)}
    tables = {k: v for k, v in results.items() if isinstance(v, list)}
    for value in scalars.values():
        assert isinstance(value, (int, float)) and not isinstance(value, bool), value
    for rows in tables.values():
        assert rows and all(isinstance(row, dict) and list(row) == list(rows[0]) for row in rows)
        assert not any(isinstance(cell, dict) for row in rows for cell in row.values())
    if fmt == "json":
        return

    argv[argv.index("json")] = "csv"
    argv[-1] = str(tmp_path / "r.csv")
    assert run_cli(capsys, *argv)[0] == 0
    lines = (tmp_path / "r.csv").read_text().splitlines()[2:]
    for (key, value), line in zip(scalars.items(), lines):
        name, cell = line.split(",")
        assert name == key and float(cell) == value, line
    lines = lines[len(scalars):]
    for key, rows in tables.items():
        assert lines[0] == ",".join(rows[0]), key
        assert all(len(line.split(",")) == len(rows[0]) for line in lines[1:len(rows) + 1])
        lines = lines[len(rows) + 1:]
    assert lines == []


GOLDEN_DIR = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, n, fmt", [
    ("entanglement_n4.csv", 4, "csv"),
    ("entanglement_n10.json", 10, "json"),
])
def test_entanglement_report_matches_golden_bytes(name, n, fmt, capsys):
    """The files under tests/data were written at schema version 4; every
    value in them is the one the version that reduced one mode pair per
    call wrote, and the sector route reproduces that version's numbers."""
    code, out, err = run_cli(capsys, "entanglement", "--n", str(n), "--format", fmt, "--out", "-")
    assert code == 0, err
    assert out.encode() == (GOLDEN_DIR / name).read_bytes()


def test_entanglement_admits_by_its_amplitude_count(capsys):
    """The size rule charges entanglement N + 2 amplitudes per mode pair
    (it builds the N + 2 support amplitudes of W and of GHZ once and
    scores every pair from them), so N = 127, 8001 pairs of 129 amplitudes, is the largest N
    within MAX_AMPLITUDES: it runs, with the W law (pair concurrence 2/N) and no
    GHZ pair entanglement, and N = 128 exits 2."""
    code, out, err = run_cli(capsys, "entanglement", "--n", "127", "--out", "-")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert len(rows) == 127 * 126 // 2
    assert all(abs(row["concurrence_w"] - 2 / 127) <= 1e-12 for row in rows)
    assert all(row["concurrence_ghz"] == 0 for row in rows)
    code, out, err = run_cli(capsys, "entanglement", "--n", "128")
    assert (code, out) == (2, "")
    assert err == f"error: {ENTANGLEMENT_REFUSAL}\n"


@pytest.fixture
def basis_builds(monkeypatch):
    """The names of the basis builders called, through any module binding."""
    from wcavity import entanglement, fock

    calls = []
    for name, real in (("build_basis", fock.build_basis),
                       ("support_basis", entanglement.support_basis)):
        def recording(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        for module in [m for k, m in sys.modules.items() if k.startswith("wcavity.")]:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, recording)
    return calls


ENTANGLEMENT_REFUSAL = ("entanglement too large: its size is 8128 points x 130 amplitudes "
                        "= 1056640, above the limit of 1048576")
EPSILON_OVERFLOW = "--epsilon {} is too large: N * epsilon^2 overflows at N = {}"
T_STAR_INFINITE = "epsilon {} is too small: t* = pi / (2 sqrt(N) epsilon) is inf at N = {}"
T_STAR_ZERO = "epsilon {} is too large: t* = pi / (2 sqrt(N) epsilon) is 0.0 at N = {}"
ANGLE = "{} is too large for --epsilon {}: the angle sqrt(Omega^2 + detuning^2 / 4) t is not finite"


def zeros(k: int) -> str:
    return ",".join(["0"] * k)


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--n", "1023"], "--n 1023 is above the limit of 1022 modes"),
    (["entanglement", "--n", "128"], ENTANGLEMENT_REFUSAL),
    (["entanglement", "--n", "1"], "entanglement comparison needs --n >= 2"),
    (["sweep", "--n", "16000", "--parameter", "detuning"],
     "--n 16000 is above the limit of 1022 modes"),
    (["sweep", "--parameter", "mode-count", "--grid", "1,20000"],
     "--grid entry 20000.0 is above the limit of 1022 modes"),
    (["sweep", "--n", "3", "--parameter", "coupling-disorder", "--trials", "300000"],
     "sweep too large: its size is 3300000 points x 5 amplitudes = 16500000, "
     "above the limit of 1048576"),
    (["sweep", "--n", "3", "--parameter", "detuning", "--grid", zeros(209716)],
     "sweep too large: its size is 209716 points x 5 amplitudes = 1048580, "
     "above the limit of 1048576"),
    (["sweep", "--n", "3", "--parameter", "coupling-disorder", "--trials", "19066"],
     "sweep too large: its size is 209726 points x 5 amplitudes = 1048630, "
     "above the limit of 1048576"),
    (["sweep", "--n", "1023", "--parameter", "coupling-disorder", "--grid", "0", "--trials", "1"],
     "--n 1023 is above the limit of 1022 modes"),
    (["simulate", "--n", "3", "--epsilon", "1e-320"], T_STAR_INFINITE.format("1e-320", 3)),
    (["simulate", "--n", "3", "--epsilon", "5e-309"], T_STAR_INFINITE.format("5e-309", 3)),
    (["simulate", "--n", "3", "--epsilon", "1e308"], T_STAR_ZERO.format("1e+308", 3)),
    (["simulate", "--n", "3", "--time", "1e300", "--epsilon", "1e-10"],
     ANGLE.format("--time 1e+300", "1e-10")),
    (["simulate", "--n", "3", "--time", "1.7e308"], ANGLE.format("--time 1.7e+308", "1.0")),
    (["sweep", "--n", "3", "--parameter", "coupling-disorder", "--epsilon", "5.04e-309"],
     T_STAR_INFINITE.format("5.04e-309", 3)),
    (["sweep", "--n", "3", "--parameter", "coupling-disorder", "--epsilon", "1e160"],
     EPSILON_OVERFLOW.format("1e+160", 3)),
    (["sweep", "--parameter", "mode-count", "--grid", "1,40", "--epsilon", "2.13e307"],
     T_STAR_ZERO.format("2.13e+307", 40)),
    (["sweep", "--n", "3", "--epsilon", "1e-320"], T_STAR_INFINITE.format("1e-320", 3)),
    (["sweep", "--n", "3", "--parameter", "detuning", "--epsilon", "1e-320"],
     T_STAR_INFINITE.format("1e-320", 3)),
    (["sweep", "--n", "4", "--parameter", "timing-error", "--epsilon", "1e308", "--grid", "0"],
     T_STAR_ZERO.format("1e+308", 4)),
    (["sweep", "--n", "4", "--parameter", "detuning", "--epsilon", "1e308", "--grid", "0"],
     T_STAR_ZERO.format("1e+308", 4)),
    (["sweep", "--n", "3", "--grid", "0,1e300", "--epsilon", "1e-10"],
     ANGLE.format("--grid entry 1e+300", "1e-10")),
    (["sweep", "--n", "3", "--grid", "1.7e308"], ANGLE.format("--grid entry 1.7e+308", "1.0")),
    (["sweep", "--n", "3", "--epsilon", "5.1e-309"],
     ANGLE.format("default grid entry 0.01813799364234217", "5.1e-309")),
    (["sweep", "--n", "3", "--parameter", "detuning", "--grid", "1e300", "--epsilon", "1e10"],
     ANGLE.format("--grid entry 1e+300", "10000000000.0")),
], ids=["simulate", "entanglement", "entanglement-one-mode", "sweep-detuning", "sweep-mode-count",
        "sweep-trials", "sweep-detuning-long-grid", "sweep-disorder-trials-grid",
        "sweep-disorder-modes", "simulate-epsilon-underflow", "simulate-epsilon-subnormal",
        "simulate-epsilon-overflow", "simulate-time-overflow", "simulate-time-angle",
        "sweep-disorder-epsilon-underflow", "sweep-disorder-epsilon-overflow",
        "sweep-mode-count-epsilon-overflow", "sweep-timing-epsilon-underflow",
        "sweep-detuning-epsilon-underflow", "sweep-timing-epsilon-overflow",
        "sweep-detuning-epsilon-overflow", "sweep-timing-grid-overflow",
        "sweep-timing-grid-angle", "sweep-timing-default-grid-overflow",
        "sweep-detuning-grid-overflow"])
@pytest.mark.filterwarnings("error")  # a refused input leaks no numpy warning either
def test_refused_input_exits_two_before_any_basis_is_built(argv, message, basis_builds,
                                                          capsys, tmp_path):
    out = tmp_path / "x.out"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert basis_builds == []
    assert not out.exists()

    # no CLI route builds a basis; a library route that builds
    # one through another module's binding shows that the fixture sees it
    evolve_closed_form((1.0,) * 3, 1.0)
    assert basis_builds == ["build_basis"]


def admit(case):
    """Admit ``case``: a ``simulate`` or ``entanglement`` argv by ``main``,
    which runs it (ValueError with its message if it exits 2), and a sweep,
    given as the arguments of ``protocol.require_grid``, by that call, the
    only one that admits it."""
    if isinstance(case, tuple):
        return require_grid(*case)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*case, "--out", os.devnull])
    if code == 2:
        raise ValueError(err.getvalue().removeprefix("error: "))
    assert (code, err.getvalue()) == (0, "")


@pytest.mark.parametrize("largest, args", [
    (MAX_MODES, lambda k: ["simulate", "--n", str(k)]),
    # 8001 mode pairs of 129 amplitudes
    (127, lambda k: ["entanglement", "--n", str(k)]),
    (MAX_MODES, lambda k: ("timing-error", (0.0,), k, 1.0)),
    # the amplitudes of N = 3, 5 per grid entry, trial and mode count of 1
    (209715, lambda k: ("timing-error", (0.0,) * k, 3, 1.0)),
    (209715, lambda k: ("detuning", (0.0,) * k, 3, 1.0)),
    (349525, lambda k: ("mode-count", (1.0,) * k, None, 1.0)),
    # on the 11-entry default grid
    (19065, lambda k: ("coupling-disorder", None, 3, 1.0, k)),
], ids=["simulate", "entanglement", "timing-error", "timing-error-grid", "detuning", "mode-count",
        "coupling-disorder"])
def test_sweep_admission_bound(largest, args):
    """The largest input of each route that the size rule admits, and the
    next one refused: at most MAX_MODES modes and MAX_AMPLITUDES
    amplitudes."""
    admit(args(largest))
    with pytest.raises(ValueError, match="above the limit of"):
        admit(args(largest + 1))


@pytest.mark.parametrize("argv, amplitudes", [
    (["simulate", "--n", "1022"], 1024),
    (["entanglement", "--n", "32"], 496 * 34),
    (["sweep", "--parameter", "timing-error", "--n", "254", "--grid", zeros(64)], 64 * 256),
    (["sweep", "--parameter", "detuning", "--n", "254", "--grid", zeros(64)], 64 * 256),
    (["sweep", "--parameter", "mode-count", "--grid", ",".join(["254"] * 64)], 64 * 256),
    (["sweep", "--parameter", "coupling-disorder", "--n", "254", "--grid", "0", "--trials", "64"],
     64 * 256),
], ids=["simulate", "entanglement", "timing-error", "detuning", "mode-count",
        "coupling-disorder"])
def test_peak_memory_is_a_few_times_the_largest_array(argv, amplitudes, capsys):
    """The traced peak of main stays within 512 bytes per amplitude the
    size rule charges: a CPython complex amplitude in a list takes 40
    bytes, and ``simulate`` holds about three sequences of N + 2 numbers
    at its peak (the record's beta, and the closed and the evolved
    amplitudes).  Each size charges at least
    1024 amplitudes, so that the fixed cost of a call stays a small
    part."""
    tracemalloc.start()
    try:
        code = main([*argv, "--out", "-"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    assert 1024 <= amplitudes <= MAX_AMPLITUDES
    assert peak <= 512 * amplitudes


# a disorder sweep's trials: the CLI's default
DISORDER_TRIALS = 100


@pytest.mark.parametrize("admitted, refused", [
    # t* = pi / (2 sqrt(N) epsilon) against the largest double
    (["simulate", "--epsilon", "5.05e-309"], ["simulate", "--epsilon", "5.04e-309"]),
    (("coupling-disorder", None, 3, 5.05e-309, DISORDER_TRIALS),
     ("coupling-disorder", None, 3, 5.04e-309, DISORDER_TRIALS)),
    # 2 sqrt(N) epsilon, the denominator of t*, against the largest double
    (["simulate", "--n", "3", "--epsilon", "5.18e307"], ["simulate", "--n", "3", "--epsilon", "5.19e307"]),
    (["simulate", "--n", "13", "--epsilon", "2.49e307"], ["simulate", "--n", "13", "--epsilon", "2.5e307"]),
    (("mode-count", (1.0, 39.0), None, 1.43e307), ("mode-count", (1.0, 40.0), None, 1.43e307)),
    # the angle Omega t = sqrt(3) time
    (["simulate", "--time", "1.03e308"], ["simulate", "--time", "1.04e308"]),
    # the timing-error and detuning sweeps: t* = pi / (2 sqrt(3) epsilon),
    # the angle Omega (t* + x / epsilon) and the detuning x * epsilon
    (("timing-error", (0.0,), 3, 5.05e-309), ("timing-error", (0.0,), 3, 5.04e-309)),
    (("detuning", (0.0,), 3, 5.05e-309), ("detuning", (0.0,), 3, 5.04e-309)),
    (("timing-error", (1.03e308,), 3, 1.0), ("timing-error", (1.04e308,), 3, 1.0)),
    (("detuning", (1.79e298,), 3, 1e10), ("detuning", (1.8e298,), 3, 1e10)),
    # the disorder sweep's largest coupling, epsilon (1 + 14 sigma), in
    # N (epsilon (1 + 14 sigma))^2 against the largest double
    (("coupling-disorder", (5.52e152,), 3, 1.0, DISORDER_TRIALS),
     ("coupling-disorder", (5.53e152,), 3, 1.0, DISORDER_TRIALS)),
], ids=["simulate-small", "disorder-small", "simulate-large", "simulate-13-large",
        "mode-count-large", "time", "timing-epsilon", "detuning-epsilon", "timing-grid",
        "detuning-grid", "disorder-grid"])
def test_closed_form_range_bound(admitted, refused):
    """The range rule admits the first input and refuses the second: t*,
    each angle and detuning of the sector routes, and the largest drawn
    coupling's sum of squares for the coupling-disorder sweep, as finite
    doubles."""
    admit(admitted)
    with pytest.raises(ValueError,
                       match="^(epsilon|--epsilon|--time|--grid) .* is too (small|large)"):
        admit(refused)


@pytest.mark.parametrize("epsilon, parameter", [
    *((epsilon, parameter) for epsilon in ("1e-170", "1e160")
      for parameter in ("timing-error", "detuning", "mode-count", "simulate")),
    ("1e-170", "coupling-disorder"),
])
def test_sweeps_off_the_closed_form_admit_any_epsilon(parameter, epsilon, capsys):
    """Simulate and the sweeps run on sector, whose Omega, ``_norm`` of the
    couplings, scales them by a power of two where their squares leave the
    normal doubles, and reach the W state.  Only the coupling-disorder
    sweep keeps a range of epsilon^2, its upper one: N epsilon^2 finite."""
    if parameter == "simulate":
        report = run_json(capsys, "simulate", "--n", "3", "--epsilon", epsilon)
        assert report["fidelity_W"] == 1.0
        return
    grid = ["--grid", "3"] if parameter == "mode-count" else ["--n", "3", "--grid", "0"]
    code, out, err = run_cli(capsys, "sweep", "--parameter", parameter, *grid,
                             "--epsilon", epsilon, "--out", "-")
    assert code == 0, err
    assert out.splitlines()[-1] == f"{grid[-1]},1,1,1"


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "9", "--dump-state"],
    ["simulate", "--n", "3", "--epsilon", "1e160", "--format", "csv"],
    ["simulate", "--epsilon", "5.05e-309", "--time", "0.7"],
    ["entanglement", "--n", "5"],
    ["sweep", "--n", "3", "--out", "-"],
    ["sweep", "--n", "3", "--parameter", "detuning", "--grid=-0.5,1e300,1.7976931348623157e308",
     "--out", "-"],
    ["sweep", "--parameter", "mode-count", "--grid", "1,2,3,1022", "--out", "-"],
    ["sweep", "--parameter", "coupling-disorder", "--n", "3", "--trials", "20", "--out", "-"],
], ids=["simulate", "simulate-large", "simulate-small", "entanglement", "timing-error",
        "detuning", "mode-count", "coupling-disorder"])
def test_outputs_do_not_depend_on_math_hypot(argv, capsys, monkeypatch):
    """``sector`` rounds by IEEE operations and ``math.fsum`` alone, so
    ``math.hypot``, whose rounding changed in Python 3.12, moves no byte:
    simulate, entanglement and the four sweeps write the same bytes with
    it raising."""
    want = run_cli(capsys, *argv)
    assert want[0] == 0, want[2]

    def hypot(*args):
        raise AssertionError(f"math.hypot{args} called")

    monkeypatch.setattr(math, "hypot", hypot)
    assert run_cli(capsys, *argv) == want


@pytest.mark.parametrize("dump", [False, True], ids=["report", "dump-state"])
def test_simulate_never_enumerates_the_uncapped_basis(dump, basis_builds, capsys):
    """simulate evolves and dumps the N + 2 state sector as a list of
    amplitudes, without building any basis."""
    argv = ["simulate", "--n", "13"] + (["--dump-state"] if dump else [])
    report = run_json(capsys, *argv)
    assert basis_builds == []
    if dump:
        assert len(report["amplitudes"]) == 15


_SECTOR_MODULES = {"wcavity", "wcavity.cli", "wcavity.sector"}
_SECTOR_SWEEP_MODULES = _SECTOR_MODULES | {"wcavity.protocol"}


@pytest.mark.parametrize("argv, modules", [
    (["simulate", "--n", "3", "--out", "report.json"], _SECTOR_MODULES),
    (["entanglement", "--n", "4", "--out", "report.json"], _SECTOR_MODULES),
    (["validate", "--out", "report.json"],
     _SECTOR_MODULES | {"wcavity.normals", "wcavity.validation"}),
    # the default parameter, timing-error
    (["sweep", "--n", "3", "--out", "sweep.csv"], _SECTOR_SWEEP_MODULES),
    (["sweep", "--n", "3", "--parameter", "detuning", "--out", "sweep.csv"],
     _SECTOR_SWEEP_MODULES),
    (["sweep", "--parameter", "mode-count", "--out", "sweep.csv"], _SECTOR_SWEEP_MODULES),
    (["sweep", "--n", "3", "--parameter", "coupling-disorder", "--out", "sweep.csv"],
     _SECTOR_SWEEP_MODULES | {"wcavity.normals"}),
], ids=["simulate", "entanglement", "validate", "sweep", "sweep-detuning", "sweep-mode-count",
        "sweep-coupling-disorder"])
def test_a_fresh_process_loads_only_its_subcommand_modules(argv, modules, tmp_path):
    """``python -m wcavity <subcommand>`` in a fresh process: after ``main``
    returns, the package modules loaded are exactly those the subcommand
    runs, ``dataclasses`` is not loaded (it costs milliseconds of import
    and class generation per process), nor argparse and the gettext and
    locale it loads (the command line is well formed), and no subcommand
    loads numpy."""
    code = (
        "import json, runpy, sys\n"
        f"sys.argv = ['wcavity', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('wcavity', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m.split('.')[0] == 'wcavity'),\n"
        "                  'dataclasses' in sys.modules, 'numpy' in sys.modules,\n"
        "                  [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, loaded, dataclasses_loaded, numpy_loaded, parser_modules = json.loads(
        proc.stdout.splitlines()[-1])
    assert status == 0
    assert set(loaded) == modules
    assert not dataclasses_loaded
    assert parser_modules == []
    assert not numpy_loaded


@pytest.mark.parametrize("argv, status", [
    (["--help"], 0), (["simulate", "--help"], 0), (["entanglement", "--help"], 0),
    (["validate", "--help"], 0), (["sweep", "--help"], 0), (["simulate", "--nmax", "2"], 2),
    (["simulate", "--n", "2", "--time", "-2.5"], 0),
    (["sweep", "--n", "3", "--grid", "-0.1,0", "--out", "-"], 0),
], ids=["help", "simulate-help", "entanglement-help", "validate-help", "sweep-help",
        "simulate-nmax", "simulate-negative-time", "sweep-negative-grid"])
def test_help_and_usage_errors_load_no_parser_module(argv, status, tmp_path):
    """Help, a usage error and a negative separate value are read from the
    option tables too, in a fresh process: argparse and the gettext and
    locale it loads stay unloaded.  ``wcavity.protocol`` is loaded by a
    sweep alone, ``sweep --help`` too, whose ``--parameter`` choices are
    the keys of ``protocol.SWEEPS``: no other command's help loads it."""
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['wcavity', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('wcavity', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules],\n"
        "          'wcavity.protocol' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == f"{status} [] {argv[0] == 'sweep'}", proc.stderr


def test_cli_import_leaves_numpy_unloaded():
    code = ("import sys, wcavity.cli; assert 'numpy' not in sys.modules, 'numpy loaded'; "
            "assert 'wcavity.normals' not in sys.modules, 'normals loaded'")
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# each route by the golden file it writes (simulate and validate have none)
NO_NUMPY_ROUTES = {
    "simulate": ["simulate", "--n", "3", "--dump-state"],
    "entanglement_n4.csv": ["entanglement", "--n", "4", "--format", "csv", "--out", "-"],
    "entanglement_n10.json": ["entanglement", "--n", "10", "--out", "-"],
    "sweep_timing-error_n3.csv": ["sweep", "--n", "3", "--out", "-"],
    "sweep_detuning_n3.csv": ["sweep", "--n", "3", "--parameter", "detuning", "--out", "-"],
    "sweep_mode-count_n3.csv": ["sweep", "--parameter", "mode-count", "--out", "-"],
    "sweep_coupling-disorder-seed0_n3.csv":
        ["sweep", "--n", "3", "--parameter", "coupling-disorder", "--out", "-"],
    "sweep_coupling-disorder-seed42_n3.csv":
        ["sweep", "--n", "3", "--parameter", "coupling-disorder", "--seed", "42", "--out", "-"],
    "validate": ["validate"],
}


def test_runtime_runs_without_numpy(capsys):
    """With numpy blocked in a fresh process, every route exits 0 with the
    bytes it writes with numpy: those of its golden file (for a sweep, the
    CSV body below the ``# `` lines), and for simulate and validate those
    of this process."""
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from wcavity.cli import main\n"
        "results = {}\n"
        f"for name, argv in {NO_NUMPY_ROUTES!r}.items():\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        results[name] = [main(argv), out.getvalue(), err.getvalue()]\n"
        "print(json.dumps(results))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for name in ("simulate", "validate"):
        assert run_cli(capsys, *NO_NUMPY_ROUTES[name]) == tuple(results.pop(name)), name
    for name, (status, out, err) in results.items():
        assert (status, err) == (0, ""), name
        expected = (GOLDEN_DIR / name).read_text()
        if name.startswith("sweep_"):
            out, expected = ([line for line in text.splitlines() if not line.startswith("# ")]
                             for text in (out, expected))
        assert out == expected, name


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "3"],
    ["sweep", "--n", "3", "--grid", "0", "--out", "-"],
    ["entanglement", "--n", "3"],
    ["validate"],
], ids=["simulate", "sweep", "entanglement", "validate"])
def test_main_leaves_the_collector_unfrozen(argv, capsys):
    """Only the process entry freezes: ``main`` runs in callers' processes,
    which go on collecting."""
    before = gc.get_freeze_count()
    assert main(argv) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_process_entry_exits_with_the_code_of_main_and_freezes_after_it(code, monkeypatch):
    events = []

    def fake_main():
        events.append("main")
        return code

    monkeypatch.setattr("wcavity.cli.main", fake_main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        run()
    assert exc.value.code == code
    assert events == ["main", "freeze"]


# the child's program: the package entry, the entry of ``cli`` run as a
# script, or one that first injects the tests' fault (``sector.evolve``
# run to -t) and then runs the same entry
MODULE = ("-m", "wcavity")
CLI_MODULE = ("-m", "wcavity.cli")
FAULTY = ("-c", "import fault; fault.inject(); from wcavity import cli; cli.run()")


@pytest.mark.parametrize("program, argv", [
    (MODULE, ["simulate", "--n", "13", "--dump-state"]),
    # about 450 KB of CSV, far above a 64 KiB pipe buffer; the grid comes
    # from a file because one argv string is capped at 128 KiB on Linux
    (MODULE, ["sweep", "--n", "3", "--config", "long-grid.cfg", "--out", "-"]),
    (FAULTY, ["validate", "--seed", "7"]),
    (MODULE, ["sweep", "--parameter", "detuning", "--trials", "7", "--out", "-"]),
    (MODULE, ["simulate", "--epsilon", "1e-320"]),
    (CLI_MODULE, ["entanglement", "--n", "5", "--format", "csv"]),
    (CLI_MODULE, ["simulate", "--epsilon", "1e-320", "--time", "1"]),
], ids=["simulate-dump", "sweep-long-grid", "validate-fault", "sweep-refused",
        "simulate-refused-epsilon", "cli-module-entanglement", "cli-module-refused-epsilon"])
def test_a_fresh_process_writes_what_main_writes(program, argv, capsys, tmp_path, monkeypatch):
    """A fresh process through pipes: the same stdout and stderr bytes and
    the same exit code as ``main`` in process, with the fault injected in
    both for the failing validate (exit 1).  The child's stdout is
    block-buffered, as in a shell pipeline, so output still in the buffer
    at exit is checked too."""
    monkeypatch.chdir(tmp_path)
    grid = ",".join(repr(k / 4096) for k in range(-3000, 3000))
    (tmp_path / "long-grid.cfg").write_text(f"grid = {grid}\n")
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    if program is FAULTY:
        monkeypatch.setattr(sector, "evolve", fault.backwards(sector.evolve))
        env["PYTHONPATH"] += os.pathsep + str(Path(fault.__file__).parent)
    code, out, err = run_cli(capsys, *argv)
    assert program is not FAULTY or code == 1
    proc = subprocess.run([sys.executable, *program, *argv], env=env,
                          cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=120)
    assert proc.returncode == code
    assert proc.stderr == err.encode()
    assert proc.stdout == out.encode()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["simulate"],
    ["entanglement", "--n", "4"],
    ["validate"],
    ["sweep", "--n", "3", "--out", "-"],
    # about 290 KB of CSV: writelines itself fails, before the last flush
    ["sweep", "--parameter", "detuning", "--config", "long-grid.cfg", "--out", "-"],
], ids=["simulate", "entanglement", "validate", "sweep", "sweep-long-grid"])
def test_a_failed_write_to_stdout_exits_2(argv, tmp_path):
    """With stdout block-buffered on /dev/full, a failed write exits 2 with
    the error line, as a failed write to an --out file does; the
    interpreter's own flush at exit does not fail a second time."""
    grid = ",".join(repr(k / 1000) for k in range(5000))
    (tmp_path / "long-grid.cfg").write_text(f"grid = {grid}\n")
    env = package_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "wcavity", *argv], env=env, cwd=tmp_path,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")


# The one reader of the command line.  Each argv it reads, and the values
# of the config it gives other than its command's defaults (``DEFAULTS``);
# compared by repr, so that value types count.
ACCEPTED = [
    (["simulate"], {}),
    (["simulate", "--n", "3", "--epsilon=0.5", "--dump-state"],
     {"n": 3, "epsilon": 0.5, "dump_state": True}),
    # a repeated flag keeps its last value, in either form
    (["simulate", "--n", "3", "--n=4", "--time", "1", "--time", "2"], {"n": 4, "time": 2.0}),
    (["simulate", "--dump-state", "--dump-state"], {"dump_state": True}),
    # a value given with = is read as given
    (["simulate", "--out=--"], {"out": "--"}),
    (["simulate", "--out=--n=3"], {"out": "--n=3"}),
    (["simulate", "--n=03"], {"n": 3}),
    # a separate value is the next token unless it starts with --
    (["simulate", "--time", "-2.5"], {"time": -2.5}),
    (["simulate", "--time", "-0"], {"time": -0.0}),
    (["simulate", "--out", "-"], {"out": "-"}),
    (["simulate", "--out", "-x"], {"out": "-x"}),
    (["simulate", "--out", "-h"], {"out": "-h"}),
    (["simulate", "--out", "simulate"], {"out": "simulate"}),
    # the reader admits no route: simulate's N, t* and --time angle, a
    # sweep's grid and entanglement's size are the command's to refuse
    (["simulate", "--n", "2000", "--epsilon", "1e-320", "--time", "1e308"],
     {"n": 2000, "epsilon": 1e-320, "time": 1e308}),
    (["entanglement", "--n", "1"], {"n": 1}),
    (["sweep", "--grid", "-0.1,0", "--out", "-"], {"grid": (-0.1, 0.0)}),
    (["sweep", "--grid=-0.3,0", "--grid", " 0.2", "--out", "-"], {"grid": (0.2,)}),
    (["sweep", "--grid", ",", "--parameter", "coupling-disorder", "--trials", "1", "--seed", "7",
      "--out", "-"],
     {"parameter": "coupling-disorder", "grid": (), "seed": 7, "trials": 1}),
    (["validate", "--seed", "0"], {"seed": 0}),
]

# the config of each command given no flag but a sweep's --out -
DEFAULTS = {
    "simulate": {"command": "simulate", "n": 3, "epsilon": 1.0, "time": None, "out": "-",
                 "format": "json", "dump_state": False},
    "sweep": {"command": "sweep", "n": 3, "epsilon": 1.0, "out": "-", "format": "csv",
              "parameter": "timing-error", "grid": None},
    "entanglement": {"command": "entanglement", "n": 3, "out": "-", "format": "json"},
    "validate": {"command": "validate", "out": "-", "format": "json", "seed": 20240201},
}


@pytest.mark.parametrize("argv, values", ACCEPTED, ids=repr)
def test_the_reader_gives_typed_values(argv, values):
    want = DEFAULTS[argv[0]] | values
    assert repr(sorted(read_config(argv).items())) == repr(sorted(want.items()))


COMMAND_NAMES = "simulate, sweep, entanglement, validate"
# Each argv the reader refuses, and the one line main prints for it.
REFUSED = [
    ([], f"no command: expected one of {COMMAND_NAMES}"),
    (["bogus"], f"unknown command 'bogus': expected one of {COMMAND_NAMES}"),
    (["--n", "3"], f"unknown command '--n': expected one of {COMMAND_NAMES}"),
    (["Simulate"], f"unknown command 'Simulate': expected one of {COMMAND_NAMES}"),
    # the help flag given a value, before a command as after one
    (["--help=1"], "--help: takes no value, got '1'"),
    (["-h=1"], "--help: takes no value, got '1'"),
    # a flag the command does not read, abbreviations included
    (["simulate", "--eps", "2"], "simulate reads no flag '--eps'"),
    (["sweep", "--ep", "2", "--out", "o.csv"], "sweep reads no flag '--ep'"),
    (["simulate", "--dump", "--out", "o.json"], "simulate reads no flag '--dump'"),
    (["simulate", "--out", "o.json", "--bogus"], "simulate reads no flag '--bogus'"),
    (["simulate", "--inject-fault"], "simulate reads no flag '--inject-fault'"),
    (["validate", "--inject-fault"], "validate reads no flag '--inject-fault'"),
    (["simulate", "--N", "3"], "simulate reads no flag '--N'"),
    (["simulate", "-n", "3"], "simulate reads no flag '-n'"),
    (["simulate", "--", "--n", "3"], "simulate reads no flag '--'"),
    (["simulate", "3"], "simulate reads no flag '3'"),
    (["simulate", "simulate"], "simulate reads no flag 'simulate'"),
    (["simulate", ""], "simulate reads no flag ''"),
    (["simulate", "--eps=2"], "simulate reads no flag '--eps'"),
    (["simulate", "--n", "3", "-2.5"], "simulate reads no flag '-2.5'"),
    # a missing value
    (["simulate", "--n"], "--n: expected a value"),
    (["simulate", "--out", "--n", "3"], "--out: expected a value"),
    (["simulate", "--out", "--"], "--out: expected a value"),
    (["simulate", "--out", "--help"], "--out: expected a value"),
    # a boolean flag given a value
    (["simulate", "--dump-state=1"], "--dump-state: takes no value, got '1'"),
    (["simulate", "--dump-state=true", "--out", "o.json"],
     "--dump-state: takes no value, got 'true'"),
    (["simulate", "--help=1"], "--help: takes no value, got '1'"),
    (["simulate", "-h=1"], "--help: takes no value, got '1'"),
    (["sweep", "--out", "o.csv", "--help="], "--help: takes no value, got ''"),
    (["entanglement", "--help=1"], "--help: takes no value, got '1'"),
    (["entanglement", "-h=1"], "--help: takes no value, got '1'"),
    (["validate", "--help=true"], "--help: takes no value, got 'true'"),
    (["validate", "-h=", "--out", "o.json"], "--help: takes no value, got ''"),
    # a value its parse refuses: the flag, then the parse's reason
    (["simulate", "--n", "x"], "--n: invalid literal for int() with base 10: 'x'"),
    (["simulate", "--n=3=4"], "--n: invalid literal for int() with base 10: '3=4'"),
    (["simulate", "--n", "2.5", "--out", "o.json"],
     "--n: invalid literal for int() with base 10: '2.5'"),
    (["simulate", "--time", "1", "--time", "x"], "--time: could not convert string to float: 'x'"),
    (["sweep", "--grid", "a,b", "--out", "o.csv"], "--grid: could not convert string to float: 'a'"),
    (["sweep", "--out", "o.csv", "--seed", "-x"],
     "--seed: invalid literal for int() with base 10: '-x'"),
    # a value its parse reads and the option refuses, flag by flag in
    # OPTIONS order, once every token is read
    (["simulate", "--out", ""], "--out must not be empty"),
    (["simulate", "--out="], "--out must not be empty"),
    (["simulate", "--epsilon", "nan", "--time", "-inf"], "--epsilon must be finite and > 0"),
    (["simulate", "--time", "-inf"], "--time must be finite"),
    (["sweep", "--parameter", "bogus", "--format", "xml"], "unknown format 'xml'"),
    (["sweep", "--parameter", "bogus", "--out", "-"], "unknown parameter 'bogus'"),
    (["sweep", "--grid", ",", "--trials", "-1", "--seed", "7"], "--trials must be >= 1"),
    (["entanglement", "--n", "-1"], "--n must be >= 1"),
    # --config is read as a path, after every token and before any option
    (["simulate", "--out=", "--config=--"], "[Errno 2] No such file or directory: '--'"),
    (["entanglement", "--n", "-1", "--config", "run.cfg"],
     "[Errno 2] No such file or directory: 'run.cfg'"),
]


@pytest.mark.parametrize("argv, message", REFUSED, ids=repr)
def test_the_reader_refuses_with_one_line(argv, message, capsys, tmp_path, monkeypatch):
    """Each refusal is one ``error:`` line naming the token, with exit 2,
    before any work: no stdout and no file written."""
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


# every flag of the tables, odd flags, and values each option reads or refuses
TOKENS = [*(flag(key) for key in cli.OPTIONS), "--config", "--inject-fault", "--eps", "--",
          "-", "", "-h", "--help", "-2.5", "--n=3", "--out=--", "--dump-state=1", "x", "3",
          "0,0.1", "csv", *cli.COMMANDS]


@settings(max_examples=300, deadline=None)
@given(argv=st.lists(st.one_of(st.sampled_from(TOKENS), st.text(max_size=4)), max_size=6))
def test_the_reader_reads_or_refuses_every_argv(argv, tmp_path_factory):
    """Any argv gives a config or a help text, or ValueError or OSError
    (a ``--config`` token is read as a path, here in an empty directory),
    which ``main`` prints as a usage error with exit 2: nothing else
    escapes."""
    empty = tmp_path_factory.getbasetemp() / "empty-cwd"
    empty.mkdir(exist_ok=True)
    cwd = os.getcwd()
    os.chdir(empty)
    try:
        config = read_config(argv)
    except (ValueError, OSError):
        return
    finally:
        os.chdir(cwd)
    assert isinstance(config, str) or config["command"] == argv[0]

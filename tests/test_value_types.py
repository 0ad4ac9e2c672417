"""The package's value types: immutable records, and no ``dataclasses``."""

import ast
import json
from pathlib import Path

import pytest

import wcavity
from wcavity import cli, dynamics, entanglement, fock, protocol, sector, validation
from wcavity.fock import build_basis

from qubit_space import qubit_basis


def _instances():
    basis = build_basis(2)
    row = protocol.SweepRow(0.0, 1.0, 1.0, 1.0)
    return {
        "Option": cli.OPTIONS["n"],
        "Command": cli.COMMANDS["sweep"],
        "Basis": basis,
        "StateVector": fock.initial_state(basis),
        "HermitianOperator": dynamics.build_hamiltonian(couplings=(1.0, 1.0),
                                                        detunings=(0.0, 0.0)),
        "DensityMatrix": entanglement.partial_trace(fock.initial_state(basis), {0}),
        "BrightMode": sector.bright_mode((1.0, 1.0)),
        "SweepRow": row,
        "PairRow": cli.PairRow((1, 2), 0.5, 0.0),
        "AmplitudeRow": cli.AmplitudeRow(0, 1.0, 0.0),
        "CheckResult": validation.CheckResult("hermiticity", True, 0.0, 1e-12, 1),
    }


@pytest.mark.parametrize("name", sorted(_instances()))
def test_attributes_cannot_be_set_or_deleted(name):
    value = _instances()[name]
    assert type(value).__name__ == name
    field = next(iter(getattr(value, "_fields", None) or type(value).__slots__))
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.not_a_field = None
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_no_module_imports_dataclasses():
    for path in Path(wcavity.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert all(alias.name != "dataclasses" for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name


def test_value_classes_equal_their_own_class_only():
    """A basis is equal, and hashes alike, only to a basis of its N and codes."""
    basis = build_basis(2)
    assert basis == fock.Basis(2, basis.codes)
    assert hash(basis) == hash(fock.Basis(2, basis.codes))
    assert basis != (2, basis.codes)
    assert basis != qubit_basis(2)
    assert basis != fock.Basis(3, basis.codes)
    assert repr(basis) == "Basis(n_modes=2, dim=4)"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_row_fields_are_the_csv_columns_and_json_keys(fmt):
    row = protocol.SweepRow(0.5, 0.25, 0.125, 1.0)
    config = {"format": fmt}
    text = "".join(cli._report_lines(config, {"rows": [row]}))
    if fmt == "csv":
        assert text.splitlines() == [
            "# schema_version=4", '# config={"format": "csv"}',
            "x,fidelity_mean,fidelity_min,fidelity_max", "0.5,0.25,0.125,1"]
    else:
        assert json.loads(text)["rows"] == [
            {"x": 0.5, "fidelity_mean": 0.25, "fidelity_min": 0.125, "fidelity_max": 1.0}]


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_defaults_are_read_only(command):
    defaults = cli.COMMANDS[command].defaults
    before = dict(defaults)
    with pytest.raises(TypeError):
        defaults["format"] = "csv"
    assert defaults == before

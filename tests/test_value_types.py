"""The package's value types: immutable records, and no ``dataclasses``."""

import ast
from pathlib import Path

import pytest

import wcavity
from wcavity import cli, fock, protocol, validation
from wcavity.dynamics import ModelParams
from wcavity.fock import AtomLevel, BasisState, build_basis


def _instances():
    basis = build_basis(2, 1, 1)
    check = validation.CheckResult("hermiticity", True, 0.0, 1e-12, 1)
    row = protocol.SweepRow(0.0, 1.0, 1.0, 1.0)
    return {
        "Option": cli.OPTIONS["n"],
        "Command": cli.COMMANDS["sweep"],
        "BasisState": basis.states[0],
        "Basis": basis,
        "ModelParams": ModelParams.resonant(2, 1.0),
        "SweepRow": row,
        "SweepResult": protocol.SweepResult([row], {}),
        "CheckResult": check,
        "ValidationReport": validation.ValidationReport((check,)),
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
    state = BasisState(AtomLevel.GROUND, (1, 0))
    assert state == BasisState(AtomLevel.GROUND, (1, 0))
    assert hash(state) == hash(BasisState(AtomLevel.GROUND, (1, 0)))
    assert state != (AtomLevel.GROUND, (1, 0))
    assert state != BasisState(AtomLevel.EXCITED, (1, 0))
    assert build_basis(2, 1, None).index.get((AtomLevel.GROUND, (1, 0))) is None

    params = ModelParams(2, (0, 0.2), (1, 2))
    same = ModelParams(2, (0.0, 0.2), (1.0, 2.0))
    assert params == same and hash(params) == hash(same)
    assert params != ModelParams(2, (0.0, 0.7), (1.0, 2.0))
    assert params.detunings == (0.0, 0.2) and all(type(d) is float for d in params.detunings)
    assert params.couplings == (1.0, 2.0) and all(type(c) is float for c in params.couplings)
    assert "couplings=(1.0, 2.0)" in repr(params)

    basis = build_basis(2, 1, 1)
    assert basis == fock.Basis(2, 1, 1, basis.states)
    assert basis != build_basis(2, 1, None)
    assert repr(basis) == "Basis(n_modes=2, n_max=1, excitation_cap=1)"


def test_sweep_row_fields_are_the_csv_columns():
    assert protocol.CSV_HEADER == "x,fidelity_mean,fidelity_min,fidelity_max"
    result = protocol.SweepResult([protocol.SweepRow(0.5, 0.25, 0.125, 1.0)], {"b": 1})
    assert result.to_csv_text().splitlines()[-1] == "0.5,0.25,0.125,1"
    assert result.to_dict()["rows"] == [
        {"x": 0.5, "fidelity_mean": 0.25, "fidelity_min": 0.125, "fidelity_max": 1.0}
    ]


def test_command_defaults_are_read_only():
    assert cli.COMMANDS["simulate"].defaults == {}
    with pytest.raises(TypeError):
        cli.COMMANDS["simulate"].defaults["format"] = "csv"

"""The package's imports and the rules its modules keep, read from their
source; none needs numpy."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wcavity
from wcavity import cli, protocol

SRC = Path(wcavity.__file__).parent


def source_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    src = str(SRC.resolve().parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def top_level_names(path: Path) -> set:
    """The names that the module at ``path`` defines at its top level."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return names


def test_import_loads_no_submodule():
    """``import wcavity`` loads no submodule and binds no name but its
    dunders: each name is imported from the module that defines it.  The
    sweep parameters are named once, by the keys of ``protocol.SWEEPS``,
    the one table of them: no module defines a retired table of them
    (``SWEEP_PARAMETERS``, ``SWEEP_UNREAD``).  Parameter ``p`` runs
    ``protocol.<p with - as _>_sweep``, whose parameters are the sweep
    options that ``p`` reads, and ``--parameter`` admits the keys alone."""
    code = (
        "import sys, wcavity\n"
        "print(sorted(m for m in sys.modules if m.startswith('wcavity')))\n"
        "print(sorted(k for k in vars(wcavity) if not (k.startswith('__') and k.endswith('__'))))\n"
        # `sector` imports no other submodule
        "import wcavity.sector\n"
        "print(sorted(m for m in sys.modules if m.startswith('wcavity')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['wcavity']", "[]", "['wcavity', 'wcavity.sector']"]
    assert wcavity.__version__ == "0.1.0"

    assert [path.stem for path in sorted(SRC.glob("*.py"))
            if {"SWEEP_PARAMETERS", "SWEEP_UNREAD"} & top_level_names(path)] == []
    sweeps = {name for name, value in vars(protocol).items()
              if name.endswith("_sweep") and not name.startswith("_") and callable(value)}
    options = {"n", "epsilon", "grid", "trials", "seed"}
    assert sweeps == {p.replace("-", "_") + "_sweep" for p in protocol.SWEEPS}
    for parameter, entry in protocol.SWEEPS.items():
        sweep = getattr(protocol, parameter.replace("-", "_") + "_sweep")
        assert set(inspect.signature(sweep).parameters) == options - set(entry["unread"]), parameter
    assert cli.OPTIONS["parameter"].choices() == sorted(protocol.SWEEPS)


# Each public name of the library and the module that defines it.
HOMES = {
    "dynamics": ("HermitianOperator", "build_hamiltonian", "evolve_closed_form",
                 "propagate_numeric"),
    "entanglement": ("DensityMatrix", "concurrence", "fidelity", "ghz_state",
                     "pairwise_concurrences", "partial_trace", "success_probability",
                     "w_state"),
    "fock": ("Basis", "StateVector", "build_basis", "initial_state"),
    "protocol": ("SweepRow", "coupling_disorder_sweep", "detuning_sweep",
                 "mode_count_sweep", "timing_error_sweep"),
    "sector": ("PropagationError", "optimal_time"),
    "validation": ("CheckResult", "build_arrowhead", "jacobi", "measure_rabi_period",
                   "propagate", "run_validation"),
}


@pytest.mark.parametrize("home, name", [(home, name) for home, names in HOMES.items()
                                        for name in names], ids=lambda value: value)
def test_public_name_is_defined_by_its_home_module(home, name):
    """The name is defined at the top level of its home module, and the
    package does not serve it: ``from wcavity import <name>`` fails."""
    assert name in top_level_names(SRC / f"{home}.py")
    assert name not in top_level_names(SRC / "__init__.py")
    with pytest.raises(ImportError):
        exec(f"from wcavity import {name}", {})


def test_readme_library_example_runs():
    """The python block under ``## Library`` in README.md runs in a fresh
    interpreter and prints what its comments say."""
    pytest.importorskip("numpy")  # its last part runs the dense oracle
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    start = library.index("```python\n") + len("```python\n")
    code = library[start:library.index("```", start)]
    proc = subprocess.run([sys.executable, "-c", code], env=source_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "1.0", "5", "[SweepRow(x=0.0, fidelity_mean=1.0, fidelity_min=1.0, fidelity_max=1.0)]",
        "1.0"]


# The runtime: the modules that the CLI routes run on.
RUNTIME = ("cli", "sector", "protocol", "normals", "validation")
# What the runtime never imports: numpy and scipy, and the dense numpy modules.
ORACLE = {"numpy", "scipy", "fock", "dynamics", "entanglement"}


def imported_modules(source: str):
    """(module, enclosing function or None) for each module that an import
    statement anywhere in ``source`` names, function bodies included; a
    module of this package by its name within it (``from . import fock``
    and ``from .fock import x`` both name ``fock``)."""
    tree = ast.parse(source)
    owner = {}
    for func in ast.walk(tree):  # breadth first: the outermost function owns
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner.setdefault(node, func.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "wcavity":
                names = [module]
            else:
                within = module.removeprefix("wcavity").lstrip(".")
                names = [within] if within else [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            yield name.removeprefix("wcavity.").split(".")[0], owner.get(node)


def test_runtime_modules_never_import_numpy_or_the_oracle():
    """No runtime module imports numpy, scipy or a dense numpy module, at
    its top or in a function; their immutable base ``Frozen`` is neither
    defined nor imported by name in the runtime."""
    found = [(module, name, func) for module in RUNTIME
             for name, func in imported_modules((SRC / f"{module}.py").read_text())
             if name in ORACLE]
    assert found == []
    for module in RUNTIME:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        named = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        named |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert "Frozen" not in named, module


def test_cli_alone_holds_the_output_rules():
    """``cli`` writes every byte: ``protocol`` and ``sector`` import neither
    ``json`` nor ``time``, only ``cli`` defines the number format and the
    schema version, and a sweep returns plain rows: ``protocol`` defines
    one class, ``SweepRow``, with no method."""
    for module in ("protocol", "sector"):
        imported = {name for name, _ in imported_modules((SRC / f"{module}.py").read_text())}
        assert not imported & {"json", "time"}, module
    defined = {}
    for path in sorted(SRC.glob("*.py")):
        for name in top_level_names(path) & {"fmt12", "round12", "SCHEMA_VERSION"}:
            defined.setdefault(name, []).append(path.stem)
    assert defined == {"fmt12": ["cli"], "round12": ["cli"], "SCHEMA_VERSION": ["cli"]}
    tree = ast.parse((SRC / "protocol.py").read_text())
    (row,) = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    assert row.name == "SweepRow"
    assert not [node for node in row.body if isinstance(node, ast.FunctionDef)]


def test_no_module_imports_argparse():
    """``cli.read_config`` alone reads the command line into a config,
    from the option tables: no module of the package imports argparse, in
    a function body or at the top level."""
    found = [(path.stem, func) for path in sorted(SRC.glob("*.py"))
             for name, func in imported_modules(path.read_text()) if name == "argparse"]
    assert found == []


@pytest.mark.parametrize("source, expected", [
    ("import numpy.linalg as la", [("numpy", None)]),
    ("from scipy import linalg", [("scipy", None)]),
    ("def f():\n    def g():\n        from . import fock, sector", [("fock", "f"), ("sector", "f")]),
    ("from .dynamics import evolve_closed_form", [("dynamics", None)]),
    ("import wcavity.entanglement", [("entanglement", None)]),
    ("from wcavity import validation", [("validation", None)]),
    ("from wcavity.fock import build_basis", [("fock", None)]),
])
def test_imported_modules_sees_every_import_form(source, expected):
    assert list(imported_modules(source)) == expected

"""The package namespace resolves each public name from its home module
on access."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wcavity
import wcavity.dynamics

PUBLIC = [name for name in wcavity.__all__ if name != "__version__"]


def source_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(wcavity.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def test_import_loads_no_submodule():
    env = source_env()
    code = (
        "import sys, wcavity\n"
        "print(sorted(m for m in sys.modules if m.startswith('wcavity')))\n"
        # a submodule loads on access; `sector` imports no other submodule
        "assert wcavity.sector is sys.modules['wcavity.sector']\n"
        "print(sorted(m for m in sys.modules if m.startswith('wcavity')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['wcavity']", "['wcavity', 'wcavity.sector']"]


def test_readme_library_example_runs():
    """The python block under ``## Library`` in README.md runs in a fresh
    interpreter and prints what its comments say."""
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


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_home_module_object(name):
    value = getattr(wcavity, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("wcavity.")
    assert getattr(home, name) is value


def test_names_are_listed_and_not_stored():
    listed = dir(wcavity)
    assert set(wcavity.__all__) <= set(listed)
    assert listed == sorted(listed)
    assert not set(PUBLIC) & set(vars(wcavity))
    assert wcavity.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        wcavity.no_such_name
    assert not hasattr(wcavity, "_no_such_private")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from wcavity import *", namespace)
    assert set(wcavity.__all__) <= set(namespace)
    assert namespace["propagate_numeric"] is wcavity.dynamics.propagate_numeric


def test_name_follows_a_patched_home_binding(monkeypatch):
    original = wcavity.dynamics.propagate_numeric

    def replacement(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(wcavity.dynamics, "propagate_numeric", replacement)
    assert wcavity.propagate_numeric is replacement
    monkeypatch.undo()
    assert wcavity.propagate_numeric is original


# The runtime: the modules that every CLI route but validate runs on.
RUNTIME = ("cli", "sector", "protocol", "normals")
# What the runtime never imports: numpy and scipy, and the dense oracle.
ORACLE = {"numpy", "scipy", "fock", "dynamics", "entanglement", "validation"}


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
    """Only ``cmd_validate`` reaches the oracle, through one import; the
    oracle's immutable bases ``Frozen`` and ``Value`` are neither defined
    nor imported by name in the runtime."""
    src = Path(wcavity.__file__).parent
    found = [(module, name, func) for module in RUNTIME
             for name, func in imported_modules((src / f"{module}.py").read_text())
             if name in ORACLE]
    assert found == [("cli", "validation", "cmd_validate")]
    for module in RUNTIME:
        tree = ast.parse((src / f"{module}.py").read_text())
        named = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        named |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert not named & {"Frozen", "Value"}, module


def test_cli_alone_holds_the_output_rules():
    """``cli`` writes every byte: ``protocol`` and ``sector`` import neither
    ``json`` nor ``time``, only ``cli`` defines the number format and the
    schema version, and the sweep's records are plain, with no method."""
    src = Path(wcavity.__file__).parent
    for module in ("protocol", "sector"):
        imported = {name for name, _ in imported_modules((src / f"{module}.py").read_text())}
        assert not imported & {"json", "time"}, module
    defined = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {target.id for target in targets if isinstance(target, ast.Name)}
            else:
                continue
            for name in names & {"fmt12", "round12", "SCHEMA_VERSION"}:
                defined.setdefault(name, []).append(path.stem)
    assert defined == {"fmt12": ["cli"], "round12": ["cli"], "SCHEMA_VERSION": ["cli"]}
    tree = ast.parse((src / "protocol.py").read_text())
    records = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    for name in ("SweepResult", "SweepRow"):
        assert not [node for node in records[name].body if isinstance(node, ast.FunctionDef)]


def test_runtime_imports_argparse_only_to_build_the_parser():
    """``cli.parse_args`` reads a well-formed command line from the option
    tables; argparse, which words every usage error and help text, is
    imported by ``build_parser`` alone."""
    src = Path(wcavity.__file__).parent
    found = [(module, func) for module in RUNTIME
             for name, func in imported_modules((src / f"{module}.py").read_text())
             if name == "argparse"]
    assert found == [("cli", "build_parser")]


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

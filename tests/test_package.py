"""The package namespace resolves each public name from its home module
on access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wcavity
import wcavity.dynamics

PUBLIC = [name for name in wcavity.__all__ if name != "__version__"]


def test_import_loads_no_submodule():
    src = str(Path(wcavity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
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

"""The package namespace: each public name loads its module on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crimepatterns

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("cli", "concentration", "independence", "ingest", "rankdyn", "rhythms", "series",
          "synth", "tessellate")


def loaded_after(statement):
    """The package modules and numpy modules that a fresh interpreter
    holds after running `statement`."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "crimepatterns" in loaded
    return {m for m in loaded if m.startswith("crimepatterns.") or m.split(".")[0] == "numpy"}


def test_import_loads_no_layer_module_and_no_numpy():
    assert loaded_after("import crimepatterns") == set()


def test_a_public_name_loads_only_its_module():
    loaded = loaded_after("from crimepatterns import lorenz")
    assert {m for m in loaded if m.startswith("crimepatterns.")} == {"crimepatterns.concentration"}


def test_submodules_import_by_name_and_the_cli_loads_every_layer():
    loaded = loaded_after("from crimepatterns import cli, rhythms")
    assert {m for m in loaded if m.startswith("crimepatterns.")} == {
        f"crimepatterns.{layer}" for layer in LAYERS}


def test_every_public_name_is_its_modules_attribute():
    public = crimepatterns._PUBLIC
    assert sum(len(names) for names in public.values()) == len(set(crimepatterns.__all__))
    assert len(crimepatterns.__all__) == len(set(crimepatterns.__all__))
    for module, names in public.items():
        layer = importlib.import_module(f"crimepatterns.{module}")
        for name in names:
            assert getattr(crimepatterns, name) is getattr(layer, name)
    namespace = {}
    exec("from crimepatterns import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == crimepatterns.__all__


def test_unknown_name_is_an_attribute_error_and_dir_lists_every_public_name():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        crimepatterns.no_such_name
    with pytest.raises(ImportError):
        from crimepatterns import no_such_name  # noqa: F401
    assert set(crimepatterns.__all__) <= set(dir(crimepatterns))


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == crimepatterns.__version__

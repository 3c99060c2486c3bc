"""The package's public names and what a command loads at start-up."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import recwalk

_SRC = str(Path(recwalk.__file__).parent.parent)

# Run in a fresh interpreter: which modules are loaded after importing the
# CLI, after a CSV command on stdout, after a JSON bounds report and after
# a short simulate run.
_PROBE = """
import contextlib, io, json, sys
import recwalk.cli
names = ("recwalk.bounds", "recwalk.verify", "recwalk.montecarlo", "dataclasses",
         "hashlib")
seen = {"import": [m for m in names if m in sys.modules]}
for label, argv in (("mix", ["mix", "--seq", "pow2", "--n", "5"]),
                    ("bounds", ["bounds", "--seq", "pow2", "--n", "5"]),
                    ("simulate", ["simulate", "--seq", "pow2", "--n", "3",
                                  "--trajectories", "10", "--tmax", "2"])):
    with contextlib.redirect_stdout(io.StringIO()):
        assert recwalk.cli.main(argv) == 0
    seen[label] = [m for m in names if m in sys.modules]
print(json.dumps(seen))
"""


def test_cli_start_up_loads_only_what_the_command_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout)
    assert seen["import"] == []
    assert "hashlib" not in seen["mix"]  # CSV on stdout builds no manifest
    assert {"recwalk.bounds", "hashlib"} <= set(seen["bounds"])
    assert "recwalk.verify" not in seen["bounds"]
    assert "recwalk.montecarlo" not in seen["bounds"]
    assert "recwalk.montecarlo" in seen["simulate"]


def test_all_names_resolve_to_their_module_objects():
    modules = {name: importlib.import_module(f"recwalk.{name}")
               for name in recwalk._EXPORTS}
    for name in recwalk.__all__:
        module = recwalk._MODULE_OF.get(name)
        home = modules[module] if module else recwalk.errors
        assert getattr(recwalk, name) is getattr(home, name), name
    assert len(set(recwalk.__all__)) == len(recwalk.__all__)
    assert not set(recwalk.__all__) & {"bounds", "errors", "montecarlo", "recurrence",
                                        "spectrum", "verify", "walk"}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from recwalk import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(recwalk.__all__)
    assert set(recwalk.__all__) <= set(dir(recwalk))


def test_unknown_name_is_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError, match="no_such_name"):
        recwalk.no_such_name
    from recwalk import verify
    assert verify is sys.modules["recwalk.verify"]
    assert verify.SUITE_NAMES is recwalk.SUITE_NAMES

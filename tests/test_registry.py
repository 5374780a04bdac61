"""Each public name is declared once, in its module, and each CLI command once."""

import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ssdlab
from ssdlab import cli

MODULES = ("categorical", "decode", "errors", "objective", "sensitivity", "toyfsm")


def _module(name):
    return importlib.import_module(f"ssdlab.{name}")


def test_package_names_are_the_sorted_union_of_the_module_lists():
    declared = [name for m in MODULES for name in _module(m).__all__]
    assert len(declared) == len(set(declared)) == 87  # no name is declared twice
    assert ssdlab.__all__ == sorted(ssdlab.__all__)
    assert len(set(ssdlab.__all__)) == len(ssdlab.__all__)
    assert ssdlab.__all__ == sorted(declared)


@pytest.mark.parametrize("module_name", MODULES)
def test_each_package_name_is_the_defining_modules_object(module_name):
    module = _module(module_name)
    for name in module.__all__:
        obj = getattr(module, name)
        assert getattr(ssdlab, name) is obj
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__


@pytest.mark.parametrize("module_name", MODULES)
def test_every_public_function_and_class_is_declared(module_name):
    module = _module(module_name)
    defined = {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined <= set(module.__all__)


@pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
def test_help_lists_every_declared_flag(command, capsys):
    assert cli.main([command, "--help"]) == 0
    listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    _, flags = cli.SUBCOMMANDS[command]
    assert {flag.name for flag in flags + cli._OUTPUT_FLAGS} <= listed


def test_module_entry_point_runs_decode():
    # `python -m ssdlab.cli` goes through entry() and the __main__ guard
    src = str(Path(ssdlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-m", "ssdlab.cli", "decode", "--probs", "0.5,0.5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "token,base_prob,operational_prob\n0,0.5,0.5\n1,0.5,0.5\n"

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


def _python(*args):
    """A fresh interpreter that imports this checkout's ssdlab."""
    src = str(Path(ssdlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_module_entry_point_runs_decode():
    # `python -m ssdlab.cli` goes through entry() and the __main__ guard
    proc = _python("-m", "ssdlab.cli", "decode", "--probs", "0.5,0.5")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "token,base_prob,operational_prob\n0,0.5,0.5\n1,0.5,0.5\n"


# Each command's argv and the ssdlab modules a `python -m ssdlab.cli` process
# loads for it beyond BASE_MODULES, which every command loads.
BASE_MODULES = {"ssdlab", "ssdlab.categorical", "ssdlab.decode", "ssdlab.errors"}
COMMAND_MODULES = {
    "decode": ((), ["--probs", "0.5,0.5"]),
    "target": ((), ["--probs", "0.5,0.5"]),
    "decompose": (("objective",), ["--probs", "0.5,0.5"]),
    "train-student": (("objective",), ["--probs", "0.5,0.3,0.2", "--max-steps", "10"]),
    "sensitivity": (("objective", "sensitivity"), ["--probs", "0.5,0.5"]),
    "toy-sweep": (("pool", "toyfsm"), ["--t-grid", "0.5:1:0.25"]),
    "toy-optimize": (("pool", "toyfsm"), ["--t-min", "0.5", "--t-max", "1"]),
    "toy-grid": (("pool", "toyfsm"), ["--top-p", "0.8", "--t-min", "0.5", "--t-max", "1"]),
    "toy-mc": (("pool", "toyfsm"), ["--temperature", "0.64", "--n", "70000"]),  # 3 batches: forks on 2+ CPUs
    "analyze-dump": (("dump", "pool"), ["--input", "@DUMP"]),
}

# Runs the CLI as `python -m ssdlab.cli` does, then prints the ssdlab modules loaded
# and whether signal was.
RUN_AS_MAIN = """\
import runpy, sys
try:
    runpy.run_module("ssdlab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "ssdlab")))
print("signal" in sys.modules)
"""


@pytest.mark.parametrize("command", list(cli.SUBCOMMANDS))
def test_a_command_loads_only_the_modules_it_runs(command, tmp_path):
    extra, argv = COMMAND_MODULES[command]
    dump_path = tmp_path / "dump.jsonl"
    dump_path.write_text('{"context_id": 0, "probs": [0.5, 0.3, 0.2]}\n')
    argv = [str(dump_path) if a == "@DUMP" else a for a in argv]
    proc = _python("-c", RUN_AS_MAIN, command, *argv, "--output", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    modules, signal_loaded = proc.stdout.splitlines()
    assert set(modules.split()) == BASE_MODULES | {f"ssdlab.{m}" for m in extra}
    assert signal_loaded == "False"  # the pool imports it only to kill a worker


def test_importing_the_package_loads_no_module():
    proc = _python("-c", "import sys, ssdlab\n"
                         "print(sorted(m for m in sys.modules if m.startswith('ssdlab')))")
    assert (proc.returncode, proc.stdout) == (0, "['ssdlab']\n"), proc.stderr


def test_lazy_package_names_resolve_as_eager_ones_did():
    # a submodule loads alone; the first public name, __all__, a star import or
    # dir() publishes all 87 names
    proc = _python("-c", """\
import sys, ssdlab
assert ssdlab.decode is sys.modules["ssdlab.decode"]
assert "ssdlab.toyfsm" not in sys.modules and "__all__" not in vars(ssdlab)
from ssdlab import dump
assert "ssdlab.objective" not in sys.modules and dump.__name__ == "ssdlab.dump"
names = {}
exec("from ssdlab import *", names)
names.pop("__builtins__")
assert sorted(names) == ssdlab.__all__ and len(names) == 87
assert names["Categorical"] is sys.modules["ssdlab.categorical"].Categorical
listed = dir(ssdlab)
assert set(ssdlab.__all__) <= set(listed) and {"toyfsm", "__version__"} <= set(listed)
try:
    ssdlab.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'ssdlab' has no attribute 'no_such_name'"
else:
    raise AssertionError("no AttributeError")
print("ok")
""")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


def test_a_public_name_loads_the_six_modules():
    proc = _python("-c", "import sys, ssdlab\n"
                         "ssdlab.temper\n"
                         "print(*sorted(m for m in sys.modules if m.startswith('ssdlab.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted([f"ssdlab.{m}" for m in MODULES] + ["ssdlab.pool"])


# Runs one CLI command, as `python -m ssdlab.cli` does when RUN_NAME is "__main__"
# and as the console script's import does otherwise. A sys.meta_path probe records
# whether the cyclic collector was on when numpy was first imported.
PROBE_GC = """\
import gc, runpy, sys

class Probe:
    seen = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Probe.seen is None:
            Probe.seen = gc.isenabled()
        return None  # the usual finders import it

sys.meta_path.insert(0, Probe())
json_before = "json" in sys.modules
run_name = sys.argv.pop(1)
try:
    if run_name == "__main__":
        runpy.run_module("ssdlab.cli", run_name="__main__", alter_sys=True)
    else:
        import ssdlab.cli
        ssdlab.cli.entry()
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(Probe.seen, gc.isenabled(), gc.get_freeze_count() > 0, json_before,
      "json" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("run_name, collecting", [("__main__", False), ("module", True)])
def test_the_collector_is_off_only_while_main_imports(run_name, collecting):
    # CPython's gc.freeze recipe for a process that forks: no collection walks the
    # import heap, which entry() then freezes, and main() runs with the collector on.
    # A CSV report loads no json module
    proc = _python("-c", PROBE_GC, run_name, "decode", "--probs", "0.5,0.5")
    assert proc.stdout == "token,base_prob,operational_prob\n0,0.5,0.5\n1,0.5,0.5\n"
    assert proc.returncode == 0
    assert proc.stderr.split() == [str(collecting), "True", "True", "False", "False"]

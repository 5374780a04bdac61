"""The repository's pytest configuration: a failing property fails only its own test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_THEN_PLAIN = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_runs_after():
    pass
'''


def test_failing_property_does_not_stop_the_session(tmp_path):
    # To print a failing example, Hypothesis imports libcst (when it is installed),
    # whose import warns with a DeprecationWarning; under pyproject.toml's
    # filterwarnings that must fail the property alone, not stop the session
    (tmp_path / "test_property.py").write_text(PROPERTY_THEN_PLAIN)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "-rA", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED test_property.py::test_property_fails" in run.stdout
    assert "PASSED test_property.py::test_runs_after" in run.stdout

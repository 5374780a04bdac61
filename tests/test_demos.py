"""The worked demos run clean and print the numbers their text explains."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc.stdout.splitlines()


def test_distillation_target_demo():
    lines = run_demo("02_distillation_target.py")
    values = {}
    for line in lines:
        label, sep, value = line.rpartition(" ")
        if sep and label.rstrip().endswith(":"):
            values[label.split("(")[0].rstrip(" :")] = value
    assert values["gate"] == "0.328504"
    assert values["reshape"] == "0.267886"
    assert values["align"] == "0.053461"
    assert values["const"] == "0.915424"
    assert values["total"] == values["gate + conditional"] == "1.565275"
    assert values["direct cross-entropy"] == "1.565275"
    assert lines[-1] == "final   1.144285 vs target entropy 1.144280"

"""The worked demos run clean and print the numbers their text explains."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = set()  # demos/<name> with a test of its printed numbers
RESIDUE_BOUND = 1e-10  # identity residues are checked by size, not by their digits


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


def checks(name):
    """Turn a check of stdout lines into the test that runs demos/<name>."""
    def register(check):
        CHECKED.add(name)

        def test():
            check(run_demo(name))
        return test
    return register


def test_every_demo_has_a_checker():
    assert {path.name for path in (ROOT / "demos").glob("*.py")} == CHECKED


@checks("01_decoding_pipeline.py")
def test_decoding_pipeline_demo(lines):
    for line in (
        "base distribution: [0.34 0.22 0.14 0.09 0.07 0.05 0.04 0.03 0.01 0.01]",
        "T=0.5  sharpened/flattened: "
        "[0.5728 0.2398 0.0971 0.0401 0.0243 0.0124 0.0079 0.0045 0.0005 0.0005]",
        "T=2.0  sharpened/flattened: "
        "[0.2092 0.1683 0.1342 0.1076 0.0949 0.0802 0.0717 0.0621 0.0359 0.0359]",
        "top-3 indices:    [0, 1, 2]",
        "top-0.6 indices:  [0, 1, 2]",
        "support: [0, 1, 2]",
        "kept mass: 0.7000",
        "operational: "
        "[0.5499 0.2953 0.1548 0.     0.     0.     0.     0.     0.     0.    ]",
        "empirical marginal: "
        "[0.5487 0.2958 0.1555 0.     0.     0.     0.     0.     0.     0.    ]",
        "total variation vs operational: 0.00118",
        "draws outside support: 0",
    ):
        assert line in lines
    values = dict(line.split(": ", 1) for line in lines if ": " in line)
    assert abs(float(values["composition gap"])) <= RESIDUE_BOUND
    assert abs(float(values["mass kept by top-0.6"]) - 0.7) <= RESIDUE_BOUND


@checks("02_distillation_target.py")
def test_distillation_target_demo(lines):
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


@checks("03_temperature_sensitivity.py")
def test_temperature_sensitivity_demo(lines):
    for line in (
        "gamma=2.0  escort: [0.5354 0.2732 0.0983 0.0437 0.028  0.0214]",
        "escort slope 0.27835032 vs finite difference 0.27835032",
        "log-mass slope, head event: +0.342503",
        "log-mass slope, tail event: -1.062371",
        "0.5    1.236218   1.544371",
        "1.0    1.617044   0.326775",
        "2.5    1.762940   0.023202",
        "gate + weighted parts: 0.673012 + 0.407516 + 0.536517 = 1.617044",
        "direct entropy:        1.617044",
    ):
        assert line in lines


@checks("04_toy_world.py")
def test_toy_world_demo(lines):
    for line in (
        "student lock: [0.948 0.052] (2 tokens kept)",
        "student fork: [0.1692 0.3435 0.159  0.1641 0.1641] (5 tokens kept)",
        "0.6    0.0785    0.0701    -0.84",
        "2.0    0.0055    0.1364    +13.09",
        "teacher best: P=0.083336 at T=0.6395",
        "student best: P=0.137732 at T=2.0941",
        "student advantage: +5.44 percentage points",
        "teacher fork nucleus at its optimum: [0.4817 0.1777 0.1703 0.1703]",
        "student fork nucleus at its optimum: [0.3207 0.2286 0.2254 0.2253]",
        "teacher: simulated 0.083397, exact 0.083336, z = 0.22",
        "student: simulated 0.137886, exact 0.137732, z = 0.45",
        "top-p 0.70: teacher 0.1158, student 0.1491, gap +3.33pp",
        "top-p 0.90: teacher 0.0695, student 0.0839, gap +1.44pp",
    ):
        assert line in lines


@checks("05_decode_rigidity.py")
def test_decode_rigidity_demo(lines):
    start = lines.index("order                       prefix  rigidity") + 1
    table = [line.split() for line in lines[start:start + 6]]
    assert [row[1] for row in table] == ["3", "4", "3", "4", "5", "5"]
    assert all(float(row[2]) <= RESIDUE_BOUND for row in table)
    for line in (
        "0.5   0.4932  0.7584  0.8986  0.9649  1.0000",
        "2.0   0.2696  0.5006  0.6975  0.8608  1.0000",
        "0.6    [0.4918, 0.9276]      True",
        "2.4    [0.3128, 0.4550]      True",
    ):
        assert line in lines

"""Pinned report bytes: the stdout, stderr and exit code of each cell.

An analyze-dump cell is one of the seeded small dumps below (V <= 64), run
with or without --skip-bad, as CSV or as JSON. Its expected text is
tests/reports/analyze_dump/<cell>.txt, and each cell runs under 1 and 3
forced workers, so a failure names the changed cell and the worker count.
An argv cell is a fixed command line, ARGV_CELLS below, whose expected text
is tests/reports/<command>/<cell>.txt. Run this file as a script to rewrite
the expected files, then list every changed cell in CHANGES.md.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from ssdlab import cli, dump, toyfsm

ROOT = Path(__file__).resolve().parent / "reports"
REPORTS = ROOT / "analyze_dump"


def _records(seed: int, n: int):
    """n seeded records of V <= 64: probs with zeros and ties, and logits."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        v = int(rng.integers(2, 65))
        record = {"context_id": k if k % 4 == 0 else f"{seed}-{k}"}
        if k % 3 == 1:
            record["label"] = ["fork", 'say "hi", then go', "a,b"][k % 9 // 3]
        if k % 5 == 2:
            record["logits"] = (rng.normal(size=v) * (1.0 if k % 2 else 300.0)).tolist()
        else:
            w = rng.integers(0, 4, size=v).astype(float)
            w[rng.integers(v)] += 1.0
            record["probs"] = (w / w.sum()).tolist()
        yield json.dumps(record).encode()


def _bad_lines() -> bytes:
    # under 3 workers, lines 2, 7 and 11 fall in the first, middle and last range
    lines = list(_records(1, 12))
    lines[1] = b"not json"
    lines[6] = b'{"context_id": "no-probs"}'
    lines[10] = b'{"context_id": "neg", "probs": [0.5, -0.5, 1.0]}'
    return b"".join(line + b"\n" for line in lines)


def _crlf_blank() -> bytes:
    # CRLF line ends, blank lines of three kinds, no final newline
    lines = list(_records(2, 9))
    lines[4] = b'["a", "list"]'
    blanks = [b"", b"\r", b" \t\r"]
    out = []
    for k, line in enumerate(lines):
        out.append(line)
        if k % 3 == 2:
            out.append(blanks[k // 3])
    return b"\r\n".join(out)


def _logits_utf8() -> bytes:
    lines = list(_records(3, 10))
    lines[3] = b'{"context_id": "x", "logits": [1.0, 0.5, -2.0], "label": "\xff\xfe"}'
    lines[8] = b'{"context_id": "wide", "logits": [1e308, -1e308, 0.0]}'
    return b"".join(line + b"\n" for line in lines)


def _number_shapes() -> bytes:
    # every way a JSON number can spell an entry, and booleans hidden where
    # they read as 0 or 1: among many zeros and among few
    lines = [
        b'{"context_id": "int-logits", "logits": [3, 1, 0, -2, 5, 12345678901234567890]}',
        b'{"context_id": "int-zeros", "probs": [0, 0, 0.5, 0, 0, 0.25, 0, 0.25]}',
        b'{"context_id": "float-zeros", "probs": [0.0, 0.25, 0.0, 0.0, 0.75, 0.0]}',
        b'{"context_id": "neg-zero", "probs": [-0.0, 0.5, -0.0, 0.5], "label": "-0.0"}',
        b'{"context_id": "one-hot", "probs": [0.0, 0.0, 1.0, 0.0]}',
        b'{"context_id": "int-one-hot", "probs": [0, 1, 0]}',
        b'{"context_id": "hidden-true", "probs": [' + b"0, " * 40 + b"true, 0]}",
        b'{"context_id": "hidden-false", "logits": [0.5, -1.25, 2.0, false, 3.5, 0.125]}',
        b'{"context_id": "nested", "probs": [[0.5, 0.5], [0.25, 0.75]]}',
        b'{"context_id": "mixed", "logits": [0, 1, 0.0, 1.0, -0.0, 2, 2.5]}',
    ]
    lines[3:3] = list(_records(4, 3))
    return b"".join(line + b"\n" for line in lines)


DUMPS = {
    "bad_lines": (_bad_lines, []),
    "crlf_blank": (_crlf_blank, ["--temperature", "0.8", "--top-p", "0.9"]),
    "logits_utf8": (_logits_utf8, ["--top-k", "5"]),
    "number_shapes": (_number_shapes, ["--top-p", "0.9"]),
}
CELLS = [f"{name}.{mode}.{fmt}" for name in DUMPS
         for mode in ("strict", "skip-bad") for fmt in ("csv", "json")]


def render(cell: str, directory: Path) -> str:
    """The cell's exit code, stdout and stderr, from cli.main in process."""
    name, mode, fmt = cell.split(".")
    make, flags = DUMPS[name]
    path = directory / f"{name}.jsonl"
    path.write_bytes(make())
    argv = ["analyze-dump", "--input", str(path), *flags, "--format", fmt]
    if mode == "skip-bad":
        argv.append("--skip-bad")
    return _run(argv)


def _run(argv: list[str]) -> str:
    """argv's exit code, stdout and stderr, from cli.main in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("workers", [1, 3], ids=["1-worker", "3-workers"])
@pytest.mark.parametrize("cell", CELLS)
def test_analyze_dump_report(cell, workers, tmp_path, monkeypatch):
    monkeypatch.setattr(dump, "_BYTES_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                        raising=False)
    expected = (REPORTS / f"{cell}.txt").read_text(encoding="utf-8")
    assert render(cell, tmp_path) == expected


# Vocabulary-scale toy paths and prefix-mass curves, where the decode kernel's
# rows are wide or shorter than the requested prefix.
ARGV_CELLS = {
    # the optimizer's whole grid and its probes at V = 262 144
    "toy_optimize/v256k.top_p_0.8": [
        "toy-optimize", "--vocab-size", "262144", "--top-p", "0.8"],
    # teacher and student rows at V = 32 768
    "toy_sweep/v32k.short_grid": [
        "toy-sweep", "--vocab-size", "32768", "--t-grid", "0.25:2:0.25"],
    # at tau 1e-3, 0.005 ** 1000 underflows against 0.5 ** 1000: two of the four
    # requested ranks lie past the prefix that has any mass
    "sensitivity/curve.underflow": [
        "sensitivity", "--mode", "curve", "--probs", "0.5,0.49,0.005,0.005",
        "--tau", "0.001"],
    "sensitivity/feasible.underflow": [
        "sensitivity", "--mode", "feasible", "--lock-probs", "0.5,0.49,0.005,0.005",
        "--fork-probs", "0.3,0.299,0.25,0.1", "--tau", "0.001"],
}


def _train_argv(probs: np.ndarray, spec: str, *flags: str) -> list[str]:
    return ["train-student", "--probs", ",".join(format(float(x), spec) for x in probs),
            "--temperature", "0.9", "--top-p", "0.85", *flags]


def _heavy_tail_1024(seed: int) -> np.ndarray:
    """The seeded V=1024 training context of the benchmark's smoke run: noisy Zipf ranks."""
    rng = np.random.default_rng([seed, 0x75])
    w = np.arange(1, 1025, dtype=float) ** -1.1 * rng.gamma(64.0, 1.0 / 64.0, size=1024)
    w = rng.permutation(w)
    return w / w.sum()


# The local student on the toy world's lock head (2 of 16 tokens kept) at the
# benchmark's step cap and at its smoke size, and on a V=1024 heavy tail.
_LOCK = toyfsm.build_toy_fsm().lock.dist.probs
ARGV_CELLS.update({
    "train_student/lock.25000_steps": _train_argv(
        _LOCK, ".17g", "--log-every", "100", "--max-steps", "25000"),
    "train_student/lock.500_steps": _train_argv(
        _LOCK, ".17g", "--log-every", "100", "--max-steps", "500"),
    "train_student/v1024.seed_1.50_steps": _train_argv(
        _heavy_tail_1024(1), ".10g", "--max-steps", "50"),
})


# The decomposition of one student against a three-token target from T = 1 up to
# T = 1e17, where reshape and const cancel to fewer and fewer digits, and the
# refusal of a student over another alphabet.
_RESIDUE = ["decompose", "--probs", "0.5,0.3,0.2", "--student-probs", "0.2,0.3,0.5"]
ARGV_CELLS.update({
    f"decompose/residue.t_{t}": [*_RESIDUE, "--temperature", t]
    for t in ("1", "1e8", "1e12", "1e17")})
ARGV_CELLS.update({
    "decompose/residue.t_0.7.json": [*_RESIDUE, "--temperature", "0.7", "--format", "json"],
    "decompose/alphabet_mismatch": [
        "decompose", "--probs", "0.5,0.3,0.2", "--student-probs", "0.5,0.5"],
})

# decode and target on a zero and a tie cut by top-k, on a top-p boundary, on a
# tie at a temperature the greedy guard takes (decode keeps one token, target
# both), and as JSON.
for _command in ("decode", "target"):
    ARGV_CELLS.update({
        f"{_command}/zero_tie.top_k_2": [
            _command, "--probs", "0.3,0,0.3,0.2,0.2", "--top-k", "2"],
        f"{_command}/top_p_0.8": [_command, "--probs", "0.5,0.3,0.2", "--top-p", "0.8"],
        f"{_command}/tie.t_1e-6": [
            _command, "--probs", "0.4,0.4,0.2", "--temperature", "1e-6"],
        f"{_command}/zero_tie.t_0.7.json": [
            _command, "--probs", "0.3,0,0.3,0.2,0.2", "--temperature", "0.7",
            "--top-p", "0.9", "--format", "json"],
    })


@pytest.mark.parametrize("cell", sorted(ARGV_CELLS))
def test_argv_report(cell):
    expected = (ROOT / f"{cell}.txt").read_text(encoding="utf-8")
    assert _run(ARGV_CELLS[cell]) == expected


if __name__ == "__main__":
    import tempfile

    REPORTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for cell in CELLS:
            (REPORTS / f"{cell}.txt").write_text(render(cell, Path(scratch)),
                                                 encoding="utf-8")
    for cell, argv in ARGV_CELLS.items():
        path = ROOT / f"{cell}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_run(argv), encoding="utf-8")

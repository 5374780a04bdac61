"""Pinned report bytes: the stdout, stderr and exit code of each cell.

A cell is one of the seeded small dumps below (V <= 64), run by
`analyze-dump` with or without --skip-bad, as CSV or as JSON. Its expected
text is tests/reports/analyze_dump/<cell>.txt, and each cell runs under 1
and 3 forced workers, so a failure names the changed cell and the worker
count. Run this file as a script to rewrite the expected files, then list
every changed cell in CHANGES.md.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from ssdlab import cli, dump

REPORTS = Path(__file__).resolve().parent / "reports" / "analyze_dump"


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


DUMPS = {
    "bad_lines": (_bad_lines, []),
    "crlf_blank": (_crlf_blank, ["--temperature", "0.8", "--top-p", "0.9"]),
    "logits_utf8": (_logits_utf8, ["--top-k", "5"]),
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


if __name__ == "__main__":
    import tempfile

    REPORTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for cell in CELLS:
            (REPORTS / f"{cell}.txt").write_text(render(cell, Path(scratch)),
                                                 encoding="utf-8")

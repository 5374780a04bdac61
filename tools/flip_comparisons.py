"""Flip one comparison at a time in a module and run the test suite against each mutant.

A developer tool, not part of the test suite or CI. Each comparison operator in
the named modules is flipped on its own (< and <=, > and >=, == and !=), in a
copy of the checkout, and the suite runs against the mutant in a fresh Python
process. A mutant is killed when the run fails, times out, or runs fewer tests
than the unmutated suite (a mutant can end pytest early with exit 0, as a forked
child that runs on does). The survivors are printed with their line and text.

    python tools/flip_comparisons.py src/ssdlab/objective.py src/ssdlab/dump.py

Each mutant costs one run of the suite, stopped at its first failure.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=",
         ast.NotEq: "=="}
SPELLING = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
            ast.NotEq: "!="}
# left out of the copy: version control, caches and benchmark inputs
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".bench_cache", ".benchmarks")
TIMEOUT_S = 600.0  # one run of the suite past this counts as a kill


def _offset(lines: list[str], line: int, col: int) -> int:
    """The character offset in the joined lines of ast's (1-based line, UTF-8 byte column)."""
    head = lines[line - 1].encode("utf-8")[:col].decode("utf-8")
    return sum(len(text) for text in lines[:line - 1]) + len(head)


def sites(source: str) -> list[tuple[int, int, str, str]]:
    """(offset, line, old, new) of each comparison operator, in source order."""
    lines = source.splitlines(keepends=True)
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, before, after in zip(node.ops, operands, operands[1:]):
            if type(op) not in FLIPS:
                continue
            start = _offset(lines, before.end_lineno, before.end_col_offset)
            end = _offset(lines, after.lineno, after.col_offset)
            gap = source[start:end]
            # the operator is the one comparison token between the two operands
            match = re.search(r"(?<![<>=!])" + re.escape(SPELLING[type(op)]) + r"(?![=<>])",
                              gap)
            if match is None:
                raise SystemExit(f"no {SPELLING[type(op)]!r} between operands on line "
                                 f"{before.end_lineno}")
            found.append((start + match.start(), before.end_lineno,
                          SPELLING[type(op)], FLIPS[type(op)]))
    return sorted(found)


def run_suite(tree: Path) -> tuple[str, int]:
    """(outcome, tests run) of the suite in tree: "pass", "fail" or "timeout"."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", 0
    counts = re.findall(r"(\d+) (passed|failed|error|errors|skipped|xfailed|xpassed)",
                        proc.stdout.splitlines()[-1] if proc.stdout else "")
    return ("pass" if proc.returncode == 0 else "fail"), sum(int(n) for n, _ in counts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", type=Path,
                        help="module files, relative to the checkout")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="flip-") as scratch:
        tree = Path(scratch) / "checkout"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        t0 = time.perf_counter()
        outcome, baseline = run_suite(tree)
        if outcome != "pass":
            print(f"the unmutated suite does not pass ({outcome})")
            return 2
        print(f"unmutated suite: {baseline} tests in {time.perf_counter() - t0:.1f} s",
              flush=True)
        survivors = 0
        for module in args.modules:
            path = tree / module
            original = path.read_text(encoding="utf-8")
            found = sites(original)
            kept = 0
            for offset, line, old, new in found:
                path.write_text(original[:offset] + new + original[offset + len(old):],
                                encoding="utf-8")
                outcome, ran = run_suite(tree)
                if outcome == "pass" and ran < baseline:
                    outcome = f"short run ({ran} tests)"
                text = original.splitlines()[line - 1].strip()
                verdict = "SURVIVED" if outcome == "pass" else "killed"
                print(f"{module}:{line}: {old} -> {new}: {verdict} ({outcome})  {text}",
                      flush=True)
                kept += outcome == "pass"
            path.write_text(original, encoding="utf-8")
            print(f"{module}: {len(found)} sites, {kept} survived", flush=True)
            survivors += kept
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

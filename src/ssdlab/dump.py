"""The analyze-dump reader: JSON Lines records scored under one decode config.

A regular-file dump is cut at line starts into one byte range per CPU, at
most one per MiB (a pipe or FIFO is one range), and the ranges are scanned
through pool.fork_map: the process scans the first range and a forked
worker each other one. A worker scores each line as it reads it, so memory
is bounded by the largest record per worker, not by the file, and the
report does not depend on the CPU count.
"""

from __future__ import annotations

import json
import mmap
import os
from array import array

import numpy as np

from . import pool
from .categorical import Categorical, _softmax, entropy
from .decode import DecodeConfig, retained_support
from .errors import InvalidDistributionError, ParseError, SsdLabError

_NOT_NUMBERS = frozenset({bool, str, type(None)})  # JSON values a numeric field refuses
_NOT_NUMERIC = "probability field is not a numeric array"
# A boolean is looked up among the entries equal to 0 or 1 while they are at
# most 1/_LOOKUP_SHARE of a record: at V=262 144 one lookup by index took
# 60-80 ns, two to three steps of the type scan over every entry (26 ns).
_LOOKUP_SHARE = 4


def _text(raw: bytes) -> str:
    """The line raw as text, without its surrounding whitespace."""
    try:
        return raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8: {exc.reason} at byte {exc.start}")


def _numbers(field, raw: bytes, key: str) -> np.ndarray:
    """field, the value under key in the record raw, as float64.

    ParseError for a value numpy would misread or cannot read: a boolean, a
    string, null or a ragged array.
    """
    values = None
    if isinstance(field, list):
        try:
            values = np.frombuffer(array("d", field))
        except (TypeError, OverflowError):  # null, a string, a list, an int past DBL_MAX
            pass
    if values is not None:
        hits = values == 0  # true and false read as 1.0 and 0.0
        hits |= values == 1
        entries = field
        if np.count_nonzero(hits) * _LOOKUP_SHARE <= hits.size:
            entries = map(field.__getitem__, np.flatnonzero(hits).tolist())
        if not _NOT_NUMBERS.isdisjoint(map(type, entries)):
            raise ParseError(_NOT_NUMERIC)
        return values
    # numpy would read true as 1, "0.25" as 0.25 and null as NaN
    if isinstance(field, list) and not _NOT_NUMBERS.isdisjoint(map(type, field)):
        raise ParseError(_NOT_NUMERIC)
    try:
        try:
            return np.asarray(field, dtype=float)
        except OverflowError:  # an integer past DBL_MAX: read it as 1e400 reads, inf
            return np.asarray(json.loads(_text(raw), parse_int=float)[key], dtype=float)
    except (TypeError, ValueError):
        raise ParseError(_NOT_NUMERIC)


def _parse_record(raw: bytes) -> tuple[str, str, Categorical] | None:
    """One JSON Lines line as (context_id, label, probs); None for a blank line.

    A list field is read into doubles in one C pass, array("d"), which
    refuses null, strings, nested lists and integers past DBL_MAX; a field
    it refuses, or one that is not a list, takes numpy's slower path, type
    scan first, so each keeps its error. The pass reads true as 1.0 and
    false as 0.0, so only an entry equal to 0 or 1 can be a boolean, and
    only those entries' types are looked up. When more than a quarter of
    the entries are 0 or 1, every entry's type is scanned instead, which
    costs less than that many lookups.

    The line's text is let go once parsed, and the parsed list once
    converted: at V=262 144 they are about 4 and 8 MB, and holding them
    beside the record's arrays set analyze-dump's peak memory.
    """
    line = _text(raw)
    if not line:
        return None
    try:
        obj = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}")
    del line
    if not isinstance(obj, dict):
        raise ParseError("record is not a JSON object")
    if "context_id" not in obj:
        raise ParseError("missing context_id")
    has_probs = "probs" in obj
    has_logits = "logits" in obj
    if has_probs == has_logits:
        raise ParseError("record needs exactly one of probs or logits")
    key = "probs" if has_probs else "logits"
    values = _numbers(obj.pop(key), raw, key)
    if has_logits:
        if values.ndim != 1 or values.size == 0 or not np.all(np.isfinite(values)):
            raise InvalidDistributionError("logits must be a finite 1-d array")
        with np.errstate(over="ignore"):  # a span past DBL_MAX shifts to -inf, weight 0
            values = _softmax(values)
    try:
        probs = Categorical(values)
    except SsdLabError as exc:
        raise InvalidDistributionError(str(exc)) from exc
    return str(obj["context_id"]), str(obj.get("label", "")), probs


# A dump is split across CPUs by byte range, but at most one range per MiB: a
# fork plus its wait took 4.5 ms, against about 25 ms/MB of parsing.
_BYTES_PER_WORKER = 1 << 20
# Reading four 6-7.5 MB dumps line by line took 30 ms through the default 8 KiB
# buffer, 24 ms through 256 KiB and 27 ms through 1 MiB, whose buffer alone
# would outweigh a V=4096 record.
_READ_BUFFER = 1 << 18


def _line_start_near(mm: mmap.mmap, q: int) -> int:
    """The line start nearest byte q, the earlier on a tie.

    The end of a last line with no newline is not taken for a start: a
    quantile nearer to it than to the line's start has a lower quantile in
    the same line, which cuts at that start, so the cuts come out the same.
    """
    before = mm.rfind(b"\n", 0, q) + 1  # 0 if no line ends before q
    after = mm.find(b"\n", q - 1, 2 * q - before - 1)  # only a nearer start
    return after + 1 if after >= 0 else before


def _dump_ranges(path: str) -> list[tuple[int, int | None]]:
    """[start, end) byte ranges of the dump, one per worker; end None reads to EOF.

    A regular file gets one range per CPU, at most one per _BYTES_PER_WORKER,
    cut at the line starts nearest to equal byte shares; a cut that falls at
    0 or EOF is dropped, and shares whose nearest line starts coincide are
    one range. Anything else (a pipe or FIFO, /dev/stdin fed by one, a path
    open() will refuse, an empty file) is one range.
    """
    try:
        size = os.path.getsize(path) if os.path.isfile(path) else 0
    except OSError:  # open() reports the path
        size = 0
    workers = min(pool.cpus(), size // _BYTES_PER_WORKER)
    if workers < 2:
        return [(0, None)]
    share = size // workers
    with open(path, "rb") as fh:
        try:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # an empty file cannot be mapped
            return [(0, None)]
    with mm:
        cuts = {_line_start_near(mm, k * share) for k in range(1, workers)} - {0, len(mm)}
    bounds = [0, *sorted(cuts), None]
    return list(zip(bounds, bounds[1:]))


def _scan_dump(path: str, start: int, end: int | None, cfg: DecodeConfig):
    """(outcomes, stop): one outcome per line starting in [start, end), and the
    error that cut the scan short, if any.

    A line's outcome is its report row, its problem (a str), None for a blank
    line, or the error its scoring raised. No row past a scoring error can be
    reported (the error is raised, or an earlier problem stops the report),
    so later lines are only parsed, for their problems.
    """
    outcomes, scoring = [], True
    try:
        # JSON Lines: UTF-8 lines split on \n alone
        with open(path, "rb", buffering=_READ_BUFFER) as fh:
            if start:
                fh.seek(start)
            pos = start
            for raw in fh:
                pos += len(raw)
                try:
                    outcome = _parse_record(raw)
                except SsdLabError as exc:
                    outcome = str(exc)
                if isinstance(outcome, tuple):  # a record, scored to its report row
                    try:
                        outcome = _dump_row(*outcome, cfg) if scoring else None
                    except Exception as exc:
                        outcome, scoring = exc, False
                outcomes.append(outcome)
                if end is not None and pos >= end:
                    break
    except Exception as exc:
        return outcomes, exc
    return outcomes, None


def _dump_row(context_id: str, label: str, probs: Categorical, cfg: DecodeConfig):
    rs = retained_support(probs, cfg)
    p = probs.probs
    top = p.size - min(20, p.size)  # the 20 largest, summed in descending order
    top20 = float(np.sort(np.partition(p, top)[top:])[::-1].sum())
    return (context_id, label, len(rs.support), rs.kept_mass,
            entropy(rs.operational), entropy(probs), top20)


def analyze(path: str, cfg: DecodeConfig, skip_bad: bool) -> tuple[list[tuple], list[str]]:
    """(rows, skipped): each record's report row and each bad line's
    "line N: reason", in line order, as one reader would meet them.

    Raises the ParseError that lists every bad line unless skip_bad, the
    first scoring error in line order, or the error that stopped a scan.
    """
    rows, problems, lineno = [], [], 0
    ranges = _dump_ranges(path)
    for outcomes, stop in pool.fork_map(lambda r: _scan_dump(path, *r, cfg), ranges):
        for outcome in outcomes:
            lineno += 1
            if isinstance(outcome, str):
                problems.append(f"line {lineno}: {outcome}")
            elif outcome is None or (problems and not skip_bad):  # no report will be written
                continue
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                rows.append(outcome)
        if stop is not None:
            raise stop
    if problems and not skip_bad:
        raise ParseError("; ".join(problems))
    return rows, problems

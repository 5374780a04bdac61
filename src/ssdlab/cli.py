"""Command-line driver: subcommands, config files, dump analysis, reports.

Every run is a pure function of its flags (plus an explicit seed where
sampling is involved), emitted as CSV or JSON with 9-significant-digit
numbers, so identical invocations produce byte-identical outputs. Exit
codes: 0 success, 1 usage/validation error (nothing written), 2
computation or I/O error.

analyze-dump cuts a regular-file dump at line starts into one byte range
per CPU, at most one per MiB (a pipe or FIFO is one range), and scans them
through pool.fork_map: the process scans the first range and a forked
worker each other one. A worker scores each line as it reads it, so memory
is bounded by the largest record per worker, not by the file, and the
report does not depend on the CPU count. toy-mc's batches are split the
same way, inside toyfsm.monte_carlo_success.

entry() freezes the heap the imports left (gc.freeze), so no later full
collection, the one at interpreter exit included, walks it again.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import mmap
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import pool, toyfsm
from .categorical import Categorical, _softmax, entropy, normalize
from .decode import (
    DecodeConfig,
    argmax_token,
    greedy_guard,
    retained_support,
)
from .errors import (
    EmptyReportError,
    InvalidDistributionError,
    IoError,
    ParseError,
    SsdLabError,
)
from .objective import _student_steps, _support_terms, kept_mass, ssd_target
from .sensitivity import (
    entropy_decomposition,
    entropy_temperature_response,
    escort_distribution,
    feasible_topp_interval,
    prefix_mass_curve,
    set_mass_log_sensitivity,
)
from .toyfsm import _grid_too_long

_UNSET = object()

# Contractual column orders; tests compare these headers byte for byte.
SWEEP_HEADER = ["temperature", "top_p", "teacher_success", "student_success", "gap"]
DECOMPOSITION_HEADER = [
    "step", "total", "gate", "reshape", "align", "on_support_tv", "off_support_mass",
]
DUMP_HEADER = [
    "context_id", "label", "kept_count", "kept_mass",
    "head_entropy", "total_entropy", "top20_mass",
]


# ---------------------------------------------------------------------------
# flag plumbing

# Converters raise ArgumentTypeError, whose message argparse prints as the reason.

def _numbers(text: str, convert, noun: str) -> list:
    try:
        values = [convert(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of {noun}")
    return values


def _floats(text: str) -> list[float]:
    return _numbers(text, float, "numbers")


def _ints(text: str) -> list[int]:
    return _numbers(text, int, "integers")


def _grid(text: str) -> list[float]:
    """Either comma-separated values or an inclusive lo:hi:step range."""
    if ":" not in text:
        return _floats(text)
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
        valid = bool(np.isfinite([lo, hi, step]).all()) and step > 0 and hi >= lo
    except ValueError:  # not three numbers
        valid = False
    if not valid:
        raise argparse.ArgumentTypeError(f"range {text} must be lo:hi:step, three finite "
                                         "numbers with step > 0 and hi >= lo")
    if _grid_too_long(lo, hi, step):  # refused before arange allocates
        raise argparse.ArgumentTypeError(
            f"range {text} holds more than {toyfsm.GRID_MAX_POINTS} points"
        )
    return [float(t) for t in np.arange(lo, hi + step / 2, step)]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _positive(x) -> bool:
    return x > 0


def _non_negative(x) -> bool:
    return x >= 0


def _unit_interval(x) -> bool:
    return 0.0 < x <= 1.0


def _positive_finite(x) -> bool:
    return 0 < x < np.inf


def _open_unit(x) -> bool:
    return 0.0 < x < 1.0


def _all_positive(xs) -> bool:
    return all(x > 0 for x in xs)


def _all_unit(xs) -> bool:
    return all(0.0 < x <= 1.0 for x in xs)


@dataclass(frozen=True)
class Flag:
    """One CLI option: converter, default, range check, and help text."""

    name: str  # long option, e.g. "--top-p"
    convert: Callable[[str], Any] | None
    default: Any = None
    help: str = ""
    required: bool = False
    is_switch: bool = False
    choices: tuple[str, ...] | None = None
    check: Callable[[Any], bool] | None = None
    check_msg: str = ""

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


_OUTPUT_FLAGS = [
    Flag("--output", str, "-", "output path ('-' for stdout)"),
    Flag("--format", str, "csv", "output format", choices=("csv", "json")),
    Flag("--config", str, None, "key=value config file; flags win on conflict"),
]

_DECODE_CONFIG_FLAGS = [
    Flag("--temperature", float, 1.0, "decode temperature",
         check=_positive, check_msg="temperature must be > 0"),
    Flag("--top-k", int, 0, "top-k cutoff (0 disables)",
         check=_non_negative, check_msg="top-k must be >= 0"),
    Flag("--top-p", float, 1.0, "top-p threshold (1 disables)",
         check=_unit_interval, check_msg="top-p must lie in (0, 1]"),
]

_DECODE_FLAGS = [
    Flag("--probs", _floats, None, "token weights, comma separated", required=True),
    *_DECODE_CONFIG_FLAGS,
]

_TRAIN_FLAGS = [
    Flag("--learning-rate", float, 0.5, "gradient descent step size",
         check=_positive_finite, check_msg="learning-rate must be finite and > 0"),
    Flag("--max-steps", int, 100_000, "iteration cap",
         check=_non_negative, check_msg="max-steps must be >= 0"),
    Flag("--tv-tolerance", float, 1e-6, "on-support TV stopping threshold",
         check=_positive, check_msg="tv-tolerance must be > 0"),
    Flag("--log-every", int, 1, "record every Nth step (last step always kept)",
         check=_positive, check_msg="log-every must be >= 1"),
]

_SENSITIVITY_FLAGS = [
    Flag("--mode", str, "escort", "analysis mode",
         choices=("escort", "entropy", "curve", "feasible")),
    Flag("--probs", _floats, None, "token weights for escort/entropy/curve modes"),
    Flag("--support", _ints, None, "support index set (default: full alphabet)"),
    Flag("--gamma", float, 1.0, "escort exponent",
         check=_positive_finite, check_msg="gamma must be finite and > 0"),
    Flag("--event", _ints, None, "event index set inside the support"),
    Flag("--tau", float, 1.0, "evaluation temperature",
         check=_positive, check_msg="tau must be > 0"),
    Flag("--k", int, 0, "prefix length (0 = all positive tokens)",
         check=_non_negative, check_msg="k must be >= 0"),
    Flag("--lock-probs", _floats, None, "lock-side weights (feasible mode)"),
    Flag("--fork-probs", _floats, None, "fork-side weights (feasible mode)"),
    Flag("--lock-rank", int, 1, "required lock rank",
         check=_positive, check_msg="lock-rank must be >= 1"),
    Flag("--fork-rank", int, 2, "required fork rank",
         check=_positive, check_msg="fork-rank must be >= 1"),
]

_FSM_FLAGS = [
    Flag("--tail-ratio", float, toyfsm.DEFAULT_TAIL_RATIO, "geometric tail ratio",
         check=_open_unit, check_msg="tail-ratio must lie in (0, 1)"),
    Flag("--lock-head", _floats, list(toyfsm.LOCK_HEAD), "lock head values"),
    Flag("--fork-head", _floats, list(toyfsm.FORK_HEAD), "fork head values"),
    Flag("--root-head", _floats, list(toyfsm.ROOT_HEAD), "root head values"),
    Flag("--vocab-size", int, toyfsm.VOCAB_SIZE, "alphabet size",
         check=lambda v: v >= 2, check_msg="vocab-size must be >= 2"),
    Flag("--n-locks", int, toyfsm.DEFAULT_N_LOCKS, "lock states per path",
         check=_positive, check_msg="n-locks must be >= 1"),
    Flag("--t-train", float, 0.9, "distillation training temperature",
         check=_positive, check_msg="t-train must be > 0"),
    Flag("--train-top-p", float, 0.85, "distillation training top-p",
         check=_unit_interval, check_msg="train-top-p must lie in (0, 1]"),
]

_ROLE_FLAG = Flag("--role", str, "teacher", "which machine to evaluate",
                  choices=("teacher", "student"))

_EVAL_TOP_P_FLAG = Flag("--top-p", float, 0.80, "evaluation top-p",
                        check=_unit_interval, check_msg="top-p must lie in (0, 1]")

_T_BOUND_FLAGS = [
    Flag("--t-min", float, 0.05, "lower temperature bound",
         check=_positive_finite, check_msg="t-min must be finite and > 0"),
    Flag("--t-max", float, 5.0, "upper temperature bound",
         check=_positive_finite, check_msg="t-max must be finite and > 0"),
]

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # validation failures must exit 1, not argparse's default 2
    def error(self, message: str):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="ssdlab", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in SUBCOMMANDS.items():
        sub = subs.add_parser(name)
        for flag in flags + _OUTPUT_FLAGS:
            if flag.is_switch:
                sub.add_argument(flag.name, action="store_true", default=_UNSET,
                                 help=flag.help)
            else:
                sub.add_argument(flag.name, type=flag.convert, default=_UNSET,
                                 choices=flag.choices, help=flag.help)
    return parser


def load_config(path: str) -> dict[str, str]:
    """Read a flat key = value file; # starts a comment, blank lines ignored."""
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _UsageError(f"config line {lineno}: expected key = value")
            key, value = line.split("=", 1)
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def resolve_args(ns: argparse.Namespace) -> dict[str, Any]:
    """Merge CLI values, config file values, and declared defaults; validate ranges."""
    _, command_flags = SUBCOMMANDS[ns.command]
    flags = command_flags + _OUTPUT_FLAGS
    by_dest = {flag.dest: flag for flag in flags}
    config: dict[str, str] = {}
    config_path = getattr(ns, "config")
    if config_path is not _UNSET and config_path is not None:
        try:
            config = load_config(config_path)
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read config file: {exc}")
        unknown = set(config) - set(by_dest)
        if unknown:
            raise _UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    resolved: dict[str, Any] = {"command": ns.command}
    for flag in flags:
        value = getattr(ns, flag.dest)
        if value is _UNSET:
            if flag.dest in config:
                raw = config[flag.dest]
                try:
                    if flag.is_switch:
                        value = _parse_bool(raw)
                    else:
                        value = flag.convert(raw)
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise _UsageError(f"config key {flag.dest}: {exc}")
                if flag.choices and value not in flag.choices:
                    raise _UsageError(
                        f"config key {flag.dest}: must be one of {flag.choices}"
                    )
            else:
                value = flag.default
        if value is None and flag.required:
            raise _UsageError(f"missing required option {flag.name}")
        if value is not None and flag.check is not None and not flag.check(value):
            raise _UsageError(flag.check_msg)
        resolved[flag.dest] = value
    return resolved


# ---------------------------------------------------------------------------
# report emission

def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value) + 0.0:.9g}"  # +0.0 folds -0.0 into 0
    return str(value)


def _json_value(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(_cell(value))
    return str(value)


def emit_report(rows, fmt: str, path: str, header: list[str]) -> None:
    """Write rows as CSV or JSON with 9-significant-digit numbers."""
    if not rows:
        raise EmptyReportError("no rows to report")
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        text = buffer.getvalue()
    else:
        payload = [dict(zip(header, (_json_value(v) for v in row))) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# dump records

_NOT_NUMBERS = frozenset({bool, str, type(None)})  # JSON values a numeric field refuses


def _parse_record(raw: bytes) -> tuple[str, str, Categorical] | None:
    """One JSON Lines line as (context_id, label, probs); None for a blank line."""
    try:
        line = raw.decode("utf-8").strip()
    except UnicodeDecodeError as exc:
        raise ParseError(f"invalid UTF-8: {exc.reason} at byte {exc.start}")
    if not line:
        return None
    try:
        obj = json.loads(line)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}")
    if not isinstance(obj, dict):
        raise ParseError("record is not a JSON object")
    if "context_id" not in obj:
        raise ParseError("missing context_id")
    has_probs = "probs" in obj
    has_logits = "logits" in obj
    if has_probs == has_logits:
        raise ParseError("record needs exactly one of probs or logits")
    key = "probs" if has_probs else "logits"
    field = obj[key]
    # numpy would read true as 1, "0.25" as 0.25 and null as NaN
    if isinstance(field, list) and not _NOT_NUMBERS.isdisjoint(map(type, field)):
        raise ParseError("probability field is not a numeric array")
    try:
        try:
            values = np.asarray(field, dtype=float)
        except OverflowError:  # an integer past DBL_MAX: read it as 1e400 reads, inf
            values = np.asarray(json.loads(line, parse_int=float)[key], dtype=float)
    except (TypeError, ValueError):
        raise ParseError("probability field is not a numeric array")
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


# ---------------------------------------------------------------------------
# subcommand runners

def _decode_config(args) -> DecodeConfig:
    return DecodeConfig(
        temperature=args["temperature"], top_k=args["top_k"], top_p=args["top_p"]
    )


def _retained_rows(p0: Categorical, args) -> list[tuple]:
    """(token, base prob, operational prob) over the retained support, in rank order.

    ssd_target's q is this operational distribution on this support, so the
    target report shares these rows.
    """
    rs = retained_support(p0, _decode_config(args))
    return [(v, float(p0.probs[v]), float(rs.operational.probs[v])) for v in rs.support]


def _run_decode(args):
    p0 = normalize(args["probs"])
    header = ["token", "base_prob", "operational_prob"]
    if greedy_guard(args["temperature"]):
        token = argmax_token(p0)
        return header, [(token, float(p0.probs[token]), 1.0)]
    return header, _retained_rows(p0, args)


def _run_target(args):
    rows = _retained_rows(normalize(args["probs"]), args)
    return ["token", "base_prob", "target_prob"], rows


def _decomposition_row(target, probs, step: int, p_sum: float = 1.0):
    """One report row from the student's raw probability array divided by p_sum."""
    bd, km, cond, q = _support_terms(target, probs, p_sum)
    tv = 0.5 * float(np.abs(cond - q).sum())
    return step, bd.total, bd.gate, bd.reshape, bd.align, tv, 1.0 - km


def _run_decompose(args):
    p0 = normalize(args["probs"])
    student = args["student_probs"]
    p_theta = p0 if student is None else normalize(student)
    target = ssd_target(p0, _decode_config(args))
    return DECOMPOSITION_HEADER, [_decomposition_row(target, p_theta.probs, 0)]


def _run_train_student(args):
    target = ssd_target(normalize(args["probs"]), _decode_config(args))
    every, tol, rows = args["log_every"], args["tv_tolerance"], []
    steps = _student_steps(target, args["learning_rate"], args["max_steps"], tol)
    for step, (stop, _, p, _, tv, _) in enumerate(steps):
        if step % every == 0 or stop:  # the last step is always kept
            # the step's softmax renormalized as a Categorical is, on the support only
            rows.append(_decomposition_row(target, p, step, np.add.reduce(p, axis=None)))
    if stop == "step_cap":
        print(f"warning: train-student stopped at the step cap of {args['max_steps']} "
              f"with on-support TV {tv:.3g}, above the tolerance {tol:.3g}",
              file=sys.stderr)
    return DECOMPOSITION_HEADER, rows


def _run_sensitivity(args):
    mode = args["mode"]
    if mode == "feasible":
        if args["lock_probs"] is None or args["fork_probs"] is None:
            raise _UsageError("feasible mode requires --lock-probs and --fork-probs")
        lock_p = normalize(args["lock_probs"])
        fork_p = normalize(args["fork_probs"])
        k = args["k"]
        if k == 0:
            k = min(
                int((lock_p.probs > 0).sum()), int((fork_p.probs > 0).sum())
            )
        report = feasible_topp_interval(
            lock_p, args["lock_rank"], fork_p, args["fork_rank"], args["tau"], k
        )
        header = ["tau", "k", "lock_rank", "fork_rank", "lower", "upper", "feasible"]
        row = (
            report.tau, report.k, args["lock_rank"], args["fork_rank"],
            report.lower, report.upper, report.feasible,
        )
        return header, [row]
    if args["probs"] is None:
        raise _UsageError(f"{mode} mode requires --probs")
    p0 = normalize(args["probs"])
    members = np.arange(p0.alphabet_size) if args["support"] is None else args["support"]
    if mode == "escort":
        gamma = args["gamma"]
        pi = escort_distribution(p0, members, gamma)
        response = entropy_temperature_response(p0, members, 1.0 / gamma)
        header = [
            "gamma", "escort_entropy", "entropy_response",
            "event_mass", "event_log_sensitivity",
        ]
        if args["event"] is None:
            return header, [(gamma, entropy(pi), response, "", "")]
        event = args["event"]
        slope = set_mass_log_sensitivity(p0, members, gamma, event)  # validates the event
        return header, [(gamma, entropy(pi), response, kept_mass(pi, event), slope)]
    if mode == "entropy":
        breakdown = entropy_decomposition(p0, members)
        km = kept_mass(p0, members)
        header = ["kept_mass", "gate_entropy", "head_entropy", "tail_entropy", "total"]
        return header, [(
            km, breakdown.gate_entropy, breakdown.head_entropy,
            breakdown.tail_entropy, breakdown.total,
        )]
    # curve
    k = args["k"]
    if k == 0:
        k = int((p0.probs > 0).sum())
    curve = prefix_mass_curve(p0, args["tau"], k)
    return ["rank", "prefix_mass"], [(m + 1, float(curve[m])) for m in range(k)]


def _build_machines(args) -> tuple[toyfsm.Fsm, toyfsm.Fsm]:
    teacher = toyfsm.build_toy_fsm(
        tail_ratio=args["tail_ratio"],
        lock_head=args["lock_head"],
        fork_head=args["fork_head"],
        root_head=args["root_head"],
        vocab_size=args["vocab_size"],
        n_locks=args["n_locks"],
    )
    student = toyfsm.distill_fsm(teacher, args["t_train"], args["train_top_p"])
    return teacher, student


def _t_bounds(args) -> tuple[float, float]:
    if not args["t_min"] < args["t_max"]:
        raise _UsageError("t-min must be below t-max")
    return args["t_min"], args["t_max"]


def _run_toy_sweep(args):
    teacher, student = _build_machines(args)
    sweep = toyfsm.temperature_sweep(teacher, student, args["t_grid"], args["top_p"])
    # a row's fields in declaration order, which is the column order; astuple
    # would deep-copy them, about 10 us a row on a 100 000-point grid
    return SWEEP_HEADER, [tuple(vars(r).values()) for r in sweep]


def _run_toy_optimize(args):
    bounds = _t_bounds(args)
    teacher, student = _build_machines(args)
    fsm = teacher if args["role"] == "teacher" else student
    t_star, p_star = toyfsm.optimize_temperature(fsm, args["top_p"], bounds)
    header = ["role", "top_p", "t_star", "p_star"]
    return header, [(args["role"], args["top_p"], t_star, p_star)]


def _run_toy_grid(args):
    bounds = _t_bounds(args)
    teacher, student = _build_machines(args)
    rows = toyfsm.topp_robustness_grid(teacher, student, args["top_p"], bounds)
    header = [
        "top_p", "teacher_t_star", "teacher_p_star",
        "student_t_star", "student_p_star", "gap_pp",
    ]
    return header, [tuple(vars(r).values()) for r in rows]


def _run_toy_mc(args):
    teacher, student = _build_machines(args)
    fsm = teacher if args["role"] == "teacher" else student
    n, seed = args["n"], args["seed"]
    result = toyfsm.monte_carlo_success(fsm, args["temperature"], args["top_p"], n, seed)
    exact = toyfsm.exact_success(fsm, args["temperature"], args["top_p"])
    header = [
        "role", "temperature", "top_p", "n", "seed",
        "estimate", "stderr", "exact", "abs_error",
    ]
    row = (
        args["role"], args["temperature"], args["top_p"], n, seed,
        result.estimate, result.stderr, exact, abs(result.estimate - exact),
    )
    return header, [row]


# ---------------------------------------------------------------------------
# dump scanning

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


def _run_analyze_dump(args):
    skip_bad, rows, problems, lineno = args["skip_bad"], [], [], 0
    path, cfg = args["input"], _decode_config(args)
    ranges = _dump_ranges(path)
    for outcomes, stop in pool.fork_map(lambda r: _scan_dump(path, *r, cfg), ranges):
        for outcome in outcomes:  # replayed in line order, as one reader would meet them
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
    for problem in problems:
        print(f"warning: skipped {problem}", file=sys.stderr)
    return DUMP_HEADER, rows


# The one command table: each command's runner and its flags (every command
# also takes _OUTPUT_FLAGS). A runner maps the resolved flags to (header, rows).
SUBCOMMANDS: dict[str, tuple[Callable[[dict], tuple[list[str], list]], list[Flag]]] = {
    "decode": (_run_decode, _DECODE_FLAGS),
    "target": (_run_target, _DECODE_FLAGS),
    "decompose": (_run_decompose, _DECODE_FLAGS + [
        Flag("--student-probs", _floats, None,
             "student weights (default: same as --probs)"),
    ]),
    "train-student": (_run_train_student, _DECODE_FLAGS + _TRAIN_FLAGS),
    "sensitivity": (_run_sensitivity, _SENSITIVITY_FLAGS),
    "toy-sweep": (_run_toy_sweep, _FSM_FLAGS + [
        Flag("--t-grid", _grid, None, "temperatures: list or lo:hi:step",
             required=True, check=_all_positive,
             check_msg="t-grid entries must be > 0"),
        _EVAL_TOP_P_FLAG,
    ]),
    "toy-optimize": (_run_toy_optimize, _FSM_FLAGS + [
        _ROLE_FLAG,
        _EVAL_TOP_P_FLAG,
        *_T_BOUND_FLAGS,
    ]),
    "toy-grid": (_run_toy_grid, _FSM_FLAGS + [
        Flag("--top-p", _floats, [0.65, 0.70, 0.75, 0.80, 0.85, 0.90],
             "top-p values, comma separated",
             check=_all_unit, check_msg="top-p values must lie in (0, 1]"),
        *_T_BOUND_FLAGS,
    ]),
    "toy-mc": (_run_toy_mc, _FSM_FLAGS + [
        _ROLE_FLAG,
        Flag("--temperature", float, None, "evaluation temperature", required=True,
             check=_positive, check_msg="temperature must be > 0"),
        _EVAL_TOP_P_FLAG,
        Flag("--n", int, 1_000_000, "trajectory count",
             check=_positive, check_msg="n must be >= 1"),
        Flag("--seed", int, 0, "random seed",
             check=_non_negative, check_msg="seed must be >= 0"),
    ]),
    "analyze-dump": (_run_analyze_dump, [
        Flag("--input", str, None, "line-delimited record file", required=True),
        Flag("--skip-bad", None, False, "skip malformed lines instead of aborting",
             is_switch=True),
        *_DECODE_CONFIG_FLAGS,
    ]),
}


def main(argv=None) -> int:
    try:
        args = resolve_args(build_parser().parse_args(argv))
        runner, _ = SUBCOMMANDS[args["command"]]
        header, rows = runner(args)
        emit_report(rows, args["format"], args["output"], header)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SsdLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    # the imports' objects, numpy's most of all, are left out of every later
    # full collection, the one at interpreter exit included
    gc.freeze()
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()

"""Command-line driver: subcommands, config files, dump analysis, reports.

Every run is a pure function of its flags (plus an explicit seed where
sampling is involved), emitted as CSV or JSON with 9-significant-digit
numbers, so identical invocations produce byte-identical outputs. Exit
codes: 0 success, 1 usage/validation error (nothing written), 2
computation or I/O error. A runner turns flags into library calls and
their results into rows; train-student's rows come whole from objective.

A process that forks follows CPython's gc.freeze recipe: run as __main__
(`python -m ssdlab.cli`), this module disables the cyclic collector before
its first other import, so no collection walks the import heap as it
grows. entry() freezes the heap the imports left (gc.freeze), so no later
full collection, the one at interpreter exit included, walks it again,
then enables the collector before main() runs. The console script and
library importers import this module without __main__ and keep their
collector throughout.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # before numpy's import; entry() enables it again

import argparse
import csv
import io
import sys
from functools import partial
from typing import Any, Callable, NamedTuple

import numpy as np

# Every command uses these three modules. A runner imports the others it uses,
# so a process loads only what its subcommand runs.
from .categorical import Categorical, entropy, normalize
from .decode import (
    DecodeConfig,
    _check_count,
    _check_finite_positive,
    _check_open_unit,
    _check_positive,
    _check_unit,
    argmax_token,
    greedy_guard,
    retained_support,
)
from .errors import EmptyReportError, IoError, SsdLabError

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
    from .toyfsm import GRID_MAX_POINTS, _grid_too_long

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
            f"range {text} holds more than {GRID_MAX_POINTS} points"
        )
    return [float(t) for t in np.arange(lo, hi + step / 2, step)]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


class Flag(NamedTuple):
    """One CLI option: converter, default, help text, and range check, a decode
    checker that resolve_args runs as check(name without dashes, value)."""

    name: str  # long option, e.g. "--top-p"
    convert: Callable[[str], Any] | None  # None for a switch, which takes no value
    default: Any = None
    help: str = ""
    required: bool = False
    choices: tuple[str, ...] | None = None
    check: Callable[[str, Any], None] | None = None

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


_OUTPUT_FLAGS = [
    Flag("--output", str, "-", "output path ('-' for stdout)"),
    Flag("--format", str, "csv", "output format", choices=("csv", "json")),
    Flag("--config", str, None, "key=value config file; flags win on conflict"),
]

_DECODE_CONFIG_FLAGS = [
    Flag("--temperature", float, 1.0, "decode temperature", check=_check_positive),
    Flag("--top-k", int, 0, "top-k cutoff (0 disables)",
         check=partial(_check_count, minimum=0)),
    Flag("--top-p", float, 1.0, "top-p threshold (1 disables)", check=_check_unit),
]

_DECODE_FLAGS = [
    Flag("--probs", _floats, None, "token weights, comma separated", required=True),
    *_DECODE_CONFIG_FLAGS,
]

_TRAIN_FLAGS = [
    Flag("--learning-rate", float, 0.5, "gradient descent step size",
         check=_check_finite_positive),
    Flag("--max-steps", int, 100_000, "iteration cap",
         check=partial(_check_count, minimum=0)),
    Flag("--tv-tolerance", float, 1e-6, "on-support TV stopping threshold",
         check=_check_positive),
    Flag("--log-every", int, 1, "record every Nth step (last step always kept)",
         check=partial(_check_count, minimum=1)),
]

_SENSITIVITY_FLAGS = [
    Flag("--mode", str, "escort", "analysis mode",
         choices=("escort", "entropy", "curve", "feasible")),
    Flag("--probs", _floats, None, "token weights for escort/entropy/curve modes"),
    Flag("--support", _ints, None, "support index set (default: full alphabet)"),
    Flag("--gamma", float, 1.0, "escort exponent", check=_check_finite_positive),
    Flag("--event", _ints, None, "event index set inside the support"),
    Flag("--tau", float, 1.0, "evaluation temperature", check=_check_positive),
    Flag("--k", int, 0, "prefix length (0 = all positive tokens)",
         check=partial(_check_count, minimum=0)),
    Flag("--lock-probs", _floats, None, "lock-side weights (feasible mode)"),
    Flag("--fork-probs", _floats, None, "fork-side weights (feasible mode)"),
    Flag("--lock-rank", int, 1, "required lock rank",
         check=partial(_check_count, minimum=1)),
    Flag("--fork-rank", int, 2, "required fork rank",
         check=partial(_check_count, minimum=1)),
]

# The machine's shape; a flag left unset stays None and build_toy_fsm applies
# its own default.
_SHAPE_FLAGS = [
    Flag("--tail-ratio", float, None, "geometric tail ratio", check=_check_open_unit),
    Flag("--lock-head", _floats, None, "lock head values"),
    Flag("--fork-head", _floats, None, "fork head values"),
    Flag("--root-head", _floats, None, "root head values"),
    Flag("--vocab-size", int, None, "alphabet size",
         check=partial(_check_count, minimum=2)),
    Flag("--n-locks", int, None, "lock states per path",
         check=partial(_check_count, minimum=1)),
]

_FSM_FLAGS = [
    *_SHAPE_FLAGS,
    Flag("--t-train", float, 0.9, "distillation training temperature",
         check=_check_positive),
    Flag("--train-top-p", float, 0.85, "distillation training top-p", check=_check_unit),
]

_ROLE_FLAG = Flag("--role", str, "teacher", "which machine to evaluate",
                  choices=("teacher", "student"))

_EVAL_TOP_P_FLAG = Flag("--top-p", float, 0.80, "evaluation top-p", check=_check_unit)

_T_BOUND_FLAGS = [
    Flag("--t-min", float, 0.05, "lower temperature bound", check=_check_finite_positive),
    Flag("--t-max", float, 5.0, "upper temperature bound", check=_check_finite_positive),
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
            if flag.convert is None:
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
                    value = (flag.convert or _parse_bool)(raw)
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
        if value is not None and flag.check is not None:
            try:
                for entry in value if isinstance(value, list) else [value]:
                    flag.check(flag.name[2:], entry)
            except SsdLabError as exc:
                raise _UsageError(str(exc)) from None
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
        import json  # only a JSON report loads it

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


def _run_decompose(args):
    from .objective import _decomposition_rows, _support_row, ssd_target

    p0 = normalize(args["probs"])
    student = args["student_probs"]
    p_theta = p0 if student is None else normalize(student)
    target = ssd_target(p0, _decode_config(args))
    return DECOMPOSITION_HEADER, list(
        _decomposition_rows(target, _support_row(target, p_theta.probs), [0]))


def _run_train_student(args):
    from .objective import _logged_rows, ssd_target

    target = ssd_target(normalize(args["probs"]), _decode_config(args))
    tol = args["tv_tolerance"]
    rows, stop, tv = _logged_rows(target, args["learning_rate"], args["max_steps"], tol,
                                  args["log_every"])
    if stop == "step_cap":
        print(f"warning: train-student stopped at the step cap of {args['max_steps']} "
              f"with on-support TV {tv:.3g}, above the tolerance {tol:.3g}",
              file=sys.stderr)
    return DECOMPOSITION_HEADER, rows


def _run_sensitivity(args):
    from .objective import kept_mass
    from .sensitivity import (
        entropy_decomposition,
        entropy_temperature_response,
        escort_distribution,
        feasible_topp_interval,
        prefix_mass_curve,
        set_mass_log_sensitivity,
    )

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


def _build_machines(args):
    from . import toyfsm

    shape = {f.dest: args[f.dest] for f in _SHAPE_FLAGS if args[f.dest] is not None}
    teacher = toyfsm.build_toy_fsm(**shape)
    student = toyfsm.distill_fsm(teacher, args["t_train"], args["train_top_p"])
    return teacher, student


def _t_bounds(args) -> tuple[float, float]:
    if not args["t_min"] < args["t_max"]:
        raise _UsageError("t-min must be below t-max")
    return args["t_min"], args["t_max"]


def _run_toy_sweep(args):
    from . import toyfsm

    teacher, student = _build_machines(args)
    sweep = toyfsm.temperature_sweep(teacher, student, args["t_grid"], args["top_p"])
    # a row's fields in declaration order, which is the column order; astuple
    # would deep-copy them, about 10 us a row on a 100 000-point grid
    return SWEEP_HEADER, [tuple(vars(r).values()) for r in sweep]


def _run_toy_optimize(args):
    from . import toyfsm

    bounds = _t_bounds(args)
    teacher, student = _build_machines(args)
    fsm = teacher if args["role"] == "teacher" else student
    t_star, p_star = toyfsm.optimize_temperature(fsm, args["top_p"], bounds)
    header = ["role", "top_p", "t_star", "p_star"]
    return header, [(args["role"], args["top_p"], t_star, p_star)]


def _run_toy_grid(args):
    from . import toyfsm

    bounds = _t_bounds(args)
    teacher, student = _build_machines(args)
    rows = toyfsm.topp_robustness_grid(teacher, student, args["top_p"], bounds)
    header = [
        "top_p", "teacher_t_star", "teacher_p_star",
        "student_t_star", "student_p_star", "gap_pp",
    ]
    return header, [tuple(vars(r).values()) for r in rows]


def _run_toy_mc(args):
    from . import toyfsm

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


def _run_analyze_dump(args):
    from . import dump

    rows, skipped = dump.analyze(args["input"], _decode_config(args), args["skip_bad"])
    for problem in skipped:
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
             required=True, check=_check_positive),
        _EVAL_TOP_P_FLAG,
    ]),
    "toy-optimize": (_run_toy_optimize, _FSM_FLAGS + [
        _ROLE_FLAG,
        _EVAL_TOP_P_FLAG,
        *_T_BOUND_FLAGS,
    ]),
    "toy-grid": (_run_toy_grid, _FSM_FLAGS + [
        Flag("--top-p", _floats, [0.65, 0.70, 0.75, 0.80, 0.85, 0.90],
             "top-p values, comma separated", check=_check_unit),
        *_T_BOUND_FLAGS,
    ]),
    "toy-mc": (_run_toy_mc, _FSM_FLAGS + [
        _ROLE_FLAG,
        Flag("--temperature", float, None, "evaluation temperature", required=True,
             check=_check_positive),
        _EVAL_TOP_P_FLAG,
        Flag("--n", int, 1_000_000, "trajectory count",
             check=partial(_check_count, minimum=1)),
        Flag("--seed", int, 0, "random seed", check=partial(_check_count, minimum=0)),
    ]),
    "analyze-dump": (_run_analyze_dump, [
        Flag("--input", str, None, "line-delimited record file", required=True),
        Flag("--skip-bad", None, False, "skip malformed lines instead of aborting"),
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
    gc.enable()  # off since the imports when this module runs as __main__
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()

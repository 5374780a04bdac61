"""Command-line surface: schemas, determinism, config merging, exit codes."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ssdlab import (
    Categorical,
    DecodeConfig,
    entropy,
    exact_success,
    gumbel_max_sample,
    normalize,
    rank_descending,
    retained_support,
    ssd_target,
)
from ssdlab import dump, objective, toyfsm
from ssdlab.categorical import _softmax
from ssdlab.cli import (
    DECOMPOSITION_HEADER,
    DUMP_HEADER,
    SUBCOMMANDS,
    SWEEP_HEADER,
    _cell,
    _grid,
    _run_analyze_dump,
    build_parser,
    emit_report,
    main,
    resolve_args,
)
from ssdlab.dump import _parse_record
from ssdlab.errors import (
    DivergenceError,
    EmptyReportError,
    InvalidDistributionError,
    ParseError,
    SsdLabError,
)
from ssdlab.objective import _decomposition_rows, _support_row
from ssdlab.toyfsm import GRID_MAX_POINTS, MAX_VOCAB_SIZE, MC_BATCH, MC_MAX_LOCKS


INFINITE_T_ERROR = "error: the loss decomposition needs a finite train temperature, got inf\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestDecodeCommand:
    def test_rows_match_library(self, capsys):
        code, out, _ = run(
            capsys, "decode", "--probs", "0.5,0.3,0.2",
            "--temperature", "0.7", "--top-p", "0.9",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["token", "base_prob", "operational_prob"]
        p0 = normalize([0.5, 0.3, 0.2])
        rs = retained_support(p0, DecodeConfig(temperature=0.7, top_p=0.9))
        assert [int(r[0]) for r in rows] == rs.support.tolist()
        for row, v in zip(rows, rs.support):
            assert float(row[2]) == pytest.approx(rs.operational.probs[v], abs=1e-9)

    def test_greedy_guard_short_circuits(self, capsys):
        code, out, _ = run(
            capsys, "decode", "--probs", "0.2,0.5,0.3", "--temperature", "1e-6"
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows == [["1", "0.5", "1"]]

    def test_weights_are_normalized(self, capsys):
        code, out, _ = run(capsys, "decode", "--probs", "5,3,2")
        assert code == 0
        _, rows = csv_rows(out)
        assert [r[1] for r in rows] == ["0.5", "0.3", "0.2"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("decode",),  # missing required --probs
            ("decode", "--probs", "0.5,0.5", "--temperature", "0"),
            ("decode", "--probs", "0.5,0.5", "--top-p", "1.5"),
            ("decode", "--probs", "0.5,0.5", "--top-k", "-2"),
            ("decode", "--probs", "0.5,0.5", "--format", "xml"),
            ("unknown-command",),
        ],
    )
    def test_usage_errors_exit_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""

    def test_invalid_probs_exit_one(self, capsys):
        code, _, err = run(capsys, "decode", "--probs", "0.5,oops")
        assert code == 1

    @pytest.mark.parametrize("probs, reason", [
        ("0.5,-0.5", "contains negative entries"),
        ("0.5,nan", "contains NaN or infinity"),
    ], ids=["negative", "nan"])
    def test_refused_weights_exit_two(self, capsys, probs, reason):
        assert run(capsys, "decode", "--probs", probs) == (
            2, "", f"error: weight vector {reason}\n")

    def test_top_k_beyond_int64_keeps_every_token(self, capsys):
        code, out, err = run(
            capsys, "decode", "--probs", "0.5,0.3,0.2", "--top-k", "99999999999999999999"
        )
        assert (code, err) == (0, "")
        _, rows = csv_rows(out)
        assert rows == [["0", "0.5", "0.5"], ["1", "0.3", "0.3"], ["2", "0.2", "0.2"]]


class TestTargetCommand:
    def test_matches_library_target(self, capsys):
        code, out, _ = run(
            capsys, "target", "--probs", "0.5,0.3,0.2",
            "--temperature", "0.8", "--top-p", "0.8",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["token", "base_prob", "target_prob"]
        target = ssd_target(
            normalize([0.5, 0.3, 0.2]), DecodeConfig(temperature=0.8, top_p=0.8)
        )
        assert [int(r[0]) for r in rows] == target.support.tolist()
        for row, v in zip(rows, target.support):
            assert float(row[2]) == pytest.approx(target.q.probs[v], abs=1e-9)


class TestDecomposeCommand:
    def test_contract_schema(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--probs", "0.5,0.3,0.2",
            "--temperature", "0.9", "--top-p", "0.8",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == DECOMPOSITION_HEADER
        assert len(rows) == 1
        assert rows[0][0] == "0"

    def test_identity_settings_zero_variable_terms(self, capsys):
        # unit temperature and no truncation leave only the entropy floor
        code, out, _ = run(capsys, "decompose", "--probs", "0.5,0.3,0.2")
        assert code == 0
        _, rows = csv_rows(out)
        step, total, gate, reshape, align, tv, off = rows[0]
        assert gate == "0" and reshape == "0" and align == "0"
        assert float(tv) < 1e-15 and off == "0"
        assert float(total) == pytest.approx(1.02965301, abs=1e-7)

    def test_explicit_student_probs(self, capsys):
        code, out, _ = run(
            capsys, "decompose", "--probs", "0.5,0.3,0.2",
            "--student-probs", "0.25,0.5,0.25", "--top-p", "0.8",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][6]) == pytest.approx(0.25, abs=1e-9)

    def test_infinite_train_temperature_exits_two(self, capsys):
        # the row was 0,nan,0,-inf,nan,0.166666667,0
        code, out, err = run(
            capsys, "decompose", "--probs", "0.5,0.3,0.2",
            "--student-probs", "0.2,0.3,0.5", "--temperature", "inf",
        )
        assert (code, out, err) == (2, "", INFINITE_T_ERROR)
        for command in ("decode", "target"):  # these keep their uniform report
            code, out, _ = run(capsys, command, "--probs", "0.5,0.3,0.2",
                               "--temperature", "inf")
            assert code == 0
            assert [row[2] for row in csv_rows(out)[1]] == ["0.333333333"] * 3


class TestTrainCommand:
    def test_logs_thin_but_keep_last(self, capsys):
        code, out, _ = run(
            capsys, "train-student", "--probs", "0.5,0.3,0.2", "--top-p", "0.8",
            "--temperature", "0.7", "--max-steps", "50", "--log-every", "10",
            "--learning-rate", "1.0",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == DECOMPOSITION_HEADER
        assert [int(r[0]) for r in rows] == [0, 10, 20, 30, 40, 50]

    def test_converged_run_stops_early(self, capsys):
        code, out, _ = run(
            capsys, "train-student", "--probs", "0.6,0.4",
            "--max-steps", "5000", "--learning-rate", "4.0", "--log-every", "1000",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[-1][5]) < 1e-6  # on_support_tv at the last logged step

    def test_step_cap_warns_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "train-student", "--probs", "0.5,0.3,0.2", "--top-p", "0.8",
            "--temperature", "0.7", "--max-steps", "5",
        )
        assert code == 0
        assert err.startswith("warning: ")
        assert "step cap of 5" in err and "tolerance 1e-06" in err
        assert [int(r[0]) for r in csv_rows(out)[1]] == [0, 1, 2, 3, 4, 5]
        code, _, err = run(
            capsys, "train-student", "--probs", "0.6,0.4",
            "--max-steps", "5000", "--learning-rate", "4.0", "--log-every", "1000",
        )
        assert code == 0
        assert err == ""


    def test_non_finite_loss_exits_two(self, capsys):
        code, out, err = run(
            capsys, "train-student", "--probs", "0.5,0.3,0.2", "--top-p", "0.8",
            "--temperature", "0.7", "--learning-rate", "1e300", "--max-steps", "5",
        )
        assert (code, out) == (2, "")
        assert err == ("error: loss is not finite at step 1: "
                       "the student vanishes on a target-support token\n")

    def test_vanishing_inside_a_block_of_steps_exits_two_without_a_warning(self, capsys):
        # step 1 vanishes on the support in a block of two steps; the step past it
        # must not warn, which pytest's filterwarnings would turn into an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "train-student", "--probs", "0.5,0.3,0.2", "--top-p", "0.8",
                "--temperature", "0.7", "--learning-rate", "1e300", "--max-steps", "1000",
            )
        assert (code, out) == (2, "")
        assert err == ("error: loss is not finite at step 1: "
                       "the student vanishes on a target-support token\n")

    def test_infinite_learning_rate_is_a_usage_error(self, capsys):
        # the first step's z - inf * g was nan, reported as a vanishing student
        code, out, err = run(
            capsys, "train-student", "--probs", "0.5,0.3,0.2,0.1", "--top-p", "0.8",
            "--temperature", "0.7", "--learning-rate", "inf", "--max-steps", "3",
        )
        assert (code, out, err) == (
            1, "", "error: learning-rate must be finite and positive, got inf\n")

    def test_infinite_train_temperature_exits_two(self, capsys):
        # total and align were nan on every row
        code, out, err = run(
            capsys, "train-student", "--probs", "0.5,0.3,0.2", "--temperature", "inf",
        )
        assert (code, out, err) == (2, "", INFINITE_T_ERROR)


# a seeded heavy-tailed context at V = 4096, as train-student's --probs
_HEAVY_TAIL_W = np.random.default_rng(4096).gamma(0.3, size=4096)
HEAVY_TAIL_4096 = ",".join(f"{x:.17g}" for x in _HEAVY_TAIL_W / _HEAVY_TAIL_W.sum())
# the toy world's V = 16 lock head, as train-student's --probs
LOCK_16 = ",".join(f"{x:.17g}" for x in toyfsm.build_toy_fsm().lock.dist.probs)
# a run whose logged row at step 1150 has a tempered conditional that underflows
VANISHING_ROW = ["--probs", "0.5,0.3,0.2", "--top-k", "3", "--temperature", "0.01",
                 "--max-steps", "3000", "--log-every", "50"]
TEMPERED_VANISH_ERROR = "error: tempered student vanishes on a target-support token\n"


def listed_train_report(argv, reference_steps):
    """train-student's report from a list of every step's reference logits, then thinned.

    Each kept row scores a full-width Categorical of the step's softmax, one row per call.
    """
    args = resolve_args(build_parser().parse_args(argv))
    p0 = normalize(args["probs"])
    cfg = DecodeConfig(
        temperature=args["temperature"], top_k=args["top_k"], top_p=args["top_p"]
    )
    target = ssd_target(p0, cfg)
    tol = args["tv_tolerance"]
    steps = list(reference_steps(target, args["learning_rate"], args["max_steps"], tol))
    tv = steps[-1][2]
    if tv >= tol:
        print(f"warning: train-student stopped at the step cap of {args['max_steps']} "
              f"with on-support TV {tv:.3g}, above the tolerance {tol:.3g}",
              file=sys.stderr)
    last = len(steps) - 1
    logged = [(k, z) for k, (z, *_) in enumerate(steps)
              if k % args["log_every"] == 0 or k == last]
    rows = [row for k, z in logged for row in _decomposition_rows(
        target, _support_row(target, Categorical(_softmax(z)).probs), [k])]
    emit_report(rows, args["format"], args["output"], DECOMPOSITION_HEADER)


class TestTrainStream:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--probs", "0.5,0.3,0.2", "--top-p", "0.8", "--temperature", "0.7",
             "--max-steps", "30", "--log-every", "1", "--learning-rate", "1.0"],
            ["--probs", "0.5,0.3,0.2", "--top-p", "0.8", "--temperature", "0.7",
             "--max-steps", "53", "--log-every", "7", "--learning-rate", "1.0"],
            ["--probs", "0.6,0.4", "--max-steps", "5000", "--learning-rate", "4.0",
             "--log-every", "1000"],
            ["--probs", HEAVY_TAIL_4096, "--temperature", "0.9", "--top-p", "0.85",
             "--max-steps", "200", "--log-every", "1"],
            # converges at step 87, inside the training loop's 64-row block of steps 63-126
            ["--probs", LOCK_16, "--temperature", "0.9", "--top-p", "0.85",
             "--learning-rate", "8", "--tv-tolerance", "1e-3", "--max-steps", "1000",
             "--log-every", "1"],
            # T = 1, where reshape is exactly 0
            ["--probs", "0.5,0.3,0.2", "--temperature", "1", "--top-p", "0.8",
             "--max-steps", "40", "--learning-rate", "1.0"],
            # |S| = 1, whose TV is 0 at step 0
            ["--probs", "0.5,0.3,0.2", "--temperature", "0.7", "--top-k", "1"],
            # 35 logged rows in row blocks of 16 at |S| = 1003: two full blocks and 3 rows
            ["--probs", HEAVY_TAIL_4096, "--temperature", "0.9", "--top-p", "0.85",
             "--max-steps", "100", "--log-every", "3"],
            ["--probs", "0.5,0.3,0.2", "--top-p", "0.8", "--temperature", "0.7",
             "--max-steps", "53", "--log-every", "7", "--learning-rate", "1.0",
             "--format", "json"],
            # 11 logged rows at |S| = 2 in row blocks of 4096 // 1000 = 4: 4, 4 and 3
            ["--probs", LOCK_16, "--temperature", "0.9", "--top-p", "0.85",
             "--max-steps", "10000", "--log-every", "1000"],
            # 4096 // 5000 is 0, so each of the 4 logged rows is a block of its own
            ["--probs", LOCK_16, "--temperature", "0.9", "--top-p", "0.85",
             "--max-steps", "12000", "--log-every", "5000"],
        ],
        ids=["every-step", "every-7th-and-last", "converged-early", "v4096-every-step",
             "v16-converged-mid-block", "unit-temperature", "one-token-support",
             "v4096-every-3rd-and-last", "json", "v16-row-blocks-of-4",
             "v16-one-row-blocks"],
    )
    def test_streamed_report_matches_listed_trajectory(self, capsys, argv,
                                                       reference_student_steps):
        listed_train_report(["train-student", *argv], reference_student_steps)
        expected = capsys.readouterr()
        code, out, err = run(capsys, "train-student", *argv)
        assert code == 0
        assert out == expected.out
        assert err == expected.err

    def test_v4096_cases_span_several_row_blocks(self):
        # the V = 4096 cases above log 201 rows, and 35 that end in a partial block
        target = ssd_target(normalize([float(x) for x in HEAVY_TAIL_4096.split(",")]),
                            DecodeConfig(temperature=0.9, top_p=0.85))
        block = objective._ROW_BLOCK_BYTES // (8 * target.support.size)
        assert (target.support.size, block) == (1003, 16)
        assert all(rows > 2 * block and rows % block for rows in (201, 35))

    def test_tempered_vanish_exits_two_with_one_line(self, capsys):
        # the student sharpens until its tempered conditional underflows at a logged
        # step; the rows before it are scored in the same block and printed nowhere
        code, out, err = run(capsys, "train-student", *VANISHING_ROW)
        assert (code, out, err) == (2, "", TEMPERED_VANISH_ERROR)

    @pytest.mark.parametrize("cut, error", [(1000, "error: loss increased\n"),
                                            (2000, TEMPERED_VANISH_ERROR)],
                             ids=["loop-error-first", "row-error-first"])
    def test_first_error_in_step_order_wins(self, capsys, monkeypatch, cut, error):
        # VANISHING_ROW's first row that cannot be scored is step 1150. A loop that
        # raises its own error at step `cut`, while every logged row is still pending
        # in one row block, reports whichever of the two errors has the earlier step.
        steps = objective._student_steps

        def steps_until_cut(*step_args):
            for k, step in enumerate(steps(*step_args)):
                if k == cut:
                    raise DivergenceError("loss increased")
                yield step

        monkeypatch.setattr(objective, "_student_steps", steps_until_cut)
        code, out, err = run(capsys, "train-student", *VANISHING_ROW)
        assert (code, out, err) == (2, "", error)

    @pytest.mark.parametrize("every", ["1000", "1024"])
    def test_a_failing_row_stops_the_loop_within_the_row_delay(self, capsys, monkeypatch,
                                                                every):
        # every 1000th (or 1024th) of 100 000 steps is logged, and the row of step
        # 2000 (or 2048) is the first that cannot be scored. A row block holds
        # _ROW_DELAY_STEPS // every = 4 rows, so the first is full and scored at step
        # 3000 (or 3072), and the loop draws steps 0 to 3000 (or 3072), not the whole run.
        steps, drawn = objective._student_steps, []

        def counted(*step_args):
            for step in steps(*step_args):
                drawn.append(None)
                yield step

        monkeypatch.setattr(objective, "_student_steps", counted)
        code, out, err = run(capsys, "train-student", "--probs", "0.5,0.3,0.2",
                             "--top-k", "3", "--temperature", "0.01", "--log-every", every)
        assert (code, out, err) == (2, "", TEMPERED_VANISH_ERROR)
        assert objective._ROW_DELAY_STEPS == 4096
        assert len(drawn) == {"1000": 3001, "1024": 3073}[every]

    def test_peak_memory_bounded_by_vocabulary_not_steps(self, tmp_path):
        v = 4096
        argv = ["train-student", "--probs", HEAVY_TAIL_4096,
                "--temperature", "0.9", "--top-p", "0.85", "--log-every", "1",
                "--max-steps", "400", "--output", str(tmp_path / "train.csv")]
        assert main(argv) == 0  # warm-up: first-call imports and caches
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * v * 8  # 64 float arrays of length V, for 401 logged steps


class TestSensitivityCommand:
    def test_escort_without_event_leaves_blanks(self, capsys):
        code, out, _ = run(
            capsys, "sensitivity", "--mode", "escort",
            "--probs", "0.5,0.3,0.2", "--gamma", "1.5",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == [
            "gamma", "escort_entropy", "entropy_response",
            "event_mass", "event_log_sensitivity",
        ]
        assert rows[0][3] == "" and rows[0][4] == ""

    def test_escort_with_event(self, capsys):
        code, out, _ = run(
            capsys, "sensitivity", "--mode", "escort",
            "--probs", "0.5,0.3,0.2", "--gamma", "2.0", "--event", "0,1",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0][3]) == pytest.approx(
            (0.25 + 0.09) / (0.25 + 0.09 + 0.04), abs=1e-9
        )

    def test_entropy_mode_identity(self, capsys):
        code, out, _ = run(
            capsys, "sensitivity", "--mode", "entropy",
            "--probs", "0.5,0.25,0.15,0.1", "--support", "0,1",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == [
            "kept_mass", "gate_entropy", "head_entropy", "tail_entropy", "total",
        ]
        km, gate, head, tail, total = (float(x) for x in rows[0])
        assert km == pytest.approx(0.75, abs=1e-9)
        # parts are individually rounded to 9 significant digits
        assert total == pytest.approx(gate + head + tail, abs=5e-8)

    def test_curve_mode_rows(self, capsys):
        code, out, _ = run(
            capsys, "sensitivity", "--mode", "curve",
            "--probs", "0.5,0.3,0.2", "--tau", "0.7",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["rank", "prefix_mass"]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert float(rows[-1][1]) == 1.0

    def test_feasible_mode(self, capsys):
        code, out, _ = run(
            capsys, "sensitivity", "--mode", "feasible",
            "--lock-probs", "0.75,0.1,0.08,0.07",
            "--fork-probs", "0.3,0.28,0.22,0.2",
            "--lock-rank", "1", "--fork-rank", "3", "--tau", "1.0", "--k", "4",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == [
            "tau", "k", "lock_rank", "fork_rank", "lower", "upper", "feasible",
        ]
        assert rows[0][6] in ("true", "false")

    def test_feasible_mode_defaults(self, capsys):
        code, out, err = run(
            capsys, "sensitivity", "--mode", "feasible", "--lock-probs", "0.7,0.2,0.1",
            "--fork-probs", "0.4,0.35,0.25", "--format", "json",
        )
        assert (code, err) == (0, "")
        (row,) = json.loads(out)
        assert (row["k"], row["feasible"]) == (3, True)

    def test_feasible_mode_needs_both_distributions(self, capsys):
        code, out, err = run(
            capsys, "sensitivity", "--mode", "feasible", "--lock-probs", "0.7,0.2,0.1",
            "--format", "json",
        )
        assert (code, out) == (1, "")
        assert err == "error: feasible mode requires --lock-probs and --fork-probs\n"

    def test_missing_probs_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sensitivity", "--mode", "entropy")
        assert code == 1

    def test_escort_event_outside_support_exits_two(self, capsys):
        code, out, err = run(
            capsys, "sensitivity", "--mode", "escort",
            "--probs", "0.5,0.3,0.2", "--event", "5",
        )
        assert code == 2
        assert out == ""
        assert err == "error: event set is not contained in the support set\n"


    def test_escort_at_tiny_gamma_has_zero_entropy_response(self, capsys):
        # T = 1e300 here, where T**3 would overflow
        code, out, err = run(
            capsys, "sensitivity", "--mode", "escort",
            "--probs", "0.5,0.3,0.2", "--gamma", "1e-300",
        )
        assert (code, err) == (0, "")
        _, rows = csv_rows(out)
        assert rows[0][2] == "0"

    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_non_finite_gamma_exits_one(self, capsys, gamma):
        code, out, err = run(
            capsys, "sensitivity", "--mode", "escort",
            "--probs", "0.5,0.3,0.2", "--gamma", gamma,
        )
        assert (code, out) == (1, "")
        assert err == f"error: gamma must be finite and positive, got {gamma}\n"

    def test_escort_at_huge_gamma_has_finite_slope(self, capsys):
        code, out, _ = run(
            capsys, "sensitivity", "--mode", "escort",
            "--probs", ",".join(["1"] * 10), "--gamma", "1e308", "--event", "0",
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][3:] == ["0.1", "0"]

    @pytest.mark.parametrize("argv, message", [
        (("--mode", "escort", "--support", "99999999999999999999"),
         "index set contains values outside [0, 3)"),
        (("--mode", "escort", "--event", "99999999999999999999"),
         "event set is not contained in the support set"),
        (("--mode", "entropy", "--support", "0,99999999999999999999"),
         "index set contains values outside [0, 3)"),
    ])
    def test_index_past_int64_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, "sensitivity", "--probs", "0.5,0.3,0.2", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestToyCommands:
    def test_sweep_schema_and_values(self, capsys):
        code, out, _ = run(
            capsys, "toy-sweep", "--t-grid", "0.5,1.0,2.0", "--top-p", "0.8"
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == SWEEP_HEADER
        assert len(rows) == 3
        from ssdlab import build_toy_fsm, distill_fsm

        teacher = build_toy_fsm()
        student = distill_fsm(teacher, 0.9, 0.85)
        for row in rows:
            t = float(row[0])
            assert float(row[2]) == pytest.approx(
                exact_success(teacher, t, 0.8), abs=1e-8
            )
            assert float(row[4]) == pytest.approx(
                exact_success(student, t, 0.8) - exact_success(teacher, t, 0.8),
                abs=1e-8,
            )

    def test_sweep_range_grid(self, capsys):
        code, out, _ = run(
            capsys, "toy-sweep", "--t-grid", "0.5:1.0:0.25", "--top-p", "0.8"
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert [row[0] for row in rows] == ["0.5", "0.75", "1"]

    def test_oversized_range_grid_exits_one(self, capsys, tmp_path):
        # 1e15 points, which numpy would refuse to allocate (7 PiB)
        code, out, err = run(capsys, "toy-sweep", "--t-grid", "0.05:1e12:0.001")
        assert (code, out) == (1, "")
        assert err == (
            "error: argument --t-grid: range 0.05:1e12:0.001 holds more than 100000 points\n"
        )
        config = tmp_path / "sweep.cfg"
        config.write_text("t-grid = 0.05:1e12:0.001\n")
        code, out, err = run(capsys, "toy-sweep", "--config", str(config))
        assert (code, out) == (1, "")
        assert err == (
            "error: config key t_grid: range 0.05:1e12:0.001 holds more than 100000 points\n"
        )

    def test_range_grid_limit_is_inclusive(self):
        assert len(_grid("0.001:100:0.001")) == GRID_MAX_POINTS
        with pytest.raises(argparse.ArgumentTypeError, match="more than 100000 points"):
            _grid("0.001:100.001:0.001")

    @pytest.mark.parametrize("text", ["1:0:0.1", "1:2", "nan:1:0.1", "0:1:inf", "0:x:1"])
    def test_bad_range_grid_gives_its_reason(self, capsys, tmp_path, text):
        reason = (f"range {text} must be lo:hi:step, three finite numbers "
                  "with step > 0 and hi >= lo\n")
        code, out, err = run(capsys, "toy-sweep", "--t-grid", text)
        assert (code, out, err) == (1, "", "error: argument --t-grid: " + reason)
        config = tmp_path / "sweep.cfg"
        config.write_text(f"t-grid = {text}\n")
        code, out, err = run(capsys, "toy-sweep", "--config", str(config))
        assert (code, out, err) == (1, "", "error: config key t_grid: " + reason)

    def test_optimize_narrow_bounds(self, capsys):
        code, out, _ = run(
            capsys, "toy-optimize", "--role", "teacher", "--top-p", "0.8",
            "--t-min", "0.6", "--t-max", "0.7",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["role", "top_p", "t_star", "p_star"]
        assert float(rows[0][2]) == pytest.approx(0.639468, abs=5e-4)
        assert float(rows[0][3]) == pytest.approx(0.08333595, abs=1e-6)

    def test_grid_single_cell(self, capsys):
        code, out, _ = run(
            capsys, "toy-grid", "--top-p", "0.8",
            "--t-min", "0.5", "--t-max", "2.5",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == [
            "top_p", "teacher_t_star", "teacher_p_star",
            "student_t_star", "student_p_star", "gap_pp",
        ]
        assert float(rows[0][5]) == pytest.approx(5.439606, abs=1e-3)

    @pytest.mark.parametrize("command", ["toy-optimize", "toy-grid"])
    def test_t_bounds_checked_before_building_machines(self, capsys, command):
        # the lock head sums to 1.8, which the machine builder would reject first
        code, out, err = run(
            capsys, command, "--t-min", "3", "--t-max", "2", "--lock-head", "0.9,0.9"
        )
        assert code == 1
        assert out == ""
        assert err == "error: t-min must be below t-max\n"

    @pytest.mark.parametrize("command", ["toy-optimize", "toy-grid"])
    @pytest.mark.parametrize("bound", ["--t-min", "--t-max"])
    def test_infinite_t_bound_exits_one(self, capsys, command, bound):
        code, out, err = run(capsys, command, bound, "inf")
        assert (code, out) == (1, "")
        assert err == f"error: {bound[2:]} must be finite and positive, got inf\n"

    @pytest.mark.parametrize("command", ["toy-optimize", "toy-grid"])
    def test_oversized_t_grid_exits_two(self, capsys, command):
        code, out, err = run(capsys, command, "--t-max", "1e300")
        assert (code, out) == (2, "")
        assert err == (
            "error: bounds (0.05, 1e+300) need more than 100000 grid points at step 0.001\n"
        )

    @pytest.mark.parametrize("n_locks", [2**63, MC_MAX_LOCKS + 1])
    def test_mc_lock_budget_exits_two(self, capsys, n_locks):
        code, out, err = run(
            capsys, "toy-mc", "--temperature", "1", "--n", "10", "--n-locks", str(n_locks)
        )
        assert (code, out) == (2, "")
        assert err == f"error: n_locks must be <= {MC_MAX_LOCKS}, got {n_locks}\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_mc_negative_seed_is_a_usage_error(self, capsys, monkeypatch, tmp_path, source):
        def no_fork():
            raise AssertionError("forked before the seed was checked")

        monkeypatch.setattr(os, "fork", no_fork)
        config = tmp_path / "mc.cfg"
        config.write_text("seed = -1\n")
        flags = ["--seed", "-1"] if source == "flag" else ["--config", str(config)]
        code, out, err = run(capsys, "toy-mc", "--temperature", "1", "--n", "100000", *flags)
        assert (code, out, err) == (1, "", "error: seed must be >= 0, got -1\n")

    @pytest.mark.parametrize("argv", [
        ("toy-sweep", "--t-grid", "0.6"),
        ("toy-optimize", "--t-min", "0.6", "--t-max", "0.7"),
    ])
    def test_closed_form_commands_take_any_lock_count(self, capsys, argv):
        # success is mass ** n_locks, so no trajectory is built
        code, _, err = run(capsys, *argv, "--n-locks", str(2**63))
        assert (code, err) == (0, "")

    def test_vocab_budget_exits_two(self, capsys):
        code, out, err = run(
            capsys, "toy-sweep", "--t-grid", "1", "--vocab-size", "100000000000000"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: vocab_size must be <= {MAX_VOCAB_SIZE}, got 100000000000000\n"
        )

    def test_mc_reports_exact_and_error(self, capsys):
        code, out, _ = run(
            capsys, "toy-mc", "--role", "teacher", "--temperature", "0.8",
            "--top-p", "0.8", "--n", "20000", "--seed", "1",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == [
            "role", "temperature", "top_p", "n", "seed",
            "estimate", "stderr", "exact", "abs_error",
        ]
        estimate, exact, abs_err = (float(rows[0][i]) for i in (5, 7, 8))
        assert abs_err == pytest.approx(abs(estimate - exact), abs=1e-9)


class TestOutputHandling:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        argv = [
            "toy-sweep", "--t-grid", "0.5:2.0:0.5", "--top-p", "0.8", "--format", "csv",
        ]
        assert main(argv + ["--output", str(first)]) == 0
        assert main(argv + ["--output", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_json_format_structure(self, capsys):
        code, out, _ = run(
            capsys, "decode", "--probs", "0.5,0.3,0.2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload, list)
        assert list(payload[0].keys()) == ["token", "base_prob", "operational_prob"]

    def test_csv_uses_newline_terminators(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code = main(["decode", "--probs", "0.5,0.5", "--output", str(path)])
        capsys.readouterr()
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_nine_significant_digits(self, capsys):
        code, out, _ = run(
            capsys, "decode", "--probs", "1,1,1", "--format", "csv"
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0][1] == "0.333333333"

    def test_unwritable_output_exits_two(self, capsys):
        code, _, err = run(
            capsys, "decode", "--probs", "0.5,0.5",
            "--output", "/nonexistent-dir/out.csv",
        )
        assert code == 2

    def test_emit_report_rejects_empty(self, tmp_path):
        with pytest.raises(EmptyReportError):
            emit_report([], "csv", str(tmp_path / "x.csv"), ["a"])
        assert not (tmp_path / "x.csv").exists()


class TestConfigFile:
    def test_config_supplies_required_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("probs = 0.5,0.3,0.2\ntop-p = 0.8  # trailing comment\n")
        code, out, _ = run(capsys, "decode", "--config", str(cfg))
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 2

    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("probs = 0.5,0.3,0.2\ntemperature = 0.5\n")
        code, out, _ = run(
            capsys, "decode", "--config", str(cfg), "--temperature", "1.0"
        )
        assert code == 0
        _, rows = csv_rows(out)
        # at T=1 with no truncation the operational equals the base
        assert rows[0][1] == rows[0][2]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("probs = 0.5,0.5\nmystery = 3\n")
        code, _, err = run(capsys, "decode", "--config", str(cfg))
        assert code == 1
        assert "mystery" in err

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("probs = 0.5,0.5\ntemperature = warm\n")
        code, _, _ = run(capsys, "decode", "--config", str(cfg))
        assert code == 1

    def test_missing_config_file_rejected(self, capsys):
        code, _, _ = run(capsys, "decode", "--probs", "1,1", "--config", "/no/such.cfg")
        assert code == 1

    def test_non_utf8_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"probs = 0.5,0.5\ntemperature = \xff\n")
        code, out, err = run(capsys, "decode", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot read config file: 'utf-8' codec can't decode")

    def test_comments_blank_lines_and_booleans(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        dump.write_text('{"context_id":"a","probs":[0.5,0.5]}\ngarbage\n')
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n\nskip_bad = yes\n")
        code, out, err = run(capsys, "analyze-dump", "--input", str(dump), "--config", str(cfg))
        assert code == 0
        assert [row[0] for row in csv_rows(out)[1]] == ["a"]
        assert err.startswith("warning: skipped line 2: ")

    def test_a_false_boolean_keeps_strict_mode(self, tmp_path, capsys):
        dump = tmp_path / "dump.jsonl"
        dump.write_text('{"context_id":"a","probs":[0.5,0.5]}\ngarbage\n')
        cfg = tmp_path / "run.cfg"
        cfg.write_text("skip_bad = no\n")
        code, out, err = run(capsys, "analyze-dump", "--input", str(dump), "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: invalid JSON")

    @pytest.mark.parametrize("text, message", [
        ("skip_bad = maybe\n", "config key skip_bad: expected a boolean, got 'maybe'"),
        ("format xml\n", "config line 1: expected key = value"),
        ("format = xml\n", "config key format: must be one of ('csv', 'json')"),
    ], ids=["boolean", "no_equals", "choice"])
    def test_malformed_config_lines_rejected(self, tmp_path, capsys, text, message):
        dump = tmp_path / "dump.jsonl"
        dump.write_text('{"context_id":"a","probs":[0.5,0.5]}\n')
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "analyze-dump", "--input", str(dump), "--config", str(cfg))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_range_checks_apply_to_config_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("probs = 0.5,0.5\ntemperature = -2\n")
        code, _, _ = run(capsys, "decode", "--config", str(cfg))
        assert code == 1


# Each checked flag's refused value and the message of the library checker it
# runs, under the flag's name; a list flag's entries are checked one by one.
FLAG_REFUSALS = {
    "--temperature": ("0", "temperature must be positive, got 0.0"),
    "--top-k": ("-1", "top-k must be >= 0, got -1"),
    "--top-p": ("1.5", "top-p must lie in (0, 1], got 1.5"),
    "--learning-rate": ("inf", "learning-rate must be finite and positive, got inf"),
    "--max-steps": ("-1", "max-steps must be >= 0, got -1"),
    "--tv-tolerance": ("0", "tv-tolerance must be positive, got 0.0"),
    "--log-every": ("0", "log-every must be >= 1, got 0"),
    "--gamma": ("nan", "gamma must be finite and positive, got nan"),
    "--tau": ("-1", "tau must be positive, got -1.0"),
    "--k": ("-1", "k must be >= 0, got -1"),
    "--lock-rank": ("0", "lock-rank must be >= 1, got 0"),
    "--fork-rank": ("0", "fork-rank must be >= 1, got 0"),
    "--tail-ratio": ("1", "tail-ratio must lie in (0, 1), got 1.0"),
    "--vocab-size": ("1", "vocab-size must be >= 2, got 1"),
    "--n-locks": ("0", "n-locks must be >= 1, got 0"),
    "--t-train": ("0", "t-train must be positive, got 0.0"),
    "--train-top-p": ("0", "train-top-p must lie in (0, 1], got 0.0"),
    "--t-grid": ("0.5,-1", "t-grid must be positive, got -1.0"),
    "--t-min": ("inf", "t-min must be finite and positive, got inf"),
    "--t-max": ("0", "t-max must be finite and positive, got 0.0"),
    "--n": ("0", "n must be >= 1, got 0"),
    "--seed": ("-1", "seed must be >= 0, got -1"),
}

# a passing value of each required flag
REQUIRED_VALUES = {
    "--probs": "0.5,0.5", "--t-grid": "1", "--temperature": "1", "--input": "unread.jsonl",
}


@pytest.mark.parametrize("command, name, source", [
    pytest.param(command, flag.name, source, id=f"{command}{flag.name}-{source}")
    for command, (_, flags) in SUBCOMMANDS.items()
    for flag in flags if flag.check is not None
    for source in ("flag", "config")
])
def test_refused_flag_exits_one_with_the_library_message(capsys, tmp_path, command, name,
                                                          source):
    value, message = FLAG_REFUSALS[name]
    _, flags = SUBCOMMANDS[command]
    settings = {f.name: REQUIRED_VALUES[f.name] for f in flags if f.required}
    settings[name] = value
    if source == "flag":
        argv = [x for pair in settings.items() for x in pair]
    else:
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key[2:]} = {v}\n" for key, v in settings.items()))
        argv = ["--config", str(config)]
    assert run(capsys, command, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, reason", [
    (["decode", "--probs", ","], "expected a comma-separated list of numbers"),
    (["decode", "--probs", "0.5,x"], "could not convert string to float: 'x'"),
    (["sensitivity", "--probs", "1,1", "--support", "0.5"],
     "invalid literal for int() with base 10: '0.5'"),
    (["sensitivity", "--probs", "1,1", "--support", " "],
     "expected a comma-separated list of integers"),
])
def test_bad_list_gives_its_reason(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    flag = argv[-2]
    assert (code, out, err) == (1, "", f"error: argument {flag}: {reason}\n")


def dump_lines(rng):
    """Seeded dump records: probs and logits, zeros, ties across rank 20, V 2-300."""
    for k in range(40):
        v = int(rng.integers(2, 301))
        record = {"context_id": k if k % 5 == 0 else f"ctx-{k}"}
        if k % 3:
            record["label"] = ["fork", 'say "hi", then go', "a,b", ""][k % 4]
        if k % 4 == 3:
            scale = 1.0 if k % 8 == 3 else 400.0  # a wide spread underflows to zeros
            record["logits"] = (rng.normal(size=v) * scale).tolist()
        else:
            w = rng.integers(0, 4, size=v).astype(float)  # zeros and many ties
            w[rng.integers(v)] += 1.0
            record["probs"] = (w / w.sum()).tolist()
        yield json.dumps(record)


def expected_dump_row(line, cfg):
    """analyze-dump's row for one record, built from the library."""
    obj = json.loads(line)
    if "probs" in obj:
        p = Categorical(np.asarray(obj["probs"]))
    else:
        p = Categorical(_softmax(np.asarray(obj["logits"])))
    rs = retained_support(p, cfg)
    top20 = float(p.probs[rank_descending(p)[:20]].sum())
    return (str(obj["context_id"]), obj.get("label", ""), len(rs.support), rs.kept_mass,
            entropy(rs.operational), entropy(p), top20)


def zeros_around(entry, zero):
    """A probs record of 4096 entries: entry at index 1234 among 4095 spelled zero."""
    entries = ",".join([zero] * 1234 + [entry] + [zero] * 2861)
    return '{"context_id":"a","probs":[' + entries + "]}"


def force_dump_workers(monkeypatch, n):
    """Give analyze-dump n CPUs and lift its one-range-per-MiB cap, so every
    dump of n or more bytes is split n ways where its lines allow."""
    monkeypatch.setattr(dump, "_BYTES_PER_WORKER", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestDumpIngestion:
    @pytest.fixture(autouse=True, params=[1, 3], ids=["1-worker", "3-workers"])
    def workers(self, request, monkeypatch):
        force_dump_workers(monkeypatch, request.param)

    def _write(self, tmp_path, lines):
        path = tmp_path / "dump.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_probs_and_logits_records(self):
        a = _parse_record(json.dumps({"context_id": "a", "probs": [0.5, 0.3, 0.2]}).encode())
        b = _parse_record(json.dumps({"context_id": "b", "logits": [1.0, 0.0, -1.0],
                                      "label": "tagged"}).encode())
        assert [a[0], b[0]] == ["a", "b"]
        assert (a[1], b[1]) == ("", "tagged")
        z = np.array([1.0, 0.0, -1.0])
        w = np.exp(z - z.max())
        np.testing.assert_allclose(b[2].probs, w / w.sum(), atol=1e-12)
        assert _parse_record(b"  \r\n") is None  # a blank line

    @pytest.mark.parametrize(
        "record",
        [
            '{"context_id":"a","probs":[true,false]}',
            '{"context_id":"a","probs":["0.25","0.75"]}',
            '{"context_id":"a","probs":[0.5,null,0.5]}',
            '{"context_id":"a","logits":["1",true]}',
            '{"context_id":"a","logits":[0.0,false]}',
            '{"context_id":"a","probs":[[0.5],0.5]}',
            '{"context_id":"a","probs":{"a":1}}',
            '{"context_id":"a","probs":{}}',
            # booleans read as 1.0 and 0.0 wherever they hide: among many entries
            # equal to 0 or 1, whose types are all scanned, and among few, whose
            # types are looked up one by one
            pytest.param(zeros_around("true", "0"), id="true-among-4095-int-zeros"),
            pytest.param(zeros_around("true", "0.0"), id="true-among-4095-float-zeros"),
            pytest.param(zeros_around("true", "0.25"), id="true-among-4095-quarters"),
            '{"context_id":"a","logits":'
            '[0.5,0.0,-1.25,1.0,2.0,false,0.125,-0.75,1.5,2.25,-3.0,0.25]}',
            '{"context_id":"a","probs":[0.0,0.0,true,0.0]}',  # the one-hot's only 1
            '{"context_id":"a","probs":[0.25,0.5,true,0.25]}',  # one 0-or-1 entry in four
            '{"context_id":"a","probs":[1,true]}',
        ],
    )
    def test_booleans_strings_and_nulls_are_not_numeric(self, tmp_path, capsys, record):
        message = "probability field is not a numeric array"
        with pytest.raises(ParseError, match=f"^{message}$"):
            _parse_record(record.encode())
        good = json.dumps({"context_id": "b", "probs": [0.5, 0.5]})
        path = self._write(tmp_path, [record, good])
        code, out, err = run(capsys, "analyze-dump", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: line 1: {message}\n"
        code, out, err = run(capsys, "analyze-dump", "--input", str(path), "--skip-bad")
        assert code == 0
        assert [row[0] for row in csv_rows(out)[1]] == ["b"]
        assert err == f"warning: skipped line 1: {message}\n"

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"context_id":"a","probs":[[0.5,0.5]]}',
             "probability vector must be 1-d and nonempty"),
            ('{"context_id":"a","probs":[]}', "probability vector must be 1-d and nonempty"),
            ('{"context_id":"a","probs":[NaN,1.0]}',
             "probability vector contains NaN or infinity"),
            ('{"context_id":"a","logits":[[0.5,0.5]]}', "logits must be a finite 1-d array"),
            ('{"context_id":"a","logits":[]}', "logits must be a finite 1-d array"),
            ('{"context_id":"a","logits":[0.0,NaN]}', "logits must be a finite 1-d array"),
        ],
    )
    def test_shapes_and_nan_are_invalid_distributions(self, record, message):
        with pytest.raises(InvalidDistributionError, match=f"^{re.escape(message)}$"):
            _parse_record(record.encode())

    @pytest.mark.parametrize("key", ["probs", "logits"])
    def test_values_are_numpys_doubles_bit_for_bit(self, monkeypatch, key):
        rng = np.random.default_rng(33)
        big = [int(rng.integers(1, 2**62)) << int(rng.integers(960)) | int(rng.integers(2**62))
               for _ in range(200)]  # about 2**62 up to 2**1022: rounded to 53 bits
        ties = [2**53 + 1, 2**53 + 3, 2**63 - 1, 2**63, 2**64 - 1, 2**64 + 2**11,
                int(np.finfo(float).max) - 1]  # rounds up to DBL_MAX
        ints = [int(v) for v in rng.integers(-(2**62), 2**62, size=50)] + [0, 1, -1]
        entries = [*ints, *big, *ties, -0.0, 0.0, 1.0, 5e-324, -5e-324, 1e308, -1e308,
                   *rng.normal(size=50).tolist()]
        line = json.dumps({"context_id": "a", key: entries})
        seen = []  # the doubles _parse_record hands to _softmax or Categorical
        monkeypatch.setattr(dump, "_softmax", lambda values: seen.append(values) or values)
        monkeypatch.setattr(dump, "Categorical", lambda values: seen.append(values))
        _parse_record(line.encode())
        expected = np.asarray(json.loads(line)[key], dtype=float)
        assert seen[0].dtype == np.float64 and seen[0].shape == expected.shape
        np.testing.assert_array_equal(seen[0].view(np.int64), expected.view(np.int64))

    def test_strict_mode_names_bad_lines(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            [
                json.dumps({"context_id": "a", "probs": [0.5, 0.5]}),
                json.dumps({"context_id": "bad", "probs": [0.5, -0.5]}),
                "not json at all",
            ],
        )
        code, out, err = run(capsys, "analyze-dump", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: ") and "; line 3: invalid JSON" in err

    def test_skip_bad_warns_and_continues(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            [
                json.dumps({"context_id": "a", "probs": [0.5, 0.5]}),
                "garbage",
            ],
        )
        code, out, err = run(capsys, "analyze-dump", "--input", str(path), "--skip-bad")
        assert code == 0
        assert [row[0] for row in csv_rows(out)[1]] == ["a"]
        assert err.startswith("warning: skipped line 2: ")

    def test_skip_bad_names_a_record_that_is_not_an_object(self, tmp_path, capsys):
        path = self._write(tmp_path, [json.dumps({"context_id": "a", "probs": [0.5, 0.5]}),
                                      "[1,2]"])
        code, out, err = run(capsys, "analyze-dump", "--input", str(path), "--skip-bad")
        assert code == 0
        assert [row[0] for row in csv_rows(out)[1]] == ["a"]
        assert err == "warning: skipped line 2: record is not a JSON object\n"

    @pytest.mark.parametrize(
        "record",
        [
            {"probs": [0.5, 0.5]},  # no context_id
            {"context_id": "x"},  # neither probs nor logits
            {"context_id": "x", "probs": [0.5, 0.5], "logits": [0.0, 0.0]},
            {"context_id": "x", "probs": [0.5, "half"]},
            {"context_id": "x", "logits": [0.0, float("nan")]}
            | {},  # non-finite logits
        ],
    )
    def test_malformed_records_rejected(self, tmp_path, capsys, record):
        try:
            text = json.dumps(record)
        except ValueError:
            text = str(record)
        path = self._write(tmp_path, [text])
        with pytest.raises((ParseError, InvalidDistributionError)):
            _parse_record(text.encode())
        out_file = tmp_path / "report.csv"
        code, out, err = run(capsys, "analyze-dump", "--input", str(path),
                             "--output", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: ")
        assert not out_file.exists()

    def test_missing_file_raises_filenotfound(self):
        args = resolve_args(build_parser().parse_args(
            ["analyze-dump", "--input", "/no/such/dump.jsonl"]))
        with pytest.raises(FileNotFoundError):
            _run_analyze_dump(args)

    def test_analyze_dump_end_to_end(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            [
                json.dumps({"context_id": "ctx-1", "label": "fork",
                            "probs": [0.4, 0.3, 0.2, 0.1]}),
            ],
        )
        code, out, _ = run(
            capsys, "analyze-dump", "--input", str(path),
            "--temperature", "0.9", "--top-p", "0.8",
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == DUMP_HEADER
        assert rows[0][0] == "ctx-1"
        assert rows[0][1] == "fork"
        kept = int(rows[0][2])
        assert kept == 3  # 0.4+0.3 < 0.8-eps so three tokens survive
        assert float(rows[0][6]) == 1.0  # top-20 covers a 4-token alphabet

    def test_analyze_dump_top20_with_ties_and_zeros(self, tmp_path, capsys):
        small = [0.25, 0.0, 0.125, 0.25, 0.0, 0.125, 0.25]  # V < 20
        large = np.repeat([0.3, 0.0, 0.2, 0.125, 0.0], 8) / 5.0  # ties across rank 20
        lines = [
            json.dumps({"context_id": "small", "probs": small}),
            json.dumps({"context_id": "large", "probs": large.tolist()}),
        ]
        path = self._write(tmp_path, lines)
        code, out, _ = run(capsys, "analyze-dump", "--input", str(path))
        assert code == 0
        _, rows = csv_rows(out)
        for row, line in zip(rows, lines):
            p = _parse_record(line.encode())[2]
            expected = float(p.probs[rank_descending(p)[:20]].sum())
            assert row[6] == f"{expected:.9g}"

    def test_analyze_dump_strict_failure_exits_two(self, tmp_path, capsys):
        path = self._write(tmp_path, ["broken"])
        out_file = tmp_path / "report.csv"
        code = main(["analyze-dump", "--input", str(path),
                     "--output", str(out_file)])
        capsys.readouterr()
        assert code == 2
        assert not out_file.exists()

    def test_analyze_dump_empty_input_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        out_file = tmp_path / "report.csv"
        code = main(["analyze-dump", "--input", str(path),
                     "--output", str(out_file)])
        capsys.readouterr()
        assert code == 2
        assert not out_file.exists()

    def test_analyze_dump_missing_input_exits_two(self, capsys):
        code, _, err = run(capsys, "analyze-dump", "--input", "/no/such.jsonl")
        assert code == 2

    def test_reports_match_rows_built_from_the_library(self, tmp_path, capsys):
        lines = list(dump_lines(np.random.default_rng(10)))
        path = tmp_path / "dump.jsonl"
        # blank lines between records and CRLF endings on every other line
        path.write_bytes(b"".join(
            line.encode() + (b"\r\n" if k % 2 else b"\n") + (b"\n" if k % 7 == 0 else b"")
            for k, line in enumerate(lines)))
        cfg = DecodeConfig(temperature=0.8, top_k=150, top_p=0.9)
        expected = [expected_dump_row(line, cfg) for line in lines]
        argv = ["analyze-dump", "--input", str(path), "--temperature", "0.8",
                "--top-k", "150", "--top-p", "0.9"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert list(csv.reader(io.StringIO(out))) == [
            DUMP_HEADER, *[[_cell(v) for v in row] for row in expected]]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == [
            {k: float(_cell(v)) if isinstance(v, float) else v
             for k, v in zip(DUMP_HEADER, row)}
            for row in expected
        ]

    def test_peak_memory_bounded_by_the_largest_record(self, tmp_path):
        v = 4096
        rng = np.random.default_rng(v)
        path = tmp_path / "dump.jsonl"
        with open(path, "w") as fh:
            for k in range(64):
                w = rng.gamma(0.3, size=v)
                fh.write(json.dumps({"context_id": k, "probs": (w / w.sum()).tolist()}) + "\n")
        argv = ["analyze-dump", "--input", str(path), "--temperature", "0.9",
                "--top-p", "0.85", "--output", str(tmp_path / "report.csv")]
        assert main(argv) == 0  # warm-up: first-call imports and caches
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * v * 8  # 40 float arrays of length V, for 64 records

    def test_non_utf8_line_is_a_bad_line(self, tmp_path, capsys):
        path = tmp_path / "dump.jsonl"
        path.write_bytes(b'{"context_id": "a", "probs": [0.5, 0.5]}\r\n\xff\xfe x\n')
        code, out, err = run(capsys, "analyze-dump", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 2: invalid UTF-8: invalid start byte at byte 0\n"
        code, out, err = run(capsys, "analyze-dump", "--input", str(path), "--skip-bad")
        assert code == 0
        assert [row[0] for row in csv_rows(out)[1]] == ["a"]
        assert err == "warning: skipped line 2: invalid UTF-8: invalid start byte at byte 0\n"

    @pytest.mark.parametrize("end", ["\xa0", "\x1c", "\r", " \xa0\x1c\r"],
                             ids=["nbsp", "file-separator", "cr", "mixed"])
    def test_unicode_whitespace_before_the_newline(self, tmp_path, capsys, end):
        # str.strip drops these and bytes.strip keeps NBSP and \x1c
        line = '{"context_id":"a","probs":[0.5,0.5]}'
        assert dump._text(f"{line}{end}\n".encode()) == line
        path = tmp_path / "dump.jsonl"
        path.write_bytes(f"{line}{end}\n{line}{end}".encode())
        code, out, err = run(capsys, "analyze-dump", "--input", str(path))
        assert (code, err) == (0, "")
        assert [row[0] for row in csv_rows(out)[1]] == ["a", "a"]

    @pytest.mark.parametrize("key", ["probs", "logits"])
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_integer_past_double_max_reads_as_its_float_spelling(
        self, tmp_path, capsys, key, sign
    ):
        # 1 followed by 400 zeros gets the error that 1e400 gets on the same field
        big = f'{{"context_id":"a","{key}":[0.5,{sign}1{"0" * 400}]}}'
        spelled = f'{{"context_id":"a","{key}":[0.5,{sign}1e400]}}'
        with pytest.raises(SsdLabError) as expected:
            _parse_record(spelled.encode())
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            _parse_record(big.encode())
        good = json.dumps({"context_id": "b", "probs": [0.5, 0.5]})
        path = self._write(tmp_path, [good, big])
        code, out, err = run(capsys, "analyze-dump", "--input", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: line 2: {expected.value}\n"
        code, out, err = run(capsys, "analyze-dump", "--input", str(path), "--skip-bad")
        assert code == 0
        assert [row[0] for row in csv_rows(out)[1]] == ["b"]
        assert err == f"warning: skipped line 2: {expected.value}\n"

    def test_integer_past_double_max_after_unicode_whitespace(self):
        # str.strip drops a leading form feed and json.loads would not
        spelled = '\x0c{"context_id":"a","probs":[0.5,1e400]}'
        big = f'\x0c{{"context_id":"a","probs":[0.5,1{"0" * 400}]}}'
        with pytest.raises(InvalidDistributionError) as expected:
            _parse_record(spelled.encode())
        with pytest.raises(InvalidDistributionError, match=re.escape(str(expected.value))):
            _parse_record(big.encode())

    def test_integer_past_double_max_beside_a_string_is_not_numeric(self):
        with pytest.raises(ParseError, match="not a numeric array"):
            _parse_record(f'{{"context_id":"a","probs":[1{"0" * 400},"x"]}}'.encode())

    def test_integer_past_the_digit_limit_is_invalid_json(self, tmp_path, capsys):
        huge = f'{{"context_id":"a","probs":[0.5,1{"0" * 5000}]}}'
        with pytest.raises(ParseError, match="^invalid JSON: "):
            _parse_record(huge.encode())
        good = json.dumps({"context_id": "b", "probs": [0.5, 0.5]})
        path = self._write(tmp_path, [huge, good])
        code, out, err = run(capsys, "analyze-dump", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: invalid JSON: ")
        code, out, err = run(capsys, "analyze-dump", "--input", str(path), "--skip-bad")
        assert code == 0
        assert [row[0] for row in csv_rows(out)[1]] == ["b"]
        assert err.startswith("warning: skipped line 1: invalid JSON: ")

    def test_logits_spanning_past_double_max_parse_quietly(self, tmp_path, capsys):
        path = self._write(tmp_path, ['{"context_id":"a","logits":[1e308,-1e308]}'])
        code, out, err = run(capsys, "analyze-dump", "--input", str(path))
        assert (code, err) == (0, "")
        assert csv_rows(out)[1] == [["a", "", "1", "1", "0", "0", "1"]]


class TestDumpLines:
    """One dump line read: its text, and the stderr of a record that is refused."""

    def test_probs_summing_past_double_max_print_only_the_error(self, tmp_path):
        # numpy's overflow warning would print before the error, in a real process
        path = tmp_path / "dump.jsonl"
        path.write_bytes(b'{"context_id": "a", "probs": [1e+308, 1.0, 0.5, 1e+308, 1]}\n')
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        reason = b"line 1: probabilities sum to inf, more than 1e-09 from 1\n"
        for flags, err in [([], b"error: " + reason),
                           (["--skip-bad"], b"warning: skipped " + reason
                            + b"error: no rows to report\n")]:
            proc = subprocess.run(
                [sys.executable, "-m", "ssdlab.cli", "analyze-dump", "--input", str(path),
                 *flags], capture_output=True, env=env, check=False, timeout=120)
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", err)

    @pytest.mark.parametrize("entries, lookups", [([0.0, 0.5, 0.25, 0.25], 1),
                                                  ([0.0, 1.0, 0.5, 0.5], 0)],
                             ids=["a-quarter-looked-up", "a-half-scanned"])
    def test_booleans_are_looked_up_while_at_most_a_quarter_can_hide_one(self, entries,
                                                                         lookups):
        class Field(list):
            calls = 0

            def __getitem__(self, k):
                Field.calls += 1
                return super().__getitem__(k)

        assert dump._numbers(Field(entries), b"", "probs").tolist() == entries
        assert Field.calls == len(entries) + lookups  # array("d") reads each entry by index

    @pytest.mark.parametrize("raw", [
        b"", b"\n", b"\r\n", b" \t\r\n", b"\xc2\xa0\n", b"\x1c", b"x \n", b"\n\n",
        b"\xff\n", b"ok\xe2\x82", b"ok\xe2\x82\n", b"a\xc2\n", b"\xf0\x9f\x98\n",
        b"\xc2\xa0\xff\n", "\u00e9t\u00e9\n".encode(), "\u00e9\xa0\n".encode()])
    def test_line_text_is_the_decoded_line_stripped(self, raw):
        # a sequence the newline cuts short has the reason the whole line gives it
        try:
            expected = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            message = f"^invalid UTF-8: {exc.reason} at byte {exc.start}$"
            with pytest.raises(ParseError, match=message):
                dump._text(raw)
        else:
            assert dump._text(raw) == expected


ROOT = Path(__file__).resolve().parents[1]


def equal_records(n):
    """n dump lines of one length each, so byte shares fall on line starts."""
    return [json.dumps({"context_id": f"c{k:02d}", "probs": [0.5, 0.25, 0.25]})
            for k in range(n)]


def report_csv(lines):
    """analyze-dump's CSV report on these lines at the default flags, built
    from the library."""
    rows = ([_cell(v) for v in expected_dump_row(line, DecodeConfig())] for line in lines)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows([DUMP_HEADER, *rows])
    return buffer.getvalue()


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestDumpRanges:
    """analyze-dump's report does not depend on how many workers scan the dump."""

    def analyze(self, monkeypatch, capsys, tmp_path, data, *flags):
        """(code, stdout, stderr) of analyze-dump on data, asserting that 1 and 3
        workers agree on them and on the --output bytes."""
        path = tmp_path / "dump.jsonl"
        path.write_bytes(data)
        argv = ["analyze-dump", "--input", str(path), *flags]
        runs = {}
        for n in (1, 3):
            force_dump_workers(monkeypatch, n)
            report = tmp_path / f"report-{n}"
            runs[n] = (run(capsys, *argv), run(capsys, *argv, "--format", "json"),
                       run(capsys, *argv, "--output", str(report)),
                       report.read_bytes() if report.exists() else None)
        assert runs[1] == runs[3]
        return runs[1][0]

    def ranges(self, monkeypatch, data, tmp_path):
        path = tmp_path / "dump.jsonl"
        path.write_bytes(data)
        force_dump_workers(monkeypatch, 3)
        return dump._dump_ranges(str(path))

    @pytest.mark.parametrize("skip_bad", [False, True])
    def test_a_bad_line_in_each_range(self, monkeypatch, capsys, tmp_path, skip_bad):
        lines = equal_records(9)
        for k in (1, 4, 7):
            lines[k] = "x" + lines[k][1:]
        data = "".join(line + "\n" for line in lines).encode()
        size = len(lines[0]) + 1
        assert self.ranges(monkeypatch, data, tmp_path) == [
            (0, 3 * size), (3 * size, 6 * size), (6 * size, None)]
        flags = ["--skip-bad"] if skip_bad else []
        code, out, err = self.analyze(monkeypatch, capsys, tmp_path, data, *flags)
        problem = "invalid JSON: Expecting value"
        if skip_bad:
            assert (code, out) == (0, report_csv([lines[k] for k in (0, 2, 3, 5, 6, 8)]))
            assert err == "".join(f"warning: skipped line {k}: {problem}\n"
                                  for k in (2, 5, 8))
        else:
            assert (code, out) == (2, "")
            assert err == ("error: " + "; ".join(f"line {k}: {problem}" for k in (2, 5, 8))
                           + "\n")

    @pytest.mark.parametrize("problem_first", [True, False])
    @pytest.mark.parametrize("skip_bad", [False, True])
    def test_a_scoring_error_and_a_parse_problem(self, monkeypatch, capsys, tmp_path,
                                                problem_first, skip_bad):
        lines = equal_records(9)
        bad, refused = (1, 7) if problem_first else (7, 1)  # in the first and last range
        lines[bad] = "x" + lines[bad][1:]
        lines[refused] = lines[refused].replace("0.5, 0.25", "0.25, 0.5")

        def scorer(probs, cfg):
            if probs.probs[0] == 0.25:
                raise SsdLabError("scorer refused")
            return retained_support(probs, cfg)

        monkeypatch.setattr(dump, "retained_support", scorer)
        data = "".join(line + "\n" for line in lines).encode()
        assert len(self.ranges(monkeypatch, data, tmp_path)) == 3
        flags = ["--skip-bad"] if skip_bad else []
        code, out, err = self.analyze(monkeypatch, capsys, tmp_path, data, *flags)
        assert (code, out) == (2, "")
        if problem_first and not skip_bad:  # no report will be written, so no scoring
            assert err == "error: line 2: invalid JSON: Expecting value\n"
        else:
            assert err == "error: scorer refused\n"

    @pytest.mark.parametrize("blank", [b"\n", b"\r\n", b" \t\r\n"])
    def test_blank_and_crlf_lines_at_a_cut(self, monkeypatch, capsys, tmp_path, blank):
        lines = equal_records(6)
        data = b"".join(blank + line.encode() + b"\r\n" for line in lines)
        cuts = [start for start, _ in self.ranges(monkeypatch, data, tmp_path)[1:]]
        assert len(cuts) == 2
        for cut in cuts:  # each cut starts a blank line after a CRLF line
            assert data[cut - 2:cut] == b"\r\n" and data[cut:].startswith(blank)
        assert self.analyze(monkeypatch, capsys, tmp_path, data) == (
            0, report_csv(lines), "")

    def test_a_final_line_without_a_newline(self, monkeypatch, capsys, tmp_path):
        lines = list(dump_lines(np.random.default_rng(20)))
        data = "\n".join(lines).encode()
        assert len(self.ranges(monkeypatch, data, tmp_path)) == 3
        assert self.analyze(monkeypatch, capsys, tmp_path, data) == (
            0, report_csv(lines), "")

    def test_a_giant_line_that_cannot_be_cut(self, monkeypatch, capsys, tmp_path):
        w = np.random.default_rng(21).gamma(0.3, size=20_000)
        giant = json.dumps({"context_id": "giant", "probs": (w / w.sum()).tolist()})
        data = giant.encode() + b"\n"
        assert self.ranges(monkeypatch, data, tmp_path) == [(0, None)]
        assert self.analyze(monkeypatch, capsys, tmp_path, data) == (
            0, report_csv([giant]), "")
        # between two short lines, the giant one is a range of its own
        short = equal_records(2)
        lines = [short[0], giant, short[1]]
        data = "".join(line + "\n" for line in lines).encode()
        head, tail = len(short[0]) + 1, len(short[0]) + len(giant) + 2
        assert self.ranges(monkeypatch, data, tmp_path) == [
            (0, head), (head, tail), (tail, None)]
        assert self.analyze(monkeypatch, capsys, tmp_path, data) == (
            0, report_csv(lines), "")

    @pytest.mark.parametrize("cpus", range(2, 10))
    def test_cuts_are_the_line_starts_nearest_the_byte_quantiles(self, monkeypatch, tmp_path,
                                                                 cpus):
        # at 2 CPUs the first layout's midpoint, byte 10, ties between the
        # line starts at 8 and 12; then seeded layouts of blank, short, 1-20 KB
        # and 64-200 KB lines, the last one with or without its newline
        force_dump_workers(monkeypatch, cpus)
        gen = np.random.default_rng(24)
        layouts = [([7, 3, 7], 1)] + [
            ([int(gen.integers(*gen.choice([(0, 1), (1, 200), (1000, 20_000),
                                            (65_537, 200_000)])))
              for _ in range(gen.integers(1, 12))], int(gen.integers(2)))
            for _ in range(40)]
        path = tmp_path / "dump.jsonl"
        for lengths, newline in layouts:
            data = b"\n".join(b"x" * n for n in lengths) + b"\n" * newline
            path.write_bytes(data)
            size = len(data)
            # 0, the byte past each \n, and EOF, which ends the last line too
            starts = np.unique(np.concatenate(
                [[0], np.flatnonzero(np.frombuffer(data, np.uint8) == 10) + 1, [size]]))
            workers = min(cpus, size)
            share = size // max(workers, 1)
            cuts = {int(starts[np.argmin(np.abs(starts - k * share))])  # the earlier on a tie
                    for k in range(1, workers)}
            bounds = [0, *sorted(cuts - {0, size}), None]
            assert dump._dump_ranges(str(path)) == list(zip(bounds, bounds[1:])), lengths

    def test_an_empty_file_is_one_range(self, monkeypatch, tmp_path):
        # a file said to hold 10 MiB but read empty, as one truncated meanwhile
        path = tmp_path / "dump.jsonl"
        path.write_bytes(b"")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
        monkeypatch.setattr(os.path, "getsize", lambda p: 10 << 20)
        assert dump._dump_ranges(str(path)) == [(0, None)]

    def test_a_fifo_is_read_to_eof_by_one_worker(self, monkeypatch, capsys, tmp_path):
        lines = list(dump_lines(np.random.default_rng(22)))
        source = tmp_path / "dump.jsonl"
        source.write_text("".join(line + "\n" for line in lines))
        fifo = tmp_path / "dump.fifo"
        os.mkfifo(fifo)
        force_dump_workers(monkeypatch, 3)
        assert dump._dump_ranges(str(fifo)) == [(0, None)]
        writer = subprocess.Popen(["sh", "-c", 'cat "$1" > "$2"', "sh", source, fifo])
        try:
            assert run(capsys, "analyze-dump", "--input", str(fifo)) == (
                0, report_csv(lines), "")
        finally:
            writer.kill()
            writer.wait()

    def test_dev_stdin_is_read_to_eof(self, tmp_path):
        lines = list(dump_lines(np.random.default_rng(23)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ssdlab.cli", "analyze-dump", "--input", "/dev/stdin"],
            input="".join(line + "\n" for line in lines).encode(),
            capture_output=True, env=env, check=False, timeout=120)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (
            0, report_csv(lines), b"")


class TestDumpWorkerLifecycle:
    """No dump worker outlives cli.main, whatever way the run ends."""

    @pytest.fixture(autouse=True)
    def dump(self, monkeypatch, tmp_path):
        force_dump_workers(monkeypatch, 3)
        self.path = tmp_path / "dump.jsonl"
        self.lines = equal_records(9)
        self.path.write_text("".join(line + "\n" for line in self.lines))
        assert len(dump._dump_ranges(str(self.path))) == 3

    def test_after_a_report(self, capsys):
        assert run(capsys, "analyze-dump", "--input", str(self.path)) == (
            0, report_csv(self.lines), "")
        no_child_left()

    def test_after_a_parse_error(self, capsys):
        self.path.write_text("".join(line + "\n" for line in self.lines) + "garbage\n")
        code, out, err = run(capsys, "analyze-dump", "--input", str(self.path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 10: invalid JSON")
        no_child_left()

    def test_a_worker_exception_surfaces_in_the_parent(self, monkeypatch):
        parent = os.getpid()

        def scorer(probs, cfg):
            if os.getpid() != parent:
                raise RuntimeError(f"scorer failed in worker {os.getpid()}")
            return retained_support(probs, cfg)

        monkeypatch.setattr(dump, "retained_support", scorer)
        with pytest.raises(RuntimeError, match="scorer failed in worker") as failure:
            main(["analyze-dump", "--input", str(self.path)])
        assert str(parent) not in str(failure.value)
        no_child_left()

    def test_an_abort_in_the_parent_kills_the_workers(self, monkeypatch):
        parent = os.getpid()

        class Abort(BaseException):
            pass

        def scorer(probs, cfg):
            if os.getpid() == parent:
                raise Abort
            time.sleep(60)  # a worker still busy when the parent gives up

        monkeypatch.setattr(dump, "retained_support", scorer)
        started = time.monotonic()
        with pytest.raises(Abort):
            main(["analyze-dump", "--input", str(self.path)])
        assert time.monotonic() - started < 30
        no_child_left()


class TestMcWorkerLifecycle:
    """No toy-mc worker outlives cli.main, whatever way the run ends."""

    ARGV = ["toy-mc", "--temperature", "0.8", "--n", str(3 * MC_BATCH), "--seed", "1"]

    def test_after_a_report(self, monkeypatch, capsys):
        force_dump_workers(monkeypatch, 1)
        one = run(capsys, *self.ARGV)
        assert one[0] == 0 and one[2] == ""
        force_dump_workers(monkeypatch, 3)
        assert run(capsys, *self.ARGV) == one
        no_child_left()

    def test_a_worker_exception_surfaces_in_the_parent(self, monkeypatch):
        force_dump_workers(monkeypatch, 3)
        parent = os.getpid()

        def sampler(policy, rng, size):
            if os.getpid() != parent:
                raise RuntimeError(f"sampler failed in worker {os.getpid()}")
            return gumbel_max_sample(policy, rng, size)

        monkeypatch.setattr(toyfsm, "gumbel_max_sample", sampler)
        with pytest.raises(RuntimeError, match="sampler failed in worker") as failure:
            main(self.ARGV)
        assert str(parent) not in str(failure.value)
        no_child_left()

    def test_an_abort_in_the_parent_kills_the_workers(self, monkeypatch):
        force_dump_workers(monkeypatch, 3)
        parent = os.getpid()

        class Abort(BaseException):
            pass

        def sampler(policy, rng, size):
            if os.getpid() == parent:
                raise Abort
            time.sleep(60)  # a worker still busy when the parent gives up

        monkeypatch.setattr(toyfsm, "gumbel_max_sample", sampler)
        started = time.monotonic()
        with pytest.raises(Abort):
            main(self.ARGV)
        assert time.monotonic() - started < 30
        no_child_left()


@pytest.mark.parametrize("argv, code", [
    (["decode", "--probs", "0.5,0.3,0.2", "--top-p", "0.8"], 0),
    (["decode", "--probs", "0.5,0.3,0.2", "--top-p", "2"], 1),
])
def test_entry_freezes_the_import_heap_and_exits_normally(capsys, argv, code):
    # a shutdown that skipped the interpreter's exit (os._exit) would drop the
    # atexit handler, and with it coverage and profiler output
    script = (
        "import atexit, gc, sys\n"
        "import ssdlab.cli\n"
        "atexit.register(lambda: print(f'atexit: frozen={gc.get_freeze_count() > 0}',"
        " file=sys.stderr))\n"
        "ssdlab.cli.entry()\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          env=env, check=False, timeout=120, text=True)
    expected = run(capsys, *argv)
    assert expected[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, expected[1], expected[2] + "atexit: frozen=True\n")


def test_convergence_on_the_last_allowed_step_does_not_warn(capsys):
    argv = ["--probs", "0.5,0.2,0.15,0.1,0.05", "--top-p", "0.8", "--temperature", "0.8",
            "--learning-rate", "4.0", "--tv-tolerance", "1e-3"]
    code, out, err = run(capsys, "train-student", *argv, "--log-every", "1000")
    assert code == 0 and err == ""
    first = int(csv_rows(out)[1][-1][0])
    code, out, err = run(capsys, "train-student", *argv, "--max-steps", str(first))
    assert code == 0 and err == ""
    assert int(csv_rows(out)[1][-1][0]) == first
    code, _, err = run(capsys, "train-student", *argv, "--max-steps", str(first - 1))
    assert code == 0 and f"step cap of {first - 1}" in err

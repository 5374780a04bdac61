"""Chain-of-states world: calibration, exact success, optimization, sampling."""

import hashlib
import itertools
import os
import threading
import tracemalloc

import numpy as np
import pytest

from ssdlab import (
    Categorical,
    EmptySetError,
    InvalidEntryError,
    InvalidRatioError,
    OutOfRangeError,
    build_archetype,
    build_toy_fsm,
    distill_fsm,
    exact_success,
    geometric_tail,
    gumbel_max_sample,
    make_stream,
    monte_carlo_success,
    operational_policy,
    optimize_temperature,
    restrict,
    retained_support,
    ssd_target,
    temper,
    temperature_sweep,
    top_p_set,
    topp_robustness_grid,
)
from ssdlab import decode, toyfsm
from ssdlab.cli import main
from ssdlab.decode import DecodeConfig, _block_rows, _prefix_power, make_stream
from ssdlab.toyfsm import (
    DEFAULT_N_LOCKS,
    DEFAULT_TAIL_RATIO,
    FORK_HEAD,
    GRID_MAX_POINTS,
    GRID_STEP,
    LOCK_HEAD,
    MAX_VOCAB_SIZE,
    MC_BATCH,
    MC_MAX_LOCKS,
    REFINE_TOL,
    ROOT_HEAD,
    VOCAB_SIZE,
    _mc_count,
    _mc_states,
    _success,
)

# Frozen tail leads: residual * (1 - r) / (1 - r^12) with r = 1/2.
LOCK_TAIL_FIRST = 0.05401318681318675
FORK_TAIL_FIRST = 0.1440351648351648

# Frozen optimum pairs at evaluation top_p = 0.80 (grid 1e-3 + refinement).
TEACHER_T_STAR = 0.639468
TEACHER_P_STAR = 0.08333595
STUDENT_T_STAR = 2.094097
STUDENT_P_STAR = 0.13773200

# Frozen success gaps (percentage points) over the robustness grid.
GRID_GAPS_PP = {
    0.65: 3.876914,
    0.70: 3.330874,
    0.75: 4.175690,
    0.80: 5.439606,
    0.85: 2.092776,
    0.90: 1.438449,
}

TRAIN_T = 0.9
TRAIN_TOP_P = 0.85

# Ten correct tokens out of index order: from 8, numpy may sum them pairwise.
TEN_TOKENS = [9, 0, 14, 3, 7, 1, 12, 5, 2, 15]


def _with_correct(fsm, correct):
    """fsm with every state's correct tokens replaced."""
    return toyfsm.Fsm(*(
        toyfsm.Archetype(a.dist, np.array(correct)) for a in (fsm.root, fsm.fork, fsm.lock)
    ), n_locks=fsm.n_locks)


@pytest.fixture(scope="module")
def teacher():
    return build_toy_fsm()


@pytest.fixture(scope="module")
def student(teacher):
    return distill_fsm(teacher, TRAIN_T, TRAIN_TOP_P)


class TestGeometricTail:
    def test_frozen_lead_values(self):
        lock_tail = geometric_tail(1.0 - sum(LOCK_HEAD), 0.5, 12)
        fork_tail = geometric_tail(1.0 - sum(FORK_HEAD), 0.5, 12)
        assert lock_tail[0] == pytest.approx(LOCK_TAIL_FIRST, abs=1e-15)
        assert fork_tail[0] == pytest.approx(FORK_TAIL_FIRST, abs=1e-15)

    def test_sums_to_residual_with_exact_ratio(self):
        tail = geometric_tail(0.21, 0.5, 12)
        assert tail.sum() == pytest.approx(0.21, abs=1e-15)
        np.testing.assert_allclose(tail[1:] / tail[:-1], 0.5, atol=1e-12)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.5, 1.5])
    def test_bad_ratio_rejected(self, ratio):
        with pytest.raises(InvalidRatioError):
            geometric_tail(0.2, ratio, 12)


class TestArchetypes:
    def test_head_then_geometric_tail(self):
        arch = build_archetype(LOCK_HEAD, 0.5, (0,))
        assert arch.dist.alphabet_size == VOCAB_SIZE
        np.testing.assert_allclose(arch.dist.probs[:4], LOCK_HEAD, atol=1e-15)
        assert arch.dist.probs[4] == pytest.approx(LOCK_TAIL_FIRST, abs=1e-15)
        assert arch.dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert arch.correct_tokens.tolist() == [0]

    def test_head_validation(self):
        with pytest.raises(InvalidEntryError):
            build_archetype([-0.1, 0.5], 0.5, (0,))
        with pytest.raises(InvalidEntryError):
            build_archetype([0.9, 0.2], 0.5, (0,))  # no residual left
        with pytest.raises(OutOfRangeError):
            build_archetype([0.01] * (VOCAB_SIZE + 1), 0.5, (0,))
        # the bounds are exact: a zero head value is allowed, and a head of exactly
        # V values or of mass exactly 1 is refused with its own message
        assert build_archetype([0.5, 0.0], 0.5, (0,)).dist.probs[1] == 0.0
        with pytest.raises(OutOfRangeError, match="head length 4 leaves no tail"):
            build_archetype([0.1, 0.2, 0.3, 0.1], 0.5, (0,), vocab_size=4)
        with pytest.raises(InvalidEntryError, match="strictly less than 1"):
            build_archetype([0.5, 0.5], 0.5, (0,))

    def test_vocab_budget_is_inclusive(self):
        assert build_toy_fsm(vocab_size=MAX_VOCAB_SIZE).lock.dist.alphabet_size == MAX_VOCAB_SIZE
        with pytest.raises(OutOfRangeError, match="vocab_size must be <= "):
            build_toy_fsm(vocab_size=MAX_VOCAB_SIZE + 1)

    def test_correct_tokens_are_validated_and_copied(self):
        tokens = np.array([1, 0])
        arch = build_archetype(ROOT_HEAD, 0.5, tokens)
        tokens[0] = 5  # the archetype holds its own copy, and the caller's stays writable
        assert arch.correct_tokens.tolist() == [1, 0]
        with pytest.raises(OutOfRangeError):
            build_archetype(ROOT_HEAD, 0.5, (VOCAB_SIZE,))
        with pytest.raises(InvalidEntryError):
            build_archetype(ROOT_HEAD, 0.5, (0, 0))

    def test_n_locks_must_be_an_integer(self):
        assert build_toy_fsm(n_locks=np.int64(2)).n_locks == 2
        with pytest.raises(OutOfRangeError, match="^n_locks must be an integer, got 2.5$"):
            build_toy_fsm(n_locks=2.5)

    def test_default_machine_wiring(self, teacher):
        assert teacher.n_locks == DEFAULT_N_LOCKS
        assert teacher.root.correct_tokens.tolist() == [0, 1]
        assert teacher.fork.correct_tokens.tolist() == [0]
        assert teacher.lock.correct_tokens.tolist() == [0]
        tail = teacher.root.dist.probs[4:]
        np.testing.assert_allclose(tail[1:] / tail[:-1], DEFAULT_TAIL_RATIO, rtol=1e-12)
        np.testing.assert_allclose(teacher.root.dist.probs[:4], ROOT_HEAD, atol=1e-15)


class TestOperationalPolicy:
    def test_matches_manual_pipeline(self, teacher):
        for arch in (teacher.root, teacher.fork, teacher.lock):
            tempered = temper(arch.dist, 0.9)
            kept = top_p_set(tempered, 0.85)
            expected = restrict(tempered, kept)
            got = operational_policy(arch, 0.9, 0.85)
            np.testing.assert_allclose(got.probs, expected.probs, atol=1e-14)

    def test_lock_nucleus_is_two_tokens(self, teacher):
        got = operational_policy(teacher.lock, TRAIN_T, TRAIN_TOP_P)
        assert tuple(np.flatnonzero(got.probs)) == (0, 1)


class TestExactSuccess:
    def test_unit_settings_closed_form(self, teacher):
        # no truncation, no tempering: plain product of correct-token masses
        expected = (0.200 + 0.190) * 0.148 * 0.750**3
        assert exact_success(teacher, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_nucleus_settings_closed_form(self, teacher):
        # at T=1, top_p=0.8 the nuclei have masses 0.845, .856035..., 0.805
        fork_nucleus_mass = 0.148 + 0.280 + 0.140 + 0.144 + FORK_TAIL_FIRST
        expected = (
            (0.390 / 0.845)
            * (0.148 / fork_nucleus_mass)
            * (0.750 / 0.805) ** 3
        )
        assert exact_success(teacher, 1.0, 0.8) == pytest.approx(expected, abs=1e-12)

    def test_cold_limit_fails_at_root(self, teacher):
        # the root's modal token is wrong, so near-greedy decoding loses
        assert exact_success(teacher, 0.01, 0.8) < 1e-6

    def test_bounded_on_random_settings(self, teacher, rng):
        for _ in range(100):
            t = float(rng.uniform(0.05, 5.0))
            top_p = float(rng.uniform(0.3, 1.0))
            val = exact_success(teacher, t, top_p)
            assert 0.0 <= val <= 1.0


def _literal_success(fsm, temperature, top_p):
    """Product of per-state correct masses, each from its own retained_support."""

    def mass(arch):
        cfg = DecodeConfig(temperature=temperature, top_p=top_p)
        probs = retained_support(arch.dist, cfg).operational.probs
        return float(probs[np.asarray(arch.correct_tokens)].sum())

    return mass(fsm.root) * mass(fsm.fork) * mass(fsm.lock) ** fsm.n_locks


class TestBatchedSuccess:
    EDGE_TEMPERATURES = (1e-310, 1e20)

    @pytest.mark.parametrize("role", ["teacher", "student"])
    def test_matches_literal_product(self, role, teacher, student, rng):
        fsm = teacher if role == "teacher" else student
        top_ps = [1.0, 0.8, *rng.uniform(0.05, 1.0, 18).tolist()]
        checked = 0
        for top_p in top_ps:
            temps = np.concatenate(
                [self.EDGE_TEMPERATURES, 10.0 ** rng.uniform(-3.0, 3.0, 10)]
            )
            batch = _success(fsm, temps, top_p)
            assert batch.shape == temps.shape
            assert np.all(np.isfinite(batch))
            for t, value in zip(temps.tolist(), batch.tolist()):
                assert value == pytest.approx(
                    _literal_success(fsm, t, top_p), rel=0, abs=1e-15
                )
                assert _success(fsm, np.array([t]), top_p)[0] == value
                assert exact_success(fsm, t, top_p) == value
                checked += 1
        assert checked >= 200

    def test_state_masses_bit_equal_retained_support(self, teacher, student, rng):
        # row i of a temperature column is retained_support at T_i, bit for bit
        temps = np.concatenate(
            [self.EDGE_TEMPERATURES, 10.0 ** rng.uniform(-2.0, 2.0, 300)]
        )
        for fsm in (teacher, student):
            for arch in (fsm.root, fsm.fork, fsm.lock):
                for top_k, top_p in itertools.product((0, 1, 3, 16), (1.0, 0.8, 0.35)):
                    order, m, rows = _prefix_power(arch.dist, temps, top_k, top_p)
                    assert rows.shape == (temps.size, order.size)
                    full = np.zeros((temps.size, arch.dist.alphabet_size))
                    full[:, order] = rows  # column j of the rank-space rows is token order[j]
                    for t, k, row in zip(temps.tolist(), m.tolist(), full):
                        cfg = DecodeConfig(temperature=t, top_k=top_k, top_p=top_p)
                        rs = retained_support(arch.dist, cfg)
                        assert order[:k].tolist() == rs.support.tolist()
                        np.testing.assert_array_equal(
                            Categorical(row).probs, rs.operational.probs, strict=True
                        )

    @pytest.mark.parametrize("correct", [None, TEN_TOKENS],
                             ids=["toy-tokens", "ten-tokens"])
    def test_masses_read_by_rank_are_the_alphabet_gather(self, teacher, student, correct):
        # success reads each correct token's mass from the kernel's rank-space rows
        # by rank; it is the product of those rows written into the alphabet,
        # gathered at the correct tokens and summed in token order, bit for bit.
        # Ten correct tokens out of index order pin the order of that sum (from 8
        # terms numpy sums a contiguous row pairwise, where the gather's
        # column-major block is summed one token after another), and the
        # student's states leave some of them past every prefix.
        temps = np.concatenate([self.EDGE_TEMPERATURES, np.geomspace(1e-2, 1e2, 60)])

        def wide_mass(arch, top_p):
            order, _, rows = _prefix_power(arch.dist, temps, 0, top_p)
            full = np.zeros((temps.size, arch.dist.alphabet_size))
            full[:, order] = rows
            return full[:, arch.correct_tokens].sum(axis=1)

        for fsm in (teacher, student):
            if correct is not None:
                fsm = _with_correct(fsm, correct)
            for top_p in (1.0, 0.8, 0.35):
                expected = (
                    wide_mass(fsm.root, top_p) * wide_mass(fsm.fork, top_p)
                    * wide_mass(fsm.lock, top_p) ** fsm.n_locks
                )
                assert _success(fsm, temps, top_p).tobytes() == expected.tobytes()

    def test_one_temperature_is_its_batch_row_with_ten_correct_tokens(self, teacher):
        # from 8 terms numpy sums a one-row (tokens, 1) block pairwise, where a
        # batch adds its tokens one after another; success adds them in sequence
        fsm = _with_correct(teacher, TEN_TOKENS)
        temps = np.geomspace(0.05, 5.0, 200)
        for top_p in (1.0, 0.9, 0.8, 0.65):
            batch = _success(fsm, temps, top_p)
            single = np.array([exact_success(fsm, t, top_p) for t in temps.tolist()])
            assert single.tobytes() == batch.tobytes()

    def test_edges_are_finite_limits(self, teacher):
        # the cold limit is greedy: the root's argmax (token 2) is wrong
        assert exact_success(teacher, 1e-310, 0.8) == 0.0
        # the hot limit is uniform over all 16 tokens
        hot = exact_success(teacher, 1e20, 1.0)
        assert hot == pytest.approx((2 / 16) * (1 / 16) * (1 / 16) ** 3, abs=1e-15)


class TestDistillation:
    def test_student_archetypes_match_targets(self, teacher, student):
        cfg = DecodeConfig(temperature=TRAIN_T, top_p=TRAIN_TOP_P)
        for kind in ("root", "fork", "lock"):
            base = getattr(teacher, kind).dist
            target = ssd_target(base, cfg)
            got = getattr(student, kind).dist
            np.testing.assert_allclose(got.probs, target.q.probs, atol=1e-14)

    def test_lock_support_and_values(self, student):
        probs = student.lock.dist.probs
        assert tuple(np.flatnonzero(probs)) == (0, 1)
        assert probs[0] == pytest.approx(0.9479967308107916, abs=1e-12)
        assert probs[1] == pytest.approx(0.05200326918920836, abs=1e-12)

    def test_fork_support_and_values(self, student):
        probs = student.fork.dist.probs
        assert tuple(np.flatnonzero(probs)) == (0, 1, 2, 3, 4)
        assert probs[1] == pytest.approx(0.34354784, abs=1e-8)
        assert probs[0] == pytest.approx(0.16917051, abs=1e-8)

    def test_root_support_and_values(self, student):
        probs = student.root.dist.probs
        assert tuple(np.flatnonzero(probs)) == (0, 1, 2, 3)
        assert probs[2] == pytest.approx(0.40604754, abs=1e-8)
        assert probs[0] == pytest.approx(0.23355682, abs=1e-8)

    def test_metadata_carries_over(self, student):
        assert student.root.correct_tokens.tolist() == [0, 1]
        assert student.lock.correct_tokens.tolist() == [0]
        assert student.n_locks == DEFAULT_N_LOCKS


class TestSweep:
    def test_rows_match_exact_success(self, teacher, student):
        grid = [0.5, 1.0, 2.0]
        sweep = temperature_sweep(teacher, student, grid, 0.8)
        assert [r.temperature for r in sweep] == grid
        for row in sweep:
            assert row.top_p == 0.8
            assert row.teacher_success == exact_success(teacher, row.temperature, 0.8)
            assert row.student_success == exact_success(student, row.temperature, 0.8)
            assert row.gap == pytest.approx(
                row.student_success - row.teacher_success, abs=1e-15
            )

    def test_grid_validation(self, teacher, student):
        with pytest.raises(EmptySetError):
            temperature_sweep(teacher, student, [], 0.8)
        with pytest.raises(OutOfRangeError):
            temperature_sweep(teacher, student, [0.5, -1.0], 0.8)
        with pytest.raises(OutOfRangeError, match="grid entries must be positive"):
            temperature_sweep(teacher, student, [0.5, 0.0], 0.8)


class TestOptimize:
    def test_teacher_frozen_optimum(self, teacher):
        t_star, p_star = optimize_temperature(teacher, 0.80)
        assert t_star == pytest.approx(TEACHER_T_STAR, abs=5e-4)
        assert p_star == pytest.approx(TEACHER_P_STAR, abs=1e-6)

    def test_student_frozen_optimum(self, student):
        t_star, p_star = optimize_temperature(student, 0.80)
        assert t_star == pytest.approx(STUDENT_T_STAR, abs=5e-4)
        assert p_star == pytest.approx(STUDENT_P_STAR, abs=1e-6)

    def test_returned_pair_is_attained(self, teacher):
        # the reported value must be the exact success at the reported
        # temperature, even when the optimum hugs a nucleus-size boundary
        t_star, p_star = optimize_temperature(teacher, 0.80)
        assert p_star == exact_success(teacher, t_star, 0.80)

    def test_beats_grid_neighbors(self, teacher):
        t_star, p_star = optimize_temperature(teacher, 0.80)
        for delta in (-0.002, -0.001, 0.001, 0.002):
            assert p_star >= exact_success(teacher, t_star + delta, 0.80) - 1e-12

    def test_respects_bounds(self, teacher):
        t_star, _ = optimize_temperature(teacher, 0.80, bounds=(0.3, 0.5))
        assert 0.3 <= t_star <= 0.5

    @pytest.mark.parametrize(
        "bounds", [(0.05, np.inf), (np.inf, np.inf), (0.0, 5.0), (0.5, 0.5), (np.nan, 5.0)]
    )
    def test_bounds_must_be_finite_and_ordered(self, teacher, bounds):
        with pytest.raises(OutOfRangeError, match="0 < lo < hi < inf"):
            optimize_temperature(teacher, 0.80, bounds=bounds)

    @pytest.mark.parametrize("bounds", [(0.05, 1e300), (0.05, 100.052), (1.0, 1.5e308)])
    def test_oversized_grid_rejected_before_allocating(self, teacher, bounds):
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRangeError, match="more than 100000 grid points"):
                optimize_temperature(teacher, 0.80, bounds=bounds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_a_flat_curve_keeps_its_first_point(self, teacher, monkeypatch):
        # top-p 0.01 keeps each state's argmax, and the root's, token 2, starts no
        # path: success is 0 at every temperature. Ties keep the first point, and
        # the refinement keeps the bracket's lower part
        probes = []
        monkeypatch.setattr(toyfsm, "exact_success",
                            lambda *args: probes.append(args[1]) or exact_success(*args))
        assert optimize_temperature(teacher, 0.01, bounds=(0.5, 1.0)) == (0.5, 0.0)
        assert len(probes) > 2 and 0.5 < probes[-1] < 0.5 + REFINE_TOL

    def test_a_bracket_as_wide_as_the_tolerance_is_not_refined(self, teacher, monkeypatch):
        # the grid's best point and its neighbours, as optimize_temperature finds them
        ts = np.arange(0.5, 1.0 + GRID_STEP / 2, GRID_STEP)
        i = int(np.argmax(_success(teacher, np.clip(ts, 0.5, 1.0), 0.8)))
        monkeypatch.setattr(toyfsm, "REFINE_TOL", float(ts[i + 1] - ts[i - 1]))
        probes = []
        monkeypatch.setattr(toyfsm, "exact_success",
                            lambda *args: probes.append(args[1]) or exact_success(*args))
        optimize_temperature(teacher, 0.8, bounds=(0.5, 1.0))
        assert probes == [(ts[i - 1] + ts[i + 1]) / 2.0]  # the midpoint alone

    def test_largest_grid_is_accepted(self, teacher):
        # 0.05 + 99 999 steps of 1e-3 is the 100 000th point
        t_star, _ = optimize_temperature(teacher, 0.80, bounds=(0.05, 100.049))
        assert t_star == pytest.approx(TEACHER_T_STAR, abs=5e-4)


def _traced_peak(fn):
    """fn()'s result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class _CountingStream:
    """A stream stand-in that records the shape of each block of uniforms it draws."""

    def __init__(self, rng):
        self.rng, self.shapes = rng, []

    def random(self, shape):
        self.shapes.append(shape)
        return self.rng.random(shape)


class _CountingPhilox(np.random.Philox):
    """A Philox bit generator that records the shape of each block of raw words it draws."""

    def __init__(self, seed):
        super().__init__(seed)
        self.shapes = []

    def random_raw(self, size=None, output=True):
        self.shapes.append(size)
        return super().random_raw(size, output)


class TestBlockBudget:
    V = 4096
    ROWS = 7  # a lowered budget of 7 rows, so the last chunk is short
    # a V=16 policy with several retained tokens, so its uniforms go through the row loop
    V16 = Categorical(np.r_[FORK_HEAD, np.full(12, (1.0 - sum(FORK_HEAD)) / 12)])

    def test_every_v16_grid_is_one_block(self):
        assert _block_rows(VOCAB_SIZE) >= GRID_MAX_POINTS

    def test_a_v16_batch_is_drawn_in_four_chunks(self):
        # as uniforms from a stream that is not Philox, and as raw words from Philox
        stream = _CountingStream(make_stream(0))
        gumbel_max_sample(self.V16, stream, size=MC_BATCH)
        assert stream.shapes == [(MC_BATCH // 4, VOCAB_SIZE)] * 4
        bitgen = _CountingPhilox(0)
        gumbel_max_sample(self.V16, np.random.Generator(bitgen), size=MC_BATCH)
        assert bitgen.shapes == [(MC_BATCH // 4, VOCAB_SIZE)] * 4

    @staticmethod
    def _positive_width(fsm):
        return max(np.count_nonzero(a.dist.probs) for a in (fsm.root, fsm.fork, fsm.lock))

    def test_temperature_rows_are_scored_in_chunks(self, monkeypatch):
        fsm = build_toy_fsm(vocab_size=self.V)
        width = self._positive_width(fsm)  # the tail underflows: 1077 of 4096 tokens
        temperatures = np.linspace(0.3, 3.0, 500)
        whole, whole_peak = _traced_peak(lambda: _success(fsm, temperatures, 0.8))
        # a lowered budget of ROWS rows of the kernel's 17 bytes an entry
        monkeypatch.setattr(decode, "BLOCK_BYTES", self.ROWS * 17 * width)
        chunked, peak = _traced_peak(lambda: _success(fsm, temperatures, 0.8))
        assert chunked.tobytes() == whole.tobytes()
        # one chunk at the default budget: w and its cumsum are (500, width) each
        assert whole_peak > 500 * 16 * width
        # a chunk's temporaries, beside a few V-wide vectors: p's sort and its mask
        assert peak < self.ROWS * 17 * width + 8 * 8 * self.V

    def test_vocabulary_scale_rows_are_bounded_by_positive_width(self):
        # at V = 262 144 the kernel's rows are as wide as the positive support, not
        # V: 64 temperatures take one chunk of 64 rows, beside p's sort, where
        # (rows, V) blocks took 64 MiB each
        fsm = build_toy_fsm(vocab_size=MAX_VOCAB_SIZE)
        width = self._positive_width(fsm)
        assert 1000 < width < 1100
        temperatures = np.geomspace(0.05, 5.0, 64)
        values, peak = _traced_peak(lambda: _success(fsm, temperatures, 0.8))
        assert values.min() == 0.0 and 0.07 < values.max() < TEACHER_P_STAR  # cold rows are greedy
        assert peak < 64 * 17 * width + 2 * 8 * MAX_VOCAB_SIZE

    def test_draws_are_taken_in_chunks_from_one_stream(self, monkeypatch):
        w = np.random.default_rng(self.V).gamma(0.5, size=self.V)
        policy = Categorical(w / w.sum())
        whole_rng, chunked_rng = make_stream(3), make_stream(3)
        monkeypatch.setattr(decode, "SAMPLE_BLOCK_BYTES", 1000 * 8 * self.V)
        whole, whole_peak = _traced_peak(
            lambda: gumbel_max_sample(policy, whole_rng, size=1000))
        monkeypatch.setattr(decode, "SAMPLE_BLOCK_BYTES", self.ROWS * 8 * self.V)
        chunked, peak = _traced_peak(
            lambda: gumbel_max_sample(policy, chunked_rng, size=1000))
        assert chunked.dtype == whole.dtype
        np.testing.assert_array_equal(chunked, whole)
        np.testing.assert_array_equal(chunked_rng.random(8), whole_rng.random(8))
        assert whole_peak > 1000 * 8 * self.V  # one (1000, V) uniform block
        assert peak < 1 << 21

    def test_skipped_blocks_are_drawn_in_chunks(self, monkeypatch):
        # a stream that is not Philox draws a one-token policy's block through the row loop
        policy = Categorical(np.eye(self.V)[5])
        whole_rng, chunked_rng = np.random.default_rng(3), np.random.default_rng(3)
        monkeypatch.setattr(decode, "SAMPLE_BLOCK_BYTES", 1000 * 8 * self.V)
        whole, whole_peak = _traced_peak(
            lambda: gumbel_max_sample(policy, whole_rng, size=1000))
        monkeypatch.setattr(decode, "SAMPLE_BLOCK_BYTES", self.ROWS * 8 * self.V)
        chunked, peak = _traced_peak(
            lambda: gumbel_max_sample(policy, chunked_rng, size=1000))
        np.testing.assert_array_equal(chunked, whole)
        np.testing.assert_array_equal(chunked_rng.random(8), whole_rng.random(8))
        assert whole_peak > 1000 * 8 * self.V
        assert peak < 1 << 21

    STREAMS = {"philox": lambda: make_stream(7), "pcg64": lambda: np.random.default_rng(7)}

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    @pytest.mark.parametrize("size", [MC_BATCH, MC_BATCH - 1001])  # the last chunk short
    def test_v16_batch_chunks_draw_what_one_block_draws(self, monkeypatch, stream, size):
        chunked_rng, whole_rng = self.STREAMS[stream](), self.STREAMS[stream]()
        chunked = gumbel_max_sample(self.V16, chunked_rng, size=size)
        monkeypatch.setattr(decode, "SAMPLE_BLOCK_BYTES", size * 8 * VOCAB_SIZE)
        whole = gumbel_max_sample(self.V16, whole_rng, size=size)
        np.testing.assert_array_equal(chunked, whole)
        np.testing.assert_equal(chunked_rng.bit_generator.state, whole_rng.bit_generator.state)


class TestRobustnessGrid:
    def test_two_point_grid_matches_single_optimizations(self, teacher, student):
        rows = topp_robustness_grid(teacher, student, [0.80, 0.90])
        assert [r.top_p for r in rows] == [0.80, 0.90]
        for row in rows:
            tt, tp = optimize_temperature(teacher, row.top_p)
            st, sp = optimize_temperature(student, row.top_p)
            assert row.teacher_t_star == tt
            assert row.teacher_p_star == tp
            assert row.student_t_star == st
            assert row.student_p_star == sp
            assert row.gap_pp == pytest.approx(100.0 * (sp - tp), abs=1e-12)
            assert row.gap_pp == pytest.approx(GRID_GAPS_PP[row.top_p], abs=1e-4)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestMonteCarlo:
    def test_deterministic_given_seed(self, teacher):
        a = monte_carlo_success(teacher, 0.8, 0.8, 50_000, seed=3)
        b = monte_carlo_success(teacher, 0.8, 0.8, 50_000, seed=3)
        assert a.estimate == b.estimate
        c = monte_carlo_success(teacher, 0.8, 0.8, 50_000, seed=4)
        assert a.estimate != c.estimate

    def test_lock_budget_is_inclusive(self):
        res = monte_carlo_success(build_toy_fsm(n_locks=MC_MAX_LOCKS), 1.0, 1.0, 10, seed=1)
        assert 0.0 <= res.estimate <= 1.0
        with pytest.raises(OutOfRangeError, match="n_locks must be <= "):
            monte_carlo_success(build_toy_fsm(n_locks=MC_MAX_LOCKS + 1), 1.0, 1.0, 10, seed=1)

    def test_stderr_formula(self, teacher):
        res = monte_carlo_success(teacher, 0.8, 0.8, 50_000, seed=3)
        expected = np.sqrt(res.estimate * (1.0 - res.estimate) / 50_000)
        assert res.stderr == pytest.approx(expected, abs=1e-15)

    def test_ragged_batch_sizes(self, teacher):
        # counts that do not divide the internal batch length still work
        res = monte_carlo_success(teacher, 1.0, 1.0, 70_001, seed=5)
        assert 0.0 < res.estimate < 1.0

    # sha256 of toy-mc's CSV bytes, frozen before the sampler skipped the
    # blocks of single-survivor states; the runs cover single-survivor locks
    # (V = 16 and V = 7, where the batch is no multiple of Philox's four-word
    # buffer) and a top-p 1.0 run that keeps every token
    GOLDEN_REPORTS = {
        "--role teacher --temperature 0.6395 --top-p 0.8 --n 250000 --seed 2":
            "0ab97cbd10088a97809aa22efae5aeaa0499bae860b91337c1f7071e47b9a244",
        "--role teacher --temperature 0.6395 --top-p 0.8 --n 250000 --seed 3":
            "12fe149c0a191a7925ce46e55860635b38c77a0a69dfe63f5c9a6640e4f9818d",
        "--role student --temperature 2.0941 --top-p 0.8 --n 250000 --seed 2":
            "aa6a6906fd45f29cbdae8102698736145e04132bb942fb03bd3c3dd1ba4125c9",
        "--role student --temperature 2.0941 --top-p 0.8 --n 250000 --seed 3":
            "73149255af72cb4cd6c83a55e3a8f4bba0e83c89a813fe1dd324171ed06e4e21",
        "--role teacher --temperature 0.8 --vocab-size 7 --n 70001 --seed 5":
            "05f32f41b2949a0646d0b18aae9367dd9fe9aa3812e3eec87db8ee0c2481bd40",
        "--role teacher --temperature 0.8 --top-p 1.0 --n 70001 --seed 4":
            "f20ef12e5f02998d6355d5a94acfab3457262717c52a0725d9816ed40351dad4",
    }

    @pytest.mark.parametrize("argv", sorted(GOLDEN_REPORTS))
    def test_cli_report_bytes_are_frozen(self, tmp_path, argv):
        path = tmp_path / "mc.csv"
        assert main(["toy-mc", *argv.split(), "--output", str(path)]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.GOLDEN_REPORTS[argv]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("argv", sorted(GOLDEN_REPORTS))
    def test_cli_report_bytes_do_not_depend_on_the_cpu_count(self, monkeypatch, tmp_path,
                                                             argv, workers):
        # 250 000 trajectories are 8 batches and 70 001 are 3: every run is split
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                            raising=False)
        path = tmp_path / "mc.csv"
        assert main(["toy-mc", *argv.split(), "--output", str(path)]) == 0
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.GOLDEN_REPORTS[argv]

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("vocab_size", [7, 16])
    def test_batch_ranges_count_what_one_pass_counts(self, monkeypatch, vocab_size, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        fsm = distill_fsm(build_toy_fsm(vocab_size=vocab_size), TRAIN_T, TRAIN_TOP_P)
        n = 3 * MC_BATCH + 2001  # a short last batch
        states = _mc_states(fsm, 1.3, 0.9, n)
        whole = _mc_count(states, n, 9, 0, 4)
        counts = [_mc_count(states, n, 9, k, k + 1) for k in range(4)]
        assert min(counts) > 0 and sum(counts) == whole
        assert _mc_count(states, n, 9, 0, 1) + _mc_count(states, n, 9, 1, 4) == whole
        assert monte_carlo_success(fsm, 1.3, 0.9, n, 9).estimate == whole / n
        no_child_left()

    def test_a_caller_with_other_threads_counts_what_workers_count(self, monkeypatch,
                                                                     teacher):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)),
                            raising=False)
        n = 3 * MC_BATCH + 2001
        forked = monte_carlo_success(teacher, 0.8, 0.8, n, 4)
        no_child_left()

        def no_fork():
            raise AssertionError("forked while another thread ran")

        monkeypatch.setattr(os, "fork", no_fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            threaded = monte_carlo_success(teacher, 0.8, 0.8, n, 4)
        finally:
            stop.set()
            thread.join(10)
        assert not thread.is_alive()
        assert threaded == forked

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_a_bad_seed_is_refused_before_any_fork(self, monkeypatch, teacher, seed):
        def no_fork():
            raise AssertionError("forked before the seed was checked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)),
                            raising=False)
        with pytest.raises(OutOfRangeError) as expected:
            make_stream(seed)
        with pytest.raises(OutOfRangeError) as refused:
            monte_carlo_success(teacher, 0.8, 0.8, 3 * MC_BATCH, seed)
        assert str(refused.value) == str(expected.value)

    def test_cli_report_bytes_at_vocabulary_size(self, tmp_path):
        # one batch at V = 4096: the sampler's row loop over a 62.5 MiB block
        argv = "--role teacher --temperature 0.6395 --vocab-size 4096 --n 2000 --seed 2"
        path = tmp_path / "mc.csv"
        assert main(["toy-mc", *argv.split(), "--output", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "40bfb6344d1b8155ec8be48cabe8a4d05b7532a26a0c2c9348ef846c2c8e3344")

    def test_three_sigma_agreement_across_grid(self, teacher, student):
        # fixed seeds make this deterministic; worst observed z is 1.9
        for i, temp in enumerate((0.5, 0.8, 1.2, 2.0)):
            for j, top_p in enumerate((0.65, 0.75, 0.85, 0.95, 1.0)):
                fsm = teacher if (i + j) % 2 == 0 else student
                n = 200_000
                res = monte_carlo_success(fsm, temp, top_p, n, seed=1000 + 10 * i + j)
                exact = exact_success(fsm, temp, top_p)
                sigma = np.sqrt(exact * (1.0 - exact) / n)
                assert abs(res.estimate - exact) < 3.0 * max(sigma, 1e-12)

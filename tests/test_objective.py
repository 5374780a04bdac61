"""Training target, loss decomposition, gradient, and local student dynamics."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ssdlab import (
    Categorical,
    DecodeConfig,
    DivergenceError,
    EmptyEventError,
    InvalidEntryError,
    OutOfRangeError,
    ZeroMassEventError,
    ZeroMassSupportError,
    entropy,
    gate_conditional_split,
    ideal_fit_eval,
    kept_mass,
    kl_divergence,
    local_gain,
    loss_gradient_logits,
    normalize,
    restrict,
    self_training_fixed_point_check,
    ssd_target,
    temper,
    three_term_decomposition,
    train_local_student,
)
from ssdlab import objective
from ssdlab.objective import LOGIT_FLOOR, _student_steps

N_RANDOM = 200

# Head values for the slow-lock archetype used as a worked example; the
# residual mass spreads over a 12-token halving tail. Its training target
# at (T=0.9, top_p=0.85) has the closed form q(0) = r/(1+r) with
# r = (0.750/0.055)^(1/0.9).
_LOCK_HEAD = [0.750, 0.055, 0.050, 0.037]
_LOCK_FIRST_TAIL = (1.0 - sum(_LOCK_HEAD)) * 0.5 / (1.0 - 0.5**12)
LOCK_WEIGHTS = _LOCK_HEAD + [_LOCK_FIRST_TAIL * 0.5**i for i in range(12)]
LOCK_CFG = DecodeConfig(temperature=0.9, top_p=0.85)
LOCK_Q0 = 0.9479967308107916
LOCK_Q1 = 0.05200326918920836
LOCK_KEPT = 0.805

# Frozen decomposition of the lock base policy against its own target.
LOCK_GATE = 0.21691300156357363
LOCK_RESHAPE = 0.022705268167811214
LOCK_CONST = 0.18393482536936806
LOCK_TOTAL = 0.4235530951007529


def _softmax(z):
    w = np.exp(z - z.max())
    return Categorical(w / w.sum())


def _random_targets(make_dists, n, seed):
    dists = make_dists(n, seed=seed)
    out = []
    for i, w in enumerate(dists):
        gen = np.random.default_rng(seed + i)
        cfg = DecodeConfig(
            temperature=float(gen.uniform(0.4, 2.5)),
            top_p=float(gen.uniform(0.4, 1.0)),
        )
        out.append((Categorical(w), cfg, ssd_target(Categorical(w), cfg)))
    return out


class TestTarget:
    def test_lock_closed_form(self):
        p0 = normalize(LOCK_WEIGHTS)
        target = ssd_target(p0, LOCK_CFG)
        assert target.support.tolist() == [0, 1]
        assert target.q.probs[0] == pytest.approx(LOCK_Q0, abs=1e-13)
        assert target.q.probs[1] == pytest.approx(LOCK_Q1, abs=1e-13)
        assert target.train_temperature == 0.9
        np.testing.assert_array_equal(target.source.probs, p0.probs)

    def test_target_is_zero_off_support(self):
        p0 = normalize(LOCK_WEIGHTS)
        target = ssd_target(p0, LOCK_CFG)
        off = np.setdiff1d(np.arange(p0.alphabet_size), target.support)
        assert np.all(target.q.probs[off] == 0.0)

    def test_no_truncation_unit_temperature_is_identity(self):
        p0 = normalize([0.5, 0.3, 0.2])
        target = ssd_target(p0, DecodeConfig())
        assert target.support.tolist() == [0, 1, 2]
        np.testing.assert_allclose(target.q.probs, p0.probs, atol=1e-15)

    def test_matches_tempered_conditional(self, make_dists):
        for p0, cfg, target in _random_targets(make_dists, N_RANDOM, seed=41):
            expected = temper(restrict(p0, target.support), cfg.temperature)
            np.testing.assert_allclose(target.q.probs, expected.probs, atol=1e-13)


class TestKeptMass:
    def test_lock_value(self):
        p0 = normalize(LOCK_WEIGHTS)
        target = ssd_target(p0, LOCK_CFG)
        assert kept_mass(p0, target.support) == pytest.approx(LOCK_KEPT, abs=1e-12)

    def test_full_support_is_unit(self):
        p0 = normalize([0.5, 0.5])
        assert kept_mass(p0, (0, 1)) == pytest.approx(1.0, abs=1e-15)


class TestDecomposition:
    def test_lock_frozen_values(self):
        p0 = normalize(LOCK_WEIGHTS)
        target = ssd_target(p0, LOCK_CFG)
        bd = three_term_decomposition(target, p0)
        assert bd.gate == pytest.approx(LOCK_GATE, abs=1e-13)
        assert bd.reshape == pytest.approx(LOCK_RESHAPE, abs=1e-13)
        assert bd.align == pytest.approx(0.0, abs=1e-14)
        assert bd.const == pytest.approx(LOCK_CONST, abs=1e-13)
        assert bd.total == pytest.approx(LOCK_TOTAL, abs=1e-13)

    def test_unit_temperature_reshape_is_exact_zero(self):
        p0 = normalize([0.5, 0.3, 0.2])
        target = ssd_target(p0, DecodeConfig(temperature=1.0, top_p=0.8))
        bd = three_term_decomposition(target, p0)
        assert bd.reshape == 0.0

    def test_cold_limit_tie_stays_finite(self):
        # the target splits evenly over the tied maxima; the reshape term
        # tends to log 2 and the split must still equal gate + conditional
        p0 = normalize([0.4, 0.4, 0.2])
        target = ssd_target(p0, DecodeConfig(temperature=1e-310))
        gate, cond = gate_conditional_split(target, p0)
        bd = three_term_decomposition(target, p0)
        assert bd.reshape == pytest.approx(np.log(2.0), abs=1e-15)
        assert bd.total == pytest.approx(gate + cond, abs=1e-15)

    def test_terms_sum_to_split_total(self, make_dists):
        # gate + conditional cross entropy == gate + reshape + align + const
        for p0, cfg, target in _random_targets(make_dists, N_RANDOM, seed=43):
            gen = np.random.default_rng(hash(cfg.temperature) % 2**32)
            p_theta = _softmax(gen.normal(size=p0.alphabet_size))
            gate, cond = gate_conditional_split(target, p_theta)
            bd = three_term_decomposition(target, p_theta)
            assert bd.total == pytest.approx(gate + cond, rel=1e-12, abs=1e-12)
            assert bd.gate == gate
            assert bd.reshape + bd.align + bd.const == pytest.approx(
                cond, rel=1e-12, abs=1e-12
            )
            assert bd.align >= -1e-12
            assert bd.const == pytest.approx(
                cfg.temperature * entropy(target.q), rel=1e-12
            )

    def test_align_vanishes_when_conditional_matches_source(self, make_dists):
        # align compares shapes after retempering, so a student equal to the
        # bare source conditional zeroes it (and gate, having no off-mass)
        for p0, cfg, target in _random_targets(make_dists, 50, seed=47):
            matched = restrict(p0, target.support)
            bd = three_term_decomposition(target, matched)
            assert bd.align == pytest.approx(0.0, abs=1e-12)
            assert bd.gate == pytest.approx(0.0, abs=1e-14)

    def test_zero_probability_on_support_rejected(self):
        p0 = normalize([0.5, 0.3, 0.2])
        target = ssd_target(p0, DecodeConfig(top_p=0.8))
        broken = Categorical(np.array([0.5, 0.0, 0.5]))
        with pytest.raises(ZeroMassSupportError):
            three_term_decomposition(target, broken)
        with pytest.raises(ZeroMassSupportError):
            gate_conditional_split(target, broken)

    def test_infinite_train_temperature_refused_by_decomposition(self):
        # reshape -> -inf and const -> +inf: the sum was NaN
        target = ssd_target(normalize([0.5, 0.3, 0.2]), DecodeConfig(temperature=np.inf))
        with pytest.raises(OutOfRangeError, match="finite train temperature, got inf"):
            three_term_decomposition(target, normalize([0.2, 0.3, 0.5]))

    def test_split_stays_finite_at_infinite_train_temperature(self):
        p0, student = normalize([0.5, 0.3, 0.2]), normalize([0.2, 0.3, 0.5])
        target = ssd_target(p0, DecodeConfig(temperature=np.inf))
        gate, cond = gate_conditional_split(target, student)
        assert gate == 0.0
        # q is uniform, so the conditional CE is the mean of -log student
        assert cond == pytest.approx(1.16885263, abs=1e-8)
        assert cond == pytest.approx(-np.mean(np.log(student.probs)), rel=1e-15)
        # a one-token support: the split never tempers, so nothing warns
        single = ssd_target(p0, DecodeConfig(temperature=np.inf, top_k=1))
        gate, cond = gate_conditional_split(single, student)
        assert (gate, cond) == (pytest.approx(-np.log(0.2), rel=1e-15), 0.0)

    def test_split_needs_no_tempered_student(self):
        # at T = 1e-310 the retempered student underflows, which only the
        # three-term decomposition needs; the split stays cross_entropy(q, p)
        target = ssd_target(normalize([0.4, 0.4, 0.2]), DecodeConfig(temperature=1e-310))
        student = normalize([0.5, 0.3, 0.2])
        gate, cond = gate_conditional_split(target, student)
        assert gate == pytest.approx(-np.log(0.8), rel=1e-15)
        assert gate + cond == pytest.approx(-0.5 * np.log(0.5 * 0.3), rel=1e-15)


class TestGradient:
    def test_matches_finite_differences(self, make_dists):
        for i, (p0, cfg, target) in enumerate(
            _random_targets(make_dists, N_RANDOM, seed=53)
        ):
            gen = np.random.default_rng(9000 + i)
            z = gen.normal(size=p0.alphabet_size)
            g = loss_gradient_logits(target, z)

            def full_loss(logits):
                gate, cond = gate_conditional_split(target, _softmax(logits))
                return gate + cond

            h = 1e-5
            fd = np.zeros_like(z)
            for j in range(z.size):
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                fd[j] = (full_loss(zp) - full_loss(zm)) / (2.0 * h)
            rel = np.abs(g - fd).max() / max(np.abs(fd).max(), 1e-12)
            assert rel < 1e-6

    def test_gauge_invariance(self):
        # the loss only sees softmax(z), so the gradient sums to zero
        p0 = normalize([0.5, 0.3, 0.2])
        target = ssd_target(p0, DecodeConfig(temperature=0.7, top_p=0.8))
        z = np.array([0.3, -0.2, 1.1])
        g = loss_gradient_logits(target, z)
        assert abs(g.sum()) < 1e-13
        g_shift = loss_gradient_logits(target, z + 5.0)
        np.testing.assert_allclose(g, g_shift, atol=1e-12)

    def test_off_support_component_is_probability(self):
        p0 = normalize([0.5, 0.3, 0.2])
        target = ssd_target(p0, DecodeConfig(top_p=0.8))
        z = np.array([0.1, 0.4, -0.3])
        g = loss_gradient_logits(target, z)
        p_theta = _softmax(z)
        assert g[2] == pytest.approx(p_theta.probs[2], abs=1e-15)

    def test_zero_at_matched_student(self):
        p0 = normalize([0.5, 0.3, 0.2])
        target = ssd_target(p0, DecodeConfig(temperature=0.8, top_p=0.8))
        full = np.where(target.q.probs > 0, target.q.probs, 0.0)
        z = np.log(np.where(full > 0, full, 1e-300))
        g = loss_gradient_logits(target, z)
        assert np.abs(g).max() < 1e-12

    @pytest.mark.parametrize(
        "bad", [np.array([1.0, np.nan, 0.0]), np.array([1.0, 2.0])]
    )
    def test_bad_logits_rejected(self, bad):
        target = ssd_target(normalize([0.5, 0.3, 0.2]), DecodeConfig(top_p=0.8))
        with pytest.raises(InvalidEntryError):
            loss_gradient_logits(target, bad)

    def test_support_mass_underflow_rejected(self):
        # softmax([0, -1e4]) is exactly [1, 0]: the support {1} holds no mass
        target = ssd_target(normalize([0.3, 0.7]), DecodeConfig(top_p=0.5))
        with pytest.raises(ZeroMassSupportError, match="student vanishes"):
            loss_gradient_logits(target, [0.0, -1e4])

    def test_logit_span_past_dbl_max_gives_the_limit(self):
        # the shifted -1e308 overflows to -inf: weight 0, with no warning; the
        # limit is about [0.3252494, -0.3252494, 0]
        target = ssd_target(normalize([0.5, 0.3, 0.2]), DecodeConfig(0.7, 0, 0.8))
        q0, q1 = target.q.probs[:2]
        g = loss_gradient_logits(target, [1e308, -1e308, 0.0])
        assert np.array_equal(g, [1.0 - q0, -q1, 0.0])


class TestSelfTrainingFixedPoint:
    def test_gradient_vanishes_at_own_distribution(self, make_dists):
        # training on your own unmodified outputs moves nothing
        for w in make_dists(20, seed=59):
            worst = self_training_fixed_point_check(Categorical(w))
            assert worst <= 1e-12

    def test_vocabulary_scale(self):
        # O(V) per trial: a V x V gradient matrix at V = 50k would need 20 GB
        w = np.random.default_rng(50_000).dirichlet(np.full(50_000, 0.5))
        assert self_training_fixed_point_check(Categorical(w), n_trials=2) <= 1e-12

    def test_zero_probability_token_starts_at_the_logit_floor(self, monkeypatch):
        # log(max(0, 1e-300)) would put it at about -690.8 instead
        seen = []

        def softmax(z):
            seen.append(z.copy())
            return _softmax_of(z)

        _softmax_of = objective._softmax
        monkeypatch.setattr(objective, "_softmax", softmax)
        self_training_fixed_point_check(Categorical(np.array([0.5, 0.5, 0.0])), n_trials=3)
        assert len(seen) == 3
        for z in seen:  # each trial shifts every logit by the same random gauge
            assert z[2] - z[0] == pytest.approx(LOGIT_FLOOR - np.log(0.5), abs=1e-12)


class TestTraining:
    def test_converges_to_target(self):
        p0 = normalize([0.5, 0.2, 0.15, 0.1, 0.05])
        cfg = DecodeConfig(temperature=0.8, top_p=0.8)
        traj = train_local_student(
            p0, cfg, learning_rate=4.0, max_steps=250_000, tv_tolerance=1e-6
        )
        assert traj.on_support_tv[-1] < 1e-6
        assert traj.loss.size - 1 < 250_000

    def test_off_support_mass_monotone_and_loss_bounded(self):
        p0 = normalize([0.5, 0.2, 0.15, 0.1, 0.05])
        cfg = DecodeConfig(temperature=0.8, top_p=0.8)
        traj = train_local_student(p0, cfg, learning_rate=2.0, max_steps=2_000)
        target = ssd_target(p0, cfg)
        floor = entropy(target.q)
        assert np.all(np.diff(traj.off_support_mass) <= 1e-15)
        assert np.all(traj.loss > floor)

    def test_trajectory_bookkeeping(self):
        p0 = normalize([0.6, 0.4])
        traj = train_local_student(p0, DecodeConfig(), max_steps=10)
        columns = traj.loss, traj.on_support_tv, traj.off_support_mass
        assert len({c.size for c in columns}) == 1  # one row per step, from step 0
        for column in columns:
            assert column.dtype == np.float64
            assert not column.flags.writeable
        assert not traj.logits.flags.writeable
        start = train_local_student(p0, DecodeConfig(), max_steps=0)
        assert not start.logits.flags.writeable

    def test_first_step_is_one_gradient_step(self):
        p0 = normalize(LOCK_WEIGHTS)
        z0 = np.log(p0.probs)
        start = train_local_student(p0, LOCK_CFG, learning_rate=0.5, max_steps=0)
        traj = train_local_student(p0, LOCK_CFG, learning_rate=0.5, max_steps=1)
        grad = loss_gradient_logits(ssd_target(p0, LOCK_CFG), z0)
        np.testing.assert_array_equal(start.logits, z0)
        assert traj.loss.size == 2
        np.testing.assert_array_equal(traj.logits, z0 - 0.5 * grad)

    def test_zero_probability_token_starts_at_the_logit_floor(self):
        # log(max(0, 1e-300)) would put it at about -690.8 instead
        p0 = normalize([0.5, 0.3, 0.2, 0.0])
        traj = train_local_student(p0, DecodeConfig(), max_steps=0)
        assert traj.logits[3] == LOGIT_FLOOR
        assert np.array_equal(traj.logits[:3], np.log(p0.probs[:3]))

    def test_zero_step_budget_records_initial_state(self):
        traj = train_local_student(normalize([0.6, 0.4]), DecodeConfig(), max_steps=0)
        assert traj.loss.size == traj.on_support_tv.size == traj.off_support_mass.size == 1

    def test_trajectory_memory_is_linear_in_steps(self):
        # three float columns, not one V-float logits array per step: 1001
        # steps at V = 32 768 would hold 250 MiB of logits
        v = 1 << 15
        rng = np.random.default_rng(v)
        w = np.arange(1, v + 1) ** -1.1 * rng.gamma(64.0, 1 / 64.0, size=v)
        p0 = normalize(rng.permutation(w))
        cfg = DecodeConfig(temperature=0.9, top_p=0.85)
        tracemalloc.start()
        try:
            traj = train_local_student(p0, cfg, max_steps=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        assert traj.loss.size == 1001

    @pytest.mark.parametrize(
        "kwargs",
        [{"learning_rate": 0.0}, {"learning_rate": np.inf}, {"max_steps": -1},
         {"tv_tolerance": 0.0}],
    )
    def test_bad_hyperparameters_rejected(self, kwargs):
        with pytest.raises(OutOfRangeError):
            train_local_student(normalize([0.5, 0.5]), DecodeConfig(), **kwargs)


    def test_non_finite_loss_raises_naming_the_step(self):
        # a huge step underflows a support token to 0, which would make the loss inf
        with pytest.raises(DivergenceError, match="not finite at step 1:"):
            train_local_student(normalize([0.5, 0.3, 0.2]),
                                DecodeConfig(temperature=0.7, top_p=0.8),
                                learning_rate=1e300, max_steps=5)


class TestBitIdentity:
    """train_local_student keeps every bit of the plain numpy reference step."""

    @pytest.mark.parametrize("name, max_steps", [("lock", 2_000), ("heavy-tail-4096", 200)])
    def test_trajectory_matches_reference(self, reference_student_steps, name, max_steps):
        if name == "lock":
            p0 = normalize(LOCK_WEIGHTS)
        else:
            p0 = normalize(np.random.default_rng(4096).gamma(0.3, size=4096))
        traj = train_local_student(p0, LOCK_CFG, learning_rate=0.5, max_steps=max_steps)
        steps = list(reference_student_steps(ssd_target(p0, LOCK_CFG), 0.5, max_steps,
                                             1e-6))
        logits, *columns = zip(*steps)
        assert traj.loss.size == len(steps)
        for got, expected in zip((traj.loss, traj.on_support_tv, traj.off_support_mass),
                                 columns):
            assert np.array_equal(got, np.array(expected))
        assert np.array_equal(traj.logits, logits[-1])


def _block_starts(width, count):
    """The first step of each of the training loop's first count blocks at alphabet size width."""
    cap = max(1, min(objective.STEP_BLOCK_ROWS, objective.STEP_BLOCK_BYTES // (16 * width)))
    starts, first, rows = [], 0, 1
    for _ in range(count):
        starts.append(first)
        first, rows = first + rows, min(2 * rows, cap)
    return starts


def _boundary_stops(width):
    """Steps 0 and 1, the last row of the first full block, the next row and one mid-block."""
    starts = _block_starts(width, 12)
    rows = np.diff(starts)
    full = starts[int(np.argmax(rows))]  # the first block of the largest size
    cap = int(rows.max())
    return 0, 1, full + cap - 1, full + cap, full + cap + cap // 2


class TestStepBlocks:
    """The loop checks its stopping rules once per block of steps, with the reference's bits."""

    HEAVY_TAIL = normalize(np.random.default_rng(4096).gamma(0.3, size=4096))
    CASES = {"lock": normalize(LOCK_WEIGHTS), "heavy-tail-4096": HEAVY_TAIL}
    # at this rate every step _boundary_stops names has a TV below all earlier ones
    RATE = 2.0

    @pytest.mark.parametrize("name", CASES)
    def test_blocks_restart_where_the_schedule_says(self, name):
        # a block writes its first step into the buffer row step 0 used, so the
        # steps whose softmax sits at step 0's address are the blocks' first steps
        p0 = self.CASES[name]
        starts = _block_starts(p0.alphabet_size, 9)
        steps = _student_steps(ssd_target(p0, LOCK_CFG), self.RATE, starts[-1], 1e-6)
        addresses = [p.__array_interface__["data"][0] for _, _, p, *_ in steps]
        assert [k for k, a in enumerate(addresses) if a == addresses[0]] == starts

    @pytest.mark.parametrize("position", range(5),
                             ids=["step-0", "step-1", "last-of-full-block", "next-block",
                                  "mid-block"])
    @pytest.mark.parametrize("stop", ["step_cap", "converged"])
    @pytest.mark.parametrize("name", CASES)
    def test_stop_at_a_block_boundary_matches_reference(self, reference_student_steps, name,
                                                        stop, position):
        p0 = self.CASES[name]
        target = ssd_target(p0, LOCK_CFG)
        at = _boundary_stops(p0.alphabet_size)[position]
        if stop == "step_cap":
            max_steps, tol = at, 1e-6
        else:  # the first tolerance that step `at` meets and no earlier step does
            tvs = [tv for _, _, tv, _ in reference_student_steps(target, self.RATE, at, 1e-300)]
            max_steps, tol = at + 500, float(np.nextafter(tvs[at], np.inf))
            assert min(tvs[:at], default=np.inf) >= tol
        traj = train_local_student(p0, LOCK_CFG, learning_rate=self.RATE, max_steps=max_steps,
                                   tv_tolerance=tol)
        logits, *columns = zip(*reference_student_steps(target, self.RATE, max_steps, tol))
        assert traj.loss.size == len(logits) == at + 1
        for got, expected in zip((traj.loss, traj.on_support_tv, traj.off_support_mass),
                                 columns):
            assert np.array_equal(got, np.array(expected))
        assert np.array_equal(traj.logits, logits[-1])
        assert traj.stop_reason == stop
        stops = [step[0] for step in _student_steps(target, self.RATE, max_steps, tol)]
        assert stops == [None] * at + [stop]

    def test_vanishing_inside_a_block_raises_at_its_step(self):
        # a learning rate of 1e300 underflows a support token at step 1, the first
        # row of a two-row block; the row computed past it must not warn
        target = ssd_target(normalize([0.5, 0.3, 0.2]), DecodeConfig(temperature=0.7, top_p=0.8))
        stops = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"^loss is not finite at step 1: the "
                                                      r"student vanishes on a target-support "
                                                      r"token$"):
                for step in _student_steps(target, 1e300, 1000, 1e-6):
                    stops.append(step[0])
        assert stops == [None]

    def test_rise_window_inside_a_block_raises_after_the_same_step(self, monkeypatch,
                                                                  reference_student_steps):
        monkeypatch.setattr(objective, "DIVERGENCE_WINDOW", 35)
        target = ssd_target(normalize(TestDivergence.WEIGHTS), DecodeConfig(temperature=0.3))
        expected = [loss for _, loss, _, _ in reference_student_steps(target, 5, 5000, 1e-6)]
        rises, last = 0, None
        for k in range(1, len(expected)):
            rises = rises + 1 if expected[k] > expected[k - 1] else 0
            if rises == 35:
                last = k
                break
        after = next(k for k in _block_starts(target.q.alphabet_size, 12) if k > last)
        assert after > last + 1  # the raising step's block computes steps past it
        losses = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError,
                               match="^loss increased for 35 consecutive steps$"):
                for _, _, _, loss, _, _ in _student_steps(target, 5, 5000, 1e-6):
                    losses.append(loss)
        assert losses == expected[:last + 1]

    def test_block_memory_does_not_grow_with_steps(self):
        target = ssd_target(normalize(LOCK_WEIGHTS), LOCK_CFG)

        def peak(max_steps):
            tracemalloc.start()
            try:
                for _ in _student_steps(target, 0.5, max_steps, 1e-6):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Both runs pass full 64-row blocks and end in a partial one. The state of the
        # interpreter's free lists moves a peak by up to about 10 KiB from call to call;
        # a float kept per step would add 70 KiB over the 2 300 extra steps, and blocks
        # that kept doubling past 64 rows 384 KiB.
        peak(700)  # warm-up: first-call caches
        assert peak(3000) <= peak(700) + (16 << 10)


class TestDivergence:
    # at learning rate 5 the loss of this run rises 2503 times in 5000
    # steps, at most 35 times in a row
    WEIGHTS = (0.2144, 0.0306, 0.0812, 0.07, 0.0065, 0.1238, 0.0786, 0.1312, 0.0164,
               0.0249, 0.2224)

    def _train(self):
        return train_local_student(normalize(self.WEIGHTS), DecodeConfig(temperature=0.3),
                                   learning_rate=5, max_steps=5000)

    def test_raises_after_window_consecutive_increases(self, monkeypatch):
        monkeypatch.setattr(objective, "DIVERGENCE_WINDOW", 35)
        with pytest.raises(DivergenceError, match="^loss increased for 35 consecutive steps$"):
            self._train()

    def test_any_decrease_resets_the_count(self, monkeypatch):
        monkeypatch.setattr(objective, "DIVERGENCE_WINDOW", 36)
        traj = self._train()
        assert traj.stop_reason == "step_cap"
        assert traj.loss.size == 5001
        rises = np.diff(traj.loss) > 0
        longest = run = 0
        for rise in rises:
            run = run + 1 if rise else 0
            longest = max(longest, run)
        assert (rises.sum(), longest) == (2503, 35)

    def test_equal_losses_do_not_count_as_increases(self, monkeypatch):
        # at a learning rate of 1e-300 each step rounds back to the same logits,
        # so the loss repeats exactly and never rises
        monkeypatch.setattr(objective, "DIVERGENCE_WINDOW", 3)
        traj = train_local_student(normalize(self.WEIGHTS), DecodeConfig(temperature=0.3),
                                   learning_rate=1e-300, max_steps=10)
        assert traj.stop_reason == "step_cap"
        assert traj.loss.size == 11 and np.all(traj.loss == traj.loss[0])


class TestIdealFit:
    def test_matches_tempered_source_view(self, make_dists):
        # the target retempered by tau equals the source seen at T*tau,
        # conditioned on the same support; includes the no-truncation and
        # unit-temperature corners
        taus = (0.5, 0.9, 1.0, 1.5, 2.0)
        cases = _random_targets(make_dists, 60, seed=61)
        p_extra = normalize([0.5, 0.3, 0.2])
        cases.append((p_extra, DecodeConfig(), ssd_target(p_extra, DecodeConfig())))
        cfg_unit = DecodeConfig(temperature=1.0, top_p=0.7)
        cases.append((p_extra, cfg_unit, ssd_target(p_extra, cfg_unit)))
        for p0, cfg, target in cases:
            for tau in taus:
                fitted = ideal_fit_eval(target, tau)
                expected = temper(
                    restrict(p0, target.support), cfg.temperature * tau
                )
                np.testing.assert_allclose(fitted.probs, expected.probs, atol=1e-12)

    def test_rejects_nonpositive_tau(self):
        target = ssd_target(normalize([0.5, 0.5]), DecodeConfig())
        with pytest.raises(OutOfRangeError, match="^tau must be positive"):
            ideal_fit_eval(target, 0.0)


class TestLocalGain:
    def test_lock_event_values(self):
        p0 = normalize(LOCK_WEIGHTS)
        gain = local_gain(p0, LOCK_CFG, 1.0, (0,))
        assert gain.support_gain == pytest.approx(1.0 / LOCK_KEPT, abs=1e-12)
        assert gain.reshape_gain == pytest.approx(1.0175164910702497, abs=1e-12)
        assert gain.base_prob == pytest.approx(0.750, abs=1e-12)
        assert gain.student_prob == pytest.approx(LOCK_Q0, abs=1e-12)

    def test_unit_tau_full_support_is_neutral(self):
        p0 = normalize([0.5, 0.3, 0.2])
        cfg = DecodeConfig()
        gain = local_gain(p0, cfg, 1.0, (0, 1, 2))
        assert gain.support_gain == pytest.approx(1.0, abs=1e-12)
        assert gain.reshape_gain == pytest.approx(1.0, abs=1e-12)

    def test_event_validation(self):
        p0 = normalize([0.5, 0.3, 0.2])
        cfg = DecodeConfig(top_p=0.8)
        with pytest.raises(EmptyEventError):
            local_gain(p0, cfg, 1.0, ())
        with pytest.raises(InvalidEntryError):
            local_gain(p0, cfg, 1.0, (0, 0))
        with pytest.raises(OutOfRangeError):
            local_gain(p0, cfg, 1.0, (2,))  # outside the retained support
        with pytest.raises(InvalidEntryError):
            local_gain(p0, DecodeConfig(), 1.0, [0.5])  # not truncated to token 0

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(OutOfRangeError, match="^tau must be positive"):
            local_gain(normalize([0.5, 0.3, 0.2]), DecodeConfig(), 0.0, (0,))

    def test_underflowed_event_mass_rejected(self):
        # the event token carries so little mass that its escort weight
        # underflows to exact zero at a cold evaluation temperature
        p0 = Categorical(np.array([1.0 - 1e-280, 1e-280]))
        cfg = DecodeConfig()
        with pytest.raises(ZeroMassEventError):
            local_gain(p0, cfg, 0.05, (1,))


class TestStopReason:
    P0 = normalize([0.5, 0.2, 0.15, 0.1, 0.05])
    CFG = DecodeConfig(temperature=0.8, top_p=0.8)

    @staticmethod
    def stop_reasons(p0, cfg, learning_rate, max_steps):
        """Each step's stop reason, from the loop train_local_student consumes."""
        steps = _student_steps(ssd_target(p0, cfg), learning_rate, max_steps, 1e-6)
        return [step[0] for step in steps]

    def test_converged_before_the_cap(self):
        p0, cfg = normalize([0.6, 0.4]), DecodeConfig(temperature=0.7)
        traj = train_local_student(p0, cfg, learning_rate=4.0, max_steps=5000)
        assert traj.loss.size - 1 < 5000
        assert traj.on_support_tv[-1] < 1e-6
        assert traj.stop_reason == "converged"
        stops = self.stop_reasons(p0, cfg, 4.0, 5000)
        assert len(stops) == traj.loss.size and stops[-1] == "converged"
        assert all(stop is None for stop in stops[:-1])

    def test_step_cap(self):
        traj = train_local_student(self.P0, self.CFG, learning_rate=2.0, max_steps=40)
        assert traj.loss.size - 1 == 40
        assert traj.on_support_tv[-1] >= 1e-6
        assert traj.stop_reason == "step_cap"
        stops = self.stop_reasons(self.P0, self.CFG, 2.0, 40)
        assert len(stops) == traj.loss.size and stops[-1] == "step_cap"
        assert all(stop is None for stop in stops[:-1])

    def test_convergence_at_the_cap_counts_as_converged(self):
        # the tolerance test comes first, so a run whose TV first drops below
        # tolerance on its last allowed step reports convergence
        free = train_local_student(self.P0, self.CFG, learning_rate=4.0, max_steps=1000,
                                   tv_tolerance=1e-3)
        first = free.loss.size - 1
        assert free.stop_reason == "converged" and 0 < first < 1000
        capped = train_local_student(self.P0, self.CFG, learning_rate=4.0, max_steps=first,
                                     tv_tolerance=1e-3)
        assert capped.loss.size - 1 == first
        assert capped.stop_reason == "converged"
        short = train_local_student(self.P0, self.CFG, learning_rate=4.0,
                                    max_steps=first - 1, tv_tolerance=1e-3)
        assert short.stop_reason == "step_cap"

    def test_tv_equal_to_the_tolerance_does_not_converge(self):
        # convergence needs a TV strictly below the tolerance
        free = train_local_student(self.P0, self.CFG, learning_rate=4.0, max_steps=20)
        tol = float(free.on_support_tv[20])
        assert free.on_support_tv[:20].min() > tol
        capped = train_local_student(self.P0, self.CFG, learning_rate=4.0, max_steps=20,
                                     tv_tolerance=tol)
        assert capped.on_support_tv[-1] == tol
        assert capped.stop_reason == "step_cap"
        stops = self.stop_reasons(self.P0, self.CFG, 4.0, 20)
        assert stops == [None] * 20 + ["step_cap"]

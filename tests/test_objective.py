"""Training target, loss decomposition, gradient, and local student dynamics."""

import numpy as np
import pytest

from ssdlab import (
    Categorical,
    DecodeConfig,
    DivergenceError,
    DivergenceMonitor,
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


class TestTraining:
    def test_converges_to_target(self):
        p0 = normalize([0.5, 0.2, 0.15, 0.1, 0.05])
        cfg = DecodeConfig(temperature=0.8, top_p=0.8)
        states = train_local_student(
            p0, cfg, learning_rate=4.0, max_steps=250_000, tv_tolerance=1e-6
        )
        last = states[-1]
        assert last.on_support_tv < 1e-6
        assert last.step < 250_000

    def test_off_support_mass_monotone_and_loss_bounded(self):
        p0 = normalize([0.5, 0.2, 0.15, 0.1, 0.05])
        cfg = DecodeConfig(temperature=0.8, top_p=0.8)
        states = train_local_student(p0, cfg, learning_rate=2.0, max_steps=2_000)
        target = ssd_target(p0, cfg)
        floor = entropy(target.q)
        off = np.array([st.off_support_mass for st in states])
        assert np.all(np.diff(off) <= 1e-15)
        assert all(st.loss > floor for st in states)

    def test_trajectory_bookkeeping(self):
        p0 = normalize([0.6, 0.4])
        states = train_local_student(p0, DecodeConfig(), max_steps=10)
        assert states[0].step == 0
        assert [st.step for st in states] == list(range(len(states)))
        assert not states[0].logits.flags.writeable

    def test_first_step_is_one_gradient_step(self):
        p0 = normalize(LOCK_WEIGHTS)
        z0 = np.log(p0.probs)
        states = train_local_student(p0, LOCK_CFG, learning_rate=0.5, max_steps=1)
        grad = loss_gradient_logits(ssd_target(p0, LOCK_CFG), z0)
        np.testing.assert_array_equal(states[0].logits, z0)
        np.testing.assert_array_equal(states[1].logits, z0 - 0.5 * grad)

    def test_zero_step_budget_records_initial_state(self):
        states = train_local_student(normalize([0.6, 0.4]), DecodeConfig(), max_steps=0)
        assert len(states) == 1
        assert states[0].step == 0

    @pytest.mark.parametrize(
        "kwargs",
        [{"learning_rate": 0.0}, {"max_steps": -1}, {"tv_tolerance": 0.0}],
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


class TestDivergenceMonitor:
    def test_raises_after_window_consecutive_increases(self):
        monitor = DivergenceMonitor(window=5)
        monitor.observe(1.0)
        with pytest.raises(DivergenceError):
            for k in range(1, 10):
                monitor.observe(1.0 + k)

    def test_any_decrease_resets_the_streak(self):
        monitor = DivergenceMonitor(window=5)
        for k in range(200):
            monitor.observe(1.0 + (0.1 if k % 2 else -0.1))

    def test_default_window_allows_long_decay(self):
        monitor = DivergenceMonitor()
        for k in range(1000):
            monitor.observe(1.0 / (k + 1))


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
        with pytest.raises(Exception):
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

    def test_converged_before_the_cap(self):
        states = train_local_student(normalize([0.6, 0.4]), DecodeConfig(temperature=0.7),
                                     learning_rate=4.0, max_steps=5000)
        assert states[-1].step < 5000
        assert states[-1].on_support_tv < 1e-6
        assert states[-1].stop_reason == "converged"
        assert all(st.stop_reason is None for st in states[:-1])

    def test_step_cap(self):
        states = train_local_student(self.P0, self.CFG, learning_rate=2.0, max_steps=40)
        assert states[-1].step == 40
        assert states[-1].on_support_tv >= 1e-6
        assert states[-1].stop_reason == "step_cap"
        assert all(st.stop_reason is None for st in states[:-1])

    def test_convergence_at_the_cap_counts_as_converged(self):
        # the tolerance test comes first, so a run whose TV first drops below
        # tolerance on its last allowed step reports convergence
        free = train_local_student(self.P0, self.CFG, learning_rate=4.0, max_steps=1000,
                                   tv_tolerance=1e-3)
        first = free[-1].step
        assert free[-1].stop_reason == "converged" and 0 < first < 1000
        capped = train_local_student(self.P0, self.CFG, learning_rate=4.0, max_steps=first,
                                     tv_tolerance=1e-3)
        assert capped[-1].step == first
        assert capped[-1].stop_reason == "converged"
        short = train_local_student(self.P0, self.CFG, learning_rate=4.0,
                                    max_steps=first - 1, tv_tolerance=1e-3)
        assert short[-1].stop_reason == "step_cap"

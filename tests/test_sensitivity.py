"""Escort response identities, entropy splitting, and top-p feasibility."""

import numpy as np
import pytest

from ssdlab import (
    Categorical,
    EmptyEventError,
    InvalidEntryError,
    KTooLargeError,
    NonPositiveTemperatureError,
    OutOfRangeError,
    RankOutOfRangeError,
    ZeroProbabilityOnSupportError,
    binary_entropy,
    entropy,
    entropy_decomposition,
    entropy_temperature_response,
    escort_distribution,
    escort_sensitivity,
    feasible_topp_interval,
    normalize,
    prefix_mass_curve,
    restrict,
    set_mass_log_sensitivity,
    temper,
    top_k_set,
    top_p_set,
)

N_RANDOM = 200

FD_H = 1e-6
FD_REL = 1e-6


def _random_case(gen, w):
    """A distribution, a member set with positive mass, and an exponent."""
    p = Categorical(w)
    size = int(gen.integers(2, p.alphabet_size + 1))
    members = tuple(
        int(v) for v in np.sort(gen.choice(p.alphabet_size, size=size, replace=False))
    )
    if w[list(members)].sum() == 0.0:
        return None
    gamma = float(gen.uniform(0.3, 3.0))
    return p, members, gamma


class TestEscortDistribution:
    def test_unit_exponent_is_conditional(self):
        p = normalize([0.5, 0.25, 0.15, 0.1])
        pi = escort_distribution(p, (0, 2), 1.0)
        np.testing.assert_allclose(pi.probs, restrict(p, (0, 2)).probs, atol=1e-15)

    def test_matches_inverse_temperature(self, make_dists):
        for i, w in enumerate(make_dists(50, seed=67)):
            case = _random_case(np.random.default_rng(i), w)
            if case is None:
                continue
            p, members, gamma = case
            pi = escort_distribution(p, members, gamma)
            expected = temper(p, 1.0 / gamma, members=members)
            np.testing.assert_allclose(pi.probs, expected.probs, atol=1e-13)

    def test_large_exponent_concentrates(self):
        p = normalize([0.6, 0.4])
        pi = escort_distribution(p, (0, 1), 50.0)
        assert pi.probs[0] == pytest.approx(0.9999999984316714, abs=1e-13)

    def test_zero_members_silently_excluded(self):
        p = Categorical(np.array([0.5, 0.0, 0.5]))
        pi = escort_distribution(p, (0, 1, 2), 2.0)
        assert pi.probs[1] == 0.0
        np.testing.assert_allclose(pi.probs, [0.5, 0.0, 0.5], atol=1e-15)

    def test_nonpositive_exponent_rejected(self):
        p = normalize([0.5, 0.5])
        with pytest.raises(OutOfRangeError):
            escort_distribution(p, (0, 1), 0.0)

    def test_infinite_exponent_rejected_by_name(self):
        # 1 / inf is temperature 0, which no caller passed
        p = normalize([0.5, 0.3, 0.2])
        for call in (
            lambda: escort_distribution(p, (0, 1, 2), np.inf),
            lambda: escort_sensitivity(p, (0, 1, 2), np.inf, [1.0, 2.0, 3.0]),
            lambda: set_mass_log_sensitivity(p, (0, 1, 2), np.inf, (0,)),
        ):
            with pytest.raises(OutOfRangeError, match="gamma must be finite and positive"):
                call()


class TestEscortSensitivity:
    def test_matches_finite_differences(self, make_dists):
        # the response of an escort mean to its exponent is the covariance
        # of the observable with log-probability under the escort law
        checked = 0
        for i, w in enumerate(make_dists(N_RANDOM, seed=71)):
            gen = np.random.default_rng(400 + i)
            case = _random_case(gen, w)
            if case is None:
                continue
            p, members, gamma = case
            f = gen.normal(size=p.alphabet_size)
            got = escort_sensitivity(p, members, gamma, f)

            def mean_f(g):
                pi = escort_distribution(p, members, g)
                return float((pi.probs * f).sum())

            fd = (mean_f(gamma + FD_H) - mean_f(gamma - FD_H)) / (2.0 * FD_H)
            assert got == pytest.approx(fd, rel=FD_REL, abs=1e-9)
            checked += 1
        assert checked >= N_RANDOM * 0.9

    def test_constant_observable_has_zero_response(self):
        p = normalize([0.5, 0.3, 0.2])
        got = escort_sensitivity(p, (0, 1, 2), 1.5, np.full(3, 7.0))
        assert got == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("f, message", [
        ([1.0, 2.0], "f must be a vector over the full alphabet"),
        ([[1.0, 2.0, 3.0]], "f must be a vector over the full alphabet"),
        ([1.0, np.nan, 3.0], "f must be finite"),
        ([1.0, 2.0, -np.inf], "f must be finite"),
    ], ids=["short", "2-d", "nan", "infinite"])
    def test_bad_observable_refused(self, f, message):
        p = normalize([0.5, 0.3, 0.2])
        with pytest.raises(InvalidEntryError) as info:
            escort_sensitivity(p, (0, 1, 2), 1.5, f)
        assert type(info.value) is InvalidEntryError and str(info.value) == message


class TestSetMassSensitivity:
    def test_matches_finite_differences(self, make_dists):
        checked = 0
        for i, w in enumerate(make_dists(N_RANDOM, seed=73)):
            gen = np.random.default_rng(500 + i)
            case = _random_case(gen, w)
            if case is None:
                continue
            p, members, gamma = case
            positive = [v for v in members if p.probs[v] > 0]
            if len(positive) < 2:
                continue
            n_event = int(gen.integers(1, len(positive)))
            event = tuple(
                int(v)
                for v in gen.choice(np.asarray(positive), size=n_event, replace=False)
            )
            got = set_mass_log_sensitivity(p, members, gamma, event)

            def log_mass(g):
                pi = escort_distribution(p, members, g)
                return float(np.log(pi.probs[list(event)].sum()))

            fd = (log_mass(gamma + FD_H) - log_mass(gamma - FD_H)) / (2.0 * FD_H)
            assert got == pytest.approx(fd, rel=FD_REL, abs=1e-8)
            checked += 1
        assert checked >= N_RANDOM * 0.8

    def test_full_event_has_zero_slope(self):
        p = normalize([0.5, 0.3, 0.2])
        got = set_mass_log_sensitivity(p, (0, 1, 2), 2.0, (0, 1, 2))
        assert got == pytest.approx(0.0, abs=1e-14)

    def test_event_validation(self):
        p = Categorical(np.array([0.5, 0.0, 0.5]))
        with pytest.raises(EmptyEventError):
            set_mass_log_sensitivity(p, (0, 2), 1.0, ())
        with pytest.raises(OutOfRangeError):
            set_mass_log_sensitivity(p, (0,), 1.0, (2,))
        with pytest.raises(ZeroProbabilityOnSupportError):
            set_mass_log_sensitivity(p, (0, 1, 2), 1.0, (1,))


class TestEntropyResponse:
    def test_matches_finite_differences(self, make_dists):
        # slope of the tempered-conditional entropy in temperature
        checked = 0
        for i, w in enumerate(make_dists(N_RANDOM, seed=79)):
            gen = np.random.default_rng(600 + i)
            case = _random_case(gen, w)
            if case is None:
                continue
            p, members, _ = case
            t = float(gen.uniform(0.4, 2.5))
            got = entropy_temperature_response(p, members, t)

            def h(temp):
                return entropy(temper(p, temp, members=members))

            fd = (h(t + FD_H) - h(t - FD_H)) / (2.0 * FD_H)
            assert got == pytest.approx(fd, rel=FD_REL, abs=1e-9)
            checked += 1
        assert checked >= N_RANDOM * 0.9

    def test_never_negative(self, make_dists):
        # hotter sampling can only raise the entropy of the tempered view
        for i, w in enumerate(make_dists(N_RANDOM, seed=83, zero_frac=0.2)):
            gen = np.random.default_rng(700 + i)
            case = _random_case(gen, w)
            if case is None:
                continue
            p, members, _ = case
            t = float(gen.uniform(0.2, 4.0))
            assert entropy_temperature_response(p, members, t) >= 0.0

    def test_degenerate_support_has_zero_response(self):
        p = normalize([0.7, 0.3])
        assert entropy_temperature_response(p, (0,), 1.0) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_nonpositive_temperature_rejected(self):
        p = normalize([0.5, 0.5])
        with pytest.raises(NonPositiveTemperatureError):
            entropy_temperature_response(p, (0, 1), 0.0)

    def test_cold_limit_is_zero(self):
        # the escort collapses to the argmax and T**3 underflows to 0
        p = Categorical([0.5, 0.3, 0.2])
        assert entropy_temperature_response(p, (0, 1, 2), 1e-310) == 0.0

    def test_cold_limit_with_tied_maximum_is_zero(self):
        # the escort collapses to the uniform law on the tied maxima
        p = Categorical([0.4, 0.4, 0.2])
        assert entropy_temperature_response(p, (0, 1, 2), 1e-310) == 0.0
        assert entropy_temperature_response(p, (0, 1), 1.0) == 0.0


    def test_hot_limit_divides_without_overflow(self):
        # T**3 overflows past T ~ 5.6e102; the slope itself is Var / T^3
        p = Categorical([0.5, 0.3, 0.2])
        logp = np.log(p.probs)
        variance = float(np.var(logp))  # the escort is uniform at such T
        got = entropy_temperature_response(p, (0, 1, 2), 1e103)
        assert 0.0 < got < 2.3e-308  # subnormal, not flushed to 0
        assert got == pytest.approx(variance * 1e-309, rel=1e-6)
        assert entropy_temperature_response(p, (0, 1, 2), 1e300) == 0.0


class TestExtremeExponents:
    # each slope is a covariance under the escort itself, so an exponent
    # that overflows gamma * log p still gives the limiting escort's slope
    P = Categorical([0.5, 0.3, 0.2])

    def test_uniform_at_huge_exponent_has_zero_slopes(self):
        p = normalize(np.ones(10))
        f = np.arange(10.0)
        assert escort_sensitivity(p, range(10), 1e308, f) == 0.0
        assert set_mass_log_sensitivity(p, range(10), 1e308, (0,)) == 0.0

    def test_huge_exponent_reads_the_argmaxes(self):
        got = set_mass_log_sensitivity(self.P, (0, 1, 2), 1e308, (1, 2))
        assert got == pytest.approx(np.log(0.3) - np.log(0.5), abs=1e-15)

    @pytest.mark.parametrize("gamma", [5e-324, 1e-300, 1.0, 1e300, 1e308])
    def test_slopes_are_finite(self, gamma):
        slopes = (
            escort_sensitivity(self.P, (0, 1, 2), gamma, [1.0, 2.0, 4.0]),
            set_mass_log_sensitivity(self.P, (0, 1, 2), gamma, (1, 2)),
            entropy_temperature_response(self.P, (0, 1, 2), 1.0 / gamma),
        )
        assert all(np.isfinite(s) for s in slopes)


class TestEntropyDecomposition:
    def test_small_example(self):
        p = normalize([0.5, 0.25, 0.15, 0.1])
        bd = entropy_decomposition(p, (0, 1))
        assert bd.gate_entropy == pytest.approx(binary_entropy(0.75), abs=1e-15)
        head = restrict(p, (0, 1))
        tail = restrict(p, (2, 3))
        assert bd.head_entropy == pytest.approx(0.75 * entropy(head), abs=1e-14)
        assert bd.tail_entropy == pytest.approx(0.25 * entropy(tail), abs=1e-14)
        assert bd.total == pytest.approx(entropy(p), abs=1e-14)

    def test_exact_identity_randomized(self, make_dists):
        # chain rule: total entropy = gate + weighted head + weighted tail
        for i, w in enumerate(make_dists(N_RANDOM, seed=89, zero_frac=0.2)):
            gen = np.random.default_rng(800 + i)
            case = _random_case(gen, w)
            if case is None:
                continue
            p, members, _ = case
            bd = entropy_decomposition(p, members)
            assert bd.gate_entropy >= 0.0
            assert bd.head_entropy >= 0.0
            assert bd.tail_entropy >= 0.0
            assert abs(bd.total - entropy(p)) <= 1e-12

    def test_full_support_collapses_to_plain_entropy(self):
        p = normalize([0.5, 0.3, 0.2])
        bd = entropy_decomposition(p, (0, 1, 2))
        assert bd.gate_entropy == 0.0
        assert bd.tail_entropy == 0.0
        assert bd.total == pytest.approx(entropy(p), abs=1e-14)

    def test_massless_set_has_zero_head(self):
        # the head's restriction would carry no mass: the convention gives 0, not an error
        p = Categorical(np.array([0.5, 0.5, 0.0]))
        bd = entropy_decomposition(p, (2,))
        assert (bd.gate_entropy, bd.head_entropy) == (0.0, 0.0)
        assert bd.tail_entropy == bd.total == entropy(p)


class TestPrefixMassCurve:
    def test_terminal_value_is_exactly_one(self, make_dists):
        for i, w in enumerate(make_dists(50, seed=97)):
            p = Categorical(w)
            k = int((p.probs > 0).sum())
            tau = float(np.random.default_rng(i).uniform(0.3, 3.0))
            curve = prefix_mass_curve(p, tau, k)
            assert curve[-1] == 1.0
            assert np.all(np.diff(curve) >= -1e-15)

    def test_matches_manual_power_weights(self):
        p = normalize([0.5, 0.25, 0.15, 0.1])
        tau = 0.7
        weights = p.probs ** (1.0 / tau)
        expected = np.cumsum(weights) / weights.sum()
        np.testing.assert_allclose(prefix_mass_curve(p, tau, 4), expected, atol=1e-12)

    def test_pointwise_nonincreasing_in_temperature(self, make_dists):
        # colder views concentrate more mass into every rank prefix
        taus = np.linspace(0.2, 3.0, 12)
        for i, w in enumerate(make_dists(N_RANDOM // 2, seed=101)):
            p = Categorical(w)
            k = int((p.probs > 0).sum())
            curves = np.stack([prefix_mass_curve(p, t, k) for t in taus])
            assert np.all(np.diff(curves, axis=0) <= 1e-12)

    def test_cold_curve_is_flat_past_the_underflow(self):
        # at tau = 1e-3 every power below the argmax's underflows to 0, and the
        # curve still has k entries, flat at 1 from rank 1
        p = normalize([0.2, 0.5, 0.15, 0.15, 0.0])
        assert prefix_mass_curve(p, 1e-3, 4).tolist() == [1.0, 1.0, 1.0, 1.0]
        tied = normalize([0.4, 0.1, 0.4, 0.1])
        assert prefix_mass_curve(tied, 1e-300, 3).tolist() == [0.5, 1.0, 1.0]

    def test_parameter_validation(self):
        p = Categorical(np.array([0.5, 0.5, 0.0]))
        with pytest.raises(NonPositiveTemperatureError):
            prefix_mass_curve(p, 0.0, 2)
        with pytest.raises(OutOfRangeError):
            prefix_mass_curve(p, 1.0, 0)
        with pytest.raises(KTooLargeError):
            prefix_mass_curve(p, 1.0, 3)
        with pytest.raises(KTooLargeError):
            prefix_mass_curve(p, 1.0, 10**20)


class TestFeasibleInterval:
    def test_interval_semantics(self, make_dists):
        # any threshold inside the interval, applied after top-k truncation,
        # keeps the first machine's nucleus within lock_rank tokens while the
        # second keeps at least fork_rank
        dists = make_dists(N_RANDOM, seed=103, vmin=5)
        checked = 0
        for i in range(0, len(dists) - 1, 2):
            lock_p, fork_p = Categorical(dists[i]), Categorical(dists[i + 1])
            gen = np.random.default_rng(900 + i)
            k = min(int((lock_p.probs > 0).sum()), int((fork_p.probs > 0).sum()))
            if k < 3:
                continue
            lock_rank = int(gen.integers(1, k))
            fork_rank = int(gen.integers(1, k + 1))
            tau = float(gen.uniform(0.4, 2.0))
            report = feasible_topp_interval(
                lock_p, lock_rank, fork_p, fork_rank, tau, k
            )
            assert report.tau == tau and report.k == k
            assert report.feasible == (report.lower < report.upper)
            if not report.feasible:
                continue
            mid = min(0.5 * (report.lower + report.upper), 1.0)
            if not 0.0 < mid <= 1.0:
                continue

            def kept_after_both(p):
                tempered = temper(p, tau)
                head = restrict(tempered, top_k_set(tempered, k))
                return top_p_set(head, mid)

            assert len(kept_after_both(lock_p)) <= lock_rank
            assert len(kept_after_both(fork_p)) >= fork_rank
            checked += 1
        assert checked >= 20

    def test_empty_window_is_infeasible(self):
        # lower is a strict bound: a top-p of exactly S_1 keeps one fork token, not two
        p = normalize([0.4, 0.3, 0.2, 0.1])
        report = feasible_topp_interval(p, 1, p, 2, 1.0, 4)
        assert report.lower == report.upper
        assert not report.feasible

    def test_rank_validation(self):
        p = normalize([0.4, 0.3, 0.2, 0.1])
        with pytest.raises(RankOutOfRangeError, match=r"^lock_rank must lie in \[1, 4\], got 0$"):
            feasible_topp_interval(p, 0, p, 2, 1.0, 4)
        with pytest.raises(RankOutOfRangeError, match=r"^fork_rank must lie in \[1, 4\], got 5$"):
            feasible_topp_interval(p, 1, p, 5, 1.0, 4)

    @pytest.mark.parametrize("rank", [1.5, 2.0, True, np.float64(2.0)],
                             ids=["1.5", "2.0", "True", "float64"])
    @pytest.mark.parametrize("side", ["lock_rank", "fork_rank"])
    def test_a_rank_that_is_not_an_integer_is_refused(self, side, rank):
        # a float rank inside [1, k] would reach the prefix curves as a float index
        p = normalize([0.4, 0.3, 0.2, 0.1])
        ranks = {"lock_rank": 1, "fork_rank": 2, side: rank}
        with pytest.raises(OutOfRangeError) as info:
            feasible_topp_interval(p, ranks["lock_rank"], p, ranks["fork_rank"], 1.0, 4)
        assert type(info.value) is OutOfRangeError
        assert str(info.value) == f"{side} must be an integer, got {rank!r}"

    def test_numpy_integer_ranks_are_taken(self):
        p = normalize([0.4, 0.3, 0.2, 0.1])
        assert feasible_topp_interval(p, np.int64(2), p, np.int32(1), 1.0, 4) == (
            feasible_topp_interval(p, 2, p, 1, 1.0, 4))

    def test_first_rank_lower_bound_is_zero(self):
        p = normalize([0.4, 0.3, 0.2, 0.1])
        report = feasible_topp_interval(p, 2, p, 1, 1.0, 4)
        assert report.lower == 0.0

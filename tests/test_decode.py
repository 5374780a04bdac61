"""Pipeline operators: tempering, truncation sets, sampling, normal form."""

import itertools
import math
import re
from bisect import bisect_left

import numpy as np
import pytest

from ssdlab import (
    DEFAULT_ORDER,
    Categorical,
    DecodeConfig,
    EmptySetError,
    InvalidOrderError,
    NonPositiveTemperatureError,
    NormalFormViolationError,
    OutOfRangeError,
    PrefixPolicy,
    ZeroMassSupportError,
    argmax_token,
    decode_normal_form,
    greedy_guard,
    gumbel_max_sample,
    make_stream,
    normalize,
    power_rigidity_check,
    rank_descending,
    restrict,
    build_archetype,
    build_toy_fsm,
    geometric_tail,
    monte_carlo_success,
    prefix_mass_curve,
    retained_support,
    self_training_fixed_point_check,
    ssd_target,
    temper,
    top_k_set,
    top_p_set,
    train_local_student,
)
from ssdlab import decode
from ssdlab.decode import TOP_P_EPS
from ssdlab.toyfsm import ROOT_HEAD

N_RANDOM = 200

ALL_ORDERS = tuple(itertools.permutations(DEFAULT_ORDER))


class TestConfig:
    def test_defaults_disable_truncation(self):
        cfg = DecodeConfig()
        assert cfg.temperature == 1.0
        assert cfg.top_k == 0
        assert cfg.top_p == 1.0

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
    def test_bad_temperature_rejected(self, temperature):
        with pytest.raises(NonPositiveTemperatureError):
            DecodeConfig(temperature=temperature)

    @pytest.mark.parametrize("kwargs", [{"top_k": -1}, {"top_p": 0.0}, {"top_p": 1.5}])
    def test_bad_truncation_rejected(self, kwargs):
        with pytest.raises(OutOfRangeError):
            DecodeConfig(**kwargs)

    def test_top_k_must_be_an_integer(self):
        assert DecodeConfig(top_k=np.int64(2)).top_k == 2
        with pytest.raises(OutOfRangeError, match="^top_k must be an integer, got 1.5$"):
            DecodeConfig(top_k=1.5)


P3 = normalize([0.5, 0.3, 0.2])

# Every other count parameter of the library, each called with a fraction.
COUNT_CALLS = {
    "top_k_set": lambda x: top_k_set(P3, x),
    "decode_normal_form": lambda x: decode_normal_form(P3, DEFAULT_ORDER, 1.0, x, 1.0),
    "geometric_tail": lambda x: geometric_tail(0.2, 0.5, x),
    "build_archetype": lambda x: build_archetype((0.5,), 0.5, (0,), vocab_size=x),
    "prefix_mass_curve": lambda x: prefix_mass_curve(P3, 1.0, x),
    "train_local_student": lambda x: train_local_student(P3, DecodeConfig(), max_steps=x),
    "self_training_fixed_point_check": lambda x: self_training_fixed_point_check(P3, x),
    "monte_carlo_success": lambda x: monte_carlo_success(build_toy_fsm(), 1.0, 0.8, x, 0),
}


@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_count_parameters_refuse_fractions(name):
    with pytest.raises(OutOfRangeError, match="must be an integer, got 2.5$"):
        COUNT_CALLS[name](2.5)
    COUNT_CALLS[name](np.int64(2))  # numpy integers are counts


# The same counts, and those checked before any draw, refuse a bool, which is
# an int to isinstance but no count.
BOOL_CALLS = {
    **COUNT_CALLS,
    "DecodeConfig": lambda x: DecodeConfig(top_k=x),
    "make_stream": make_stream,
    "gumbel_max_sample": lambda x: gumbel_max_sample(P3, make_stream(0), size=x),
}


@pytest.mark.parametrize("value", [True, False, np.True_], ids=["True", "False", "np.True_"])
@pytest.mark.parametrize("name", sorted(BOOL_CALLS))
def test_count_parameters_refuse_booleans(name, value):
    message = f"must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(OutOfRangeError, match=message):
        BOOL_CALLS[name](value)


class TestRanking:
    def test_descending_with_stable_ties(self):
        p = normalize([0.3, 0.4, 0.3])
        assert rank_descending(p).tolist() == [1, 0, 2]

    def test_matches_two_key_lexsort_reference(self):
        # reference: sort by -p, break ties by index, as two explicit keys
        gen = np.random.default_rng(1729)
        sizes = gen.integers(1, 64, size=95).tolist() + [2**10, 2**12, 2**15, 2**16, 2**18]
        for size in sizes:
            w = gen.integers(0, 4, size=size).astype(float)  # many ties and zeros
            w[int(gen.integers(size))] += 1.0
            p = Categorical(w / w.sum())
            expected = np.lexsort((np.arange(size), -p.probs))
            np.testing.assert_array_equal(rank_descending(p), expected)

    def test_argmax_prefers_lowest_index_on_tie(self):
        p = normalize([0.4, 0.4, 0.2])
        assert argmax_token(p) == 0


class TestGreedyGuard:
    def test_threshold_behavior(self):
        assert greedy_guard(0.0) is True
        assert greedy_guard(9.9e-6) is True
        assert greedy_guard(1e-5) is False
        assert greedy_guard(1.0) is False

    def test_negative_rejected(self):
        with pytest.raises(OutOfRangeError):
            greedy_guard(-1e-9)


class TestTemper:
    def test_frozen_square_root_value(self):
        p = Categorical(np.array([0.75, 0.25]))
        out = temper(p, 2.0)
        assert out.probs[0] == pytest.approx(0.6339745962155613, abs=1e-15)

    def test_unit_temperature_is_identity(self):
        p = normalize([0.5, 0.3, 0.2])
        np.testing.assert_allclose(temper(p, 1.0).probs, p.probs, rtol=0, atol=1e-15)

    def test_exact_zeros_survive(self):
        p = Categorical(np.array([0.7, 0.0, 0.3]))
        for t in (0.3, 1.0, 3.0):
            assert temper(p, t).probs[1] == 0.0

    def test_cold_limit_concentrates(self):
        p = normalize([0.5, 0.3, 0.2])
        out = temper(p, 0.01)
        assert out.probs[0] > 1.0 - 1e-12

    def test_hot_limit_flattens_over_support(self):
        p = Categorical(np.array([0.7, 0.0, 0.3]))
        out = temper(p, 1e6)
        np.testing.assert_allclose(out.probs, [0.5, 0.0, 0.5], atol=1e-5)

    def test_nonpositive_rejected(self):
        p = normalize([0.5, 0.5])
        with pytest.raises(NonPositiveTemperatureError):
            temper(p, 0.0)

    def test_members_equals_restrict_then_temper(self, make_dists):
        for i, w in enumerate(make_dists(50, seed=23)):
            p = Categorical(w)
            gen = np.random.default_rng(i)
            size = int(gen.integers(1, p.alphabet_size + 1))
            members = tuple(
                int(v) for v in gen.choice(p.alphabet_size, size=size, replace=False)
            )
            if w[list(members)].sum() == 0.0:
                continue
            t = float(gen.uniform(0.3, 3.0))
            via_kw = temper(p, t, members=members)
            via_restrict = temper(restrict(p, members), t)
            np.testing.assert_allclose(via_kw.probs, via_restrict.probs, atol=1e-14)

    def test_members_validation(self):
        p = Categorical(np.array([0.5, 0.5, 0.0]))
        with pytest.raises(EmptySetError):
            temper(p, 1.0, members=())
        with pytest.raises(ZeroMassSupportError):
            temper(p, 1.0, members=(2,))

    def test_composition_randomized(self, make_dists):
        # applying T1 then T2 equals applying T1*T2 in one shot
        for i, w in enumerate(make_dists(N_RANDOM, seed=29, zero_frac=0.2)):
            p = Categorical(w)
            gen = np.random.default_rng(i)
            t1, t2 = gen.uniform(0.2, 4.0, size=2)
            chained = temper(temper(p, t1), t2)
            direct = temper(p, t1 * t2)
            np.testing.assert_allclose(chained.probs, direct.probs, rtol=0, atol=1e-12)


class TestTopK:
    def test_literal_k_largest(self):
        p = normalize([0.1, 0.5, 0.2, 0.2])
        assert top_k_set(p, 2).tolist() == [1, 2]

    def test_tie_takes_lowest_index(self):
        p = normalize([0.4, 0.3, 0.3])
        assert top_k_set(p, 2).tolist() == [0, 1]

    def test_zero_disables(self):
        p = Categorical(np.array([0.6, 0.0, 0.4]))
        assert top_k_set(p, 0).tolist() == [0, 2]

    def test_k_at_least_alphabet_keeps_positive_support(self):
        p = Categorical(np.array([0.6, 0.0, 0.4]))
        assert top_k_set(p, 3).tolist() == [0, 2]
        assert top_k_set(p, 99).tolist() == [0, 2]

    def test_k_beyond_positive_count_pads_in_rank_order(self):
        p = Categorical(np.array([0.6, 0.0, 0.4, 0.0]))
        assert top_k_set(p, 3).tolist() == [0, 2, 1]


class TestTopP:
    def test_smallest_sufficient_prefix(self):
        p = normalize([0.5, 0.3, 0.2])
        assert top_p_set(p, 0.5).tolist() == [0]
        assert top_p_set(p, 0.51).tolist() == [0, 1]
        assert top_p_set(p, 0.8).tolist() == [0, 1]
        assert top_p_set(p, 0.8 + 1e-9).tolist() == [0, 1, 2]

    def test_near_tie_within_epsilon_keeps_short_prefix(self):
        # a boundary within 1e-12 of the cumulative mass counts as reached
        p = normalize([0.5, 0.3, 0.2])
        assert top_p_set(p, 0.8 + 1e-13).tolist() == [0, 1]

    def test_always_keeps_at_least_one_token(self):
        p = normalize([0.9, 0.1])
        assert top_p_set(p, 1e-9).tolist() == [0]

    def test_threshold_one_keeps_positive_support(self):
        p = Categorical(np.array([0.7, 0.0, 0.3]))
        assert top_p_set(p, 1.0).tolist() == [0, 2]

    def test_tie_takes_lowest_index(self):
        p = normalize([0.4, 0.3, 0.3])
        assert top_p_set(p, 0.7).tolist() == [0, 1]

    @pytest.mark.parametrize("mass, kept", [(0.5, [1]), (0.75, [1, 3]), (0.875, [1, 3, 0])])
    def test_cumulative_mass_exactly_at_the_cut(self, mass, kept):
        # dyadic weights make every partial sum exact, and top_p - TOP_P_EPS is
        # exactly a partial sum: the prefix that reaches it is kept and the next
        # token is not, in top_p_set's search and in the pipeline's kernel alike
        p = Categorical(np.array([0.125, 0.5, 0.125, 0.25]))
        top_p = mass + TOP_P_EPS
        assert top_p - TOP_P_EPS == mass
        assert top_p_set(p, top_p).tolist() == kept
        rs = retained_support(p, DecodeConfig(top_p=top_p))
        assert rs.support.tolist() == kept
        assert rs.kept_mass == mass

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.0 + 1e-9])
    def test_bad_threshold_rejected(self, threshold):
        p = normalize([0.5, 0.5])
        with pytest.raises(OutOfRangeError):
            top_p_set(p, threshold)


# Zeros and ties: the rank order is 0, 3, 2, 4, then the zero at 1.
TIED = Categorical(np.array([0.3, 0.0, 0.2, 0.3, 0.2]))

# Every index set the package returns, with its documented order.
INDEX_SETS = {
    "top_k_set": (lambda: top_k_set(TIED, 3), [0, 3, 2]),
    "top_p_set": (lambda: top_p_set(TIED, 0.75), [0, 3, 2]),
    "Categorical.support": (TIED.support, [0, 2, 3, 4]),
    "retained_support": (
        lambda: retained_support(TIED, DecodeConfig(top_k=4)).support, [0, 3, 2, 4]
    ),
    "ssd_target": (
        lambda: ssd_target(TIED, DecodeConfig(temperature=1.5, top_p=0.75)).support,
        [0, 3, 2],
    ),
    "Archetype.correct_tokens": (
        lambda: build_archetype(ROOT_HEAD, 0.5, [1, 0]).correct_tokens, [1, 0]
    ),
}


@pytest.mark.parametrize("name", sorted(INDEX_SETS))
def test_index_set_is_a_read_only_int64_array(name):
    make, expected = INDEX_SETS[name]
    idx = make()
    assert isinstance(idx, np.ndarray)
    assert idx.dtype == np.int64 and idx.ndim == 1
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0] = 0
    assert idx.tolist() == expected


class TestRetainedSupport:
    def test_operational_is_tempered_then_conditioned(self):
        p = normalize([0.5, 0.3, 0.2])
        cfg = DecodeConfig(temperature=0.7, top_p=0.8)
        rs = retained_support(p, cfg)
        assert rs.support.tolist() == [0, 1]
        assert rs.kept_mass == pytest.approx(0.8, abs=1e-15)
        expected = temper(restrict(p, (0, 1)), 0.7)
        np.testing.assert_allclose(rs.operational.probs, expected.probs, atol=1e-14)

    def test_kept_mass_is_base_mass_not_tempered_mass(self):
        p = normalize([0.5, 0.3, 0.2])
        rs = retained_support(p, DecodeConfig(temperature=0.2, top_p=0.95))
        assert rs.kept_mass == pytest.approx(p.probs[list(rs.support)].sum(), abs=1e-15)

    def test_truncations_compose(self, make_dists):
        for i, w in enumerate(make_dists(N_RANDOM, seed=31)):
            p = Categorical(w)
            gen = np.random.default_rng(i)
            cfg = DecodeConfig(
                temperature=float(gen.uniform(0.3, 3.0)),
                top_k=int(gen.integers(0, p.alphabet_size + 1)),
                top_p=float(gen.uniform(0.3, 1.0)),
            )
            rs = retained_support(p, cfg)
            tempered = temper(p, cfg.temperature)
            expected = set(top_k_set(tempered, cfg.top_k))
            survivors = top_p_set(restrict(tempered, sorted(expected)), cfg.top_p)
            assert set(rs.support) <= expected
            assert set(rs.support) == set(survivors)
            prefix = rank_descending(p)[: len(rs.support)]
            assert rs.support.tolist() == prefix.tolist()
            np.testing.assert_allclose(
                rs.operational.probs,
                restrict(tempered, survivors).probs,
                rtol=0,
                atol=1e-14,
            )
            assert rs.kept_mass == pytest.approx(
                p.probs[list(rs.support)].sum(), abs=1e-14
            )

    @pytest.mark.parametrize(
        "probs, expected",
        [([0.5, 0.3, 0.2], [1.0, 0.0, 0.0]), ([0.4, 0.4, 0.2], [0.5, 0.5, 0.0])],
    )
    def test_cold_limit_is_argmax(self, probs, expected):
        p = Categorical(probs)
        rs = retained_support(p, DecodeConfig(temperature=1e-310))
        assert rs.support.tolist() == np.flatnonzero(expected).tolist()
        np.testing.assert_array_equal(rs.operational.probs, expected)
        np.testing.assert_array_equal(temper(p, 1e-310).probs, expected)

    def test_hot_limit_keeps_rank_order(self):
        p = Categorical([0.1, 0.2, 0.7])
        rs = retained_support(p, DecodeConfig(temperature=1e20, top_k=1))
        assert rs.support.tolist() == [2]
        np.testing.assert_array_equal(rs.operational.probs, [0.0, 0.0, 1.0])

    def test_top_k_beyond_int64_keeps_every_positive_token(self):
        p = Categorical(np.array([0.1, 0.0, 0.5, 0.4]))
        rs = retained_support(p, DecodeConfig(temperature=0.7, top_k=10**20))
        assert rs.support.tolist() == list(top_k_set(p, 10**20)) == [2, 3, 0]
        expected = restrict(temper(p, 0.7), rs.support)
        np.testing.assert_allclose(rs.operational.probs, expected.probs, atol=1e-15)

    def test_top_p_cut_matches_exact_sum_at_vocabulary_scale(self):
        # The cut is the smallest prefix whose exactly rounded (fsum) mass
        # reaches top_p - TOP_P_EPS. Cuts 2e-12 either side of a prefix sum
        # leave room for the rounding of a float running sum over 32k terms.
        v = 32_768
        for seed in range(3):
            gen = np.random.default_rng([seed, v])
            p = normalize(gen.gamma(0.3, size=v))
            order = rank_descending(p)
            ranked = p.probs[order].tolist()
            for mass in gen.uniform(0.05, 0.95, size=8):
                m = int(np.searchsorted(np.cumsum(ranked), mass)) + 1
                for offset in (-2e-12, 2e-12):
                    cut = math.fsum(ranked[:m]) + offset
                    exact = bisect_left(
                        range(v + 1), True, key=lambda n: math.fsum(ranked[:n]) >= cut
                    )
                    assert exact == (m if offset < 0 else m + 1)
                    rs = retained_support(p, DecodeConfig(top_p=cut + TOP_P_EPS))
                    assert rs.support.tolist() == order[:exact].tolist()


class TestSampling:
    def test_streams_are_deterministic_and_distinct(self):
        a = make_stream(7, stream=0).random(4)
        b = make_stream(7, stream=0).random(4)
        c = make_stream(7, stream=1).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed, message", [
        (-1, "^seed must be >= 0, got -1$"),
        (2.5, "^seed must be an integer, got 2.5$"),
    ], ids=["negative", "fraction"])
    def test_seed_must_be_a_count(self, seed, message):
        with pytest.raises(OutOfRangeError, match=message):
            make_stream(seed)
        np.testing.assert_array_equal(make_stream(np.int64(7)).random(4),
                                      make_stream(7).random(4))

    def test_batch_shape(self):
        p = normalize([0.5, 0.3, 0.2])
        batch = gumbel_max_sample(p, make_stream(3), size=100)
        assert batch.shape == (100,)
        assert batch.dtype == np.int64

    @pytest.mark.parametrize("size, message", [
        (-1, "^size must be >= 0, got -1$"),
        (2.5, "^size must be an integer, got 2.5$"),
    ], ids=["negative", "fraction"])
    def test_size_must_be_a_count(self, size, message):
        rng = make_stream(3)
        with pytest.raises(OutOfRangeError, match=message):
            gumbel_max_sample(normalize([0.5, 0.5]), rng, size=size)
        np.testing.assert_array_equal(rng.random(2), make_stream(3).random(2))  # nothing drawn
        assert gumbel_max_sample(normalize([0.5, 0.5]), rng, size=np.int64(3)).shape == (3,)

    def test_zero_probability_tokens_never_drawn(self):
        p = Categorical(np.array([0.5, 0.0, 0.5]))
        batch = gumbel_max_sample(p, make_stream(11), size=20_000)
        assert not np.any(batch == 1)

    def test_marginal_law_matches_operational(self):
        p = normalize([0.08, 0.46, 0.21, 0.25])
        n = 200_000
        batch = gumbel_max_sample(p, make_stream(5), size=n)
        freq = np.bincount(batch, minlength=4) / n
        tv = 0.5 * np.abs(freq - p.probs).sum()
        assert tv < 4.0 * np.sqrt(p.alphabet_size / n)


def _full_row_gumbel_max(operational, rng, size):
    """The literal sampler: noise on every column, zero-probability ones masked."""
    p = operational.probs
    u = 1.0 - rng.random((size, p.size))
    noise = 0.0 - np.log(u)  # +0.0 at u = 1, so a zero noise scores +inf
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(p > 0, p / noise, -1.0)
    return np.argmax(scores, axis=1)


class _FixedUniforms:
    """A stream stand-in whose random() returns one given block of uniforms."""

    def __init__(self, block):
        self.block = np.asarray(block, dtype=float)

    def random(self, shape):
        assert shape == self.block.shape
        return self.block.copy()


class TestSupportColumnSampler:
    POLICIES = {
        "one_survivor": Categorical([0.0, 0.0, 1.0, 0.0, 0.0]),
        "one_survivor_v7": Categorical([0.0] * 6 + [1.0]),
        "one_survivor_v16": Categorical([1.0] + [0.0] * 15),
        "partial": Categorical([0.0, 0.45, 0.0, 0.3, 0.25, 0.0, 0.0]),
        "full": normalize([0.08, 0.46, 0.21, 0.25, 0.01, 0.3]),
    }

    @staticmethod
    def _assert_replays(p, got_rng, ref_rng, size):
        for _ in range(3):
            got = gumbel_max_sample(p, got_rng, size=size)
            ref = _full_row_gumbel_max(p, ref_rng, size=size)
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)
        # the streams stand where drawing every uniform block leaves them
        np.testing.assert_array_equal(got_rng.random(8), ref_rng.random(8))

    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("size", [1, 9, 5000])
    def test_matches_full_row_reference(self, name, size):
        for seed in range(5):
            got_rng, ref_rng = make_stream(seed, 2), make_stream(seed, 2)
            self._assert_replays(self.POLICIES[name], got_rng, ref_rng, size)

    STREAMS = {
        "philox": lambda seed: make_stream(seed, 2),
        "pcg64": np.random.default_rng,  # not counter-based: the block is drawn
    }

    @pytest.mark.parametrize("stream", sorted(STREAMS))
    @pytest.mark.parametrize("name", sorted(POLICIES))
    @pytest.mark.parametrize("size", [1, 3, 5000])
    def test_replays_after_a_partial_buffer(self, stream, name, size):
        for seed in range(5):
            got_rng, ref_rng = self.STREAMS[stream](seed), self.STREAMS[stream](seed)
            for rng in (got_rng, ref_rng):
                rng.random(3)  # leaves Philox's four-word buffer partly used
            self._assert_replays(self.POLICIES[name], got_rng, ref_rng, size)

    @pytest.mark.parametrize("size", [1, 9])
    def test_pending_32_bit_half_survives_a_skipped_block(self, size):
        p = self.POLICIES["one_survivor_v16"]
        got_rng, ref_rng = make_stream(4), make_stream(4)
        for rng in (got_rng, ref_rng):
            rng.integers(10, size=3, dtype=np.uint32)  # holds back a 32-bit half
        gumbel_max_sample(p, got_rng, size=size)
        _full_row_gumbel_max(p, ref_rng, size=size)
        for _ in range(2):
            np.testing.assert_array_equal(
                got_rng.integers(1 << 30, size=3, dtype=np.uint32),
                ref_rng.integers(1 << 30, size=3, dtype=np.uint32),
            )
            np.testing.assert_array_equal(got_rng.random(5), ref_rng.random(5))

    def test_zero_noise_wins(self):
        # rng.random() can return exactly 0.0: then U = 1, the noise is 0 and
        # the score p / 0 is +inf, so that token is drawn
        p = normalize([0.9, 0.1, 0.0])
        assert gumbel_max_sample(p, _FixedUniforms([[0.5, 0.0, 0.5]]), size=1).tolist() == [1]
        block = [[0.5, 0.0, 0.5], [0.0, 0.5, 0.5], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0]]
        got = gumbel_max_sample(p, _FixedUniforms(block), size=4)
        np.testing.assert_array_equal(got, [1, 0, 0, 0])
        ref = _full_row_gumbel_max(p, _FixedUniforms(block), size=4)
        np.testing.assert_array_equal(got, ref)


class TestNormalForm:
    def test_power_law_on_rank_prefix(self):
        p = normalize([0.5, 0.3, 0.2])
        policy = decode_normal_form(p, DEFAULT_ORDER, alpha=2.0, k=0, top_p=0.8)
        assert policy.prefix_len == 2
        assert policy.exponent == 2.0
        np.testing.assert_allclose(
            policy.dist.probs, [0.25 / 0.34, 0.09 / 0.34, 0.0], atol=1e-14
        )

    def test_all_six_orders_yield_power_prefix(self, make_dists):
        for i, w in enumerate(make_dists(N_RANDOM // 4, seed=37)):
            p = Categorical(w)
            gen = np.random.default_rng(i)
            alpha = float(gen.uniform(0.3, 3.0))
            k = int(gen.integers(0, p.alphabet_size + 1))
            top_p = float(gen.uniform(0.4, 1.0))
            ranks = rank_descending(p)
            for order in ALL_ORDERS:
                policy = decode_normal_form(p, order, alpha=alpha, k=k, top_p=top_p)
                survivors = np.flatnonzero(policy.dist.probs)
                assert set(survivors) == set(ranks[: policy.prefix_len].tolist())
                assert power_rigidity_check(policy, p) <= 1e-10

    def test_rigidity_check_flags_perturbation(self):
        p = normalize([0.5, 0.3, 0.2])
        policy = decode_normal_form(p, DEFAULT_ORDER, alpha=1.5, k=0, top_p=1.0)
        bent = np.array(policy.dist.probs)
        bent[0] *= 1.05
        broken = PrefixPolicy(
            prefix_len=policy.prefix_len,
            exponent=policy.exponent,
            dist=normalize(bent),
        )
        assert power_rigidity_check(broken, p) > 1e-3

    def test_parameter_validation(self):
        p = normalize([0.5, 0.5])
        with pytest.raises(OutOfRangeError):
            decode_normal_form(p, DEFAULT_ORDER, alpha=0.0, k=0, top_p=1.0)
        with pytest.raises(OutOfRangeError):
            decode_normal_form(p, DEFAULT_ORDER, alpha=1.0, k=-1, top_p=1.0)
        with pytest.raises(InvalidOrderError):
            decode_normal_form(p, ("temper", "top_k"), alpha=1.0, k=0, top_p=1.0)
        # refused by decode_normal_form's own check, before top_p_set's "threshold" one
        with pytest.raises(OutOfRangeError, match="^top_p must lie in"):
            decode_normal_form(p, DEFAULT_ORDER, alpha=1.0, k=0, top_p=0.0)

    def test_rigidity_bound_is_inclusive(self, monkeypatch):
        p = normalize([0.5, 0.3, 0.2])
        monkeypatch.setattr(decode, "power_rigidity_check", lambda policy, base: 1e-10)
        decode_normal_form(p, DEFAULT_ORDER, alpha=1.5, k=0, top_p=1.0)
        above = float(np.nextafter(1e-10, 1.0))
        monkeypatch.setattr(decode, "power_rigidity_check", lambda policy, base: above)
        with pytest.raises(NormalFormViolationError, match="deviate from the global power law"):
            decode_normal_form(p, DEFAULT_ORDER, alpha=1.5, k=0, top_p=1.0)

    def test_infinite_exponent_rejected_by_name(self):
        p = normalize([0.5, 0.3, 0.2])
        with pytest.raises(OutOfRangeError, match="exponent must be finite and positive"):
            decode_normal_form(p, DEFAULT_ORDER, alpha=np.inf, k=0, top_p=1.0)

"""Distribution construction, restriction, and entropy/divergence identities."""

import math
import re
import warnings

import numpy as np
import pytest

from ssdlab import (
    AllZeroError,
    EmptyEventError,
    Categorical,
    EmptySetError,
    InvalidEntryError,
    InvalidOrderError,
    OutOfRangeError,
    SupportViolationError,
    ZeroMassSupportError,
    as_index_array,
    binary_entropy,
    cross_entropy,
    entropy,
    kl_divergence,
    normalize,
    renyi_entropy,
    restrict,
)
from ssdlab import categorical
from ssdlab.categorical import _event_array, _int64_members

N_RANDOM = 200

# Frozen two-point oracles, each verified against its closed form:
# H(p) = -p log p - (1-p) log(1-p) and the Renyi log-sum formulas.
H_75_25 = 0.5623351446188083
H_60_40 = 0.6730116670092565
RENYI_HALF_75_25 = 0.6238107163648713  # log((sqrt(.75)+sqrt(.25))^2)
RENYI_TWO_75_25 = 0.4700036292457356  # -log(.75^2+.25^2)
H2_09 = 0.3250829733914482
KL_UNIFORM_75_25 = 0.14384103622589042
CE_UNIFORM_75_25 = 0.8369882167858358


class TestConstruction:
    def test_accepts_normalized_vector(self):
        p = Categorical(np.array([0.75, 0.25]))
        assert p.alphabet_size == 2
        np.testing.assert_allclose(p.probs, [0.75, 0.25], rtol=0, atol=0)

    def test_renormalizes_small_drift(self):
        drift = 1.0 + 5e-10
        p = Categorical(np.array([0.5 * drift, 0.5 * drift]))
        assert p.probs.sum() == 1.0

    @pytest.mark.parametrize(
        "values, message",
        [
            ([0.5, 0.6], "probabilities sum to 1.1, more than 1e-09 from 1"),
            ([0.5, 0.5 - 1e-6], "probabilities sum to 0.9999990000000001, more than 1e-09 from 1"),
            ([1.2, -0.2], "probability vector contains negative entries"),
            ([0.5, np.nan], "probability vector contains NaN or infinity"),
            ([0.5, np.inf], "probability vector contains NaN or infinity"),
            ([], "probability vector must be 1-d and nonempty"),
            ([[0.5, 0.5]], "probability vector must be 1-d and nonempty"),
        ],
        ids=["sum-far", "sum-near", "negative", "nan", "inf", "empty", "2-d"],
    )
    def test_rejects_bad_vectors(self, values, message):
        with pytest.raises(InvalidEntryError, match=f"^{re.escape(message)}$"):
            Categorical(np.asarray(values, dtype=float))

    @pytest.mark.parametrize("offset", [2.0**-30, -(2.0**-30)])
    def test_a_sum_exactly_the_tolerance_from_1_is_accepted(self, monkeypatch, offset):
        # no float sum lies exactly 1e-9 from 1, so a dyadic tolerance stands in
        monkeypatch.setattr(categorical, "CONSTRUCTION_TOL", 2.0**-30)
        p = Categorical(np.array([0.5, 0.5 + offset]))
        assert p.probs.tolist() == [0.5 / (1.0 + offset), (0.5 + offset) / (1.0 + offset)]
        with pytest.raises(InvalidEntryError, match="more than"):
            Categorical(np.array([0.5, 0.5 + 2.0 * offset]))

    def test_a_sum_past_double_max_is_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidEntryError,
                               match="^probabilities sum to inf, more than 1e-09 from 1$"):
                Categorical(np.array([1e308, 1e308]))

    def test_probs_are_read_only(self):
        p = Categorical(np.array([0.4, 0.6]))
        with pytest.raises(ValueError):
            p.probs[0] = 1.0

    def test_support_skips_zero_entries(self):
        p = Categorical(np.array([0.5, 0.0, 0.5, 0.0]))
        assert p.support().tolist() == [0, 2]


class TestIndexSets:
    def test_accepts_unordered_members(self):
        idx = as_index_array([3, 0, 2], alphabet_size=4)
        assert sorted(idx.tolist()) == [0, 2, 3]

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            as_index_array([], alphabet_size=4)

    @pytest.mark.parametrize("members", [[4], [-1], [0, 7]])
    def test_out_of_range_rejected(self, members):
        with pytest.raises(OutOfRangeError):
            as_index_array(members, alphabet_size=4)

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidEntryError):
            as_index_array([1, 1], alphabet_size=4)

    @pytest.mark.parametrize("members", [[1.7], [0, 1.0], [1, 10**20, 1.5]])
    def test_float_member_rejected(self, members):
        # a float index would otherwise be truncated to the token below it
        with pytest.raises(InvalidEntryError, match="non-integer member"):
            as_index_array(members, alphabet_size=4)
        with pytest.raises(InvalidEntryError):
            restrict(normalize([0.5, 0.3, 0.2, 0.0]), members)

    @pytest.mark.parametrize("members", [[10**20], [0, 10**20], [2**63], [-1, 2**63]])
    def test_member_past_int64_is_out_of_range(self, members):
        with pytest.raises(OutOfRangeError, match=r"outside \[0, 4\)"):
            as_index_array(members, alphabet_size=4)

    def test_the_lowest_int64_is_an_integer_member(self):
        # an int beside a uint64 has no common int type, so each member is range checked
        idx = _int64_members([-(2**63), np.uint64(3)], "index set", "outside")
        assert idx.dtype == np.int64 and idx.tolist() == [-(2**63), 3]
        with pytest.raises(OutOfRangeError, match="^outside$"):
            _int64_members([-(2**63) - 1, np.uint64(3)], "index set", "outside")

    def test_a_0d_index_array_is_not_one_member(self):
        with pytest.raises(InvalidEntryError, match="^index set must be a 1-d collection"):
            as_index_array(np.array(1), alphabet_size=4)

    @pytest.mark.parametrize("members", [
        np.array([[0, 1]]), [[0, 1]], [np.array([0, 1])], np.array(1), 3, np.int64(3),
        [[0], [1, 2]], [0, [1]], np.zeros((2, 0), dtype=int), np.zeros((0, 2), dtype=int),
    ], ids=["2d-array", "2d-list", "list-of-arrays", "0d-array", "int", "numpy-int",
            "ragged", "mixed", "2d-empty-rows", "2d-no-rows"])
    def test_members_that_are_not_a_1d_collection_are_refused(self, members):
        with pytest.raises(InvalidEntryError, match="^index set must be a 1-d collection"):
            as_index_array(members, alphabet_size=4)
        with pytest.raises(InvalidEntryError, match="^event set must be a 1-d collection"):
            _event_array(members, [0, 1, 2], "support")

    @pytest.mark.parametrize("members", [[], (), np.array([], dtype=np.int64), iter([])])
    def test_an_empty_collection_is_an_empty_set(self, members):
        with pytest.raises(EmptySetError):
            as_index_array(members, alphabet_size=4)

    @pytest.mark.parametrize("event", [[], np.array([], dtype=np.int64)])
    def test_an_empty_event_is_an_empty_event(self, event):
        with pytest.raises(EmptyEventError):
            _event_array(event, [0, 1, 2], "support")

    @pytest.mark.parametrize("members", [
        {2, 0}, (m for m in (2, 0)), range(0, 4, 2), np.array([2, 0], dtype=np.uint8),
    ], ids=["set", "generator", "range", "uint8-array"])
    def test_any_1d_collection_of_integers_is_taken(self, members):
        assert sorted(as_index_array(members, alphabet_size=4).tolist()) == [0, 2]

    @pytest.mark.parametrize("event", [[10**20], [0, 2**63]])
    def test_event_past_int64_is_outside_container(self, event):
        with pytest.raises(OutOfRangeError, match="not contained in the support"):
            _event_array(event, [0, 1, 2], "support")

    def test_float_event_rejected(self):
        with pytest.raises(InvalidEntryError, match="event set contains a non-integer"):
            _event_array([0.5], [0, 1, 2], "support")


class TestNormalize:
    def test_matches_closed_form_ratio(self):
        p = normalize([0.7264, 0.0399])
        np.testing.assert_allclose(
            p.probs, [0.7264 / 0.7663, 0.0399 / 0.7663], rtol=0, atol=1e-15
        )

    def test_survives_huge_weights(self):
        # naive summation of these would overflow to infinity
        p = normalize([1e308, 1e308, 1.5e308])
        np.testing.assert_allclose(p.probs, [2.0 / 7.0, 2.0 / 7.0, 3.0 / 7.0], atol=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroError):
            normalize([0.0, 0.0])

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1.0, -1.0], "weight vector contains negative entries"),
            ([np.nan, 1.0], "weight vector contains NaN or infinity"),
            ([np.inf, 1.0], "weight vector contains NaN or infinity"),
            ([], "weight vector must be 1-d and nonempty"),
            ([[0.5, 0.5]], "weight vector must be 1-d and nonempty"),
        ],
        ids=["negative", "nan", "inf", "empty", "2-d"],
    )
    def test_bad_weights_rejected(self, values, message):
        with pytest.raises(InvalidEntryError, match=f"^{re.escape(message)}$"):
            normalize(values)


class TestRestrict:
    def test_conditional_values(self):
        p = normalize([0.2, 0.3, 0.5])
        r = restrict(p, (0, 2))
        np.testing.assert_allclose(r.probs, [2.0 / 7.0, 0.0, 5.0 / 7.0], atol=1e-15)

    def test_zero_mass_support_rejected(self):
        p = Categorical(np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ZeroMassSupportError):
            restrict(p, (2,))

    def test_preserves_ratios_randomized(self, make_dists):
        for i, w in enumerate(make_dists(N_RANDOM, seed=11)):
            p = Categorical(w)
            gen = np.random.default_rng(i)
            size = int(gen.integers(1, p.alphabet_size + 1))
            members = tuple(
                int(v) for v in gen.choice(p.alphabet_size, size=size, replace=False)
            )
            mass = w[list(members)].sum()
            if mass == 0.0:
                continue
            r = restrict(p, members)
            comp = np.setdiff1d(np.arange(p.alphabet_size), members)
            assert np.all(r.probs[comp] == 0.0)
            np.testing.assert_allclose(
                r.probs[list(members)], w[list(members)] / mass, rtol=1e-12, atol=0
            )


class TestEntropy:
    @pytest.mark.parametrize(
        "weights, expected",
        [
            ([0.75, 0.25], H_75_25),
            ([0.6, 0.4], H_60_40),
            (np.full(16, 1.0 / 16.0), math.log(16.0)),
            ([1.0, 0.0, 0.0], 0.0),
        ],
    )
    def test_frozen_values(self, weights, expected):
        assert entropy(Categorical(np.asarray(weights, dtype=float))) == pytest.approx(
            expected, abs=1e-14
        )

    def test_zero_entries_do_not_contribute(self):
        dense = Categorical(np.array([0.75, 0.25]))
        padded = Categorical(np.array([0.75, 0.0, 0.25, 0.0]))
        assert entropy(dense) == entropy(padded)

    def test_bounds_randomized(self, make_dists):
        for w in make_dists(N_RANDOM, seed=13, zero_frac=0.3):
            p = Categorical(w)
            h = entropy(p)
            assert 0.0 <= h <= math.log(p.alphabet_size) + 1e-12


class TestRenyi:
    def test_frozen_values(self):
        p = Categorical(np.array([0.75, 0.25]))
        assert renyi_entropy(p, 0.5) == pytest.approx(RENYI_HALF_75_25, abs=1e-13)
        assert renyi_entropy(p, 2.0) == pytest.approx(RENYI_TWO_75_25, abs=1e-13)

    def test_order_one_is_shannon(self):
        p = Categorical(np.array([0.6, 0.4]))
        assert renyi_entropy(p, 1.0) == entropy(p)

    def test_continuity_at_one(self):
        p = Categorical(np.array([0.75, 0.25]))
        for alpha in (1.0 - 1e-7, 1.0 + 1e-7):
            assert renyi_entropy(p, alpha) == pytest.approx(H_75_25, abs=1e-6)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, -0.5])
    def test_nonpositive_order_rejected(self, alpha):
        p = Categorical(np.array([0.75, 0.25]))
        with pytest.raises(InvalidOrderError):
            renyi_entropy(p, alpha)

    def test_large_order_does_not_underflow(self):
        p = Categorical(np.array([0.75, 0.25]))
        assert renyi_entropy(p, 800.0) == pytest.approx(
            800.0 / 799.0 * -math.log(0.75), rel=1e-12
        )

    @pytest.mark.parametrize(
        "weights", [[0.1] * 10, [0.5, 0.3, 0.2], [0.2, 0.0, 0.4, 0.4]]
    )
    def test_huge_order_is_min_entropy(self, weights):
        # alpha log p overflows at alpha = 1e308; the limit is -log max p
        p = Categorical(np.array(weights))
        assert renyi_entropy(p, 1e308) == pytest.approx(
            -math.log(max(weights)), abs=1e-15
        )

    @pytest.mark.parametrize(
        "weights", [[0.1] * 10, [0.5, 0.3, 0.2], [0.2, 0.0, 0.4, 0.4], [1.0]]
    )
    def test_infinite_order_is_min_entropy(self, weights):
        # the limit itself, with no RuntimeWarning (an error in this suite)
        p = Categorical(np.array(weights))
        assert renyi_entropy(p, math.inf) == -math.log(max(weights))
        assert renyi_entropy(p, math.inf) == pytest.approx(
            renyi_entropy(p, 1e308), abs=1e-15
        )

    def test_nonincreasing_in_order_randomized(self, make_dists):
        orders = [0.25, 0.5, 1.0, 2.0, 4.0, 16.0]
        for w in make_dists(N_RANDOM, seed=17):
            p = Categorical(w)
            values = [renyi_entropy(p, a) for a in orders]
            diffs = np.diff(values)
            assert np.all(diffs <= 1e-12)


class TestDivergences:
    def test_frozen_values(self):
        u = Categorical(np.array([0.5, 0.5]))
        p = Categorical(np.array([0.75, 0.25]))
        assert kl_divergence(u, p) == pytest.approx(KL_UNIFORM_75_25, abs=1e-14)
        assert cross_entropy(u, p) == pytest.approx(CE_UNIFORM_75_25, abs=1e-14)

    def test_kl_zero_on_identical(self):
        p = Categorical(np.array([0.3, 0.3, 0.4]))
        assert kl_divergence(p, p) == 0.0

    def test_support_violation_rejected(self):
        p = Categorical(np.array([0.5, 0.5]))
        q = Categorical(np.array([1.0, 0.0]))
        with pytest.raises(SupportViolationError):
            kl_divergence(p, q)
        with pytest.raises(SupportViolationError):
            cross_entropy(p, q)

    def test_alphabet_mismatch_rejected(self):
        p = Categorical(np.array([0.5, 0.5]))
        q = Categorical(np.array([0.5, 0.25, 0.25]))
        for divergence in (kl_divergence, cross_entropy):
            with pytest.raises(InvalidEntryError, match="^alphabet sizes differ$"):
                divergence(p, q)

    def test_gibbs_identity_randomized(self, make_dists):
        # cross entropy = entropy + KL, and KL >= 0, for any support-compatible pair
        firsts = make_dists(N_RANDOM, seed=19)
        for i, w in enumerate(firsts):
            gen = np.random.default_rng(1000 + i)
            q = gen.dirichlet(np.full(w.size, 0.9))
            p_dist, q_dist = Categorical(w), Categorical(q)
            kl = kl_divergence(p_dist, q_dist)
            assert kl >= 0.0
            assert cross_entropy(p_dist, q_dist) == pytest.approx(
                entropy(p_dist) + kl, rel=1e-12, abs=1e-12
            )


class TestBinaryEntropy:
    def test_frozen_value(self):
        assert binary_entropy(0.9) == pytest.approx(H2_09, abs=1e-14)

    def test_half_is_log_two(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    @pytest.mark.parametrize("x", [0.0, 1.0])
    def test_endpoints_are_exact_zero(self, x):
        assert binary_entropy(x) == 0.0

    def test_symmetry(self, rng):
        for x in rng.random(50):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-14)

    @pytest.mark.parametrize("x", [-0.1, 1.1])
    def test_out_of_range_rejected(self, x):
        with pytest.raises(OutOfRangeError):
            binary_entropy(x)

"""Property tests for the rank-once prefix-power kernel and the temper identities."""

from itertools import permutations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdlab import (
    DEFAULT_ORDER,
    decode_normal_form,
    normalize,
    power_rigidity_check,
    rank_descending,
    temper,
)
from ssdlab.decode import _prefix_power

# Small integer weights give exact ties and zeros, and distinct weights stay
# distinct under any exponent in [1e-3, 1e3] (their ratio is at least 20/19).
weights = st.lists(st.integers(0, 20), min_size=1, max_size=16).filter(any)
top_ks = st.integers(0, 18)
top_ps = st.one_of(st.sampled_from([1.0, 0.5, 0.9]), st.floats(0.01, 1.0))
any_temperature = st.one_of(
    st.sampled_from([1e-310, 1e20, 1.0]),
    st.floats(min_value=5e-324, max_value=1e300, allow_nan=False),
)
# moderate temperatures, log-uniform, where rows are neither greedy nor uniform
mixed_temperature = st.one_of(
    any_temperature, st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
)


@settings(max_examples=300)
@given(weights, st.lists(any_temperature, min_size=1, max_size=6), top_ks, top_ps)
def test_support_is_rank_prefix(w, temperatures, top_k, top_p):
    p = normalize(w)
    order, m, rows = _prefix_power(p, np.array(temperatures), top_k, top_p)
    positive = int(np.count_nonzero(p.probs))
    assert order.tolist() == rank_descending(p)[:positive].tolist()
    assert rows.shape == (len(temperatures), p.alphabet_size)
    for k, row in zip(m.tolist(), rows):
        assert 1 <= k <= (min(top_k, positive) if top_k else positive)
        assert set(np.flatnonzero(row).tolist()) == set(order[:k].tolist())
        assert abs(row.sum() - 1.0) <= 1e-14


@settings(max_examples=300)
@given(weights, st.floats(1e-3, 1e3), top_ks, top_ps)
def test_matches_literal_pipeline(w, alpha, top_k, top_p):
    p = normalize(w)
    order, m, rows = _prefix_power(p, np.array([1.0 / alpha]), top_k, top_p)
    policy = decode_normal_form(p, DEFAULT_ORDER, alpha, top_k, top_p)
    assert int(m[0]) == policy.prefix_len
    np.testing.assert_allclose(rows[0], policy.dist.probs, rtol=0, atol=1e-14)


@settings(max_examples=300)
@given(weights, st.floats(1e-3, 1e3), top_ks, st.floats(0.0, 1.0, exclude_min=True))
def test_every_order_closes_on_a_rank_prefix(w, alpha, top_k, top_p):
    # temper, top-k and top-p in any of the six orders leave p^alpha on a
    # prefix of p's descending ranking
    p = normalize(w)
    ranking = rank_descending(p)
    for order in permutations(DEFAULT_ORDER):
        policy = decode_normal_form(p, order, alpha, top_k, top_p)
        survivors = set(np.flatnonzero(policy.dist.probs).tolist())
        assert survivors == set(ranking[: policy.prefix_len].tolist())
        assert power_rigidity_check(policy, p) <= 1e-10


# From 8 terms numpy sums pairwise, so a row summed at another width than the
# full positive one would round differently.
@settings(max_examples=300)
@given(
    st.lists(st.integers(0, 20), min_size=8, max_size=200).filter(any),
    st.lists(mixed_temperature, min_size=2, max_size=6),
    top_ks,
    top_ps,
)
def test_rows_independent_of_batch(w, temperatures, top_k, top_p):
    # row i and its prefix length are the one-row call at temperatures[i], bit
    # for bit, whatever the other rows' prefix lengths are
    p = normalize(w)
    _, m, rows = _prefix_power(p, np.array(temperatures), top_k, top_p)
    for t, k, row in zip(temperatures, m.tolist(), rows):
        _, m1, rows1 = _prefix_power(p, np.array([t]), top_k, top_p)
        assert int(m1[0]) == k
        np.testing.assert_array_equal(rows1[0], row, strict=True)


@settings(max_examples=300)
@given(weights, st.floats(1e-2, 1e2), st.floats(1e-2, 1e2))
def test_temper_composes(w, a, b):
    # tempering at a, then at b, is tempering once at a * b
    p = normalize(w)
    np.testing.assert_allclose(
        temper(temper(p, a), b).probs, temper(p, a * b).probs, rtol=0, atol=1e-12
    )

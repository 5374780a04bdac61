"""Property tests for the rank-once prefix-power kernel and the temper identities."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdlab import (
    DEFAULT_ORDER,
    Categorical,
    DecodeConfig,
    decode_normal_form,
    normalize,
    power_rigidity_check,
    rank_descending,
    retained_support,
    ssd_target,
    temper,
)
from ssdlab.categorical import _shifted_exp, _softmax
from ssdlab.decode import TOP_P_EPS, _prefix_power

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


def _in_alphabet(p, order, rows):
    """The kernel's rank-space rows written into p's alphabet: column j is token order[j]."""
    out = np.zeros((rows.shape[0], p.alphabet_size))
    out[:, order] = rows
    return out


@settings(max_examples=300)
@given(weights, st.lists(any_temperature, min_size=1, max_size=6), top_ks, top_ps)
def test_support_is_rank_prefix(w, temperatures, top_k, top_p):
    p = normalize(w)
    order, m, rows = _prefix_power(p, np.array(temperatures), top_k, top_p)
    positive = int(np.count_nonzero(p.probs))
    assert order.tolist() == rank_descending(p)[: m.max()].tolist()
    assert rows.shape == (len(temperatures), m.max())
    for k, row in zip(m.tolist(), rows):
        assert 1 <= k <= (min(top_k, positive) if top_k else positive)
        assert np.flatnonzero(row).tolist() == list(range(k))  # ranks 0..k-1, tokens order[:k]
        assert abs(row.sum() - 1.0) <= 1e-14


@settings(max_examples=300)
@given(weights, mixed_temperature, top_ks, top_ps)
def test_support_is_one_read_only_rank_prefix(w, temperature, top_k, top_p):
    # retained_support and ssd_target carry the kernel's rank prefix as is
    p = normalize(w)
    cfg = DecodeConfig(temperature=temperature, top_k=top_k, top_p=top_p)
    rs = retained_support(p, cfg)
    n = int(np.count_nonzero(rs.operational.probs))
    assert rs.support.dtype == np.int64
    with pytest.raises(ValueError):
        rs.support[0] = 0
    assert rs.support.tolist() == rank_descending(p)[:n].tolist()
    target = ssd_target(p, cfg)
    assert target.support.tolist() == rs.support.tolist()
    assert isinstance(hash(rs), int) and isinstance(hash(target), int)


# continuous weights, with zeros and subnormals among hypothesis' floats
float_weights = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64).filter(any)


def _full_rank_prefix_power(p, temperatures, top_k, top_p):
    """The kernel as it was when it index-ranked every positive token."""
    order = rank_descending(p)[: np.count_nonzero(p.probs)]
    w = _shifted_exp(np.log(p.probs[order]), temperatures[:, None])
    w /= w.sum(axis=1, keepdims=True)
    m = np.count_nonzero(w, axis=1)
    if top_k:
        m = np.minimum(m, min(top_k, order.size))
    rank = np.arange(order.size)
    w *= rank < m[:, None]
    if top_p < 1.0:
        csum = np.cumsum(w, axis=1)
        m = (csum < (top_p - TOP_P_EPS) * csum[:, -1:]).sum(axis=1) + 1
        w *= rank < m[:, None]
    w /= w.sum(axis=1, keepdims=True)
    operational = np.zeros((temperatures.size, p.alphabet_size))
    operational[:, order] = w
    return order, m, operational


def _assert_bit_equal_to_full_rank(p, temperatures, top_k, top_p):
    order, m, rows = _prefix_power(p, temperatures, top_k, top_p)
    ref_order, ref_m, ref_rows = _full_rank_prefix_power(p, temperatures, top_k, top_p)
    assert order.tobytes() == ref_order[: ref_m.max()].tobytes()
    assert m.tobytes() == ref_m.tobytes()
    assert rows.shape == (temperatures.size, order.size)
    assert _in_alphabet(p, order, rows).tobytes() == ref_rows.tobytes()


@settings(max_examples=500)
@given(
    st.one_of(weights, float_weights),
    st.lists(mixed_temperature, min_size=1, max_size=6),
    top_ks,
    top_ps,
)
def test_bit_equal_to_full_rank_kernel(w, temperatures, top_k, top_p):
    # sorting values and index-ranking only the longest prefix changes no bit
    _assert_bit_equal_to_full_rank(normalize(w), np.array(temperatures), top_k, top_p)


# Seeded uniform weights wide enough that numpy's log runs whole SIMD blocks at
# moderate temperatures, where an ulp of log p moves the rows: a strided sort
# view, whose log rounds differently, fails here.
@settings(max_examples=200)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(256, 4096),
    st.lists(st.floats(-1.0, 1.0).map(lambda e: 10.0**e), min_size=1, max_size=4),
    st.one_of(st.just(0), st.integers(1, 5000)),
    top_ps,
)
def test_bit_equal_to_full_rank_kernel_on_wide_rows(seed, size, temperatures, top_k, top_p):
    p = normalize(np.random.default_rng(seed).random(size))
    _assert_bit_equal_to_full_rank(p, np.array(temperatures), top_k, top_p)


@pytest.mark.parametrize("vocab_size", [32768, 262144])
def test_bit_equal_to_full_rank_kernel_at_vocabulary_scale(vocab_size):
    # a Zipf tail with gamma noise, shuffled, and the softmax of normal logits,
    # each tempered at 0.7 and cut at top-p 0.95
    gen = np.random.default_rng([vocab_size, 12])
    zipf = np.arange(1, vocab_size + 1, dtype=float) ** -0.9
    zipf *= gen.gamma(64.0, 1.0 / 64.0, vocab_size)
    logits = gen.normal(0.0, 1.0, vocab_size)
    for p in (normalize(gen.permutation(zipf)), Categorical(_softmax(logits))):
        _assert_bit_equal_to_full_rank(p, np.array([0.7]), 0, 0.95)


@settings(max_examples=300)
@given(weights, st.floats(1e-3, 1e3), top_ks, top_ps)
def test_matches_literal_pipeline(w, alpha, top_k, top_p):
    p = normalize(w)
    order, m, rows = _prefix_power(p, np.array([1.0 / alpha]), top_k, top_p)
    policy = decode_normal_form(p, DEFAULT_ORDER, alpha, top_k, top_p)
    assert int(m[0]) == policy.prefix_len
    np.testing.assert_allclose(
        _in_alphabet(p, order, rows)[0], policy.dist.probs, rtol=0, atol=1e-14
    )


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
    order, m, rows = _prefix_power(p, np.array(temperatures), top_k, top_p)
    for t, k, row in zip(temperatures, m.tolist(), _in_alphabet(p, order, rows)):
        order1, m1, rows1 = _prefix_power(p, np.array([t]), top_k, top_p)
        assert int(m1[0]) == k
        np.testing.assert_array_equal(_in_alphabet(p, order1, rows1)[0], row, strict=True)


@settings(max_examples=300)
@given(weights, st.floats(1e-2, 1e2), st.floats(1e-2, 1e2))
def test_temper_composes(w, a, b):
    # tempering at a, then at b, is tempering once at a * b
    p = normalize(w)
    np.testing.assert_allclose(
        temper(temper(p, a), b).probs, temper(p, a * b).probs, rtol=0, atol=1e-12
    )

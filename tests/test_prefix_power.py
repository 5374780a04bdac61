"""Property tests for the rank-once prefix-power kernel behind retained_support."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssdlab import DEFAULT_ORDER, decode_normal_form, normalize, rank_descending
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


@settings(derandomize=True, database=None, max_examples=300)
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


@settings(derandomize=True, database=None, max_examples=300)
@given(weights, st.floats(1e-3, 1e3), top_ks, top_ps)
def test_matches_literal_pipeline(w, alpha, top_k, top_p):
    p = normalize(w)
    order, m, rows = _prefix_power(p, np.array([1.0 / alpha]), top_k, top_p)
    policy = decode_normal_form(p, DEFAULT_ORDER, alpha, top_k, top_p)
    assert int(m[0]) == policy.prefix_len
    np.testing.assert_allclose(rows[0], policy.dist.probs, rtol=0, atol=1e-14)

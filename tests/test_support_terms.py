"""The support-index loss kernel against the literal operator composition."""

import numpy as np
import pytest

from ssdlab import (
    Categorical,
    DecodeConfig,
    InvalidEntryError,
    OutOfRangeError,
    SupportViolationError,
    ZeroMassSupportError,
    cross_entropy,
    entropy,
    gate_conditional_split,
    kept_mass,
    kl_divergence,
    normalize,
    restrict,
    ssd_target,
    temper,
    three_term_decomposition,
)
from ssdlab.categorical import _softmax
from ssdlab.objective import _conditional, _decomposition_rows, _support_row, _support_terms

TOL = dict(rel=1e-12, abs=1e-12)


def literal_terms(target, p_theta):
    """gate, reshape, align, const, conditional CE and p(.|S), one operator at a time."""
    T = target.train_temperature
    restricted = restrict(p_theta, target.support)
    tempered = temper(restricted, T)
    # log tempered(v) = log restricted(v) / T - log Z at any v the escort keeps,
    # so the free energy -T log Z reads off the restricted mode
    mode = int(np.argmax(restricted.probs))
    reshape = T * np.log(tempered.probs[mode]) - np.log(restricted.probs[mode])
    return (
        -np.log(kept_mass(p_theta, target.support)),
        reshape,
        T * kl_divergence(target.q, tempered),
        T * entropy(target.q),
        cross_entropy(target.q, restricted),
        restricted,
    )


def assert_matches_literal(target, p_theta):
    gate, reshape, align, const, cond_ce, restricted = literal_terms(target, p_theta)
    bd = three_term_decomposition(target, p_theta)
    split_gate, split_cond = gate_conditional_split(target, p_theta)
    assert bd.gate == split_gate
    assert bd.gate == pytest.approx(gate, **TOL)
    assert bd.reshape == pytest.approx(reshape, **TOL)
    assert bd.align == pytest.approx(align, **TOL)
    assert bd.const == pytest.approx(const, **TOL)
    assert bd.total == pytest.approx(gate + reshape + align + const, **TOL)
    assert split_cond == pytest.approx(cond_ce, **TOL)
    *_, tv, km = _support_terms(target, _support_row(target, p_theta.probs))[:, 0]
    _, (conditional_km,), (cond,) = _conditional(_support_row(target, p_theta.probs))
    members = list(target.support)
    assert km == conditional_km == kept_mass(p_theta, target.support)
    np.testing.assert_allclose(cond, restricted.probs[members], rtol=1e-12, atol=1e-15)
    literal_tv = 0.5 * np.abs(restricted.probs - target.q.probs).sum()
    assert tv == pytest.approx(literal_tv, **TOL)
    return bd


def gamma_weights(gen, size):
    """gamma(0.3) weights with exact zeros and a few tied entries."""
    w = gen.gamma(0.3, size=size)
    w[gen.random(size) < 0.1] = 0.0
    ties = gen.integers(size, size=max(2, size // 50))
    w[ties] = w[ties[0]]
    w[0] += 1e-3  # never all zero
    return w


@pytest.mark.parametrize("size", [3, 5, 16, 257, 4096, 32_768])
def test_random_contexts_match_literal(size):
    gen = np.random.default_rng([size, 7])
    for _ in range(3 if size > 4096 else 12):
        p0 = normalize(gamma_weights(gen, size))
        cfg = DecodeConfig(
            temperature=float(gen.uniform(0.4, 2.5)),
            top_k=int(gen.integers(0, size + 1)) if gen.random() < 0.3 else 0,
            top_p=float(gen.uniform(0.3, 1.0)) if gen.random() < 0.8 else 1.0,
        )
        target = ssd_target(p0, cfg)
        # the student may vanish off the support but not on it
        w = gamma_weights(gen, size)
        w[list(target.support)] += 1e-3
        assert_matches_literal(target, normalize(w))
        assert_matches_literal(target, Categorical(_softmax(gen.normal(size=size))))


def test_unit_temperature_reshape_is_exact_zero():
    gen = np.random.default_rng(11)
    p0 = normalize(gamma_weights(gen, 64))
    target = ssd_target(p0, DecodeConfig(temperature=1.0, top_p=0.9))
    bd = assert_matches_literal(target, normalize(gen.gamma(0.3, size=64) + 1e-3))
    assert bd.reshape == 0.0


def test_cold_limit_tied_maximum():
    p0 = normalize([0.4, 0.4, 0.15, 0.05])
    target = ssd_target(p0, DecodeConfig(temperature=1e-310))
    bd = assert_matches_literal(target, p0)
    assert bd.reshape == pytest.approx(np.log(2.0), abs=1e-15)


def test_single_survivor():
    gen = np.random.default_rng(13)
    p0 = normalize(gamma_weights(gen, 100))
    target = ssd_target(p0, DecodeConfig(temperature=0.7, top_k=1))
    assert len(target.support) == 1
    bd = assert_matches_literal(target, normalize(gen.gamma(0.3, size=100) + 1e-3))
    assert bd.align == 0.0 and bd.const == 0.0


def test_student_at_source_has_no_alignment_cost():
    gen = np.random.default_rng(17)
    for size in (3, 40, 2000):
        p0 = normalize(gamma_weights(gen, size))
        target = ssd_target(p0, DecodeConfig(temperature=0.8, top_p=0.9))
        bd = assert_matches_literal(target, p0)
        assert abs(bd.align) <= 1e-15


def test_student_vanishing_on_support_rejected_everywhere():
    p0 = normalize([0.4, 0.3, 0.2, 0.1])
    target = ssd_target(p0, DecodeConfig(temperature=0.8, top_p=0.8))
    broken = np.array([0.5, 0.0, 0.25, 0.25])
    with pytest.raises(ZeroMassSupportError):
        three_term_decomposition(target, Categorical(broken))
    with pytest.raises(ZeroMassSupportError):
        gate_conditional_split(target, Categorical(broken))
    with pytest.raises(ZeroMassSupportError):
        _decomposition_rows(target, _support_row(target, broken), [0])


def test_escort_underflow_and_alphabet_mismatch_rejected():
    # at T = 1e-310 the retempered student keeps only its own mode, while the
    # target splits over the teacher's tied maxima
    p0 = normalize([0.4, 0.4, 0.2])
    target = ssd_target(p0, DecodeConfig(temperature=1e-310))
    student = normalize([0.5, 0.3, 0.2])
    with pytest.raises(SupportViolationError):
        kl_divergence(target.q, temper(restrict(student, target.support), 1e-310))
    with pytest.raises(SupportViolationError):
        three_term_decomposition(target, student)
    with pytest.raises(InvalidEntryError):
        three_term_decomposition(target, normalize([0.5, 0.3, 0.1, 0.1]))


@pytest.mark.parametrize("size, temperature, top_p", [(3, 1.0, 0.8), (16, 0.9, 0.85),
                                                      (257, 1.7, 1.0), (4096, 0.9, 0.85),
                                                      (100, 0.7, 1e-9)])
def test_block_rows_have_the_bits_of_one_row_blocks(size, temperature, top_p):
    gen = np.random.default_rng([size, 31])
    target = ssd_target(normalize(gamma_weights(gen, size)),
                        DecodeConfig(temperature=temperature, top_p=top_p))
    rows = 37 if size < 4096 else 5
    # raw softmax rows, whose sums are within rounding of 1, each divided by its sum
    p = np.stack([_softmax(gen.normal(size=size)) for _ in range(rows)])
    ps = p[:, target.support] / np.add.reduce(p, axis=1)[:, None]
    block = _support_terms(target, ps.copy())
    one = np.hstack([_support_terms(target, ps[k:k + 1].copy()) for k in range(rows)])
    assert block.shape == (7, rows)
    assert block.tobytes() == one.tobytes()


@pytest.mark.parametrize("zero_row, cold_row, error", [
    (3, 5, ZeroMassSupportError), (4, 2, SupportViolationError), (None, 1, SupportViolationError),
])
def test_block_raises_the_first_rows_error(zero_row, cold_row, error):
    # at T = 1e-3 a row whose p(v|S) ratio is 1e-2 tempers to 1e-2000, which underflows
    target = ssd_target(normalize([0.5, 0.3, 0.2]), DecodeConfig(temperature=1e-3, top_k=2))
    ps = np.tile([0.5, 0.45], (6, 1))
    ps[cold_row] = [0.5, 0.005]
    if zero_row is not None:
        ps[zero_row] = [0.5, 0.0]
    with pytest.raises(error):
        _support_terms(target, ps)


@pytest.mark.parametrize("zero_row, error", [(0, ZeroMassSupportError), (2, OutOfRangeError),
                                             (None, OutOfRangeError)])
def test_infinite_temperature_is_row_zeros_error_unless_it_vanishes(zero_row, error):
    target = ssd_target(normalize([0.5, 0.3, 0.2]), DecodeConfig(temperature=np.inf))
    ps = np.tile([0.5, 0.3, 0.2], (4, 1))
    if zero_row is not None:
        ps[zero_row, 1] = 0.0
    with pytest.raises(error):
        _support_terms(target, ps)

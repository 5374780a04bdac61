"""Decoding operator algebra: temperature, top-k, top-p, sampling, normal form.

The standard pipeline is temper -> top-k -> top-p -> sample. Ties are
broken by lowest token index everywhere, cumulative-mass thresholds are
tested with a 1e-12 absolute epsilon, and all sampling goes through
explicit counter-based streams so every experiment replays bit-identically.

_prefix_power is the one kernel for the standard stack: for a column of
temperatures it sorts p's values once and, in one masked pass, gives each
row p^(1/T) on a rank prefix, cut by top-k, then top-p. Only the longest
prefix is then ranked by token index, lowest index on ties. The sorted
values are contiguous, since numpy's SIMD log can round a strided view
differently. Each row is computed alone at the full positive width, so it
does not depend on the other rows. The rows stay in rank space, one column
per token of the longest prefix: callers read them by rank, and only
retained_support, for its Categorical, writes its one row into the alphabet.
retained_support is its one-temperature case and DecodeConfig has no order
field; temper, top_k_set, top_p_set and decode_normal_form run the
operators literally, in any order, and are its reference. Tempering shifts
by log p_max before dividing by T: T -> 0 gives the argmax (tied maxima
share the mass) and a huge T never lets top-k reorder tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .categorical import (
    Categorical,
    _shifted_exp,
    _read_only,
    _softmax,
    as_index_array,
    restrict,
)
from .errors import (
    InvalidOrderError,
    NonPositiveTemperatureError,
    NormalFormViolationError,
    OutOfRangeError,
    ZeroMassSupportError,
)

__all__ = [
    "DEFAULT_ORDER", "DecodeConfig", "GREEDY_THRESHOLD", "OP_TEMPER", "OP_TOP_K",
    "OP_TOP_P", "PrefixPolicy", "RetainedSupport", "argmax_token", "decode_normal_form",
    "greedy_guard", "gumbel_max_sample", "make_stream", "power_rigidity_check",
    "rank_descending", "retained_support", "temper", "top_k_set", "top_p_set",
]

OP_TEMPER = "temper"
OP_TOP_K = "top_k"
OP_TOP_P = "top_p"
DEFAULT_ORDER = (OP_TEMPER, OP_TOP_K, OP_TOP_P)

# Temperatures below this trigger greedy (argmax) decoding.
GREEDY_THRESHOLD = 1e-5

# Absolute epsilon for cumulative-mass threshold tests.
TOP_P_EPS = 1e-12

# Byte budget of _prefix_power's temporaries for a chunk of batched temperature
# rows, which are taken in row chunks of this size (_block_rows). Each chunk
# sorts p again, so chunks are large: every V=16 grid is one block.
BLOCK_BYTES = 64 << 20

# Byte budget of one (rows, V) chunk of sampler uniforms, about half a 2 MiB L2.
# The bit generator writes a chunk once and the column gather reads it once, so
# it is sized to stay in cache: a V=16 MC_BATCH of 32 768 rows is four chunks.
SAMPLE_BLOCK_BYTES = 1 << 20


def _check_count(name: str, value, minimum: int) -> None:
    """Refuse a non-integer count (numpy integers pass, bools do not) or one below minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise OutOfRangeError(f"{name} must be >= {minimum}, got {value!r}")


def _check_order(order) -> tuple[str, str, str]:
    order = tuple(order)
    if sorted(order) != sorted(DEFAULT_ORDER):
        raise InvalidOrderError(
            f"order must be a permutation of {DEFAULT_ORDER}, got {order!r}"
        )
    return order


@dataclass(frozen=True)
class DecodeConfig:
    """Decode-time knobs: temperature, top-k (0 disables), top-p (1 disables)."""

    temperature: float = 1.0
    top_k: int = 0
    top_p: float = 1.0

    def __post_init__(self) -> None:
        if not self.temperature > 0:
            raise NonPositiveTemperatureError(
                f"temperature must be positive, got {self.temperature!r}"
            )
        _check_count("top_k", self.top_k, 0)
        if not 0.0 < self.top_p <= 1.0:
            raise OutOfRangeError(f"top_p must lie in (0, 1], got {self.top_p!r}")


@dataclass(frozen=True, eq=False)
class RetainedSupport:
    """Survivors of the truncation pipeline at one context.

    support is a read-only int64 array of token indices in descending-
    probability rank order, lowest index first on ties; kept_mass is the
    base-model mass of the support; operational is the tempered,
    truncated, renormalized distribution on the full alphabet.
    """

    support: np.ndarray
    kept_mass: float
    operational: Categorical


@dataclass(frozen=True)
class PrefixPolicy:
    """A power transform p^exponent supported on a rank prefix of length prefix_len."""

    prefix_len: int
    exponent: float
    dist: Categorical


def rank_descending(p: Categorical) -> np.ndarray:
    """Token indices sorted by descending probability, ties by lowest index."""
    return np.argsort(-p.probs, kind="stable")


def argmax_token(p: Categorical) -> int:
    """Highest-probability token, lowest index on ties."""
    return int(np.argmax(p.probs))


def greedy_guard(temperature: float) -> bool:
    """True when the pipeline must bypass sampling and return the argmax."""
    if not temperature >= 0:
        raise OutOfRangeError(f"temperature must be >= 0, got {temperature!r}")
    return temperature < GREEDY_THRESHOLD


def temper(p: Categorical, temperature: float, members=None) -> Categorical:
    """Power-transform p proportional to p^(1/T), optionally restricted to a set.

    Computed in log space so extreme temperatures neither overflow nor
    lose the ranking; zero entries stay exactly zero.
    """
    if not temperature > 0:
        raise NonPositiveTemperatureError(
            f"temperature must be positive, got {temperature!r}"
        )
    mask = p.probs > 0
    if members is not None:
        idx = as_index_array(members, p.alphabet_size)
        keep = np.zeros(p.alphabet_size, dtype=bool)
        keep[idx] = True
        mask &= keep
    if not mask.any():
        raise ZeroMassSupportError("no positive-probability tokens inside the set")
    out = np.zeros(p.alphabet_size)
    out[mask] = _softmax(np.log(p.probs[mask]), temperature)
    return Categorical(out)


def top_k_set(p: Categorical, k: int) -> np.ndarray:
    """The k highest-probability indices; k = 0 or k >= V keeps all positive tokens.

    Returned as a read-only int64 array in descending rank order.
    """
    _check_count("top_k", k, 0)
    if k == 0 or k >= p.alphabet_size:
        k = np.count_nonzero(p.probs)  # zeros rank last
    return _read_only(rank_descending(p)[:k])


def top_p_set(p: Categorical, threshold: float) -> np.ndarray:
    """Smallest descending-rank prefix whose cumulative mass reaches the threshold.

    Never empty; threshold 1 keeps the full positive support. Returned as a
    read-only int64 array in descending rank order.
    """
    if not 0.0 < threshold <= 1.0:
        raise OutOfRangeError(f"top_p threshold must lie in (0, 1], got {threshold!r}")
    order = rank_descending(p)[: np.count_nonzero(p.probs)]  # zeros rank last
    if threshold == 1.0:
        return _read_only(order)
    csum = np.cumsum(p.probs[order])
    m = int(np.searchsorted(csum, threshold - TOP_P_EPS)) + 1
    return _read_only(order[:m])


def _block_rows(width: int) -> int:
    """Temperature rows whose _prefix_power temporaries fit in BLOCK_BYTES, at
    least 1, for a p with width positive tokens. At most three (rows, width)
    arrays are alive at once: the float64 rows w and their cumsum, and a
    comparison mask, 17 bytes an entry in all."""
    return max(1, BLOCK_BYTES // (17 * width))


def _prefix_power(
    p: Categorical, temperatures: np.ndarray, top_k: int, top_p: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The standard pipeline at each temperature of a column, in one sort-once pass.

    Returns order, the tokens of the longest row prefix in rank order
    (lowest index on ties), each row's prefix length m (positive count, then
    top_k, then the top-p cut) and the (n_T, order.size) rows in rank space:
    column j is token order[j], and row i is p^(1/T) normalized over its
    first m[i] columns and 0 past them. Every row is computed from p's
    sorted positive values alone at the full positive width, so row i is
    the evaluation at temperatures[i] alone, bit for bit. Only the longest
    prefix is ranked by index. The sorted values must be contiguous: numpy's
    SIMD log can differ by an ulp on a strided view.
    """
    if not (temperatures > 0).all():  # not np.all, whose wrapper costs 1.4 us a call
        raise NonPositiveTemperatureError("temperatures must be positive")
    if not 0.0 < top_p <= 1.0:
        raise OutOfRangeError(f"top_p must lie in (0, 1], got {top_p!r}")
    ranked = -np.sort(-p.probs)[: np.count_nonzero(p.probs)]  # contiguous, zeros last
    w = _shifted_exp(np.log(ranked), temperatures[:, None])
    w /= w.sum(axis=1, keepdims=True)
    m = np.count_nonzero(w, axis=1)  # w falls with rank
    if top_k:
        m = np.minimum(m, min(top_k, ranked.size))  # top_k may not fit in an int64
    rank = np.arange(ranked.size)
    w *= rank < m[:, None]  # zero each row past its prefix, in place
    if top_p < 1.0:
        csum = np.cumsum(w, axis=1)  # flat from rank m - 1 on, so the cut is < m
        m = (csum < (top_p - TOP_P_EPS) * csum[:, -1:]).sum(axis=1) + 1
        w *= rank < m[:, None]
    w /= w.sum(axis=1, keepdims=True)
    n = int(m.max())
    head = np.flatnonzero(p.probs >= ranked[n - 1])  # ascending, so ties keep index order
    order = head[np.argsort(-p.probs[head], kind="stable")[:n]]
    return order, m, w[:, :n]


def retained_support(p0: Categorical, cfg: DecodeConfig) -> RetainedSupport:
    """Run the standard pipeline on p0 and report survivors.

    kept_mass is measured against the raw base distribution; the
    operational distribution is the tempered restriction to the survivors.
    """
    t = np.array([cfg.temperature])
    order, m, w = _prefix_power(p0, t, cfg.top_k, cfg.top_p)
    members = _read_only(order[: m[0]])
    operational = np.zeros(p0.alphabet_size)
    operational[members] = w[0]
    return RetainedSupport(
        support=members,
        kept_mass=float(p0.probs[members].sum()),
        operational=Categorical(operational),
    )


def make_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent, replayable random stream (counter-based Philox); seed is an
    integer >= 0."""
    _check_count("seed", seed, 0)
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,)))
    )


def _philox(rng) -> np.random.Philox | None:
    """rng's bit generator if it is Philox, else None, also for a stand-in
    with no bit generator. Only on Philox do the samplers skip by its counter
    or read its raw 64-bit words w, whose uniform is (w >> 11) * 2**-53."""
    bitgen = getattr(rng, "bit_generator", None)
    return bitgen if isinstance(bitgen, np.random.Philox) else None


def _skip_uniforms(rng: np.random.Generator, n: int) -> bool:
    """Move a Philox rng past n uniforms as if rng.random(n) had drawn them.

    Philox is counter-based: after the values left in its four-word buffer
    are drawn, advance steps the counter past whole buffers without
    computing them, and the tail is drawn. advance drops a pending 32-bit
    half, so a stream holding one, like any other bit generator, is left
    untouched. Returns whether the stream was moved.
    """
    bitgen = _philox(rng)
    state = None if bitgen is None else bitgen.state
    if state is None or state["has_uint32"]:
        return False
    buffered = min(4 - state["buffer_pos"], n)
    rng.random(buffered)
    rest = n - buffered
    if rest >= 4:
        bitgen.advance(rest // 4)
    rng.random(rest % 4)
    return True


def _kept_complements(bitgen: np.random.Philox, rows: int, width: int, cols) -> np.ndarray:
    """1.0 - rng.random((rows, width))[:, cols] for rng on bitgen, bit for bit,
    converting only the kept columns' words to doubles.

    For a word w, 1 - U is the integer 2**53 - (w >> 11) times 2**-53; that
    integer is at most 2**53, so its int64 view converts exactly. The doubles
    are written over the raw block, which the gather no longer needs, so no
    array is made beyond the gathered words. They are column-major, as the
    gather's are, so a pass over them runs down the rows.
    """
    raw = bitgen.random_raw((rows, width))
    w = raw[:, cols]
    np.right_shift(w, 11, out=w)
    np.subtract(1 << 53, w, out=w)  # in [1, 2**53]
    u = raw.reshape(-1)[:w.size].view(np.float64).reshape(w.shape, order="F")
    np.multiply(w.view(np.int64), 2.0**-53, out=u)
    return u


def gumbel_max_sample(operational: Categorical, rng: np.random.Generator, size: int):
    """Draw size tokens by dividing probabilities by Exp(1) noise and taking the argmax.

    The marginal law equals the operational distribution. Noise is
    -log(1 - U) with U = rng.random() in [0, 1), so it is never infinite,
    and a zero noise gives a score of +inf, which wins. Returns an int64
    array. Every call moves the stream past one uniform per token and draw,
    so streams replay. The uniforms are drawn in row chunks that fit in
    SAMPLE_BLOCK_BYTES, a cache-sized budget of its own, which draws the
    same stream as one block. Noise is made on the retained
    (positive-probability) columns only: a Philox stream's chunk is drawn as
    raw words, and only the retained columns' words become doubles; any
    other stream's chunk is drawn as doubles. A policy with one retained
    token moves a Philox stream past its block without drawing it, so every
    later draw is unchanged; any other stream draws that block through the
    row loop.
    """
    _check_count("size", size, 0)
    p = operational.probs
    cols = np.flatnonzero(p)
    if cols.size == 1 and _skip_uniforms(rng, size * p.size):
        return np.full(size, cols[0], dtype=np.int64)
    bitgen = _philox(rng)
    tokens = np.empty(size, dtype=np.int64)
    step = max(1, SAMPLE_BLOCK_BYTES // (8 * p.size))
    for start in range(0, size, step):
        rows = min(step, size - start)
        if bitgen is None:
            u = rng.random((rows, p.size))[:, cols]  # the one copy, transformed in place
            np.subtract(1.0, u, out=u)  # in (0, 1]
        else:
            u = _kept_complements(bitgen, rows, p.size, cols)
        np.log(u, out=u)
        np.subtract(0.0, u, out=u)  # 0.0 - log(1) is +0.0, where -log(1) is -0.0
        with np.errstate(divide="ignore"):
            np.divide(p[cols], u, out=u)
        tokens[start:start + step] = cols[np.argmax(u, axis=1)]
        del u  # u may live in its raw chunk: free that before the next one is drawn
    return tokens


def _run_pipeline(p: Categorical, order, alpha: float, k: int, top_p: float) -> Categorical:
    current = p
    for op in order:
        if op == OP_TEMPER:
            current = temper(current, 1.0 / alpha)
        elif op == OP_TOP_K:
            current = restrict(current, top_k_set(current, k))
        else:
            current = restrict(current, top_p_set(current, top_p))
    return current


def decode_normal_form(
    p: Categorical, order, alpha: float, k: int, top_p: float
) -> PrefixPolicy:
    """Execute temper/top-k/top-p in any order and return the prefix-power form.

    alpha is the power exponent (temperature 1/alpha). The result is
    checked to be p^alpha on a contiguous prefix of p's descending
    ranking; any deviation beyond 1e-10 is an implementation bug.
    """
    order = _check_order(order)
    if not 0 < alpha < np.inf:  # 1 / inf would reach temper as temperature 0
        raise OutOfRangeError(f"exponent must be finite and positive, got {alpha!r}")
    _check_count("top_k", k, 0)
    if not 0.0 < top_p <= 1.0:
        raise OutOfRangeError(f"top_p must lie in (0, 1], got {top_p!r}")
    final = _run_pipeline(p, order, alpha, k, top_p)
    survivors = np.flatnonzero(final.probs)
    m = int(survivors.size)
    prefix = np.sort(rank_descending(p)[:m])
    if not np.array_equal(prefix, survivors):
        raise NormalFormViolationError(
            f"pipeline support {survivors.tolist()} is not the "
            f"rank prefix {prefix.tolist()}"
        )
    policy = PrefixPolicy(prefix_len=m, exponent=float(alpha), dist=final)
    deviation = power_rigidity_check(policy, p)
    if deviation > 1e-10:
        raise NormalFormViolationError(
            f"log-odds deviate from the global power law by {deviation!r}"
        )
    return policy


def power_rigidity_check(policy: PrefixPolicy, base: Categorical) -> float:
    """Max over surviving pairs of |log-odds(policy) - exponent * log-odds(base)|.

    Equals the spread of log(dist) - exponent * log(base) over the
    survivors, so it is computed in O(prefix_len). Survivors whose mass is
    subnormal are left out: their rounding error is absolute, up to 2**-1075,
    so their log can be off by far more than the ulps of a normal mass. The
    top survivor holds at least 1/V, so one is always left.
    """
    survivors = np.flatnonzero(policy.dist.probs >= np.finfo(float).tiny)
    residual = np.log(policy.dist.probs[survivors]) - policy.exponent * np.log(
        base.probs[survivors]
    )
    return float(residual.max() - residual.min())

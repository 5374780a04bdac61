"""Self-distillation targets, loss decompositions, gradients, and a local student.

The target at one context is the tempered base distribution restricted
to the retained support. Fitting it with cross-entropy splits exactly
into a support gate plus a conditional term, and further into
gate + reshape + align + const; both identities are used as invariants
rather than approximations, so every term is computed by branching on
the exact support. train-student's report, the local student's logged
steps scored in blocks, is built here too.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .categorical import (
    Categorical,
    _event_array,
    _read_only,
    _softmax,
    as_index_array,
    restrict,
)
from .decode import (
    DecodeConfig,
    _check_count,
    _check_finite_positive,
    _check_positive,
    make_stream,
    retained_support,
    temper,
)
from .errors import (
    CompositionViolationError,
    DivergenceError,
    InvalidEntryError,
    OutOfRangeError,
    SsdLabError,
    SupportViolationError,
    ZeroMassEventError,
    ZeroMassSupportError,
)

__all__ = [
    "LocalGain", "LossBreakdown", "SsdTarget", "Trajectory", "gate_conditional_split",
    "ideal_fit_eval", "kept_mass", "local_gain", "loss_gradient_logits",
    "self_training_fixed_point_check", "ssd_target", "three_term_decomposition",
    "train_local_student",
]

# Logit floor standing in for -infinity at zero-probability tokens.
LOGIT_FLOOR = -50.0

# Consecutive loss increases tolerated before training aborts.
DIVERGENCE_WINDOW = 100

# The training loop checks its stopping rules once per block of steps. Block rows
# double from 1 up to STEP_BLOCK_ROWS, and a block's (rows, V) logits and softmax
# take at most STEP_BLOCK_BYTES, or one row each past V = 32 768, so its memory is
# bounded by V, not by max_steps.
STEP_BLOCK_ROWS = 64
STEP_BLOCK_BYTES = 1 << 19

# train-student scores its logged steps in blocks of support rows of at most
# _ROW_BLOCK_BYTES, or one row; scoring a block takes one more array of its size.
# A block holds at most _ROW_DELAY_STEPS // every rows, so a full one lies within
# _ROW_DELAY_STEPS steps of its first row: a row that cannot be scored stops the run soon.
_ROW_BLOCK_BYTES = 1 << 17
_ROW_DELAY_STEPS = 1 << 12


@dataclass(frozen=True, eq=False)
class SsdTarget:
    """The distillation target at one context: q proportional to source^(1/T) on support.

    support is retained_support's read-only int64 array, in rank order.
    """

    support: np.ndarray
    q: Categorical
    train_temperature: float
    source: Categorical


@dataclass(frozen=True)
class LossBreakdown:
    """Cross-entropy to the target split into gate + reshape + align + const."""

    gate: float
    reshape: float
    align: float
    const: float
    total: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A local student's run: read-only float64 columns, one row per step from 0.

    logits are the last step's read-only logits; stop_reason is "converged"
    or "step_cap".
    """

    loss: np.ndarray
    on_support_tv: np.ndarray
    off_support_mass: np.ndarray
    logits: np.ndarray
    stop_reason: str


@dataclass(frozen=True)
class LocalGain:
    """Factorization of the ideal student's event probability at eval temperature tau."""

    support_gain: float
    reshape_gain: float
    base_prob: float
    student_prob: float


def ssd_target(p0: Categorical, cfg: DecodeConfig) -> SsdTarget:
    """Build the target induced by running the training-time pipeline on p0."""
    rs = retained_support(p0, cfg)
    return SsdTarget(
        support=rs.support,
        q=rs.operational,
        train_temperature=cfg.temperature,
        source=p0,
    )


def kept_mass(p_theta: Categorical, members) -> float:
    """Probability mass p_theta assigns to an index set."""
    idx = as_index_array(members, p_theta.alphabet_size)
    return float(p_theta.probs[idx].sum())


def _support_row(target: SsdTarget, p: np.ndarray):
    """p at target.support, the order kept_mass sums in, as a one-row block and its unit sum."""
    if p.size != target.q.alphabet_size:
        raise InvalidEntryError("alphabet sizes differ")
    return p[target.support][None], np.ones(1)


def _conditional(ps: np.ndarray, sums: np.ndarray):
    """p(v|S) of the rows of ps / sums, in place, O(|S|) a row: the count of rows before
    the first with a zero on the support, and their kept masses and p(v|S)."""
    whole = np.all(np.divide(ps, sums[:, None], out=ps), axis=1)  # q > 0 all over the support
    good = len(whole) if whole.all() else int(whole.argmin())
    km = np.add.reduce(ps[:good], axis=1)
    cond = np.divide(ps[:good], km[:, None], out=ps[:good])
    cond /= np.add.reduce(cond, axis=1, keepdims=True)  # unit sum, as in restrict
    return good, km, cond


def _support_terms(target: SsdTarget, ps: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Gate, reshape, align, const, total, on-support TV and kept mass of ps / sums: (7, rows).

    ps is a C-contiguous (rows, |S|) block of raw probabilities at target.support in
    rank order, overwritten here, and sums their rows' full sums. log q and const are
    taken once and every other term as a row reduction, so each row gets the bits a
    block of it alone would. Raises the error of the first row that has one.
    """
    T = target.train_temperature
    good, km, cond = _conditional(ps, sums)
    if good and T == np.inf:  # reshape tends to -inf and const to +inf: their sum has no value
        raise OutOfRangeError(f"the loss decomposition needs a finite train temperature, got {T!r}")
    q = target.q.probs[target.support]
    log_q = np.log(q)
    w = cond - q  # the one (rows, |S|) temporary
    tv = 0.5 * np.add.reduce(np.abs(w, out=w), axis=1)
    log_cond = np.log(cond, out=cond)
    top = np.maximum.reduce(log_cond, axis=1, keepdims=True)
    with np.errstate(over="ignore"):  # exact at T = 1; -inf near T = 0 leaves only the maxima
        np.divide(np.subtract(log_cond, top, out=w), T, out=w)
    norm = np.add.reduce(np.exp(w, out=w), axis=1, keepdims=True)
    tempered = np.divide(w, norm, out=w)
    if not np.all(tempered):
        raise SupportViolationError("tempered student vanishes on a target-support token")
    if good < len(ps):
        raise ZeroMassSupportError("student vanishes on a target-support token")
    gate = -np.log(km)
    # -T log sum (p(v|S))^(1/T), shifted by the largest log p(v|S) as tempered is
    reshape = np.zeros(good) if T == 1.0 else -(top[:, 0] + T * np.log(norm[:, 0]))
    log_t = np.subtract(log_q, np.log(tempered, out=tempered), out=tempered)
    align = T * np.add.reduce(np.multiply(q, log_t, out=log_t), axis=1)
    const = np.full(good, T * -np.add.reduce(q * log_q, axis=None))
    return np.array([gate, reshape, align, const, gate + reshape + align + const, tv, km])


def _decomposition_rows(target: SsdTarget, ps: np.ndarray, sums: np.ndarray, steps):
    """Report rows of a block of support probabilities over their sums, one per step."""
    gate, reshape, align, _, total, tv, km = _support_terms(target, ps, sums).tolist()
    return zip(steps, total, gate, reshape, align, tv, [1.0 - k for k in km])


def gate_conditional_split(target: SsdTarget, p_theta: Categorical) -> tuple[float, float]:
    """Split cross_entropy(q, p_theta) into -log KeptMass plus the conditional CE, in O(|S|)."""
    good, km, cond = _conditional(*_support_row(target, p_theta.probs))
    if not good:
        raise ZeroMassSupportError("student vanishes on a target-support token")
    q = target.q.probs[target.support]
    return float(-np.log(km[0])), float(-(q * np.log(cond[0])).sum())


def three_term_decomposition(target: SsdTarget, p_theta: Categorical) -> LossBreakdown:
    """Split cross_entropy(q, p_theta) into gate + reshape + align + const.

    The reshape term uses the free-energy form -T log sum(restricted^(1/T))
    and is exactly 0 at T = 1 by the continuous extension. All four terms
    are computed on the support index, in O(|S|). An infinite train
    temperature is refused with OutOfRangeError: reshape and const diverge.
    """
    terms = _support_terms(target, *_support_row(target, p_theta.probs))
    return LossBreakdown(*terms[:5, 0].tolist())


def loss_gradient_logits(target: SsdTarget, logits) -> np.ndarray:
    """Gradient of cross_entropy(q, softmax(logits)) in logit coordinates.

    On the support: -(1 - KeptMass) * p(v|S) + (p(v|S) - q(v)); off the
    support: +p(v). Entries sum to 0 (softmax gauge).
    """
    z = np.asarray(logits, dtype=float)
    if z.ndim != 1 or z.size != target.q.alphabet_size:
        raise InvalidEntryError("logit vector shape does not match the target alphabet")
    if not np.all(np.isfinite(z)):
        raise InvalidEntryError("logits must be finite")
    with np.errstate(over="ignore"):  # a span past DBL_MAX shifts to -inf, weight 0
        p = _softmax(z)
    # the support, ascending, not rank order: the summing order is part of the output bits
    idx = np.flatnonzero(target.q.probs)
    p_s = p[idx]
    km = float(p_s.sum())
    if km == 0:  # p_s / km would be 0 / 0
        raise ZeroMassSupportError("student vanishes on a target-support token")
    cond = p_s / km
    p[idx] = cond * -(1.0 - km) + (cond - target.q.probs[idx])  # p as it is off the support
    return p


def self_training_fixed_point_check(
    p: Categorical, n_trials: int = 100, seed: int = 0
) -> float:
    """Max-norm of the expected self-training gradient, in O(V) per trial.

    With T = 1 and no truncation the target is the model itself, so the
    expected score-function gradient sum_i s_i (s - e_i) = s * sum(s) - s
    telescopes to zero; each trial re-evaluates it under a fresh random
    gauge shift of the logits. The returned worst-case norm should be at
    machine-zero scale.
    """
    _check_count("n_trials", n_trials, 1)
    rng = make_stream(seed)
    base = np.where(p.probs > 0, np.log(np.maximum(p.probs, 1e-300)), LOGIT_FLOOR)
    worst = 0.0
    for _ in range(n_trials):
        z = base + 3.0 * rng.standard_normal()
        s = _softmax(z)
        expected = s * s.sum() - s
        worst = max(worst, float(np.abs(expected).max()))
    return worst


def _student_steps(
    target: SsdTarget, learning_rate: float, max_steps: int, tv_tolerance: float
) -> Iterator[tuple[str | None, np.ndarray, np.ndarray, float, float, float]]:
    """Yield (stop_reason, logits, softmax, loss, on_support_tv, off_support_mass) per step.

    Starts from target.source at step 0; stop_reason is None until the last step.
    Steps run in blocks. A step is some sixteen numpy calls into reused buffers, its
    logits and softmax rows of (rows, V) ones; the block's stopping rules are then
    checked at once as row reductions and its steps yielded in order, dropping any
    past the first stop. The yielded logits and softmax are read-only views, valid
    until the generator is resumed after their block's last step; the last step's
    stay valid for good.
    """
    _check_finite_positive("learning_rate", learning_rate)
    _check_count("max_steps", max_steps, 0)
    _check_positive("tv_tolerance", tv_tolerance)
    # the support, ascending, not rank order: the summing order is part of the output bits
    idx = np.flatnonzero(target.q.probs)
    qv = target.q.probs[idx]
    p0 = target.source.probs
    cap = max(1, min(STEP_BLOCK_ROWS, STEP_BLOCK_BYTES // (16 * p0.size), max_steps + 1))
    Z, P = np.empty((2, cap, p0.size))
    PS, D = np.empty((2, cap, idx.size))  # each row's p on the support and p(v|S) - q
    KM = np.empty(cap)  # each row's kept mass
    Z[0] = np.where(p0 > 0, np.log(np.maximum(p0, 1e-300)), LOGIT_FLOOR)
    rows = list(zip(Z, P, PS, D, (KM[k, ...] for k in range(cap))))  # KM[k, ...] is 0-d
    views = list(zip(*(_read_only(a.view()) for a in (Z, P))))
    cond, g = np.empty(idx.size), np.empty(p0.size)
    # 0-d operands, which ufuncs take without converting a Python float on each call;
    # every ufunc below takes its out array positionally, the cheaper way to pass it
    rate, one, top, total, shrink = map(np.array, (float(learning_rate), 1.0, 0.0, 0.0, 0.0))
    prev, rises = np.inf, 0  # the last loss and the run of increases ending at it
    first, n, last = 0, 1, None  # last: the previous row's z, p, kept mass and d
    while True:
        for m, (z, p, p_s, d, km) in enumerate(rows[:min(n, max_steps + 1 - first)], 1):
            if last:  # the previous row's gradient step, taken only when a row follows it
                z_last, p_last, km_last, d_last = last
                # rate * p off the support, rate * (-(1 - km) p(v|S) + d) on it; cond
                # holds the previous row's p(v|S), and km - 1 is -(1 - km) to the bit
                np.multiply(p_last, rate, g)
                np.multiply(cond, np.subtract(km_last, one, shrink), cond)
                cond += d_last
                cond *= rate
                g[idx] = cond
                np.subtract(z_last, g, z)
            # the softmax of z: exp(z - max z), over its sum
            np.exp(np.subtract(z, np.maximum.reduce(z, None, None, top), p), p)
            np.divide(p, np.add.reduce(p, None, None, total), p)
            p.take(idx, out=p_s, mode="clip")  # idx is in range; "raise" would buffer out
            if not float(np.add.reduce(p_s, None, None, km)) > 0:
                break  # p_s / km would be 0 / 0; the checks below stop at this row
            np.divide(p_s, km, cond)
            np.subtract(cond, qv, d)
            last = z, p, km, d
        # a zero or NaN on the support makes the loss inf or NaN: refuse it before np.log
        # warns, so only the rows before the first that vanishes are checked and yielded
        whole = np.logical_and.reduce(PS[:m] > 0, axis=1)
        good = m if whole.all() else int(whole.argmin())
        tvs = (0.5 * np.add.reduce(np.abs(D[:good]), axis=1)).tolist()
        losses = (-np.add.reduce(qv * np.log(PS[:good]), axis=1)).tolist()
        for k, (tv, loss, km) in enumerate(zip(tvs, losses, KM[:good].tolist())):
            step = first + k
            stop = ("converged" if tv < tv_tolerance
                    else "step_cap" if step == max_steps else None)
            yield stop, *views[k], loss, tv, 1.0 - km
            if stop:
                return
            rises = rises + 1 if loss > prev else 0
            prev = loss
            if rises >= DIVERGENCE_WINDOW:
                raise DivergenceError(f"loss increased for {DIVERGENCE_WINDOW} consecutive steps")
        if good < m:
            raise DivergenceError(f"loss is not finite at step {first + good}: the student "
                                  "vanishes on a target-support token")
        first, n = first + m, min(2 * n, cap)


def _logged_rows(target: SsdTarget, learning_rate: float, max_steps: int,
                 tv_tolerance: float, every: int) -> tuple[list[tuple], str, float]:
    """train-student's rows, at each multiple of every and the last step; stop reason, last TV."""
    rows, logged = [], []
    steps = _student_steps(target, learning_rate, max_steps, tv_tolerance)
    size = target.support.size
    ps = np.empty((max(1, min(_ROW_BLOCK_BYTES // (8 * size), _ROW_DELAY_STEPS // every)), size))
    sums = np.empty(len(ps))

    def score():
        rows.extend(_decomposition_rows(target, ps[:len(logged)], sums[:len(logged)], logged))
        logged.clear()
    try:
        for step, (stop, _, p, _, tv, _) in enumerate(steps):
            if step % every == 0 or stop:
                # the step's softmax renormalized as a Categorical is, on the support only
                p.take(target.support, out=ps[len(logged)], mode="clip")
                sums[len(logged)] = np.add.reduce(p, axis=None)
                logged.append(step)
                if len(logged) == len(ps):
                    score()
    except SsdLabError:
        score()  # a pending row's step comes before the loop's error, so its error wins
        raise
    score()
    return rows, stop, tv


def train_local_student(
    p0: Categorical,
    cfg: DecodeConfig,
    learning_rate: float = 0.5,
    max_steps: int = 100_000,
    tv_tolerance: float = 1e-6,
) -> Trajectory:
    """Fit a local softmax student to the target by plain gradient descent.

    Logits start at log p0 (zeros floored at -50). Terminates when the
    on-support total variation to q drops below tv_tolerance or the step
    cap is reached; returns the trajectory from step 0 as float64 columns,
    O(steps) floats, with only the last step's logits (train-student
    streams the same loop). Those logits are a read-only row of the loop's
    last block of steps, which nothing writes once the run has ended; the
    Trajectory keeps that block, at most STEP_BLOCK_BYTES or two rows of V.
    """
    columns = array("d"), array("d"), array("d")
    for stop, z, _, *row in _student_steps(ssd_target(p0, cfg), learning_rate, max_steps,
                                           tv_tolerance):
        for column, x in zip(columns, row):
            column.append(x)
    return Trajectory(*(_read_only(np.frombuffer(c)) for c in columns), z, stop)


def _tempered_target(target: SsdTarget, tau: float) -> tuple[Categorical, Categorical]:
    """ideal_fit_eval's tempered target, and the composed form it is checked against."""
    _check_positive("tau", tau)
    fitted = temper(target.q, tau)
    composed = restrict(
        temper(target.source, target.train_temperature * tau), target.support
    )
    gap = float(np.abs(fitted.probs - composed.probs).max())
    if gap > 1e-12:
        raise CompositionViolationError(
            f"tempered target deviates from the composed form by {gap!r}"
        )
    return fitted, composed


def ideal_fit_eval(target: SsdTarget, tau: float) -> Categorical:
    """Temper the fitted target at eval temperature tau.

    Must coincide with the source tempered at train_temperature * tau and
    restricted to the support; the equality is asserted to 1e-12.
    """
    return _tempered_target(target, tau)[0]


def local_gain(p0: Categorical, cfg: DecodeConfig, tau: float, event) -> LocalGain:
    """Factor the ideal student's probability of an event at eval temperature tau.

    student_prob = support_gain * reshape_gain * base_prob, where
    support_gain is the inverse retained mass of the tempered teacher and
    reshape_gain is the ratio of the two escort probabilities of the event.
    """
    target = ssd_target(p0, cfg)
    fitted, train_escort = _tempered_target(target, tau)
    idx = _event_array(event, target.support, "retained support")
    p0_tau = temper(p0, tau)
    m_tau = float(p0_tau.probs[target.support].sum())
    eval_escort = restrict(p0_tau, target.support)
    denom = float(eval_escort.probs[idx].sum())
    if denom == 0.0:
        raise ZeroMassEventError("event carries zero mass under the eval escort")
    reshape_gain = float(train_escort.probs[idx].sum()) / denom
    base_prob = float(p0_tau.probs[idx].sum())
    student_prob = float(fitted.probs[idx].sum())
    return LocalGain(
        support_gain=1.0 / m_tau,
        reshape_gain=reshape_gain,
        base_prob=base_prob,
        student_prob=student_prob,
    )

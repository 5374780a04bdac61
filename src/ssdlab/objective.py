"""Self-distillation targets, loss decompositions, gradients, and a local student.

The target at one context is the tempered base distribution restricted
to the retained support. Fitting it with cross-entropy splits exactly
into a support gate plus a conditional term, and further into
gate + reshape + align + const; both identities are used as invariants
rather than approximations, so every term is computed by branching on
the exact support.
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
    _shifted_exp,
    _softmax,
    as_index_array,
    restrict,
)
from .decode import DecodeConfig, _check_count, make_stream, retained_support, temper
from .errors import (
    CompositionViolationError,
    DivergenceError,
    InvalidEntryError,
    OutOfRangeError,
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


def _conditional(target: SsdTarget, p: np.ndarray):
    """A raw student array's kept mass, its conditional p(v|S) and q on the support.

    Indexes target.support in rank order, the order kept_mass sums in; O(|S|).
    """
    if p.size != target.q.alphabet_size:
        raise InvalidEntryError("alphabet sizes differ")
    p_s = p[target.support]
    if np.any(p_s == 0):  # q is positive on all of target.support by construction
        raise ZeroMassSupportError("student vanishes on a target-support token")
    km = float(p_s.sum())
    cond = p_s / km
    cond /= cond.sum()  # unit sum, as restrict's Categorical makes it
    return km, cond, target.q.probs[target.support]


def _support_terms(target: SsdTarget, p: np.ndarray):
    """The breakdown of a raw student array, then _conditional's kept mass, p(v|S) and q."""
    km, cond, q = _conditional(target, p)
    T = target.train_temperature
    if T == np.inf:  # reshape tends to -inf and const to +inf: their sum has no value
        raise OutOfRangeError("the loss decomposition needs a finite train temperature, "
                              f"got {T!r}")
    log_cond, log_q = np.log(cond), np.log(q)
    w = _shifted_exp(log_cond, T)
    norm = w.sum()
    tempered = w / norm
    if np.any(tempered == 0):
        raise SupportViolationError("tempered student vanishes on a target-support token")
    gate = float(-np.log(km))
    # -T log sum (p(v|S))^(1/T), shifted by the largest log p(v|S) as tempered is
    reshape = 0.0 if T == 1.0 else -float(log_cond.max() + T * np.log(norm))
    align = T * float((q * (log_q - np.log(tempered))).sum())
    const = T * float(-(q * log_q).sum())
    total = gate + reshape + align + const
    return LossBreakdown(gate, reshape, align, const, total), km, cond, q


def gate_conditional_split(target: SsdTarget, p_theta: Categorical) -> tuple[float, float]:
    """Split cross_entropy(q, p_theta) into -log KeptMass plus the conditional CE, in O(|S|)."""
    km, cond, q = _conditional(target, p_theta.probs)
    return float(-np.log(km)), float(-(q * np.log(cond)).sum())


def three_term_decomposition(target: SsdTarget, p_theta: Categorical) -> LossBreakdown:
    """Split cross_entropy(q, p_theta) into gate + reshape + align + const.

    The reshape term uses the free-energy form -T log sum(restricted^(1/T))
    and is exactly 0 at T = 1 by the continuous extension. All four terms
    are computed on the support index, in O(|S|). An infinite train
    temperature is refused with OutOfRangeError: reshape and const diverge.
    """
    return _support_terms(target, p_theta.probs)[0]


def _gradient(p: np.ndarray, idx: np.ndarray, km: float, cond: np.ndarray,
              q: np.ndarray) -> np.ndarray:
    g = p.copy()
    g[idx] = -(1.0 - km) * cond + (cond - q)
    return g


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
    p = _softmax(z)
    # the support, ascending, not rank order: the summing order is part of the output bits
    idx = np.flatnonzero(target.q.probs)
    p_s = p[idx]
    km = float(p_s.sum())
    if km == 0:  # p_s / km would be 0 / 0
        raise ZeroMassSupportError("student vanishes on a target-support token")
    return _gradient(p, idx, km, p_s / km, target.q.probs[idx])


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

    Starts from target.source at step 0. stop_reason is None until the last
    step. The logits and their softmax are the loop's own read-only arrays:
    a step rebinds z and p and never writes into either, so no copy is taken.
    """
    if not learning_rate > 0:
        raise OutOfRangeError(f"learning_rate must be positive, got {learning_rate!r}")
    _check_count("max_steps", max_steps, 0)
    if not tv_tolerance > 0:
        raise OutOfRangeError(f"tv_tolerance must be positive, got {tv_tolerance!r}")
    # the support, ascending, not rank order: the summing order is part of the output bits
    idx = np.flatnonzero(target.q.probs)
    qv = target.q.probs[idx]
    p0 = target.source.probs
    z = np.where(p0 > 0, np.log(np.maximum(p0, 1e-300)), LOGIT_FLOOR)
    prev, rises = np.inf, 0  # the last loss and the run of increases ending at it
    for step in range(max_steps + 1):
        p = _softmax(z)
        z.flags.writeable = p.flags.writeable = False
        p_s = p[idx]
        km = float(p_s.sum())
        # a zero or NaN on the support makes the loss inf or NaN: refuse it before np.log warns
        if not km > 0 or np.count_nonzero(p_s) < idx.size:
            raise DivergenceError(f"loss is not finite at step {step}: the student "
                                  "vanishes on a target-support token")
        cond = p_s / km
        tv = float(0.5 * np.abs(cond - qv).sum())
        loss = float(-(qv * np.log(p_s)).sum())
        stop = ("converged" if tv < tv_tolerance
                else "step_cap" if step == max_steps else None)
        yield stop, z, p, loss, tv, 1.0 - km
        if stop:
            return
        rises = rises + 1 if loss > prev else 0
        prev = loss
        if rises >= DIVERGENCE_WINDOW:
            raise DivergenceError(f"loss increased for {DIVERGENCE_WINDOW} consecutive steps")
        z = z - learning_rate * _gradient(p, idx, km, cond, qv)


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
    streams the same loop).
    """
    columns = array("d"), array("d"), array("d")
    for stop, z, _, *row in _student_steps(ssd_target(p0, cfg), learning_rate, max_steps,
                                           tv_tolerance):
        for column, x in zip(columns, row):
            column.append(x)
    return Trajectory(*(_read_only(np.frombuffer(c)) for c in columns), z, stop)


def ideal_fit_eval(target: SsdTarget, tau: float) -> Categorical:
    """Temper the fitted target at eval temperature tau.

    Must coincide with the source tempered at train_temperature * tau and
    restricted to the support; the equality is asserted to 1e-12.
    """
    if not tau > 0:
        raise OutOfRangeError(f"tau must be positive, got {tau!r}")
    fitted = temper(target.q, tau)
    composed = restrict(
        temper(target.source, target.train_temperature * tau), target.support
    )
    gap = float(np.abs(fitted.probs - composed.probs).max())
    if gap > 1e-12:
        raise CompositionViolationError(
            f"tempered target deviates from the composed form by {gap!r}"
        )
    return fitted


def local_gain(p0: Categorical, cfg: DecodeConfig, tau: float, event) -> LocalGain:
    """Factor the ideal student's probability of an event at eval temperature tau.

    student_prob = support_gain * reshape_gain * base_prob, where
    support_gain is the inverse retained mass of the tempered teacher and
    reshape_gain is the ratio of the two escort probabilities of the event.
    """
    if not tau > 0:
        raise OutOfRangeError(f"tau must be positive, got {tau!r}")
    target = ssd_target(p0, cfg)
    idx = _event_array(event, target.support, "retained support")
    p0_tau = temper(p0, tau)
    m_tau = float(p0_tau.probs[target.support].sum())
    train_escort = restrict(
        temper(p0, cfg.temperature * tau), target.support
    )
    eval_escort = restrict(p0_tau, target.support)
    denom = float(eval_escort.probs[idx].sum())
    if denom == 0.0:
        raise ZeroMassEventError("event carries zero mass under the eval escort")
    reshape_gain = float(train_escort.probs[idx].sum()) / denom
    base_prob = float(p0_tau.probs[idx].sum())
    student_prob = float(ideal_fit_eval(target, tau).probs[idx].sum())
    return LocalGain(
        support_gain=1.0 / m_tau,
        reshape_gain=reshape_gain,
        base_prob=base_prob,
        student_prob=student_prob,
    )

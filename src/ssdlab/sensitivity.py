"""Escort distributions, temperature-sensitivity identities, and entropy splits.

The escort at exponent gamma on a support set S is proportional to
p0^gamma on S, and `escort_distribution` returns it. Derivatives of
escort expectations in gamma are covariances with log p0 under that
escort; entropy responds to temperature as Var(log p) / T^3. Extreme
exponents give the finite limits. Zero-probability tokens are silently
dropped from S; only an explicit event argument touching them is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .categorical import (
    Categorical,
    _event_array,
    as_index_array,
    binary_entropy,
    entropy,
    restrict,
)
from .decode import _check_count, _check_finite_positive, _check_positive, _prefix_power, temper
from .errors import (
    InvalidEntryError,
    KTooLargeError,
    NonPositiveTemperatureError,
    RankOutOfRangeError,
    ZeroProbabilityOnSupportError,
)

__all__ = [
    "EntropyBreakdown", "FeasibilityReport", "entropy_decomposition",
    "entropy_temperature_response", "escort_distribution", "escort_sensitivity",
    "feasible_topp_interval", "prefix_mass_curve", "set_mass_log_sensitivity",
]


@dataclass(frozen=True)
class EntropyBreakdown:
    """Full-alphabet entropy split into gate + head + tail channels."""

    gate_entropy: float
    head_entropy: float
    tail_entropy: float
    total: float


@dataclass(frozen=True)
class FeasibilityReport:
    """Top-p window bounds at fixed (tau, k): feasible iff lower < upper."""

    lower: float
    upper: float
    feasible: bool
    tau: float
    k: int


def escort_distribution(p0: Categorical, members, gamma: float) -> Categorical:
    """The distribution proportional to p0^gamma on the set, zero elsewhere."""
    _check_finite_positive("gamma", gamma)  # 1 / inf would reach temper as temperature 0
    return temper(p0, 1.0 / gamma, members)


def _escort_terms(p0: Categorical, pi: Categorical) -> tuple[np.ndarray, ...]:
    """An escort's support, log p0 there, and its weights (underflowed members carry none)."""
    idx = np.flatnonzero(pi.probs)
    return idx, np.log(p0.probs[idx]), pi.probs[idx]


def escort_sensitivity(p0: Categorical, members, gamma: float, f) -> float:
    """d/dgamma of the escort expectation of f, as Cov(f, log p0) under the escort."""
    pi = escort_distribution(p0, members, gamma)
    fv = np.asarray(f, dtype=float)
    if fv.ndim != 1 or fv.size != p0.alphabet_size:
        raise InvalidEntryError("f must be a vector over the full alphabet")
    if not np.all(np.isfinite(fv)):
        raise InvalidEntryError("f must be finite")
    idx, logp, w = _escort_terms(p0, pi)
    f_centered = fv[idx] - w @ fv[idx]
    lp_centered = logp - w @ logp
    return float(w @ (f_centered * lp_centered))


def set_mass_log_sensitivity(p0: Categorical, members, gamma: float, event) -> float:
    """d/dgamma of log escort-mass of an event inside the set.

    Equals the escort mean of log p0 on the event minus its escort mean
    on the set; positive sign means cooling grows the event.
    """
    pi = escort_distribution(p0, members, gamma)
    ev = _event_array(event, as_index_array(members, p0.alphabet_size), "support set")
    if np.any(p0.probs[ev] == 0):
        raise ZeroProbabilityOnSupportError(
            "event contains a zero-probability token (log p undefined)"
        )
    _, logp_full, w_full = _escort_terms(p0, pi)
    _, logp_event, w_event = _escort_terms(p0, escort_distribution(p0, ev, gamma))
    return float(w_event @ logp_event - w_full @ logp_full)


def entropy_temperature_response(p: Categorical, members, temperature: float) -> float:
    """dH/dT of the tempered restriction of p at T: Var(log p) / T^3, never negative."""
    _, logp, w = _escort_terms(p, temper(p, temperature, members))
    centered = logp - w @ logp
    # T**3 alone would overflow past T ~ 5.6e102 and underflow near T = 0
    return float(w @ (centered * centered)) / temperature / temperature / temperature


def entropy_decomposition(p_theta: Categorical, members) -> EntropyBreakdown:
    """Split entropy(p_theta) into gate + head + tail across an index set.

    gate is the binary entropy of the kept mass, head is the kept-mass
    weighted entropy of the restriction, tail the complement's share;
    head and tail are 0 by convention when their mass vanishes.
    """
    idx = as_index_array(members, p_theta.alphabet_size)
    km = float(p_theta.probs[idx].sum())
    gate = binary_entropy(min(km, 1.0))
    head = km * entropy(restrict(p_theta, idx)) if km > 0 else 0.0
    comp = np.setdiff1d(np.arange(p_theta.alphabet_size), idx)
    tail_mass = float(p_theta.probs[comp].sum()) if comp.size else 0.0
    tail = tail_mass * entropy(restrict(p_theta, comp)) if tail_mass > 0 else 0.0
    return EntropyBreakdown(
        gate_entropy=gate,
        head_entropy=head,
        tail_entropy=tail,
        total=gate + head + tail,
    )


def prefix_mass_curve(p: Categorical, tau: float, k: int) -> np.ndarray:
    """Tempered cumulative prefix masses S_m for m = 1..k within the top-k head.

    S_m is the mass of the m highest-ranked tokens of p^(1/tau)
    renormalized over the k highest; S_k is exactly 1.
    """
    _check_positive("tau", tau, error=NonPositiveTemperatureError)
    _check_count("k", k, 1)
    positive = int(np.count_nonzero(p.probs))
    if k > positive:
        raise KTooLargeError(
            f"k = {k} exceeds the {positive} positive-probability tokens"
        )
    order, _, w = _prefix_power(p, np.array([tau]), k, 1.0)
    # order stops where p^(1/tau) underflows; the masses past it add 0
    csum = np.pad(np.cumsum(w[0]), (0, k - order.size), mode="edge")
    return csum / csum[-1]


def feasible_topp_interval(
    lock_p: Categorical,
    lock_rank: int,
    fork_p: Categorical,
    fork_rank: int,
    tau: float,
    k: int,
) -> FeasibilityReport:
    """The top-p window keeping the lock sharp while retaining the fork's rank.

    lower is the fork prefix mass just below fork_rank (0 when rank 1,
    strict bound); upper is the lock prefix mass at lock_rank (non-strict).
    """
    for name, rank in (("lock_rank", lock_rank), ("fork_rank", fork_rank)):
        _check_count(name, rank, -np.inf)  # the integer test alone: no integer is below -inf
        if not 1 <= rank <= k:
            raise RankOutOfRangeError(f"{name} must lie in [1, {k}], got {rank!r}")
    lock_curve = prefix_mass_curve(lock_p, tau, k)
    fork_curve = prefix_mass_curve(fork_p, tau, k)
    lower = 0.0 if fork_rank == 1 else float(fork_curve[fork_rank - 2])
    upper = float(lock_curve[lock_rank - 1])
    return FeasibilityReport(
        lower=lower, upper=upper, feasible=lower < upper, tau=tau, k=k
    )

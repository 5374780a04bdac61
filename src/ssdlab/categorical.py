"""Exact arithmetic on finite categorical distributions.

All logarithms are natural and all entropies are in nats. The
0 * log 0 = 0 convention is enforced by explicit branching over the
positive support, never by epsilon flooring, so the decomposition
identities built on top of these primitives hold to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroError,
    EmptyEventError,
    EmptySetError,
    InvalidEntryError,
    InvalidOrderError,
    OutOfRangeError,
    SupportViolationError,
    ZeroMassSupportError,
)

__all__ = [
    "Categorical", "as_index_array", "binary_entropy", "cross_entropy",
    "entropy", "kl_divergence", "normalize", "renyi_entropy", "restrict",
]

# Raw inputs farther than this from total mass 1 are rejected; anything
# closer is renormalized once at construction to stop drift in long chains.
CONSTRUCTION_TOL = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Categorical:
    """A probability vector over a finite token alphabet.

    The stored array is read-only. Entries are nonnegative and sum to 1
    (renormalized once at construction when within CONSTRUCTION_TOL).
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise InvalidEntryError("probability vector must be 1-d and nonempty")
        if not np.all(np.isfinite(p)):
            raise InvalidEntryError("probability vector contains NaN or infinity")
        if np.any(p < 0):
            raise InvalidEntryError("probability vector contains negative entries")
        total = float(p.sum())
        if abs(total - 1.0) > CONSTRUCTION_TOL:
            raise InvalidEntryError(
                f"probabilities sum to {total!r}, more than {CONSTRUCTION_TOL} from 1"
            )
        object.__setattr__(self, "probs", _read_only(p / total))

    @property
    def alphabet_size(self) -> int:
        return int(self.probs.size)

    def support(self) -> np.ndarray:
        """Indices with strictly positive probability: a read-only int64 array, ascending."""
        return _read_only(np.flatnonzero(self.probs))


def _shifted_exp(x: np.ndarray, temperature=1.0) -> np.ndarray:
    """exp((x - max x) / temperature).

    A column of temperatures gives one row each.
    """
    shifted = np.subtract(x, np.maximum.reduce(x, axis=None))
    if isinstance(temperature, np.ndarray) or temperature != 1.0:  # x / 1.0 is x
        with np.errstate(over="ignore"):  # -inf near T = 0 leaves only the maxima
            shifted = np.divide(shifted, temperature)
    return np.exp(shifted, out=shifted)


def _softmax(x: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """The distribution proportional to exp(x / temperature)."""
    w = _shifted_exp(x, temperature)
    w /= np.add.reduce(w, axis=None)
    return w


def _int64_members(members, name: str, outside: str) -> np.ndarray:
    """Set members as a 1-d int64 array; a float member or one past int64 is refused."""
    if isinstance(members, np.ndarray) and members.ndim == 1 and members.dtype.kind in "biu":
        return members.astype(np.int64, copy=False)  # as it is; other input item by item
    try:
        idx = np.asarray(items := tuple(members))
    except (TypeError, ValueError):  # a scalar, a 0-d array or a ragged collection
        idx = None
    if idx is None or idx.ndim != 1 or getattr(members, "ndim", 1) != 1:  # (0, n) is 2-d, too
        raise InvalidEntryError(f"{name} must be a 1-d collection of integers")
    if items and idx.dtype.kind not in "biu":  # floats, or ints with no common int type
        if not all(isinstance(v, (int, np.integer)) for v in items):
            raise InvalidEntryError(f"{name} contains a non-integer member")
        if not all(-(2**63) <= v < 2**63 for v in items):
            raise OutOfRangeError(outside)
        idx = np.array([int(v) for v in items])
    # uint64 members past int64 wrap to negatives, which every range check refuses
    return idx.astype(np.int64, copy=False)


def _has_duplicates(idx: np.ndarray) -> bool:
    ranked = np.sort(idx, axis=None)
    return bool((ranked[1:] == ranked[:-1]).any())


def as_index_array(members, alphabet_size: int) -> np.ndarray:
    """Validate an index set against an alphabet and return it as an int64 array.

    Members must be nonempty, unique integers in [0, alphabet_size); an int64
    array is returned as it is.
    """
    outside = f"index set contains values outside [0, {alphabet_size})"
    idx = _int64_members(members, "index set", outside)
    if idx.size == 0:
        raise EmptySetError("index set is empty")
    if np.any(idx < 0) or np.any(idx >= alphabet_size):
        raise OutOfRangeError(outside)
    if _has_duplicates(idx):
        raise InvalidEntryError("index set contains duplicate indices")
    return idx


def _event_array(event, container, name: str) -> np.ndarray:
    """An event as an int array: nonempty, no duplicates, inside the named container."""
    outside = f"event set is not contained in the {name}"
    idx = _int64_members(event, "event set", outside)
    if idx.size == 0:
        raise EmptyEventError("event set is empty")
    if _has_duplicates(idx):
        raise InvalidEntryError("event set contains duplicate indices")
    if not np.all(np.isin(idx, container)):
        raise OutOfRangeError(outside)
    return idx


def normalize(weights) -> Categorical:
    """Scale a nonnegative weight vector into a Categorical."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidEntryError("weight vector must be 1-d and nonempty")
    if not np.all(np.isfinite(w)):
        raise InvalidEntryError("weight vector contains NaN or infinity")
    if np.any(w < 0):
        raise InvalidEntryError("weight vector contains negative entries")
    peak = float(w.max())
    if peak == 0.0:
        raise AllZeroError("all weights are zero")
    w = w / peak  # guards overflow before the final division
    return Categorical(w / w.sum())


def restrict(p: Categorical, members) -> Categorical:
    """Condition p on an index set: proportional on the set, zero elsewhere."""
    idx = as_index_array(members, p.alphabet_size)
    out = np.zeros(p.alphabet_size)
    out[idx] = p.probs[idx]
    mass = float(out.sum())
    if mass == 0.0:
        raise ZeroMassSupportError("restriction set carries zero mass")
    return Categorical(out / mass)


def entropy(p: Categorical) -> float:
    """Shannon entropy in nats with the 0 log 0 = 0 convention."""
    pos = p.probs[p.probs > 0]
    return float(-(pos * np.log(pos)).sum())


def renyi_entropy(p: Categorical, alpha: float) -> float:
    """Renyi entropy of order alpha in nats; alpha = 1 is the Shannon branch.

    An infinite order gives the limit, the min-entropy -log max p.
    """
    from .decode import _check_positive  # decode imports this module

    _check_positive("Renyi order", alpha, error=InvalidOrderError)
    if alpha == 1.0:
        return entropy(p)
    logp = np.log(p.probs[p.probs > 0])
    top = float(logp.max())  # shifted out before scaling, so a huge order stays finite
    if alpha == np.inf:  # the min-entropy limit
        return -top
    tail = np.log(_shifted_exp(logp, 1.0 / alpha).sum())
    return float(alpha / (1.0 - alpha) * top + tail / (1.0 - alpha))


def kl_divergence(p: Categorical, q: Categorical) -> float:
    """KL(p || q) in nats over the support of p."""
    if p.alphabet_size != q.alphabet_size:
        raise InvalidEntryError("alphabet sizes differ")
    mask = p.probs > 0
    if np.any(q.probs[mask] == 0):
        raise SupportViolationError("p has mass where q is zero")
    pv = p.probs[mask]
    return float((pv * (np.log(pv) - np.log(q.probs[mask]))).sum())


def cross_entropy(p: Categorical, q: Categorical) -> float:
    """E_{v~p}[-log q(v)] in nats."""
    if p.alphabet_size != q.alphabet_size:
        raise InvalidEntryError("alphabet sizes differ")
    mask = p.probs > 0
    if np.any(q.probs[mask] == 0):
        raise SupportViolationError("p has mass where q is zero")
    return float(-(p.probs[mask] * np.log(q.probs[mask])).sum())


def binary_entropy(x: float) -> float:
    """Entropy of a Bernoulli(x) in nats; 0 at both endpoints."""
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"binary entropy argument must lie in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-(x * np.log(x) + (1.0 - x) * np.log(1.0 - x)))

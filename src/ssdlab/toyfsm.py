"""A 16-token finite-state world where decoding trade-offs have closed forms.

The machine has one root and two symmetric paths, each consisting of one
fork state followed by three lock states; the two paths share their fork
and lock distributions, so success probability is an exact product of
per-state operational probabilities. Each state's distribution has four
explicit head values and a geometric tail over the remaining tokens. At
the root, tokens 0 and 1 start the two viable paths; at every other
state only token 0 advances.

Success is scored with decode's prefix-power kernel, the one behind
retained_support, over a vector of temperatures: each state's p is ranked
once, every row is cut to its top-p prefix, and success is the root, fork
and lock masses of correct tokens, read by rank from the kernel's
rank-space rows and multiplied; no row is as wide as the alphabet.
optimize_temperature and temperature_sweep score their whole grids that
way, in row chunks whose kernel temporaries, sized by the states' positive
width, fit in decode.BLOCK_BYTES, and exact_success is the one-temperature
case of the same pass. monte_carlo_success checks it by sampling, with its
batches split across CPUs through pool.fork_map; the sampler draws each
batch's uniforms in cache-sized chunks under decode.SAMPLE_BLOCK_BYTES, the
same stream as one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pool
from .categorical import Categorical, _read_only, as_index_array
from .decode import (
    DecodeConfig,
    _block_rows,
    _check_count,
    _prefix_power,
    _skip_uniforms,
    gumbel_max_sample,
    make_stream,
    retained_support,
)
from .errors import EmptySetError, InvalidEntryError, InvalidRatioError, OutOfRangeError

__all__ = [
    "Archetype", "Fsm", "GridRow", "McResult", "SweepRow",
    "build_archetype", "build_toy_fsm", "distill_fsm", "exact_success",
    "geometric_tail", "monte_carlo_success", "operational_policy",
    "optimize_temperature", "temperature_sweep", "topp_robustness_grid",
]

VOCAB_SIZE = 16
MAX_VOCAB_SIZE = 1 << 18  # the largest alphabet, checked before any allocation

LOCK_HEAD = (0.750, 0.055, 0.050, 0.037)
FORK_HEAD = (0.148, 0.280, 0.140, 0.144)
ROOT_HEAD = (0.200, 0.190, 0.329, 0.126)

DEFAULT_TAIL_RATIO = 0.5
DEFAULT_N_LOCKS = 3

ROOT_CORRECT = (0, 1)
CHAIN_CORRECT = (0,)

# Monte Carlo draws are taken in fixed-size batches, so a run's count does not
# depend on how its batches are split between processes.
MC_BATCH = 1 << 15
MC_MAX_LOCKS = 1_000  # monte_carlo_success draws every lock of every trajectory

GRID_STEP = 0.001  # optimize_temperature's coarse grid spacing
GRID_MAX_POINTS = 100_000  # and its largest grid, checked before allocating
REFINE_TOL = 1e-4  # and the width at which its ternary refinement stops


@dataclass(frozen=True, eq=False)
class Archetype:
    """One state's token distribution plus its correct continuations.

    correct_tokens is a read-only int64 array.
    """

    dist: Categorical
    correct_tokens: np.ndarray


@dataclass(frozen=True)
class Fsm:
    """Root plus the shared per-path fork and lock archetypes."""

    root: Archetype
    fork: Archetype
    lock: Archetype
    n_locks: int = DEFAULT_N_LOCKS


@dataclass(frozen=True)
class SweepRow:
    """Exact success of both models at one temperature; gap is student minus teacher."""

    temperature: float
    top_p: float
    teacher_success: float
    student_success: float
    gap: float


@dataclass(frozen=True)
class GridRow:
    """Per-top-p optimized success for both models; gap in percentage points."""

    top_p: float
    teacher_t_star: float
    teacher_p_star: float
    student_t_star: float
    student_p_star: float
    gap_pp: float


@dataclass(frozen=True)
class McResult:
    """A Monte Carlo success estimate and its binomial standard error."""

    estimate: float
    stderr: float


def geometric_tail(residual: float, ratio: float, length: int) -> np.ndarray:
    """A length-term geometric sequence with the given ratio summing to residual."""
    if not 0.0 < ratio < 1.0:
        raise InvalidRatioError(f"tail ratio must lie in (0, 1), got {ratio!r}")
    _check_count("tail length", length, 1)
    first = residual * (1.0 - ratio) / (1.0 - ratio**length)
    return first * ratio ** np.arange(length)


def build_archetype(
    head,
    tail_ratio: float,
    correct_tokens,
    vocab_size: int = VOCAB_SIZE,
) -> Archetype:
    """Assemble head values plus a geometric tail into a full distribution."""
    _check_count("vocab_size", vocab_size, 1)
    if vocab_size > MAX_VOCAB_SIZE:
        raise OutOfRangeError(f"vocab_size must be <= {MAX_VOCAB_SIZE}, got {vocab_size!r}")
    head = tuple(float(x) for x in head)
    if any(not np.isfinite(x) or x < 0 for x in head):
        raise InvalidEntryError("head values must be finite and nonnegative")
    if len(head) >= vocab_size:
        raise OutOfRangeError(
            f"head length {len(head)} leaves no tail in a {vocab_size}-token alphabet"
        )
    residual = 1.0 - sum(head)
    if residual <= 0:
        raise InvalidEntryError("head values must sum to strictly less than 1")
    tail = geometric_tail(residual, tail_ratio, vocab_size - len(head))
    dist = Categorical(np.concatenate([np.asarray(head), tail]))
    return Archetype(
        dist=dist,
        correct_tokens=_read_only(as_index_array(correct_tokens, vocab_size).copy()),
    )


def build_toy_fsm(
    tail_ratio: float = DEFAULT_TAIL_RATIO,
    lock_head=LOCK_HEAD,
    fork_head=FORK_HEAD,
    root_head=ROOT_HEAD,
    vocab_size: int = VOCAB_SIZE,
    n_locks: int = DEFAULT_N_LOCKS,
) -> Fsm:
    """Construct the toy machine; all parameters overridable for experiments."""
    _check_count("n_locks", n_locks, 1)
    return Fsm(
        root=build_archetype(root_head, tail_ratio, ROOT_CORRECT, vocab_size),
        fork=build_archetype(fork_head, tail_ratio, CHAIN_CORRECT, vocab_size),
        lock=build_archetype(lock_head, tail_ratio, CHAIN_CORRECT, vocab_size),
        n_locks=n_locks,
    )


def operational_policy(arch: Archetype, temperature: float, top_p: float) -> Categorical:
    """The post-truncation, post-temperature distribution at one state (k disabled)."""
    cfg = DecodeConfig(temperature=temperature, top_k=0, top_p=top_p)
    return retained_support(arch.dist, cfg).operational


def _success(fsm: Fsm, temperatures: np.ndarray, top_p: float) -> np.ndarray:
    """Exact success at each temperature, scored in batched prefix-power passes.

    The temperatures are taken in chunks whose kernel temporaries, at the
    largest positive width of the three states, fit in decode.BLOCK_BYTES;
    each row is computed alone, so chunking changes no bit.
    """

    def mass(arch: Archetype, ts: np.ndarray) -> np.ndarray:
        order, _, w = _prefix_power(arch.dist, ts, 0, top_p)
        # a 0/1 row per correct token, 1 at the token's rank in order: its product
        # with the rows is the token's mass at each temperature, or 0 past the
        # prefix, and the tokens' masses are then added in token order
        return ((arch.correct_tokens[:, None] == order) @ w.T).sum(axis=0)

    states = (fsm.root, fsm.fork, fsm.lock)
    step = _block_rows(max(np.count_nonzero(a.dist.probs) for a in states))
    return np.concatenate([
        mass(fsm.root, ts) * mass(fsm.fork, ts) * mass(fsm.lock, ts) ** fsm.n_locks
        for ts in (temperatures[i:i + step] for i in range(0, temperatures.size, step))
    ])


def exact_success(fsm: Fsm, temperature: float, top_p: float) -> float:
    """Closed-form success probability: product of correct-token masses per state.

    The one-temperature case of the batched pass optimize_temperature and
    temperature_sweep score their grids with.
    """
    return float(_success(fsm, np.array([float(temperature)]), top_p)[0])


def distill_fsm(fsm: Fsm, train_temperature: float, train_top_p: float) -> Fsm:
    """Replace every state's distribution with its distillation target.

    The target is the state's operational policy at the training settings.
    """

    def distill(arch: Archetype) -> Archetype:
        q = operational_policy(arch, train_temperature, train_top_p)
        return Archetype(dist=q, correct_tokens=arch.correct_tokens)

    return Fsm(
        root=distill(fsm.root),
        fork=distill(fsm.fork),
        lock=distill(fsm.lock),
        n_locks=fsm.n_locks,
    )


def temperature_sweep(
    teacher: Fsm, student: Fsm, t_grid, top_p: float
) -> tuple[SweepRow, ...]:
    """Evaluate both machines' exact success over a temperature grid."""
    grid = [float(t) for t in t_grid]
    if not grid:
        raise EmptySetError("temperature grid is empty")
    if any(not t > 0 for t in grid):
        raise OutOfRangeError("temperature grid entries must be positive")
    temperatures = np.array(grid)
    rows = []
    for t, ts, ss in zip(
        grid,
        _success(teacher, temperatures, top_p).tolist(),
        _success(student, temperatures, top_p).tolist(),
    ):
        rows.append(
            SweepRow(
                temperature=t,
                top_p=top_p,
                teacher_success=ts,
                student_success=ss,
                gap=ss - ts,
            )
        )
    return tuple(rows)


def _grid_too_long(lo: float, hi: float, step: float) -> bool:
    """True when np.arange(lo, hi + step / 2, step) would hold over GRID_MAX_POINTS values."""
    return np.ceil((hi + step / 2 - lo) / step) > GRID_MAX_POINTS


def optimize_temperature(
    fsm: Fsm,
    top_p: float,
    bounds: tuple[float, float] = (0.05, 5.0),
) -> tuple[float, float]:
    """Maximize exact success over temperature: coarse grid plus ternary refinement.

    Returns the best point actually evaluated. The success curve has
    kinks where the retained support changes, and optima can sit exactly
    on a kink, so probes on the wrong side never displace a better
    evaluated point. Bounds whose grid would hold more than
    GRID_MAX_POINTS temperatures are refused before anything is allocated.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not 0 < lo < hi < np.inf:
        raise OutOfRangeError(f"bounds must satisfy 0 < lo < hi < inf, got {bounds!r}")
    if _grid_too_long(lo, hi, GRID_STEP):
        raise OutOfRangeError(
            f"bounds {bounds!r} need more than {GRID_MAX_POINTS} grid points "
            f"at step {GRID_STEP}"
        )
    ts = np.arange(lo, hi + GRID_STEP / 2, GRID_STEP)
    grid = np.clip(ts, lo, hi)  # grid accumulation can overshoot by an ulp
    values = _success(fsm, grid, top_p)
    i = int(np.argmax(values))  # the first maximum, as sequential probes keep it
    best_t, best_v = float(grid[i]), float(values[i])

    def probe(t: float) -> float:
        nonlocal best_t, best_v
        t = min(max(t, lo), hi)
        v = exact_success(fsm, t, top_p)
        if v > best_v:
            best_t, best_v = t, v
        return v

    a = float(ts[max(i - 1, 0)])
    b = float(ts[min(i + 1, len(ts) - 1)])
    while b - a > REFINE_TOL:
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if probe(m1) < probe(m2):
            a = m1
        else:
            b = m2
    probe((a + b) / 2.0)
    return best_t, best_v


def topp_robustness_grid(
    teacher: Fsm,
    student: Fsm,
    topp_list,
    bounds: tuple[float, float] = (0.05, 5.0),
) -> tuple[GridRow, ...]:
    """Optimize both machines at each top-p and report the success gap."""
    values = [float(x) for x in topp_list]
    if not values:
        raise EmptySetError("top-p list is empty")
    rows = []
    for top_p in values:
        t_t, p_t = optimize_temperature(teacher, top_p, bounds)
        t_s, p_s = optimize_temperature(student, top_p, bounds)
        rows.append(
            GridRow(
                top_p=top_p,
                teacher_t_star=t_t,
                teacher_p_star=p_t,
                student_t_star=t_s,
                student_p_star=p_s,
                gap_pp=(p_s - p_t) * 100.0,
            )
        )
    return tuple(rows)


def _mc_states(
    fsm: Fsm, temperature: float, top_p: float, n: int
) -> list[tuple[Categorical, np.ndarray]]:
    """Each drawn state's operational policy and correct-token lookup table, in
    draw order, once n and the lock count are checked."""
    _check_count("n", n, 1)
    if fsm.n_locks > MC_MAX_LOCKS:
        raise OutOfRangeError(f"n_locks must be <= {MC_MAX_LOCKS}, got {fsm.n_locks!r}")

    def state(arch: Archetype) -> tuple[Categorical, np.ndarray]:
        correct = np.zeros(arch.dist.alphabet_size, dtype=bool)  # a lookup table
        correct[arch.correct_tokens] = True
        return operational_policy(arch, temperature, top_p), correct

    return [state(fsm.root), state(fsm.fork)] + [state(fsm.lock)] * fsm.n_locks


def _mc_count(states, n: int, seed: int, start: int, stop: int) -> int:
    """Successes in batches [start, stop) of an n-trajectory run.

    Every draw moves the stream past batch x V uniforms, a skipped one-token
    block included, so the stream is moved past the earlier batches'
    uniforms first: any split of the batches counts what one pass counts.
    """
    rng = make_stream(seed)
    width = sum(policy.alphabet_size for policy, _ in states)
    _skip_uniforms(rng, start * MC_BATCH * width)
    successes = 0
    for first in range(start * MC_BATCH, min(stop * MC_BATCH, n), MC_BATCH):
        batch = min(MC_BATCH, n - first)
        alive = np.ones(batch, dtype=bool)
        for policy, correct in states:
            alive &= correct[gumbel_max_sample(policy, rng, size=batch)]
        successes += int(alive.sum())
    return successes


def monte_carlo_success(
    fsm: Fsm, temperature: float, top_p: float, n: int, seed: int
) -> McResult:
    """Estimate success by simulating n trajectories with the Gumbel-max sampler.

    Draws are taken in MC_BATCH-trajectory batches. Each CPU the process may
    run on gets one contiguous run of them, at most one per batch: this
    process counts the first run and a forked worker each other one
    (pool.fork_map). The counts are exact, so the result does not depend on
    the number of CPUs. n, the lock count and the seed are checked first.
    """
    states = _mc_states(fsm, temperature, top_p, n)
    _check_count("seed", seed, 0)  # make_stream's check, made before any fork
    batches = -(-n // MC_BATCH)  # the last may be short
    workers = min(pool.cpus(), batches)
    bounds = [k * batches // workers for k in range(workers + 1)]
    counts = pool.fork_map(lambda part: _mc_count(states, n, seed, *part),
                           list(zip(bounds, bounds[1:])))
    estimate = sum(counts) / n
    stderr = float(np.sqrt(estimate * (1.0 - estimate) / n))
    return McResult(estimate=estimate, stderr=stderr)

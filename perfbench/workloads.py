"""The benchmark's workloads: seeded inputs, CLI argv and output checks.

Each workload is a list of `ssdlab` CLI invocations. Inputs are generated
from the workload seed in-process and cached under `.bench_cache/` in the
checkout, keyed by seed and parameters. Reference values are computed once
per seed, off the clock, with plain numpy wherever the check allows it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Toy-world settings: the paper's evaluation top-p and the two optima.
EVAL_TOP_P = 0.80
TEACHER_T = 0.6395
STUDENT_T = 2.0941
TRAIN_T = 0.9
TRAIN_TOP_P = 0.85

# Dump-scan decode settings.
DUMP_T = 0.7
DUMP_TOP_P = 0.95
TOP_P_EPS = 1e-12  # the package's documented cumulative-mass epsilon

# Report numbers carry 9 significant digits.
REL_TOL = 1e-8


class CheckFailure(Exception):
    """An invocation's output disagrees with its reference."""


@dataclass
class Invocation:
    """One CLI call: argv after `python -m ssdlab.cli`, and its output check."""

    name: str
    argv: list[str]
    check: Callable[[Path], None]


@dataclass
class Workload:
    invocations: list[Invocation]
    contexts: int  # decode contexts the reports cover, for contexts_per_s
    dump_path: Path | None = None  # the first dump shard, for the memory pass
    dump_sizes: dict[str, int] = field(default_factory=dict)  # context_id -> V
    # (probs, temperature, top_p, max_steps) of the largest training context
    train_context: tuple[np.ndarray, float, float, int] | None = None
    gen_seconds: float = 0.0


def size_label(v: int) -> str:
    """16 -> 'v16', 32768 -> 'v32k', 262144 -> 'v256k'."""
    return f"v{v // 1024}k" if v >= 1024 and v % 1024 == 0 else f"v{v}"


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def _cache_path(cache: Path, stem: str, params: dict, suffix: str) -> Path:
    digest = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:12]
    return cache / f"{stem}-{digest}{suffix}"


def _evict(cache: Path, pattern: str, keep: int) -> None:
    """Bound the cache: keep the `keep` most recently used files matching pattern."""
    files = sorted(cache.glob(pattern), key=lambda f: f.stat().st_mtime, reverse=True)
    for stale in files[keep:]:
        stale.unlink()


def _fmt(values: np.ndarray, spec: str) -> str:
    return ",".join(format(float(x), spec) for x in values)


# ---------------------------------------------------------------------------
# plain-numpy references

def _tempered(p: np.ndarray, temperature: float) -> np.ndarray:
    out = np.zeros_like(p)
    pos = p > 0
    logw = np.log(p[pos]) / temperature
    w = np.exp(logw - logw.max())
    out[pos] = w / w.sum()
    return out


def _kept(p: np.ndarray, temperature: float, top_p: float) -> np.ndarray:
    """Rank prefix kept by temper -> top-p (top-k off), lowest index on ties."""
    order = np.lexsort((np.arange(p.size), -p))
    order = order[p[order] > 0]
    if top_p >= 1.0:
        return order
    csum = np.cumsum(_tempered(p, temperature)[order])
    m = min(int(np.searchsorted(csum, top_p - TOP_P_EPS)) + 1, order.size)
    return order[:m]


def _softmax(z: np.ndarray) -> np.ndarray:
    w = np.exp(z - z.max())
    return w / w.sum()


def _step0_row(p0: np.ndarray, temperature: float, top_p: float) -> dict[str, float]:
    """Decomposition row of train-student at step 0, where the student is p0."""
    support = _kept(p0, temperature, top_p)
    q = _tempered(p0, temperature)[support]
    q = q / q.sum()
    p = p0[support]
    km = float(p.sum())
    r = p / km
    rt = r ** (1.0 / temperature)
    rt = rt / rt.sum()
    h_q = float(-(q * np.log(q)).sum())
    gate = -math.log(km)
    reshape = 0.0 if temperature == 1.0 else float(
        -temperature * np.log((r ** (1.0 / temperature)).sum())
    )
    align = float(temperature * (q * (np.log(q) - np.log(rt))).sum())
    return {
        "total": float(-(q * np.log(p)).sum()),
        "gate": gate,
        "reshape": reshape,
        "align": align,
        "on_support_tv": float(0.5 * np.abs(r - q).sum()),
        "off_support_mass": 1.0 - km,
        "h_q": h_q,
    }


# ---------------------------------------------------------------------------
# toy_world

def toy_world(root: Path, seed: int, smoke: bool = False) -> Workload:
    import ssdlab

    teacher = ssdlab.build_toy_fsm()
    student = ssdlab.distill_fsm(teacher, TRAIN_T, TRAIN_TOP_P)
    n = 20_000 if smoke else 250_000
    # The headline row of toy-grid, as its two optimisations over a bracket
    # that holds both optima: a full six-row grid is one ~20 s process, too
    # long to repeat within a run, and each call here stays near one second.
    bounds = ["--t-min", "0.5", "--t-max", "2.5"]

    # the teacher's optimum, the base of criterion 2's gap, computed in-process
    _, teacher_p = ssdlab.optimize_temperature(teacher, EVAL_TOP_P, (0.05, 5.0))

    def optimize_invocation(role: str, criterion: str, p_star: float, t_star: float,
                            t_tol: float) -> Invocation:
        def check(path: Path) -> None:
            (row,) = read_csv(path)
            _require(row["role"] == role and float(row["top_p"]) == EVAL_TOP_P,
                     "toy-optimize echo")
            t, p = float(row["t_star"]), float(row["p_star"])
            _require(abs(p - p_star) <= 0.001 and abs(t - t_star) <= t_tol,
                     f"{criterion}: {role} optimum T*={t} P*={p}")
            if role == "student":
                gap = 100.0 * (p - teacher_p)
                _require(gap > 0 and abs(gap - 5.4) <= 0.2, f"{criterion}: gap {gap}")

        argv = ["toy-optimize", "--role", role, "--top-p", repr(EVAL_TOP_P), *bounds]
        return Invocation(f"toy-optimize {role}", argv, check)

    def mc_invocation(role: str, fsm, temperature: float, mc_seed: int) -> Invocation:
        exact = ssdlab.exact_success(fsm, temperature, EVAL_TOP_P)

        def check(path: Path) -> None:
            (row,) = read_csv(path)
            _require(int(row["n"]) == n and int(row["seed"]) == mc_seed, "toy-mc echo")
            _require(_close(float(row["exact"]), exact),
                     f"toy-mc exact {row['exact']} != exact_success {exact!r}")
            est = float(row["estimate"])
            z = abs(est - exact) / math.sqrt(exact * (1.0 - exact) / n)
            # acceptance criterion 6: within 3 binomial standard errors
            _require(z <= 3.0, f"criterion 6: {role} z={z:.2f}")

        argv = ["toy-mc", "--role", role, "--temperature", repr(temperature),
                "--top-p", repr(EVAL_TOP_P), "--n", str(n), "--seed", str(mc_seed)]
        return Invocation(f"toy-mc {role}", argv, check)

    # seed 0 uses the acceptance test's Monte Carlo seeds, 0 and 1, at a
    # quarter of its n
    invocations = [
        optimize_invocation("teacher", "criterion 1", 0.0832, 0.639, 0.01),
        optimize_invocation("student", "criterion 2", 0.1377, 2.091, 0.02),
        mc_invocation("teacher", teacher, TEACHER_T, 2 * seed),
        mc_invocation("student", student, STUDENT_T, 2 * seed + 1),
    ]
    return Workload(invocations, contexts=4)


# ---------------------------------------------------------------------------
# dump_scan

# Record shapes cycle through fixed grids and only the noise comes from the
# seed, so every seed asks for the same amount of work: support sizes, and
# with them the cost of each context, follow the exponent and the spread.
ZIPF_EXPONENTS = (0.9, 1.0, 1.1, 1.2)
LOGIT_SIGMAS = (2.0, 2.33, 2.67, 3.0)
TRAIN_EXPONENT = 1.1
NOISE_SHAPE = 64.0  # gamma noise with mean 1 and relative spread 1/8


def _heavy_tail(rng: np.random.Generator, v: int, s: float) -> np.ndarray:
    """Zipf ranks with gamma noise, shuffled: a Dirichlet-like heavy tail."""
    noise = rng.gamma(NOISE_SHAPE, 1.0 / NOISE_SHAPE, size=v)
    w = np.arange(1, v + 1, dtype=float) ** -s * noise
    w = rng.permutation(w)
    return w / w.sum()


def _write_dump(path: Path, seed: int, sizes: list[tuple[int, int]], shard: int) -> None:
    """Shard `shard` of the dump: records shard*count .. (shard+1)*count-1 per size."""
    rng = np.random.default_rng([seed, 0xD0, shard])
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for v, count in sizes:
            for i in range(shard * count, (shard + 1) * count):
                cid = f"{size_label(v)}-{i:04d}"
                shape = (i // 2) % len(ZIPF_EXPONENTS)
                if i % 2 == 0:
                    probs = _heavy_tail(rng, v, ZIPF_EXPONENTS[shape])
                    body = '"probs": [' + _fmt(probs, ".10g") + "]"
                    label = "probs"
                else:
                    logits = rng.normal(0.0, LOGIT_SIGMAS[shape], v)
                    body = '"logits": [' + _fmt(logits, ".7g") + "]"
                    label = "logits"
                fh.write(f'{{"context_id": "{cid}", "label": "{label}", {body}}}\n')
    tmp.replace(path)


def _dump_reference(path: Path) -> list[dict]:
    """kept_count and kept_mass per record, from the values as written."""
    ref = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "probs" in obj:
                p = np.asarray(obj["probs"], dtype=float)
                p = p / p.sum()
            else:
                p = _softmax(np.asarray(obj["logits"], dtype=float))
            kept = _kept(p, DUMP_T, DUMP_TOP_P)
            ref.append({"context_id": obj["context_id"], "v": int(p.size),
                        "kept_count": int(kept.size),
                        "kept_mass": float(p[kept].sum())})
    return ref


# The dump is split into shards, one analyze-dump call each, so that every
# call is short enough to repeat several times within a run.
DUMP_SHARDS = 4


def dump_scan(root: Path, seed: int, smoke: bool = False) -> Workload:
    sizes = [(256, 2), (1024, 1)] if smoke else [(32768, 8), (262144, 1)]
    cache = root / ".bench_cache"
    cache.mkdir(exist_ok=True)
    invocations, paths, sizes_by_id, contexts = [], [], {}, 0
    t0 = time.perf_counter()
    for shard in range(DUMP_SHARDS):
        params = {"kind": "dump", "seed": seed, "sizes": sizes, "shard": shard,
                  "format": 4}
        path = _cache_path(cache, f"dump-s{seed}", params, ".jsonl")
        ref_path = path.with_suffix(".ref.json")
        if not (path.exists() and ref_path.exists()):
            _write_dump(path, seed, sizes, shard)
            tmp = ref_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(_dump_reference(path)))
            tmp.replace(ref_path)
        path.touch()
        ref_path.touch()
        ref = json.loads(ref_path.read_text())
        paths.append(path)
        sizes_by_id.update((e["context_id"], e["v"]) for e in ref)
        contexts += len(ref)
        argv = ["analyze-dump", "--input", str(path), "--temperature", repr(DUMP_T),
                "--top-p", repr(DUMP_TOP_P), "--top-k", "0"]
        invocations.append(Invocation(f"analyze-dump {shard}", argv, _dump_check(ref)))
    gen_seconds = time.perf_counter() - t0
    _evict(cache, "dump-s*.jsonl", keep=3 * DUMP_SHARDS)
    _evict(cache, "dump-s*.ref.json", keep=3 * DUMP_SHARDS)
    return Workload(
        invocations,
        contexts=contexts,
        dump_path=paths[0],
        dump_sizes=sizes_by_id,
        gen_seconds=gen_seconds,
    )


def _dump_check(ref: list[dict]) -> Callable[[Path], None]:
    def check(out: Path) -> None:
        rows = read_csv(out)
        _require([r["context_id"] for r in rows] == [e["context_id"] for e in ref],
                 "analyze-dump context ids")
        for row, exp in zip(rows, ref):
            cid = row["context_id"]
            _require(int(row["kept_count"]) == exp["kept_count"],
                     f"{cid}: kept_count {row['kept_count']} != {exp['kept_count']}")
            _require(_close(float(row["kept_mass"]), exp["kept_mass"]),
                     f"{cid}: kept_mass {row['kept_mass']} != {exp['kept_mass']!r}")
            for col in ("head_entropy", "total_entropy", "top20_mass"):
                _require(math.isfinite(float(row[col])), f"{cid}: {col} not finite")

    return check


# ---------------------------------------------------------------------------
# train_student

def _train_check(p0: np.ndarray, temperature: float, top_p: float, steps: int,
                 every: int) -> Callable[[Path], None]:
    ref = _step0_row(p0, temperature, top_p)

    def check(path: Path) -> None:
        rows = read_csv(path)
        _require(len(rows) >= 2 and int(rows[0]["step"]) == 0, "train-student rows")
        _require(all(int(r["step"]) % every == 0 for r in rows[:-1])
                 and int(rows[-1]["step"]) <= steps, "train-student logged steps")
        for row in rows:
            for key, value in row.items():
                _require(math.isfinite(float(value)), f"step {row['step']}: {key}")
        for key in ("total", "gate", "reshape", "align", "on_support_tv",
                    "off_support_mass"):
            _require(_close(float(rows[0][key]), ref[key]),
                     f"step 0 {key}: {rows[0][key]} != {ref[key]!r}")
        off = [float(r["off_support_mass"]) for r in rows]
        _require(all(b <= a for a, b in zip(off, off[1:])),
                 "off_support_mass increased")
        floor = ref["h_q"] * (1.0 - REL_TOL)
        _require(all(float(r["total"]) >= floor for r in rows), "loss fell below H(q)")

    return check


def train_student(root: Path, seed: int, smoke: bool = False) -> Workload:
    import ssdlab

    lock = np.asarray(ssdlab.build_toy_fsm().lock.dist.probs, dtype=float)
    # Step caps keep each call near one second, so that it repeats within a
    # run; the lock head runs to its cap either way.
    lock_steps = 500 if smoke else 25_000
    lock_argv = ["train-student", "--probs", _fmt(lock, ".17g"),
                 "--temperature", repr(TRAIN_T), "--top-p", repr(TRAIN_TOP_P),
                 "--log-every", "100", "--max-steps", str(lock_steps)]

    v, big_steps = (1024, 50) if smoke else (32768, 1000)
    cache = root / ".bench_cache"
    cache.mkdir(exist_ok=True)
    params = {"kind": "train", "seed": seed, "v": v, "format": 3}
    cfg_path = _cache_path(cache, f"train-s{seed}", params, ".cfg")
    t0 = time.perf_counter()
    if not cfg_path.exists():
        rng = np.random.default_rng([seed, 0x75])
        text = (f"# seeded V={v} context\nprobs = {_fmt(_heavy_tail(rng, v, TRAIN_EXPONENT), '.10g')}\n"
                f"temperature = {TRAIN_T!r}\ntop_p = {TRAIN_TOP_P!r}\n")
        tmp = cfg_path.with_suffix(".tmp")
        tmp.write_text(text, encoding="utf-8")
        tmp.replace(cfg_path)
    cfg_path.touch()
    _evict(cache, "train-s*.cfg", keep=3)
    line = next(l for l in cfg_path.read_text().splitlines() if l.startswith("probs"))
    big = np.asarray([float(x) for x in line.split("=", 1)[1].split(",")])
    gen_seconds = time.perf_counter() - t0

    lock_p = lock / lock.sum()
    big_p = big / big.sum()
    invocations = [
        Invocation("train-student v16", lock_argv,
                   _train_check(lock_p, TRAIN_T, TRAIN_TOP_P, lock_steps, 100)),
        Invocation("train-student config",
                   ["train-student", "--config", str(cfg_path),
                    "--max-steps", str(big_steps)],
                   _train_check(big_p, TRAIN_T, TRAIN_TOP_P, big_steps, 1)),
    ]
    return Workload(
        invocations, contexts=2,
        train_context=(big_p, TRAIN_T, TRAIN_TOP_P, big_steps),
        gen_seconds=gen_seconds,
    )


WORKLOADS = {"toy_world": toy_world, "dump_scan": dump_scan,
             "train_student": train_student}

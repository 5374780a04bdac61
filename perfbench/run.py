"""ssdlab benchmark: end-to-end CLI runs and an outside-in per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload toy_world --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload dump_scan --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --smoke

With --trace 0 every CLI invocation is a fresh `python -m ssdlab.cli`
process and the end-to-end metrics are reported. With --trace 1 the same
argv are driven in-process through `ssdlab.cli.main` and the per-layer
metrics are reported. The last line of stdout is one JSON object; the lines
before it print every metric by name with its unit. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Single-threaded numerics, here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIB = 1024.0 * 1024.0
# A cold interpreter start, as every CLI call pays it before its runner starts.
SETUP_CMD = [sys.executable, "-c", "import ssdlab, ssdlab.cli"]
# A fixed task that uses none of ssdlab: start-up, numpy import, interpreted
# loop and a sort, the kinds of work the CLI calls do. The host's other
# tenants slow it down as they slow the CLI, over the same stretch of a run.
REFERENCE_CMD = [sys.executable, "-c", (
    "import numpy as np\n"
    "x = 0\n"
    "for i in range(400_000):\n"
    "    x += i * i\n"
    "np.random.default_rng(0).random(1 << 18).sort()\n"
)]
# Median time of REFERENCE_CMD on the reference machine (README) at light load.
# Times are reported scaled by REFERENCE_S / (its median time in the run).
REFERENCE_S = 0.25


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def environment() -> dict:
    """Versions and hardware the figures depend on."""
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    for index in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
        try:
            level = (base / "level").read_text().strip()
            kind = (base / "type").read_text().strip()
            size = (base / "size").read_text().strip()
        except OSError:
            break
        if kind != "Instruction":
            caches[f"L{level}"] = size
    l3 = caches.get("L3", "")
    l3_kib = int(l3[:-1]) * (1024 if l3.endswith("M") else 1) if l3[:-1].isdigit() else 0
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
        # one float64 row of the dump's largest contexts against the last-level cache
        "v256k_row_fits_l3": l3_kib > 262144 * 8 // 1024,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], stderr_path: Path) -> tuple[int, float, float]:
    """Run one child to completion; return (exit code, wall s, peak RSS MiB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Tally:
    """Attempted and failed invocations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            print(f"perfbench: FAILED {label}: {error}", file=sys.stderr)


def check_output(inv, out: Path) -> str | None:
    from workloads import CheckFailure

    try:
        inv.check(out)
    except CheckFailure as exc:
        return str(exc)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable report: {exc!r}"
    return None


# ---------------------------------------------------------------------------
# --trace 0: fresh processes, end-to-end metrics

def run_untraced(workload, seconds: float, scratch: Path, tally: Tally) -> dict:
    """Repeat the workload's invocations in rounds for `seconds`; report medians.

    Each invocation is followed by one cold import for `setup_s` and one
    reference task, so that both are sampled across the whole run. A round
    starts only if it is expected to end within `seconds`; the first always
    runs. Times are scaled, round by round, to the reference machine's speed.
    """
    # warm-up starts: they write the bytecode caches, which users pay for once
    if spawn(SETUP_CMD, scratch / "setup.err")[0] != 0:
        tally.record("setup import", "import ssdlab.cli exited nonzero")
    if spawn(REFERENCE_CMD, scratch / "setup.err")[0] != 0:
        fail("the reference task exited nonzero")
    walls = [[] for _ in workload.invocations]
    rss = [[] for _ in workload.invocations]
    setups, refs = [], []  # start-up and reference times, one list per round
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        setups.append([])
        refs.append([])
        for k, inv in enumerate(workload.invocations):
            out = scratch / f"out{k}.csv"
            err = scratch / f"err{k}.txt"
            out.unlink(missing_ok=True)
            cmd = [sys.executable, "-m", "ssdlab.cli", *inv.argv, "--output", str(out)]
            code, wall, peak = spawn(cmd, err)
            walls[k].append(wall)
            rss[k].append(peak)
            if code != 0:
                tail = err.read_text(errors="replace").strip().splitlines()[-1:]
                tally.record(inv.name, f"exit {code} {' '.join(tail)}")
            else:
                tally.record(inv.name, check_output(inv, out))
            code, wall, _ = spawn(SETUP_CMD, scratch / "setup.err")
            setups[-1].append(wall)
            if code != 0:
                tally.record("setup import", "import ssdlab.cli exited nonzero")
            code, wall, _ = spawn(REFERENCE_CMD, scratch / "setup.err")
            refs[-1].append(wall)
            if code != 0:
                fail("the reference task exited nonzero")
        print(f"round {len(refs)}: pass_s={sum(w[-1] for w in walls):.4f} "
              f"setup_s={[round(t, 4) for t in setups[-1]]} "
              f"reference_s={[round(t, 4) for t in refs[-1]]}")
        now = time.perf_counter()
        if now - start + (now - t_round) > seconds:
            break
    # The host's other tenants slow every process by a factor that drifts
    # over seconds to minutes. Each round's times are divided by the median
    # reference time of that round, which saw the same stretch of load.
    speed = [REFERENCE_S / statistics.median(r) for r in refs]
    passes = [sum(w[i] for w in walls) for i in range(len(refs))]
    for inv, w in zip(workload.invocations, walls):
        print(f"{inv.name}: median_s={statistics.median(w):.4f} min_s={min(w):.4f} "
              f"n={len(w)}")
    print(f"rounds={len(refs)} raw_wall_s={statistics.median(passes):.4f} "
          f"raw_setup_s={statistics.median(sum(setups, [])):.4f} "
          f"reference_s={statistics.median(sum(refs, [])):.4f}")
    wall_s = statistics.median(p * f for p, f in zip(passes, speed))
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(statistics.median(t) * f
                                     for t, f in zip(setups, speed)),
        "peak_rss_mb": max(statistics.median(r) for r in rss),
        "contexts_per_s": workload.contexts / wall_s,
    }


# ---------------------------------------------------------------------------
# --trace 1: in-process passes, per-layer metrics

def _probe(fn):
    """Guard a probe so that a changed signature reads as no data, not a crash."""
    def guarded(args, kwargs, result):
        try:
            return fn(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, ValueError, OSError):
            return "", 0.0
    return guarded


def timed_targets() -> dict:
    """Functions whose per-call time is reported, binned by alphabet size."""
    from workloads import size_label

    by_size = _probe(lambda a, k, r: (size_label(a[0].alphabet_size), 0.0))
    draws = _probe(lambda a, k, r: ("", float(k.get("size", a[2] if len(a) > 2 else 1) or 1)))
    steps = _probe(lambda a, k, r: (size_label(a[0].alphabet_size), float(len(r) - 1)))
    nbytes = _probe(lambda a, k, r: ("", float(os.path.getsize(a[0]))))
    return {
        ("decode", "retained_support"): by_size,
        ("decode", "gumbel_max_sample"): draws,
        ("toyfsm", "exact_success"): None,
        ("toyfsm", "optimize_temperature"): None,
        ("toyfsm", "monte_carlo_success"): None,
        ("objective", "train_local_student"): steps,
        ("objective", "three_term_decomposition"): None,
        ("cli", "ingest_dump"): nbytes,
        ("cli", "emit_report"): None,
    }


def inprocess_pass(workload, scratch: Path, tally: Tally, tracer=None, targets=None):
    """Run every invocation through ssdlab.cli.main; return (wall s, report paths)."""
    import ssdlab.cli

    if tracer is not None:
        tracer.install(targets)
    wall, outs = 0.0, []
    try:
        for k, inv in enumerate(workload.invocations):
            out = scratch / f"in{k}.csv"
            out.unlink(missing_ok=True)
            t0 = time.perf_counter()
            try:
                code = ssdlab.cli.main([*inv.argv, "--output", str(out)])
            except Exception:  # a crash is a failed invocation, not a dead run
                traceback.print_exc()
                code = -1
            wall += time.perf_counter() - t0
            outs.append((inv, out, code))
    finally:
        if tracer is not None:
            tracer.remove()
    for inv, out, code in outs:
        tally.record(inv.name, f"exit {code}" if code != 0 else check_output(inv, out))
    return wall, [out for _, out, _ in outs]


def tracemalloc_peak(fn) -> float:
    """Peak traced allocation of fn() above the level at its start, in MiB."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / MIB


def peak_pass(workload) -> dict:
    """tracemalloc peaks of single calls, taken apart from the timed passes.

    A function a later change removes is already listed as absent by the
    tracer; its peak then reads 0.
    """
    import ssdlab
    from ssdlab import cli, decode, objective
    from workloads import DUMP_T, DUMP_TOP_P

    peaks = {}
    ingest = getattr(cli, "ingest_dump", None)
    retained = getattr(decode, "retained_support", None)
    train = getattr(objective, "train_local_student", None)
    if workload.dump_path is not None and ingest is not None:
        path = str(workload.dump_path)  # the first shard
        peaks["cli.ingest_dump.peak_mb"] = tracemalloc_peak(lambda: ingest(path))
        p0 = next((r.probs for r in ingest(path)
                   if workload.dump_sizes.get(r.context_id) == 262144), None)
        if p0 is not None and retained is not None:
            cfg = ssdlab.DecodeConfig(temperature=DUMP_T, top_p=DUMP_TOP_P)
            peaks["decode.retained_support.v256k.peak_mb"] = tracemalloc_peak(
                lambda: retained(p0, cfg))
    if workload.train_context is not None and train is not None:
        probs, temperature, top_p, max_steps = workload.train_context
        p0 = ssdlab.normalize(probs)
        cfg = ssdlab.DecodeConfig(temperature=temperature, top_p=top_p)
        peaks["objective.train_local_student.peak_mb"] = tracemalloc_peak(
            lambda: train(p0, cfg, max_steps=max_steps))
    return peaks


def kept_count_means(workload, reports: list[Path]) -> dict:
    """Mean kept_count per alphabet size, read from the analyze-dump reports."""
    from workloads import read_csv, size_label

    sums: dict[str, list[int]] = {}
    if workload.dump_path is None:
        return {}
    for row in (r for report in reports for r in read_csv(report)):
        v = workload.dump_sizes.get(row.get("context_id"))
        if v is not None:
            sums.setdefault(size_label(v), []).append(int(row["kept_count"]))
    return {f"decode.kept_count.{label}.mean": sum(c) / len(c)
            for label, c in sums.items() if label in ("v32k", "v256k")}


def run_traced(workload, scratch: Path, tally: Tally) -> dict:
    from tracer import LAYERS, CONSTRUCTOR, Tracer, all_public_targets

    untraced_wall, _ = inprocess_pass(workload, scratch, tally)
    timing = Tracer()  # after the untraced pass, so no first-call cost lands here
    inprocess_pass(workload, scratch, tally, timing, timed_targets())
    full = Tracer()
    full_wall, reports = inprocess_pass(workload, scratch, tally, full, all_public_targets())
    absent = sorted(set(timing.missing) | set(full.missing))
    peaks = peak_pass(workload)

    m: dict[str, float] = {}
    for layer in LAYERS:
        calls, _, self_s, _ = full.total(layer)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.calls"] = calls
    m["categorical.constructions"] = full.total("categorical", CONSTRUCTOR)[0]
    m["categorical.as_index_array.self_s"] = full.total("categorical", "as_index_array")[2]
    m["decode.rank_descending.self_s"] = full.total("decode", "rank_descending")[2]
    m["toyfsm.exact_success.calls"] = full.total("toyfsm", "exact_success")[0]
    m["objective.three_term_decomposition.calls"] = full.total(
        "objective", "three_term_decomposition")[0]

    def per_call(layer, name, label=None, scale=1.0):
        calls, incl, _, _ = timing.total(layer, name, label)
        return incl / calls * scale if calls else 0.0

    def per_unit(layer, name, label=None, scale=1.0, invert=False):
        _, incl, _, units = timing.total(layer, name, label)
        if not units or not incl:
            return 0.0
        return units / incl * scale if invert else incl / units * scale

    m["decode.retained_support.v16.us"] = per_call("decode", "retained_support", "v16", 1e6)
    m["decode.retained_support.v32k.ms"] = per_call("decode", "retained_support", "v32k", 1e3)
    m["decode.retained_support.v256k.ms"] = per_call("decode", "retained_support", "v256k", 1e3)
    m["decode.gumbel_max_sample.draws_per_s"] = per_unit(
        "decode", "gumbel_max_sample", invert=True)
    m["toyfsm.exact_success.us"] = per_call("toyfsm", "exact_success", scale=1e6)
    m["toyfsm.optimize_temperature.s"] = per_call("toyfsm", "optimize_temperature")
    m["toyfsm.monte_carlo_success.s"] = per_call("toyfsm", "monte_carlo_success")
    m["objective.steps"] = timing.total("objective", "train_local_student")[3]
    m["objective.step.v16.us"] = per_unit("objective", "train_local_student", "v16", 1e6)
    m["objective.step.v32k.us"] = per_unit("objective", "train_local_student", "v32k", 1e6)
    m["objective.three_term_decomposition.us"] = per_call(
        "objective", "three_term_decomposition", scale=1e6)
    m["cli.ingest_dump.s"] = per_call("cli", "ingest_dump")
    m["cli.ingest_dump.mb_per_s"] = per_unit("cli", "ingest_dump", scale=1e-6, invert=True)
    m["cli.emit_report.s"] = per_call("cli", "emit_report")

    for name in ("decode.retained_support.v256k.peak_mb",
                 "objective.train_local_student.peak_mb", "cli.ingest_dump.peak_mb",
                 "decode.kept_count.v32k.mean", "decode.kept_count.v256k.mean"):
        m[name] = 0.0
    m.update(peaks)
    m.update(kept_count_means(workload, reports))

    self_sum = sum(rec[2] for rec in full.stats.values())
    m["trace.wall_s"] = full_wall
    m["trace.self_sum_s"] = self_sum
    m["trace_overhead_s"] = full_wall - untraced_wall
    print(f"untraced_wall_s={untraced_wall:.4f} traced_wall_s={full_wall:.4f} "
          f"self_sum_s={self_sum:.4f} absent={absent or 'none'}")
    return m


# ---------------------------------------------------------------------------

def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import ssdlab
    import workloads

    if Path(ssdlab.__file__).resolve().parent != (SRC / "ssdlab").resolve():
        fail(f"imported ssdlab from {ssdlab.__file__}, not from {SRC}")
    scratch = ROOT / ".bench_cache" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[name](ROOT, seed, smoke=smoke)
        print(f"workload={name} seed={seed} inputs_s={time.perf_counter() - t0:.3f} "
              f"generation_s={workload.gen_seconds:.3f}")
        tally = Tally()
        if trace:
            metrics = run_traced(workload, scratch, tally)
        else:
            metrics = run_untraced(workload, seconds, scratch, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = declared_metrics(trace)
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        fail(f"metric set differs from BENCHMARK.json: missing={missing} extra={extra}")
    for key in units:
        print(f"  {key:45s} {metrics[key]:>16.6g} {units[key]}")
    print(f"  {'failed_ratio':45s} {tally.failed / max(tally.attempted, 1):>16.6g} "
          f"({tally.failed}/{tally.attempted})")
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


def smoke() -> int:
    """Tiny inputs, every workload, both modes; nonzero exit on any gap."""
    import workloads

    bad = 0
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, 0, 1.0, trace, smoke=True)
            if not result["correct"]:
                print(f"smoke: {name} trace={int(trace)} failed its output checks")
                bad += 1
    print("smoke: ok" if not bad else f"smoke: {bad} failing runs")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny inputs and check the metric set")
    args = parser.parse_args()
    if not (SRC / "ssdlab" / "cli.py").is_file():
        fail(f"no ssdlab source under {SRC}")
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), False)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

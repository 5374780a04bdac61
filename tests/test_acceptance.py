"""Acceptance gate: one test per numbered guarantee, at its stated tolerance.

Each test prints a single [PASS]/[FAIL] line with the measured numbers so a
verbose run doubles as a checklist.  Property-style guarantees run at least
200 randomized instances; Monte Carlo guarantees use fixed seeds so the gate
is deterministic.
"""

import csv
import io
import itertools
import json

import numpy as np
import pytest

from ssdlab import (
    Categorical,
    DecodeConfig,
    cross_entropy,
    decode_normal_form,
    entropy,
    entropy_decomposition,
    entropy_temperature_response,
    escort_distribution,
    escort_sensitivity,
    exact_success,
    feasible_topp_interval,
    gate_conditional_split,
    gumbel_max_sample,
    ideal_fit_eval,
    local_gain,
    loss_gradient_logits,
    make_stream,
    monte_carlo_success,
    operational_policy,
    power_rigidity_check,
    prefix_mass_curve,
    restrict,
    self_training_fixed_point_check,
    ssd_target,
    temper,
    three_term_decomposition,
    top_k_set,
    topp_robustness_grid,
    train_local_student,
)
from ssdlab.cli import DECOMPOSITION_HEADER, DUMP_HEADER, SWEEP_HEADER, main
from ssdlab.toyfsm import build_toy_fsm, distill_fsm, optimize_temperature

N_INSTANCES = 200
EVAL_TOP_P = 0.80
TRAIN_T = 0.9
TRAIN_TOP_P = 0.85


def _report(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _softmax(z):
    z = np.asarray(z, dtype=float)
    shifted = z - z.max()
    w = np.exp(shifted)
    return w / w.sum()


@pytest.fixture(scope="module")
def teacher():
    return build_toy_fsm()


@pytest.fixture(scope="module")
def student(teacher):
    return distill_fsm(teacher, TRAIN_T, TRAIN_TOP_P)


@pytest.fixture(scope="module")
def teacher_opt(teacher):
    return optimize_temperature(teacher, EVAL_TOP_P)


@pytest.fixture(scope="module")
def student_opt(student):
    return optimize_temperature(student, EVAL_TOP_P)


def test_criterion_01_teacher_optimum(teacher_opt):
    t_star, p_star = teacher_opt
    ok = abs(p_star - 0.0832) <= 0.001 and abs(t_star - 0.639) <= 0.01
    _report(1, "teacher optimum", ok,
            f"P*={p_star:.6f} (0.0832+-0.001) at T*={t_star:.6f} (0.639+-0.01)")


def test_criterion_02_student_optimum_and_gap(teacher_opt, student_opt):
    t_star, p_star = student_opt
    gap_pp = (p_star - teacher_opt[1]) * 100.0
    ok = (abs(p_star - 0.1377) <= 0.001
          and abs(t_star - 2.091) <= 0.02
          and abs(gap_pp - 5.4) <= 0.2)
    _report(2, "student optimum and gap", ok,
            f"P*={p_star:.6f} (0.1377+-0.001) at T*={t_star:.6f} (2.091+-0.02), "
            f"gap={gap_pp:+.3f}pp (5.4+-0.2)")


def test_criterion_03_distilled_heads(student):
    lock = student.lock.dist.probs
    fork = student.fork.dist.probs
    root = student.root.dist.probs
    lock_support = np.flatnonzero(lock)
    fork_support = np.flatnonzero(fork)
    root_support = np.flatnonzero(root)
    ok = (lock_support.size == 2
          and abs(lock[0] - 0.948) <= 0.001
          and abs(lock[1] - 0.052) <= 0.001
          and fork_support.size == 5
          and abs(fork[1] - 0.344) <= 0.001
          and abs(fork[0] - 0.169) <= 0.001
          and root_support.size == 4
          and abs(root[2] - 0.406) <= 0.001)
    _report(3, "distilled heads", ok,
            f"lock({lock_support.size})=[{lock[0]:.4f},{lock[1]:.4f}] "
            f"fork({fork_support.size}) tok1={fork[1]:.4f} tok0={fork[0]:.4f} "
            f"root({root_support.size}) fail={root[2]:.4f}")


def test_criterion_04_fork_operational_nuclei(teacher, student, teacher_opt,
                                              student_opt):
    targets = {
        "teacher": (teacher, teacher_opt[0], [0.482, 0.178, 0.170, 0.170]),
        "student": (student, student_opt[0], [0.321, 0.229, 0.225, 0.225]),
    }
    details = []
    ok = True
    for label, (fsm, t_star, expected) in targets.items():
        pol = operational_policy(fsm.fork, t_star, EVAL_TOP_P)
        vals = np.sort(pol.probs[pol.probs > 0])[::-1]
        good = (vals.size == len(expected)
                and np.all(np.abs(vals - expected) <= 0.002))
        ok = ok and good
        details.append(f"{label}={np.round(vals, 4).tolist()}")
    _report(4, "fork operational nuclei", ok, " ".join(details) + " (+-0.002)")


def test_criterion_05_robustness_grid(teacher, student):
    grid = topp_robustness_grid(
        teacher, student, [0.65, 0.70, 0.75, 0.80, 0.85, 0.90])
    gaps = np.array([row.gap_pp for row in grid])
    ok = (bool(np.all(gaps > 0.0))
          and abs(gaps.min() - 1.4) <= 0.2
          and abs(gaps.max() - 5.4) <= 0.2)
    _report(5, "student ahead across nucleus grid", ok,
            f"gaps(pp)={np.round(gaps, 3).tolist()} min={gaps.min():.3f} "
            f"(1.4+-0.2) max={gaps.max():.3f} (5.4+-0.2)")


def test_criterion_06_monte_carlo_agreement(teacher, student, teacher_opt,
                                            student_opt):
    n = 1_000_000
    details = []
    ok = True
    cases = (("teacher", teacher, teacher_opt, 0),
             ("student", student, student_opt, 1))
    for label, fsm, (t_star, p_star), seed in cases:
        res = monte_carlo_success(fsm, t_star, EVAL_TOP_P, n, seed=seed)
        se = np.sqrt(p_star * (1.0 - p_star) / n)
        z = abs(res.estimate - p_star) / se
        ok = ok and z <= 3.0
        details.append(f"{label} z={z:.2f}")
    _report(6, "simulation within 3 binomial SE", ok,
            " ".join(details) + f" (n={n})")


def test_criterion_07_temper_composition(make_dists):
    gen = np.random.default_rng(70)
    worst = 0.0
    for raw in make_dists(N_INSTANCES, zero_frac=0.3):
        p = Categorical(raw)
        t1, t2 = np.exp(gen.uniform(np.log(0.2), np.log(3.0), size=2))
        once = temper(temper(p, t1), t2)
        direct = temper(p, t1 * t2)
        worst = max(worst, float(np.abs(once.probs - direct.probs).max()))
    ok = worst <= 1e-12
    _report(7, "temperature composition", ok,
            f"worst deviation {worst:.3e} <= 1e-12 over {N_INSTANCES} instances")


def test_criterion_08_self_training_fixed_point(make_dists):
    worst_score = 0.0
    for i, raw in enumerate(make_dists(N_INSTANCES, zero_frac=0.2)):
        p = Categorical(raw)
        worst_score = max(
            worst_score, self_training_fixed_point_check(p, n_trials=50, seed=i))
    worst_grad = 0.0
    for raw in make_dists(50, seed=808, zero_frac=0.0):
        p = Categorical(raw)
        target = ssd_target(p, DecodeConfig(temperature=1.0, top_k=0, top_p=1.0))
        g = loss_gradient_logits(target, np.log(p.probs))
        worst_grad = max(worst_grad, float(np.abs(g).max()))
    ok = worst_score <= 1e-12 and worst_grad <= 1e-12
    _report(8, "self-training fixed point", ok,
            f"score max-norm {worst_score:.3e}, gradient max-norm "
            f"{worst_grad:.3e}, both <= 1e-12")


def test_criterion_09_decomposition_closure(make_dists):
    gen = np.random.default_rng(90)
    temps = (0.5, 0.9, 1.0, 1.5, 2.0)
    worst_split = 0.0
    worst_total = 0.0
    for raw in make_dists(N_INSTANCES, zero_frac=0.2):
        p0 = Categorical(raw)
        p_theta = Categorical(_softmax(gen.normal(size=p0.alphabet_size)))
        t = temps[gen.integers(len(temps))]
        top_p = gen.uniform(0.5, 1.0)
        target = ssd_target(p0, DecodeConfig(temperature=t, top_p=top_p))
        # q is zero off support and p_theta is positive everywhere, so the
        # full-alphabet sum is the on-support cross-entropy
        direct = float(-(target.q.probs * np.log(p_theta.probs)).sum())
        gate, cond = gate_conditional_split(target, p_theta)
        bd = three_term_decomposition(target, p_theta)
        worst_split = max(worst_split, abs(gate + cond - direct))
        worst_total = max(worst_total, abs(bd.total - direct))
    ok = worst_split <= 1e-12 and worst_total <= 1e-10
    _report(9, "objective closure", ok,
            f"gate+conditional gap {worst_split:.3e} <= 1e-12, four-term gap "
            f"{worst_total:.3e} <= 1e-10 over {N_INSTANCES} instances")


def test_criterion_10_gradient_check(make_dists):
    gen = np.random.default_rng(100)
    h = 1e-6
    worst_rel = 0.0
    off_ok = True
    saw_truncation = False
    for raw in make_dists(N_INSTANCES, zero_frac=0.0):
        p0 = Categorical(raw)
        t = gen.uniform(0.5, 2.0)
        top_p = gen.uniform(0.5, 0.95)
        target = ssd_target(p0, DecodeConfig(temperature=t, top_p=top_p))
        z = gen.normal(size=p0.alphabet_size)
        g = loss_gradient_logits(target, z)

        members = np.asarray(target.support)
        q = target.q.probs

        def loss_at(zz):
            probs = _softmax(zz)
            return float(-(q * np.log(probs)).sum())

        fd = np.zeros_like(z)
        for i in range(z.size):
            zp = z.copy()
            zm = z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (loss_at(zp) - loss_at(zm)) / (2.0 * h)
        scale = max(float(np.abs(fd).max()), 1e-8)
        worst_rel = max(worst_rel, float(np.abs(g - fd).max()) / scale)

        off = np.setdiff1d(np.arange(p0.alphabet_size), members)
        if off.size:
            saw_truncation = True
            off_ok = off_ok and bool(np.all(g[off] > 0.0))
    ok = worst_rel < 1e-6 and off_ok and saw_truncation
    _report(10, "gradient against finite differences", ok,
            f"worst rel err {worst_rel:.3e} < 1e-6, off-support entries "
            f"positive={off_ok} over {N_INSTANCES} instances")


def test_criterion_11_student_training_convergence(teacher):
    cfg = DecodeConfig(temperature=TRAIN_T, top_p=TRAIN_TOP_P)
    details = []
    ok = True
    for label, arch in (("lock", teacher.lock), ("fork", teacher.fork)):
        target = ssd_target(arch.dist, cfg)
        traj = train_local_student(
            arch.dist, cfg, learning_rate=4.0, max_steps=250_000,
            tv_tolerance=1e-6)
        tv, loss = traj.on_support_tv[-1], traj.loss[-1]
        monotone = bool(np.all(np.diff(traj.off_support_mass) <= 1e-15))
        floor = float(entropy(target.q))
        good = (tv < 1e-6 and monotone and loss > floor)
        ok = ok and good
        details.append(
            f"{label}: tv={tv:.2e} steps={traj.loss.size - 1} "
            f"monotone={monotone} loss={loss:.6f}>H(q)={floor:.6f}")
    _report(11, "local student training", ok, " ".join(details))


def test_criterion_12_escort_and_entropy_response(make_dists):
    gen = np.random.default_rng(120)
    h = 1e-6
    worst_escort = 0.0
    worst_resp = 0.0
    min_resp = np.inf
    checked = 0
    for raw in make_dists(N_INSTANCES, zero_frac=0.0):
        p0 = Categorical(raw)
        v = p0.alphabet_size
        size = gen.integers(2, v + 1)
        members = tuple(np.sort(gen.choice(v, size=size, replace=False)))
        gamma = gen.uniform(0.3, 2.5)
        f = gen.normal(size=v)

        def mean_at(g):
            esc = escort_distribution(p0, members, g)
            return float((esc.probs[list(members)] * f[list(members)]).sum())

        fd = (mean_at(gamma + h) - mean_at(gamma - h)) / (2.0 * h)
        an = escort_sensitivity(p0, members, gamma, f)
        if abs(fd) > 1e-8:
            checked += 1
            worst_escort = max(worst_escort, abs(an - fd) / abs(fd))

        t = gen.uniform(0.4, 2.5)
        resp = entropy_temperature_response(p0, members, t)
        min_resp = min(min_resp, resp)
        fd_resp = (float(entropy(temper(p0, t + h, members)))
                   - float(entropy(temper(p0, t - h, members)))) / (2.0 * h)
        if abs(fd_resp) > 1e-8:
            worst_resp = max(worst_resp, abs(resp - fd_resp) / abs(fd_resp))
    ok = (worst_escort < 1e-6 and worst_resp < 1e-6
          and min_resp >= -1e-15 and checked >= 0.9 * N_INSTANCES)
    _report(12, "escort slope and entropy response", ok,
            f"escort rel {worst_escort:.3e}, response rel {worst_resp:.3e} "
            f"(both < 1e-6), min response {min_resp:.3e} >= 0, "
            f"{checked}/{N_INSTANCES} slopes checked")


def test_criterion_13_entropy_decomposition(make_dists):
    gen = np.random.default_rng(130)
    worst = 0.0
    for raw in make_dists(N_INSTANCES, zero_frac=0.0):
        p = Categorical(raw)
        v = p.alphabet_size
        size = gen.integers(1, v)
        members = tuple(np.sort(gen.choice(v, size=size, replace=False)))
        bd = entropy_decomposition(p, members)
        worst = max(worst, abs(bd.total - float(entropy(p))))
    ok = worst <= 1e-12
    _report(13, "entropy decomposition identity", ok,
            f"worst gap {worst:.3e} <= 1e-12 over {N_INSTANCES} instances")


def test_criterion_14_decode_rigidity(make_dists, teacher):
    gen = np.random.default_rng(140)
    orders = list(itertools.permutations(("temper", "top_k", "top_p")))
    worst = 0.0
    for raw in make_dists(N_INSTANCES, zero_frac=0.2):
        p = Categorical(raw)
        alpha = gen.uniform(0.3, 2.5)
        k = int(gen.integers(0, p.alphabet_size + 1))
        top_p = gen.uniform(0.5, 1.0)
        for order in orders:
            policy = decode_normal_form(p, order, alpha, k, top_p)
            worst = max(worst, power_rigidity_check(policy, p))
    rigidity_ok = worst <= 1e-10

    taus = (0.4, 0.7, 1.0, 1.5, 2.2, 3.0)
    curve_ok = True
    for raw in make_dists(100, seed=141, zero_frac=0.0):
        p = Categorical(raw)
        k = min(6, p.alphabet_size)
        curves = [prefix_mass_curve(p, tau, k) for tau in taus]
        for older, hotter in zip(curves, curves[1:]):
            curve_ok = curve_ok and bool(np.all(hotter <= older + 1e-12))

    upper_ok = True
    prev = np.inf
    for tau in taus:
        rep = feasible_topp_interval(
            teacher.lock.dist, 1, teacher.fork.dist, 2, tau, 8)
        upper_ok = upper_ok and rep.upper <= prev + 1e-12
        prev = rep.upper
    ok = rigidity_ok and curve_ok and upper_ok
    _report(14, "decode-only rigidity", ok,
            f"six-order rigidity {worst:.3e} <= 1e-10, prefix curves "
            f"nonincreasing={curve_ok}, feasibility upper bound "
            f"nonincreasing={upper_ok}")


def test_criterion_15_ideal_fit_and_local_gain(make_dists):
    gen = np.random.default_rng(150)
    worst_fit = 0.0
    worst_gain = 0.0
    for i, raw in enumerate(make_dists(N_INSTANCES, vmin=4, zero_frac=0.0)):
        p0 = Categorical(raw)
        if i % 4 == 0:
            cfg = DecodeConfig(temperature=1.0, top_p=gen.uniform(0.5, 0.95))
        elif i % 4 == 1:
            cfg = DecodeConfig(temperature=gen.uniform(0.5, 2.0), top_p=1.0)
        else:
            cfg = DecodeConfig(temperature=gen.uniform(0.5, 2.0),
                               top_p=gen.uniform(0.5, 0.95))
        target = ssd_target(p0, cfg)
        tau = (1.0, gen.uniform(0.4, 2.5))[i % 2]
        fitted = ideal_fit_eval(target, tau)
        composed = restrict(
            temper(target.source, cfg.temperature * tau), target.support)
        worst_fit = max(
            worst_fit, float(np.abs(fitted.probs - composed.probs).max()))

        size = min(2, len(target.support))
        event = tuple(np.sort(gen.choice(
            np.asarray(target.support), size=size, replace=False)))
        lg = local_gain(p0, cfg, tau, event)
        worst_gain = max(
            worst_gain,
            abs(lg.student_prob - lg.base_prob * lg.support_gain
                * lg.reshape_gain))
    ok = worst_fit <= 1e-12 and worst_gain <= 1e-12
    _report(15, "ideal fit and local gain", ok,
            f"composition gap {worst_fit:.3e}, gain identity gap "
            f"{worst_gain:.3e}, both <= 1e-12 over {N_INSTANCES} instances")


def test_criterion_16_sampler_accuracy():
    n = 1_000_000
    v = 16
    bound = 4.0 * np.sqrt(v / n)
    worst = 0.0
    for i in range(3):
        gen = np.random.default_rng(100 + i)
        p = Categorical(gen.dirichlet(np.full(v, 0.5)))
        draws = gumbel_max_sample(p, make_stream(200 + i), size=n)
        freq = np.bincount(draws, minlength=v) / n
        worst = max(worst, 0.5 * float(np.abs(freq - p.probs).sum()))
    ok = worst < bound
    _report(16, "sampler marginal accuracy", ok,
            f"worst TV {worst:.5f} < {bound:.5f} (n={n}, V={v})")


def test_criterion_17_cli_determinism_and_schemas(tmp_path):
    runs = {
        "sweep": ["toy-sweep", "--t-grid", "0.5:1.5:0.25",
                  "--top-p", "0.8"],
        "mc": ["toy-mc", "--temperature", "0.8", "--n", "20000",
               "--seed", "5"],
        "decompose": ["decompose", "--probs", "0.5,0.3,0.2",
                      "--student-probs", "0.4,0.4,0.2",
                      "--temperature", "0.7", "--top-p", "0.9"],
    }
    identical = True
    for name, argv in runs.items():
        for fmt in ("csv", "json"):
            paths = [tmp_path / f"{name}_{fmt}_{i}.out" for i in range(2)]
            for path in paths:
                code = main(argv + ["--format", fmt, "--output", str(path)])
                assert code == 0
            identical = identical and (paths[0].read_bytes()
                                       == paths[1].read_bytes())

    dump = tmp_path / "dump.jsonl"
    dump.write_text(json.dumps(
        {"context_id": "c1", "probs": [0.4, 0.3, 0.2, 0.1]}) + "\n")
    out = tmp_path / "dump_report.csv"
    code = main(["analyze-dump", "--input", str(dump), "--temperature", "0.9",
                 "--top-p", "0.8", "--output", str(out)])
    assert code == 0

    def header_of(path):
        with open(path, newline="") as fh:
            return next(csv.reader(fh))

    schema_ok = (
        header_of(tmp_path / "sweep_csv_0.out") == SWEEP_HEADER
        and SWEEP_HEADER == ["temperature", "top_p", "teacher_success",
                             "student_success", "gap"]
        and header_of(tmp_path / "decompose_csv_0.out") == DECOMPOSITION_HEADER
        and DECOMPOSITION_HEADER == ["step", "total", "gate", "reshape",
                                     "align", "on_support_tv",
                                     "off_support_mass"]
        and header_of(out) == DUMP_HEADER
        and DUMP_HEADER == ["context_id", "label", "kept_count", "kept_mass",
                            "head_entropy", "total_entropy", "top20_mass"]
        and header_of(tmp_path / "mc_csv_0.out") == ["role", "temperature",
                                                     "top_p", "n", "seed",
                                                     "estimate", "stderr",
                                                     "exact", "abs_error"])
    ok = identical and schema_ok
    _report(17, "deterministic reporting", ok,
            f"byte-identical reruns={identical}, schemas exact={schema_ok}")

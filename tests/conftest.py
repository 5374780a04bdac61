"""Shared fixtures: seeded generators and random distribution factories."""

import numpy as np
import pytest
from hypothesis import settings

from ssdlab.objective import LOGIT_FLOOR

MASTER_SEED = 20260819

# Property tests draw the same examples on every run and keep no example database.
settings.register_profile("ssdlab", derandomize=True, database=None)
settings.load_profile("ssdlab")


@pytest.fixture
def rng():
    return np.random.default_rng(MASTER_SEED)


@pytest.fixture
def make_dists():
    """Factory for batches of random probability vectors.

    Returns raw numpy arrays so tests can decide how to wrap them.
    `zero_frac` knocks a fraction of entries to exact zero before the
    final renormalization, exercising sparse-support code paths.
    """

    def factory(n, vmax=24, seed=MASTER_SEED, zero_frac=0.0, vmin=2):
        gen = np.random.default_rng(seed)
        batch = []
        for _ in range(n):
            size = int(gen.integers(vmin, vmax + 1))
            w = gen.dirichlet(np.full(size, 0.7))
            if zero_frac > 0.0 and size > 1:
                kill = gen.random(size) < zero_frac
                if kill.all():
                    kill[int(gen.integers(size))] = False
                w = np.where(kill, 0.0, w)
                w = w / w.sum()
            batch.append(w)
        return batch

    return factory


def _reference_student_steps(target, learning_rate, max_steps, tv_tolerance):
    """The local student's gradient descent in plain numpy, one temporary per operation.

    Yields (logits, loss, on-support TV, off-support mass) per step from step 0
    and stops where objective._student_steps stops on a run that neither
    diverges nor vanishes on the support, so its bits are the ones the
    package's loop must reproduce.
    """
    idx = np.flatnonzero(target.q.probs)
    qv = target.q.probs[idx]
    p0 = target.source.probs
    z = np.where(p0 > 0, np.log(np.maximum(p0, 1e-300)), LOGIT_FLOOR)
    for _ in range(max_steps + 1):
        w = np.exp(z - z.max())
        p = w / w.sum()
        p_s = p[idx]
        km = float(p_s.sum())
        cond = p_s / km
        tv = float(0.5 * np.abs(cond - qv).sum())
        yield z, float(-(qv * np.log(p_s)).sum()), tv, 1.0 - km
        if tv < tv_tolerance:
            return
        g = p.copy()
        g[idx] = -(1.0 - km) * cond + (cond - qv)
        z = z - learning_rate * g


@pytest.fixture
def reference_student_steps():
    return _reference_student_steps

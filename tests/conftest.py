"""Shared fixtures: seeded generators and random distribution factories."""

import numpy as np
import pytest
from hypothesis import settings

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

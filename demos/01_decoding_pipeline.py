"""
Walk one distribution through the decode pipeline
=================================================

Temperature reshapes, top-k and top-p truncate, Gumbel-max draws the token.
Every stage is an exact map on a categorical distribution, so each step
below can be printed and checked by hand.
"""

import numpy as np

from ssdlab import (
    Categorical,
    DecodeConfig,
    gumbel_max_sample,
    kept_mass,
    make_stream,
    retained_support,
    temper,
    top_k_set,
    top_p_set,
)

np.set_printoptions(precision=4, suppress=True)

# A 10-token head-heavy distribution, the typical shape after a softmax.
weights = np.array([0.34, 0.22, 0.14, 0.09, 0.07, 0.05, 0.04, 0.03, 0.01, 0.01])
p = Categorical(weights)
print("base distribution:", p.probs)

# Temperature acts in log space: probs ** (1/T), renormalized.
for t in (0.5, 1.0, 2.0):
    q = temper(p, t)
    print(f"T={t:.1f}  sharpened/flattened: {q.probs}")

# Cooling twice composes multiplicatively, so the pipeline can always be
# rewritten with a single effective temperature.
twice = temper(temper(p, 0.8), 0.6)
once = temper(p, 0.48)
print("composition gap:", np.abs(twice.probs - once.probs).max())

# top-k keeps the k largest indices; top-p keeps the smallest prefix of the
# descending ranking whose mass reaches the threshold.
print("top-3 indices:   ", top_k_set(p, 3))
print("top-0.6 indices: ", top_p_set(p, 0.6))
print("mass kept by top-0.6:", kept_mass(p, top_p_set(p, 0.6)))

# The full stack: temper, then top-k, then top-p.  retained_support returns
# the surviving indices (a read-only int64 array, most likely first), the
# mass they kept, and the renormalized operational distribution that the
# sampler actually uses.
cfg = DecodeConfig(temperature=0.7, top_k=6, top_p=0.85)
ret = retained_support(p, cfg)
print("\nconfig:", cfg)
print("support:", ret.support.tolist())
print("kept mass:", f"{ret.kept_mass:.4f}")
print("operational:", ret.operational.probs)

# Gumbel-max sampling: add Gumbel noise to the log-probs, take the argmax.
# The empirical marginal converges to the operational distribution.
rng = make_stream(seed=7)
draws = gumbel_max_sample(ret.operational, rng, size=200_000)
freq = np.bincount(draws, minlength=p.alphabet_size) / draws.size
tv = 0.5 * np.abs(freq - ret.operational.probs).sum()
print("\nempirical marginal:", freq)
print(f"total variation vs operational: {tv:.5f}")

# Tokens outside the retained support are never drawn.
outside = np.setdiff1d(np.arange(p.alphabet_size), ret.support)
print("draws outside support:", np.isin(draws, outside).sum())

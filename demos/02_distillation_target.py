"""
The self-distillation target and its three-term objective
==========================================================

Sampling from a truncated, tempered model defines a distribution; training
a student on those samples optimizes the cross-entropy against exactly that
distribution.  The loss splits into a support gate, a temperature reshape
bill, and an alignment divergence, plus a constant entropy term.
"""

import numpy as np

from ssdlab import (
    Categorical,
    DecodeConfig,
    entropy,
    gate_conditional_split,
    loss_gradient_logits,
    restrict,
    ssd_target,
    temper,
    three_term_decomposition,
    train_local_student,
)

np.set_printoptions(precision=4, suppress=True)

# A teacher conditional with a sharp head and a long tail.
p0 = Categorical(
    [0.40, 0.24, 0.13, 0.08, 0.05, 0.04, 0.03, 0.02, 0.005, 0.005])
cfg = DecodeConfig(temperature=0.8, top_p=0.9)

# The target is the tempered teacher restricted to the retained support.
target = ssd_target(p0, cfg)
print("retained support:", target.support.tolist())
print("target q:        ", target.q.probs)

# Decompose the loss for a mismatched student.
student = Categorical([0.25, 0.20, 0.15, 0.12, 0.08, 0.07, 0.06, 0.04,
                       0.02, 0.01])
bd = three_term_decomposition(target, student)
print("\ngate    (support cost):   ", f"{bd.gate:.6f}")
print("reshape (temperature bill):", f"{bd.reshape:.6f}")
print("align   (shape mismatch):  ", f"{bd.align:.6f}")
print("const   (target entropy):  ", f"{bd.const:.6f}")
print("total:                     ", f"{bd.total:.6f}")

# The same number computed two coarser ways.
gate, cond = gate_conditional_split(target, student)
direct = -(target.q.probs * np.log(student.probs)).sum()
print("gate + conditional:        ", f"{gate + cond:.6f}")
print("direct cross-entropy:      ", f"{direct:.6f}")

# The align term vanishes when the student matches the teacher conditional
# on the support, whatever the training temperature was.
conditional = restrict(p0, target.support)
bd_matched = three_term_decomposition(
    target, temper(conditional, 1.0))
print("\nalign at the bare conditional:", f"{bd_matched.align:.2e}")

# The gradient in logit space vanishes only at the tempered target itself.
grad_at_target = loss_gradient_logits(
    target, np.log(np.maximum(target.q.probs, 1e-300)))
print("gradient max-norm at q:", f"{np.abs(grad_at_target).max():.2e}")

# Train a softmax student by plain gradient descent.  Off-support mass can
# only decay like 1/step, so reaching a tight tolerance needs many steps.
traj = train_local_student(
    p0, cfg, learning_rate=4.0, max_steps=120_000, tv_tolerance=1e-6)
print("\nstep        loss   on-support TV   off-support mass")
steps = traj.loss.size  # one row per step, from step 0
for step in range(0, steps, max(1, steps // 8)):
    print(f"{step:>6}  {traj.loss[step]:.6f}   {traj.on_support_tv[step]:.3e}"
          f"      {traj.off_support_mass[step]:.3e}")
print(f"final   {traj.loss[-1]:.6f} vs target entropy {entropy(target.q):.6f}")

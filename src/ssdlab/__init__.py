"""Exact numerical laboratory for decoding operators and local self-distillation.

The package provides four layers:

- `categorical`: validated finite distributions and entropy/divergence helpers.
- `decode`: the temper / top-k / top-p / Gumbel-max pipeline and its
  normal-form and rigidity diagnostics.
- `objective`: the truncated-and-tempered training target, the exact
  gate + reshape + align loss decomposition, its logit gradient, and a
  deterministic local student trainer.
- `sensitivity`: escort-distribution response identities, entropy
  decompositions over a retained set, and top-p feasibility intervals.
- `toyfsm`: a 16-token chain-of-states world where every headline
  quantity has a closed form, plus Monte Carlo cross-checks.
"""

from . import categorical, decode, errors, objective, sensitivity, toyfsm

# Each module declares its public names in its own __all__; the package
# republishes them, which is the one use of wildcard imports PEP 8 allows.
from .categorical import *  # noqa: F403
from .decode import *  # noqa: F403
from .errors import *  # noqa: F403
from .objective import *  # noqa: F403
from .sensitivity import *  # noqa: F403
from .toyfsm import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (categorical, decode, errors, objective, sensitivity, toyfsm)
    for name in module.__all__
)

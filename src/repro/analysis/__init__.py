"""Static analysis for the repro invariants.

The serving stack's correctness rests on invariants no test exercises
directly: every random draw flows from one experiment seed, engine
mutations happen under the lock, snapshots capture all ``__init__``
state, nothing deserializes through pickle, stats keys declare how they
aggregate, neither the inference path nor the tune path builds an
autograd graph, and the layers sharing the base model never write it.
This package checks them structurally, with pure stdlib ``ast`` — run
``python -m repro.analysis`` (see ``__main__``).

Importing the package registers the built-in rules in :data:`RULES`;
importing :mod:`repro.analysis` never imports (or executes) the code it
analyzes.
"""

from .base import RULES, FileContext, Rule
from .engine import Report, Suppression, run_analysis
from .findings import Finding

# Importing the rule modules is what registers them.
from . import rules_rng  # noqa: F401  (registration side effect)
from . import rules_lock  # noqa: F401
from . import rules_snapshot  # noqa: F401
from . import rules_security  # noqa: F401
from . import rules_stats  # noqa: F401
from . import rules_inference  # noqa: F401
from . import rules_model  # noqa: F401

__all__ = [
    "RULES",
    "Rule",
    "FileContext",
    "Finding",
    "Report",
    "Suppression",
    "run_analysis",
]

"""Static analysis for the repro invariants.

The serving stack's correctness rests on invariants no test exercises
directly: every random draw flows from one experiment seed, engine
mutations happen under the lock, snapshots capture all ``__init__``
state, nothing deserializes through pickle, stats keys declare how they
aggregate, neither the inference path nor the tune path builds an
autograd graph, and the layers sharing the base model never write it.
This package checks them structurally, with pure stdlib ``ast`` — run
``python -m repro.analysis`` (see ``__main__``).

:data:`RULES` is the table of the built-in rules, keyed by each rule's
own ``rule_id``; importing :mod:`repro.analysis` never imports (or
executes) the code it analyzes.
"""

from .base import FileContext, Rule
from .engine import Report, Suppression, run_analysis
from .findings import Finding
from .rules_inference import GraphFreeInference, GraphFreeTuning
from .rules_lock import TrainingUnderLock, UnlockedPublicMutation
from .rules_model import ReadOnlyBaseModel
from .rules_rng import NumpyRandomOutsideUtils, WallClockInDeterministicPath
from .rules_security import NoCodeExecution
from .rules_snapshot import SnapshotCompleteness
from .rules_stats import UndeclaredStatKey

__all__ = [
    "RULES",
    "Rule",
    "FileContext",
    "Finding",
    "Report",
    "Suppression",
    "run_analysis",
]

# rule id -> Rule subclass; the engine instantiates each once per run.
RULES: dict[str, type[Rule]] = {rule.rule_id: rule for rule in (
    NumpyRandomOutsideUtils, WallClockInDeterministicPath,
    UnlockedPublicMutation, TrainingUnderLock, SnapshotCompleteness,
    NoCodeExecution, UndeclaredStatKey, GraphFreeInference, GraphFreeTuning,
    ReadOnlyBaseModel)}

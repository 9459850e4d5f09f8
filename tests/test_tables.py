"""The closed name tables: an unknown name is refused by name.

Models, devices, mitigations, retrieval strategies, presets and lint
rules are each a plain dict read through one lookup; a miss raises (or,
for a rule id in a suppression, fails the lint run) with a message that
lists every valid name.
"""

import pytest

from repro.analysis import RULES, run_analysis
from repro.core import FrameworkConfig
from repro.core.framework import _PRESETS
from repro.llm import MODEL_REGISTRY, build_model
from repro.mitigation import MITIGATION_REGISTRY, make_mitigation
from repro.nvm import NVM_DEVICES, get_device
from repro.retrieval import RETRIEVAL_REGISTRY


def _suppression_message(rule_id, tmp_path) -> str:
    """What the linter says of a suppression naming ``rule_id``."""
    path = tmp_path / "repro" / "core" / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text(f"x = 1  # repro: noqa[{rule_id}] typo in the rule id\n")
    report = run_analysis(tmp_path / "repro")
    assert [finding.rule for finding in report.findings] == ["SUP-002"]
    return report.findings[0].message


# table -> (an unknown name, the lookup that refuses it, the valid names);
# a rule id is looked up by the linter, from a suppression comment.
LOOKUPS = {
    "model": ("gpt-99", lambda name: build_model(name, vocab_size=10),
              MODEL_REGISTRY),
    "device": ("NVM-9", get_device, NVM_DEVICES),
    "mitigation": ("magic", lambda name: FrameworkConfig(mitigation=name),
                   MITIGATION_REGISTRY),
    "make_mitigation": ("magic", make_mitigation, MITIGATION_REGISTRY),
    "retrieval": ("ssa-coarse", lambda name: FrameworkConfig(retrieval=name),
                  RETRIEVAL_REGISTRY),
    "preset": ("table99", FrameworkConfig.preset, _PRESETS),
    "rule": ("XYZ-999", None, RULES),
}


@pytest.mark.parametrize("table", sorted(LOOKUPS))
def test_unknown_name_lists_the_valid_names(table, tmp_path):
    unknown, lookup, valid = LOOKUPS[table]
    if lookup is None:
        message = _suppression_message(unknown, tmp_path)
    else:
        with pytest.raises((KeyError, ValueError)) as info:
            lookup(unknown)
        message = str(info.value)
    assert unknown in message
    assert str(sorted(valid)) in message


def test_presets_are_the_two_in_use():
    assert sorted(_PRESETS) == ["fast", "table1"]

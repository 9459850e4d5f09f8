"""Engine behaviour: suppressions, CLI contract."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import run_analysis
from repro.analysis.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src"


def write_tree(tmp_path, files):
    root = tmp_path / "repro"
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return root


BAD_RNG = """\
    import numpy as np
    r = np.random.default_rng()
"""


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppression_without_reason_is_sup_001(tmp_path):
    root = write_tree(tmp_path, {"llm/bad.py": """\
        import numpy as np
        r = np.random.default_rng()  # repro: noqa[RNG-001]
    """})
    report = run_analysis(root)
    assert [f.rule for f in report.findings] == ["SUP-001"]
    # the RNG finding itself is waived, but the naked waiver fails the run
    assert len(report.suppressed) == 1
    assert not report.ok


def test_unused_suppression_is_sup_002(tmp_path):
    root = write_tree(tmp_path, {"llm/fine.py": """\
        x = 1  # repro: noqa[RNG-001] nothing here anymore
    """})
    report = run_analysis(root)
    assert [f.rule for f in report.findings] == ["SUP-002"]
    assert not report.ok


def test_suppression_inside_string_literal_is_ignored(tmp_path):
    root = write_tree(tmp_path, {"llm/docs.py": '''\
        SYNTAX = "# repro: noqa[RNG-001] not a real comment"
    '''})
    report = run_analysis(root)
    assert report.findings == []
    assert report.ok


def test_suppression_only_matches_its_rule(tmp_path):
    root = write_tree(tmp_path, {"llm/bad.py": """\
        import numpy as np
        r = np.random.default_rng()  # repro: noqa[SEC-001] wrong rule
    """})
    report = run_analysis(root)
    rules = sorted(f.rule for f in report.findings)
    assert rules == ["RNG-001", "SUP-002"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_json_format_and_exit_codes(tmp_path, capsys):
    root = write_tree(tmp_path, {"llm/bad.py": BAD_RNG})
    code = main(["--root", str(root), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    assert payload["findings"][0]["rule"] == "RNG-001"


def test_cli_output_file(tmp_path, capsys):
    root = write_tree(tmp_path, {"llm/fine.py": "x = 1\n"})
    out_path = tmp_path / "findings.json"
    code = main(["--root", str(root), "--output", str(out_path)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out_path.read_text())["ok"] is True


# ----------------------------------------------------------------------
# The shipped tree
# ----------------------------------------------------------------------
def test_shipped_tree_is_clean():
    """`python -m repro.analysis` exits 0 on the repository as shipped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT)
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--format", "json"],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["ok"] is True
    # every suppression in the tree carries a reason (SUP-001 is a
    # finding, so ok=True already implies it — assert explicitly anyway)
    assert all(entry["reason"] for entry in payload["suppressed"])


def test_reintroducing_bare_random_in_gateway_client_fails(tmp_path):
    """The PR-8 satellite bug, resurrected in a copy, must be caught."""
    copy_root = tmp_path / "repro"
    shutil.copytree(SRC_ROOT / "repro", copy_root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    client = copy_root / "gateway" / "client.py"
    client.write_text(client.read_text() + textwrap.dedent("""\

        import random

        def _legacy_jitter():
            return random.random()
    """))
    report = run_analysis(copy_root)
    assert not report.ok
    hits = [f for f in report.findings
            if f.rule == "RNG-002" and f.file == "repro/gateway/client.py"]
    assert len(hits) == 2  # the import and the draw

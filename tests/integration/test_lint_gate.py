"""Integration: the lint gate over the real repository.

Mirrors the CI step: ``python -m repro lint`` from the repo root must
come out clean against the committed baseline, and a deliberately
planted violation must fail the gate.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import Baseline, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "lint_baseline.json"


@pytest.mark.skipif(not SRC.is_dir(), reason="needs a source checkout")
class TestRepoIsClean:
    def test_linter_is_clean_on_the_whole_repo(self):
        result = lint_paths([SRC], display_root=REPO_ROOT)
        diff = Baseline.load(BASELINE).diff(result.findings)
        assert diff.new == [], "\n".join(
            f"{f.location()}: [{f.rule}] {f.message}" for f in diff.new
        )

    def test_baseline_has_no_stale_entries(self):
        result = lint_paths([SRC], display_root=REPO_ROOT)
        diff = Baseline.load(BASELINE).diff(result.findings)
        assert diff.stale == []

    def test_every_rule_ran(self):
        result = lint_paths([SRC], display_root=REPO_ROOT)
        assert set(result.rules) == {
            "rng-discipline",
            "backend-bypass",
            "nondeterministic-iteration",
            "secret-dependent-branch",
            "float-budget",
            "fan-out-mutation",
            "trace-hygiene",
        }
        assert result.files > 50


@pytest.mark.skipif(not SRC.is_dir(), reason="needs a source checkout")
class TestGateCatchesViolations:
    def _run_gate(self, tree: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--json", "src/repro"],
            cwd=tree,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_planted_violation_fails_the_gate(self, tmp_path):
        # Copy the tree, plant `import random` in a core module — the
        # exact regression the CI step exists to catch.
        tree = tmp_path / "checkout"
        (tree / "src").mkdir(parents=True)
        shutil.copytree(SRC, tree / "src" / "repro")
        shutil.copy(BASELINE, tree / "lint_baseline.json")
        victim = tree / "src" / "repro" / "core" / "dp_ir.py"
        victim.write_text(
            "import random\n" + victim.read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        completed = self._run_gate(tree)
        assert completed.returncode == 1, completed.stdout + completed.stderr
        payload = json.loads(completed.stdout)
        new_rules = {finding["rule"] for finding in payload["findings"]}
        assert "rng-discipline" in new_rules

    def test_unmodified_tree_passes_the_gate(self, tmp_path):
        tree = tmp_path / "checkout"
        (tree / "src").mkdir(parents=True)
        shutil.copytree(SRC, tree / "src" / "repro")
        shutil.copy(BASELINE, tree / "lint_baseline.json")
        completed = self._run_gate(tree)
        assert completed.returncode == 0, completed.stdout + completed.stderr

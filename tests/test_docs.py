"""Documentation sanity tests: the README code blocks actually run.

A reproduction is only usable if its front-door documentation is correct;
these tests extract the Python code blocks from README.md and execute them,
and check that the documented CLI entry points exist.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
README = REPO_ROOT / "README.md"


def python_code_blocks():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert blocks, "README.md should contain python code blocks"
    return blocks


class TestReadme:
    def test_readme_exists_and_mentions_paper(self):
        text = README.read_text()
        assert "Scheduling with Storage Constraints" in text
        assert "IPDPS" in text

    @pytest.mark.parametrize("index", range(len(python_code_blocks())))
    def test_python_blocks_execute(self, index):
        block = python_code_blocks()[index]
        namespace: dict = {}
        exec(compile(block, f"README-block-{index}", "exec"), namespace)  # noqa: S102

    def test_design_and_experiments_docs_exist(self):
        assert (REPO_ROOT / "DESIGN.md").exists()
        assert (REPO_ROOT / "EXPERIMENTS.md").exists()
        design = (REPO_ROOT / "DESIGN.md").read_text()
        # Every experiment id referenced by the harness is indexed in DESIGN.md.
        for exp_id in ("FIG-1", "FIG-2", "FIG-3", "EXT-T1", "EXT-T2", "EXT-T3", "EXT-T4",
                       "EXT-A1", "EXT-A2", "EXT-A3", "EXT-A4", "EXT-O1", "EXT-P1"):
            assert exp_id in design, exp_id

    def test_experiments_md_reports_matches(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        assert "MISMATCH" not in text
        assert "FIG-3" in text


class TestCLIEntryPoint:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0
        for command in ("generate", "solve", "experiments", "report"):
            assert command in proc.stdout

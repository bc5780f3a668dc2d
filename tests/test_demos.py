"""Smoke test: every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script, tmp_path):
    # A temporary working directory keeps the CSVs some demos write out of
    # the checkout; the package is imported from src/.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_quick_start_runs(capsys):
    # README's Python block runs as written, and its certified reduction
    # applies to the election it shows.
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    form = namespace["form"]
    assert f"True {form.election.positions}" in capsys.readouterr().out.splitlines()

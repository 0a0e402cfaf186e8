"""Every demo script, and the README's quick start, runs against the package sources."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_its_commented_results():
    # each result line of the quick-start block ends in a comment holding the
    # repr of its value; the block runs with each such line printed
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    expected, lines = [], []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if comment.startswith("array("):
            expected.append(comment)
            code = f"print(repr({code.strip()}))"
        lines.append(code)
    assert expected == ["array([-43.53977747])", "array([-43.5397775])"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == expected

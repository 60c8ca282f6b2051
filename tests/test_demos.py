"""Every demo script and the README's library quick start run to completion
from a clean working directory."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=src_env(),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Run in tmp_path: demos write their artifacts (demo_out/) into the cwd.
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_library_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    proc = run_python(["-c", blocks[0]], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"\d+\.\d\d%", proc.stdout.strip())

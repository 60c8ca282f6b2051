"""The benchmark's self-test passes against this tree.

The benchmark's tracer looks library functions up by name (among them
`groups.expand`, `groups.accumulate`, `dbn._armijo` and `dbn._loss_only`),
so renaming or deleting one must fail here, not only in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # The self-test finds the library under src/ itself and writes only
    # temporary directories under .bench_out/.
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout

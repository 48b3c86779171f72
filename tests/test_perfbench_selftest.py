"""The benchmark's own self-test (``perfbench/selftest.py``) as part of the suite.

It checks that tampered answers count as failed and that the span tracer sees
``to_gfp -> GfpMatrix.from_rows -> rank_gfp`` in that order, so a refactor that
bypasses a traced function fails here and not only in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr

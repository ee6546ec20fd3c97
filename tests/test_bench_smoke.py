"""The benchmark harness's self-test runs every workload at tiny size.

A renamed or removed library name that a benchmark probe resolves would
otherwise only null a per-layer metric; here it fails the suite.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_all_ok():
    proc = subprocess.run([sys.executable, "bench/run.py", "--selftest"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    assert lines, proc.stdout[-2000:] + proc.stderr[-2000:]
    for line in lines:
        assert line["ok"] is True, line
        assert not line["absent"], line
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]

"""The benchmark in ``perfbench/`` still runs on this source tree.

The benchmark calls ``apply_all``, ``explore`` and ``RuleGraph.left_pattern``
positionally, so a change to those signatures would only show when the
benchmark runs.  Each test runs a benchmark script in its own process, as
the benchmark itself does: the output checks' self-test, and a one-second
run of each workload whose round fits in that second.  ``--seconds 1``
rather than 0: a run that ends before its first reference slice has no
slice times to take a median of.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_script(tmp_path: Path, name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(PERFBENCH / name), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


def test_selftest_passes(tmp_path):
    proc = run_script(tmp_path, "selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 wrong verdicts"


@pytest.mark.parametrize("workload", ["formose-cap", "canon", "rewrite"])
def test_short_run_is_correct(tmp_path, workload):
    proc = run_script(tmp_path, "run.py", "--workload", workload,
                      "--seed", "1", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert (report["correct"], report["failed"]) == (True, 0)

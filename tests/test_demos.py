"""Every demo script runs to completion at a small size."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# each demo with arguments that keep it to about a second
DEMOS = {
    "auctions_demo.py": ["--n", "8"],
    "load_majorization.py": ["--trials", "50"],
    "matching_truncation.py": ["--n", "60"],
    "rsd_lottery.py": ["--n", "100"],
    "scheduling_payments.py": ["--m", "60"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


def _run(demo: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *DEMOS[demo]],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), demo


def test_scheduling_demo_prints_the_exhibit_heights():
    # machine 1 bids 8, then 9: the floored rule keeps its height, the
    # unfloored rule takes a job from it
    proc = _run("scheduling_payments.py")
    assert proc.returncode == 0, proc.stderr
    assert re.findall(r"heights (\(.*\))", proc.stdout) == [
        "(3, 4, 18)", "(3, 4, 18)", "(2, 5, 18)", "(2, 4, 19)",
    ]

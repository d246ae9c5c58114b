"""Every demo script runs to completion against the shipped fixtures and prints pinned bytes."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout. A demo prints the same bytes on every run, so
# a change here is a change in what the engine decides, scores or writes.
STDOUT_SHA256 = {
    "01_route_one_task.py": "d454e457f243600452518ac54c2f7f9503e684cb014d27b69123fabb71bcccb0",
    "02_predicate_language.py": "7cd87dde968396fc701963f67817f81ef1899eef615ba28fc217cfbad2e4ce54",
    "03_probe_lifecycle.py": "91f08c1f8471bfe6f9eefaa19fc2d52197ff8caca7883943b7a40ff962fbacb4",
    "04_benchmark_matrix.py": "88fec3e8607c4a5e8721deeba3559feb19dc8dc67c08648493fbcba4ede2bb73",
    "05_failure_bank.py": "d35768c7f989afc513420b5604316b14e95dc704ff49fcaf6265fe5db8633d72",
}


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Each demo's finished process, run once per module, and its TMPDIR."""
    runs: dict[str, tuple[subprocess.CompletedProcess, Path]] = {}

    def run(demo: Path) -> tuple[subprocess.CompletedProcess, Path]:
        if demo.name not in runs:
            # TMPDIR points the demo's tempfile calls at a directory of its
            # own, which must be empty again when the demo exits.
            cwd = tmp_path_factory.mktemp(demo.stem)
            temp = cwd / "tmp"
            temp.mkdir()
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(temp))
            proc = subprocess.run(
                [sys.executable, str(demo)],
                cwd=cwd,
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            runs[demo.name] = proc, temp
        return runs[demo.name]

    return run


def test_demos_found():
    assert DEMOS
    assert sorted(STDOUT_SHA256) == [demo.name for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_zero(demo, demo_runs):
    proc, temp = demo_runs(demo)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert list(temp.iterdir()) == []


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_prints_the_pinned_stdout(demo, demo_runs):
    proc, _ = demo_runs(demo)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]

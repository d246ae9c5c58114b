"""The package's public surface: what `from mesa import *` exports."""

from __future__ import annotations

import inspect
import subprocess
import sys
from pathlib import Path

import mesa

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs with -I -S: no site-packages, no PYTHONPATH, no user site. Only the
# standard library and src are importable, so any third-party import fails.
_STDLIB_ONLY_RUN = """
import pkgutil, sys
from importlib.resources import files
sys.path.insert(0, {src!r})
import mesa.cli
# Every module in the package is one the CLI loads.
loaded = {{name for name in sys.modules if name.startswith("mesa.")}}
shipped = {{"mesa." + module.name for module in pkgutil.iter_modules(mesa.__path__)}}
assert loaded == shipped, (sorted(shipped - loaded), sorted(loaded - shipped))
data = files("mesa") / "data"
raise SystemExit(mesa.cli.dispatch([
    "eval",
    "--suite", str(data / "suite_mini.json"),
    "--cards", str(data / "cards_mini.json"),
    "--script", str(data / "script_mini.json"),
    "--expected-per-slice", "0",
]))
"""


def test_every_export_resolves_once_in_sorted_order():
    exported = mesa.__all__
    assert [name for name in exported if not hasattr(mesa, name)] == []
    assert len(exported) == len(set(exported))
    assert exported == sorted(exported)


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(mesa).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(mesa.__all__)


def test_every_module_imports_and_eval_runs_with_the_standard_library_only():
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _STDLIB_ONLY_RUN.format(src=str(SRC))],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rows = {name: cells for name, *cells in map(str.split, proc.stdout.splitlines()[1:])}
    assert proc.stdout.splitlines()[0].split() == ["condition", "slice_B", "slice_C", "overall"]
    assert rows == {
        "baseline": ["0.500", "0.000", "0.250"],
        "reflection": ["0.500", "0.000", "0.250"],
        "no_probe": ["1.000", "1.000", "1.000"],
        "no_vigilance": ["1.000", "1.000", "1.000"],
        "no_decontam": ["0.500", "1.000", "0.750"],
        "no_dualconf": ["1.000", "1.000", "1.000"],
        "full": ["1.000", "1.000", "1.000"],
    }

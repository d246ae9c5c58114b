"""
The benchmark matrix: seven conditions, three slices, one table
===============================================================

The data files shipped in the package's data/ directory define a 150-item
suite (three slices of 50), a card registry, and a behavior script that
pins every model signal, so a full run is deterministic and needs no
network. The demo finds them with importlib.resources, as any installed
copy of mesa can. It runs all seven conditions, prints the accuracy
table, then asks whether the gap between two ablations on the adversarial
slice is statistically significant.

Run with: python3 demos/04_benchmark_matrix.py
"""

from __future__ import annotations

from importlib.resources import files

from mesa import (
    condition_by_name,
    emit_report,
    load_registry,
    load_script,
    load_suite,
    run_matrix,
    two_prop_ztest,
)

# ---------------------------------------------------------------------------
# Load the shipped data.

data = files("mesa") / "data"
suite = load_suite(data / "suite.json")
registry = load_registry(data / "cards.json")
script = load_script(data / "script.json")
print(f"suite: {len(suite)} items, registry: {len(list(registry))} cards")

# ---------------------------------------------------------------------------
# Run the full matrix: 7 conditions x 150 items = 1050 trajectories. The
# two naive baselines ignore cost and trust; each no_* condition disables
# exactly one safeguard of the full engine.

table = run_matrix(suite, registry, script)
print()
print(emit_report(table, "text"))

# Reading the table: the baselines fail the entire adversarial slice (B),
# because nothing stops a plausible-looking malicious card. Disabling the
# probe leaks the ten HTML items; disabling vigilance loads every stale or
# low-trust card that flatters itself. The full engine is clean.

# ---------------------------------------------------------------------------
# Is the no_probe vs no_vigilance gap on slice B real or noise? Count the
# slice-B successes of each and run a two-proportion z-test.


def slice_b_correct(condition: str) -> int:
    return sum(
        1
        for it in table.items
        if it.condition == condition and it.slice == "B" and it.outcome == "correct"
    )


k1, k2 = slice_b_correct("no_probe"), slice_b_correct("no_vigilance")
result = two_prop_ztest(k1, 50, k2, 50)
print(f"slice B: no_probe {k1}/50 vs no_vigilance {k2}/50")
print(f"two-proportion z = {result.z:.4f}, two-sided p = {result.p_two_sided:.2e}")
print(f"significant at the 0.01 level: {result.p_two_sided < 0.01}")

# ---------------------------------------------------------------------------
# Conditions are first-class values, so a subset run is just a shorter list.

quick = run_matrix(
    suite, registry, script,
    conditions=[condition_by_name("baseline"), condition_by_name("full")],
)
print()
print(emit_report(quick, "text"))

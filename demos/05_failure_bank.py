"""
The failure bank: confident mistakes decay the trust that caused them
=====================================================================

Failures an agent commits to with high confidence are the ones worth
studying. This demo runs the three-item mini suite, shipped in the
package's data/ directory and found with importlib.resources, with
decontamination switched off, which lets one skill card talk the agent
into a confident wrong answer. The failure lands in an append-only bank
file, the hypercorrection rule turns it into a trust decay, and applying
the decay rewrites the card file so the vigilance gate blocks that card
next time.

Run with: python3 demos/05_failure_bank.py
"""

from __future__ import annotations

import shutil
import tempfile
from importlib.resources import files
from pathlib import Path

from mesa import (
    ActionVariant,
    BankConfig,
    BankEntry,
    RoutingConfig,
    ScriptedBackend,
    StaleTrustError,
    apply_updates,
    condition_by_name,
    effective_trust,
    hypercorrection_updates,
    load_registry,
    load_script,
    load_suite,
    read_bank,
    record,
    run_trajectory,
)

data = files("mesa") / "data"

# The bank and the rewritten card file live in a scratch directory that is
# removed when the demo ends.
scratch = tempfile.TemporaryDirectory(prefix="mesa_demo_")
workdir = Path(scratch.name)
bank_path = workdir / "failures.jsonl"
cards_path = workdir / "cards_mini.json"
shutil.copy(data / "cards_mini.json", cards_path)

# ---------------------------------------------------------------------------
# Run the mini suite with decontamination disabled and bank every record.
# The implicated card, when there is one, is the skill the final decision
# loaded.

suite = load_suite(data / "suite_mini.json", expected_per_slice=None)
registry = load_registry(cards_path)
script = load_script(data / "script_mini.json")
condition = condition_by_name("no_decontam")
backend = ScriptedBackend(script, suite, condition.name.value)

for item in suite:
    rec = run_trajectory(item, registry, backend, RoutingConfig(), condition)
    chosen = rec.decisions[-1].chosen
    implicated = chosen.card_id if chosen.variant is ActionVariant.LOAD_SKILL else None
    seq = record(BankEntry(trajectory=rec, implicated_card=implicated), bank_path)
    print(
        f"[{seq}] {item.id}: {rec.outcome.value} at terminal "
        f"confidence {rec.terminal_confidence:.2f} (card: {implicated})"
    )

# ---------------------------------------------------------------------------
# Read the bank back and apply the hypercorrection rule: only failures,
# only confident ones (terminal >= 0.8), only with a card to blame. The
# m_sdk run also loaded a card confidently, but it succeeded, so it does
# not appear below.

entries = read_bank(bank_path)
updates = hypercorrection_updates(entries, BankConfig(), registry)
print(f"\n{len(entries)} banked records -> {len(updates)} trust update(s)")
for update in updates:
    print(
        f"  {update.card_id}: {update.old_trust:.3f} -> {update.new_trust:.3f} "
        f"({update.reason})"
    )

# ---------------------------------------------------------------------------
# Apply the decay. The rewrite is atomic, keeps a .bak of the prior file,
# and checks old_trust still matches before touching anything, so a stale
# batch can never clobber a concurrent edit.

apply_updates(cards_path, updates)
print(f"\nbackup kept at {cards_path.name}.bak: {(workdir / 'cards_mini.json.bak').exists()}")

try:
    apply_updates(cards_path, updates)
except StaleTrustError as err:
    print(f"second apply rejected: {err}")

# ---------------------------------------------------------------------------
# The loop closes: reload the registry and the decayed card now sits below
# the 0.7 vigilance gate, so the full engine will refuse to load it.

gate = RoutingConfig().trust_gate
for card in load_registry(cards_path):
    verdict = "passes" if effective_trust(card) >= gate else "GATED"
    print(f"{card.id}: effective trust {effective_trust(card):.3f} -> {verdict}")

scratch.cleanup()

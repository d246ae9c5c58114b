"""The bytes mesa writes to disk, pinned by digest.

Round-trip tests cannot see a key renamed on both the encode and the decode
side; these digests can. They cover the machine report of the shipped
7-condition matrix, a failure bank built by record() from shipped-suite
trajectories and a record/replay cache recorded from mini-suite
trajectories. A digest changes only when a record format changes on purpose,
and such a change belongs in CHANGES.md with its new digest.
"""

from __future__ import annotations

import hashlib

from mesa.backend import CachedBackend, ScriptedBackend
from mesa.bank import BankEntry, read_bank, record
from mesa.bench import CONDITIONS, condition_by_name, emit_report, run_matrix
from mesa.router import ActionVariant, RoutingConfig, run_trajectory

REPORT_SHA256 = "20d356ecadd03f80df07031b01834eec8a24eedfd570a962127f2910b4bdcc86"
BANK_SHA256 = "9bbcb38b61ea9b02a6467d6cb42f9b1a43bca6a03ace07c9034456904454b722"
CACHE_SHA256 = "eea6acb0483497a8da46e3df49a73d375671e60ef7ab997707cb18326b778d74"

# Conditions whose trajectories fill the bank and the cache: reflection
# records two decisions per task, full records probe traces and gated cards.
_BANK_CONDITIONS = ("reflection", "full")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_shipped_matrix_machine_report_bytes(shipped_suite, shipped_registry, shipped_script):
    table = run_matrix(shipped_suite, shipped_registry, shipped_script, CONDITIONS)
    document = emit_report(table, "machine")
    assert _sha256(document.encode("utf-8")) == REPORT_SHA256


def test_failure_bank_bytes(tmp_path, shipped_suite, shipped_registry, shipped_script):
    records = []
    conditions = [cond for cond in CONDITIONS if cond.name.value in _BANK_CONDITIONS]
    run_matrix(shipped_suite, shipped_registry, shipped_script, conditions, on_record=records.append)
    entries = []
    for trajectory in records:
        chosen = trajectory.decisions[-1].chosen
        card = chosen.card_id if chosen.variant is ActionVariant.LOAD_SKILL else None
        entries.append(BankEntry(trajectory=trajectory, implicated_card=card))

    path = tmp_path / "bank.jsonl"
    for seq, entry in enumerate(entries):
        assert record(entry, path) == seq
    assert _sha256(path.read_bytes()) == BANK_SHA256
    assert read_bank(path) == [
        BankEntry(entry.trajectory, entry.implicated_card, seq) for seq, entry in enumerate(entries)
    ]


def test_recorded_cache_bytes(tmp_path, mini_suite, mini_registry, mini_script):
    path = tmp_path / "cache.jsonl"

    def run(backend_for):
        return [
            run_trajectory(item, mini_registry, backend_for(name), cfg, condition_by_name(name))
            for name in _BANK_CONDITIONS
            for item in mini_suite
        ]

    cfg = RoutingConfig()
    recorded = run(lambda name: CachedBackend(ScriptedBackend(mini_script, mini_suite, name), path))
    assert _sha256(path.read_bytes()) == CACHE_SHA256
    replayer = CachedBackend(None, path)
    assert run(lambda name: replayer) == recorded

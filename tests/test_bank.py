"""Failure bank: durable appends, hypercorrection, optimistic trust rewrites."""

from __future__ import annotations

import json
import os

import pytest

from mesa.bank import (
    BankConfig,
    BankEntry,
    TrustUpdate,
    apply_updates,
    hypercorrection_updates,
    read_bank,
    record,
)
from mesa.cards import CardRegistry, load_registry
from mesa.errors import BankCorruptionError, RegistryLookupError, StaleTrustError
from mesa.router import (
    Action,
    ActionVariant,
    Decision,
    FinalAnswerClass,
    Outcome,
    TrajectoryRecord,
)

from conftest import make_card


def make_record(
    item_id: str = "t1",
    outcome: Outcome = Outcome.INCORRECT,
    terminal: float = 0.95,
    condition: str = "full",
) -> TrajectoryRecord:
    chosen = Action(ActionVariant.LOAD_SKILL, card_id="c", cost=0.5)
    return TrajectoryRecord(
        item_id=item_id,
        condition=condition,
        decisions=(Decision(chosen=chosen, scores={"LOAD_SKILL:c": 0.2}),),
        p_self_pre=0.3,
        p_self_post_decontaminated=terminal,
        final_answer_class=FinalAnswerClass.SKILL_LOADED,
        outcome=outcome,
        terminal_confidence=terminal,
        answer="something",
    )


def make_entry(card: str | None = "c", **kwargs) -> BankEntry:
    return BankEntry(trajectory=make_record(**kwargs), implicated_card=card)


@pytest.fixture()
def bank_path(tmp_path):
    return tmp_path / "bank.jsonl"


# ---------------------------------------------------------------------------
# Append and read


def test_record_assigns_increasing_sequence(bank_path):
    assert record(make_entry(item_id="a"), bank_path) == 0
    assert record(make_entry(item_id="b"), bank_path) == 1
    assert record(make_entry(item_id="c"), bank_path) == 2
    entries = read_bank(bank_path)
    assert [e.recorded_at for e in entries] == [0, 1, 2]
    assert [e.trajectory.item_id for e in entries] == ["a", "b", "c"]


def test_record_restamps_recorded_at(bank_path):
    entry = BankEntry(trajectory=make_record(), implicated_card="c", recorded_at=99)
    assert record(entry, bank_path) == 0
    assert read_bank(bank_path)[0].recorded_at == 0


def test_round_trip_preserves_entry(bank_path):
    entry = make_entry(item_id="keep", terminal=0.91)
    record(entry, bank_path)
    loaded = read_bank(bank_path)[0]
    assert loaded.trajectory == entry.trajectory
    assert loaded.implicated_card == "c"


def test_read_empty_bank(bank_path):
    bank_path.write_bytes(b"")
    assert read_bank(bank_path) == []


def test_truncation_at_every_byte_never_corrupts(bank_path, caplog):
    """A crash mid-append must never make earlier records unreadable."""
    for i in range(3):
        record(make_entry(item_id=f"t{i}"), bank_path)
    data = bank_path.read_bytes()
    boundaries = [i + 1 for i, b in enumerate(data) if b == ord("\n")]
    for cut in range(len(data) + 1):
        bank_path.write_bytes(data[:cut])
        entries = read_bank(bank_path)
        survived = sum(1 for b in boundaries if b <= cut)
        assert len(entries) == survived, f"cut at byte {cut}"
        assert [e.recorded_at for e in entries] == list(range(survived))


def test_append_after_torn_tail_overwrites_nothing(bank_path):
    record(make_entry(item_id="a"), bank_path)
    data = bank_path.read_bytes()
    bank_path.write_bytes(data + b'{"half": ')
    # The torn tail has no newline, so the next append glues onto it;
    # reading before repairing sees only the intact record.
    assert [e.trajectory.item_id for e in read_bank(bank_path)] == ["a"]



def test_sequence_after_glued_torn_tail_counts_lines(bank_path):
    record(make_entry(item_id="a"), bank_path)
    bank_path.write_bytes(bank_path.read_bytes() + b'{"half": ')
    assert record(make_entry(item_id="b"), bank_path) == 1
    # The last line is now the torn bytes glued to b; it has no readable
    # sequence number, so the next append counts lines instead.
    assert record(make_entry(item_id="c"), bank_path) == 2


def test_sequence_continues_past_a_long_record(bank_path):
    record(make_entry(item_id="a"), bank_path)
    record(make_entry(item_id="b" * 20_000), bank_path)
    assert record(make_entry(item_id="c"), bank_path) == 2
    assert [e.recorded_at for e in read_bank(bank_path)] == [0, 1, 2]


def test_append_reads_only_the_journal_tail(bank_path, monkeypatch):
    for i in range(40):
        record(make_entry(item_id=f"t{i}"), bank_path)
    size = bank_path.stat().st_size
    reads = []
    real_pread = os.pread
    monkeypatch.setattr(os, "pread", lambda fd, n, offset: reads.append(n) or real_pread(fd, n, offset))
    assert record(make_entry(item_id="last"), bank_path) == 40
    assert reads and max(reads) < size // 2

def test_mid_file_damage_is_corruption(bank_path):
    for i in range(3):
        record(make_entry(item_id=f"t{i}"), bank_path)
    lines = bank_path.read_bytes().split(b"\n")
    lines[0] = b"garbage"
    bank_path.write_bytes(b"\n".join(lines))
    with pytest.raises(BankCorruptionError, match="line 0"):
        read_bank(bank_path)


def test_sequence_mismatch_is_corruption(bank_path):
    record(make_entry(), bank_path)
    line = bank_path.read_bytes()
    bank_path.write_bytes(line + line)  # second record replays seq 0
    with pytest.raises(BankCorruptionError, match="sequence mismatch at line 1"):
        read_bank(bank_path)


# ---------------------------------------------------------------------------
# Hypercorrection rule


def _registry(trust=0.8):
    return CardRegistry(cards=(make_card("c", source_trust=trust),))


def test_update_fires_on_confident_implicated_failure():
    updates = hypercorrection_updates([make_entry()], BankConfig(), _registry())
    assert len(updates) == 1
    update = updates[0]
    assert update.card_id == "c"
    assert update.old_trust == pytest.approx(0.8)
    assert update.new_trust == pytest.approx(0.4)
    assert "t1" in update.reason


def test_no_update_below_threshold():
    entries = [make_entry(terminal=0.5)]
    assert hypercorrection_updates(entries, BankConfig(), _registry()) == []


def test_threshold_is_inclusive():
    at = hypercorrection_updates(
        [make_entry(terminal=0.8)], BankConfig(), _registry()
    )
    below = hypercorrection_updates(
        [make_entry(terminal=0.79)], BankConfig(), _registry()
    )
    assert len(at) == 1 and below == []


def test_no_update_on_success():
    entries = [make_entry(outcome=Outcome.CORRECT, terminal=0.99)]
    assert hypercorrection_updates(entries, BankConfig(), _registry()) == []


def test_no_update_without_implicated_card():
    entries = [make_entry(card=None), make_entry(card="")]
    assert hypercorrection_updates(entries, BankConfig(), _registry()) == []


def test_batch_chains_geometrically():
    entries = [make_entry(item_id=f"t{i}") for i in range(3)]
    updates = hypercorrection_updates(entries, BankConfig(), _registry())
    assert [u.old_trust for u in updates] == pytest.approx([0.8, 0.4, 0.2])
    assert [u.new_trust for u in updates] == pytest.approx([0.4, 0.2, 0.1])
    assert updates[-1].new_trust == pytest.approx(0.8 * 0.5**3)


def test_chaining_is_per_card():
    registry = CardRegistry(
        cards=(make_card("c", source_trust=0.8), make_card("d", source_trust=0.6))
    )
    entries = [make_entry(card="c"), make_entry(card="d"), make_entry(card="c")]
    updates = hypercorrection_updates(entries, BankConfig(), registry)
    by_card = {}
    for update in updates:
        by_card.setdefault(update.card_id, []).append(update)
    assert [u.new_trust for u in by_card["c"]] == pytest.approx([0.4, 0.2])
    assert [u.new_trust for u in by_card["d"]] == pytest.approx([0.3])


def test_custom_decrement_factor():
    cfg = BankConfig(decrement_factor=0.25)
    updates = hypercorrection_updates([make_entry()], cfg, _registry())
    assert updates[0].new_trust == pytest.approx(0.8 * 0.75)


def test_bank_config_validation():
    with pytest.raises(ValueError):
        BankConfig(high_confidence_threshold=1.5)
    with pytest.raises(ValueError):
        BankConfig(decrement_factor=0.0)


def test_trust_update_must_decrease():
    with pytest.raises(ValueError):
        TrustUpdate("c", 0.5, 0.5, "no-op")
    with pytest.raises(ValueError):
        TrustUpdate("c", 0.5, 0.6, "increase")
    TrustUpdate("c", 0.0, 0.0, "zero stays zero")  # allowed


# ---------------------------------------------------------------------------
# Applying updates to the card file


def _card_file(tmp_path, trusts=(0.8, 0.6, 0.4)):
    cards = []
    for i, trust in enumerate(trusts):
        cards.append(
            {
                "id": f"c{i}",
                "name": f"Card {i}",
                "description": "a card",
                "apply_when": 'contains:"x"',
                "cheap_probe": "kind:doc",
                "offloading_type": "procedural",
                "source_trust": trust,
                "provenance": "first_party",
                "stale": False,
                "body_ref": "inline:text",
            }
        )
    path = tmp_path / "cards.json"
    path.write_text(json.dumps({"cards": cards}, indent=2), encoding="utf-8")
    return path


def test_apply_changes_exactly_one_field(tmp_path):
    path = _card_file(tmp_path)
    before = json.loads(path.read_text(encoding="utf-8"))
    apply_updates(path, [TrustUpdate("c1", 0.6, 0.3, "test")])
    after = json.loads(path.read_text(encoding="utf-8"))
    for i, (old_card, new_card) in enumerate(zip(before["cards"], after["cards"])):
        for key in old_card:
            if i == 1 and key == "source_trust":
                assert new_card[key] == 0.3
            else:
                assert new_card[key] == old_card[key]
    # and the rewritten file still loads as a registry
    registry = load_registry(path)
    assert registry.get("c1").source_trust == 0.3


def test_apply_keeps_backup_of_prior_file(tmp_path):
    path = _card_file(tmp_path)
    original = path.read_bytes()
    apply_updates(path, [TrustUpdate("c0", 0.8, 0.4, "test")])
    backup = path.with_name(path.name + ".bak")
    assert backup.read_bytes() == original


def test_stale_old_trust_aborts_batch_untouched(tmp_path):
    path = _card_file(tmp_path)
    original = path.read_bytes()
    updates = [
        TrustUpdate("c0", 0.8, 0.4, "fine"),
        TrustUpdate("c1", 0.99, 0.2, "stale expectation"),
    ]
    with pytest.raises(StaleTrustError, match="c1"):
        apply_updates(path, updates)
    assert path.read_bytes() == original
    assert not path.with_name(path.name + ".bak").exists()


def test_double_apply_fails_on_stale_check(tmp_path):
    path = _card_file(tmp_path)
    updates = [TrustUpdate("c0", 0.8, 0.4, "test")]
    apply_updates(path, updates)
    with pytest.raises(StaleTrustError, match="c0"):
        apply_updates(path, updates)
    assert load_registry(path).get("c0").source_trust == 0.4


def test_apply_unknown_card(tmp_path):
    path = _card_file(tmp_path)
    with pytest.raises(RegistryLookupError, match="ghost"):
        apply_updates(path, [TrustUpdate("ghost", 0.8, 0.4, "test")])


def test_apply_unparseable_file(tmp_path):
    path = tmp_path / "cards.json"
    path.write_text("{broken", encoding="utf-8")
    with pytest.raises(StaleTrustError, match="cannot parse"):
        apply_updates(path, [TrustUpdate("c0", 0.8, 0.4, "test")])
    path.write_text('{"nothing": true}', encoding="utf-8")
    with pytest.raises(StaleTrustError, match="no cards list"):
        apply_updates(path, [TrustUpdate("c0", 0.8, 0.4, "test")])


def test_chained_updates_apply_in_order(tmp_path):
    path = _card_file(tmp_path)
    registry = load_registry(path)
    entries = [make_entry(card="c0", item_id=f"t{i}") for i in range(2)]
    updates = hypercorrection_updates(entries, BankConfig(), registry)
    apply_updates(path, updates)
    assert load_registry(path).get("c0").source_trust == pytest.approx(0.2)

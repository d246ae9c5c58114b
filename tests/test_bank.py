"""Failure bank: durable appends, hypercorrection, optimistic trust rewrites."""

from __future__ import annotations

import fcntl
import json
import os
import subprocess
import sys
import time

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
    # The torn tail has no newline, so it is not a record: reading sees only
    # the intact one, and the next append cuts the fragment off and leaves
    # the intact record's bytes as they were.
    assert [e.trajectory.item_id for e in read_bank(bank_path)] == ["a"]
    record(make_entry(item_id="b"), bank_path)
    assert bank_path.read_bytes().startswith(data)
    assert [e.trajectory.item_id for e in read_bank(bank_path)] == ["a", "b"]


def test_sequence_after_glued_torn_tail_counts_lines(bank_path):
    record(make_entry(item_id="a"), bank_path)
    bank_path.write_bytes(bank_path.read_bytes() + b'{"half": ')
    assert record(make_entry(item_id="b"), bank_path) == 1
    # That append cut the torn bytes off, so b is a whole line and the
    # sequence continues from it.
    assert record(make_entry(item_id="c"), bank_path) == 2
    entries = read_bank(bank_path)
    assert [(e.recorded_at, e.trajectory.item_id) for e in entries] == [
        (0, "a"), (1, "b"), (2, "c"),
    ]


def test_record_after_half_a_record_keeps_every_entry(bank_path):
    for i in range(3):
        record(make_entry(item_id=f"t{i}"), bank_path)
    data = bank_path.read_bytes()
    first = data.split(b"\n")[0]
    bank_path.write_bytes(data + first[: len(first) // 2])
    assert record(make_entry(item_id="t3"), bank_path) == 3
    entries = read_bank(bank_path)
    assert [e.trajectory.item_id for e in entries] == ["t0", "t1", "t2", "t3"]
    assert [e.recorded_at for e in entries] == [0, 1, 2, 3]


@pytest.mark.parametrize("last", [b'{"x": 1}', b'{"recorded_at": "7"}', b"garbage"])
def test_record_after_unreadable_last_record_is_corruption(bank_path, last):
    record(make_entry(item_id="a"), bank_path)
    bank_path.write_bytes(bank_path.read_bytes() + last + b"\n")
    data = bank_path.read_bytes()
    with pytest.raises(BankCorruptionError, match="recorded_at"):
        record(make_entry(item_id="b"), bank_path)
    assert bank_path.read_bytes() == data


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


def _damage(bank_path, path, value):
    """Set one field, named by its key path, of the bank's only record."""
    raw = json.loads(bank_path.read_text(encoding="utf-8"))
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bank_path.write_text(json.dumps(raw) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("recorded_at",), True, "field recorded_at: expected int, got bool"),
        (("trajectory", "terminal_confidence"), "0.9", "field trajectory.terminal_confidence:"),
        (("trajectory", "answer"), 42, "field trajectory.answer: expected str or null, got int"),
        (("trajectory", "decisions", 0, "chosen", "cost"), None, r"decisions\[0\]\.chosen\.cost"),
        (("trajectory", "decisions", 0, "gated_cards"), "c", r"decisions\[0\]\.gated_cards"),
        (("trajectory", "decisions", 0, "scores", "LOAD_SKILL:c"), "high", r"decisions\[0\]\.scores"),
        (("trajectory", "decisions", 0, "chosen", "variant"), "fly", r"chosen\.variant: 'fly'"),
        (("trajectory", "decisions"), {}, "field trajectory.decisions: expected a list"),
    ],
)
def test_a_field_of_the_wrong_type_is_corruption_naming_it(bank_path, path, value, message):
    record(make_entry(), bank_path)
    _damage(bank_path, path, value)
    with pytest.raises(BankCorruptionError, match=f"line 0: .*{message}"):
        read_bank(bank_path)


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("trajectory", "decisions"), ["x"], "trajectory.decisions[0]"),
        (("trajectory", "decisions", 0, "probe_traces"), [7], "trajectory.decisions[0].probe_traces[0]"),
    ],
)
def test_a_list_element_that_is_no_object_is_named_by_its_index(bank_path, path, value, field):
    record(make_entry(), bank_path)
    _damage(bank_path, path, value)
    with pytest.raises(BankCorruptionError) as err:
        read_bank(bank_path)
    kind = type(value[0]).__name__
    assert str(err.value) == (
        f"{bank_path}: damaged record at line 0: field {field}: expected a JSON object, got {kind}"
    )


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


def test_apply_leaves_no_temp_files(tmp_path):
    path = _card_file(tmp_path)
    apply_updates(path, [TrustUpdate("c0", 0.8, 0.4, "test")])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cards.json", "cards.json.bak", "cards.json.lock",
    ]


_CORRECTOR = """
import sys
from mesa.bank import TrustUpdate, apply_updates
print("ready", flush=True)
apply_updates(sys.argv[1], [TrustUpdate("c0", 0.8, 0.4, "subprocess")])
"""


def test_concurrent_corrector_waits_for_the_lock(tmp_path):
    path = _card_file(tmp_path)
    original = path.read_bytes()
    lock_fd = os.open(path.with_name(path.name + ".lock"), os.O_RDWR | os.O_CREAT, 0o644)
    fcntl.flock(lock_fd, fcntl.LOCK_EX)
    proc = subprocess.Popen(
        [sys.executable, "-c", _CORRECTOR, str(path)], stdout=subprocess.PIPE, text=True
    )
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(0.3)
        assert proc.poll() is None, "the corrector did not wait for the lock"
        assert path.read_bytes() == original
        fcntl.flock(lock_fd, fcntl.LOCK_UN)
        assert proc.wait(timeout=30) == 0
    finally:
        os.close(lock_fd)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert load_registry(path).get("c0").source_trust == 0.4
    assert path.with_name(path.name + ".bak").read_bytes() == original


_KILLED_CORRECTOR = """
import os
import sys
from mesa.bank import TrustUpdate, apply_updates
kill_at, calls = int(sys.argv[2]), [0]
def killing(real):
    def call(*args):
        calls[0] += 1
        if calls[0] == kill_at:
            os._exit(70)
        return real(*args)
    return call
os.replace, os.fsync = killing(os.replace), killing(os.fsync)
apply_updates(sys.argv[1], [TrustUpdate("c0", 0.8, 0.4, "killed")])
print(calls[0])
"""


def _run_killed_corrector(path, kill_at):
    return subprocess.run(
        [sys.executable, "-c", _KILLED_CORRECTOR, str(path), str(kill_at)],
        capture_output=True, text=True, timeout=60,
    )


def test_kill_at_any_replace_or_fsync_leaves_old_or_new_card_file(tmp_path):
    path = _card_file(tmp_path)
    old = path.read_bytes()
    done = _run_killed_corrector(path, 0)
    assert done.returncode == 0, done.stderr
    kill_points = int(done.stdout)
    new = path.read_bytes()
    assert kill_points == 6 and new != old  # (fsync, replace, fsync) for .bak, then the file
    seen = set()
    for kill_at in range(1, kill_points + 1):
        path.write_bytes(old)
        killed = _run_killed_corrector(path, kill_at)
        assert killed.returncode == 70, (kill_at, killed.stderr)
        data = path.read_bytes()
        assert data in (old, new), f"killed at call {kill_at}"
        assert load_registry(path).get("c0").source_trust == (0.8 if data == old else 0.4)
        seen.add(data)
    assert seen == {old, new}

"""Every writer leaves the old file or the new one, whichever file-system call fails.

Each writer runs once cleanly under tests/faults.py's harness, which checks
the order of its calls: data written and fsynced before a rename, the
directory fsynced after it. Then it runs again on a fresh copy of the old
state once per fault: each open, write, fsync, ftruncate and replace raises
in turn, and each write also fails after a prefix and returns short. After
every fault the file reads as old or new (new if the writer reported
success, old if an append failed), no temp file is left, and a rerun
converges on new.
"""

from __future__ import annotations

import json
import os
import shutil
import stat
import threading

import pytest

from mesa import journal
from mesa.backend import CachedBackend, _cache_key
from mesa.bank import BankConfig, apply_updates, hypercorrection_updates, read_bank, record
from mesa.cards import load_registry
from mesa.cli import EXIT_IO, EXIT_OK, dispatch

from conftest import DATA, DictBackend, make_ctx
from faults import check_durable_order, fault_plans, os_calls
from test_bank import _card_file, make_entry

MINI_EVAL = [
    "eval", "--suite", str(DATA / "suite_mini.json"), "--cards", str(DATA / "cards_mini.json"),
    "--script", str(DATA / "script_mini.json"), "--expected-per-slice", "0",
]


def _succeeds(write) -> bool:
    try:
        write()
    except OSError:
        return False
    return True


class BankRecord:
    """bank.record appends a third entry to a two-entry bank."""

    replaces: set[str] = set()

    def __init__(self, root):
        self.bank = root / "bank.jsonl"
        for item_id in ("a", "b"):
            record(make_entry(item_id=item_id), self.bank)
        self.old = [(0, "a"), (1, "b")]
        self.new = self.old + [(2, "c")]

    def write(self) -> bool:
        self.recorded = _succeeds(lambda: record(make_entry(item_id="c"), self.bank))
        return self.recorded

    def state(self):
        return [(entry.recorded_at, entry.trajectory.item_id) for entry in read_bank(self.bank)]

    def rerun(self) -> None:
        # A record that raised left nothing in the bank: retry exactly those.
        if not self.recorded:
            record(make_entry(item_id="c"), self.bank)


class CacheRecord:
    """CachedBackend records a second row on a miss."""

    replaces: set[str] = set()

    def __init__(self, root):
        self.path = root / "cache.jsonl"
        self.inner = DictBackend(p_self=0.25, sources={"__tool__": 0.5})
        CachedBackend(self.inner, self.path).source_confidence(make_ctx(), "__tool__")
        self.old = list(journal.read_lines(self.path))
        row = {"key": _cache_key("self_confidence", make_ctx()), "value": 0.25}
        self.new = self.old + [json.dumps(row, sort_keys=True).encode()]
        self.cache = CachedBackend(self.inner, self.path)

    def write(self) -> bool:
        return _succeeds(lambda: self.cache.self_confidence(make_ctx()))

    def state(self):
        return list(journal.read_lines(self.path))

    def rerun(self) -> None:
        assert CachedBackend(self.inner, self.path).self_confidence(make_ctx()) == 0.25


class ApplyUpdates:
    """bank correct's rewrite: one confident failure decays c0 from 0.8 to 0.4."""

    def __init__(self, root):
        root.mkdir(exist_ok=True)
        self.cards = _card_file(root)
        self.bak = self.cards.with_name("cards.json.bak")
        self.bank = root / "bank.jsonl"
        record(make_entry(card="c0"), self.bank)
        self.old = self.cards.read_bytes()
        doc = json.loads(self.old)
        doc["cards"][0]["source_trust"] = 0.4
        doc["applied_through"] = 0
        self.new = (json.dumps(doc, indent=2) + "\n").encode()
        self.replaces = {str(self.bak), str(self.cards)}

    def write(self) -> bool:
        return _succeeds(self.rerun)

    def state(self):
        data = self.cards.read_bytes()
        # The trust value and the applied entry change together or not at all.
        registry = load_registry(self.cards)
        expected = (0.4, 0) if data == self.new else (0.8, None)
        assert (registry.get("c0").source_trust, registry.applied_through) == expected
        # The backup, once written, holds the prior file whole.
        assert not self.bak.exists() or self.bak.read_bytes() == self.old
        if data == self.new:
            assert self.bak.read_bytes() == self.old
        return data

    def rerun(self) -> None:
        entries = read_bank(self.bank)
        updates = hypercorrection_updates(entries, BankConfig(), load_registry(self.cards))
        if updates:
            apply_updates(self.cards, updates)


class _ReportOut:
    """A command whose --out replaces an existing report."""

    OLD = b"the previous report\n"

    def __init__(self, root):
        root.mkdir(exist_ok=True)
        self.out = root / "report.txt"
        self.out.write_bytes(self.OLD)
        self.old = self.OLD
        self.replaces = {str(self.out)}

    def write(self) -> bool:
        return dispatch([*self.argv, "--out", str(self.out)]) == EXIT_OK

    def state(self):
        return self.out.read_bytes()

    def rerun(self) -> None:
        assert self.write()


class EvalOut(_ReportOut):
    """mesa eval --out over the mini suite."""

    def __init__(self, root):
        super().__init__(root)
        self.argv = MINI_EVAL
        self.new = _rendered(root.parent)


class ReportOut(_ReportOut):
    """mesa report --out re-rendering a saved machine report."""

    def __init__(self, root):
        super().__init__(root)
        saved = root / "saved.json"
        assert dispatch([*MINI_EVAL, "--format", "machine", "--out", str(saved)]) == EXIT_OK
        self.argv = ["report", "--in", str(saved)]
        self.new = _rendered(root.parent)


def _rendered(scratch) -> bytes:
    """The bytes a clean mesa eval --out over the mini suite writes, kept in scratch."""
    path = scratch / "reference.txt"
    if not path.exists():
        assert dispatch([*MINI_EVAL, "--out", str(path)]) == EXIT_OK
    return path.read_bytes()


WRITERS = [BankRecord, CacheRecord, ApplyUpdates, EvalOut, ReportOut]


@pytest.mark.parametrize("writer_type", WRITERS, ids=lambda writer: writer.__name__)
def test_every_fault_leaves_old_or_new_and_a_rerun_converges(tmp_path, writer_type):
    clean_root = tmp_path / "clean"
    clean_root.mkdir()
    writer = writer_type(clean_root)
    with os_calls() as calls:
        assert writer.write()
    assert writer.state() == writer.new
    assert check_durable_order(calls) == writer.replaces
    written = {name for name, *_ in calls} - {"open", "replace"}
    assert {"write", "fsync"} <= written, calls

    plans = fault_plans(calls)
    for k, kind in plans:
        root = tmp_path / f"{k}-{kind}"
        root.mkdir()
        writer = writer_type(root)
        with os_calls(fail_at=k, kind=kind) as faulted:
            succeeded = writer.write()
        where = (k, kind, faulted[k - 1])
        assert [call[0] for call in faulted[:k]] == [call[0] for call in calls[:k]], where
        state = writer.state()
        if succeeded:
            assert state == writer.new, where
        elif writer.replaces:  # a whole-file writer may fail after its rename
            assert state in (writer.old, writer.new), where
        else:  # a failed append leaves no part of its record
            assert state == writer.old, where
        assert not [name for name in os.listdir(root) if name.endswith(".tmp")], where
        writer.rerun()
        assert writer.state() == writer.new, where
        shutil.rmtree(root)
    assert len(plans) >= len(calls)


def test_the_harness_numbers_the_five_writers_calls(tmp_path):
    """What each writer's clean run asks of the file system, call by call."""
    shapes = {}
    for writer_type in WRITERS:
        root = tmp_path / writer_type.__name__
        root.mkdir()
        writer = writer_type(root)
        with os_calls() as calls:
            assert writer.write()
        shapes[writer_type.__name__] = [name for name, *_ in calls]
    replace = ["open", "write", "fsync", "replace", "open", "fsync"]
    assert shapes == {
        "BankRecord": ["open", "write", "fsync"],
        "CacheRecord": ["open", "write", "fsync"],
        "ApplyUpdates": replace * 2,  # the backup, then the card file
        "EvalOut": replace,
        "ReportOut": replace,
    }


def test_a_short_write_goes_on_until_every_byte_is_written(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b"a\nhalf")
    with os_calls(fail_at=3, kind="short") as calls:
        journal.append(path, lambda last: "b" * 100)
    assert [name for name, *_ in calls] == ["open", "ftruncate", "write", "write", "fsync"]
    assert path.read_bytes() == b"a\n" + b"b" * 100 + b"\n"


def test_a_record_whose_fsync_failed_is_retried_once_and_decays_its_card_once(tmp_path):
    cards = _card_file(tmp_path)
    bank = tmp_path / "bank.jsonl"
    record(make_entry(card="c1", item_id="a"), bank)
    with os_calls(fail_at=3) as calls:  # the record's bytes are written, its fsync fails
        with pytest.raises(OSError, match="injected fault"):
            record(make_entry(card="c0", item_id="b"), bank)
    assert [name for name, *_ in calls] == ["open", "write", "fsync", "ftruncate", "fsync"]
    assert [entry.trajectory.item_id for entry in read_bank(bank)] == ["a"]
    assert record(make_entry(card="c0", item_id="b"), bank) == 1
    assert [entry.trajectory.item_id for entry in read_bank(bank)] == ["a", "b"]
    for _ in range(2):  # a rerun of bank correct applies nothing
        updates = hypercorrection_updates(read_bank(bank), BankConfig(), load_registry(cards))
        if updates:
            apply_updates(cards, updates)
    registry = load_registry(cards)
    assert (registry.get("c0").source_trust, registry.get("c1").source_trust) == (0.4, 0.3)


def test_a_failed_cut_raises_the_appends_own_error(tmp_path, monkeypatch):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b"a\n")

    def fail(message):
        def call(*args):
            raise OSError(message)

        return call

    monkeypatch.setattr(os, "fsync", fail("the append's fsync"))
    monkeypatch.setattr(os, "ftruncate", fail("the cut"))
    with pytest.raises(OSError, match="the append's fsync"):
        journal.append(path, lambda last: "b")


@pytest.mark.parametrize("fmt", ["text", "csv", "machine"])
def test_out_bytes_equal_the_bytes_written_to_stdout(tmp_path, capsys, fmt):
    saved = tmp_path / "saved.json"
    assert dispatch([*MINI_EVAL, "--format", "machine", "--out", str(saved)]) == EXIT_OK
    for argv in (MINI_EVAL, ["report", "--in", str(saved)]):
        capsys.readouterr()
        assert dispatch([*argv, "--format", fmt]) == EXIT_OK
        printed = capsys.readouterr().out
        out = tmp_path / "out"
        assert dispatch([*argv, "--format", fmt, "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == printed.encode("utf-8"), argv


def _mode(path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


@pytest.mark.parametrize("umask", [0o022, 0o027, 0o077])
def test_a_rewritten_file_keeps_its_mode_and_a_new_file_gets_the_umask_mode(tmp_path, umask):
    cards = _card_file(tmp_path)
    cards.chmod(0o640)
    bak = cards.with_name("cards.json.bak")
    bak.write_bytes(b"an older backup\n")
    bak.chmod(0o666)  # the backup takes the card file's mode, not its own
    bank = tmp_path / "bank.jsonl"
    record(make_entry(card="c0"), bank)
    report, rerendered, kept = (tmp_path / name for name in ("r.json", "r.txt", "kept.txt"))
    kept.write_bytes(b"the previous report\n")
    kept.chmod(0o604)
    previous = os.umask(umask)
    try:
        updates = hypercorrection_updates(read_bank(bank), BankConfig(), load_registry(cards))
        apply_updates(cards, updates)
        assert dispatch([*MINI_EVAL, "--format", "machine", "--out", str(report)]) == EXIT_OK
        for out in (rerendered, kept):
            assert dispatch(["report", "--in", str(report), "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(previous)
    assert kept.read_bytes() == rerendered.read_bytes()
    new = 0o666 & ~umask
    assert {path.name: _mode(path) for path in (cards, bak, report, rerendered, kept)} == {
        "cards.json": 0o640, "cards.json.bak": 0o640, "r.json": new, "r.txt": new, "kept.txt": 0o604,
    }


def test_bank_correct_keeps_a_private_card_file_private(tmp_path):
    cards = _card_file(tmp_path)
    cards.chmod(0o600)
    bank = tmp_path / "bank.jsonl"
    record(make_entry(card="c0"), bank)
    previous = os.umask(0o022)
    try:
        assert dispatch(["bank", "correct", "--bank", str(bank), "--cards", str(cards)]) == EXIT_OK
    finally:
        os.umask(previous)
    assert load_registry(cards).get("c0").source_trust == 0.4
    assert _mode(cards) == _mode(cards.with_name("cards.json.bak")) == 0o600


def test_a_leftover_temp_file_never_blocks_a_later_writer(tmp_path):
    path = tmp_path / "report.txt"
    leftovers = [tmp_path / "report.txt.tmp", tmp_path / ".report.txt.0123456789abcdef.tmp"]
    for leftover in leftovers:
        leftover.write_bytes(b"a crashed writer's half")
    journal.replace_durably(path, b"new\n")
    assert path.read_bytes() == b"new\n"
    assert sorted(tmp_path.iterdir()) == sorted([path, *leftovers])


def test_out_through_a_symlink_replaces_its_target_and_keeps_the_link(tmp_path):
    (tmp_path / "reports").mkdir()
    target = tmp_path / "reports" / "report.txt"
    target.write_bytes(b"old\n")
    link = tmp_path / "latest.txt"
    link.symlink_to(target)
    assert dispatch([*MINI_EVAL, "--out", str(link)]) == EXIT_OK
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == _rendered(tmp_path)
    assert sorted(p.name for p in target.parent.iterdir()) == ["report.txt"]


def test_out_never_replaces_a_fifo_or_a_directory(tmp_path, capsys):
    # A device such as /dev/null is refused the same way; renaming over it
    # would replace it with a regular file.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    directory = tmp_path / "dir"
    directory.mkdir()
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so that no write can block
    try:
        for target in (fifo, directory):
            assert dispatch([*MINI_EVAL, "--out", str(target)]) == EXIT_IO
            assert capsys.readouterr().err == f"mesa: {target} is not a regular file\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode) and directory.is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "pipe"]


def test_concurrent_replacements_leave_one_whole_file(tmp_path):
    path = tmp_path / "report.txt"
    versions = [bytes([65 + i]) * 200_000 for i in range(3)]
    path.write_bytes(versions[0])
    seen = set()

    def writer(data):
        for _ in range(20):
            journal.replace_durably(path, data)

    threads = [threading.Thread(target=writer, args=(data,)) for data in versions[1:]]
    for thread in threads:
        thread.start()
    try:
        while any(thread.is_alive() for thread in threads):
            seen.add(path.read_bytes())
    finally:
        for thread in threads:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert seen <= set(versions)
    assert path.read_bytes() in versions[1:]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt"]

"""The JSON-lines journal: a record counts once its newline is written."""

from __future__ import annotations

import pytest

from mesa import journal


@pytest.mark.parametrize(
    ("before", "last", "after"),
    [
        (None, None, b"new\n"),
        (b"", None, b"new\n"),
        (b"half", None, b"new\n"),
        (b"a\n", b"a", b"a\nnew\n"),
        (b"a\nb\nhalf", b"b", b"a\nb\nnew\n"),
    ],
    ids=["missing", "empty", "only-torn", "clean", "torn"],
)
def test_append_sees_the_last_complete_line_and_cuts_a_torn_tail(tmp_path, before, last, after):
    path = tmp_path / "j.jsonl"
    if before is not None:
        path.write_bytes(before)
    seen = []
    journal.append(path, lambda line: seen.append(line) or "new")
    assert seen == [last]
    assert path.read_bytes() == after
    assert list(journal.read_lines(path)) == after.split(b"\n")[:-1]


def test_read_lines_streams_complete_lines_and_skips_a_torn_tail(tmp_path, caplog):
    path = tmp_path / "j.jsonl"
    path.write_bytes(b"a\n\nb\nhalf")
    lines = journal.read_lines(path)
    assert next(lines) == b"a"  # one line at a time, from the open file
    assert not caplog.records
    assert list(lines) == [b"", b"b"]
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}: ignoring torn trailing record (4 bytes)"
    ]


def test_read_lines_of_a_missing_file_raises_at_the_call(tmp_path):
    with pytest.raises(FileNotFoundError):
        journal.read_lines(tmp_path / "missing.jsonl")


@pytest.mark.parametrize(
    ("before", "offset", "seen", "record", "after", "end"),
    [
        (None, 0, [], "new", b"new\n", 4),
        (b"a\n", 2, [], "new", b"a\nnew\n", 6),
        (b"a\nb\nc\n", 2, [b"b", b"c"], "new", b"a\nb\nc\nnew\n", 10),
        (b"a\nb\nhalf", 2, [b"b"], "new", b"a\nb\nnew\n", 8),
        (b"a\nb\n", 2, [b"b"], None, b"a\nb\n", 4),
        (b"a\nhalf", 2, [], None, b"a\nhalf", 2),
        (b"b\n", 9, [b"b"], "new", b"b\nnew\n", 6),
    ],
    ids=["missing", "nothing-new", "new-lines", "torn", "seen", "seen-torn", "replaced"],
)
def test_append_unless_seen_shows_the_lines_past_the_offset(
    tmp_path, before, offset, seen, record, after, end
):
    path = tmp_path / "j.jsonl"
    if before is not None:
        path.write_bytes(before)
    shown = []
    assert journal.append_unless_seen(path, offset, lambda lines: shown.append(lines) or record) == end
    assert shown == [seen]
    assert path.read_bytes() == after

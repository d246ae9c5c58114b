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
    assert journal.read_lines(path) == after.split(b"\n")[:-1]

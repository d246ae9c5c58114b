"""Append-only JSON-lines files, as the failure bank and the replay cache keep them.

A record counts once its newline is written. Readers skip a final line
without one (a crash mid-append) with a warning, and the next append cuts it
off. An append holds an exclusive flock from its read of the tail to its fsync.
"""

from __future__ import annotations

import fcntl
import logging
import os
from pathlib import Path
from typing import Callable

log = logging.getLogger("mesa.journal")

_TAIL_WINDOW = 4096  # bytes read from the file's end; doubled for a longer record


def read_lines(path: str | Path) -> list[bytes]:
    """Every complete line, without its newline; a torn final line is skipped with a warning."""
    *lines, tail = Path(path).read_bytes().split(b"\n")
    if tail:
        log.warning("%s: ignoring torn trailing record (%d bytes)", path, len(tail))
    return lines


def append(path: str | Path, make_line: Callable[[bytes | None], str]) -> None:
    """Append make_line(last complete line or None), a record without its newline.

    If make_line raises, the file is left untouched. Only the end of the file
    is read, so an append costs the same at any file size.
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)  # released when the file closes
        size = os.fstat(fd).st_size
        window = _TAIL_WINDOW
        while True:  # widen the window until it holds the last complete line
            start = max(0, size - window)
            tail = os.pread(fd, size - start, start)
            end = tail.rfind(b"\n")
            prev_newline = tail.rfind(b"\n", 0, max(end, 0))
            if start == 0 or prev_newline != -1:
                break
            window *= 2
        last = tail[prev_newline + 1:end] if end != -1 else None
        line = (make_line(last) + "\n").encode("utf-8")
        if end + 1 != len(tail):  # a torn tail: cut it at the last newline
            os.ftruncate(fd, start + end + 1)
        os.write(fd, line)
        os.fsync(fd)
    finally:
        os.close(fd)

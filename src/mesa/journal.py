"""Durable writes: _write_all writes every byte, replace_durably every whole file.

Append-only JSON-lines files (the failure bank, the replay cache): a record
counts once its newline is written. Readers (read_lines) take the file one
line at a time and skip a final line without one (a crash mid-append) with a
warning, and the next append cuts it off. An append holds an exclusive
flock from its read of the tail to its fsync. An append that fails after
bytes reach the file (its fsync, say) cuts them off again under the lock, so
a record whose append raised is not in the file (unless the cut failed too)
and a retry adds it once. The bank reads only the last record there; the
replay cache reads every record appended since its own last read, so that
it records each key once.
"""

from __future__ import annotations

import fcntl
import logging
import os
import stat
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

log = logging.getLogger("mesa.journal")

_TAIL_WINDOW = 4096  # bytes read from the file's end; doubled for a longer record


def read_lines(path: str | Path) -> Iterator[bytes]:
    """Every complete line, without its newline, one at a time from the open file.

    The file is opened at the call, so a missing file raises there. A torn
    final line is skipped with a warning.
    """
    return _lines(open(path, "rb"), path)


def _lines(file: BinaryIO, path: str | Path) -> Iterator[bytes]:
    with file:
        for line in file:
            if line[-1:] == b"\n":
                yield line[:-1]
            else:
                log.warning("%s: ignoring torn trailing record (%d bytes)", path, len(line))


def _write_all(fd: int, data: bytes) -> None:
    """Write every byte of data, however few each os.write takes, then fsync."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]
    os.fsync(fd)


def replace_durably(path: str | Path, data: bytes, mode: int | None = None) -> None:
    """Replace path by a file holding data, so that a crash leaves the old file or the new.

    The temp file .<name>.<random>.tmp is fsynced, renamed over path (over its
    target, if path is a symlink), then the directory fsynced. It gets mode
    when given, else the mode of the file it replaces, else (a new file) 0o666
    less the umask.
    """
    path = Path(path).resolve()
    try:
        status = path.stat()
    except FileNotFoundError:
        pass
    else:
        if not stat.S_ISREG(status.st_mode):  # never rename over a device, FIFO or directory
            raise OSError(f"{path} is not a regular file")
        if mode is None:
            mode = stat.S_IMODE(status.st_mode)
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb"):  # closes fd, however the write ends
            if mode is not None:
                os.fchmod(fd, mode)
            _write_all(fd, data)
        os.replace(temp, path)
    except BaseException:  # leave no temp file behind
        temp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _write(fd: int, complete: int, size: int, line: str) -> int:
    """Cut a torn tail back to byte complete, then append line and its newline durably.

    Returns the new end of the file. If the append fails, the file is cut back
    to byte complete and the append's error raised, that of the cut ignored.
    """
    data = (line + "\n").encode("utf-8")
    try:
        if complete != size:
            os.ftruncate(fd, complete)
        _write_all(fd, data)
    except BaseException:  # a failed fsync too: the record may be in the file
        try:
            os.ftruncate(fd, complete)
            os.fsync(fd)
        except OSError:
            pass
        raise
    return complete + len(data)


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
        _write(fd, start + end + 1, size, make_line(last))
    finally:
        os.close(fd)


def append_unless_seen(
    path: str | Path, offset: int, make_line: Callable[[list[bytes]], str | None]
) -> int:
    """Append make_line(the complete lines from byte offset on) unless it returns None.

    offset is where the caller's last read ended, so make_line sees exactly
    the records other writers appended since, and can decide under the lock
    whether its own record is still needed. Returns the offset just past the
    last complete line, the appended one included.
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        size = os.fstat(fd).st_size
        if offset > size:  # the file was replaced by a shorter one: all of it is new
            offset = 0
        new = os.pread(fd, size - offset, offset)
        complete = offset + new.rfind(b"\n") + 1
        line = make_line(new[: complete - offset].split(b"\n")[:-1])
        return complete if line is None else _write(fd, complete, size, line)
    finally:
        os.close(fd)

"""A fault harness over the file-system calls that one process makes.

os_calls() wraps os.open, os.write, os.fsync, os.ftruncate and os.replace
for the length of a with block. It numbers every call and logs it with the
absolute paths it acts on, and it can make call k fail:

- "raise": the call raises before it acts;
- "prefix": a write writes the first half of its bytes, then raises;
- "short": a write writes the first half of its bytes and returns that
  count, as a short write on a filling disk does.

The method is ALICE's (T. S. Pillai et al., "All File Systems Are Not
Created Equal", OSDI 2014), applied to the calls of one process: it models
no lost page cache and no reordering inside the kernel.
"""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from typing import Iterator

WRAPPED = ("open", "write", "fsync", "ftruncate", "replace")
WRITE_FAULTS = ("prefix", "short")


class InjectedFault(OSError):
    """The error a failing call raises."""


@contextmanager
def os_calls(fail_at: int | None = None, kind: str = "raise") -> Iterator[list[tuple]]:
    """Log each wrapped call as (name, path) or ("replace", source, target).

    A write, fsync or ftruncate is logged with the path its descriptor was
    opened at. Call number fail_at (counting from 1) fails as kind says.
    """
    calls: list[tuple] = []
    opened: dict[int, str] = {}
    real = {name: getattr(os, name) for name in WRAPPED}

    def wrap(name):
        def call(*args, **kwargs):
            if name == "open":
                entry = (name, os.path.abspath(args[0]))
            elif name == "replace":
                entry = (name, os.path.abspath(args[0]), os.path.abspath(args[1]))
            else:
                entry = (name, opened.get(args[0], f"fd {args[0]}"))
            calls.append(entry)
            if len(calls) == fail_at:
                fault = InjectedFault(errno.EIO, f"injected fault at call {fail_at}: {entry}")
                if kind == "raise":
                    raise fault
                assert name == "write" and kind in WRITE_FAULTS, (name, kind)
                data = memoryview(args[1])
                written = real["write"](args[0], data[: len(data) // 2])
                if kind == "prefix":
                    raise fault
                return written
            result = real[name](*args, **kwargs)
            if name == "open":
                opened[result] = entry[1]
            return result

        return call

    for name in WRAPPED:
        setattr(os, name, wrap(name))
    try:
        yield calls
    finally:
        for name, function in real.items():
            setattr(os, name, function)


def fault_plans(calls: list[tuple]) -> list[tuple[int, str]]:
    """Every (k, kind) to inject into a run that made these calls: each call
    raises in turn, and each write also fails with a prefix and a short write."""
    plans = []
    for k, (name, *_) in enumerate(calls, start=1):
        plans.append((k, "raise"))
        if name == "write":
            plans.extend((k, kind) for kind in WRITE_FAULTS)
    return plans


def check_durable_order(calls: list[tuple]) -> set[str]:
    """Assert that the calls wrote every file durably; return the replaced targets.

    Every file written is fsynced after its last write. A file renamed over
    a target was fsynced before the rename, is a fresh temp file named
    .<target name>.<random>.tmp in the target's directory, and the directory
    is fsynced after the rename.
    """
    last_write: dict[str, int] = {}
    fsyncs: dict[str, list[int]] = {}
    for index, (name, *paths) in enumerate(calls):
        if name == "write":
            last_write[paths[0]] = index
        elif name == "fsync":
            fsyncs.setdefault(paths[0], []).append(index)
    for path, index in last_write.items():
        assert any(i > index for i in fsyncs.get(path, ())), f"{path} not fsynced after its last write"
    targets = set()
    for index, (name, *paths) in enumerate(calls):
        if name != "replace":
            continue
        source, target = paths
        directory, target_name = os.path.split(target)
        assert os.path.dirname(source) == directory, (source, target)
        temp_name = os.path.basename(source)
        assert temp_name.startswith(f".{target_name}.") and temp_name.endswith(".tmp"), temp_name
        assert ("open", source) in calls[:index], f"{source} not created by this writer"
        assert any(i < index for i in fsyncs.get(source, ())), f"{source} renamed before its fsync"
        assert any(i > index for i in fsyncs.get(directory, ())), (
            f"{directory} not fsynced after the rename onto {target}"
        )
        targets.add(target)
    return targets

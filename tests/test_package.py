"""The package's public surface: what `from mesa import *` exports."""

from __future__ import annotations

import inspect

import mesa


def test_every_export_resolves_once_in_sorted_order():
    exported = mesa.__all__
    assert [name for name in exported if not hasattr(mesa, name)] == []
    assert len(exported) == len(set(exported))
    assert exported == sorted(exported)


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(mesa).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(mesa.__all__)

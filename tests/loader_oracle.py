"""load_registry and load_script as they were before the decoder's object hook.

A test-only oracle for tests/test_loader_differential.py, kept as it shipped:
each loader decodes the whole file to plain JSON values first, then checks
and converts the records in one loop, in order. The streaming loaders in
mesa.cards and mesa.backend must give equal registries and script tables
and, for every bad file, the same exception class and message.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from mesa.backend import BehaviorScript, ScriptValue, _is_confidence_key
from mesa.cards import CardRegistry, _parse_card, read_applied_through
from mesa.dsl import predicate_parser
from mesa.errors import CardFileError, MissingSignalError


def read_input(path: str | Path, error: type[Exception], what: str) -> str:
    """A UTF-8 file's text; else error "cannot read <what> <path>: ..."."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def decode_json(document: str | bytes) -> object:
    """json.loads, with a document nested too deeply for the parser a ValueError."""
    try:
        return json.loads(document)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def read_document(
    path: str | Path, error: type[Exception], what: str, key: str, *optional: str
) -> dict:
    """read_input's text as a JSON object {"<key>": [...]}, which may also hold optional keys."""
    try:
        doc = decode_json(read_input(path, error, what))
    except ValueError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if type(doc) is not dict or type(doc.get(key)) is not list or doc.keys() - {key, *optional}:
        raise error(f'{what} {path}: expected top-level {{"{key}": [...]}}')
    return doc


def _as_decoded(value: object) -> object:
    return value


def load_registry(path: str | Path) -> CardRegistry:
    doc = read_document(path, CardFileError, "card file", "cards", "applied_through")
    parse = predicate_parser()
    # Every value kept as decoded: the old loader shared none.
    cards = tuple(_parse_card(raw, i, parse, _as_decoded) for i, raw in enumerate(doc["cards"]))
    return CardRegistry(cards=cards, applied_through=read_applied_through(doc, path))


def load_script(path: str | Path) -> BehaviorScript:
    doc = read_document(path, MissingSignalError, "script", "rows")
    defaults: dict[str, dict[str, ScriptValue]] = {}
    overrides: dict[tuple[str, str], dict[str, ScriptValue]] = {}
    for i, raw in enumerate(doc["rows"]):
        # Exactly four keys: a missing one reads as None, which no check accepts.
        if type(raw) is not dict or len(raw) != 4:
            raise MissingSignalError(f"script {path}: malformed row #{i}: {raw!r}")
        item, condition, key = raw.get("item"), raw.get("condition"), raw.get("key")
        value = raw.get("value")
        kind = type(value)
        if (
            type(item) is not str
            or type(condition) is not str
            or type(key) is not str
            or kind is not str and kind is not float and kind is not int
            or kind is not str and not 0.0 <= value <= 1.0 and _is_confidence_key(key)
        ):
            raise MissingSignalError(f"script {path}: malformed row #{i}: {raw!r}")
        # The row lands in its item's defaults, or in its own condition's rows.
        tables, at = (defaults, item) if condition == "*" else (overrides, (item, condition))
        table = tables.get(at)
        if table is None:
            table = tables[at] = {}
        size = len(table)
        try:
            # Interned: the items' tables repeat a few thousand distinct keys.
            table[sys.intern(key)] = float(value) if kind is int else value
        except OverflowError:  # an integer too large for a float
            raise MissingSignalError(f"script {path}: malformed row #{i}: {raw!r}") from None
        if len(table) == size:
            raise MissingSignalError(f"script {path}: duplicate row for {(item, condition, key)}")
    for pair, table in overrides.items():
        overrides[pair] = {**defaults.get(pair[0], {}), **table}
    return BehaviorScript(defaults, overrides)

"""JSON in and out: every input file's one read path, and records' objects.

read_input reads a file as UTF-8 and read_document parses it as a JSON
{"<key>": [...]}; either raises the caller's error class naming the file.
decode_json is json.loads for every outside input: JSON nested too deeply for
the parser is a ValueError like any other bad JSON.

read_document may take an object_hook, which json.loads calls on each object
as soon as it is decoded, innermost first, keeping what it returns in the
object's place. A loader's hook turns each record into what the loader keeps
(a card, or a marker for a row filed in its table), so the document's raw
records never all exist at once. A hook never raises: a record it cannot
finish it returns unchanged, and a finished record must not be a JSON value
(dict, list, str, int, float, bool or None). Unless every element of the
list is finished and every optional key holds a string, number, bool or null
(anything else may be, or hide, a finished record), read_document decodes
the text again without the hook, so the loader's own in-order checks see
exactly the records of the file and name the first failure as a plain decode
always has.

A loader passes the values its records repeat through shared_values' share,
so one load keeps one object per distinct value, whichever path decoded it.

Codec(cls, **special) takes its keys from the dataclass fields of cls. A
field whose value is a plain JSON value (a string, a number, a bool or null)
needs no declaration: decode checks it against the field's type hint. Any
other field (an enum, a nested record, a tuple, a mapping) is declared with
an (encode, decode) pair. A missing key or a value of the wrong type raises a
TypeError that names the field's path from the record down, for example
"field decisions[0].chosen.cost: expected number, got str".
"""

from __future__ import annotations

import json
from dataclasses import fields
from enum import Enum
from operator import attrgetter
from pathlib import Path
from types import UnionType
from typing import Callable, Generic, Mapping, TypeVar, Union, get_args, get_origin, get_type_hints

_Record = TypeVar("_Record")
_Value = TypeVar("_Value", str, float)


def read_input(path: str | Path, error: type[Exception], what: str) -> str:
    """A UTF-8 file's text; else error "cannot read <what> <path>: ..."."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def decode_json(document: str | bytes, object_hook: Callable | None = None) -> object:
    """json.loads, with a document nested too deeply for the parser a ValueError."""
    try:
        return json.loads(document, object_hook=object_hook)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_JSON_TYPES = _SCALAR_TYPES | {dict, list}


def read_document(
    path: str | Path,
    error: type[Exception],
    what: str,
    key: str,
    *optional: str,
    object_hook: Callable[[dict], object] | None = None,
) -> dict:
    """read_input's text as a JSON object {"<key>": [...]}, which may also hold optional keys.

    With object_hook, the list holds the hook's finished records, or, if one
    is left unfinished, the plain decode's records (see the module docstring).
    """
    text = read_input(path, error, what)
    doc = None
    if object_hook is not None:
        try:  # a failed hooked decode (the hook's own frames may overflow) is redone plainly
            doc = decode_json(text, object_hook)
        except ValueError:
            pass
        if not _finished(doc, key, optional):
            doc = None
    if doc is None:
        try:
            doc = decode_json(text)
        except ValueError as exc:
            raise error(f"{what} {path} is not valid JSON: {exc}") from exc
    if type(doc) is not dict or type(doc.get(key)) is not list or doc.keys() - {key, *optional}:
        raise error(f'{what} {path}: expected top-level {{"{key}": [...]}}')
    return doc


def _finished(doc: object, key: str, optional: tuple[str, ...]) -> bool:
    """Whether a hooked decode's list holds only finished records, and its optional keys scalars."""
    return (
        type(doc) is dict
        and type(doc.get(key)) is list
        and _JSON_TYPES.isdisjoint(map(type, doc[key]))
        and all(type(doc[name]) in _SCALAR_TYPES for name in optional if name in doc)
    )


def shared_values() -> Callable[[_Value], _Value]:
    """One load's table of values: share(value) returns the first value equal to it.

    For strings and floats. 0.0 and -0.0 are equal but not the same value,
    so a zero (or "") is keyed with its repr; a NaN is equal to no other
    NaN, so no two NaN objects are merged.
    """
    table: dict = {}

    def share(value: _Value) -> _Value:
        return table.setdefault(value if value else (value, repr(value)), value)

    return share


class _FieldError(TypeError):
    """A decoded record field that is missing or does not have the declared type."""

    def __init__(self, field: str, problem: str) -> None:
        super().__init__(f"field {field}: {problem}")
        self.field = field
        self.problem = problem

    def under(self, parent: str) -> "_FieldError":
        """The same problem, with the field named from parent down."""
        joint = "" if self.field.startswith("[") else "."
        return _FieldError(f"{parent}{joint}{self.field}", self.problem)


def _plain_type(hint: object) -> tuple[tuple[type, ...], str]:
    """The JSON value types a plain field of type hint may hold, and their description.

    An int may stand for a float.
    """
    members = get_args(hint) if get_origin(hint) in (Union, UnionType) else (hint,)
    accepted = tuple(t for m in members for t in ((int, float) if m is float else (m,)))
    names = {float: "number", type(None): "null"}
    return accepted, " or ".join(names.get(m, getattr(m, "__name__", str(m))) for m in members)


class Codec(Generic[_Record]):
    """A record's JSON object: one key per field of its dataclass.

    special maps a field name to an (encode, decode) pair; it is needed only
    for a field whose value is not a plain JSON value. decode reads exactly
    the declared keys, extra keys are ignored, and the record's own
    __post_init__ checks run. Each key must be present, a plain field must
    hold a value of its declared type (a bool is no number) and a special
    one must decode; otherwise decode raises a TypeError naming the field's
    path.
    """

    def __init__(self, cls: type[_Record], **special: tuple[Callable, Callable]) -> None:
        self._cls = cls
        self._fields = tuple((f.name, *special.get(f.name, (None, None))) for f in fields(cls))
        # Each field's decoder and plain types, resolved on the first decode:
        # resolving the type hints costs milliseconds that routing never needs.
        self._decoders: tuple | None = None

    def encode(self, obj: _Record) -> dict:
        return {
            name: getattr(obj, name) if enc is None else enc(getattr(obj, name))
            for name, enc, _ in self._fields
        }

    def decode(self, raw: Mapping) -> _Record:
        if not isinstance(raw, Mapping):
            raise TypeError(f"expected a JSON object, got {type(raw).__name__}")
        if self._decoders is None:
            hints = get_type_hints(self._cls)
            self._decoders = tuple(
                (name, dec, *_plain_type(hints[name])) for name, _, dec in self._fields
            )
        values = {}
        for name, dec, accepted, expected in self._decoders:
            try:
                value = raw[name]
            except KeyError:
                raise _FieldError(name, "missing") from None
            if dec is not None:
                try:
                    value = dec(value)
                except _FieldError as exc:
                    raise exc.under(name) from None
                except (TypeError, ValueError) as exc:
                    raise _FieldError(name, str(exc)) from exc
            elif not isinstance(value, accepted) or (
                type(value) is bool and bool not in accepted
            ):
                got = "null" if value is None else type(value).__name__
                raise _FieldError(name, f"expected {expected}, got {got}")
            values[name] = value
        return self._cls(**values)

    def many(self) -> tuple[Callable, Callable]:
        """The (encode, decode) pair of a tuple of these records."""
        encode, decode = self.encode, self.decode

        def decode_all(raws: object) -> tuple:
            records = []
            for index, raw in enumerate(_json_list(raws)):
                try:
                    records.append(decode(raw))
                except _FieldError as exc:
                    raise exc.under(f"[{index}]") from None
                except TypeError as exc:  # the element is not a JSON object
                    raise _FieldError(f"[{index}]", str(exc)) from None
            return tuple(records)

        return lambda objs: [encode(obj) for obj in objs], decode_all


def _json_list(raw: object) -> list:
    if not isinstance(raw, list):
        raise TypeError(f"expected a list, got {type(raw).__name__}")
    return raw


def _string_tuple(raw: object) -> tuple[str, ...]:
    if not all(isinstance(item, str) for item in _json_list(raw)):
        raise TypeError("expected a list of strings")
    return tuple(raw)


def _number_dict(raw: object) -> dict[str, float]:
    if not isinstance(raw, dict) or not all(type(value) in (int, float) for value in raw.values()):
        raise TypeError("expected an object of numbers")
    return dict(raw)


# The (encode, decode) pairs of a tuple of strings and of a mapping of names
# to numbers.
STRING_TUPLE: tuple[Callable, Callable] = (list, _string_tuple)
NUMBER_DICT: tuple[Callable, Callable] = (dict, _number_dict)


def enum_field(enum: type[Enum]) -> tuple[Callable, Callable]:
    """The (encode, decode) pair of an enum field: its value and back."""
    return attrgetter("value"), enum

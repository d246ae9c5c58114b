"""Every rejection of load_registry and load_script, each with its exact message.

A card or script row that breaks several rules is reported for the first
rule in the loader's order, so the tables also pin that order.
"""

from __future__ import annotations

import json

import pytest

from mesa.backend import load_script
from mesa.cards import load_registry
from mesa.errors import CardFileError, MissingSignalError

_CARD = {
    "id": "a",
    "name": "A card",
    "description": "Converts timestamps.",
    "apply_when": 'contains:"date"',
    "cheap_probe": "kind:document",
    "offloading_type": "procedural",
    "source_trust": 0.5,
    "provenance": "first_party",
    "stale": False,
    "body_ref": "inline:steps",
}

_DROP = object()


def _card(**changes) -> dict:
    card = dict(_CARD, **changes)
    return {name: value for name, value in card.items() if value is not _DROP}


@pytest.mark.parametrize(
    "card, message",
    [
        pytest.param([1, 2], "card #0: expected an object", id="list-card"),
        pytest.param("a", "card #0: expected an object", id="string-card"),
        pytest.param(_card(url="x"), "card 'a': unknown field(s) ['url']", id="extra-field"),
        pytest.param(
            _card(z=1, url="x", stale=_DROP),
            "card 'a': unknown field(s) ['url', 'z']",
            id="unknown-before-missing",
        ),
        pytest.param(
            _card(cheap_probe=_DROP, body_ref=_DROP),
            "card 'a': missing field(s) ['body_ref', 'cheap_probe']",
            id="missing-fields",
        ),
        pytest.param(_card(id=_DROP), "card #0: missing field(s) ['id']", id="missing-id"),
        pytest.param(_card(id=7), "card 7: id must be a string", id="int-id"),
        pytest.param(_card(id=None), "card #0: id must be a string", id="null-id"),
        pytest.param(_card(id=["a"]), "card ['a']: id must be a string", id="list-id"),
        pytest.param(_card(name=1.5), "card 'a': name must be a string", id="number-name"),
        pytest.param(
            _card(description=["x"]), "card 'a': description must be a string", id="list-text"
        ),
        pytest.param(_card(apply_when=None), "card 'a': apply_when must be a string", id="null-when"),
        pytest.param(_card(cheap_probe=3), "card 'a': cheap_probe must be a string", id="int-probe"),
        pytest.param(_card(body_ref={}), "card 'a': body_ref must be a string", id="dict-body"),
        pytest.param(
            _card(name=None, body_ref=None, apply_when="(("),
            "card 'a': name must be a string",
            id="strings-before-predicates",
        ),
        pytest.param(
            _card(apply_when="contains:"),
            "card 'a': bad predicate: expected string literal at byte 9 (expected: \")",
            id="bad-apply-when",
        ),
        pytest.param(
            _card(cheap_probe="kind:a OR", apply_when="kind:a AND é"),
            "card 'a': bad predicate: unexpected character 'é' at byte 11 (expected: (, NOT, "
            "contains, kind, matches, mime)",
            id="apply-when-before-cheap-probe",
        ),
        pytest.param(
            _card(cheap_probe="kind:a OR", offloading_type="magic"),
            "card 'a': bad predicate: expected expression at byte 9 (expected: (, NOT, contains, "
            "kind, matches, mime)",
            id="predicates-before-enums",
        ),
        pytest.param(
            _card(offloading_type="magic"), "card 'a': bad offloading_type 'magic'", id="bad-type"
        ),
        pytest.param(
            _card(offloading_type=["procedural"]),
            "card 'a': bad offloading_type ['procedural']",
            id="list-type",
        ),
        pytest.param(
            _card(offloading_type="Procedural", provenance="nobody"),
            "card 'a': bad offloading_type 'Procedural'",
            id="type-before-provenance",
        ),
        pytest.param(_card(provenance=None), "card 'a': bad provenance None", id="null-provenance"),
        pytest.param(
            _card(provenance=["first_party"]),
            "card 'a': bad provenance ['first_party']",
            id="list-provenance",
        ),
        pytest.param(
            _card(provenance={"first_party": 1}, stale=0),
            "card 'a': bad provenance {'first_party': 1}",
            id="provenance-before-stale",
        ),
        pytest.param(_card(stale=0), "card 'a': stale must be a boolean", id="int-stale"),
        pytest.param(
            _card(stale="false", source_trust="high"),
            "card 'a': stale must be a boolean",
            id="stale-before-trust",
        ),
        pytest.param(
            _card(source_trust=True), "card 'a': source_trust must be a number", id="bool-trust"
        ),
        pytest.param(
            _card(source_trust="0.5"), "card 'a': source_trust must be a number", id="string-trust"
        ),
        pytest.param(
            _card(source_trust=None, id=""),
            "card #0: source_trust must be a number",
            id="trust-type-before-empty-id",
        ),
        pytest.param(_card(id=""), "card #0: card id must be non-empty", id="empty-id"),
        pytest.param(
            _card(id="", source_trust=2),
            "card #0: card id must be non-empty",
            id="empty-id-before-trust-range",
        ),
        pytest.param(
            _card(source_trust=1.5), "card 'a': source_trust must be in [0, 1]", id="trust-above"
        ),
        pytest.param(
            _card(source_trust=-1), "card 'a': source_trust must be in [0, 1]", id="trust-below"
        ),
        pytest.param(
            _card(source_trust=float("nan")),
            "card 'a': source_trust must be in [0, 1]",
            id="nan-trust",
        ),
        pytest.param(
            _card(source_trust=float("inf")),
            "card 'a': source_trust must be in [0, 1]",
            id="infinite-trust",
        ),
        pytest.param(
            _card(source_trust=10**400),
            "card 'a': source_trust must be in [0, 1]",
            id="trust-too-large-for-a-float",
        ),
        pytest.param(
            _card(apply_when='matches:"a{99999999999}"'),
            "card 'a': bad predicate: invalid regex pattern 'a{99999999999}': the repetition "
            "number is too large at byte 0 (expected: nothing)",
            id="regex-repeat-too-large",
        ),
    ],
)
def test_load_registry_names_the_first_broken_rule(tmp_path, card, message):
    path = tmp_path / "cards.json"
    path.write_text(json.dumps({"cards": [_card(id="first"), card]}), encoding="utf-8")
    with pytest.raises(CardFileError) as err:
        load_registry(path)
    assert str(err.value) == message.replace("card #0", "card #1")


def test_load_registry_names_a_duplicate_id(tmp_path):
    path = tmp_path / "cards.json"
    cards = [_card(id="a"), _card(id="b"), _card(id="a", name="Other"), _card(id="b")]
    path.write_text(json.dumps({"cards": cards}), encoding="utf-8")
    with pytest.raises(CardFileError) as err:
        load_registry(path)
    assert str(err.value) == "duplicate card id 'a'"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", 'card file {path}: expected top-level {{"cards": [...]}}'),
        ('{"cards": {}}', 'card file {path}: expected top-level {{"cards": [...]}}'),
        ('{"cards": [], "x": 1}', 'card file {path}: expected top-level {{"cards": [...]}}'),
        (
            "{not json",
            "card file {path} is not valid JSON: Expecting property name enclosed in double "
            "quotes: line 1 column 2 (char 1)",
        ),
    ],
)
def test_load_registry_rejects_a_file_that_is_not_a_card_list(tmp_path, text, message):
    path = tmp_path / "cards.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CardFileError) as err:
        load_registry(path)
    assert str(err.value) == message.format(path=path)


_ROW = {"item": "i1", "condition": "*", "key": "p_self", "value": 0.5}


@pytest.mark.parametrize(
    "row",
    [
        pytest.param("not a row", id="string"),
        pytest.param(["i1", "*", "p_self", 0.5], id="list"),
        pytest.param({"item": "i1", "condition": "*", "key": "p_self"}, id="missing-value"),
        pytest.param(dict(_ROW, extra=1), id="extra-key"),
        pytest.param({"item": "i1", "condition": "*", "value": 0.5, "keys": "p_self"}, id="renamed"),
        pytest.param(dict(_ROW, item=3), id="int-item"),
        pytest.param(dict(_ROW, condition=None), id="null-condition"),
        pytest.param(dict(_ROW, key=["p_self"]), id="list-key"),
        pytest.param(dict(_ROW, value=True), id="bool-value"),
        pytest.param(dict(_ROW, value=None), id="null-value"),
        pytest.param(dict(_ROW, value=[0.5]), id="list-value"),
        pytest.param(dict(_ROW, value=1.5), id="p-self-above-one"),
        pytest.param(dict(_ROW, key="p_self_post", value=-0.1), id="p-self-post-below-zero"),
        pytest.param(dict(_ROW, key="source:__tool__", value=float("nan")), id="nan-source"),
        pytest.param(dict(_ROW, key="source:relevance:DIRECT", value=2), id="int-relevance"),
        pytest.param(dict(_ROW, key="probe:c1", value=float("inf")), id="infinite-probe"),
        pytest.param(dict(_ROW, key="answer:direct", value=10**400), id="huge-int-answer"),
    ],
)
def test_load_script_names_a_malformed_row(tmp_path, row):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"rows": [_ROW, row]}), encoding="utf-8")
    with pytest.raises(MissingSignalError) as err:
        load_script(path)
    assert str(err.value) == f"script {path}: malformed row #1: {row!r}"


def test_load_script_takes_any_number_on_other_keys(tmp_path):
    path = tmp_path / "script.json"
    rows = [dict(_ROW, key="answer:direct", value=-1.5), dict(_ROW, key="tags", value=7)]
    path.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    script = load_script(path)
    assert script.lookup("i1", "full", "answer:direct") == -1.5
    assert script.lookup("i1", "*", "tags") == 7.0
    assert type(script.lookup("i1", "*", "tags")) is float


def test_load_script_names_a_duplicate_row(tmp_path):
    path = tmp_path / "script.json"
    rows = [_ROW, dict(_ROW, condition="full"), dict(_ROW, value=0.6)]
    path.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    with pytest.raises(MissingSignalError) as err:
        load_script(path)
    assert str(err.value) == f"script {path}: duplicate row for ('i1', '*', 'p_self')"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", 'script {path}: expected top-level {{"rows": [...]}}'),
        ('{"rows": {}}', 'script {path}: expected top-level {{"rows": [...]}}'),
        ('{"rows": [], "x": 1}', 'script {path}: expected top-level {{"rows": [...]}}'),
        ("", "script {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ],
)
def test_load_script_rejects_a_file_that_is_not_a_row_list(tmp_path, text, message):
    path = tmp_path / "script.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MissingSignalError) as err:
        load_script(path)
    assert str(err.value) == message.format(path=path)


def test_loaders_name_an_unreadable_file(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(CardFileError) as err:
        load_registry(path)
    assert str(err.value) == (
        f"cannot read card file {path}: [Errno 2] No such file or directory: '{path}'"
    )
    with pytest.raises(MissingSignalError) as err:
        load_script(path)
    assert str(err.value) == (
        f"cannot read script {path}: [Errno 2] No such file or directory: '{path}'"
    )

"""Skill cards: schema, registry, trust, and lint diagnostics."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mesa.cards import (
    CODE_REDUNDANT_PROBE,
    CODE_STALE_HIGH_TRUST,
    CODE_TRUST_CEILING,
    CODE_VACUOUS_APPLY,
    CardRegistry,
    Provenance,
    effective_trust,
    lint_cards,
    load_registry,
)
from mesa.dsl import eval_predicate
from mesa.errors import CardFileError, RegistryLookupError
from mesa.router import RoutingConfig

from conftest import make_card, make_ctx


def _card_doc(**overrides) -> dict:
    doc = {
        "id": "date_time",
        "name": "Date and time toolkit",
        "description": "Converts timestamps.",
        "apply_when": 'contains:"date"',
        "cheap_probe": "kind:document",
        "offloading_type": "procedural",
        "source_trust": 0.2,
        "provenance": "community_unverified",
        "stale": False,
        "body_ref": "inline:convert the timestamps",
    }
    doc.update(overrides)
    return doc


def _write_cards(tmp_path, cards):
    path = tmp_path / "cards.json"
    path.write_text(json.dumps({"cards": cards}), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Loading


def test_load_single_card(tmp_path):
    registry = load_registry(_write_cards(tmp_path, [_card_doc()]))
    assert len(list(registry)) == 1
    card = registry.get("date_time")
    assert card.provenance is Provenance.COMMUNITY_UNVERIFIED
    assert card.source_trust == 0.2


def test_duplicate_id_names_card(tmp_path):
    path = _write_cards(tmp_path, [_card_doc(), _card_doc(name="Other")])
    with pytest.raises(CardFileError, match="date_time"):
        load_registry(path)


def test_missing_field_names_field_and_card(tmp_path):
    doc = _card_doc()
    del doc["cheap_probe"]
    with pytest.raises(CardFileError, match="cheap_probe"):
        load_registry(_write_cards(tmp_path, [doc]))


def test_unknown_field_rejected(tmp_path):
    with pytest.raises(CardFileError, match="download_url"):
        load_registry(_write_cards(tmp_path, [_card_doc(download_url="http://x")]))


def test_bad_predicate_propagates_card_id(tmp_path):
    with pytest.raises(CardFileError, match="date_time"):
        load_registry(_write_cards(tmp_path, [_card_doc(apply_when="contains:")]))


def test_bad_enum_values_rejected(tmp_path):
    with pytest.raises(CardFileError, match="offloading_type"):
        load_registry(_write_cards(tmp_path, [_card_doc(offloading_type="magic")]))
    with pytest.raises(CardFileError, match="provenance"):
        load_registry(_write_cards(tmp_path, [_card_doc(provenance="somebody")]))


def test_trust_out_of_range_rejected(tmp_path):
    with pytest.raises(CardFileError):
        load_registry(_write_cards(tmp_path, [_card_doc(source_trust=1.5)]))


@pytest.mark.parametrize(
    "name, value, where",
    [
        ("id", None, "card #0"),
        ("id", 7, "card 7"),
        ("name", None, "card 'date_time'"),
        ("description", ["Converts timestamps."], "card 'date_time'"),
        ("apply_when", None, "card 'date_time'"),
        ("cheap_probe", 3, "card 'date_time'"),
        ("body_ref", {"inline": "x"}, "card 'date_time'"),
    ],
)
def test_non_string_fields_rejected(tmp_path, name, value, where):
    path = _write_cards(tmp_path, [_card_doc(**{name: value})])
    with pytest.raises(CardFileError, match=rf"^{re.escape(where)}: {name} must be a string$"):
        load_registry(path)


def test_equal_predicate_texts_share_one_tree(tmp_path):
    docs = [_card_doc(id="a"), _card_doc(id="b", cheap_probe='contains:"date"')]
    path = _write_cards(tmp_path, docs)
    registry = load_registry(path)
    a, b = registry.get("a"), registry.get("b")
    assert a.apply_when is b.apply_when
    assert b.cheap_probe is a.apply_when  # equal text in another field
    assert a.cheap_probe is not b.cheap_probe
    again = load_registry(path).get("a")  # nothing is shared across loads
    assert again.apply_when == a.apply_when and again.apply_when is not a.apply_when


def test_equal_atoms_share_one_object_within_a_load_only(tmp_path):
    docs = [
        _card_doc(id="a", apply_when='contains:"da\\"te" AND kind:doc', cheap_probe="mime:pdf"),
        _card_doc(id="b", apply_when='NOT kind:doc OR contains:"da\\"te"', cheap_probe="kind:doc"),
        _card_doc(id="c", apply_when='matches:"^x" AND (mime:pdf OR matches:"^x")'),
    ]
    path = _write_cards(tmp_path, docs)
    a, b, c = load_registry(path)
    assert a.apply_when.left is b.apply_when.right  # contains:"da\"te"
    assert a.apply_when.right is b.apply_when.left.child is b.cheap_probe  # kind:doc
    assert c.apply_when.left is c.apply_when.right.right  # matches:"^x", compiled once
    assert c.apply_when.right.left is a.cheap_probe  # mime:pdf
    # Each load has its own atom table: a second load shares no atom with the first.
    again = load_registry(path).get("a")
    assert again.apply_when.left == a.apply_when.left
    assert again.apply_when.left is not a.apply_when.left
    assert again.cheap_probe is not a.cheap_probe


def test_loaded_regexes_are_never_recompiled(tmp_path, monkeypatch):
    docs = [_card_doc(id=f"r{i}", apply_when=f'matches:"^p{i}( |$)"') for i in range(600)]
    registry = load_registry(_write_cards(tmp_path, docs))

    def refuse(*args, **kwargs):
        raise AssertionError("re.compile called after the registry loaded")

    monkeypatch.setattr(re, "compile", refuse)
    for i, card in enumerate(registry):
        ctx = make_ctx(prompt=f"p{i} please")
        assert eval_predicate(card.apply_when, ctx) is True
        assert registry.matching(ctx) == [card]


def test_not_a_card_file(tmp_path):
    path = tmp_path / "cards.json"
    path.write_text('{"items": []}', encoding="utf-8")
    with pytest.raises(CardFileError, match="cards"):
        load_registry(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(CardFileError):
        load_registry(path)
    with pytest.raises(CardFileError):
        load_registry(tmp_path / "absent.json")


def test_no_partial_registry_on_failure(tmp_path):
    # A failing load raises; there is no half-built registry to observe.
    path = _write_cards(tmp_path, [_card_doc(), _card_doc(id="x", apply_when="((")])
    with pytest.raises(CardFileError):
        load_registry(path)


def test_iteration_preserves_file_order(tmp_path):
    docs = [_card_doc(id=f"c{i}") for i in range(5)]
    registry = load_registry(_write_cards(tmp_path, docs))
    assert [c.id for c in registry] == [f"c{i}" for i in range(5)]


def test_lookup_total_and_miss_raises():
    registry = CardRegistry(cards=(make_card("a"), make_card("b")))
    assert registry.get("a").id == "a"
    assert "a" in registry and "zz" not in registry
    with pytest.raises(RegistryLookupError, match="zz"):
        registry.get("zz")


# ---------------------------------------------------------------------------
# Body loading


def test_body_read_uses_loader_and_inline_refs():
    card = make_card("a", body_ref="inline:the real body")
    registry = CardRegistry(cards=(card,))
    assert registry.read_body("a") == "the real body"
    opaque = CardRegistry(cards=(make_card("b", body_ref="s3://bucket/key"),))
    assert "s3://bucket/key" in opaque.read_body("b")


def test_with_body_loader_counts_reads():
    reads: list[str] = []

    def loader(card):
        reads.append(card.id)
        return "body"

    registry = CardRegistry(cards=(make_card("a"),)).with_body_loader(loader)
    assert not reads
    registry.read_body("a")
    registry.read_body("a")
    assert reads == ["a", "a"]


# ---------------------------------------------------------------------------
# Effective trust


def test_effective_trust_examples():
    assert effective_trust(make_card(source_trust=0.8, stale=False)) == 0.8
    assert effective_trust(make_card(source_trust=0.8, stale=True)) == 0.4
    assert effective_trust(make_card(source_trust=0.0, stale=True)) == 0.0


@given(st.floats(min_value=0.0, max_value=1.0), st.booleans())
def test_effective_trust_never_exceeds_source_trust(trust, stale):
    card = make_card(source_trust=trust, stale=stale)
    assert effective_trust(card) <= card.source_trust


# ---------------------------------------------------------------------------
# Lint


GATE = RoutingConfig().trust_gate


def _lint_codes(cards) -> list[tuple[str, str]]:
    findings = lint_cards(CardRegistry(cards=tuple(cards)), GATE)
    return [(d.card_id, d.code) for d in findings]


def test_lint_trust_ceiling():
    card = make_card("sketchy", source_trust=0.9, provenance=Provenance.UNKNOWN)
    assert ("sketchy", CODE_TRUST_CEILING) in _lint_codes([card])


def test_lint_clean_first_party_card():
    card = make_card("fine", source_trust=0.9, provenance=Provenance.FIRST_PARTY)
    assert _lint_codes([card]) == []


def test_lint_vacuous_apply_when():
    card = make_card("vac", apply_when='contains:""')
    assert ("vac", CODE_VACUOUS_APPLY) in _lint_codes([card])


def test_lint_redundant_probe():
    card = make_card("echo", apply_when="kind:doc", cheap_probe="kind:doc")
    assert ("echo", CODE_REDUNDANT_PROBE) in _lint_codes([card])


def test_lint_stale_high_trust():
    card = make_card(
        "old", source_trust=0.8, stale=True, provenance=Provenance.VERIFIED_PUBLISHER
    )
    assert ("old", CODE_STALE_HIGH_TRUST) in _lint_codes([card])


def test_lint_render_format():
    card = make_card("sketchy", source_trust=0.9, provenance=Provenance.UNKNOWN)
    findings = lint_cards(CardRegistry(cards=(card,)), GATE)
    line = findings[0].render()
    card_id, code, message = line.split(":", 2)
    assert card_id == "sketchy"
    assert code == CODE_TRUST_CEILING
    assert message


def test_lint_shipped_fixture_registry(shipped_registry):
    findings = lint_cards(shipped_registry, GATE)
    by_code: dict[str, int] = {}
    for diag in findings:
        by_code[diag.code] = by_code.get(diag.code, 0) + 1
    # 10 unknown-provenance helpers above the 0.20 ceiling, 15 stale
    # publisher cards, and the two deliberate demo cards.
    assert by_code[CODE_TRUST_CEILING] == 10
    assert by_code[CODE_STALE_HIGH_TRUST] == 15
    assert by_code[CODE_VACUOUS_APPLY] == 1
    assert by_code[CODE_REDUNDANT_PROBE] == 1


def test_shipped_registry_includes_spec_anecdote_card(shipped_registry):
    card = shipped_registry.get("date_time")
    assert card.provenance in (Provenance.UNKNOWN, Provenance.COMMUNITY_UNVERIFIED)
    assert effective_trust(card) < 0.7

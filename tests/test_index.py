"""Atom index: the whole-registry prefilter never changes which cards match."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesa.cards import CardRegistry
from mesa.context import Attachment, TaskContext
from mesa.dsl import (
    And,
    Contains,
    Kind,
    Matches,
    Mime,
    Not,
    Or,
    PredicateExpr,
    eval_predicate,
    triggers,
)

from conftest import make_card, make_ctx
from test_dsl import _contexts, _predicates

# Characters whose case mapping is not one-to-one: İ lowers to two code
# points, ẞ to ß, and a word-final Σ to ς rather than σ.
_CASE_TRAPS = "İiIıẞßΣσςKKk"
_TAGS = ["a", "b", "doc", "code"]
_MIMES = ["html", "csv", "png"]

_trap_text = st.text(alphabet=st.sampled_from(list(_CASE_TRAPS + "ab ")), max_size=6)

_trap_atoms = st.one_of(
    _trap_text.map(Contains),
    # "" and the patterns after it match the empty string, so every prompt.
    st.sampled_from(["", "a*", "(?:)", "x?", "^", "Σ$", "(?i)σ", "ς"]).map(Matches),
    st.sampled_from(_TAGS).map(Kind),
    st.sampled_from(_MIMES).map(Mime),
)

_trap_predicates = st.recursive(
    _trap_atoms,
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda lr: And(*lr)),
        st.tuples(children, children).map(lambda lr: Or(*lr)),
    ),
    max_leaves=8,
)

_trap_contexts = st.builds(
    TaskContext,
    prompt=st.text(alphabet=st.sampled_from(list(_CASE_TRAPS + "abx ")), min_size=1, max_size=12),
    kind_tags=st.frozensets(st.sampled_from(_TAGS), max_size=3),
    attachments=st.lists(
        st.builds(Attachment, mime_tag=st.sampled_from(_MIMES)), max_size=2
    ).map(tuple),
)

_any_predicates = st.one_of(_predicates, _trap_predicates)
_any_contexts = st.one_of(_contexts, _trap_contexts)


def _registry(exprs: list[PredicateExpr]) -> CardRegistry:
    return CardRegistry(
        cards=tuple(replace(make_card(f"c{i}"), apply_when=e) for i, e in enumerate(exprs))
    )


def _scan(registry: CardRegistry, ctx: TaskContext) -> list[str]:
    return [card.id for card in registry if eval_predicate(card.apply_when, ctx)]


def _indexed(registry: CardRegistry, ctx: TaskContext) -> list[str]:
    return [card.id for card in registry.candidates(ctx) if eval_predicate(card.apply_when, ctx)]


@settings(max_examples=200, deadline=None)
@given(st.lists(_any_predicates, max_size=12), st.lists(_any_contexts, min_size=1, max_size=4))
def test_index_matching_equals_full_scan(exprs, contexts):
    registry = _registry(exprs)
    position = {card.id: i for i, card in enumerate(registry)}
    for ctx in contexts:
        assert _indexed(registry, ctx) == _scan(registry, ctx)
        positions = [position[card.id] for card in registry.candidates(ctx)]
        assert positions == sorted(set(positions))  # registry order, no repeats


@settings(max_examples=300, deadline=None)
@given(_any_predicates, _any_contexts)
def test_triggers_are_sound(expr, ctx):
    atoms = triggers(expr)
    assert all(isinstance(atom, (Contains, Matches, Kind, Mime)) for atom in atoms)
    if atoms and eval_predicate(expr, ctx):
        assert any(eval_predicate(atom, ctx) for atom in atoms)


@settings(max_examples=200, deadline=None)
@given(_any_predicates, _any_contexts)
def test_card_without_triggers_is_always_a_candidate(expr, ctx):
    registry = _registry([Contains("never in any prompt \x00"), expr])
    if not triggers(expr):
        assert registry.cards[1] in registry.candidates(ctx)


def test_trigger_choice():
    word, other, tag, mime = Contains("w"), Contains("v"), Kind("doc"), Mime("pdf")
    assert triggers(word) == {word}
    assert triggers(Not(word)) == frozenset()
    # AND takes the tag-free side, then the smaller set, then the left side.
    assert triggers(And(tag, word)) == {word}
    assert triggers(And(Or(word, other), Contains("u"))) == {Contains("u")}
    assert triggers(And(tag, mime)) == {tag}
    assert triggers(And(Not(word), mime)) == {mime}
    assert triggers(Or(word, And(tag, mime))) == {word, tag}
    assert triggers(Or(word, Not(other))) == frozenset()


@pytest.mark.parametrize(
    "apply_when, prompt, kind_tags, mimes",
    [
        ('NOT contains:"x"', "plain prompt", (), ()),
        ('NOT contains:"x"', "has x", (), ()),
        ('contains:"x" OR NOT kind:doc', "no match here", ("doc",), ()),
        ('contains:"x" OR kind:doc', "no match here", ("doc",), ()),
        ('contains:""', "anything", (), ()),
        ('matches:""', "anything", (), ()),
        ('matches:"q*"', "anything", (), ()),
        ('contains:"i̇"', "İstanbul", (), ()),
        ('contains:"İ"', "i̇stanbul", (), ()),
        ('contains:"i"', "İ", (), ()),
        ('contains:"ß"', "STRAẞE", (), ()),
        ('contains:"ς"', "ΟΔΟΣ", (), ()),
        ('contains:"σ"', "ΟΔΟΣ", (), ()),
        ('contains:"Σ" AND mime:pdf', "ΟΔΟΣ", (), ("pdf",)),
        ("kind:doc AND mime:pdf", "p", ("doc",), ("csv",)),
    ],
)
def test_index_examples_match_full_scan(apply_when, prompt, kind_tags, mimes):
    registry = CardRegistry(
        cards=(
            make_card("target", apply_when=apply_when),
            make_card("filler", apply_when='contains:"zzz"'),
        )
    )
    ctx = make_ctx(
        prompt=prompt,
        kind_tags=kind_tags,
        attachments=tuple(Attachment(mime_tag=m) for m in mimes),
    )
    assert _indexed(registry, ctx) == _scan(registry, ctx)


def test_index_prunes_cards_that_cannot_match():
    registry = CardRegistry(
        cards=(
            make_card("word", apply_when='contains:"stock" AND kind:doc'),
            make_card("other", apply_when='contains:"bond"'),
            make_card("negated", apply_when='NOT contains:"stock"'),
        )
    )
    ctx = make_ctx(prompt="Current STOCK price", kind_tags=("doc",))
    assert [card.id for card in registry.candidates(ctx)] == ["word", "negated"]


@given(st.lists(_any_predicates, max_size=8), _any_contexts)
@settings(max_examples=100, deadline=None)
def test_body_loader_copies_share_the_candidates(exprs, ctx):
    registry = _registry(exprs)
    before = registry.with_body_loader(lambda card: "before first use")
    expected = registry.candidates(ctx)
    after = registry.with_body_loader(lambda card: "after first use")
    assert before.candidates(ctx) == expected
    assert after.candidates(ctx) == expected


def test_body_loader_copy_builds_the_index_once(monkeypatch):
    import mesa.cards

    builds = []
    real = mesa.cards.PredicateIndex

    def counting(exprs):
        builds.append(1)
        return real(exprs)

    monkeypatch.setattr(mesa.cards, "PredicateIndex", counting)
    registry = CardRegistry(cards=(make_card("a", apply_when='contains:"task"'),))
    copy = registry.with_body_loader(lambda card: "body")
    ctx = make_ctx()
    assert copy.candidates(ctx) == registry.candidates(ctx) == list(registry.cards)
    assert registry.with_body_loader(lambda card: "again").candidates(ctx) == list(registry.cards)
    assert builds == [1]


def test_eval_matrix_never_builds_the_index(monkeypatch, shipped_suite, shipped_script):
    import mesa.cards
    from mesa.bench import run_matrix
    from mesa.cards import load_registry
    from mesa.fixtures import fixture_path

    def refuse(exprs):
        raise AssertionError("the eval path built the atom index")

    monkeypatch.setattr(mesa.cards, "PredicateIndex", refuse)
    # A fresh registry, so no earlier test has built its index.
    registry = load_registry(fixture_path("cards.json"))
    table = run_matrix(shipped_suite, registry, shipped_script)
    assert len(table.items) == 7 * len(shipped_suite)
    assert table.cells["full"]["overall"] > 0

"""Atom index: whole-registry matching finds exactly the cards of a full scan."""

from __future__ import annotations

import os
import random
import re
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mesa.dsl
from mesa.cards import CardRegistry
from mesa.context import Attachment, TaskContext
from mesa.dsl import (
    MAX_OPERATORS,
    And,
    Contains,
    Kind,
    Matches,
    Mime,
    Not,
    Or,
    PredicateExpr,
    PredicateIndex,
    eval_predicate,
    fact,
    parse_predicate,
    residual,
    triggers,
)

from conftest import DATA, make_card, make_ctx
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
    # "html" and "csv" are also drawn as kind tags, so kind:x and mime:x meet.
    kind_tags=st.frozensets(st.sampled_from(_TAGS + _MIMES[:2]), max_size=3),
    attachments=st.lists(
        st.builds(Attachment, mime_tag=st.sampled_from(_MIMES)), max_size=2
    ).map(tuple),
)

_tag_atoms = st.one_of(st.sampled_from(_TAGS).map(Kind), st.sampled_from(_MIMES).map(Mime))
# ANDs of tag atoms, ORs of them on either side, duplicate tags, and
# kind:x AND mime:x, which are two different facts.
_tag_sides = st.one_of(
    _tag_atoms, st.tuples(_tag_atoms, _tag_atoms).map(lambda lr: Or(*lr))
)
_tag_pairs = st.one_of(
    st.tuples(_tag_sides, _tag_sides).map(lambda lr: And(*lr)),
    _tag_atoms.map(lambda atom: And(atom, atom)),
    st.sampled_from(_TAGS + _MIMES).map(lambda tag: And(Kind(tag), Mime(tag))),
)
_pair_predicates = st.recursive(
    _tag_pairs,
    lambda children: st.one_of(
        st.tuples(children, st.one_of(children, _trap_atoms)).map(lambda lr: And(*lr)),
        st.tuples(st.one_of(children, _trap_atoms), children).map(lambda lr: Or(*lr)),
        children.map(Not),
    ),
    max_leaves=4,
)

# contains atoms whose needles differ only in case, so that they lower alike
# (ẞ lowers to ß, İ to i̇), next to tags and a pattern, under any operators.
_cased_atoms = st.one_of(
    st.sampled_from(["ab", "AB", "aB", "ß", "ẞ", "σ", "Σ", "ς", "i̇", "İ", "i", "I"]).map(Contains),
    _tag_atoms,
    st.just(Matches("a")),
)
_cased_predicates = st.recursive(
    _cased_atoms,
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda lr: And(*lr)),
        st.tuples(children, children).map(lambda lr: Or(*lr)),
    ),
    max_leaves=6,
)

# Needles that are prefixes of each other or overlap, needles made of regex
# metacharacters, and `matches` patterns that are plain literal
# alternations, so the literal scans meet shared prefixes, escapes and
# case-sensitive literals; the patterns' literals are found in the prompt as
# written, since lowering "ΑΣ" gives "ας".
_LITERAL_ALPHABET = "ab.*|()[]\\^$" + _CASE_TRAPS
_literal_text = st.text(alphabet=st.sampled_from(list(_LITERAL_ALPHABET)), min_size=1, max_size=5)


def _alternation(literals: list[str], wrapped: bool) -> Matches:
    body = "|".join(map(re.escape, literals))
    return Matches(f"(?:{body})" if wrapped else body)


_literal_atoms = st.one_of(
    st.sampled_from(["a", "ab", "b", "aba", "ba", "abab", ""]).map(Contains),
    _literal_text.map(Contains),
    st.sampled_from(["Σ", "(?:İ|ς|ab)", "a|ab|b", "(?:aba|ba)", "\\.|\\*", "ς|Σ"]).map(Matches),
    st.builds(_alternation, st.lists(_literal_text, min_size=1, max_size=4), st.booleans()),
    _tag_atoms,
)
_literal_predicates = st.recursive(
    _literal_atoms,
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda lr: And(*lr)),
        st.tuples(children, children).map(lambda lr: Or(*lr)),
    ),
    max_leaves=4,
)
_literal_contexts = st.builds(
    TaskContext,
    prompt=st.text(alphabet=st.sampled_from(list(_LITERAL_ALPHABET + " ")), min_size=1, max_size=16),
    kind_tags=st.frozensets(st.sampled_from(_TAGS), max_size=2),
)


def _many_literals(seed: int) -> list[PredicateExpr]:
    """Hundreds of needles and literal-alternation patterns over a small alphabet."""
    rng = random.Random(seed)

    def word() -> str:
        return "".join(rng.choices("ab.|Σς", k=rng.randint(1, 6)))

    needles = [Contains(word()) for _ in range(rng.randint(100, 400))]
    patterns = [
        _alternation([word() for _ in range(rng.randint(1, 5))], rng.random() < 0.5)
        for _ in range(rng.randint(10, 100))
    ]
    return needles + patterns


_any_predicates = st.one_of(_predicates, _trap_predicates, _pair_predicates)
_any_contexts = st.one_of(_contexts, _trap_contexts)


def _registry(exprs: list[PredicateExpr]) -> CardRegistry:
    return CardRegistry(
        cards=tuple(replace(make_card(f"c{i}"), apply_when=e) for i, e in enumerate(exprs))
    )


def _scan(registry: CardRegistry, ctx: TaskContext) -> list[str]:
    return [card.id for card in registry if eval_predicate(card.apply_when, ctx)]


def _indexed(registry: CardRegistry, ctx: TaskContext) -> list[str]:
    return [card.id for card in registry.matching(ctx)]


# Examples for the exact-matching differential; a CI job raises it.
INDEX_EXAMPLES = int(os.environ.get("MESA_INDEX_EXAMPLES", "200"))


@settings(max_examples=INDEX_EXAMPLES, deadline=None)
@given(
    st.lists(st.one_of(_any_predicates, _cased_predicates, _literal_predicates), max_size=12),
    st.one_of(st.just(None), st.integers(min_value=0, max_value=2**32)),
    st.lists(st.one_of(_any_contexts, _literal_contexts), min_size=1, max_size=4),
)
def test_index_matching_equals_full_scan(exprs, bulk_seed, contexts):
    # Each context twice: first while its fired keys are unresolved, then resolved.
    registry = _registry(exprs + ([] if bulk_seed is None else _many_literals(bulk_seed)))
    for ctx in contexts + contexts:
        assert _indexed(registry, ctx) == _scan(registry, ctx)


@settings(max_examples=300, deadline=None)
@given(_any_predicates, _any_contexts)
def test_triggers_are_sound(expr, ctx):
    found = triggers(expr)
    for trigger in found:
        if isinstance(trigger, frozenset):  # a pair of two distinct tag atoms
            assert len(trigger) == 2 and all(isinstance(a, (Kind, Mime)) for a in trigger)
        else:
            assert isinstance(trigger, (Contains, Matches, Kind, Mime))
    if found and eval_predicate(expr, ctx):
        assert any(_holds(trigger, ctx) for trigger in found)


def _holds(trigger, ctx: TaskContext) -> bool:
    """An atom holds by eval_predicate; a pair holds iff both of its atoms hold."""
    if isinstance(trigger, frozenset):
        return all(eval_predicate(atom, ctx) for atom in trigger)
    return eval_predicate(trigger, ctx)


def _facts(trigger) -> frozenset:
    return frozenset(map(fact, trigger if isinstance(trigger, frozenset) else (trigger,)))


@settings(max_examples=500, deadline=None)
@given(st.one_of(_any_predicates, _cased_predicates), _any_contexts)
def test_residual_of_a_trigger_that_holds_is_exact(expr, ctx):
    # A card with no trigger keeps its whole tree, and a fired trigger's
    # facts hold, so each residual decides its card exactly.
    assert residual(expr, frozenset()) is expr
    for trigger in triggers(expr):
        if _holds(trigger, ctx):
            rest = residual(expr, _facts(trigger))
            value = rest if isinstance(rest, bool) else eval_predicate(rest, ctx)
            assert value == eval_predicate(expr, ctx)


def test_residual_shapes():
    word, tag = Contains("x"), Kind("doc")
    facts = _facts(word)
    assert residual(word, facts) is True
    assert residual(Contains("X"), facts) is True  # needles that lower alike
    assert residual(Or(Kind("k"), word), facts) is True
    assert residual(And(word, tag), facts) is tag
    assert residual(And(Or(word, Contains("y")), Not(tag)), facts) == Not(tag)
    assert residual(And(word, Not(Contains("X"))), facts) is False
    untouched = And(Contains("y"), tag)
    assert residual(untouched, facts) is untouched
    pair = frozenset({tag, Mime("pdf")})
    assert residual(And(And(tag, Mime("pdf")), Matches("q")), _facts(pair)) == Matches("q")


def test_resolve_groups_tag_literal_residuals_by_fact():
    hits = [
        (0, parse_predicate('contains:"x" AND kind:doc')),
        (1, parse_predicate('contains:"x" AND NOT kind:doc')),
        (2, parse_predicate('contains:"x" AND NOT mime:pdf')),
        (3, parse_predicate('contains:"x" AND kind:doc')),
        (4, parse_predicate('contains:"x" AND NOT NOT kind:doc')),
        (5, parse_predicate('contains:"x" AND (kind:doc OR mime:pdf)')),
        (6, parse_predicate('contains:"x"')),
        (7, parse_predicate('contains:"x" AND NOT contains:"X"')),
    ]
    sure, groups, check = mesa.dsl._resolve(hits, _facts(Contains("x")))
    assert sure == {6}
    assert sorted(groups) == [
        (("kind", "doc"), False, (1,)),
        (("kind", "doc"), True, (0, 3, 4)),
        (("mime", "pdf"), False, (2,)),
    ]
    assert check == ((5, parse_predicate("kind:doc OR mime:pdf")),)


def _reference(expr: PredicateExpr, ctx: TaskContext) -> bool:
    """eval_predicate's documented semantics, with nothing lowered ahead of time."""
    if isinstance(expr, Contains):
        return expr.text.lower() in ctx.prompt.lower()
    if isinstance(expr, Matches):
        return re.search(expr.pattern, ctx.prompt) is not None
    if isinstance(expr, Kind):
        return expr.tag in ctx.kind_tags
    if isinstance(expr, Mime):
        return any(att.mime_tag == expr.tag for att in ctx.attachments)
    if isinstance(expr, Not):
        return not _reference(expr.child, ctx)
    if isinstance(expr, And):
        return _reference(expr.left, ctx) and _reference(expr.right, ctx)
    return _reference(expr.left, ctx) or _reference(expr.right, ctx)


@settings(max_examples=500, deadline=None)
@given(_any_predicates, _any_contexts)
# Pairs on which lower() and casefold() disagree: final sigma, and ẞ -> ß vs ss.
@example(Contains("ς"), TaskContext(prompt="σ"))
@example(Contains("σ"), TaskContext(prompt="ΑΣ"))
@example(Contains("ss"), TaskContext(prompt="STRAẞE"))
def test_eval_predicate_equals_the_reference_semantics(expr, ctx):
    assert eval_predicate(expr, ctx) == _reference(expr, ctx)


def test_lowered_prompt_is_derived_and_left_out_of_eq_hash_and_repr():
    ctx = TaskContext(prompt="STRAẞE İ", kind_tags=frozenset({"doc"}))
    assert ctx.lowered_prompt == "STRAẞE İ".lower()
    assert replace(ctx, prompt="ΟΔΟΣ").lowered_prompt == "οδος"
    twin = TaskContext(prompt="STRAẞE İ", kind_tags=frozenset({"doc"}))
    object.__setattr__(twin, "lowered_prompt", "something else")
    assert twin == ctx and hash(twin) == hash(ctx)
    assert "lowered_prompt" not in repr(ctx) and repr(twin) == repr(ctx)
    with pytest.raises(TypeError):
        TaskContext(prompt="p", lowered_prompt="p")


def test_after_offload_is_a_new_context_that_keeps_the_lowered_prompt():
    ctx = TaskContext("STRAẞE İ", frozenset({"doc"}), (Attachment("image/png", 3),))
    post = ctx.after_offload(0.25)
    fresh = TaskContext(ctx.prompt, ctx.kind_tags, ctx.attachments, pre_offload_p_self=0.25)
    assert post == fresh and hash(post) == hash(fresh) and repr(post) == repr(fresh)
    assert post.lowered_prompt is ctx.lowered_prompt and ctx.pre_offload_p_self is None
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"pre_offload_p_self must be in \[0, 1\]"):
            ctx.after_offload(bad)


def test_trigger_choice():
    word, other, tag, mime = Contains("w"), Contains("v"), Kind("doc"), Mime("pdf")
    assert triggers(word) == {word}
    assert triggers(Not(word)) == frozenset()
    # AND takes the tag-free side, then the smaller set, then the left side.
    assert triggers(And(tag, word)) == {word}
    assert triggers(And(Or(word, other), Contains("u"))) == {Contains("u")}
    assert triggers(And(Not(word), mime)) == {mime}
    assert triggers(Or(word, Not(other))) == frozenset()
    # An AND of tag atoms takes the pairwise product, equal atoms collapsing.
    pair = frozenset({tag, mime})
    assert triggers(And(tag, mime)) == {pair}
    assert triggers(Or(word, And(tag, mime))) == {word, pair}
    assert triggers(And(tag, Kind("doc"))) == {tag}
    assert triggers(And(Kind("pdf"), mime)) == {frozenset({Kind("pdf"), mime})}
    assert triggers(And(tag, Or(mime, Kind("x")))) == {pair, frozenset({tag, Kind("x")})}
    # A pair ranks after tag-free atoms and before a single tag.
    assert triggers(And(And(tag, mime), word)) == {word}
    assert triggers(And(Kind("x"), And(tag, mime))) == {pair}
    # Past |L|*|R| <= |L|+|R| an AND keeps one side: here the smaller.
    three = Or(Or(Mime("a"), Mime("b")), Mime("c"))
    assert triggers(And(Or(tag, Kind("x")), three)) == {Kind("doc"), Kind("x")}
    two = Or(Mime("a"), Mime("b"))
    assert len(triggers(And(Or(tag, Kind("x")), two))) == 4


def test_tag_product_stays_linear_at_the_operator_cap():
    kinds = " OR ".join(f"kind:k{i}" for i in range(64))
    mimes = " OR ".join(f"mime:m{i}" for i in range(63))
    text = f"({kinds}) AND ({mimes})"
    assert sum(text.split().count(op) for op in ("AND", "OR")) + 2 == MAX_OPERATORS
    expr = parse_predicate(text)
    assert len(triggers(expr)) <= 64 + 63
    one = parse_predicate(f"kind:k AND ({mimes})")
    assert len(triggers(one)) <= 1 + 63


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
        ("kind:doc AND mime:pdf", "p", ("doc",), ("pdf",)),
        ("kind:pdf AND mime:pdf", "p", ("pdf",), ()),
        ("kind:pdf AND mime:pdf", "p", ("pdf",), ("pdf",)),
        ("kind:doc AND kind:doc", "p", ("doc",), ()),
        ("kind:doc AND kind:code", "p", ("doc", "code"), ()),
        ("mime:csv AND mime:pdf", "p", (), ("pdf", "csv")),
        ('contains:"x" AND NOT contains:"X"', "has x", (), ()),
        ("kind:doc AND (mime:pdf OR NOT kind:doc)", "p", ("doc",), ()),
        ('contains:"x" AND NOT mime:pdf', "has x", (), ("pdf",)),
        ('contains:"x" AND NOT mime:pdf', "has x", (), ("csv",)),
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
    assert [card.id for card in registry.matching(ctx)] == ["word"]


def test_index_skips_a_tag_pair_card_without_the_mime():
    registry = CardRegistry(
        cards=(make_card("pair", apply_when='contains:"stock" OR (kind:doc AND mime:pdf)'),)
    )
    without = make_ctx(prompt="a plain prompt", kind_tags=("doc",))
    assert registry.matching(without) == []
    both = make_ctx(
        prompt="a plain prompt", kind_tags=("doc",), attachments=(Attachment(mime_tag="pdf"),)
    )
    assert [card.id for card in registry.matching(both)] == ["pair"]


@given(st.lists(_any_predicates, max_size=8), _any_contexts)
@settings(max_examples=100, deadline=None)
def test_body_loader_copies_share_the_candidates(exprs, ctx):
    registry = _registry(exprs)
    before = registry.with_body_loader(lambda card: "before first use")
    expected = registry.matching(ctx)
    after = registry.with_body_loader(lambda card: "after first use")
    assert before.matching(ctx) == expected
    assert after.matching(ctx) == expected


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
    assert copy.matching(ctx) == registry.matching(ctx) == list(registry.cards)
    assert registry.with_body_loader(lambda card: "again").matching(ctx) == list(registry.cards)
    assert builds == [1]


def test_index_walks_each_shared_tree_once(monkeypatch):
    import mesa.dsl

    walked = []
    real = mesa.dsl.triggers

    def counting(expr):
        walked.append(expr)
        return real(expr)

    monkeypatch.setattr(mesa.dsl, "triggers", counting)
    shared, other = parse_predicate('contains:"task"'), parse_predicate("kind:doc")
    equal_but_distinct = parse_predicate('contains:"task"')
    index = PredicateIndex([shared, other, shared, equal_but_distinct, shared])
    assert sorted(map(id, walked)) == sorted(map(id, [shared, other, equal_but_distinct]))
    assert index.matching(make_ctx()) == [0, 1, 2, 3, 4]
    assert index.matching(make_ctx(prompt="none", kind_tags=())) == []


def test_first_matching_resolves_only_the_triggers_that_fire(monkeypatch):
    import mesa.dsl

    resolved = []
    real = mesa.dsl._resolve

    def counting(hits, facts):
        resolved.append(facts)
        return real(hits, facts)

    monkeypatch.setattr(mesa.dsl, "_resolve", counting)
    registry = CardRegistry(
        cards=(
            make_card("stock", apply_when='contains:"stock"'),
            make_card("bond", apply_when='contains:"bond"'),
            make_card("price", apply_when='kind:doc AND contains:"Price"'),
            make_card("negated", apply_when='NOT contains:"x"'),
            make_card("pattern", apply_when='matches:"^Cur"'),
            make_card("pair", apply_when="kind:doc AND mime:pdf"),
        )
    )
    ctx = make_ctx(prompt="Current stock price", kind_tags=("doc",))
    assert _indexed(registry, ctx) == ["stock", "price", "negated", "pattern"]
    assert sorted(map(sorted, resolved)) == [
        [],  # the cards with no trigger
        [("contains", "price")],
        [("contains", "stock")],
        [("matches", "^Cur")],
    ]
    resolved.clear()
    assert _indexed(registry, ctx) == ["stock", "price", "negated", "pattern"]
    assert resolved == []
    bond = make_ctx(prompt="a bond and a stock", kind_tags=("doc",))
    assert _indexed(registry, bond) == ["stock", "bond", "negated"]
    assert resolved == [frozenset({("contains", "bond")})]


def test_threads_that_first_fire_the_same_keys_all_match_exactly():
    # Every thread may resolve a key that another is resolving or reading;
    # each publishes its resolved entry in one assignment, so none sees a
    # half-built one.
    exprs = [
        parse_predicate(text)
        for i in range(300)
        for text in (
            f'contains:"w{i % 17}" AND kind:k{i % 3}',
            f'contains:"W{i % 13}" OR NOT mime:m{i % 2}',
            f"kind:k{i % 3} AND mime:m{i % 2} AND NOT contains:\"w{i % 5}\"",
        )
    ]
    contexts = [
        make_ctx(
            prompt=" ".join(f"w{(i * j) % 19}" for j in range(4)),
            kind_tags=(f"k{i % 4}",),
            attachments=(Attachment(mime_tag=f"m{i % 3}"),),
        )
        for i in range(12)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            registry = _registry(exprs)
            expected = [_scan(registry, ctx) for ctx in contexts]
            wrong: list[int] = []

            def route(offset: int) -> None:
                for k in range(len(contexts)):
                    n = (k + offset) % len(contexts)
                    if _indexed(registry, contexts[n]) != expected[n]:
                        wrong.append(n)

            threads = [threading.Thread(target=route, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert wrong == []
    finally:
        sys.setswitchinterval(interval)


def test_eval_matrix_never_builds_the_index(monkeypatch, shipped_suite, shipped_script):
    import mesa.cards
    from mesa.bench import run_matrix
    from mesa.cards import load_registry

    def refuse(exprs):
        raise AssertionError("the eval path built the atom index")

    monkeypatch.setattr(mesa.cards, "PredicateIndex", refuse)
    # A fresh registry, so no earlier test has built its index.
    registry = load_registry(DATA / "cards.json")
    table = run_matrix(shipped_suite, registry, shipped_script)
    assert len(table.items) == 7 * len(shipped_suite)
    assert table.cells["full"]["overall"] > 0


def test_literal_scans_build_and_match_exactly_on_extreme_literal_sets():
    # The scans are single compiled regexes: an empty needle, every regex
    # metacharacter, a 10,000-character needle, a 500-long chain of
    # prefixes and 20,000 distinct needles must neither overflow re's
    # limits nor its parser's recursion, and must still find exactly the
    # needles and patterns a full scan finds.
    metachars = ".^$*+?{}[]\\|()"
    long_needle = "".join(chr(0x3B1 + i % 17) for i in range(10_000))  # α to ρ
    exprs: list[PredicateExpr] = [
        Contains(""),
        Contains(metachars),
        Contains(long_needle),
        *(Contains("a" * n) for n in range(1, 501)),
        *(Contains(f"w{i}") for i in range(20_000)),
        Matches("|".join(map(re.escape, ["a" * 300, metachars, long_needle[:5_000]]))),
        Matches("(?:" + "|".join(f"w{i}x" for i in range(2_000)) + ")"),
        Matches("Σ"),
    ]
    index = PredicateIndex(exprs)
    contexts = [
        make_ctx(prompt=f"x {metachars} {'a' * 300} w19999 w7x", kind_tags=()),
        make_ctx(prompt=f"{long_needle.upper()} ΟΔΟΣ {'a' * 600}", kind_tags=()),
        make_ctx(prompt="w1 w12 w123 w1234 w12345 Σ", kind_tags=()),
        make_ctx(prompt="nothing here", kind_tags=()),
    ]
    for ctx in contexts:
        expected = [i for i, expr in enumerate(exprs) if eval_predicate(expr, ctx)]
        assert index.matching(ctx) == expected
    # The empty needle, the long needle, the whole chain and both patterns
    # that hold there (its "a" * 300 literal, and Σ as written).
    assert len(index.matching(contexts[1])) == 1 + 1 + 500 + 2

"""Predicate DSL: grammar, precedence, errors, printing, evaluation."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesa.context import Attachment, TaskContext
from mesa.dsl import (
    And,
    Contains,
    Kind,
    Matches,
    Mime,
    Not,
    Or,
    eval_predicate,
    is_vacuous,
    parse_predicate,
    print_predicate,
)
from mesa.errors import PredicateSyntaxError

from conftest import make_ctx


# ---------------------------------------------------------------------------
# Parsing: grammar and precedence


def test_single_atom_contains():
    assert parse_predicate('contains:"stock price"') == Contains("stock price")


def test_and_not_precedence():
    got = parse_predicate("mime:html AND NOT kind:trivial")
    assert got == And(Mime("html"), Not(Kind("trivial")))


def test_and_binds_tighter_than_or():
    got = parse_predicate('contains:"a" OR contains:"b" AND kind:code')
    assert got == Or(Contains("a"), And(Contains("b"), Kind("code")))


def test_parentheses_override_precedence():
    got = parse_predicate('(contains:"a" OR contains:"b") AND kind:code')
    assert got == And(Or(Contains("a"), Contains("b")), Kind("code"))


def test_left_association():
    assert parse_predicate("kind:a AND kind:b AND kind:c") == And(
        And(Kind("a"), Kind("b")), Kind("c")
    )
    assert parse_predicate("kind:a OR kind:b OR kind:c") == Or(
        Or(Kind("a"), Kind("b")), Kind("c")
    )


def test_not_chains_and_parens():
    assert parse_predicate("NOT NOT kind:a") == Not(Not(Kind("a")))
    assert parse_predicate("NOT (kind:a OR kind:b)") == Not(Or(Kind("a"), Kind("b")))


def test_string_escapes_round_trip():
    expr = parse_predicate('contains:"say \\"hi\\" \\\\ back"')
    assert expr == Contains('say "hi" \\ back')
    assert parse_predicate(print_predicate(expr)) == expr


def test_matches_atom_and_tag_atoms():
    assert parse_predicate('matches:"^[0-9]+$"') == Matches("^[0-9]+$")
    assert parse_predicate("kind:legacy_input") == Kind("legacy_input")
    assert parse_predicate("mime:text.html-v2") == Mime("text.html-v2")


# An independent shunting-yard parser over the same token grammar. Any
# disagreement with the recursive-descent parser is a precedence bug in one
# of them.


def _shunting_yard(tokens: list) -> object:
    prec = {"OR": 1, "AND": 2, "NOT": 3}
    out: list = []
    ops: list[str] = []

    def reduce_op(op: str) -> None:
        if op == "NOT":
            out.append(Not(out.pop()))
        else:
            right = out.pop()
            left = out.pop()
            out.append(And(left, right) if op == "AND" else Or(left, right))

    for tok in tokens:
        if tok in ("AND", "OR"):
            while ops and ops[-1] != "(" and prec[ops[-1]] >= prec[tok]:
                reduce_op(ops.pop())
            ops.append(tok)
        elif tok == "NOT":
            ops.append(tok)
        elif tok == "(":
            ops.append(tok)
        elif tok == ")":
            while ops[-1] != "(":
                reduce_op(ops.pop())
            ops.pop()
        else:
            out.append(tok)
            while ops and ops[-1] == "NOT":
                reduce_op(ops.pop())
    while ops:
        reduce_op(ops.pop())
    assert len(out) == 1
    return out[0]


def test_precedence_against_shunting_yard_oracle():
    # Exhaustive flat expressions: up to 4 atoms, every AND/OR combination,
    # every subset of atoms negated.
    for n in (2, 3, 4):
        atoms = [Kind(f"a{i}") for i in range(n)]
        for ops in itertools.product(("AND", "OR"), repeat=n - 1):
            for negmask in itertools.product((False, True), repeat=n):
                text_parts = []
                tokens: list = []
                for i, atom in enumerate(atoms):
                    if i:
                        text_parts.append(ops[i - 1])
                        tokens.append(ops[i - 1])
                    if negmask[i]:
                        text_parts.append("NOT")
                        tokens.append("NOT")
                    text_parts.append(f"kind:a{i}")
                    tokens.append(atom)
                text = " ".join(text_parts)
                assert parse_predicate(text) == _shunting_yard(tokens), text


# ---------------------------------------------------------------------------
# Errors: every malformed input yields a positioned error, never a crash


@pytest.mark.parametrize(
    "text, offset, expected_contains",
    [
        ("", 0, "contains"),
        ("AND kind:a", 0, "NOT"),
        ("contains", 8, ":"),
        ("contains:", 9, '"'),
        ('contains:"abc', 13, '"'),
        ("kind:", 5, "tag"),
        ("kind: a", 5, "tag"),
        ('foo:"x"', 0, "contains"),
        ("%", 0, "("),
        ("kind:a kind:b", 7, "AND"),
        ("(kind:a", 7, ")"),
        ("kind:a)", 6, "AND"),
        ("NOT", 3, "("),
        ("kind:a AND", 10, "("),
        ("()", 1, "NOT"),
        ("AND %", 4, "("),
        ('contains:"a\\', 12, '"'),
        ("kind:a\x0bAND kind:b", 6, "("),
        ("\x0ckind:a", 0, "("),
    ],
)
def test_positioned_syntax_errors(text, offset, expected_contains):
    with pytest.raises(PredicateSyntaxError) as err:
        parse_predicate(text)
    assert err.value.offset == offset
    assert expected_contains in err.value.expected
    assert str(offset) in str(err.value)


def test_tab_and_crlf_are_whitespace():
    assert parse_predicate("kind:a\tAND\r\nkind:b") == And(Kind("a"), Kind("b"))


@pytest.mark.parametrize("text, offset, char", [("é", 0, "é"), ("kind:a AND “x”", 11, "“")])
def test_unexpected_character_names_the_whole_character(text, offset, char):
    with pytest.raises(PredicateSyntaxError) as err:
        parse_predicate(text)
    assert err.value.offset == offset
    assert "(" in err.value.expected
    assert str(err.value).startswith(f"unexpected character {char!r} at byte {offset}")


def test_invalid_escape_offset():
    with pytest.raises(PredicateSyntaxError) as err:
        parse_predicate('contains:"a\\x"')
    assert err.value.offset == 11


def test_invalid_regex_is_positioned_at_atom():
    with pytest.raises(PredicateSyntaxError) as err:
        parse_predicate('kind:a AND matches:"(unclosed"')
    assert err.value.offset == 11
    assert "regex" in str(err.value)


def test_offsets_are_byte_offsets():
    # The accented character occupies two bytes, shifting later offsets.
    with pytest.raises(PredicateSyntaxError) as err:
        parse_predicate('contains:"é" AND %')
    assert err.value.offset == len('contains:"é" AND '.encode("utf-8"))


_MALFORMED_CORPUS = [
    "",
    "   ",
    "AND",
    "OR kind:a",
    "NOT",
    "NOT AND kind:a",
    "contains",
    "contains:",
    "contains:'single'",
    'contains:"open',
    'contains:"bad\\q"',
    'contains:"dangling\\',
    "matches:",
    'matches:"["',
    'matches:"(?P<broken"',
    "kind:",
    "kind:!",
    "mime:",
    "mime::",
    "unknownatom:tag",
    "kind:a AND",
    "kind:a OR OR kind:b",
    "(kind:a",
    "((kind:a)",
    "kind:a)",
    "()",
    "( )",
    "kind:a mime:b",
    '"loose string"',
    "kind:a & kind:b",
    "kind:a AND (mime:b OR)",
]


@pytest.mark.parametrize("text", _MALFORMED_CORPUS)
def test_malformed_corpus_always_positioned_error(text):
    with pytest.raises(PredicateSyntaxError) as err:
        parse_predicate(text)
    exc = err.value
    assert 0 <= exc.offset <= len(text.encode("utf-8"))
    assert isinstance(exc.expected, frozenset)


# ---------------------------------------------------------------------------
# Printing


def test_print_minimal_parens():
    a, b, c = Kind("a"), Kind("b"), Kind("c")
    assert print_predicate(And(Or(a, b), c)) == "(kind:a OR kind:b) AND kind:c"
    assert print_predicate(Or(a, And(b, c))) == "kind:a OR kind:b AND kind:c"
    assert print_predicate(And(a, And(b, c))) == "kind:a AND (kind:b AND kind:c)"
    assert print_predicate(And(And(a, b), c)) == "kind:a AND kind:b AND kind:c"
    assert print_predicate(Not(And(a, b))) == "NOT (kind:a AND kind:b)"
    assert print_predicate(Not(Not(a))) == "NOT NOT kind:a"


# Hypothesis AST generator, depth <= 6.

_atoms = st.one_of(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8
    ).map(Contains),
    st.sampled_from(["abc", "a+", "[0-9]+", "^x", "x$", ""]).map(Matches),
    st.from_regex(r"[A-Za-z0-9_.\-]{1,8}", fullmatch=True).map(Kind),
    st.from_regex(r"[A-Za-z0-9_.\-]{1,8}", fullmatch=True).map(Mime),
)

_predicates = st.recursive(
    _atoms,
    lambda children: st.one_of(
        children.map(Not),
        st.tuples(children, children).map(lambda lr: And(*lr)),
        st.tuples(children, children).map(lambda lr: Or(*lr)),
    ),
    max_leaves=32,
)


@settings(max_examples=1000, deadline=None)
@given(_predicates)
def test_parse_print_round_trip(expr):
    assert parse_predicate(print_predicate(expr)) == expr


_contexts = st.builds(
    TaskContext,
    prompt=st.text(min_size=1, max_size=40),
    kind_tags=st.frozensets(st.sampled_from(["a", "b", "doc", "code"]), max_size=3),
    attachments=st.lists(
        st.builds(Attachment, mime_tag=st.sampled_from(["html", "csv", "png"])),
        max_size=2,
    ).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(_predicates, _contexts)
def test_eval_pure_and_boolean_laws(expr, ctx):
    first = eval_predicate(expr, ctx)
    assert eval_predicate(expr, ctx) is first
    assert eval_predicate(Not(expr), ctx) is (not first)
    assert eval_predicate(And(expr, expr), ctx) is first
    assert eval_predicate(Or(expr, expr), ctx) is first


# ---------------------------------------------------------------------------
# Evaluation semantics


def test_eval_contains_substring():
    ctx = make_ctx(prompt="What is 2+2?")
    assert eval_predicate(Contains("2+2"), ctx) is True


def test_eval_contains_case_insensitive():
    ctx = make_ctx(prompt="Current STOCK Price")
    assert eval_predicate(Contains("stock price"), ctx) is True
    assert eval_predicate(Contains("bond"), ctx) is False


def test_eval_mime_no_attachments_false():
    ctx = make_ctx(attachments=())
    assert eval_predicate(Mime("html"), ctx) is False


def test_eval_and_not_combination():
    ctx = make_ctx(
        prompt="current date", attachments=(Attachment(mime_tag="html"),)
    )
    expr = And(Contains("date"), Not(Mime("html")))
    assert eval_predicate(expr, ctx) is False


def test_eval_matches_is_regex_search():
    ctx = make_ctx(prompt="order 12345 shipped")
    assert eval_predicate(Matches("[0-9]{5}"), ctx) is True
    assert eval_predicate(Matches("^order"), ctx) is True
    assert eval_predicate(Matches("^12345"), ctx) is False


def test_eval_kind_exact_tag():
    ctx = make_ctx(kind_tags=("html_input",))
    assert eval_predicate(Kind("html_input"), ctx) is True
    assert eval_predicate(Kind("html"), ctx) is False


def test_is_vacuous():
    assert is_vacuous(Contains("")) is True
    assert is_vacuous(Matches("")) is True
    assert is_vacuous(Contains("x")) is False
    assert is_vacuous(And(Contains(""), Contains(""))) is False


def test_ast_validation_rejects_bad_nodes():
    with pytest.raises(ValueError):
        Matches("(unclosed")
    with pytest.raises(ValueError):
        Kind("has space")
    with pytest.raises(ValueError):
        Mime("")

"""The byte-level lexer and recursive-descent parser that mesa.dsl replaced.

A test-only oracle for tests/test_dsl_differential.py, kept as it shipped:
it encodes the whole input to UTF-8, lexes the bytes with one regex match per
token, then parses with one method per precedence level. The one-pass str
parser in mesa.dsl must give the same trees and, for every malformed input,
the same message, byte offset and expected-token set, with the same error
precedence (a lone surrogate anywhere beats a lexing error anywhere, and a
lexing error beats a parse error).
"""

from __future__ import annotations

import re

from mesa.dsl import Contains, Kind, Matches, Mime, Not, And, Or, PredicateExpr
from mesa.errors import PredicateSyntaxError

_ATOM_NAMES = ("contains", "matches", "kind", "mime")
_EXPR_START = frozenset(_ATOM_NAMES) | {"NOT", "("}
_AFTER_OPERAND = frozenset(_ATOM_NAMES) | {")", "end of input"}
MAX_OPERATORS = 128

_WORD = rb"[A-Za-z0-9_.-]+"
_TOKEN_RE = re.compile(rb"[ \t\r\n]*(?:([()])|(" + _WORD + rb")|(.))?", re.S)
_WORD_RE = re.compile(_WORD)
_STRING_BODY_RE = re.compile(rb'(?:[^"\\]|\\["\\])*')
_ESCAPE_RE = re.compile(rb"\\(.)")


def _lex(data: bytes) -> list[tuple[str, int, PredicateExpr | None]]:
    tokens: list[tuple[str, int, PredicateExpr | None]] = []
    operators = 0
    i = 0
    while True:
        m = _TOKEN_RE.match(data, i)
        i, group = m.end(), m.lastindex
        if group is None:
            tokens.append(("EOF", i, None))
            return tokens
        start = m.start(group)
        if group == 3:
            char = data[start : start + 4].decode("utf-8", "ignore")[0]
            raise PredicateSyntaxError(f"unexpected character {char!r}", start, _EXPR_START)
        word = m[group].decode()
        if group == 1 or word in ("AND", "OR", "NOT"):
            operators += word != ")"
            if operators > MAX_OPERATORS:
                raise PredicateSyntaxError(
                    f"more than {MAX_OPERATORS} NOT/AND/OR/( tokens", start, _AFTER_OPERAND
                )
            tokens.append((word, start, None))
        elif word in _ATOM_NAMES:
            atom, i = _lex_atom(word, data, i, start)
            tokens.append(("ATOM", start, atom))
        else:
            raise PredicateSyntaxError(
                f"unknown name {word!r}", start, _EXPR_START | {"AND", "OR"}
            )


def _lex_atom(name: str, data: bytes, i: int, word_start: int) -> tuple[PredicateExpr, int]:
    if data[i : i + 1] != b":":
        raise PredicateSyntaxError(f"expected ':' after {name!r}", i, frozenset({":"}))
    i += 1
    if name in ("kind", "mime"):
        m = _WORD_RE.match(data, i)
        if m is None:
            raise PredicateSyntaxError(f"expected tag after '{name}:'", i, frozenset({"tag"}))
        tag = m[0].decode()
        return (Kind(tag) if name == "kind" else Mime(tag)), m.end()
    if data[i : i + 1] != b'"':
        raise PredicateSyntaxError("expected string literal", i, frozenset({'"'}))
    end = _STRING_BODY_RE.match(data, i + 1).end()
    if data[end : end + 1] != b'"':
        if end + 1 < len(data):
            raise PredicateSyntaxError("invalid escape sequence", end, frozenset({'\\"', "\\\\"}))
        raise PredicateSyntaxError("unterminated string literal", len(data), frozenset({'"'}))
    value = _ESCAPE_RE.sub(rb"\1", data[i + 1 : end]).decode("utf-8")
    if name == "contains":
        return Contains(value), end + 1
    try:
        return Matches(value), end + 1
    except ValueError as exc:
        raise PredicateSyntaxError(str(exc), word_start, frozenset()) from exc


class _Parser:
    def __init__(self, tokens: list[tuple[str, int, PredicateExpr | None]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def take(self, kind: str) -> tuple[str, int, PredicateExpr | None] | None:
        token = self.tokens[self.pos]
        if token[0] != kind:
            return None
        self.pos += 1
        return token

    def parse_or(self) -> PredicateExpr:
        node = self.parse_and()
        while self.take("OR"):
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> PredicateExpr:
        node = self.parse_unary()
        while self.take("AND"):
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> PredicateExpr:
        if self.take("NOT"):
            return Not(self.parse_unary())
        if self.take("("):
            node = self.parse_or()
            if not self.take(")"):
                raise PredicateSyntaxError(
                    "expected closing parenthesis", self.tokens[self.pos][1], frozenset({")"})
                )
            return node
        token = self.take("ATOM")
        if token is None:
            raise PredicateSyntaxError(
                "expected expression", self.tokens[self.pos][1], _EXPR_START
            )
        return token[2]


def oracle_parse(text: str) -> PredicateExpr:
    """Parse text exactly as the byte-level parser did."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        offset = len(text[: exc.start].encode("utf-8"))
        raise PredicateSyntaxError(
            f"lone surrogate {text[exc.start]!r}", offset, frozenset({"a valid character"})
        ) from None
    parser = _Parser(_lex(data))
    node = parser.parse_or()
    kind, offset, _ = parser.tokens[parser.pos]
    if kind != "EOF":
        raise PredicateSyntaxError(
            f"unexpected {kind!r} after expression",
            offset,
            frozenset({"AND", "OR", "end of input"}),
        )
    return node

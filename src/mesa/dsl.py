"""Boolean predicate DSL for card routing fields.

Grammar (operators uppercase, atom names lowercase):

    expr    := and ("OR" and)*
    and     := unary ("AND" unary)*
    unary   := "NOT" unary | primary
    primary := "(" expr ")" | atom
    atom    := "contains" ":" STRING | "matches" ":" STRING
             | "kind" ":" TAG      | "mime" ":" TAG
    STRING  := '"' (any char, escapes \\" and \\\\) '"'
    TAG     := [A-Za-z0-9_.-]+

Precedence NOT > AND > OR; AND/OR associate left; parentheses override.
The lexer works on the UTF-8 byte encoding so every syntax error carries a
0-based byte offset plus the set of tokens that would have been legal there.

Evaluation semantics: `contains` is a case-insensitive substring test on the
prompt, `matches` is a regex search on the prompt, `kind`/`mime` are exact tag
membership tests on the context's kind tags and attachment mime tags.

PredicateIndex prefilters many predicates at once: from each predicate's
triggers it finds, per context, a superset of the predicates that hold,
without walking their trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

from mesa.context import TaskContext
from mesa.errors import PredicateSyntaxError

_TAG_RE = re.compile(r"[A-Za-z0-9_.\-]+\Z")
_ATOM_NAMES = ("contains", "matches", "kind", "mime")
_EXPR_START = frozenset(_ATOM_NAMES) | {"NOT", "("}


@dataclass(frozen=True)
class Contains:
    """Case-insensitive substring test against the prompt."""

    text: str


@dataclass(frozen=True)
class Matches:
    """Regex search against the prompt."""

    pattern: str

    def __post_init__(self) -> None:
        try:
            re.compile(self.pattern)
        except re.error as exc:
            raise ValueError(f"invalid regex pattern {self.pattern!r}: {exc}") from exc


@dataclass(frozen=True)
class Kind:
    """Exact membership test against the context kind tags."""

    tag: str

    def __post_init__(self) -> None:
        if not _TAG_RE.match(self.tag):
            raise ValueError(f"invalid kind tag {self.tag!r}")


@dataclass(frozen=True)
class Mime:
    """Exact match test against any attachment mime tag."""

    tag: str

    def __post_init__(self) -> None:
        if not _TAG_RE.match(self.tag):
            raise ValueError(f"invalid mime tag {self.tag!r}")


@dataclass(frozen=True)
class Not:
    child: "PredicateExpr"


@dataclass(frozen=True)
class And:
    left: "PredicateExpr"
    right: "PredicateExpr"


@dataclass(frozen=True)
class Or:
    left: "PredicateExpr"
    right: "PredicateExpr"


PredicateExpr = Union[Contains, Matches, Kind, Mime, Not, And, Or]

_ATOM_TYPES = (Contains, Matches, Kind, Mime)


def is_vacuous(expr: PredicateExpr) -> bool:
    """True for the match-everything atoms contains:"" and matches:""."""
    return (isinstance(expr, Contains) and expr.text == "") or (
        isinstance(expr, Matches) and expr.pattern == ""
    )


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # one of: ( ) NOT AND OR ATOM EOF
    offset: int
    atom: PredicateExpr | None = None


def _fail(message: str, offset: int, expected: frozenset[str]) -> "PredicateSyntaxError":
    return PredicateSyntaxError(message, offset, expected)


def _lex(data: bytes) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(data)
    while i < n:
        b = data[i]
        if b in b" \t\r\n":
            i += 1
            continue
        if b == ord("("):
            tokens.append(_Token("(", i))
            i += 1
            continue
        if b == ord(")"):
            tokens.append(_Token(")", i))
            i += 1
            continue
        if bytes([b]).isalnum() or b in b"_.-":
            start = i
            while i < n and (bytes([data[i]]).isalnum() or data[i] in b"_.-"):
                i += 1
            word = data[start:i].decode("utf-8")
            if word in ("AND", "OR", "NOT"):
                tokens.append(_Token(word, start))
                continue
            if word in _ATOM_NAMES:
                atom, i = _lex_atom(word, data, i, start)
                tokens.append(_Token("ATOM", start, atom))
                continue
            raise _fail(f"unknown name {word!r}", start, _EXPR_START | {"AND", "OR"})
        raise _fail(f"unexpected character {chr(b)!r}", i, _EXPR_START)
    tokens.append(_Token("EOF", n))
    return tokens


def _lex_atom(name: str, data: bytes, i: int, word_start: int) -> tuple[PredicateExpr, int]:
    """Lex the ':' and value following an atom name; returns (atom, next index)."""
    n = len(data)
    if i >= n or data[i] != ord(":"):
        raise _fail(f"expected ':' after {name!r}", i, frozenset({":"}))
    i += 1
    if name in ("contains", "matches"):
        if i >= n or data[i] != ord('"'):
            raise _fail("expected string literal", i, frozenset({'"'}))
        value, i = _lex_string(data, i)
        if name == "contains":
            return Contains(value), i
        try:
            return Matches(value), i
        except ValueError as exc:
            raise _fail(str(exc), word_start, frozenset()) from exc
    # kind / mime take a bare tag
    start = i
    while i < n and (bytes([data[i]]).isalnum() or data[i] in b"_.-"):
        i += 1
    if i == start:
        raise _fail(f"expected tag after '{name}:'", start, frozenset({"tag"}))
    tag = data[start:i].decode("utf-8")
    return (Kind(tag) if name == "kind" else Mime(tag)), i


def _lex_string(data: bytes, i: int) -> tuple[str, int]:
    """Lex a double-quoted string starting at data[i] == '\"'."""
    n = len(data)
    i += 1
    out = bytearray()
    while i < n:
        b = data[i]
        if b == ord('"'):
            return out.decode("utf-8"), i + 1
        if b == ord("\\"):
            if i + 1 >= n:
                break
            esc = data[i + 1]
            if esc not in (ord('"'), ord("\\")):
                raise _fail("invalid escape sequence", i, frozenset({'\\"', "\\\\"}))
            out.append(esc)
            i += 2
            continue
        out.append(b)
        i += 1
    raise _fail("unterminated string literal", n, frozenset({'"'}))


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse_or(self) -> PredicateExpr:
        node = self.parse_and()
        while self.peek().kind == "OR":
            self.advance()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> PredicateExpr:
        node = self.parse_unary()
        while self.peek().kind == "AND":
            self.advance()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> PredicateExpr:
        if self.peek().kind == "NOT":
            self.advance()
            return Not(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> PredicateExpr:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            node = self.parse_or()
            closing = self.peek()
            if closing.kind != ")":
                raise _fail("expected closing parenthesis", closing.offset, frozenset({")"}))
            self.advance()
            return node
        if tok.kind == "ATOM":
            self.advance()
            assert tok.atom is not None
            return tok.atom
        raise _fail("expected expression", tok.offset, _EXPR_START)


def parse_predicate(text: str) -> PredicateExpr:
    """Parse DSL source into an AST.

    Raises PredicateSyntaxError with a 0-based byte offset and the set of
    tokens that would have been legal at that point.
    """
    parser = _Parser(_lex(text.encode("utf-8")))
    node = parser.parse_or()
    trailing = parser.peek()
    if trailing.kind != "EOF":
        raise _fail(
            f"unexpected {trailing.kind!r} after expression",
            trailing.offset,
            frozenset({"AND", "OR", "end of input"}),
        )
    return node


# ---------------------------------------------------------------------------
# Printer

_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_UNARY = 3
_LEVEL_ATOM = 4


def _level(expr: PredicateExpr) -> int:
    if isinstance(expr, Or):
        return _LEVEL_OR
    if isinstance(expr, And):
        return _LEVEL_AND
    if isinstance(expr, Not):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _print_at(expr: PredicateExpr, min_level: int) -> str:
    text = print_predicate(expr)
    if _level(expr) < min_level:
        return f"({text})"
    return text


def print_predicate(expr: PredicateExpr) -> str:
    """Render an AST to canonical DSL source; parse(print(t)) == t."""
    if isinstance(expr, Contains):
        return f'contains:"{_escape(expr.text)}"'
    if isinstance(expr, Matches):
        return f'matches:"{_escape(expr.pattern)}"'
    if isinstance(expr, Kind):
        return f"kind:{expr.tag}"
    if isinstance(expr, Mime):
        return f"mime:{expr.tag}"
    if isinstance(expr, Not):
        return f"NOT {_print_at(expr.child, _LEVEL_UNARY)}"
    if isinstance(expr, And):
        # right child needs parens at equal level to preserve left association
        return f"{_print_at(expr.left, _LEVEL_AND)} AND {_print_at(expr.right, _LEVEL_AND + 1)}"
    if isinstance(expr, Or):
        return f"{_print_at(expr.left, _LEVEL_OR)} OR {_print_at(expr.right, _LEVEL_OR + 1)}"
    raise TypeError(f"not a predicate node: {expr!r}")


# ---------------------------------------------------------------------------
# Evaluation


@lru_cache(maxsize=512)
def _compiled(pattern: str) -> re.Pattern[str]:
    return re.compile(pattern)


def eval_predicate(expr: PredicateExpr, ctx: TaskContext) -> bool:
    """Evaluate a predicate against a task context. Total and pure."""
    if isinstance(expr, Contains):
        return expr.text.lower() in ctx.prompt.lower()
    if isinstance(expr, Matches):
        return _compiled(expr.pattern).search(ctx.prompt) is not None
    if isinstance(expr, Kind):
        return expr.tag in ctx.kind_tags
    if isinstance(expr, Mime):
        return any(att.mime_tag == expr.tag for att in ctx.attachments)
    if isinstance(expr, Not):
        return not eval_predicate(expr.child, ctx)
    if isinstance(expr, And):
        return eval_predicate(expr.left, ctx) and eval_predicate(expr.right, ctx)
    if isinstance(expr, Or):
        return eval_predicate(expr.left, ctx) or eval_predicate(expr.right, ctx)
    raise TypeError(f"not a predicate node: {expr!r}")


# ---------------------------------------------------------------------------
# Prefilter index


def _trigger_rank(atoms: frozenset[PredicateExpr]) -> tuple[bool, int]:
    return any(isinstance(atom, (Kind, Mime)) for atom in atoms), len(atoms)


def triggers(expr: PredicateExpr) -> frozenset[PredicateExpr]:
    """Atoms at least one of which holds whenever expr holds.

    The empty set promises nothing: expr may hold while every atom in it is
    false (NOT, or an OR with such a side). An AND needs one side's atoms
    only; it takes a side without kind/mime atoms when it can, since a tag
    is shared by many contexts, then the smaller set.
    """
    if isinstance(expr, And):
        left, right = triggers(expr.left), triggers(expr.right)
        if left and right:
            return min(left, right, key=_trigger_rank)
        return left or right
    if isinstance(expr, Or):
        left, right = triggers(expr.left), triggers(expr.right)
        return left | right if left and right else frozenset()
    if isinstance(expr, Not):
        return frozenset()
    if isinstance(expr, _ATOM_TYPES):
        return frozenset((expr,))
    raise TypeError(f"not a predicate node: {expr!r}")


class PredicateIndex:
    """Which of many predicates may hold for a context, found by atom.

    Each distinct trigger atom maps to the positions of the predicates it
    triggers; predicates with no trigger set are always candidates. Per
    context the prompt is lowered once, each distinct `contains` needle and
    `matches` pattern is tested once, with eval_predicate's own tests, and
    `kind`/`mime` are looked up by the context's own tags. The result holds
    every position whose predicate holds, and usually few others.
    """

    def __init__(self, exprs: Iterable[PredicateExpr]) -> None:
        needles: dict[str, set[int]] = {}
        patterns: dict[str, set[int]] = {}
        kinds: dict[str, set[int]] = {}
        mimes: dict[str, set[int]] = {}
        always: list[int] = []
        for position, expr in enumerate(exprs):
            atoms = triggers(expr)
            if not atoms:
                always.append(position)
            for atom in atoms:
                if isinstance(atom, Contains):
                    needles.setdefault(atom.text.lower(), set()).add(position)
                elif isinstance(atom, Matches):
                    patterns.setdefault(atom.pattern, set()).add(position)
                elif isinstance(atom, Kind):
                    kinds.setdefault(atom.tag, set()).add(position)
                else:
                    mimes.setdefault(atom.tag, set()).add(position)
        self._always = always
        self._needles = list(needles.items())
        self._patterns = [(re.compile(pattern), hits) for pattern, hits in patterns.items()]
        self._kinds = kinds
        self._mimes = mimes

    def candidates(self, ctx: TaskContext) -> list[int]:
        """Positions, ascending, of every predicate that may hold for ctx."""
        found = set(self._always)
        prompt = ctx.prompt
        lowered = prompt.lower()
        for needle, hits in self._needles:
            if needle in lowered:
                found |= hits
        for pattern, hits in self._patterns:
            if pattern.search(prompt) is not None:
                found |= hits
        for tag in ctx.kind_tags:
            found |= self._kinds.get(tag, frozenset())
        for att in ctx.attachments:
            found |= self._mimes.get(att.mime_tag, frozenset())
        return sorted(found)

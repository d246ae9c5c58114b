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
# Lexer: a token is (kind, byte offset, atom), kind one of ( ) NOT AND OR ATOM EOF

_WORD = rb"[A-Za-z0-9_.-]+"
# Whitespace, then a parenthesis, a word or any other byte; no group at the end.
_TOKEN_RE = re.compile(rb"[ \t\r\n]*(?:([()])|(" + _WORD + rb")|(.))?", re.S)
_WORD_RE = re.compile(_WORD)
_STRING_BODY_RE = re.compile(rb'(?:[^"\\]|\\["\\])*')
_ESCAPE_RE = re.compile(rb"\\(.)")


def _lex(data: bytes) -> list[tuple[str, int, PredicateExpr | None]]:
    tokens: list[tuple[str, int, PredicateExpr | None]] = []
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
            tokens.append((word, start, None))
        elif word in _ATOM_NAMES:
            atom, i = _lex_atom(word, data, i, start)
            tokens.append(("ATOM", start, atom))
        else:
            raise PredicateSyntaxError(
                f"unknown name {word!r}", start, _EXPR_START | {"AND", "OR"}
            )


def _lex_atom(name: str, data: bytes, i: int, word_start: int) -> tuple[PredicateExpr, int]:
    """Lex the ':' and value following an atom name; returns (atom, next index)."""
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
        if end + 1 < len(data):  # a backslash before anything but " or \
            raise PredicateSyntaxError("invalid escape sequence", end, frozenset({'\\"', "\\\\"}))
        raise PredicateSyntaxError("unterminated string literal", len(data), frozenset({'"'}))
    value = _ESCAPE_RE.sub(rb"\1", data[i + 1 : end]).decode("utf-8")
    if name == "contains":
        return Contains(value), end + 1
    try:
        return Matches(value), end + 1
    except ValueError as exc:
        raise PredicateSyntaxError(str(exc), word_start, frozenset()) from exc


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[tuple[str, int, PredicateExpr | None]]) -> None:
        self.tokens = tokens
        self.pos = 0

    def take(self, kind: str) -> tuple[str, int, PredicateExpr | None] | None:
        """Consume and return the next token if it is of this kind."""
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


def parse_predicate(text: str) -> PredicateExpr:
    """Parse DSL source into an AST.

    Raises PredicateSyntaxError with a 0-based byte offset and the set of
    tokens that would have been legal at that point. The whole input is
    lexed first, so a lexing error anywhere wins over a parse error.
    """
    parser = _Parser(_lex(text.encode("utf-8")))
    node = parser.parse_or()
    kind, offset, _ = parser.tokens[parser.pos]
    if kind != "EOF":
        raise PredicateSyntaxError(
            f"unexpected {kind!r} after expression",
            offset,
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

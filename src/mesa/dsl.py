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
At most MAX_OPERATORS NOT/AND/OR/( tokens bound the depth of every tree.

Evaluation semantics: `contains` is a case-insensitive substring test on the
prompt (`text.lower() in prompt.lower()`), `matches` is a regex search on the
prompt, `kind`/`mime` are exact tag membership tests on the context's kind
tags and attachment mime tags. The needle and the prompt are each lowered
once, when the atom and the TaskContext are built, so evaluation lowercases
nothing.

PredicateIndex prefilters many predicates at once: from each predicate's
triggers (atoms, and pairs of kind/mime atoms that must both hold) it
finds, per context, a superset of the predicates that hold, without
walking their trees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Union

from mesa.context import TaskContext
from mesa.errors import PredicateSyntaxError

_TAG_RE = re.compile(r"[A-Za-z0-9_.\-]+\Z")
_ATOM_NAMES = ("contains", "matches", "kind", "mime")
_EXPR_START = frozenset(_ATOM_NAMES) | {"NOT", "("}
_AFTER_OPERAND = frozenset(_ATOM_NAMES) | {")", "end of input"}
# Shipped cards use at most 8; the parser takes 3 frames per parenthesis, so
# it and every walk over a tree stay far from the recursion limit.
MAX_OPERATORS = 128


@dataclass(frozen=True)
class Contains:
    """Case-insensitive substring test against the prompt, lowered once when built."""

    text: str
    lowered_text: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lowered_text", self.text.lower())


@dataclass(frozen=True)
class Matches:
    """Regex search against the prompt, compiled once when the atom is built."""

    pattern: str
    regex: re.Pattern[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "regex", re.compile(self.pattern))
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
    encoded, then lexed, before parsing, so a lone surrogate anywhere wins
    over a lexing error, and a lexing error anywhere over a parse error.
    """
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


# ---------------------------------------------------------------------------
# Printer


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _print_in(expr: PredicateExpr, looser: tuple[type, ...]) -> str:
    """Print expr, parenthesized if it is one of the looser-binding node types."""
    text = print_predicate(expr)
    return f"({text})" if isinstance(expr, looser) else text


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
        return f"NOT {_print_in(expr.child, (And, Or))}"
    if isinstance(expr, And):
        # right child needs parens at equal level to preserve left association
        return f"{_print_in(expr.left, (Or,))} AND {_print_in(expr.right, (And, Or))}"
    if isinstance(expr, Or):
        return f"{print_predicate(expr.left)} OR {_print_in(expr.right, (Or,))}"
    raise TypeError(f"not a predicate node: {expr!r}")


# ---------------------------------------------------------------------------
# Evaluation


def eval_predicate(expr: PredicateExpr, ctx: TaskContext) -> bool:
    """Evaluate a predicate against a task context. Total and pure.

    Dispatches on the exact node type, the commonest first; `contains`
    compares the needle and the prompt that the atom and the context each
    lowered once, when they were built.
    """
    node = type(expr)
    if node is Or:
        return eval_predicate(expr.left, ctx) or eval_predicate(expr.right, ctx)
    if node is And:
        return eval_predicate(expr.left, ctx) and eval_predicate(expr.right, ctx)
    if node is Contains:
        return expr.lowered_text in ctx.lowered_prompt
    if node is Kind:
        return expr.tag in ctx.kind_tags
    if node is Mime:
        for att in ctx.attachments:
            if att.mime_tag == expr.tag:
                return True
        return False
    if node is Matches:
        return expr.regex.search(ctx.prompt) is not None
    if node is Not:
        return not eval_predicate(expr.child, ctx)
    raise TypeError(f"not a predicate node: {expr!r}")


# ---------------------------------------------------------------------------
# Prefilter index

# A trigger is an atom, or a frozenset of two distinct kind/mime atoms that
# holds when both of them do.
Trigger = Union[PredicateExpr, frozenset[PredicateExpr]]


def _both(first: PredicateExpr, second: PredicateExpr) -> Trigger:
    return first if first == second else frozenset((first, second))


def _trigger_rank(found: frozenset[Trigger]) -> tuple[int, int]:
    # A single tag is shared by many contexts, a pair of tags by fewer.
    worst = max(
        2 if isinstance(t, (Kind, Mime)) else 1 if isinstance(t, frozenset) else 0
        for t in found
    )
    return worst, len(found)


def _tags_only(found: frozenset[Trigger]) -> bool:
    return all(isinstance(t, (Kind, Mime)) for t in found)


def triggers(expr: PredicateExpr) -> frozenset[Trigger]:
    """Triggers at least one of which holds whenever expr holds.

    A trigger is an atom, or an unordered pair of two distinct kind/mime
    atoms (a frozenset) that holds when both of them hold. The empty set
    promises nothing: expr may hold while every trigger in it is false (NOT,
    or an OR with such a side). An AND whose two sides have only single
    kind/mime atoms takes their pairwise product, two equal atoms giving
    that atom, while the product has at most as many triggers as the two
    sides together, so the set stays linear in the size of expr. Any other
    AND needs one side's triggers only: it prefers tag-free atoms, then
    pairs, then single tags, then the smaller set, then the left side.
    """
    node = type(expr)
    if node is And:
        left, right = triggers(expr.left), triggers(expr.right)
        if not (left and right):
            return left or right
        n, m = len(left), len(right)
        if n * m <= n + m and _tags_only(left) and _tags_only(right):
            return frozenset(_both(a, b) for a in left for b in right)
        return min(left, right, key=_trigger_rank)
    if node is Or:
        left, right = triggers(expr.left), triggers(expr.right)
        return left | right if left and right else frozenset()
    if node is Not:
        return frozenset()
    if node in _ATOM_TYPES:
        return frozenset((expr,))
    raise TypeError(f"not a predicate node: {expr!r}")


def _fact(atom: Kind | Mime) -> tuple[str, str]:
    return ("kind" if isinstance(atom, Kind) else "mime", atom.tag)


class PredicateIndex:
    """Which of many predicates may hold for a context, found by trigger.

    Each distinct trigger maps to the positions of the predicates it
    triggers; predicates with no trigger set are always candidates. Per
    context each distinct `contains` needle and `matches` pattern is tested
    once, with eval_predicate's own tests (the needle and the prompt each
    lowered once, when the atom and the context were built). Tags are
    facts, ("kind", tag) or ("mime", tag): a single tag is keyed by its
    fact and a pair by the frozenset of its two facts, and both are looked
    up from the context's own distinct facts and each unordered pair of
    them. The result holds every position whose predicate holds, and
    usually few others.
    """

    def __init__(self, exprs: Iterable[PredicateExpr]) -> None:
        needles: dict[str, set[int]] = {}
        patterns: dict[Matches, set[int]] = {}
        tags: dict[object, set[int]] = {}
        always: list[int] = []
        # Cards with equal predicate texts share one tree. Taken in order of
        # tree identity, a shared tree's positions are adjacent, so each tree
        # is walked once and only its own triggers are held meanwhile (a
        # table of every tree's triggers measured slower, through its
        # allocations, than walking the shared trees again).
        exprs = list(exprs)
        last: PredicateExpr | None = None
        found: frozenset[Trigger] = frozenset()
        for position in sorted(range(len(exprs)), key=lambda i: id(exprs[i])):
            expr = exprs[position]
            if expr is not last:
                last, found = expr, triggers(expr)
            if not found:
                always.append(position)
            for trigger in found:
                if isinstance(trigger, Contains):
                    needles.setdefault(trigger.lowered_text, set()).add(position)
                elif isinstance(trigger, Matches):
                    patterns.setdefault(trigger, set()).add(position)
                elif isinstance(trigger, frozenset):
                    key = frozenset(map(_fact, trigger))
                    tags.setdefault(key, set()).add(position)
                else:
                    tags.setdefault(_fact(trigger), set()).add(position)
        self._always = always
        self._needles = list(needles.items())
        self._patterns = [(atom.regex, hits) for atom, hits in patterns.items()]
        self._tags = tags

    def candidates(self, ctx: TaskContext) -> list[int]:
        """Positions, ascending, of every predicate that may hold for ctx."""
        found = set(self._always)
        prompt = ctx.prompt
        lowered = ctx.lowered_prompt
        for needle, hits in self._needles:
            if needle in lowered:
                found |= hits
        for pattern, hits in self._patterns:
            if pattern.search(prompt) is not None:
                found |= hits
        facts = {("kind", tag) for tag in ctx.kind_tags}
        facts.update(("mime", att.mime_tag) for att in ctx.attachments)
        tags = self._tags
        for fact in facts:
            found |= tags.get(fact, frozenset())
        for pair in combinations(facts, 2):
            found |= tags.get(frozenset(pair), frozenset())
        return sorted(found)

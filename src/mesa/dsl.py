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
One pass of a one-group regex lexes the str itself, not its UTF-8 bytes, and
one loop parses the tokens by precedence. Each atom token is looked up in a
table of the atoms built so far, which a predicate_parser keeps across the
texts it parses (one card file), so each distinct atom is built, checked and
compiled once. Every syntax error still carries a 0-based byte offset into
the UTF-8 encoding of the text, worked out only when the error is raised,
plus the set of tokens that would have been legal there.
At most MAX_OPERATORS NOT/AND/OR/( tokens bound the depth of every tree.

Evaluation semantics: `contains` is a case-insensitive substring test on the
prompt (`text.lower() in prompt.lower()`), `matches` is a regex search on the
prompt, `kind`/`mime` are exact tag membership tests on the context's kind
tags and attachment mime tags. The needle and the prompt are each lowered
once, when the atom and the TaskContext are built, so evaluation lowercases
nothing.

PredicateIndex matches many predicates at once, exactly: from each
predicate's triggers (atoms, and pairs of kind/mime atoms that must both
hold), held in one table keyed by the facts each trigger tests, it finds
the triggers that fire for a context, and decides each predicate they
trigger by its residual, what is left of its tree once the trigger's facts
are taken as true: often nothing (TRUE) or one tag test.
Residuals are worked out the first time their trigger fires, and those
that are one tag test or its negation are grouped by the fact they test,
so one lookup in the context's facts decides a whole group. Its `contains`
needles, and the literals of its `matches` patterns that are plain literal
alternations, are found by one regex scan each over the prompt, built with
the index, so a context costs one pass per scan however many needles and
patterns the predicates hold.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Callable, Iterable, Union

from mesa.context import TaskContext
from mesa.errors import PredicateSyntaxError

_TAG_RE = re.compile(r"[A-Za-z0-9_.\-]+\Z")
_ATOM_NAMES = ("contains", "matches", "kind", "mime")
_EXPR_START = frozenset(_ATOM_NAMES) | {"NOT", "("}
_AFTER_OPERAND = frozenset(_ATOM_NAMES) | {")", "end of input"}
_AFTER_EXPRESSION = frozenset({"AND", "OR", "end of input"})
# Shipped cards use at most 8; every recursive walk over a tree stays far
# from the recursion limit.
MAX_OPERATORS = 128


@dataclass(frozen=True, slots=True)
class Contains:
    """Case-insensitive substring test against the prompt, lowered once when built."""

    text: str
    lowered_text: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lowered_text", self.text.lower())


@dataclass(frozen=True, slots=True)
class Matches:
    """Regex search against the prompt, compiled once when the atom is built."""

    pattern: str
    regex: re.Pattern[str] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "regex", re.compile(self.pattern))
        except (re.error, OverflowError) as exc:  # OverflowError: a repeat count too large
            raise ValueError(f"invalid regex pattern {self.pattern!r}: {exc}") from exc


@dataclass(frozen=True, slots=True)
class Kind:
    """Exact membership test against the context kind tags."""

    tag: str

    def __post_init__(self) -> None:
        if not _TAG_RE.match(self.tag):
            raise ValueError(f"invalid kind tag {self.tag!r}")


@dataclass(frozen=True, slots=True)
class Mime:
    """Exact match test against any attachment mime tag."""

    tag: str

    def __post_init__(self) -> None:
        if not _TAG_RE.match(self.tag):
            raise ValueError(f"invalid mime tag {self.tag!r}")


@dataclass(frozen=True, slots=True)
class Not:
    child: "PredicateExpr"


@dataclass(frozen=True, slots=True)
class And:
    left: "PredicateExpr"
    right: "PredicateExpr"


@dataclass(frozen=True, slots=True)
class Or:
    left: "PredicateExpr"
    right: "PredicateExpr"


PredicateExpr = Union[Contains, Matches, Kind, Mime, Not, And, Or]

_ATOM_TYPES = (Contains, Matches, Kind, Mime)
_ATOM_BY_NAME = dict(zip(_ATOM_NAMES, _ATOM_TYPES))


def is_vacuous(expr: PredicateExpr) -> bool:
    """True for the match-everything atoms contains:"" and matches:""."""
    return (isinstance(expr, Contains) and expr.text == "") or (
        isinstance(expr, Matches) and expr.pattern == ""
    )


# ---------------------------------------------------------------------------
# Parser: one regex pass lexes the whole text, then one loop parses the tokens

_WORD = r"[A-Za-z0-9_.\-]+"
# After whitespace, one token: an operator, a whole atom, or anything else (a
# bare word or one character); the group is empty at the end. re tries the
# alternatives in order, so `kind:doc` is one atom, not the bare word `kind`.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]*([()]|(?:AND|OR|NOT)(?![A-Za-z0-9_.\-])"
    r'|(?:contains|matches):"[^"\\]*(?:\\["\\][^"\\]*)*"'
    rf"|(?:kind|mime):{_WORD}|{_WORD}|.)?",
    re.S,
)
# The body of a string literal up to its closing quote or a bad escape.
_STRING_BODY_RE = re.compile(r'(?:[^"\\]|\\["\\])*')
_OPERATORS = frozenset({"(", ")", "AND", "OR", "NOT"})
_BINARY = {"AND": And, "OR": Or}


def _error(text: str, index: int, message: str, expected: frozenset[str]) -> PredicateSyntaxError:
    """The error at a character index of text, located by its UTF-8 byte offset."""
    return PredicateSyntaxError(message, len(text[:index].encode()), expected)


def _token_start(text: str, k: int) -> int:
    """The character index where token k of text starts (its end for the last token)."""
    m = next(islice(_TOKEN_RE.finditer(text), k, None))
    return m.end() - len(m[0].lstrip(" \t\r\n"))


def _lex_error(text: str, start: int, token: str) -> PredicateSyntaxError:
    """The error for a token at start that is neither an operator nor a whole atom."""
    if token not in _ATOM_NAMES:
        if _TAG_RE.match(token):
            return _error(text, start, f"unknown name {token!r}", _EXPR_START | {"AND", "OR"})
        return _error(text, start, f"unexpected character {token!r}", _EXPR_START)
    i = start + len(token)
    if text[i : i + 1] != ":":
        return _error(text, i, f"expected ':' after {token!r}", frozenset({":"}))
    if token in ("kind", "mime"):
        return _error(text, i + 1, f"expected tag after '{token}:'", frozenset({"tag"}))
    if text[i + 1 : i + 2] != '"':
        return _error(text, i + 1, "expected string literal", frozenset({'"'}))
    end = _STRING_BODY_RE.match(text, i + 2).end()
    if end + 1 < len(text):  # a backslash before anything but " or \
        return _error(text, end, "invalid escape sequence", frozenset({'\\"', "\\\\"}))
    return _error(text, len(text), "unterminated string literal", frozenset({'"'}))


def _lex(text: str, atoms: dict[str, PredicateExpr]) -> list:
    """The tokens of text: "(" ")" "AND" "OR" "NOT", atoms, and None at the end.

    An atom is taken from atoms by its token text, or built and added there.
    """
    tokens: list = []
    operators = 0
    for token in _TOKEN_RE.findall(text):
        atom = atoms.get(token)
        if atom is not None:
            tokens.append(atom)
        elif token in _OPERATORS:
            operators += token != ")"
            if operators > MAX_OPERATORS:
                message = f"more than {MAX_OPERATORS} NOT/AND/OR/( tokens"
                raise _error(text, _token_start(text, len(tokens)), message, _AFTER_OPERAND)
            tokens.append(token)
        elif token:
            name, colon, rest = token.partition(":")
            if not (colon and name):  # a bare word or one character
                raise _lex_error(text, _token_start(text, len(tokens)), token)
            if name == "contains" or name == "matches":
                rest = re.sub(r"\\(.)", r"\1", rest[1:-1])
            try:
                atom = atoms[token] = _ATOM_BY_NAME[name](rest)
            except ValueError as exc:  # a pattern that does not compile
                raise _error(text, _token_start(text, len(tokens)), str(exc), frozenset()) from exc
            tokens.append(atom)
        else:
            tokens.append(None)
            break
    return tokens


def _parse(text: str, tokens: list) -> PredicateExpr:
    """The tree of a token list, by operator precedence (NOT > AND > OR)."""
    operands: list[PredicateExpr] = []  # the left sides of the pending ANDs and ORs
    pending: list[str] = []  # "(", "NOT", "AND" and "OR" still waiting for their right side
    depth = k = 0
    while True:
        # An operand: any NOTs and opening parentheses, then an atom.
        token = tokens[k]
        while type(token) is str and (token == "(" or token == "NOT"):
            depth += token == "("
            pending.append(token)
            k += 1
            token = tokens[k]
        if token is None or type(token) is str:
            raise _error(text, _token_start(text, k), "expected expression", _EXPR_START)
        node = token
        # Then any closing parentheses, up to an AND, an OR or the end.
        while True:
            while pending and pending[-1] == "NOT":
                pending.pop()
                node = Not(node)
            k += 1
            token = tokens[k]
            if token == ")" and depth:
                op = pending.pop()
                while op != "(":
                    node = _BINARY[op](operands.pop(), node)
                    op = pending.pop()
                depth -= 1
            elif token == "AND" or token == "OR":
                # First apply the pending operators that bind at least as tightly.
                while pending and pending[-1] != "(" and (token == "OR" or pending[-1] == "AND"):
                    node = _BINARY[pending.pop()](operands.pop(), node)
                operands.append(node)
                pending.append(token)
                k += 1
                break
            elif depth:
                message, expected = "expected closing parenthesis", frozenset({")"})
                raise _error(text, _token_start(text, k), message, expected)
            elif token is not None:
                message = f"unexpected {token if type(token) is str else 'ATOM'!r} after expression"
                raise _error(text, _token_start(text, k), message, _AFTER_EXPRESSION)
            else:
                while pending:
                    node = _BINARY[pending.pop()](operands.pop(), node)
                return node


def parse_predicate(text: str) -> PredicateExpr:
    """Parse DSL source into an AST.

    Raises PredicateSyntaxError with a 0-based UTF-8 byte offset and the set
    of tokens that would have been legal at that point. A lone surrogate
    anywhere wins over a lexing error, and a lexing error anywhere over a
    parse error: the whole text is checked, then lexed, before parsing.
    """
    return predicate_parser()(text)


def predicate_parser() -> Callable[[str], PredicateExpr]:
    """A parse_predicate for many texts (one card file) that shares what it builds.

    Equal texts get one tree, and equal atom tokens in any of them one atom.
    """
    trees: dict[str, PredicateExpr] = {}
    atoms: dict[str, PredicateExpr] = {}

    def parse(text: str) -> PredicateExpr:
        tree = trees.get(text)
        if tree is None:
            if not text.isascii():
                surrogate = re.search("[\ud800-\udfff]", text)
                if surrogate:
                    message = f"lone surrogate {surrogate[0]!r}"
                    raise _error(text, surrogate.start(), message, frozenset({"a valid character"}))
            tree = trees[text] = _parse(text, _lex(text, atoms))
        return tree

    return parse


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
# Matching index

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


def fact(atom: PredicateExpr) -> tuple[str, str]:
    """What an atom tests: atoms with equal facts hold for the same contexts.

    That covers `contains` atoms whose needles lower alike and `matches`
    atoms with one pattern, as well as equal tags.
    """
    node = type(atom)
    if node is Contains:
        return ("contains", atom.lowered_text)
    if node is Matches:
        return ("matches", atom.pattern)
    if node is Kind:
        return ("kind", atom.tag)
    if node is Mime:
        return ("mime", atom.tag)
    raise TypeError(f"not a predicate atom: {atom!r}")


def residual(expr: PredicateExpr, facts: frozenset[tuple[str, str]]) -> PredicateExpr | bool:
    """expr with every atom whose fact is in facts taken as true, simplified.

    The result is True or False when that alone decides expr, else what is
    left of the tree: expr itself when none of its atoms has such a fact,
    and otherwise new nodes only where something was simplified away. In a
    context where every fact in facts holds, eval_predicate gives the
    residual (True and False taken as themselves) the value it gives expr.
    """
    node = type(expr)
    if node is And or node is Or:
        left, right = residual(expr.left, facts), residual(expr.right, facts)
        if node is And:
            if left is True or right is False:
                return right
            if right is True or left is False:
                return left
        else:
            if left is False or right is True:
                return right
            if right is False or left is True:
                return left
        if left is expr.left and right is expr.right:
            return expr
        return node(left, right)
    if node is Not:
        child = residual(expr.child, facts)
        if child is True or child is False:
            return not child
        return expr if child is expr.child else Not(child)
    return True if fact(expr) in facts else expr


def _tag_literal(rest: PredicateExpr) -> tuple[tuple[str, str], bool] | None:
    """(fact, wanted) when rest is one kind/mime test under any NOTs, else None.

    rest then holds exactly when its fact's presence among a context's facts
    is wanted.
    """
    wanted = True
    while type(rest) is Not:
        rest, wanted = rest.child, not wanted
    if type(rest) is Kind or type(rest) is Mime:
        return fact(rest), wanted
    return None


def _resolve(hits: list, facts: frozenset[tuple[str, str]]) -> tuple[frozenset[int], tuple, tuple]:
    """Split a key's (position, tree) hits by their residuals for facts.

    Returns the positions decided TRUE, the tag-literal groups and the
    (position, residual) pairs still to test; positions decided FALSE are
    dropped. A group is (fact, wanted, positions) for the positions whose
    residual is that one kind/mime test (wanted True) or its negation
    (wanted False), so a whole group is decided by one fact lookup.
    """
    sure: set[int] = set()
    groups: dict[tuple[tuple[str, str], bool], list[int]] = {}
    check: list[tuple[int, PredicateExpr]] = []
    last: PredicateExpr | None = None
    rest: PredicateExpr | bool = False
    literal = None
    for position, expr in hits:
        if expr is not last:  # positions that share a tree are adjacent
            last, rest = expr, residual(expr, facts)
            literal = None if rest is True or rest is False else _tag_literal(rest)
        if rest is True:
            sure.add(position)
        elif literal is not None:
            group = groups.setdefault(literal, [])
            if not (group and group[-1] == position):
                group.append(position)
        elif rest is not False and not (check and check[-1][0] == position):
            check.append((position, rest))
    return (
        frozenset(sure),
        tuple((f, wanted, tuple(positions)) for (f, wanted), positions in groups.items()),
        tuple(check),
    )


# Branch points of a literal scan's trie that nest a group; past them the
# literals left form one flat alternation. This bounds the nesting that re's
# recursive parser and compiler walk, whatever the literals (a chain a, aa,
# aaa, ... branches at every character).
_SCAN_DEPTH = 8

# Characters that end a plain literal alternation (see _pattern_literals).
_REGEX_META = frozenset(".^$*+?{}[]()")


def _alternation(literals: list[str], start: int, depth: int) -> str:
    """A regex that matches, where it is tried, the longest literal that starts there.

    The distinct non-empty literals share their first `start` characters,
    which the regex leaves out. It is their trie: a group per next character
    shared by several literals, the characters they all share written once,
    longer literals tried before the empty alternative of a literal that
    ends here. The text picks at most one branch per node, so the first
    match is the longest. Below `depth` branch points the rest is one flat
    alternation, longest first.
    """
    if depth == 0:
        rest = sorted((literal[start:] for literal in literals), key=len, reverse=True)
        return "|".join(map(re.escape, rest))
    ends_here = False
    groups: dict[str, list[str]] = {}
    for literal in literals:
        if len(literal) == start:
            ends_here = True
        else:
            groups.setdefault(literal[start], []).append(literal)
    parts = []
    for group in groups.values():
        if len(group) == 1:
            parts.append(re.escape(group[0][start:]))
            continue
        # The longest prefix the group shares is that of its least and greatest.
        low, high = min(group), max(group)
        end = start + 1
        while end < len(low) and low[end] == high[end]:
            end += 1
        parts.append(f"{re.escape(low[start:end])}(?:{_alternation(group, end, depth - 1)})")
    if ends_here:
        parts.append("")
    return "|".join(parts)


class _LiteralScan:
    """The keys of every literal of a fixed set that occurs in a text, in one pass.

    Built from a map of each literal to the keys it fires. One regex, the
    literals' trie inside a lookahead, is tried at every position of the
    text and captures the longest literal that starts there (_alternation);
    the literals that are its prefixes start there too, so each captured
    literal fires its own keys and theirs. The keys of the empty literal
    fire for every text.
    """

    def __init__(self, keys: dict[str, list]) -> None:
        self._always = frozenset(keys.get("", ()))
        literals = sorted(literal for literal in keys if literal)
        # In sorted order a literal's prefixes in the set come before it, and
        # every literal between the two also starts with the prefix; so the
        # literals still on the chain after popping those it does not start
        # with are exactly its prefixes.
        chain: list[str] = []
        self._fires: dict[str, tuple] = {}
        for literal in literals:
            while chain and not literal.startswith(chain[-1]):
                chain.pop()
            chain.append(literal)
            self._fires[literal] = tuple(dict.fromkeys(k for p in chain for k in keys[p]))
        self._findall = (
            re.compile(f"(?=({_alternation(literals, 0, _SCAN_DEPTH)}))").findall
            if literals
            else None
        )

    def find(self, text: str) -> set:
        """The keys fired by the literals that occur in text."""
        found = set(self._always)
        if self._findall is not None:
            fires = self._fires
            for literal in set(self._findall(text)):
                found.update(fires[literal])
        return found


def _pattern_literals(pattern: str) -> tuple[str, ...]:
    """The literals of a pattern that is a plain alternation of them, else ("",).

    A plain alternation is `a|b|...`, or the same inside one `(?:...)`,
    whose alternatives are non-empty runs of ordinary characters and of
    backslash-escaped characters other than ASCII letters and digits. Such
    a pattern has no flags, so it matches exactly where one of its literals
    occurs as written, case and all. Any other pattern may match anywhere,
    as the empty literal does.
    """
    if pattern.startswith("(?:") and pattern.endswith(")"):
        pattern = pattern[3:-1]
    literals: list[str] = []
    run: list[str] = []
    chars = iter(pattern)
    for char in chars:
        if char == "\\":
            char = next(chars, "")
            if not char or (char.isascii() and char.isalnum()):
                return ("",)
        elif char == "|":
            literals.append("".join(run))
            run = []
            continue
        elif char in _REGEX_META:
            return ("",)
        run.append(char)
    literals.append("".join(run))
    return tuple(literals) if all(literals) else ("",)


class PredicateIndex:
    """Which of many predicates hold for a context, found by trigger.

    One table keys each distinct trigger by the facts it tests: an atom by
    its fact (dsl.fact), a pair by the frozenset of its two facts, and the
    predicates with no trigger set by the empty frozenset, which every
    context fires. The tag keys are looked up from the context's distinct
    tag facts and each unordered pair of them.

    The ("contains", needle) and ("matches", pattern) keys are found by two
    literal scans built with the index (_LiteralScan), each one pass over a
    text however many literals it holds. The needle scan runs over the
    lowered prompt and fires exactly the needles in it, as `in` would; the
    empty needle always fires. The pattern scan runs over the prompt as
    written, since `matches` is case-sensitive, and holds the literals of
    every pattern that is a plain literal alternation (_pattern_literals);
    it yields each pattern's key with its regex, and only the patterns with
    a literal in the prompt, and every pattern without a literal set, are
    then searched, with eval_predicate's own test.

    A key maps to the predicates it triggers. A fired key's facts hold, so
    each of its predicates holds exactly when its residual for those facts
    does (dsl.residual), and every predicate that holds has a fired key.
    A key's residuals are worked out the first time it fires, so building
    the index walks each tree only for its triggers. Until then its entry
    is a list of (position, whole tree), and a whole tree is a valid
    residual of itself; the resolved entry replaces it in one assignment,
    so two threads that first fire one key at once both get right answers.

    A resolved entry holds the positions decided TRUE, the tag-literal
    groups and the other residuals (_resolve). A group gathers the positions
    whose residual is one kind/mime test, or its negation, by (fact,
    wanted): the whole group holds exactly when the fact's presence among
    the context's facts is wanted, so it is decided by one set lookup. Only
    the other residuals are tested, with eval_predicate; the 100 prompts of
    perfbench's seed-1 registry leave none.
    """

    def __init__(self, exprs: Iterable[PredicateExpr]) -> None:
        table: dict[object, list] = {}
        regexes: dict[tuple[str, str], re.Pattern[str]] = {}
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
                # A tree with no trigger set gets one trigger with no facts,
                # keyed frozenset(), which every context fires.
                last, found = expr, triggers(expr) or frozenset((frozenset(),))
            hit = (position, expr)
            for trigger in found:
                if type(trigger) is frozenset:
                    key = frozenset(map(fact, trigger))
                else:
                    key = fact(trigger)
                    if type(trigger) is Matches:
                        regexes[key] = trigger.regex
                table.setdefault(key, []).append(hit)
        self._table = table
        self._needle_scan = _LiteralScan(
            {key[1]: [key] for key in table if type(key) is tuple and key[0] == "contains"}
        )
        by_literal: dict[str, list] = {}
        for key, regex in regexes.items():
            for literal in _pattern_literals(regex.pattern):
                by_literal.setdefault(literal, []).append((key, regex))
        self._pattern_scan = _LiteralScan(by_literal)

    def matching(self, ctx: TaskContext) -> list[int]:
        """Positions, ascending, of every predicate that holds for ctx."""
        table = self._table
        prompt = ctx.prompt
        fired = [*self._needle_scan.find(ctx.lowered_prompt)]
        fired += [key for key, regex in self._pattern_scan.find(prompt) if regex.search(prompt)]
        facts = {("kind", tag) for tag in ctx.kind_tags}
        facts.update(("mime", att.mime_tag) for att in ctx.attachments)
        keys = [*facts, *map(frozenset, combinations(facts, 2)), frozenset()]
        fired += [key for key in keys if key in table]
        found: set[int] = set()
        checks = []
        for key in fired:
            entry = table[key]
            if type(entry) is list:  # its first fire; a tuple key is one fact
                facts_held = key if type(key) is frozenset else frozenset((key,))
                entry = table[key] = _resolve(entry, facts_held)
            sure, groups, check = entry
            found |= sure
            for f, wanted, positions in groups:
                if (f in facts) is wanted:
                    found.update(positions)
            if check:
                checks.append(check)
        for check in checks:
            for position, rest in check:
                if position not in found and eval_predicate(rest, ctx):
                    found.add(position)
        return sorted(found)

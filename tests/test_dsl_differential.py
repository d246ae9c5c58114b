"""parse_predicate against the byte-level parser it replaced (tests/dsl_oracle.py).

Both must give the same tree for every valid text and, for every malformed
one, the same message, byte offset and expected-token set. The inputs are
every shipped predicate text, every predicate text of perfbench's seed-1
10k registry, and a seeded fuzzer that mutates valid predicates with
operators, quotes, escapes, non-ASCII text and lone surrogates.

The fuzzer draws MESA_DSL_FUZZ_CASES inputs (default 20,000); CI's
dsl-differential job runs it with 300,000.
"""

from __future__ import annotations

import importlib.util
import json
import os
import random
from collections import Counter
from pathlib import Path

import pytest

from dsl_oracle import oracle_parse
from mesa.dsl import PredicateExpr, parse_predicate, print_predicate
from mesa.errors import PredicateSyntaxError
from mesa.fixtures import fixture_path

ROOT = Path(__file__).resolve().parent.parent
FUZZ_CASES = int(os.environ.get("MESA_DSL_FUZZ_CASES", "20000"))


def _outcome(parse, text: str) -> tuple:
    try:
        tree: PredicateExpr = parse(text)
    except PredicateSyntaxError as exc:
        return ("error", str(exc), exc.offset, type(exc.expected), exc.expected)
    except Exception as exc:  # any other failure must match too
        return ("raised", type(exc), str(exc))
    return ("tree", tree, print_predicate(tree))


def _assert_same(text: str) -> tuple:
    expected = _outcome(oracle_parse, text)
    assert _outcome(parse_predicate, text) == expected, repr(text)
    return expected


def _shipped_texts() -> list[str]:
    texts = []
    for name in ("cards.json", "cards_mini.json"):
        for card in json.loads(fixture_path(name).read_text(encoding="utf-8"))["cards"]:
            texts += [card["apply_when"], card["cheap_probe"]]
    return list(dict.fromkeys(texts))


@pytest.fixture(scope="module")
def seed1_texts(tmp_path_factory) -> list[str]:
    spec = importlib.util.spec_from_file_location(
        "perfbench_registry_gen", ROOT / "perfbench" / "registry_gen.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path_factory.mktemp("seed1")
    module.generate(1, out)
    cards = json.loads((out / "cards.json").read_text(encoding="utf-8"))["cards"]
    return list(dict.fromkeys(t for card in cards for t in (card["apply_when"], card["cheap_probe"])))


def test_every_shipped_predicate_parses_as_before():
    texts = _shipped_texts()
    assert len(texts) > 20
    assert all(_assert_same(text)[0] == "tree" for text in texts)


def test_every_seed1_predicate_parses_as_before(seed1_texts):
    assert len(seed1_texts) == 7048
    assert all(_assert_same(text)[0] == "tree" for text in seed1_texts)


# Fragments the fuzzer splices into valid predicates.
_PIECES = [
    "(", ")", " ", "\t", "\r\n", "\x0b", "\x0c", "AND", "OR", "NOT", " AND ", " OR ", "NOT ",
    "contains", "matches", "kind", "mime", ":", ':"', '"', "\\", '\\"', "\\\\", "\\x",
    "a", "Z", "_", ".", "-", "0", "9", "%", "&", "'", "[", "(?P<", "{99999999999}", "*",
    "é", "“", "€", "日本", "\U0001f600", "\ud800", "\udfff", "😀",
]

_PATTERNS = ["abc", "a+", "[0-9]+", "^x", "x$", "", "(?:t01|t02)", "a\\\\d"]
_WORDS = ["date", "stock price", 'say "hi"', "back\\slash", "é", "naïve", ""]
_TAGS = ["code", "html", "text.html-v2", "a_b", "0"]


def _random_tree(rng: random.Random, depth: int = 0) -> str:
    roll = rng.random()
    if depth > 3 or roll < 0.45:
        name = rng.choice(("contains", "matches", "kind", "mime"))
        if name in ("kind", "mime"):
            return f"{name}:{rng.choice(_TAGS)}"
        value = rng.choice(_WORDS if name == "contains" else _PATTERNS)
        return f'{name}:"{value.replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
    if roll < 0.6:
        return f"NOT {_random_tree(rng, depth + 1)}"
    if roll < 0.75:
        return f"({_random_tree(rng, depth + 1)})"
    op = rng.choice((" AND ", " OR ", "AND", " OR\t"))
    return _random_tree(rng, depth + 1) + op + _random_tree(rng, depth + 1)


def _mutate(rng: random.Random, text: str, seeds: list[str]) -> str:
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        i = rng.randint(0, len(text))
        j = rng.randint(i, min(len(text), i + 6))
        piece = rng.choice(_PIECES)
        if rng.random() < 0.5:
            piece = f" {piece} "
        if roll < 0.35:
            text = text[:i] + piece + text[i:]
        elif roll < 0.55:
            text = text[:i] + text[j:]
        elif roll < 0.7:
            text = text[:i] + piece + text[j:]
        elif roll < 0.8:
            text = text[:i] + text[i:j] * rng.randint(2, 4) + text[j:]
        elif roll < 0.88:
            text = text + rng.choice((" AND ", " OR ", " ", "")) + rng.choice(seeds)
        elif roll < 0.93:
            text = text[:i]
        elif roll < 0.97:
            unit = rng.choice(("NOT ", "(", "kind:a AND ", "kind:a OR (", "NOT ("))
            text = unit * rng.randint(40, 140) + text
        else:
            text = text[i:] + text[:i]
    return text


@pytest.mark.filterwarnings("ignore::FutureWarning")  # re.compile on mutated patterns
def test_fuzzed_predicates_parse_as_before(seed1_texts):
    rng = random.Random(20260518)
    seeds = _shipped_texts() + seed1_texts[:400] + [_random_tree(rng) for _ in range(400)]
    kinds: Counter[str] = Counter()
    for _ in range(FUZZ_CASES):
        outcome = _assert_same(_mutate(rng, rng.choice(seeds), seeds))
        kinds[outcome[1].split(" at byte ")[0] if outcome[0] == "error" else outcome[0]] += 1
    # The inputs reach valid trees and every kind of lexing and parse error.
    assert kinds["tree"] > FUZZ_CASES // 10, kinds
    for message in (
        "lone surrogate", "unexpected character", "unknown name", "expected ':' after",
        "expected tag after", "expected string literal", "invalid escape sequence",
        "unterminated string literal", "invalid regex pattern", "more than 128 NOT/AND/OR/( tokens",
        "expected expression", "expected closing parenthesis", "unexpected '",
    ):
        assert any(kind.startswith(message) for kind in kinds), (message, kinds)

"""load_registry and load_script against the loaders they replaced (tests/loader_oracle.py).

The loaders finish each card or script row as the JSON decoder yields it
(codec.read_document's object_hook); the oracle decodes the whole file
first, then checks the records in one loop. For every file both must load
equal registries (cards, order, applied_through) and equal script tables,
or raise the same exception class with the same message, byte for byte.
Loaded values are compared exactly, by type and repr, so a loader that
merged -0.0 into 0.0 (equal under ==) would fail.
The inputs are the shipped and mini files, perfbench's seed-1 10k files,
hand cases where a record holds a record-shaped object, and a type-swap
fuzz over the first records of the shipped files.

The fuzz draws MESA_LOADER_EXAMPLES documents (default 200); CI's
dsl-differential job raises it. The order in which json's scanner calls the
hook (each object once finished, innermost first, in document order) is what
the streaming loaders rely on, so that job runs this file on the oldest and
newest supported versions too.
"""

from __future__ import annotations

import copy
import gc
import importlib.util
import json
import os
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import loader_oracle
from conftest import DATA
from mesa.backend import BehaviorScript, load_script
from mesa.cards import CardRegistry, SkillCard, load_registry

ROOT = Path(__file__).resolve().parent.parent
LOADER_EXAMPLES = int(os.environ.get("MESA_LOADER_EXAMPLES", "200"))

# (the loader, its oracle, the document's list key)
PAIRS = [
    (load_registry, loader_oracle.load_registry, "cards"),
    (load_script, loader_oracle.load_script, "rows"),
]


def _exact(value: object) -> tuple[type, str]:
    """A value as compared here: -0.0 is not 0.0, 1 is not 1.0, and a NaN is a NaN."""
    return type(value), repr(value)


def _tables(script: BehaviorScript) -> tuple:
    """The script's tables, with their order, their keys' order and their exact values."""
    return (
        [(item, [(k, _exact(v)) for k, v in table.items()]) for item, table in script.defaults.items()],
        [(pair, [(k, _exact(v)) for k, v in table.items()]) for pair, table in script.overrides.items()],
    )


def _card_values(card: SkillCard) -> list[tuple]:
    """A loaded card's field values, exactly."""
    return [(f.name, _exact(getattr(card, f.name))) for f in fields(card) if f.init]


def _outcome(load, path: Path) -> tuple:
    try:
        result = load(path)
    except Exception as exc:  # any failure must match, class and message
        return ("raised", type(exc), str(exc))
    if isinstance(result, CardRegistry):
        return (
            "registry",
            result.cards,
            [card.id for card in result],
            result.applied_through,
            [_card_values(card) for card in result],
        )
    return ("script", _tables(result))


def _assert_same(path: Path) -> list[tuple]:
    """Both loaders against their oracles on one file; the oracles' outcomes."""
    outcomes = []
    for load, oracle, _ in PAIRS:
        expected = _outcome(oracle, path)
        assert _outcome(load, path) == expected, path.read_text(encoding="utf-8")[:300]
        outcomes.append(expected)
    return outcomes


def _write(path: Path, doc: object) -> Path:
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return path


def _generate(seed: int, out: Path) -> None:
    spec = importlib.util.spec_from_file_location(
        "perfbench_registry_gen", ROOT / "perfbench" / "registry_gen.py"
    )
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.generate(seed, out)


@pytest.fixture(scope="module")
def seed1(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("seed1")
    _generate(1, out)
    return out


def _records(name: str, key: str, count: int) -> list:
    return json.loads((DATA / name).read_text(encoding="utf-8"))[key][:count]


CARDS = _records("cards.json", "cards", 3)
ROWS = _records("script.json", "rows", 5) + [
    {"item": "a_fact_00", "condition": "full", "key": "p_self", "value": 0.25}
]
CARD, ROW = CARDS[0], ROWS[0]


@pytest.mark.parametrize(
    ("cards", "script"),
    [("cards.json", "script.json"), ("cards_mini.json", "script_mini.json")],
)
def test_shipped_files_load_as_before(cards, script):
    registry, _ = _assert_same(Path(str(DATA / cards)))
    _, tables = _assert_same(Path(str(DATA / script)))
    assert registry[0] == "registry" and len(registry[1]) > 0
    assert tables[0] == "script" and tables[1][0]


def test_seed1_files_load_as_before(seed1, tmp_path):
    registry, _ = _assert_same(seed1 / "cards.json")
    assert registry[0] == "registry" and len(registry[1]) == 10_000
    _, tables = _assert_same(seed1 / "script.json")
    assert tables[0] == "script" and len(tables[1][0]) == 100
    doc = json.loads((seed1 / "cards.json").read_text(encoding="utf-8"))
    doc["applied_through"] = 41
    (registry, _) = _assert_same(_write(tmp_path / "watermarked.json", doc))
    assert registry[3] == 41


def _row(**changes) -> dict:
    return {**ROW, **changes}


def _card(**changes) -> dict:
    return {**CARD, **changes}


HAND_CASES = {
    "row value is a row": {"rows": [_row(key="answer:x", value=_row(key="answer:y"))]},
    "row value is a row filed again later": {
        "rows": [_row(key="answer:x", value=_row(key="answer:y")), _row(key="answer:y")]
    },
    "row key is a row": {"rows": [ROWS[1], _row(key=_row())]},
    "rows element is a list of rows": {"rows": [ROWS[1], [_row(key="answer:z")]]},
    "duplicate row before a malformed row": {"rows": [ROW, ROW, _row(value=None)]},
    "duplicate row after a malformed row": {"rows": [ROW, _row(value=None), ROW]},
    "duplicate condition row": {"rows": [ROWS[-1], ROWS[-1]]},
    "row that is not an object": {"rows": [ROW, 5]},
    "row that is null": {"rows": [None, ROW]},
    "int too large for a float": {"rows": [_row(key="answer:x", value=10**400)]},
    "row-shaped document": ROW,
    "card-shaped document": CARD,
    "document of rows and cards": {"rows": ROWS, "cards": CARDS},
    "applied_through is a card": {"cards": CARDS, "applied_through": CARD},
    "applied_through is a list of cards": {"cards": CARDS, "applied_through": [CARD]},
    "applied_through is negative": {"cards": CARDS, "applied_through": -1},
    "applied_through with a bad card": {"cards": [_card(stale=1)], "applied_through": "x"},
    "card field is a card": {"cards": [_card(offloading_type=_card(id="b"))]},
    "card id is a card": {"cards": [_card(id=_card(id="b"), stale=None)]},
    "cards element is a list of cards": {"cards": [[CARD]]},
    "card that is not an object": {"cards": [CARD, "x"]},
    "duplicate card id before a malformed card": {"cards": [CARD, CARD, _card(id="b", stale=0)]},
    "duplicate card id after a malformed card": {"cards": [CARD, _card(id="b", stale=0), CARD]},
    "bad predicate": {"cards": [CARDS[1], _card(apply_when="kind:a AND (")]},
    "empty lists": {"cards": [], "rows": []},
    "invalid JSON after valid rows": json.dumps({"rows": ROWS})[:-20],
    "invalid JSON after valid cards": json.dumps({"cards": CARDS})[:-9] + "}, 5",
    "extra top-level key": {"rows": ROWS, "x": [ROW]},
    # Values each loader shares: equal under == is not enough to merge.
    "signed zeros, ints and a NaN in rows": {
        "rows": [
            _row(key=f"answer:{i}", value=value)
            for i, value in enumerate([0.0, -0.0, 0, -0.0, 0.0, 1, 1.0, float("nan"), float("nan")])
        ]
        + [_row(key="probe:z", value=-0.0), _row(key="p_self", value=0.0)]
    },
    "a negative zero row first": {
        "rows": [_row(key="answer:a", value=-0.0), _row(key="answer:b", value=0.0)]
    },
    "signed zero and int trusts": {
        "cards": [
            _card(id=f"z{i}", source_trust=trust, description=text)
            for i, (trust, text) in enumerate(
                [(-0.0, ""), (0.0, "same"), (0, "same"), (-0.0, ""), (1, "x"), (1.0, "x")]
            )
        ]
    },
    "a NaN trust": {"cards": [CARD, _card(id="b", source_trust=float("nan"))]},
}


@pytest.mark.parametrize("name", HAND_CASES)
def test_hand_cases_fail_as_before(tmp_path, name):
    _assert_same(_write(tmp_path / "doc.json", HAND_CASES[name]))


def test_a_document_nested_to_the_parsers_limit_fails_as_before(tmp_path):
    """At every depth near the limit, though the hook adds frames of its own."""

    def nested(depth: int, record: dict, key: str) -> str:
        return f'{{"{key}": [' + "[" * depth + json.dumps(record) + "]" * depth + "]}"

    def too_deep(depth: int, record: dict, key: str) -> bool:
        path = _write(tmp_path / "deep.json", nested(depth, record, key))
        try:
            (loader_oracle.load_registry if key == "cards" else loader_oracle.load_script)(path)
        except Exception as exc:
            return "nested too deeply" in str(exc)
        return False

    for record, key in ((CARD, "cards"), (ROW, "rows")):
        # The oracle's first depth "nested too deeply" lies in (low, high].
        low, high = 1, 1000
        while not too_deep(high, record, key):
            assert high < 10**6, "no depth limit found"
            low, high = high, high * 2
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (low, middle) if too_deep(middle, record, key) else (middle, high)
        for depth in range(max(1, high - 6), high + 2):
            _assert_same(_write(tmp_path / "deep.json", nested(depth, record, key)))


_RECORD_VALUES = [ROW, CARD, [ROW], [CARD], {"rows": [ROW]}, {"cards": [CARD]}]
_SWAPS = st.one_of(
    st.sampled_from(
        [None, True, False, 0, 1, -1, 0.5, 1.5, -0.0, 10**400, float("nan"), "", "x", "*"]
    ),
    st.sampled_from([[], {}, *_RECORD_VALUES]),
    st.text(max_size=6),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False),
).map(copy.deepcopy)  # a drawn record may be changed by a later swap


@st.composite
def _documents(draw) -> str:
    """A shipped document's first records, with a few values swapped, dropped or added."""
    key = draw(st.sampled_from(["cards", "rows"]))
    records = copy.deepcopy(CARDS if key == "cards" else ROWS)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        index = draw(st.integers(min_value=0, max_value=len(records) - 1))
        op = draw(st.sampled_from(["swap", "swap", "drop", "add", "replace", "repeat"]))
        record = records[index]
        if op == "replace" or not isinstance(record, dict) or not record:
            records[index] = draw(_SWAPS)
        elif op == "swap":
            record[draw(st.sampled_from(sorted(record)))] = draw(_SWAPS)
        elif op == "drop":
            del record[draw(st.sampled_from(sorted(record)))]
        elif op == "add":
            record[draw(st.sampled_from(["extra", "item", "id"]))] = draw(_SWAPS)
        else:
            records.insert(draw(st.integers(min_value=0, max_value=len(records))), record)
    doc: dict = {key: records}
    if key == "cards" and draw(st.booleans()):
        doc["applied_through"] = draw(st.one_of(st.integers(min_value=-1, max_value=9), _SWAPS))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        doc[draw(st.sampled_from(["x", "rows", "cards"]))] = draw(_SWAPS)
    text = json.dumps(doc)
    if draw(st.integers(min_value=0, max_value=9)) == 0:  # invalid JSON, after valid records
        text = text[: draw(st.integers(min_value=0, max_value=len(text) - 1))]
    return text


@settings(
    max_examples=LOADER_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_documents())
def test_type_swapped_documents_load_or_fail_as_before(tmp_path, text):
    _assert_same(_write(tmp_path / "doc.json", text))


@pytest.mark.parametrize(("load", "name"), [(load_registry, "cards.json"), (load_script, "script.json")])
def test_loading_a_10k_file_holds_little_more_than_its_text(seed1, load, name):
    """Peak minus retained memory stays under 1.5 times the file's size.

    The plain decode held every record's dict at once: 1.9 times the seed-1
    card file's size and 4.1 times its script's.
    """
    path = seed1 / name
    gc.collect()
    tracemalloc.start()
    try:
        loaded = load(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded
    assert peak - retained < 1.5 * path.stat().st_size

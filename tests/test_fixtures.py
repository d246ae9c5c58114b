"""Shipped data files: regenerability, composition, and internal consistency."""

from __future__ import annotations

import importlib.util
import json
from collections import Counter
from pathlib import Path

from mesa.backend import required_keys
from mesa.bench import SliceName
from mesa.router import GoldAction

from conftest import DATA

GENERATOR = Path(__file__).resolve().parent.parent / "tools" / "gen_fixtures.py"


def _load_generator():
    spec = importlib.util.spec_from_file_location("gen_fixtures", GENERATOR)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_generator()


def test_committed_files_match_generator(tmp_path):
    """The checked-in data files are exactly what the generator emits."""
    written = gen.write_fixtures(tmp_path)
    shipped = [path.name for path in DATA.iterdir() if path.name.endswith(".json")]
    assert sorted(path.name for path in written) == sorted(shipped)
    for path in written:
        committed = (DATA / path.name).read_bytes()
        assert path.read_bytes() == committed, f"{path.name} drifted from its generator"


def test_generator_is_deterministic(tmp_path):
    one = gen.write_fixtures(tmp_path / "one")
    two = gen.write_fixtures(tmp_path / "two")
    assert [path.read_bytes() for path in one] == [path.read_bytes() for path in two]


def test_suite_composition(shipped_suite):
    by_slice = Counter(item.slice for item in shipped_suite)
    assert by_slice == {SliceName.A: 50, SliceName.B: 50, SliceName.C: 50}
    prompts = [item.prompt for item in shipped_suite]
    assert len(set(prompts)) == len(prompts), "prompts must be unique"
    ids = [item.id for item in shipped_suite]
    assert len(set(ids)) == len(ids)


def test_gold_action_bands(shipped_suite):
    golds = Counter(
        (item.id.rsplit("_", 1)[0], item.gold_action) for item in shipped_suite
    )
    assert golds[("a_fact", GoldAction.DIRECT)] == 25
    assert golds[("a_live", GoldAction.CALL_TOOL)] == 25
    assert golds[("b_gate", GoldAction.GATE_SKILL)] == 25
    assert golds[("b_html", GoldAction.CALL_TOOL)] == 10
    assert golds[("b_belt", GoldAction.CALL_TOOL)] == 15
    assert golds[("c_triv", GoldAction.STOP)] == 25
    assert golds[("c_trap", GoldAction.VERIFY)] == 25


def test_slice_b_card_injection(shipped_suite, shipped_registry):
    b_items = [item for item in shipped_suite if item.slice is SliceName.B]
    assert all(len(item.injected_card_ids) == 1 for item in b_items)
    for item in b_items:
        card = shipped_registry.get(item.injected_card_ids[0])
        assert card.id == item.injected_card_ids[0]
    others = [item for item in shipped_suite if item.slice is not SliceName.B]
    assert all(not item.injected_card_ids for item in others)


def test_script_covers_suite_for_all_conditions(shipped_suite, shipped_script):
    names = (
        "baseline",
        "reflection",
        "no_probe",
        "no_vigilance",
        "no_decontam",
        "no_dualconf",
        "full",
    )
    assert shipped_script.missing_keys(shipped_suite, names) == []


def test_script_has_no_unconsumed_items(shipped_suite):
    # Read from the file itself: a loaded script keeps no list of its rows.
    rows = json.loads((DATA / "script.json").read_text(encoding="utf-8"))["rows"]
    assert len(rows) == 2125
    item_ids = {item.id for item in shipped_suite}
    script_items = {row["item"] for row in rows}
    assert script_items <= item_ids
    needed = set()
    for item in shipped_suite:
        needed.update((item.id, key) for key in required_keys(item))
    for item_id, key in ((row["item"], row["key"]) for row in rows):
        # relevance2 rows are optional second-pass signals; everything else
        # must be a key some trajectory can consume
        if ":relevance2:" in key or key.startswith("source:relevance2"):
            continue
        assert (item_id, key) in needed, (item_id, key)


def test_builders_agree_with_files(tmp_path):
    suite_doc, cards_doc, script_doc = gen.build_main()
    assert json.loads((DATA / "suite.json").read_text()) == suite_doc
    assert json.loads((DATA / "cards.json").read_text()) == cards_doc
    assert json.loads((DATA / "script.json").read_text()) == script_doc
    mini_suite, mini_cards, mini_script = gen.build_mini()
    assert json.loads((DATA / "suite_mini.json").read_text()) == mini_suite
    assert json.loads((DATA / "cards_mini.json").read_text()) == mini_cards
    assert json.loads((DATA / "script_mini.json").read_text()) == mini_script


def test_mini_suite_composition(mini_suite, mini_registry):
    ids = [item.id for item in mini_suite]
    assert ids == ["m_tz", "m_snail", "m_sdk"]
    assert {card.id for card in mini_registry} == {"tz_playbook", "firstparty_sdk"}


def test_registry_contains_lint_demo_cards(shipped_registry):
    assert "lint_vacuous_helper" in shipped_registry
    assert "lint_redundant_helper" in shipped_registry
    # demo cards never appear in any suite item, so they cannot affect runs
    assert shipped_registry.get("lint_vacuous_helper").source_trust < 0.7

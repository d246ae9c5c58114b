"""Suite loading, the condition matrix, the z-test, and report formats."""

from __future__ import annotations

import json
import math

import pytest

from mesa import bench
from mesa.backend import load_script, required_keys
from mesa.bench import (
    CONDITIONS,
    BenchmarkItem,
    ItemOutcome,
    ResultsTable,
    SliceName,
    condition_by_name,
    emit_report,
    load_suite,
    normal_cdf,
    parse_report,
    run_matrix,
    two_prop_ztest,
)
from mesa.cards import CardRegistry, load_registry
from mesa.errors import CardFileError, CoverageError, MissingSignalError, SuiteFormatError
from mesa.router import GoldAction

from conftest import make_card
from test_backend import write_script


# ---------------------------------------------------------------------------
# Suite loading


def _item_doc(item_id="a00", slice_="A", **overrides):
    doc = {
        "id": item_id,
        "slice": slice_,
        "prompt": f"prompt for {item_id}",
        "kind_tags": [],
        "attachments": [],
        "injected_card_ids": [],
        "gold_action": "direct",
        "gold_answer": "x",
    }
    doc.update(overrides)
    return doc


def _write_suite(tmp_path, items):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"items": items}), encoding="utf-8")
    return path


def _balanced_items(per_slice):
    items = []
    for slice_ in ("A", "B", "C"):
        for i in range(per_slice):
            items.append(_item_doc(f"{slice_.lower()}{i:02d}", slice_))
    return items


def test_load_suite_happy_path(tmp_path):
    path = _write_suite(tmp_path, _balanced_items(2))
    suite = load_suite(path, expected_per_slice=2)
    assert len(suite) == 6
    assert suite[0].id == "a00"
    assert suite[0].slice is SliceName.A
    assert suite[0].gold_action is GoldAction.DIRECT


def test_load_suite_reports_slice_shortfall(tmp_path):
    items = _balanced_items(50)
    removed = next(i for i in items if i["slice"] == "A")
    items.remove(removed)
    path = _write_suite(tmp_path, items)
    with pytest.raises(SuiteFormatError, match="slice A expected 50, found 49"):
        load_suite(path)


def test_load_suite_expected_count_disabled(tmp_path):
    path = _write_suite(tmp_path, [_item_doc()])
    suite = load_suite(path, expected_per_slice=None)
    assert len(suite) == 1


def test_load_suite_duplicate_id(tmp_path):
    path = _write_suite(
        tmp_path, [_item_doc("dup"), _item_doc("dup", prompt="other prompt")]
    )
    with pytest.raises(SuiteFormatError, match="duplicate item id 'dup'"):
        load_suite(path, expected_per_slice=None)


def test_load_suite_dangling_card(tmp_path):
    registry = CardRegistry(cards=(make_card("real"),))
    path = _write_suite(tmp_path, [_item_doc(injected_card_ids=["ghost"])])
    with pytest.raises(SuiteFormatError, match="'ghost' is not in the registry"):
        load_suite(path, registry, expected_per_slice=None)
    ok = _write_suite(tmp_path, [_item_doc(injected_card_ids=["real"])])
    assert load_suite(ok, registry, expected_per_slice=None)[0].injected_card_ids == (
        "real",
    )


@pytest.mark.parametrize(
    "mutation, message",
    [
        ({"slice": "Z"}, r"bad slice 'Z'"),
        ({"gold_action": "panic"}, r"bad gold_action 'panic'"),
        ({"gold_answer": 7}, r"gold_answer must be a string or null"),
        ({"surprise": 1}, r"unknown field.*surprise"),
        ({"attachments": "nope"}, r"attachments must be a list"),
        ({"attachments": [{"mime_tag": "html"}]}, r"bad attachment"),
        ({"prompt": ""}, r"prompt must be non-empty"),
        ({"kind_tags": None}, r"item 'a00': kind_tags must be a list"),
        ({"kind_tags": 5}, r"kind_tags must be a list"),
        ({"injected_card_ids": None}, r"injected_card_ids must be a list"),
        ({"injected_card_ids": 5}, r"item 'a00': injected_card_ids must be a list"),
        ({"kind_tags": [None]}, r"item 'a00': kind_tags must hold only strings"),
        ({"kind_tags": ["doc", {"x": 2}]}, r"item 'a00': kind_tags must hold only strings"),
        ({"injected_card_ids": [None]}, r"item 'a00': injected_card_ids must hold only strings"),
        ({"injected_card_ids": [7]}, r"item 'a00': injected_card_ids must hold only strings"),
        (
            {"attachments": [{"mime_tag": 5, "bytes_len": 1}]},
            r"item 'a00': bad attachment: mime_tag must be a string",
        ),
        (
            {"attachments": [{"mime_tag": "pdf", "bytes_len": True}]},
            r"item 'a00': bad attachment: bytes_len must be an integer",
        ),
        (
            {"attachments": [{"mime_tag": "pdf", "bytes_len": "12"}]},
            r"item 'a00': bad attachment: bytes_len must be an integer",
        ),
        (
            {"attachments": [{"mime_tag": "pdf", "bytes_len": 1.5}]},
            r"item 'a00': bad attachment: bytes_len must be an integer",
        ),
        ({"prompt": None}, r"item 'a00': prompt must be a string"),
        ({"prompt": 42}, r"item 'a00': prompt must be a string"),
        ({"id": None}, r"item #0: id must be a string"),
        ({"id": 7}, r"item 7: id must be a string"),
        ({"id": ["a00"]}, r"item \['a00'\]: id must be a string"),
        ({"context": {"prompt": "p"}}, r"unknown field.*context"),  # derived, not read
    ],
)
def test_load_suite_field_validation(tmp_path, mutation, message):
    path = _write_suite(tmp_path, [_item_doc(**mutation)])
    with pytest.raises(SuiteFormatError, match=message):
        load_suite(path, expected_per_slice=None)


def test_load_suite_missing_field_named(tmp_path):
    doc = _item_doc()
    del doc["gold_action"]
    path = _write_suite(tmp_path, [doc])
    with pytest.raises(SuiteFormatError, match=r"missing field.*gold_action"):
        load_suite(path, expected_per_slice=None)


def test_load_suite_shape_errors(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(SuiteFormatError, match="items"):
        load_suite(path)
    path.write_text("{oops", encoding="utf-8")
    with pytest.raises(SuiteFormatError, match="not valid JSON"):
        load_suite(path)
    with pytest.raises(SuiteFormatError, match="cannot read suite"):
        load_suite(tmp_path / "missing.json")


@pytest.mark.parametrize(
    "load, error, named",
    [
        pytest.param(load_registry, CardFileError, "card file", id="cards"),
        pytest.param(load_suite, SuiteFormatError, "suite", id="suite"),
        pytest.param(load_script, MissingSignalError, "script", id="script"),
    ],
)
def test_loaders_name_a_file_that_is_not_utf8(tmp_path, load, error, named):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"items": []}\xff')
    with pytest.raises(error, match=f"^cannot read {named} .*input.json: 'utf-8' codec"):
        load(path)


def test_load_suite_parses_attachments(tmp_path):
    path = _write_suite(
        tmp_path,
        [_item_doc(attachments=[{"mime_tag": "html", "bytes_len": 2048}])],
    )
    item = load_suite(path, expected_per_slice=None)[0]
    assert item.attachments[0].mime_tag == "html"
    assert item.attachments[0].bytes_len == 2048


# ---------------------------------------------------------------------------
# Matrix runner


def _make_item(item_id, slice_=SliceName.A, gold_answer="x", injected=()):
    return BenchmarkItem(
        id=item_id,
        slice=slice_,
        prompt=f"prompt for {item_id}",
        kind_tags=frozenset(),
        attachments=(),
        injected_card_ids=tuple(injected),
        gold_action=GoldAction.DIRECT,
        gold_answer=gold_answer,
    )


def _script_for(tmp_path, items, direct_answer="x"):
    rows = []
    for item in items:
        values = {
            "p_self": 0.9,
            "p_self_post": 0.9,
            "tags": "",
            "source:__tool__": 0.3,
            "source:__verify__": 0.2,
            "answer:direct": direct_answer,
            "answer:tool": "t",
            "answer:verify": "v",
            "source:relevance:DIRECT": 0.9,
            "source:relevance:STOP": 0.1,
            "source:relevance:CALL_TOOL": 0.4,
            "source:relevance:VERIFY": 0.2,
        }
        for card_id in item.injected_card_ids:
            values[f"probe:{card_id}"] = 0.2
            values[f"source:{card_id}"] = 0.9
            values[f"source:relevance:LOAD_SKILL:{card_id}"] = 0.5
            values[f"answer:skill:{card_id}:commit"] = "s"
            values[f"answer:skill:{card_id}:hedge"] = "s?"
        for key, value in values.items():
            rows.append({"item": item.id, "condition": "*", "key": key, "value": value})
    return load_script(write_script(tmp_path, rows))


FULL = (condition_by_name("full"),)


def test_run_matrix_empty_conditions(tmp_path):
    items = [_make_item("i1")]
    table = run_matrix(items, CardRegistry(cards=()), _script_for(tmp_path, items), conditions=())
    assert table.conditions == ()
    assert table.cells == {}
    assert table.items == ()


def test_run_matrix_single_item(tmp_path):
    items = [_make_item("i1")]
    table = run_matrix(items, CardRegistry(cards=()), _script_for(tmp_path, items), FULL)
    assert table.cells["full"] == {"A": 1.0, "overall": 1.0}
    assert len(table.items) == 1
    assert table.items[0].outcome == "correct"
    assert table.items[0].final_class == "answer"


def test_run_matrix_precheck_coverage(tmp_path):
    items = [_make_item("i1")]
    rows = [{"item": "i1", "condition": "*", "key": "p_self", "value": 0.9}]
    script = load_script(write_script(tmp_path, rows))
    with pytest.raises(CoverageError) as exc_info:
        run_matrix(items, CardRegistry(cards=()), script, FULL)
    assert "i1/full: source:__tool__" in str(exc_info.value)
    assert len(exc_info.value.missing) == len(required_keys(items[0])) - 1


def test_run_matrix_counts_failures_without_aborting(tmp_path):
    # i2 injects a card that is missing from the registry: the trajectory
    # fails with an engine error, is graded incorrect, and i3 still runs.
    items = [
        _make_item("i1"),
        _make_item("i2", injected=("ghost",)),
        _make_item("i3"),
    ]
    table = run_matrix(items, CardRegistry(cards=()), _script_for(tmp_path, items), FULL)
    by_id = {it.item_id: it for it in table.items}
    assert by_id["i1"].outcome == "correct"
    assert by_id["i2"].outcome == "incorrect"
    assert "ghost" in by_id["i2"].diagnostic
    assert by_id["i3"].outcome == "correct"
    assert table.cells["full"]["A"] == pytest.approx(2 / 3)


def test_run_matrix_overall_is_mean_of_slices(tmp_path):
    items = [
        _make_item("a1", SliceName.A),
        _make_item("a2", SliceName.A, gold_answer="not what it says"),
        _make_item("b1", SliceName.B),
    ]
    table = run_matrix(items, CardRegistry(cards=()), _script_for(tmp_path, items), FULL)
    row = table.cells["full"]
    assert row["A"] == pytest.approx(0.5)
    assert row["B"] == pytest.approx(1.0)
    assert "C" not in row
    assert row["overall"] == pytest.approx(0.75)  # mean of present slices


def test_run_matrix_on_record_sees_everything(tmp_path):
    items = [_make_item("i1"), _make_item("i2")]
    seen = []
    conditions = (condition_by_name("full"), condition_by_name("baseline"))
    run_matrix(
        items,
        CardRegistry(cards=()),
        _script_for(tmp_path, items),
        conditions,
        on_record=seen.append,
    )
    assert len(seen) == 4
    assert {(r.condition, r.item_id) for r in seen} == {
        ("full", "i1"),
        ("full", "i2"),
        ("baseline", "i1"),
        ("baseline", "i2"),
    }


def test_every_condition_routes_an_item_through_the_items_one_context(
    shipped_suite, shipped_registry, shipped_script, monkeypatch
):
    contexts: dict[str, list] = {item.prompt: [] for item in shipped_suite}
    scripted = bench.ScriptedBackend

    class Recording:
        """The scripted backend, noting the context each trajectory asks its tags for."""

        def __init__(self, *args):
            self.inner = scripted(*args)

        def __getattr__(self, op):
            return getattr(self.inner, op)

        def self_report_tags(self, ctx):
            contexts[ctx.prompt].append(ctx)
            return self.inner.self_report_tags(ctx)

    monkeypatch.setattr(bench, "ScriptedBackend", Recording)
    bench.run_matrix(shipped_suite, shipped_registry, shipped_script)
    for item in shipped_suite:
        assert len(contexts[item.prompt]) == len(CONDITIONS)
        assert all(ctx is item.context for ctx in contexts[item.prompt]), item.id


def test_run_matrix_shipped_full_condition(shipped_suite, shipped_registry, shipped_script):
    table = run_matrix(shipped_suite, shipped_registry, shipped_script, FULL)
    assert table.cells["full"] == {
        "A": 1.0,
        "B": 1.0,
        "C": 1.0,
        "overall": 1.0,
    }


# ---------------------------------------------------------------------------
# Conditions


def test_conditions_shape():
    assert [c.name.value for c in CONDITIONS] == [
        "baseline",
        "reflection",
        "no_probe",
        "no_vigilance",
        "no_decontam",
        "no_dualconf",
        "full",
    ]
    full = condition_by_name("full")
    assert full.scorer == "dual"
    assert full.probe_enabled and full.vigilance_enabled
    assert full.decontam_enabled and full.dualconf_enabled


def test_each_ablation_disables_exactly_one_mechanism():
    full = condition_by_name("full")
    toggles = ("probe_enabled", "vigilance_enabled", "decontam_enabled", "dualconf_enabled")
    expected_off = {
        "no_probe": "probe_enabled",
        "no_vigilance": "vigilance_enabled",
        "no_decontam": "decontam_enabled",
        "no_dualconf": "dualconf_enabled",
    }
    for name, off in expected_off.items():
        cond = condition_by_name(name)
        assert cond.scorer == "dual"
        diffs = [t for t in toggles if getattr(cond, t) != getattr(full, t)]
        assert diffs == [off]
        assert getattr(cond, off) is False


def test_naive_conditions_use_naive_scorers():
    assert condition_by_name("baseline").scorer == "baseline"
    assert condition_by_name("reflection").scorer == "reflection"


def test_condition_by_name_unknown():
    with pytest.raises(ValueError, match="unknown condition 'fancy'.*baseline"):
        condition_by_name("fancy")


# ---------------------------------------------------------------------------
# Statistics


def test_ztest_worked_example():
    result = two_prop_ztest(40, 50, 25, 50)
    assert result.z == pytest.approx(3.1449, abs=1e-3)
    assert result.p_two_sided == pytest.approx(1.66e-3, abs=1e-5)


def test_ztest_maximal_separation():
    result = two_prop_ztest(50, 50, 0, 50)
    assert result.z == pytest.approx(10.0)
    assert result.p_two_sided < 1e-20


def test_ztest_degenerate_pools():
    for k in (0, 50):
        result = two_prop_ztest(k, 50, k, 50)
        assert result.z == 0.0
        assert result.p_two_sided == 1.0


def test_ztest_antisymmetric():
    forward = two_prop_ztest(40, 50, 25, 50)
    backward = two_prop_ztest(25, 50, 40, 50)
    assert forward.z == pytest.approx(-backward.z)
    assert forward.p_two_sided == pytest.approx(backward.p_two_sided)


def test_ztest_input_validation():
    with pytest.raises(ValueError):
        two_prop_ztest(0, 0, 1, 2)
    with pytest.raises(ValueError):
        two_prop_ztest(3, 2, 1, 2)
    with pytest.raises(ValueError):
        two_prop_ztest(-1, 2, 1, 2)


def _cdf_by_integration(x: float) -> float:
    """Simpson's rule over the standard normal density, from 0 to x."""
    steps = 4000  # even
    if x == 0.0:
        return 0.5
    sign = 1.0 if x > 0 else -1.0
    upper = abs(x)
    h = upper / steps
    density = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    total = density(0.0) + density(upper)
    for i in range(1, steps):
        total += density(i * h) * (4 if i % 2 else 2)
    integral = total * h / 3.0
    return 0.5 + sign * integral


def test_normal_cdf_known_points():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
    # 0.999169281947 confirmed by both the erf identity and Simpson
    # integration of the density at two million steps
    assert normal_cdf(3.1449) == pytest.approx(0.999169281947, abs=1e-9)


def test_normal_cdf_matches_integration_oracle():
    for i in range(-24, 25):
        x = i / 4.0
        assert normal_cdf(x) == pytest.approx(_cdf_by_integration(x), abs=1e-9), x


def test_normal_cdf_reflection_and_monotonicity():
    xs = [i / 10.0 for i in range(-60, 61)]
    for x in xs:
        assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-15)
    values = [normal_cdf(x) for x in xs]
    assert values == sorted(values)
    assert all(0.0 <= v <= 1.0 for v in values)


def test_normal_cdf_rejects_non_finite():
    with pytest.raises(ValueError):
        normal_cdf(float("nan"))
    with pytest.raises(ValueError):
        normal_cdf(float("inf"))


# ---------------------------------------------------------------------------
# Reports


def _tiny_table():
    return ResultsTable(
        conditions=("baseline", "full"),
        cells={
            "baseline": {"A": 0.5, "overall": 0.5},
            "full": {"A": 1.0, "B": 0.875, "overall": 0.9375},
        },
        items=(
            ItemOutcome("baseline", "i1", "A", "incorrect", "stopped", "lost signal"),
            ItemOutcome("full", "i1", "A", "correct", "answer", None),
        ),
    )


def test_text_report_layout():
    text = emit_report(_tiny_table(), "text")
    assert text == (
        "condition   slice_A   slice_B   overall\n"
        "baseline      0.500         -     0.500\n"
        "full          1.000     0.875     0.938\n"
    )


def test_csv_report_rows():
    csv = emit_report(_tiny_table(), "csv")
    lines = csv.strip().splitlines()
    assert lines[0] == "condition,slice,accuracy"
    assert lines[1] == "baseline,A,0.500000"
    assert lines[2] == "baseline,overall,0.500000"
    assert lines[3] == "full,A,1.000000"
    assert lines[4] == "full,B,0.875000"
    assert lines[5] == "full,overall,0.937500"
    assert len(lines) == 6


def test_machine_report_round_trip():
    table = _tiny_table()
    document = emit_report(table, "machine")
    assert parse_report(document) == table


def test_machine_report_is_deterministic(tmp_path):
    items = [_make_item("i1"), _make_item("i2")]
    registry = CardRegistry(cards=())
    script = _script_for(tmp_path, items)
    first = emit_report(run_matrix(items, registry, script, FULL), "machine")
    second = emit_report(run_matrix(items, registry, script, FULL), "machine")
    assert first == second
    assert first.endswith("\n")


def test_emit_report_unknown_format():
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report(_tiny_table(), "yaml")


def test_parse_report_rejects_other_documents():
    with pytest.raises(SuiteFormatError, match="not a machine-readable report"):
        parse_report("definitely not json")
    with pytest.raises(SuiteFormatError, match="routing-bench-results-v1"):
        parse_report(json.dumps({"format": "something-else"}))


def _report_doc(**changes):
    doc = json.loads(emit_report(_tiny_table(), "machine"))
    doc.update(changes)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"format": "routing-bench-results-v1", "conditions": [], "cells": {}}, "missing key"),
        (_report_doc(conditions="full"), "conditions must be a list of strings"),
        (_report_doc(conditions=["baseline", 7]), "conditions must be a list of strings"),
        (_report_doc(conditions=["full"]), "one row per listed condition"),
        (_report_doc(conditions=["full", "full", "baseline"]), "one row per listed condition"),
        (_report_doc(cells=[]), "one row per listed condition"),
        (_report_doc(cells={"baseline": {"A": 0.5, "overall": 0.5}, "full": {"A": 1.0}}),
         r"cells\['full'\]"),
        (_report_doc(cells={"baseline": {"D": 0.5, "overall": 0.5}, "full": {"overall": 1.0}}),
         r"cells\['baseline'\]"),
        (_report_doc(cells={"baseline": {"overall": "x"}, "full": {"overall": 1.0}}),
         r"cells\['baseline'\]"),
        (_report_doc(cells={"baseline": {"overall": True}, "full": {"overall": 1.0}}),
         r"cells\['baseline'\]"),
        (_report_doc(cells={"baseline": [], "full": {"overall": 1.0}}), r"cells\['baseline'\]"),
        (_report_doc(items={"condition": "full"}), "items must be a list"),
        (_report_doc(items=[{"condition": "full"}]), r"bad item: field \[0\]\.item_id: missing$"),
        (_report_doc(items=["full"]), r"bad item: field \[0\]: expected a JSON object, got str$"),
    ],
    ids=[
        "no-items", "conditions-text", "conditions-number", "row-missing", "duplicate-condition",
        "cells-list", "no-overall", "slice-D", "text-cell", "bool-cell", "row-list",
        "items-object", "item-missing-key", "item-text",
    ],
)
def test_parse_report_rejects_malformed_v1_documents(doc, message):
    with pytest.raises(SuiteFormatError, match=message):
        parse_report(json.dumps(doc))


def test_parse_report_ignores_extra_item_keys():
    doc = _report_doc()
    for raw in doc["items"]:
        raw["note"] = "added by a later writer"
    assert parse_report(json.dumps(doc)) == _tiny_table()

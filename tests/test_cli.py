"""Command line behavior: exit codes, output shapes, config precedence."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from mesa.backend import CachedBackend, RemoteBackend, RemoteConfig, ScriptedBackend, load_script
from mesa.bank import BankEntry, read_bank, record
from mesa.bench import CONDITIONS, condition_by_name, load_suite, parse_report
from mesa.cards import load_registry
from mesa.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, _load_settings, dispatch
from mesa.dsl import eval_predicate
from mesa.errors import (
    BankCorruptionError,
    CardFileError,
    MissingSignalError,
    RemoteBackendError,
    ReplayMissError,
    SuiteFormatError,
)
from mesa.router import RoutingConfig, context_for_item, decide

from conftest import DATA, DictBackend, make_ctx
from test_bank import make_record, mini_failure_bank


def run_cli(*argv, capsys=None):
    code = dispatch(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def _prompt_of(suite, item_id):
    return next(item.prompt for item in suite if item.id == item_id)


SUITE = str(DATA / "suite.json")
CARDS = str(DATA / "cards.json")
SCRIPT = str(DATA / "script.json")
MINI_SUITE = str(DATA / "suite_mini.json")
MINI_CARDS = str(DATA / "cards_mini.json")


# ---------------------------------------------------------------------------
# Usage plumbing


def test_help_exits_zero(capsys):
    code, out, _ = run_cli("--help", capsys=capsys)
    assert code == EXIT_OK
    assert "route" in out and "eval" in out


def test_subcommand_help_exits_zero(capsys):
    for name in ("route", "eval", "report", "cards", "bank"):
        code, out, _ = run_cli(name, "--help", capsys=capsys)
        assert code == EXIT_OK, name
        assert "usage" in out.lower()


def test_unknown_subcommand_wording(capsys):
    code, _, err = run_cli("evaal", capsys=capsys)
    assert code == EXIT_USAGE
    assert "unknown subcommand" in err
    assert "'evaal'" in err


def test_missing_required_argument(capsys):
    code, _, err = run_cli("eval", "--suite", SUITE, capsys=capsys)
    assert code == EXIT_USAGE
    assert "required" in err


def test_no_command(capsys):
    code, _, err = run_cli(capsys=capsys)
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# cards lint


def test_lint_shipped_registry_finds_problems(capsys):
    code, out, _ = run_cli("cards", "lint", CARDS, capsys=capsys)
    assert code == EXIT_DOMAIN
    lines = out.strip().splitlines()
    assert lines
    for line in lines:
        card_id, code_str, message = line.split(":", 2)
        assert card_id and message
        assert code_str and code_str == code_str.lower()


def test_lint_clean_registry_exits_zero(tmp_path, capsys):
    doc = {
        "cards": [
            {
                "id": "tidy",
                "name": "Tidy card",
                "description": "nothing wrong here",
                "apply_when": 'contains:"task"',
                "cheap_probe": "kind:doc",
                "offloading_type": "procedural",
                "source_trust": 0.9,
                "provenance": "first_party",
                "stale": False,
                "body_ref": "inline:text",
            }
        ]
    }
    path = tmp_path / "cards.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli("cards", "lint", str(path), capsys=capsys)
    assert code == EXIT_OK
    assert out == ""


def test_lint_missing_file_is_io_error(capsys):
    code, _, err = run_cli("cards", "lint", "/nonexistent/cards.json", capsys=capsys)
    assert code == EXIT_IO
    assert "mesa:" in err


# ---------------------------------------------------------------------------
# route


def test_route_full_condition_gates_card(shipped_suite, capsys):
    prompt = _prompt_of(shipped_suite, "b_gate_00")
    code, out, _ = run_cli(
        "route",
        "--cards", CARDS,
        "--backend", "scripted",
        "--script", SCRIPT,
        "--suite", SUITE,
        "--prompt", prompt,
        capsys=capsys,
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "chosen: call_tool"
    assert any(line.startswith("score DIRECT: ") for line in lines)
    assert "gated: date_time" in lines
    score_lines = [line for line in lines if line.startswith("score ")]
    for line in score_lines:
        value = line.rsplit(" ", 1)[1]
        assert len(value.split(".")[1]) == 6  # six decimal places


def test_route_condition_changes_choice(shipped_suite, capsys):
    prompt = _prompt_of(shipped_suite, "a_live_00")
    base_args = (
        "route",
        "--cards", CARDS,
        "--backend", "scripted",
        "--script", SCRIPT,
        "--suite", SUITE,
        "--prompt", prompt,
    )
    code, out, _ = run_cli(*base_args, capsys=capsys)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "chosen: call_tool"
    code, out, _ = run_cli(*base_args, "--condition", "baseline", capsys=capsys)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "chosen: direct"


def test_route_alpha_override_shows_in_scores(shipped_suite, capsys):
    prompt = _prompt_of(shipped_suite, "a_fact_00")
    base_args = (
        "route",
        "--cards", CARDS,
        "--backend", "scripted",
        "--script", SCRIPT,
        "--suite", SUITE,
        "--prompt", prompt,
    )
    _, out, _ = run_cli(*base_args, capsys=capsys)
    assert "score DIRECT: 0.540000" in out  # 0.6 * 0.90
    _, out, _ = run_cli(*base_args, "--alpha", "0.2", capsys=capsys)
    assert "score DIRECT: 0.180000" in out  # 0.2 * 0.90


def test_route_rejects_bad_alpha(capsys):
    code, _, err = run_cli(
        "route",
        "--cards", CARDS,
        "--backend", "scripted",
        "--script", SCRIPT,
        "--suite", SUITE,
        "--prompt", "anything",
        "--alpha", "1.5",
        capsys=capsys,
    )
    assert code == EXIT_USAGE
    assert "alpha" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
def test_route_rejects_a_non_finite_or_negative_lambda(value, capsys):
    code, out, err = run_cli(
        "route",
        "--cards", CARDS,
        "--backend", "scripted",
        "--script", SCRIPT,
        "--suite", SUITE,
        "--prompt", "anything",
        "--lambda", value,
        capsys=capsys,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "cost_lambda must be finite and >= 0" in err


def test_route_unknown_condition(capsys):
    code, _, err = run_cli(
        "route",
        "--cards", CARDS,
        "--backend", "scripted",
        "--script", SCRIPT,
        "--suite", SUITE,
        "--prompt", "anything",
        "--condition", "mystery",
        capsys=capsys,
    )
    assert code == EXIT_USAGE
    assert "unknown condition" in err


def test_route_scripted_needs_script_and_suite(capsys):
    code, _, err = run_cli(
        "route",
        "--cards", CARDS,
        "--backend", "scripted",
        "--prompt", "anything",
        capsys=capsys,
    )
    assert code == EXIT_USAGE
    assert "--script" in err


def test_route_unscripted_prompt_is_backend_error(capsys):
    code, _, err = run_cli(
        "route",
        "--cards", CARDS,
        "--backend", "scripted",
        "--script", SCRIPT,
        "--suite", SUITE,
        "--prompt", "this prompt is in no fixture",
        capsys=capsys,
    )
    assert code == EXIT_IO
    assert "prompt not in scripted suite" in err


def test_route_cached_backend_requires_cache(capsys):
    code, _, err = run_cli(
        "route",
        "--cards", CARDS,
        "--backend", "cached",
        "--prompt", "anything",
        capsys=capsys,
    )
    assert code == EXIT_USAGE
    assert "--cache" in err


def test_route_remote_backend_requires_endpoint(capsys):
    code, _, err = run_cli(
        "route",
        "--cards", CARDS,
        "--backend", "remote",
        "--prompt", "anything",
        capsys=capsys,
    )
    assert code == EXIT_USAGE
    assert "--endpoint" in err


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
def test_route_remote_backend_rejects_a_bad_timeout_before_any_request(
    timeout, capsys, monkeypatch
):
    def no_request(*args):
        raise AssertionError("a request was sent")

    monkeypatch.setattr("mesa.backend._default_transport", no_request)
    code, out, err = run_cli(
        "route",
        "--cards", CARDS,
        "--backend", "remote",
        "--endpoint", "http://127.0.0.1:9/v1",
        "--model", "m",
        "--auth-env", "MESA_TEST_TOKEN",
        "--timeout", timeout,
        "--prompt", "anything",
        capsys=capsys,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines()[-1].startswith("mesa: error: --timeout: timeout_s must be finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("endpoint", ["not-a-url", "http://", "ftp://host/v1", "http://host:port/v1"])
def test_route_remote_backend_rejects_a_bad_endpoint_before_any_request(
    endpoint, capsys, monkeypatch
):
    def no_request(*args):
        raise AssertionError("a request was sent")

    monkeypatch.setattr("mesa.backend._default_transport", no_request)
    code, out, err = run_cli(
        "route",
        "--cards", CARDS,
        "--backend", "remote",
        "--endpoint", endpoint,
        "--model", "m",
        "--auth-env", "MESA_TEST_TOKEN",
        "--prompt", "anything",
        capsys=capsys,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines()[-1] == (
        "mesa: error: --endpoint: endpoint must be an http or https URL with a host, "
        f"got {endpoint!r}"
    )
    assert "Traceback" not in err


def _duplicate_prompt_suite(tmp_path):
    doc = json.loads((DATA / "suite_mini.json").read_text(encoding="utf-8"))
    doc["items"][1]["prompt"] = doc["items"][0]["prompt"]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path), doc["items"][0]["prompt"]


def test_duplicate_suite_prompts_are_a_suite_error(tmp_path, capsys):
    suite, prompt = _duplicate_prompt_suite(tmp_path)
    scripted = ("--cards", MINI_CARDS, "--script", str(DATA / "script_mini.json"), "--suite", suite)
    for argv in (
        ("eval", *scripted, "--expected-per-slice", "0"),
        ("route", *scripted, "--backend", "scripted", "--prompt", prompt),
    ):
        code, out, err = run_cli(*argv, capsys=capsys)
        assert code == EXIT_IO, argv[0]
        assert out == ""
        assert err == (
            "mesa: duplicate prompt shared by m_tz and m_snail; "
            "scripted lookup needs unique prompts\n"
        )


@pytest.mark.parametrize(
    "bad_args, message",
    [
        (["--prompt", "anything", "--attach", "pdf:abc"], "--attach 'pdf:abc'"),
        (["--prompt", "anything", "--attach", "pdf:-5"], "--attach 'pdf:-5'"),
        (["--prompt", "anything", "--attach", ":5"], "--attach ':5'"),
        (["--prompt", ""], "--prompt must be non-empty"),
    ],
)
def test_route_bad_context_input_is_usage_error(bad_args, message, capsys):
    code, out, err = run_cli(
        "route",
        "--cards", CARDS,
        "--backend", "scripted",
        "--script", SCRIPT,
        "--suite", SUITE,
        *bad_args,
        capsys=capsys,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert f"mesa: error: {message}" in err
    assert "Traceback" not in err


SCRIPTED = ("--backend", "scripted", "--script", SCRIPT, "--suite", SUITE)
REMOTE = ("--backend", "remote", "--model", "m", "--auth-env", "MESA_TEST_TOKEN")


@pytest.mark.parametrize(
    "bad_args, flag",
    [
        (["--prompt", "anything", *SCRIPTED, "--attach", "pdf:abc"], "--attach"),
        (["--prompt", "", *SCRIPTED], "--prompt"),
        (["--prompt", "anything", "--backend", "scripted", "--suite", SUITE], "--script"),
        (["--prompt", "anything", "--backend", "scripted", "--script", SCRIPT], "--suite"),
        (["--prompt", "anything", "--backend", "cached"], "--cache"),
        (["--prompt", "anything", "--backend", "remote"], "--endpoint"),
        (["--prompt", "anything", *REMOTE, "--endpoint", "not-a-url"], "--endpoint"),
        (
            ["--prompt", "anything", *REMOTE, "--endpoint", "http://127.0.0.1:9/v1", "--timeout", "0"],
            "--timeout",
        ),
    ],
)
def test_route_checks_its_flags_before_loading_the_card_file(bad_args, flag, tmp_path, capsys):
    code, out, err = run_cli(
        "route", "--cards", str(tmp_path / "no-such-cards.json"), *bad_args, capsys=capsys
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.splitlines()[-1].startswith("mesa: error: ")
    assert flag in err.splitlines()[-1]
    assert "no-such-cards" not in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# eval and report


EVAL_ARGS = ("eval", "--suite", SUITE, "--cards", CARDS, "--script", SCRIPT)


def test_eval_text_matches_reference_accuracies(capsys):
    code, out, _ = run_cli(*EVAL_ARGS, capsys=capsys)
    assert code == EXIT_OK
    rows = {}
    lines = out.strip().splitlines()
    assert lines[0].split() == ["condition", "slice_A", "slice_B", "slice_C", "overall"]
    for line in lines[1:]:
        name, *cells = line.split()
        rows[name] = cells
    assert rows["baseline"] == ["0.500", "0.000", "0.500", "0.333"]
    assert rows["reflection"] == ["0.500", "0.000", "0.500", "0.333"]
    assert rows["no_probe"] == ["1.000", "0.800", "1.000", "0.933"]
    assert rows["no_vigilance"] == ["1.000", "0.500", "1.000", "0.833"]
    assert rows["no_decontam"] == ["1.000", "1.000", "1.000", "1.000"]
    assert rows["no_dualconf"] == ["1.000", "1.000", "1.000", "1.000"]
    assert rows["full"] == ["1.000", "1.000", "1.000", "1.000"]


def test_eval_machine_report_is_reproducible(tmp_path, capsys):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for out_path in (first, second):
        code, _, _ = run_cli(
            *EVAL_ARGS, "--format", "machine", "--out", str(out_path), capsys=capsys
        )
        assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_eval_condition_subset(capsys):
    code, out, _ = run_cli(
        *EVAL_ARGS, "--conditions", "full,baseline", capsys=capsys
    )
    assert code == EXIT_OK
    names = [line.split()[0] for line in out.strip().splitlines()[1:]]
    assert names == ["full", "baseline"]


def test_eval_unknown_condition(capsys):
    code, _, err = run_cli(*EVAL_ARGS, "--conditions", "fancy", capsys=capsys)
    assert code == EXIT_USAGE
    assert "unknown condition" in err


def test_eval_rejects_a_repeated_condition(capsys):
    # A repeated name would run the condition twice and print a report that
    # `mesa report --in` rejects.
    code, out, err = run_cli(*EVAL_ARGS, "--conditions", "full,baseline, full", capsys=capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--conditions names 'full' more than once" in err


def test_eval_wrong_slice_count_is_domain_error(capsys):
    code, _, err = run_cli(
        "eval",
        "--suite", MINI_SUITE,
        "--cards", MINI_CARDS,
        "--script", SCRIPT,
        capsys=capsys,
    )
    # the default per-slice count rejects the four-item supplementary suite
    assert code == EXIT_IO
    assert "expected 50" in err


def test_eval_coverage_gap_is_domain_error(capsys):
    code, _, err = run_cli(
        "eval",
        "--suite", MINI_SUITE,
        "--cards", MINI_CARDS,
        "--script", SCRIPT,
        "--expected-per-slice", "0",
        capsys=capsys,
    )
    assert code == EXIT_DOMAIN
    assert "coverage check failed" in err


def test_eval_coverage_still_requires_the_probe_row_of_a_card_never_probed(
    tmp_path, capsys, shipped_suite, shipped_registry
):
    # A card whose cheap_probe fails on its item is Skipped without its probe
    # signal being asked, yet the coverage check still requires that row, so
    # a gap in the script fails every run rather than only the ones that ask.
    item, card_id = next(
        (item, card_id)
        for item in shipped_suite
        for card_id in item.injected_card_ids
        if not eval_predicate(shipped_registry.get(card_id).cheap_probe, context_for_item(item))
    )
    doc = json.loads((DATA / "script.json").read_text(encoding="utf-8"))
    kept = [
        row for row in doc["rows"]
        if not (row["item"] == item.id and row["key"] == f"probe:{card_id}")
    ]
    assert len(kept) < len(doc["rows"])
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"rows": kept}), encoding="utf-8")
    code, out, err = run_cli("eval", "--suite", SUITE, "--cards", CARDS, "--script", str(script),
                             capsys=capsys)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "coverage check failed" in err
    assert f"{item.id}/full: probe:{card_id}" in err


def test_eval_coverage_still_requires_the_source_row_of_a_dominated_card(
    tmp_path, capsys, shipped_suite, shipped_registry, shipped_script
):
    # With the probe on, a loaded card whose best possible score cannot beat
    # Direct's is dropped before its source is asked. A script whose item is
    # certain (p_self 1.0) makes a card that no_vigilance loads and scores
    # dominated; the coverage check still requires that card's source row.
    condition = condition_by_name("no_vigilance")
    item = card_id = None
    for candidate in shipped_suite:
        backend = ScriptedBackend(shipped_script, shipped_suite, "no_vigilance")
        (decision,), _ = decide(context_for_item(candidate), shipped_registry, backend,
                                RoutingConfig(), condition, candidate.injected_card_ids)
        scored = [key.partition(":")[2] for key in decision.scores if key.startswith("LOAD_SKILL:")]
        if scored:
            item, card_id = candidate, scored[0]
            break
    assert item is not None
    doc = json.loads((DATA / "script.json").read_text(encoding="utf-8"))
    rows = [
        {**row, "value": 1.0} if row["item"] == item.id and row["key"] == "p_self" else row
        for row in doc["rows"]
        if not (row["item"] == item.id and row["key"] == f"source:{card_id}")
    ]
    assert len(rows) < len(doc["rows"])
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"rows": rows}), encoding="utf-8")

    backend = ScriptedBackend(load_script(script), shipped_suite, "no_vigilance")
    (decision,), _ = decide(context_for_item(item), shipped_registry, backend, RoutingConfig(),
                            condition, item.injected_card_ids)
    assert card_id in [t.card_id for t in decision.probe_traces if t.passed]
    assert f"LOAD_SKILL:{card_id}" not in decision.scores
    assert load_script(script).missing_keys(shipped_suite, [c.name.value for c in CONDITIONS]) == [
        f"{item.id}/{c.name.value}: source:{card_id}" for c in CONDITIONS
    ]
    code, out, err = run_cli("eval", "--suite", SUITE, "--cards", CARDS, "--script", str(script),
                             capsys=capsys)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "coverage check failed" in err
    assert f"{item.id}/no_vigilance: source:{card_id}" in err


def test_eval_mini_suite_decontamination_contrast(capsys):
    args = (
        "eval",
        "--suite", MINI_SUITE,
        "--cards", MINI_CARDS,
        "--script", str(DATA / "script_mini.json"),
        "--expected-per-slice", "0",
        "--format", "csv",
    )
    code, out, _ = run_cli(*args, "--conditions", "full,no_decontam", capsys=capsys)
    assert code == EXIT_OK
    rows = dict(
        line.rsplit(",", 1) for line in out.strip().splitlines()[1:]
    )
    assert rows["full,overall"] == "1.000000"
    assert float(rows["no_decontam,overall"]) < 1.0


def _mini_eval_rows(capsys, *config_args):
    code, out, _ = run_cli(
        *config_args,
        "eval",
        "--suite", MINI_SUITE,
        "--cards", MINI_CARDS,
        "--script", str(DATA / "script_mini.json"),
        "--expected-per-slice", "0",
        "--conditions", "full,no_decontam",
        capsys=capsys,
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].split() == ["condition", "slice_B", "slice_C", "overall"]
    return {name: cells for name, *cells in (line.split() for line in lines[1:])}


def test_configured_trust_override_threshold_reaches_decontamination(tmp_path, capsys):
    # tz_playbook's source trust is 0.75. Below the default threshold of 0.9
    # its inflated post-offload reading is clamped; a 0.5 threshold lets the
    # reading stand, exactly as no_decontam does.
    assert _mini_eval_rows(capsys)["full"] == ["1.000", "1.000", "1.000"]
    cfg = _config(tmp_path, "# decontamination\ntrust_override_threshold = 0.5\n")
    rows = _mini_eval_rows(capsys, "--config", cfg)
    assert rows["full"] == rows["no_decontam"] == ["0.500", "1.000", "0.750"]


def test_report_round_trips_eval_output(tmp_path, capsys):
    saved = tmp_path / "results.json"
    code, _, _ = run_cli(
        *EVAL_ARGS, "--format", "machine", "--out", str(saved), capsys=capsys
    )
    assert code == EXIT_OK
    code, direct_text, _ = run_cli(*EVAL_ARGS, "--format", "text", capsys=capsys)
    assert code == EXIT_OK
    code, rendered, _ = run_cli(
        "report", "--in", str(saved), "--format", "text", capsys=capsys
    )
    assert code == EXIT_OK
    assert rendered == direct_text
    code, machine_again, _ = run_cli(
        "report", "--in", str(saved), "--format", "machine", capsys=capsys
    )
    assert code == EXIT_OK
    assert machine_again == saved.read_text(encoding="utf-8")


def test_report_rejects_non_report_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "other"}', encoding="utf-8")
    code, _, err = run_cli("report", "--in", str(path), capsys=capsys)
    assert code == EXIT_IO
    assert "routing-bench-results-v1" in err


_GOOD_REPORT = {
    "format": "routing-bench-results-v1",
    "conditions": ["full"],
    "cells": {"full": {"A": 1.0, "overall": 1.0}},
    "items": [],
}


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {key: value for key, value in _GOOD_REPORT.items() if key != "items"},
            "missing key(s) ['items']",
        ),
        ({**_GOOD_REPORT, "cells": {"full": {"A": "x", "overall": 1.0}}}, "cells['full']"),
    ],
    ids=["no-items", "text-cell"],
)
def test_report_rejects_a_malformed_v1_document(tmp_path, capsys, doc, message):
    path = tmp_path / "results.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli("report", "--in", str(path), capsys=capsys)
    assert code == EXIT_IO
    assert out == ""
    assert err.startswith("mesa: routing-bench-results-v1: ")
    assert message in err
    assert err.count("\n") == 1


def test_report_names_the_index_of_a_damaged_item(tmp_path, capsys):
    saved = tmp_path / "results.json"
    code, _, _ = run_cli(*EVAL_ARGS, "--format", "machine", "--out", str(saved), capsys=capsys)
    assert code == EXIT_OK
    doc = json.loads(saved.read_text(encoding="utf-8"))
    assert len(doc["items"]) == 1050
    del doc["items"][836]["item_id"]
    saved.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli("report", "--in", str(saved), capsys=capsys)
    assert code == EXIT_IO
    assert out == ""
    assert err == "mesa: routing-bench-results-v1: bad item: field [836].item_id: missing\n"


def test_report_names_the_index_of_an_item_that_is_no_object(tmp_path, capsys):
    saved = tmp_path / "results.json"
    code, _, _ = run_cli(*EVAL_ARGS, "--format", "machine", "--out", str(saved), capsys=capsys)
    assert code == EXIT_OK
    doc = json.loads(saved.read_text(encoding="utf-8"))
    doc["items"][836] = "x"
    saved.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli("report", "--in", str(saved), capsys=capsys)
    assert code == EXIT_IO
    assert out == ""
    assert err == (
        "mesa: routing-bench-results-v1: bad item: field [836]: expected a JSON object, got str\n"
    )


def test_report_missing_file(capsys):
    code, _, err = run_cli("report", "--in", "/nonexistent/report.json", capsys=capsys)
    assert code == EXIT_IO


# ---------------------------------------------------------------------------
# bank subcommands


def _seed_bank(tmp_path, count=2):
    path = tmp_path / "bank.jsonl"
    for i in range(count):
        record(
            BankEntry(
                trajectory=make_record(item_id=f"t{i}"), implicated_card="c0"
            ),
            path,
        )
    return path


def _bank_cards(tmp_path, trust=0.8):
    doc = {
        "cards": [
            {
                "id": "c0",
                "name": "Card zero",
                "description": "a card",
                "apply_when": 'contains:"x"',
                "cheap_probe": "kind:doc",
                "offloading_type": "procedural",
                "source_trust": trust,
                "provenance": "first_party",
                "stale": False,
                "body_ref": "inline:text",
            }
        ]
    }
    path = tmp_path / "bank_cards.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_bank_show_lists_entries(tmp_path, capsys):
    bank = _seed_bank(tmp_path)
    code, out, _ = run_cli("bank", "show", str(bank), capsys=capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "[0] t0 full skill_loaded incorrect terminal=0.95 card=c0"
    assert lines[1].startswith("[1] t1 full")


def test_bank_show_empty_file(tmp_path, capsys):
    path = tmp_path / "bank.jsonl"
    path.write_text("", encoding="utf-8")
    code, out, _ = run_cli("bank", "show", str(path), capsys=capsys)
    assert code == EXIT_OK
    assert out == ""


def test_bank_show_corrupt_file(tmp_path, capsys):
    path = tmp_path / "bank.jsonl"
    path.write_text("garbage\n" * 2, encoding="utf-8")
    code, _, err = run_cli("bank", "show", str(path), capsys=capsys)
    assert code == EXIT_IO
    assert "damaged record" in err


@pytest.mark.parametrize("command", ["show", "correct"])
@pytest.mark.parametrize(
    "key, value, field",
    [
        (None, ["c0"], "implicated_card"),
        (None, 5, "implicated_card"),
        ("p_self_pre", "zz", "trajectory.p_self_pre"),
        ("item_id", 7, "trajectory.item_id"),
    ],
)
def test_bank_commands_reject_a_field_of_the_wrong_type(tmp_path, capsys, command, key, value, field):
    bank = _seed_bank(tmp_path, count=1)
    raw = json.loads(bank.read_text(encoding="utf-8"))
    if key is None:
        raw["implicated_card"] = value
    else:
        raw["trajectory"][key] = value
    bank.write_text(json.dumps(raw) + "\n", encoding="utf-8")
    if command == "show":
        argv = ["bank", "show", str(bank)]
    else:
        cards = _bank_cards(tmp_path)
        argv = ["bank", "correct", "--bank", str(bank), "--cards", str(cards), "--dry-run"]
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert f"damaged record at line 0: field {field}: expected " in err


@pytest.mark.parametrize(
    "path, field",
    [
        (("trajectory", "decisions", 0, "chosen", "cost"), "trajectory.decisions[0].chosen.cost"),
        (("trajectory", "decisions", 0, "probe_traces"), "trajectory.decisions[0].probe_traces"),
        (("trajectory", "outcome"), "trajectory.outcome"),
        (("implicated_card",), "implicated_card"),
    ],
)
def test_bank_show_names_a_missing_field(tmp_path, capsys, path, field):
    bank = _seed_bank(tmp_path, count=1)
    raw = json.loads(bank.read_text(encoding="utf-8"))
    target = raw
    for key in path[:-1]:
        target = target[key]
    del target[path[-1]]
    bank.write_text(json.dumps(raw) + "\n", encoding="utf-8")
    code, out, err = run_cli("bank", "show", str(bank), capsys=capsys)
    assert code == EXIT_IO
    assert out == ""
    assert err.count("\n") == 1
    assert err.endswith(f"damaged record at line 0: field {field}: missing\n")


def test_bank_correct_dry_run_leaves_cards_alone(tmp_path, capsys):
    bank = _seed_bank(tmp_path, count=1)
    cards = _bank_cards(tmp_path)
    before = cards.read_bytes()
    code, out, _ = run_cli(
        "bank", "correct", "--bank", str(bank), "--cards", str(cards), "--dry-run",
        capsys=capsys,
    )
    assert code == EXIT_OK
    assert out.startswith("c0: 0.800000 -> 0.400000 (")
    assert cards.read_bytes() == before


def test_bank_correct_applies_chained_updates(tmp_path, capsys):
    bank = _seed_bank(tmp_path, count=2)
    cards = _bank_cards(tmp_path)
    code, out, _ = run_cli(
        "bank", "correct", "--bank", str(bank), "--cards", str(cards), capsys=capsys
    )
    assert code == EXIT_OK
    assert "c0: 0.800000 -> 0.400000" in out
    assert "c0: 0.400000 -> 0.200000" in out
    updated = json.loads(cards.read_text(encoding="utf-8"))
    assert updated["cards"][0]["source_trust"] == pytest.approx(0.2)
    assert cards.with_name(cards.name + ".bak").exists()


def test_bank_correct_decays_each_failure_once(tmp_path, capsys):
    bank = tmp_path / "bank.jsonl"
    mini_failure_bank(bank)
    cards = tmp_path / "cards_mini.json"
    cards.write_bytes((DATA / "cards_mini.json").read_bytes())
    outs, trusts = [], []
    for _ in range(3):
        code, out, _ = run_cli(
            "bank", "correct", "--bank", str(bank), "--cards", str(cards), capsys=capsys
        )
        assert code == EXIT_OK
        outs.append(out)
        trusts.append(load_registry(cards).get("tz_playbook").source_trust)
    assert outs[0].startswith("tz_playbook: 0.750000 -> 0.375000 (high-confidence failure on m_tz")
    assert outs[1:] == ["", ""]
    assert trusts == [0.375, 0.375, 0.375]
    assert json.loads(cards.read_text(encoding="utf-8"))["applied_through"] == 0


def test_bank_correct_rejects_a_bank_shorter_than_the_applied_entries(tmp_path, capsys):
    bank = _seed_bank(tmp_path, count=2)
    cards = _bank_cards(tmp_path)
    doc = json.loads(cards.read_text(encoding="utf-8"))
    cards.write_text(json.dumps({**doc, "applied_through": 5}), encoding="utf-8")
    before = cards.read_bytes()
    code, out, err = run_cli(
        "bank", "correct", "--bank", str(bank), "--cards", str(cards), capsys=capsys
    )
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err == (
        "mesa: the bank ends at entry 1, but the card file was corrected through entry 5\n"
    )
    assert cards.read_bytes() == before


# ---------------------------------------------------------------------------
# Config files


def _config(tmp_path, text):
    path = tmp_path / "mesa.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_config_file_changes_scoring(shipped_suite, tmp_path, capsys):
    prompt = _prompt_of(shipped_suite, "a_fact_00")
    cfg = _config(tmp_path, "# scoring\nalpha = 0.9\n")
    code, out, _ = run_cli(
        "--config", cfg,
        "route",
        "--cards", CARDS,
        "--backend", "scripted",
        "--script", SCRIPT,
        "--suite", SUITE,
        "--prompt", prompt,
        capsys=capsys,
    )
    assert code == EXIT_OK
    assert "score DIRECT: 0.810000" in out  # 0.9 * 0.90


def test_flag_beats_config_file(shipped_suite, tmp_path, capsys):
    prompt = _prompt_of(shipped_suite, "a_fact_00")
    cfg = _config(tmp_path, "alpha=0.9\n")
    code, out, _ = run_cli(
        "--config", cfg,
        "route",
        "--cards", CARDS,
        "--backend", "scripted",
        "--script", SCRIPT,
        "--suite", SUITE,
        "--prompt", prompt,
        "--alpha", "0.2",
        capsys=capsys,
    )
    assert code == EXIT_OK
    assert "score DIRECT: 0.180000" in out


def test_config_file_reaches_every_config(tmp_path, capsys):
    cfg = _config(
        tmp_path,
        "self_low = 0.3\ntrap_verify = false\ndecrement_factor = 0.25\n"
        "trust_override_threshold = 0.95\n",
    )
    routing, bank = _load_settings(cfg)
    assert routing.self_low == 0.3
    assert routing.trap_verify is False
    assert bank.decrement_factor == 0.25
    assert routing.trust_override_threshold == 0.95

    bad = _config(tmp_path, "trap_verify = maybe\n")
    code, _, err = run_cli("--config", bad, "cards", "lint", CARDS, capsys=capsys)
    assert code == EXIT_USAGE
    assert "trap_verify needs true or false, got 'maybe'" in err


def test_config_unknown_key(tmp_path, capsys):
    cfg = _config(tmp_path, "switch_it_up = 1\n")
    code, _, err = run_cli(
        "--config", cfg, "cards", "lint", CARDS, capsys=capsys
    )
    assert code == EXIT_USAGE
    assert "unknown config key 'switch_it_up'" in err


def test_config_bad_value(tmp_path, capsys):
    cfg = _config(tmp_path, "alpha = very high\n")
    code, _, err = run_cli("--config", cfg, "cards", "lint", CARDS, capsys=capsys)
    assert code == EXIT_USAGE
    assert "needs a number" in err


def test_config_out_of_range_value(tmp_path, capsys):
    cfg = _config(tmp_path, "alpha = 2.0\n")
    code, _, err = run_cli("--config", cfg, "cards", "lint", CARDS, capsys=capsys)
    assert code == EXIT_USAGE
    assert "alpha" in err


def test_config_non_finite_self_low_is_a_config_error(tmp_path, capsys):
    cfg = _config(tmp_path, "self_low = nan\n")
    code, _, err = run_cli("--config", cfg, "cards", "lint", CARDS, capsys=capsys)
    assert code == EXIT_USAGE
    assert err.startswith("mesa: config error: ")
    assert "self_low must be in [0, 1]" in err


def test_config_missing_file(capsys):
    code, _, err = run_cli(
        "--config", "/nonexistent/mesa.cfg", "cards", "lint", CARDS, capsys=capsys
    )
    assert code == EXIT_USAGE
    assert "cannot read config" in err


def test_config_missing_equals(tmp_path, capsys):
    cfg = _config(tmp_path, "alpha 0.9\n")
    code, _, err = run_cli("--config", cfg, "cards", "lint", CARDS, capsys=capsys)
    assert code == EXIT_USAGE
    assert "expected key=value" in err


# ---------------------------------------------------------------------------
# Process-level entry points


@pytest.mark.parametrize(
    "argv, code, named",
    [
        pytest.param(["cards", "lint", "{bad}"], EXIT_IO, "card file", id="cards-lint"),
        pytest.param(["eval", "--suite", "{bad}", "--cards", CARDS, "--script", SCRIPT],
                     EXIT_IO, "suite", id="eval-suite"),
        pytest.param(["eval", "--suite", SUITE, "--cards", CARDS, "--script", "{bad}"],
                     EXIT_IO, "script", id="eval-script"),
        pytest.param(["report", "--in", "{bad}"], EXIT_IO, "report", id="report-in"),
        pytest.param(["--config", "{bad}", "cards", "lint", CARDS], EXIT_USAGE, "config",
                     id="config"),
    ],
)
def test_an_input_file_that_is_not_utf8_is_a_named_error(tmp_path, argv, code, named):
    bad = tmp_path / "input.json"
    bad.write_bytes(b'{"items": ["\xff"]}')
    proc = subprocess.run(
        [sys.executable, "-m", "mesa.cli", *(arg.format(bad=bad) for arg in argv)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("mesa: ")
    assert f"cannot read {named} {bad}: 'utf-8' codec can't decode byte 0xff" in last


def _ask_remote(path):
    """A remote self-confidence query, through the (patched) default transport."""
    config = RemoteConfig(endpoint="http://127.0.0.1:9/v1", auth_env="MESA_TEST_TOKEN", model="m")
    return RemoteBackend(config).self_confidence(make_ctx())


_REMOTE = ["--endpoint", "http://127.0.0.1:9/v1", "--model", "m", "--auth-env", "MESA_TEST_TOKEN"]


@pytest.mark.parametrize(
    "argv, read, error, message",
    [
        pytest.param(
            ["cards", "lint", "{bad}"], load_registry, CardFileError,
            "card file {bad} is not valid JSON: JSON nested too deeply", id="card-file",
        ),
        pytest.param(
            ["eval", "--suite", "{bad}", "--cards", CARDS, "--script", SCRIPT],
            lambda path: load_suite(path, load_registry(CARDS)), SuiteFormatError,
            "suite {bad} is not valid JSON: JSON nested too deeply", id="suite",
        ),
        pytest.param(
            ["eval", "--suite", SUITE, "--cards", CARDS, "--script", "{bad}"],
            load_script, MissingSignalError,
            "script {bad} is not valid JSON: JSON nested too deeply", id="script",
        ),
        pytest.param(
            ["report", "--in", "{bad}"],
            lambda path: parse_report(path.read_text(encoding="utf-8")), SuiteFormatError,
            "not a machine-readable report: JSON nested too deeply", id="report-in",
        ),
        pytest.param(
            ["bank", "show", "{bad}"], read_bank, BankCorruptionError,
            "{bad}: damaged record at line 0: JSON nested too deeply", id="bank",
        ),
        pytest.param(
            ["route", "--cards", CARDS, "--backend", "cached", "--cache", "{bad}", "--prompt", "x"],
            lambda path: CachedBackend(None, path), ReplayMissError,
            "cache {bad} line 0 is damaged: JSON nested too deeply", id="replay-cache",
        ),
        pytest.param(
            ["route", "--cards", CARDS, "--backend", "remote", *_REMOTE, "--prompt", "x"],
            _ask_remote, RemoteBackendError,
            "endpoint failed after 3 attempt(s): JSON nested too deeply", id="remote-reply",
        ),
    ],
)
def test_a_too_deeply_nested_document_is_a_named_error(
    tmp_path, monkeypatch, capsys, argv, read, error, message
):
    # Past the parser's depth on every supported interpreter: json.loads
    # raises RecursionError, not a JSONDecodeError.
    bad = tmp_path / "input.json"
    bad.write_text("[" * 100_000 + "\n", encoding="utf-8")
    monkeypatch.setattr("mesa.backend._default_transport", lambda *args: bad.read_text("utf-8"))
    monkeypatch.setattr("mesa.backend.time.sleep", lambda seconds: None)
    monkeypatch.setenv("MESA_TEST_TOKEN", "token")
    message = message.format(bad=bad)
    with pytest.raises(error) as caught:
        read(bad)
    assert str(caught.value) == message
    code, _, err = run_cli(*(arg.format(bad=bad) for arg in argv), capsys=capsys)
    assert code == EXIT_IO
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"mesa: {message}"


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "mesa.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "usage: mesa" in proc.stdout


@pytest.mark.parametrize(
    "predicate",
    [
        pytest.param("kind:a AND contains:\"\ud800\"", id="lone-surrogate"),
        pytest.param("NOT " * 2000 + "kind:a", id="2000-NOTs"),
        pytest.param(" AND ".join(["kind:a"] * 2000), id="2000-ANDs"),
    ],
)
def test_unparseable_predicate_exits_3_without_traceback(tmp_path, predicate):
    card = {
        "id": "deep", "name": "Deep", "description": "d", "apply_when": predicate,
        "cheap_probe": "kind:a", "offloading_type": "procedural", "source_trust": 0.9,
        "provenance": "first_party", "stale": False, "body_ref": "inline:x",
    }
    cards = tmp_path / "cards.json"
    cards.write_text(json.dumps({"cards": [card]}), encoding="utf-8")
    cache = tmp_path / "cache.jsonl"
    cache.write_text("", encoding="utf-8")
    for argv in (
        ["cards", "lint", str(cards)],
        ["route", "--cards", str(cards), "--backend", "cached", "--cache", str(cache),
         "--prompt", "a task", "--kind-tag", "a"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "mesa.cli", *argv], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == EXIT_IO, (argv[0], proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("mesa: card 'deep': bad predicate: ")


@pytest.mark.parametrize("value", ["high", 1.5, True], ids=["text", "out-of-range", "bool"])
def test_route_replaying_a_bad_cached_value_exits_3_without_traceback(
    tmp_path, shipped_suite, value
):
    item = next(item for item in shipped_suite if item.id == "a_fact_00")
    cache = tmp_path / "cache.jsonl"
    CachedBackend(DictBackend(p_self=0.7), cache).self_confidence(context_for_item(item))
    row = json.loads(cache.read_text(encoding="utf-8"))
    cache.write_text(json.dumps({"key": row["key"], "value": value}) + "\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "mesa.cli", "route", "--cards", CARDS, "--backend", "cached",
         "--cache", str(cache), "--suite", SUITE, "--prompt", item.prompt],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_IO, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("mesa: cache value for key ")
    assert '"op":"self_confidence"' in proc.stderr


def test_route_warns_when_suite_item_drops_context_flags(shipped_suite):
    route = [
        sys.executable, "-m", "mesa.cli", "route", "--cards", CARDS, "--backend", "scripted",
        "--script", SCRIPT, "--suite", SUITE, "--prompt", _prompt_of(shipped_suite, "a_fact_00"),
    ]
    plain = subprocess.run(route, capture_output=True, text=True, timeout=60)
    flagged = subprocess.run(
        [*route, "--kind-tag", "code", "--attach", "text/html:10"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert plain.returncode == flagged.returncode == EXIT_OK
    assert flagged.stdout == plain.stdout
    assert plain.stderr == ""
    (warning,) = flagged.stderr.splitlines()
    assert warning.startswith("WARNING ")
    assert warning.endswith(
        "suite item a_fact_00 supplies the task context; ignoring --kind-tag and --attach"
    )
    only_tag = subprocess.run([*route, "--kind-tag", "code"], capture_output=True, text=True,
                              timeout=60)
    assert only_tag.stderr.endswith("ignoring --kind-tag\n")


def test_console_script_eval_verbose_logs_to_stderr(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "mesa.cli",
            "--verbosity", "2",
            *EVAL_ARGS[0:1], "--suite", SUITE, "--cards", CARDS, "--script", SCRIPT,
            "--conditions", "full",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "full" in proc.stdout
    assert "graded incorrect" in proc.stderr

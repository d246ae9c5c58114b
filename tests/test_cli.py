"""Command line behavior: exit codes, output shapes, config precedence."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from mesa.bank import BankEntry, record
from mesa.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, _load_settings, dispatch
from mesa.fixtures import fixture_path

from test_bank import make_record


def run_cli(*argv, capsys=None):
    code = dispatch(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def _prompt_of(suite, item_id):
    return next(item.prompt for item in suite if item.id == item_id)


SUITE = str(fixture_path("suite.json"))
CARDS = str(fixture_path("cards.json"))
SCRIPT = str(fixture_path("script.json"))
MINI_SUITE = str(fixture_path("suite_mini.json"))
MINI_CARDS = str(fixture_path("cards_mini.json"))


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


def test_eval_mini_suite_decontamination_contrast(capsys):
    args = (
        "eval",
        "--suite", MINI_SUITE,
        "--cards", MINI_CARDS,
        "--script", str(fixture_path("script_mini.json")),
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
    settings = _load_settings(cfg)
    assert settings.routing.self_low == 0.3
    assert settings.routing.trap_verify is False
    assert settings.bank.decrement_factor == 0.25
    assert settings.decontam.trust_override_threshold == 0.95

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


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "mesa.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "usage: mesa" in proc.stdout


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

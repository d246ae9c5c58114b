"""Behavior scripts, the scripted/cached backends, and the HTTP client."""

from __future__ import annotations

import json
import logging
import math
import subprocess
import sys
import threading
import urllib.error
from http.client import BadStatusLine, IncompleteRead

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesa.backend import (
    CachedBackend,
    RemoteBackend,
    RemoteConfig,
    ScriptedBackend,
    load_script,
    required_keys,
)
from mesa.bench import BenchmarkItem, SliceName, condition_by_name
from mesa.cards import CardRegistry
from mesa.context import TaskContext
from mesa.errors import (
    MissingSignalError,
    RemoteBackendError,
    ReplayMissError,
    SuiteFormatError,
)
from mesa.router import GoldAction, RoutingConfig, run_trajectory

from conftest import DictBackend, make_card, make_ctx


def make_item(item_id="i1", prompt="prompt one", injected=()):
    return BenchmarkItem(
        id=item_id,
        slice=SliceName.A,
        prompt=prompt,
        kind_tags=frozenset(),
        attachments=(),
        injected_card_ids=tuple(injected),
        gold_action=GoldAction.DIRECT,
        gold_answer=None,
    )


def write_script(tmp_path, rows):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Script parsing


def test_load_script_happy_path(tmp_path):
    path = write_script(
        tmp_path,
        [
            {"item": "i1", "condition": "*", "key": "p_self", "value": 0.5},
            {"item": "i1", "condition": "full", "key": "p_self", "value": 1},
            {"item": "i1", "condition": "*", "key": "tags", "value": "trivial"},
        ],
    )
    script = load_script(path)
    assert script.lookup("i1", "baseline", "p_self") == 0.5
    # exact condition beats the wildcard, and ints arrive as floats
    assert script.lookup("i1", "full", "p_self") == 1.0
    assert isinstance(script.lookup("i1", "full", "p_self"), float)
    assert script.lookup("i1", "full", "tags") == "trivial"


def test_load_script_range_checks_only_numeric_confidences(tmp_path):
    path = write_script(
        tmp_path,
        [
            {"item": "i1", "condition": "*", "key": "p_self", "value": 0},
            {"item": "i1", "condition": "*", "key": "probe:c1", "value": 1},
            {"item": "i1", "condition": "*", "key": "source:c1", "value": "text"},
            {"item": "i1", "condition": "*", "key": "answer:direct", "value": 42},
            {"item": "i1", "condition": "*", "key": "answer:tool", "value": -1.5},
        ],
    )
    script = load_script(path)
    assert script.lookup("i1", "full", "probe:c1") == 1.0
    assert script.lookup("i1", "full", "answer:direct") == 42.0


def test_lookup_miss_names_the_triple(tmp_path):
    script = load_script(write_script(tmp_path, []))
    with pytest.raises(MissingSignalError, match=r"i9/full: p_self"):
        script.lookup("i9", "full", "p_self")


def test_load_script_rejects_bad_shapes(tmp_path):
    path = tmp_path / "script.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(MissingSignalError, match="rows"):
        load_script(path)
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MissingSignalError, match="not valid JSON"):
        load_script(path)
    with pytest.raises(MissingSignalError, match="cannot read script"):
        load_script(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "row",
    [
        {"item": "i1", "condition": "*", "key": "p_self"},  # missing value
        {"item": "i1", "condition": "*", "key": "p_self", "value": 0.5, "extra": 1},
        {"item": "i1", "condition": "*", "key": "p_self", "value": True},  # bool
        {"item": "i1", "condition": "*", "key": "p_self", "value": None},
        {"item": 3, "condition": "*", "key": "p_self", "value": 0.5},
        {"item": "i1", "condition": "*", "key": ["p_self"], "value": 0.5},
        "not even a dict",
        # confidences outside [0, 1]
        {"item": "i1", "condition": "*", "key": "p_self", "value": 1.5},
        {"item": "i1", "condition": "full", "key": "p_self_post", "value": -0.1},
        {"item": "i1", "condition": "*", "key": "source:__tool__", "value": float("nan")},
        {"item": "i1", "condition": "*", "key": "source:relevance:DIRECT", "value": 2},
        {"item": "i1", "condition": "*", "key": "probe:c1", "value": float("inf")},
    ],
)
def test_load_script_rejects_malformed_rows(tmp_path, row):
    path = write_script(tmp_path, [row])
    with pytest.raises(MissingSignalError, match=r"malformed row #0"):
        load_script(path)


def test_load_script_keeps_one_object_per_distinct_key(tmp_path):
    rows = [
        {"item": item, "condition": condition, "key": "source:__tool__", "value": 0.5}
        for item, condition in (("i1", "*"), ("i2", "*"), ("i2", "full"))
    ]
    script = load_script(write_script(tmp_path, rows))
    keys = [next(iter(script.table(item, "full"))) for item in ("i1", "i2")]
    assert keys[0] == keys[1] == "source:__tool__"
    assert keys[0] is keys[1] is next(iter(script.table("i2", "baseline")))


def test_load_script_rejects_duplicate_triples(tmp_path):
    row = {"item": "i1", "condition": "*", "key": "p_self", "value": 0.5}
    path = write_script(tmp_path, [row, dict(row, value=0.6)])
    with pytest.raises(MissingSignalError, match="duplicate row"):
        load_script(path)


# ---------------------------------------------------------------------------
# Required keys and coverage


def test_required_keys_without_cards():
    keys = required_keys(make_item())
    assert set(keys) == {
        "p_self",
        "p_self_post",
        "tags",
        "source:__tool__",
        "source:__verify__",
        "answer:direct",
        "answer:tool",
        "answer:verify",
        "source:relevance:DIRECT",
        "source:relevance:STOP",
        "source:relevance:CALL_TOOL",
        "source:relevance:VERIFY",
    }


def test_required_keys_per_injected_card():
    base = set(required_keys(make_item()))
    with_card = set(required_keys(make_item(injected=("c1",))))
    assert with_card - base == {
        "probe:c1",
        "source:c1",
        "source:relevance:LOAD_SKILL:c1",
        "answer:skill:c1:commit",
        "answer:skill:c1:hedge",
    }


def test_missing_keys_naming_and_vacuous_pass(tmp_path):
    script = load_script(write_script(tmp_path, []))
    assert script.missing_keys([], ["full"]) == []
    assert script.missing_keys([make_item()], []) == []
    missing = script.missing_keys([make_item()], ["full"])
    assert "i1/full: p_self" in missing
    assert len(missing) == len(required_keys(make_item()))


def test_load_script_coverage_check(tmp_path):
    path = write_script(
        tmp_path, [{"item": "i1", "condition": "*", "key": "p_self", "value": 0.5}]
    )
    missing = load_script(path).missing_keys([make_item()], ["full"])
    assert "i1/full: source:__tool__" in missing
    assert "i1/full: p_self" not in missing
    assert "i1/full: p_self_post" in missing


def _full_rows(item_id="i1", condition="*"):
    values = {
        "p_self": 0.5,
        "p_self_post": 0.9,
        "tags": "",
        "source:__tool__": 0.3,
        "source:__verify__": 0.2,
        "answer:direct": "d",
        "answer:tool": "t",
        "answer:verify": "v",
        "source:relevance:DIRECT": 0.5,
        "source:relevance:STOP": 0.1,
        "source:relevance:CALL_TOOL": 0.4,
        "source:relevance:VERIFY": 0.2,
    }
    return [
        {"item": item_id, "condition": condition, "key": key, "value": value}
        for key, value in values.items()
    ]


def test_load_script_coverage_pass(tmp_path):
    path = write_script(tmp_path, _full_rows())
    script = load_script(path)
    assert script.missing_keys([make_item()], ["full", "baseline"]) == []
    assert script.lookup("i1", "anything", "p_self") == 0.5


# ---------------------------------------------------------------------------
# ScriptedBackend


def _scripted(tmp_path, extra_rows=(), items=None):
    rows = _full_rows() + list(extra_rows)
    script = load_script(write_script(tmp_path, rows))
    return ScriptedBackend(script, items or [make_item()], "full")


def test_scripted_backend_resolves_by_prompt(tmp_path):
    backend = _scripted(tmp_path)
    ctx = make_ctx(prompt="prompt one")
    assert backend.self_confidence(ctx) == 0.5
    assert backend.source_confidence(ctx, "__tool__") == 0.3
    assert backend.answer(ctx, "direct") == "d"


def test_scripted_backend_unknown_prompt(tmp_path):
    backend = _scripted(tmp_path)
    with pytest.raises(MissingSignalError, match="prompt not in scripted suite"):
        backend.self_confidence(make_ctx(prompt="never scripted"))


def test_scripted_backend_switches_to_post_confidence(tmp_path):
    backend = _scripted(tmp_path)
    pre = make_ctx(prompt="prompt one")
    post = make_ctx(prompt="prompt one", pre_offload_p_self=0.5)
    assert backend.self_confidence(pre) == 0.5
    assert backend.self_confidence(post) == 0.9


def test_scripted_backend_tag_splitting(tmp_path):
    rows = [
        {"item": "i1", "condition": "full", "key": "tags", "value": "trivial, trap"}
    ]
    backend = _scripted(tmp_path, rows)
    assert backend.self_report_tags(make_ctx(prompt="prompt one")) == frozenset(
        {"trivial", "trap"}
    )
    plain = ScriptedBackend(
        load_script(write_script(tmp_path, _full_rows())), [make_item()], "full"
    )
    assert plain.self_report_tags(make_ctx(prompt="prompt one")) == frozenset()


def test_scripted_backend_rejects_text_for_numbers(tmp_path):
    rows = [{"item": "i1", "condition": "full", "key": "p_self", "value": "high"}]
    backend = _scripted(tmp_path, rows)
    with pytest.raises(MissingSignalError, match="not numeric"):
        backend.self_confidence(make_ctx(prompt="prompt one"))


def test_scripted_backend_requires_unique_prompts(tmp_path):
    items = [make_item("i1", prompt="same"), make_item("i2", prompt="same")]
    script = load_script(write_script(tmp_path, _full_rows()))
    with pytest.raises(SuiteFormatError, match="i1.*i2|duplicate prompt"):
        ScriptedBackend(script, items, "full")


def test_scripted_backend_probe_and_answer_keys(tmp_path):
    rows = [
        {"item": "i1", "condition": "*", "key": "probe:c1", "value": 0.25},
        {"item": "i1", "condition": "*", "key": "answer:skill:c1:hedge", "value": 7},
    ]
    backend = _scripted(tmp_path, rows)
    ctx = make_ctx(prompt="prompt one")
    assert backend.probe_signal(ctx, "c1") == 0.25
    # answers pass through str(); numeric script values become text
    assert backend.answer(ctx, "skill:c1:hedge") == "7.0"


def _row(item, condition, key, value):
    return {"item": item, "condition": condition, "key": key, "value": value}


def test_a_condition_row_overrides_the_default_for_that_condition_only(tmp_path):
    # The condition row comes first: its table still gets the later defaults.
    rows = [
        _row("i1", "full", "p_self", 0.9),
        _row("i1", "*", "p_self", 0.5),
        _row("i1", "*", "tags", "trap"),
        _row("i2", "*", "p_self", 0.1),
    ]
    script = load_script(write_script(tmp_path, rows))
    assert script.lookup("i1", "full", "p_self") == 0.9
    assert script.lookup("i1", "full", "tags") == "trap"  # the default shows through
    assert script.lookup("i1", "baseline", "p_self") == 0.5
    assert script.lookup("i1", "*", "p_self") == 0.5
    assert script.lookup("i2", "full", "p_self") == 0.1
    items = [make_item("i1", prompt="one"), make_item("i2", prompt="two")]
    full = ScriptedBackend(script, items, "full")
    baseline = ScriptedBackend(script, items, "baseline")
    assert full.self_confidence(make_ctx(prompt="one")) == 0.9
    assert baseline.self_confidence(make_ctx(prompt="one")) == 0.5
    assert full.self_confidence(make_ctx(prompt="two")) == 0.1
    assert full.self_report_tags(make_ctx(prompt="one")) == frozenset({"trap"})


def test_an_item_without_condition_rows_shares_one_table_across_conditions(tmp_path):
    rows = [
        _row("i1", "*", "p_self", 0.5),
        _row("i2", "*", "p_self", 0.1),
        _row("i2", "*", "tags", ""),
        _row("i2", "full", "p_self", 0.3),
    ]
    script = load_script(write_script(tmp_path, rows))
    shared = script.table("i1", "full")
    assert shared == {"p_self": 0.5}
    assert script.table("i1", "baseline") is shared
    assert script.table("i1", "*") is shared
    assert script.table("i2", "full") == {"p_self": 0.3, "tags": ""}
    assert script.table("i2", "baseline") is script.table("i2", "*")
    assert script.table("i9", "full") == {}


def test_scripted_miss_messages_are_pinned(tmp_path):
    rows = [{"item": "i1", "condition": "full", "key": "p_self", "value": "high"}]
    backend = _scripted(tmp_path, rows)
    ctx = make_ctx(prompt="prompt one")
    with pytest.raises(MissingSignalError) as unknown:
        backend.self_confidence(make_ctx(prompt="an unscripted prompt " * 4))
    assert str(unknown.value) == (
        "prompt not in scripted suite: 'an unscripted prompt an unscripted prompt an unscripted "
        "prom'"
    )
    with pytest.raises(MissingSignalError) as missing:
        backend.probe_signal(ctx, "c9")
    assert str(missing.value) == "script has no value for i1/full: probe:c9"
    with pytest.raises(MissingSignalError) as text:
        backend.self_confidence(ctx)
    assert str(text.value) == "script value for p_self is not numeric: 'high'"
    with pytest.raises(MissingSignalError) as lookup:
        load_script(write_script(tmp_path, [])).lookup("i9", "no_probe", "tags")
    assert str(lookup.value) == "script has no value for i9/no_probe: tags"


def test_missing_keys_lists_the_gaps_item_then_key_then_condition(tmp_path):
    rows = [row for row in _full_rows("i1") if row["key"] != "tags"]
    rows.append({"item": "i1", "condition": "full", "key": "tags", "value": ""})
    rows += _full_rows("i2")
    for condition, key in [
        ("full", "probe:c1"),
        ("*", "source:c1"),
        ("*", "source:relevance:LOAD_SKILL:c1"),
        ("*", "answer:skill:c1:commit"),
    ]:
        rows.append({"item": "i2", "condition": condition, "key": key, "value": 0.5})
    script = load_script(write_script(tmp_path, rows))
    items = [make_item("i1", prompt="one"), make_item("i2", prompt="two", injected=["c1"])]
    assert script.missing_keys(items, ["full", "baseline"]) == [
        "i1/baseline: tags",
        "i2/baseline: probe:c1",
        "i2/full: answer:skill:c1:hedge",
        "i2/baseline: answer:skill:c1:hedge",
    ]


def _missing_keys_per_condition(script, suite, conditions):
    """The coverage check with one test per item, key and condition: the reference."""
    return [
        f"{item.id}/{name}: {key}"
        for item in suite
        for key in required_keys(item)
        for name in conditions
        if key not in script.table(item.id, name)
    ]


_CARD_IDS = ("c1", "c2")
_SCRIPT_KEYS = sorted(set(required_keys(make_item(injected=_CARD_IDS))))
_ROW_CONDITIONS = ("*", "full", "baseline", "no_probe")


@settings(max_examples=300, deadline=None)
@given(
    injected=st.lists(st.lists(st.sampled_from(_CARD_IDS), unique=True), max_size=3),
    rows=st.sets(st.tuples(
        st.sampled_from(["i0", "i1", "i2", "i9"]),
        st.sampled_from(_ROW_CONDITIONS),
        st.sampled_from(_SCRIPT_KEYS),
    )),
    conditions=st.lists(st.sampled_from(["full", "baseline", "no_probe", "reflection"])),
)
def test_missing_keys_equals_one_test_per_condition(tmp_path_factory, injected, rows, conditions):
    # Items with and without condition rows of their own, items with no rows
    # at all, and empty or repeated condition lists: the shared-table check
    # lists the same misses, in the same order, as testing every condition.
    suite = [make_item(f"i{i}", f"prompt {i}", cards) for i, cards in enumerate(injected)]
    raw = [{"item": i, "condition": c, "key": k, "value": 0.5} for i, c, k in sorted(rows)]
    script = load_script(write_script(tmp_path_factory.mktemp("script"), raw))
    assert script.missing_keys(suite, iter(conditions)) == _missing_keys_per_condition(
        script, suite, conditions
    )


# ---------------------------------------------------------------------------
# CachedBackend


def test_cache_memoizes_inner_calls(tmp_path):
    inner = DictBackend(p_self=0.7, sources={"__tool__": 0.4})
    cache = CachedBackend(inner, tmp_path / "cache.jsonl")
    ctx = make_ctx()
    assert cache.self_confidence(ctx) == 0.7
    assert cache.self_confidence(ctx) == 0.7
    assert cache.source_confidence(ctx, "__tool__") == 0.4
    assert cache.source_confidence(ctx, "__tool__") == 0.4
    inner_hits = [c for c in inner.calls if c[0] != "answer"]
    assert len(inner_hits) == 2  # one real call per distinct key


def test_cache_replays_without_inner(tmp_path):
    path = tmp_path / "cache.jsonl"
    inner = DictBackend(
        p_self=0.7,
        p_self_post=0.8,
        sources={"__tool__": 0.4},
        probes={"c": 0.2},
        answers={"direct": "d"},
        tags=frozenset({"trap"}),
    )
    recorder = CachedBackend(inner, path)
    ctx = make_ctx()
    post_ctx = make_ctx(pre_offload_p_self=0.7)
    recorded = (
        recorder.self_confidence(ctx),
        recorder.self_confidence(post_ctx),
        recorder.source_confidence(ctx, "__tool__"),
        recorder.probe_signal(ctx, "c"),
        recorder.answer(ctx, "direct"),
        recorder.self_report_tags(ctx),
    )

    replayer = CachedBackend(None, path)
    replayed = (
        replayer.self_confidence(ctx),
        replayer.self_confidence(post_ctx),
        replayer.source_confidence(ctx, "__tool__"),
        replayer.probe_signal(ctx, "c"),
        replayer.answer(ctx, "direct"),
        replayer.self_report_tags(ctx),
    )
    assert replayed == recorded
    assert replayed[5] == frozenset({"trap"})


def test_cache_distinguishes_pre_and_post_offload(tmp_path):
    inner = DictBackend(p_self=0.3, p_self_post=0.9)
    cache = CachedBackend(inner, tmp_path / "cache.jsonl")
    assert cache.self_confidence(make_ctx()) == 0.3
    assert cache.self_confidence(make_ctx(pre_offload_p_self=0.3)) == 0.9


def test_replay_miss_names_the_key(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text("", encoding="utf-8")
    replayer = CachedBackend(None, path)
    with pytest.raises(ReplayMissError, match="probe_signal") as exc_info:
        replayer.probe_signal(make_ctx(), "mystery_card")
    assert "mystery_card" in str(exc_info.value)


def test_damaged_cache_line_rejected(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "a", "value": 1}\nnot json\n', encoding="utf-8")
    with pytest.raises(ReplayMissError, match="line 1"):
        CachedBackend(None, path)


def _record_then_tear(path, torn):
    """Record two entries, then damage the end of the cache file.

    "fragment" appends the first bytes of a third record, as a crash
    mid-append leaves them; "unterminated" drops only the last newline.
    """
    recorder = CachedBackend(DictBackend(p_self=0.7, sources={"__tool__": 0.4}), path)
    recorder.self_confidence(make_ctx())
    recorder.source_confidence(make_ctx(), "__tool__")
    if torn == "fragment":
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "{\\"arg\\": \\"c\\", \\"att')
    else:
        path.write_bytes(path.read_bytes()[:-1])


def test_torn_cache_tail_is_skipped_and_replayed(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    _record_then_tear(path, "fragment")
    with caplog.at_level(logging.WARNING, logger="mesa.backend"):
        replayer = CachedBackend(None, path)
    assert "torn trailing record" in caplog.text
    assert replayer.self_confidence(make_ctx()) == 0.7
    assert replayer.source_confidence(make_ctx(), "__tool__") == 0.4
    with pytest.raises(ReplayMissError):
        replayer.probe_signal(make_ctx(), "c")


@pytest.mark.parametrize("torn", ["fragment", "unterminated"])
def test_append_after_torn_tail_is_replayed(tmp_path, torn):
    # A record counts once its newline is written, so an unterminated last
    # line is cut off like a fragment, even though it parses.
    path = tmp_path / "cache.jsonl"
    _record_then_tear(path, torn)
    CachedBackend(DictBackend(probes={"c": 0.2}), path).probe_signal(make_ctx(), "c")
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == ""
    kept = [0.7, 0.4, 0.2] if torn == "fragment" else [0.7, 0.2]
    assert [json.loads(line)["value"] for line in lines[:-1]] == kept
    replayer = CachedBackend(None, path)
    assert replayer.self_confidence(make_ctx()) == 0.7
    if torn == "fragment":
        assert replayer.source_confidence(make_ctx(), "__tool__") == 0.4
    else:
        with pytest.raises(ReplayMissError):
            replayer.source_confidence(make_ctx(), "__tool__")
    assert replayer.probe_signal(make_ctx(), "c") == 0.2


def test_recorders_opened_on_one_torn_cache_keep_both_records(tmp_path):
    # Each append cuts the torn tail it finds under the lock, not the one its
    # recorder saw when it opened the file.
    path = tmp_path / "cache.jsonl"
    _record_then_tear(path, "fragment")
    first = CachedBackend(DictBackend(probes={"a": 0.1}), path)
    second = CachedBackend(DictBackend(probes={"b": 0.2}), path)
    first.probe_signal(make_ctx(), "a")
    second.probe_signal(make_ctx(), "b")
    lines = path.read_text(encoding="utf-8").split("\n")
    assert [json.loads(line)["value"] for line in lines[:-1]] == [0.7, 0.4, 0.1, 0.2]
    replayer = CachedBackend(None, path)
    assert replayer.probe_signal(make_ctx(), "a") == 0.1
    assert replayer.probe_signal(make_ctx(), "b") == 0.2


_RECORDER = """
import sys
from mesa.backend import CachedBackend
from mesa.context import TaskContext

class Probes:
    def probe_signal(self, ctx, card_id):
        return int(card_id[1:]) / 1000

path, prefix = sys.argv[1], sys.argv[2]
cache = CachedBackend(Probes(), path)
ctx = TaskContext(prompt="please do the task", kind_tags=frozenset({"doc"}), attachments=())
print("ready", flush=True)
sys.stdin.readline()
for i in range(150):
    cache.probe_signal(ctx, f"{prefix}{i}")
"""


def test_two_processes_recording_into_one_cache_lose_nothing(tmp_path):
    path = tmp_path / "cache.jsonl"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RECORDER, str(path), prefix],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for prefix in ("a", "b")
    ]
    try:
        for proc in procs:
            assert proc.stdout.readline() == "ready\n"
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == "" and len(lines) == 301
    for line in lines[:-1]:
        json.loads(line)
    replayer = CachedBackend(None, path)
    for prefix in ("a", "b"):
        for i in range(150):
            assert replayer.probe_signal(make_ctx(), f"{prefix}{i}") == i / 1000


_RACER = """
import sys
from mesa.backend import CachedBackend
from mesa.context import TaskContext

class Inner:
    def self_confidence(self, ctx):
        return float(sys.argv[2])

cache = CachedBackend(Inner(), sys.argv[1])
print("ready", flush=True)
sys.stdin.readline()
print(cache.self_confidence(TaskContext(prompt="please do the task")), flush=True)
"""


def test_racing_recorders_keep_one_row_and_return_what_replay_returns(tmp_path):
    # Both recorders open the file before either records, so both miss on the
    # key and call their inner backend; the second to take the lock finds the
    # first's row, returns it and appends nothing.
    path = tmp_path / "cache.jsonl"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(path), inner],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for inner in ("0.1", "0.2")
    ]
    try:
        for proc in procs:
            assert proc.stdout.readline() == "ready\n"
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        returned = []
        for proc in procs:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0, err
            returned.append(float(out))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 1 and rows[0]["value"] in (0.1, 0.2)
    replayed = CachedBackend(None, path).self_confidence(TaskContext(prompt="please do the task"))
    assert returned == [replayed, replayed]


def test_recorder_returns_a_row_another_recorder_appended_since_it_opened(tmp_path):
    path = tmp_path / "cache.jsonl"
    _record_then_tear(path, "fragment")
    first = CachedBackend(DictBackend(probes={"c": 0.1, "d": 0.3}), path)
    second = CachedBackend(DictBackend(probes={"c": 0.2, "e": 0.4}), path)
    assert first.probe_signal(make_ctx(), "c") == 0.1
    assert second.probe_signal(make_ctx(), "c") == 0.1
    assert second.probe_signal(make_ctx(), "e") == 0.4
    assert first.probe_signal(make_ctx(), "d") == 0.3
    lines = path.read_text(encoding="utf-8").split("\n")
    assert [json.loads(line)["value"] for line in lines[:-1]] == [0.7, 0.4, 0.1, 0.4, 0.3]
    replayer = CachedBackend(None, path)
    for card, value in (("c", 0.1), ("d", 0.3), ("e", 0.4)):
        assert replayer.probe_signal(make_ctx(), card) == value


@pytest.mark.parametrize(
    ("op", "value"),
    [
        ("self_confidence", "high"),
        ("self_confidence", True),
        ("self_confidence", 1.5),
        ("self_confidence", -0.1),
        ("self_confidence", None),
        ("answer", 3),
        ("self_report_tags", "trap"),
        ("self_report_tags", ["trap", 1]),
    ],
)
def test_replayed_value_of_the_wrong_shape_is_a_miss_naming_the_key(tmp_path, op, value):
    path = tmp_path / "cache.jsonl"
    recorder = CachedBackend(DictBackend(p_self=0.7, tags=frozenset({"trap"})), path)
    call = {
        "self_confidence": lambda backend: backend.self_confidence(make_ctx()),
        "answer": lambda backend: backend.answer(make_ctx(), "direct"),
        "self_report_tags": lambda backend: backend.self_report_tags(make_ctx()),
    }[op]
    call(recorder)
    row = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({"key": row["key"], "value": value}) + "\n", encoding="utf-8")
    with pytest.raises(ReplayMissError, match=f'"op":"{op}"'):
        call(CachedBackend(None, path))


def test_replayed_integer_confidence_is_a_float(tmp_path):
    path = tmp_path / "cache.jsonl"
    CachedBackend(DictBackend(p_self=1.0), path).self_confidence(make_ctx())
    row = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({"key": row["key"], "value": 1}) + "\n", encoding="utf-8")
    value = CachedBackend(None, path).self_confidence(make_ctx())
    assert value == 1.0 and type(value) is float


def test_inner_value_of_the_wrong_shape_is_not_recorded(tmp_path):
    path = tmp_path / "cache.jsonl"
    with pytest.raises(ReplayMissError, match="self_confidence"):
        CachedBackend(DictBackend(p_self=1.5), path).self_confidence(make_ctx())
    assert not path.exists()


def test_cache_file_is_jsonl(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = CachedBackend(DictBackend(p_self=0.7), path)
    cache.self_confidence(make_ctx())
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert set(row) == {"key", "value"}
    assert row["value"] == 0.7


# ---------------------------------------------------------------------------
# RemoteBackend (fake transport, patched sleep)


def _remote(transport, max_retries=2, max_concurrent=4):
    config = RemoteConfig(
        endpoint="https://example.test/v1/chat",
        auth_env="MESA_TEST_TOKEN",
        model="test-model",
        timeout_s=5.0,
        max_retries=max_retries,
        max_concurrent=max_concurrent,
    )
    return RemoteBackend(config, transport)


def _ok_response(content: str) -> str:
    return json.dumps({"choices": [{"message": {"content": content}}]})


@pytest.fixture()
def auth_env(monkeypatch):
    monkeypatch.setenv("MESA_TEST_TOKEN", "sekrit-token-value")


@pytest.fixture()
def no_sleep(monkeypatch):
    naps: list[float] = []
    monkeypatch.setattr("mesa.backend.time.sleep", naps.append)
    return naps


def test_remote_parses_confidence(auth_env):
    backend = _remote(lambda *a: _ok_response("I think so.\nconfidence: 0.85"))
    assert backend.self_confidence(make_ctx()) == 0.85


def test_remote_clamps_out_of_range(auth_env, caplog):
    backend = _remote(lambda *a: _ok_response("confidence: 1.7"))
    with caplog.at_level(logging.WARNING, logger="mesa.backend"):
        assert backend.self_confidence(make_ctx()) == 1.0
    assert any("clamping" in r.message for r in caplog.records)


def test_remote_retries_with_backoff_then_succeeds(auth_env, no_sleep):
    attempts = []

    def transport(url, headers, body, timeout):
        attempts.append(1)
        if len(attempts) < 3:
            raise OSError("connection refused")
        return _ok_response("confidence: 0.5")

    backend = _remote(transport, max_retries=2)
    assert backend.probe_signal(make_ctx(), "c") == 0.5
    assert len(attempts) == 3
    assert no_sleep == [1.0, 2.0]


def test_remote_exhausts_retries(auth_env, no_sleep):
    def transport(url, headers, body, timeout):
        raise OSError("timed out")

    backend = _remote(transport, max_retries=2)
    with pytest.raises(RemoteBackendError, match=r"after 3 attempt\(s\)"):
        backend.self_confidence(make_ctx())
    assert no_sleep == [1.0, 2.0]


class _NotUtf8Reply:
    """What urlopen returns for a reply whose body is not UTF-8."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def read(self):
        return b'\xff{"choices": []}'


@pytest.mark.parametrize(
    "failure, named",
    [
        pytest.param(
            IncompleteRead(b"{", 10), "IncompleteRead(1 bytes read, 10 more expected)",
            id="incomplete-read",
        ),
        pytest.param(BadStatusLine("HTTP/9 ?"), "BadStatusLine('HTTP/9 ?')", id="bad-status-line"),
        pytest.param(
            None, "'utf-8' codec can't decode byte 0xff in position 0", id="body-not-utf8"
        ),
    ],
)
def test_default_transport_retries_a_broken_reply(auth_env, no_sleep, monkeypatch, failure, named):
    attempts = []

    def urlopen(request, timeout):
        attempts.append(request.full_url)
        if failure is None:
            return _NotUtf8Reply()
        raise failure

    monkeypatch.setattr("urllib.request.urlopen", urlopen)
    backend = _remote(None, max_retries=2)  # the default transport
    with pytest.raises(RemoteBackendError, match=r"^endpoint failed after 3 attempt\(s\): ") as caught:
        backend.self_confidence(make_ctx())
    assert named in str(caught.value)
    assert attempts == ["https://example.test/v1/chat"] * 3
    assert no_sleep == [1.0, 2.0]


def test_remote_unparseable_becomes_missing_signal(auth_env, no_sleep):
    calls = []

    def transport(url, headers, body, timeout):
        calls.append(1)
        return _ok_response("no numeric field here")

    backend = _remote(transport, max_retries=1)
    with pytest.raises(MissingSignalError, match="no parseable confidence"):
        backend.source_confidence(make_ctx(), "__tool__")
    assert len(calls) == 2  # parse misses are retried too


@pytest.mark.parametrize("status", [400, 401, 403, 404])
def test_remote_permanent_http_error_fails_fast(auth_env, no_sleep, status):
    attempts = []

    def transport(url, headers, body, timeout):
        attempts.append(1)
        raise urllib.error.HTTPError(url, status, "refused", {}, None)

    backend = _remote(transport, max_retries=2)
    with pytest.raises(RemoteBackendError, match=rf"after 1 attempt\(s\): HTTP Error {status}"):
        backend.self_confidence(make_ctx())
    assert len(attempts) == 1
    assert no_sleep == []


@pytest.mark.parametrize("status", [408, 429, 500, 503])
def test_remote_transient_http_error_backs_off(auth_env, no_sleep, status):
    attempts = []

    def transport(url, headers, body, timeout):
        attempts.append(1)
        raise urllib.error.HTTPError(url, status, "busy", {}, None)

    backend = _remote(transport, max_retries=2)
    with pytest.raises(RemoteBackendError, match=r"after 3 attempt\(s\)"):
        backend.self_confidence(make_ctx())
    assert len(attempts) == 3
    assert no_sleep == [1.0, 2.0]


def test_remote_requires_auth_env(monkeypatch):
    monkeypatch.delenv("MESA_TEST_TOKEN", raising=False)
    backend = _remote(lambda *a: _ok_response("confidence: 0.5"))
    with pytest.raises(RemoteBackendError, match="MESA_TEST_TOKEN"):
        backend.self_confidence(make_ctx())


def test_remote_redacts_auth_header_in_logs(auth_env, caplog):
    backend = _remote(lambda *a: _ok_response("confidence: 0.5"))
    with caplog.at_level(logging.DEBUG, logger="mesa.backend"):
        backend.self_confidence(make_ctx())
    text = "\n".join(r.getMessage() for r in caplog.records)
    assert "sekrit-token-value" not in text
    assert "<redacted>" in text


def test_remote_sends_bearer_token(auth_env):
    seen = {}

    def transport(url, headers, body, timeout):
        seen["url"] = url
        seen["auth"] = headers["Authorization"]
        seen["body"] = json.loads(body)
        return _ok_response("confidence: 0.5")

    backend = _remote(transport)
    backend.self_confidence(make_ctx(prompt="what is up"))
    assert seen["url"] == "https://example.test/v1/chat"
    assert seen["auth"] == "Bearer sekrit-token-value"
    assert seen["body"]["model"] == "test-model"
    assert "what is up" in seen["body"]["messages"][0]["content"]


def test_remote_answer_parsing(auth_env):
    backend = _remote(lambda *a: _ok_response("answer: 42 exactly"))
    assert backend.answer(make_ctx(), "direct") == "42 exactly"
    bare = _remote(lambda *a: _ok_response("  just text  "))
    assert bare.answer(make_ctx(), "direct") == "just text"


def test_remote_tag_parsing(auth_env):
    backend = _remote(lambda *a: _ok_response("tags: trivial, trap"))
    assert backend.self_report_tags(make_ctx()) == frozenset({"trivial", "trap"})
    none = _remote(lambda *a: _ok_response("tags: none"))
    assert none.self_report_tags(make_ctx()) == frozenset()
    silent = _remote(lambda *a: _ok_response("I have nothing to declare"))
    assert silent.self_report_tags(make_ctx()) == frozenset()


@pytest.mark.parametrize(
    "reply", ["tags:", "tags:  \n", "Nothing applies.\nTags =   ", "tags:\nconfidence: 0.2"]
)
def test_remote_empty_tags_line_is_no_tags_on_the_first_attempt(auth_env, no_sleep, reply):
    attempts = []

    def transport(url, headers, body, timeout):
        attempts.append(1)
        return _ok_response(reply)

    assert _remote(transport).self_report_tags(make_ctx()) == frozenset()
    assert len(attempts) == 1
    assert no_sleep == []


def test_remote_missing_confidence_names_the_query_once(auth_env, no_sleep):
    backend = _remote(lambda *a: _ok_response("no numeric field here"), max_retries=0)
    with pytest.raises(MissingSignalError) as raised:
        backend.probe_signal(make_ctx(), "c1")
    assert str(raised.value) == (
        "no parseable confidence in response for probe:c1 after 1 attempt(s)"
    )


@pytest.mark.parametrize(
    "reply, expected",
    [
        ("confidence: .7", 0.7),
        ("confidence: 5e-1", 0.5),
        ("confidence: 1e-5", 1e-5),
        ("Confidence = 2.5E-1.", 0.25),
        ("confidence: 0.7.", 0.7),
        ("confidence: 0.7\n/ no ratio on the next line", 0.7),
        # perfbench/fake_remote.py writes a repr with an exponent as .20f.
        ("confidence: 0.00000100000000000000", 1e-6),
        (f"confidence: {0.1 + 0.2!r}", 0.1 + 0.2),
        ("confidence: 70%", None),
        ("confidence: 70 %", None),
        ("confidence: 0.7%", None),
        ("confidence: 1e-5%", None),
        ("confidence: 7/10", None),
        ("confidence: 7 / 10", None),
    ],
)
def test_remote_confidence_reply_parsing(auth_env, no_sleep, reply, expected):
    attempts = []

    def transport(url, headers, body, timeout):
        attempts.append(1)
        return _ok_response(reply)

    backend = _remote(transport, max_retries=0)
    if expected is None:
        with pytest.raises(MissingSignalError, match="no parseable confidence"):
            backend.self_confidence(make_ctx())
    else:
        assert backend.self_confidence(make_ctx()) == expected
    assert len(attempts) == 1


def test_remote_parser_bug_is_not_retried_as_an_endpoint_failure(auth_env, no_sleep, monkeypatch):
    attempts = []

    def transport(url, headers, body, timeout):
        attempts.append(1)
        return _ok_response("answer: ok")

    def broken_parse(text):
        raise IndexError("parser bug")

    monkeypatch.setattr("mesa.backend._parse_answer", broken_parse)
    with pytest.raises(IndexError, match="parser bug"):
        _remote(transport).answer(make_ctx(), "direct")
    assert len(attempts) == 1
    assert no_sleep == []


def test_remote_prompt_texts_are_exact(auth_env):
    """Every query's prompt, byte for byte: a remote endpoint parses these."""
    prompts = []

    def transport(url, headers, body, timeout):
        prompts.append(json.loads(body)["messages"][0]["content"])
        return _ok_response("confidence: 0.5\nanswer: ok\ntags: none")

    backend = _remote(transport)
    ctx = make_ctx(prompt="Convert 3 km to miles.")
    backend.self_confidence(ctx)
    backend.self_confidence(make_ctx(prompt="Convert 3 km to miles.", pre_offload_p_self=0.4))
    backend.source_confidence(ctx, "__tool__")
    backend.probe_signal(ctx, "unit-convert")
    backend.answer(ctx, "skill:unit-convert:commit")
    backend.self_report_tags(ctx)
    reply = "Reply with one line: confidence: <number between 0 and 1>"
    assert prompts == [
        "Task: Convert 3 km to miles.\n"
        "Rate your certainty (before using any external source) that your own knowledge "
        f"suffices.\n{reply}",
        "Task: Convert 3 km to miles.\n"
        "Rate your certainty (after consulting the external source) that your own knowledge "
        f"suffices.\n{reply}",
        "Task: Convert 3 km to miles.\n"
        "Rate how likely the external source '__tool__' is to produce a correct result for "
        f"this task.\n{reply}",
        "Task: Convert 3 km to miles.\n"
        "Without loading the skill 'unit-convert', rate your certainty that you could complete "
        f"the task from your own knowledge.\n{reply}",
        "Task: Convert 3 km to miles.\n"
        "Respond in mode 'skill:unit-convert:commit'.\n"
        "Reply with one line: answer: <your answer>",
        "Task: Convert 3 km to miles.\n"
        "List applicable tags from: trivial, trap.\n"
        "Reply with one line: tags: <comma-separated list, or none>",
    ]


def test_remote_config_validation():
    with pytest.raises(ValueError):
        RemoteConfig("https://x", "TOKEN", "m", max_retries=-1)
    with pytest.raises(ValueError):
        RemoteConfig("https://x", "TOKEN", "m", max_concurrent=0)


@pytest.mark.parametrize("timeout_s", [0.0, -1.0, math.nan, math.inf])
def test_remote_config_rejects_a_timeout_that_is_not_finite_and_positive(timeout_s):
    with pytest.raises(ValueError, match="timeout_s must be finite and > 0"):
        RemoteConfig("https://x", "TOKEN", "m", timeout_s=timeout_s)


@pytest.mark.parametrize(
    "endpoint",
    ["", "not-a-url", "/v1/chat", "http://", "https://:443/v1", "ftp://host/v1",
     "http://host:port/v1", "http://host:70000/v1", "http://[::1/v1"],
)
def test_remote_config_rejects_an_endpoint_that_is_not_an_http_url_with_a_host(endpoint):
    with pytest.raises(ValueError, match="endpoint must be an http or https URL with a host"):
        RemoteConfig(endpoint, "TOKEN", "m")


@pytest.mark.parametrize(
    "endpoint", ["http://localhost/v1/chat/completions", "https://127.0.0.1:8443", "HTTPS://[::1]"]
)
def test_remote_config_accepts_an_http_url_with_a_host(endpoint):
    assert RemoteConfig(endpoint, "TOKEN", "m").endpoint == endpoint


# ---------------------------------------------------------------------------
# RemoteBackend query waves


def _prompt(body: bytes) -> str:
    return json.loads(body)["messages"][0]["content"]


def _reply(prompt: str) -> str:
    if "List applicable tags" in prompt:
        return _ok_response("tags: none")
    if "Respond in mode" in prompt:
        return _ok_response("answer: ok")
    return _ok_response("confidence: 0.3")


class InFlightTransport:
    """Answers every query and records the peak number of requests in flight.

    The first requests are held until `hold` of them are in flight at once,
    or `wait_s` passes, so the overlap does not depend on thread scheduling.
    """

    def __init__(self, hold: int, wait_s: float) -> None:
        self._cond = threading.Condition()
        self._hold = hold
        self._wait_s = wait_s
        self._holding = True
        self.in_flight = 0
        self.peak = 0
        self.prompts: list[str] = []

    def __call__(self, url, headers, body, timeout):
        with self._cond:
            self.prompts.append(_prompt(body))
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self._cond.notify_all()
            if self._holding:
                self._cond.wait_for(lambda: self.peak >= self._hold, self._wait_s)
                self._holding = False
            self.in_flight -= 1
        return _reply(_prompt(body))


class InOrder:
    """The five queries of a backend, without its gather."""

    def __init__(self, inner) -> None:
        for op in ("self_confidence", "source_confidence", "probe_signal", "answer",
                   "self_report_tags"):
            setattr(self, op, getattr(inner, op))


def _one_card_item():
    item = BenchmarkItem(
        id="w1",
        slice=SliceName.A,
        prompt="please do the task",
        kind_tags=frozenset({"doc"}),
        attachments=(),
        injected_card_ids=("helper",),
        gold_action=GoldAction.DIRECT,
        gold_answer="ok",
    )
    return item, CardRegistry(cards=(make_card("helper"),))


def test_first_full_wave_reaches_four_requests(auth_env):
    item, registry = _one_card_item()
    transport = InFlightTransport(hold=4, wait_s=10.0)
    backend = _remote(transport, max_concurrent=4)
    record = run_trajectory(item, registry, backend, RoutingConfig(), condition_by_name("full"))
    assert record.diagnostic is None
    # Only wave 1 has four queries: self-confidence, tags, the probe and the tool source.
    assert transport.peak == 4


@pytest.mark.parametrize("condition", ["full", "reflection"])
def test_requests_in_flight_never_exceed_max_concurrent(auth_env, condition):
    item, registry = _one_card_item()
    transport = InFlightTransport(hold=3, wait_s=0.3)
    backend = _remote(transport, max_concurrent=2)
    record = run_trajectory(item, registry, backend, RoutingConfig(), condition_by_name(condition))
    assert transport.peak == 2

    sequential = InFlightTransport(hold=1, wait_s=0.0)
    again = run_trajectory(
        item, registry, InOrder(_remote(sequential)), RoutingConfig(), condition_by_name(condition)
    )
    assert again == record
    assert sorted(transport.prompts) == sorted(sequential.prompts)


def test_gather_waits_for_every_call_and_raises_the_first_failure(auth_env):
    backend = _remote(lambda *a: _ok_response("confidence: 0.5"))
    third_started = threading.Event()
    second_failed = threading.Event()
    finished: list[str] = []

    def first():
        second_failed.wait(5.0)
        finished.append("first")
        raise MissingSignalError("first")

    def second():
        # A call that has not started when an earlier one fails is skipped,
        # so the third call starts first.
        third_started.wait(5.0)
        finished.append("second")
        second_failed.set()
        raise MissingSignalError("second")

    def third():
        third_started.set()
        second_failed.wait(5.0)
        threading.Event().wait(0.2)  # still running when the first call fails
        finished.append("third")
        return 3

    with pytest.raises(MissingSignalError, match="first"):
        backend.gather([first, second, third])
    assert sorted(finished) == ["first", "second", "third"]
    assert backend.gather([lambda: 1, lambda: 2]) == [1, 2]


def test_two_failures_in_a_wave_give_the_in_order_diagnostic(auth_env, no_sleep):
    def transport(url, headers, body, timeout):
        prompt = _prompt(body)
        if "before using any external source" in prompt or "'__tool__'" in prompt:
            return _ok_response("no number here")
        return _reply(prompt)

    item, registry = _one_card_item()
    full = condition_by_name("full")
    in_order = run_trajectory(item, registry, InOrder(_remote(transport)), RoutingConfig(), full)
    waves = run_trajectory(item, registry, _remote(transport), RoutingConfig(), full)
    assert "self_confidence" in in_order.diagnostic
    assert waves.diagnostic == in_order.diagnostic


def test_wave_stops_sending_after_the_first_failure(auth_env, no_sleep):
    attempts: list[str] = []

    def refuse(url, headers, body, timeout):
        attempts.append(_prompt(body))
        raise ConnectionRefusedError("connection refused")

    item, registry = _one_card_item()
    full = condition_by_name("full")
    with pytest.raises(RemoteBackendError) as in_order:
        run_trajectory(item, registry, InOrder(_remote(refuse)), RoutingConfig(), full)
    in_order_attempts = len(attempts)
    attempts.clear()
    with pytest.raises(RemoteBackendError) as waves:
        run_trajectory(item, registry, _remote(refuse, max_concurrent=1), RoutingConfig(), full)
    # The first query of the first wave fails after max_retries + 1 attempts;
    # the wave's three other queries are never sent.
    assert in_order_attempts == len(attempts) == 3
    assert str(waves.value) == str(in_order.value)


def test_a_failed_cheap_probe_sends_no_request_from_its_wave(auth_env):
    # Both cards match; only "html_fix"'s cheap_probe fails on this context,
    # so its probe finishes in wave 1 without a request.
    item = BenchmarkItem(
        id="w2",
        slice=SliceName.A,
        prompt="please do the task",
        kind_tags=frozenset({"doc"}),
        attachments=(),
        injected_card_ids=("helper", "html_fix"),
        gold_action=GoldAction.DIRECT,
        gold_answer="ok",
    )
    registry = CardRegistry(
        cards=(make_card("helper"), make_card("html_fix", cheap_probe="mime:html"))
    )
    transport = InFlightTransport(hold=1, wait_s=0.0)
    record = run_trajectory(item, registry, _remote(transport), RoutingConfig(),
                            condition_by_name("full"))
    assert record.diagnostic is None
    probes = [prompt for prompt in transport.prompts if "Without loading the skill" in prompt]
    assert len(probes) == 1 and "'helper'" in probes[0]
    assert [(t.card_id, t.passed) for t in record.decisions[0].probe_traces] == [
        ("helper", True), ("html_fix", False)
    ]


def test_gather_under_contention_keeps_the_in_order_failure(auth_env):
    backend = _remote(lambda *a: _ok_response("confidence: 0.5"), max_concurrent=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            started: list[int] = []
            finished: list[int] = []

            def call(index: int):
                started.append(index)
                threading.Event().wait(0.0005 * (index % 3))
                finished.append(index)
                if index % 4 == 3:
                    raise MissingSignalError(f"call {index}")
                return index

            with pytest.raises(MissingSignalError, match=r"^call 3$"):
                backend.gather([lambda i=i: call(i) for i in range(32)])
            # Every call before the first failure ran; every call that
            # started had finished when gather raised.
            assert {0, 1, 2, 3} <= set(started)
            assert sorted(started) == sorted(finished)
    finally:
        sys.setswitchinterval(interval)


def test_cli_import_leaves_out_remote_only_modules():
    code = (
        "import sys, mesa.cli; "
        "print(sorted(m for m in ('urllib.request', 'urllib.error', 'urllib.response', "
        "'concurrent.futures') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.strip() == "[]"

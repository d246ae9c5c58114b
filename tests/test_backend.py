"""Behavior scripts, the scripted/cached backends, and the HTTP client."""

from __future__ import annotations

import json
import logging
import subprocess
import sys
import threading
import urllib.error

import pytest

from mesa.backend import (
    BehaviorScript,
    CachedBackend,
    RemoteBackend,
    RemoteConfig,
    ScriptedBackend,
    load_script,
    required_keys,
)
from mesa.bench import BenchmarkItem, SliceName, condition_by_name
from mesa.cards import CardRegistry
from mesa.errors import (
    MissingSignalError,
    RemoteBackendError,
    ReplayMissError,
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


def test_lookup_miss_names_the_triple():
    script = BehaviorScript(rows={})
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
    ],
)
def test_load_script_rejects_malformed_rows(tmp_path, row):
    path = write_script(tmp_path, [row])
    with pytest.raises(MissingSignalError, match=r"malformed row #0"):
        load_script(path)


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


def test_missing_keys_naming_and_vacuous_pass():
    script = BehaviorScript(rows={})
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
    assert script.covers("i1", "anything", "p_self")


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
    with pytest.raises(ValueError, match="i1.*i2|duplicate prompt"):
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


def test_remote_config_validation():
    with pytest.raises(ValueError):
        RemoteConfig("https://x", "TOKEN", "m", max_retries=-1)
    with pytest.raises(ValueError):
        RemoteConfig("https://x", "TOKEN", "m", max_concurrent=0)


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
        "print(sorted(m for m in ('urllib.request', 'concurrent.futures') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    assert out.strip() == "[]"

"""End-to-end trajectories: routing, answers, grading, serialization."""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

import mesa.bench
from mesa.backend import CachedBackend, RemoteConfig, ScriptedBackend
from mesa.bench import (
    CONDITIONS,
    BenchmarkItem,
    SliceName,
    condition_by_name,
    emit_report,
    run_matrix,
)
from mesa.cards import CardRegistry
from mesa.errors import MesaError
from mesa.probe import ProbeStage
from mesa.router import (
    CLAIM_THRESHOLD,
    ActionVariant,
    FinalAnswerClass,
    GoldAction,
    Outcome,
    RoutingConfig,
    classify_outcome,
    run_trajectory,
    trajectory_from_dict,
    trajectory_to_dict,
)

from conftest import DictBackend, make_card


def make_item(
    item_id: str = "t1",
    slice_: SliceName = SliceName.A,
    prompt: str = "please do the task",
    kind_tags: tuple[str, ...] = ("doc",),
    attachments: tuple = (),
    injected: tuple[str, ...] = (),
    gold_action: GoldAction = GoldAction.DIRECT,
    gold_answer: str | None = None,
) -> BenchmarkItem:
    return BenchmarkItem(
        id=item_id,
        slice=slice_,
        prompt=prompt,
        kind_tags=frozenset(kind_tags),
        attachments=tuple(attachments),
        injected_card_ids=tuple(injected),
        gold_action=gold_action,
        gold_answer=gold_answer,
    )


FULL = condition_by_name("full")
CFG = RoutingConfig()


def _registry(*cards) -> CardRegistry:
    return CardRegistry(cards=tuple(cards))


# ---------------------------------------------------------------------------
# The five terminal shapes


def test_direct_trajectory():
    backend = DictBackend(
        p_self=0.9, sources={"__tool__": 0.3}, answers={"direct": "42"}
    )
    item = make_item(gold_action=GoldAction.DIRECT, gold_answer="42")
    record = run_trajectory(item, _registry(), backend, CFG, FULL)
    assert record.final_answer_class is FinalAnswerClass.ANSWER
    assert record.answer == "42"
    assert record.outcome is Outcome.CORRECT
    assert record.terminal_confidence == pytest.approx(0.9)
    assert record.p_self_pre == pytest.approx(0.9)
    assert record.diagnostic is None
    # Direct never re-queries self-confidence after the offload.
    self_calls = [c for c in backend.calls if c[0] == "self_confidence"]
    assert self_calls == [("self_confidence", None)]


def test_tool_trajectory_decontaminates_to_post():
    backend = DictBackend(
        p_self=0.1, p_self_post=0.95, sources={"__tool__": 0.9}, answers={"tool": "ok"}
    )
    item = make_item(gold_action=GoldAction.CALL_TOOL, gold_answer="ok")
    record = run_trajectory(item, _registry(), backend, CFG, FULL)
    assert record.final_answer_class is FinalAnswerClass.TOOL_CALL
    assert record.outcome is Outcome.CORRECT
    # tool channel carries full source trust, so the post estimate stands
    assert record.terminal_confidence == pytest.approx(0.95)
    assert record.p_self_pre == pytest.approx(0.1)
    self_calls = [c for c in backend.calls if c[0] == "self_confidence"]
    assert self_calls == [("self_confidence", None), ("self_confidence", 0.1)]


def test_stop_on_trivial_tag():
    backend = DictBackend(
        p_self=0.97, sources={"__tool__": 0.2}, tags=frozenset({"trivial"})
    )
    item = make_item(gold_action=GoldAction.STOP, gold_answer="whatever")
    record = run_trajectory(item, _registry(), backend, CFG, FULL)
    decision = record.decisions[-1]
    assert decision.scores["STOP"] == pytest.approx(decision.scores["DIRECT"])
    assert decision.chosen.variant is ActionVariant.STOP
    assert record.final_answer_class is FinalAnswerClass.STOPPED
    assert record.answer is None
    assert record.outcome is Outcome.CORRECT


def test_stop_gold_accepts_matching_direct_answer():
    backend = DictBackend(
        p_self=0.97, sources={"__tool__": 0.2}, answers={"direct": "the obvious one"}
    )
    item = make_item(gold_action=GoldAction.STOP, gold_answer="the obvious one")
    record = run_trajectory(item, _registry(), backend, CFG, FULL)
    assert record.final_answer_class is FinalAnswerClass.ANSWER
    assert record.outcome is Outcome.CORRECT


def test_verify_on_trap_tag():
    backend = DictBackend(
        p_self=0.45,
        p_self_post=0.9,
        sources={"__tool__": 0.3, "__verify__": 0.92},
        answers={"verify": "checked"},
        tags=frozenset({"trap"}),
    )
    item = make_item(gold_action=GoldAction.VERIFY, gold_answer="checked")
    record = run_trajectory(item, _registry(), backend, CFG, FULL)
    assert record.final_answer_class is FinalAnswerClass.VERIFIED
    assert record.outcome is Outcome.CORRECT
    # verification marks the estimate trustworthy: post survives decontamination
    assert record.terminal_confidence == pytest.approx(0.9)


def test_trap_verify_disabled_uses_floor():
    backend = DictBackend(
        p_self=0.45,
        p_self_post=0.9,
        sources={"__tool__": 0.3, "__verify__": 0.92},
        tags=frozenset({"trap"}),
    )
    cfg = RoutingConfig(trap_verify=False)
    item = make_item(gold_action=GoldAction.VERIFY)
    record = run_trajectory(item, _registry(), backend, cfg, FULL)
    # scripted verify channel never queried; verify scores at the 0.1 floor
    assert ("source_confidence", "__verify__") not in backend.calls
    assert record.decisions[-1].chosen.variant is ActionVariant.DIRECT
    assert record.outcome is Outcome.INCORRECT


# ---------------------------------------------------------------------------
# Skill loading: probe, commit/hedge, decontamination interplay


def _skill_setup(source_trust: float, probe_signal: float = 0.3, stale: bool = False):
    card = make_card("c", source_trust=source_trust, stale=stale)
    backend = DictBackend(
        p_self=0.30,
        p_self_post=0.93,
        sources={"__tool__": 0.3, "c": 0.97},
        probes={"c": probe_signal},
        answers={"skill:c:commit": "firm", "skill:c:hedge": "soft"},
    )
    item = make_item(
        injected=("c",),
        gold_action=GoldAction.LOAD_SKILL_ALLOWED,
        gold_answer=None,
    )
    return card, backend, item


def test_skill_hedges_when_decontamination_caps_terminal():
    card, backend, item = _skill_setup(source_trust=0.75)
    record = run_trajectory(item, _registry(card), backend, CFG, FULL)
    assert record.decisions[-1].chosen.variant is ActionVariant.LOAD_SKILL
    assert record.final_answer_class is FinalAnswerClass.SKILL_LOADED
    # trust 0.75 < 0.9: terminal = min(pre, post) = 0.30 < claim threshold
    assert record.terminal_confidence == pytest.approx(0.30)
    assert record.answer == "soft"
    assert ("answer", "skill:c:hedge") in backend.calls


def test_skill_commits_when_source_is_trusted():
    card, backend, item = _skill_setup(source_trust=0.95)
    record = run_trajectory(item, _registry(card), backend, CFG, FULL)
    assert record.terminal_confidence == pytest.approx(0.93)
    assert record.terminal_confidence >= CLAIM_THRESHOLD
    assert record.answer == "firm"


def test_skill_commits_without_decontamination():
    card, backend, item = _skill_setup(source_trust=0.75)
    record = run_trajectory(
        item, _registry(card), backend, CFG, condition_by_name("no_decontam")
    )
    # raw post estimate 0.93 crosses the claim threshold
    assert record.terminal_confidence == pytest.approx(0.93)
    assert record.answer == "firm"


def test_probe_failure_excludes_card():
    card, backend, item = _skill_setup(source_trust=0.95, probe_signal=0.95)
    record = run_trajectory(item, _registry(card), backend, CFG, FULL)
    trace = record.decisions[0].probe_traces[0]
    assert trace.stage is ProbeStage.SKIPPED
    assert trace.passed is False
    assert "LOAD_SKILL:c" not in record.decisions[-1].scores
    assert record.final_answer_class is not FinalAnswerClass.SKILL_LOADED


def test_probe_bypass_under_no_probe():
    card, backend, item = _skill_setup(source_trust=0.95, probe_signal=0.95)
    record = run_trajectory(
        item, _registry(card), backend, CFG, condition_by_name("no_probe")
    )
    trace = record.decisions[0].probe_traces[0]
    assert trace.stage is ProbeStage.LOADED
    assert trace.passed is None
    assert trace.probe_cost_charged == 0.0
    assert ("probe_signal", "c") not in backend.calls
    assert record.decisions[-1].chosen.variant is ActionVariant.LOAD_SKILL


def test_stale_card_gated_by_vigilance():
    card, backend, item = _skill_setup(source_trust=0.85, stale=True)
    record = run_trajectory(item, _registry(card), backend, CFG, FULL)
    decision = record.decisions[-1]
    assert decision.gated_cards == ("c",)
    assert decision.chosen.variant is not ActionVariant.LOAD_SKILL
    ablated = run_trajectory(
        item, _registry(card), backend, CFG, condition_by_name("no_vigilance")
    )
    assert ablated.decisions[-1].chosen.variant is ActionVariant.LOAD_SKILL


def test_body_read_exactly_once_per_load():
    reads: list[str] = []

    def loader(card):
        reads.append(card.id)
        return "body"

    card, backend, item = _skill_setup(source_trust=0.95)
    registry = _registry(card).with_body_loader(loader)
    run_trajectory(item, registry, backend, CFG, FULL)
    assert reads == ["c"]

    reads.clear()
    card2, backend2, item2 = _skill_setup(source_trust=0.95, probe_signal=0.95)
    registry2 = _registry(card2).with_body_loader(loader)
    run_trajectory(item2, registry2, backend2, CFG, FULL)
    assert reads == []


def test_injected_ids_scope_the_registry():
    wanted = make_card("c", source_trust=0.95)
    bystander = make_card("d", source_trust=0.95)
    _, backend, item = _skill_setup(source_trust=0.95)
    record = run_trajectory(item, _registry(wanted, bystander), backend, CFG, FULL)
    probed = [c for c in backend.calls if c[0] == "probe_signal"]
    assert probed == [("probe_signal", "c")]
    assert len(record.decisions[0].probe_traces) == 1


# ---------------------------------------------------------------------------
# Naive scorers


def _relevance_backend(extra=None):
    sources = {
        "__tool__": 0.3,
        "relevance:DIRECT": 0.4,
        "relevance:STOP": 0.05,
        "relevance:CALL_TOOL": 0.6,
        "relevance:VERIFY": 0.2,
    }
    sources.update(extra or {})
    return DictBackend(
        p_self=0.5,
        sources=sources,
        answers={"direct": "d", "tool": "t"},
    )


def test_baseline_routes_on_relevance_alone():
    backend = _relevance_backend()
    item = make_item(gold_action=GoldAction.CALL_TOOL, gold_answer="t")
    record = run_trajectory(
        item, _registry(), backend, CFG, condition_by_name("baseline")
    )
    assert len(record.decisions) == 1
    assert record.decisions[0].chosen.variant is ActionVariant.CALL_TOOL
    assert record.outcome is Outcome.CORRECT


def test_reflection_second_pass_overrides_first():
    backend = _relevance_backend({"relevance2:DIRECT": 0.9})
    item = make_item(gold_action=GoldAction.DIRECT, gold_answer="d")
    record = run_trajectory(
        item, _registry(), backend, CFG, condition_by_name("reflection")
    )
    assert len(record.decisions) == 2
    assert record.decisions[0].chosen.variant is ActionVariant.CALL_TOOL
    assert record.decisions[1].chosen.variant is ActionVariant.DIRECT
    assert record.answer == "d"


def test_reflection_falls_back_to_first_pass_relevance():
    backend = _relevance_backend()  # no relevance2 rows at all
    item = make_item(gold_action=GoldAction.CALL_TOOL, gold_answer="t")
    record = run_trajectory(
        item, _registry(), backend, CFG, condition_by_name("reflection")
    )
    assert record.decisions[0].chosen == record.decisions[1].chosen


def test_baseline_loads_unvetted_matching_card():
    card = make_card("evil", source_trust=0.05)
    backend = _relevance_backend(
        {
            "relevance:LOAD_SKILL:evil": 0.95,
            "evil": 0.9,
        }
    )
    backend.probes["evil"] = 0.3
    backend.answers["skill:evil:commit"] = "pwned"
    backend.answers["skill:evil:hedge"] = "pwned?"
    item = make_item(
        injected=("evil",), gold_action=GoldAction.GATE_SKILL, gold_answer=None
    )
    record = run_trajectory(
        item, _registry(card), backend, CFG, condition_by_name("baseline")
    )
    assert record.final_answer_class is FinalAnswerClass.SKILL_LOADED
    assert record.outcome is Outcome.INCORRECT
    gated = run_trajectory(item, _registry(card), backend, CFG, FULL)
    assert gated.final_answer_class is not FinalAnswerClass.SKILL_LOADED
    assert gated.outcome is Outcome.CORRECT


# ---------------------------------------------------------------------------
# Fail-closed behavior


def test_missing_signal_fails_closed():
    backend = DictBackend(p_self=0.5, sources={})  # no tool channel
    item = make_item(gold_action=GoldAction.DIRECT)
    record = run_trajectory(item, _registry(), backend, CFG, FULL)
    assert record.final_answer_class is FinalAnswerClass.STOPPED
    assert record.outcome is Outcome.INCORRECT
    assert record.terminal_confidence == 0.0
    assert record.diagnostic is not None and "__tool__" in record.diagnostic
    assert record.decisions[0].chosen.variant is ActionVariant.STOP


def test_missing_probe_signal_fails_closed():
    card = make_card("c", source_trust=0.95)
    backend = DictBackend(p_self=0.5, sources={"__tool__": 0.3}, probes={})
    item = make_item(injected=("c",))
    record = run_trajectory(item, _registry(card), backend, CFG, FULL)
    assert record.outcome is Outcome.INCORRECT
    assert "c" in record.diagnostic


# ---------------------------------------------------------------------------
# Query waves


class ReversedGather:
    """A backend whose gather runs each wave's calls last-first.

    Like a concurrent gather it runs every call, returns results in list
    order and raises the first failure in list order.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.waves: list[int] = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def gather(self, calls):
        self.waves.append(len(calls))
        outcomes: list = [None] * len(calls)
        for index in reversed(range(len(calls))):
            try:
                outcomes[index] = (calls[index](), None)
            except MesaError as exc:
                outcomes[index] = (None, exc)
        for _, exc in outcomes:
            if exc is not None:
                raise exc
        return [value for value, _ in outcomes]


def test_wave_order_does_not_change_the_report(
    shipped_suite, shipped_registry, shipped_script, monkeypatch
):
    in_order = run_matrix(shipped_suite, shipped_registry, shipped_script)
    backends: list[ReversedGather] = []

    def reversed_scripted(*args):
        backends.append(ReversedGather(ScriptedBackend(*args)))
        return backends[-1]

    monkeypatch.setattr(mesa.bench, "ScriptedBackend", reversed_scripted)
    reordered = run_matrix(shipped_suite, shipped_registry, shipped_script)
    assert len(backends) == 7
    assert any(size > 1 for backend in backends for size in backend.waves)
    assert emit_report(reordered, "machine") == emit_report(in_order, "machine")


def test_wave_failure_diagnostic_is_the_in_order_one():
    # Wave 1 holds the probe of "c" and then the tool source; both are missing.
    card = make_card("c", source_trust=0.95)
    item = make_item(injected=("c",))
    in_order = run_trajectory(item, _registry(card), DictBackend(), CFG, FULL)
    reordered = run_trajectory(
        item, _registry(card), ReversedGather(DictBackend()), CFG, FULL
    )
    assert in_order.diagnostic == "no probe for c"
    assert reordered.diagnostic == in_order.diagnostic


@pytest.mark.parametrize("condition", ["full", "reflection", "baseline", "no_probe"])
def test_waves_ask_the_in_order_queries(condition):
    def setup():
        card, backend, item = _skill_setup(source_trust=0.95)
        backend.sources.update(
            {f"relevance:{key}": 0.5 for key in ("DIRECT", "STOP", "CALL_TOOL", "VERIFY")}
        )
        backend.sources["relevance:LOAD_SKILL:c"] = 0.9
        return card, backend, item

    card, backend, item = setup()
    wave_backend = ReversedGather(setup()[1])
    in_order = run_trajectory(item, _registry(card), backend, CFG, condition_by_name(condition))
    reordered = run_trajectory(
        item, _registry(card), wave_backend, CFG, condition_by_name(condition)
    )
    assert in_order.diagnostic is None
    assert reordered == in_order
    assert sorted(wave_backend.calls, key=repr) == sorted(backend.calls, key=repr)


class RoundTrips:
    """A backend that counts the round trips a remote backend would wait on.

    A wave of n queries takes ceil(n / max_concurrent) round trips, at
    RemoteConfig's default of requests in flight; a query outside a wave
    takes one. Every source channel asked is kept, and the probe signals
    asked are counted.
    """

    IN_FLIGHT = RemoteConfig.max_concurrent

    def __init__(self, inner) -> None:
        self._inner = inner
        self.round_trips = 0
        self.channels: list[str] = []
        self.probes = 0
        self._in_wave = False

    def __getattr__(self, op):  # the five queries
        query = getattr(self._inner, op)

        def counted(ctx, *args):
            self.round_trips += not self._in_wave
            if op == "source_confidence":
                self.channels.append(args[0])
            self.probes += op == "probe_signal"
            return query(ctx, *args)

        return counted

    def gather(self, calls):
        self.round_trips += math.ceil(len(calls) / self.IN_FLIGHT)
        self._in_wave = True
        try:
            return [call() for call in calls]
        finally:
            self._in_wave = False


# The most round trips any shipped trajectory waits on, per condition.
ROUND_TRIP_BUDGET = {
    "baseline": 4,
    "reflection": 5,
    "no_probe": 3,
    "no_vigilance": 4,
    "no_decontam": 3,
    "no_dualconf": 3,
    "full": 3,
}


def _route_shipped(suite, registry, script):
    """Each shipped (condition, item) routed through a RoundTrips backend."""
    for condition in CONDITIONS:
        scripted = ScriptedBackend(script, suite, condition.name.value)
        for item in suite:
            backend = RoundTrips(scripted)
            record = run_trajectory(item, registry, backend, CFG, condition)
            assert record.diagnostic is None
            yield condition, item, backend


def test_round_trips_per_condition_stay_within_budget(
    shipped_suite, shipped_registry, shipped_script
):
    worst: dict[str, int] = {}
    for condition, _, backend in _route_shipped(shipped_suite, shipped_registry, shipped_script):
        name = condition.name.value
        worst[name] = max(worst.get(name, 0), backend.round_trips)
    assert worst == ROUND_TRIP_BUDGET


def test_probe_conditions_ask_the_signal_only_where_the_cheap_probe_holds(
    shipped_suite, shipped_registry, shipped_script
):
    # Each probe condition matches 50 cards over the suite; 15 of them fail
    # their cheap_probe and are Skipped without a signal.
    asked: dict[str, int] = {}
    for condition, _, backend in _route_shipped(shipped_suite, shipped_registry, shipped_script):
        name = condition.name.value
        asked[name] = asked.get(name, 0) + backend.probes
    assert asked == {
        "baseline": 0,
        "reflection": 0,
        "no_probe": 0,
        "no_vigilance": 35,
        "no_decontam": 35,
        "no_dualconf": 35,
        "full": 35,
    }


def test_relevance_scorers_ask_only_relevance_channels(
    shipped_suite, shipped_registry, shipped_script
):
    # The dual scorer on the same items asks the tool, verify and card sources,
    # so the relevance scorers' silence on them is not vacuous.
    dual_asked: set[str] = set()
    for condition, item, backend in _route_shipped(
        shipped_suite, shipped_registry, shipped_script
    ):
        if condition.scorer == "dual":
            dual_asked.update(backend.channels)
            continue
        passes = ("relevance:", "relevance2:")[: 2 if condition.scorer == "reflection" else 1]
        unread = [ch for ch in backend.channels if not ch.startswith(passes)]
        assert unread == [], f"{condition.name.value}/{item.id} asked {unread}"
    assert {"__tool__", "__verify__"} <= dual_asked
    assert any(ch in shipped_registry for ch in dual_asked)


@pytest.mark.parametrize("scorer", ["baseline", "reflection"])
def test_relevance_scorers_take_no_probe_vigilance_or_dualconf_toggle(
    scorer, shipped_suite, shipped_registry, shipped_script
):
    shipped = condition_by_name(scorer)
    toggled = replace(shipped, probe_enabled=True, vigilance_enabled=True, dualconf_enabled=True)
    backend = ScriptedBackend(shipped_script, shipped_suite, scorer)
    for item in shipped_suite:
        expected = run_trajectory(item, shipped_registry, backend, CFG, shipped)
        assert run_trajectory(item, shipped_registry, backend, CFG, toggled) == expected


class WaveLog:
    """A backend that logs each wave of queries it is asked.

    The queries made inside one gather call, which runs its calls in list
    order, are one wave; a query made outside any gather is a wave of one.
    A query is logged as its name and arguments, and a post-offload self
    confidence as `self_confidence post`.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.waves: list[list[str]] = []
        self._wave: list[str] | None = None

    def __getattr__(self, op):  # the five queries
        query = getattr(self._inner, op)

        def logged(ctx, *args):
            entry = " ".join([op, *args])
            if ctx.pre_offload_p_self is not None:
                entry += " post"
            if self._wave is None:
                self.waves.append([entry])
            else:
                self._wave.append(entry)
            return query(ctx, *args)

        return logged

    def gather(self, calls):
        self._wave = []
        self.waves.append(self._wave)
        try:
            return [call() for call in calls]
        finally:
            self._wave = None


def wave_lines(label: str, backend: WaveLog) -> list[str]:
    """One line per wave the backend was asked, under a label."""
    lines = [f"{label} | {'; '.join(wave)}" for wave in backend.waves]
    backend.waves.clear()
    return lines


def test_shipped_trajectories_ask_the_same_waves(
    shipped_suite, shipped_registry, shipped_script
):
    # Every wave of every shipped (condition, item) trajectory, in order.
    lines: list[str] = []
    for condition in CONDITIONS:
        backend = WaveLog(ScriptedBackend(shipped_script, shipped_suite, condition.name.value))
        for item in shipped_suite:
            record = run_trajectory(item, shipped_registry, backend, CFG, condition)
            assert record.diagnostic is None
            lines += wave_lines(f"{condition.name.value} {item.id}", backend)
    assert len(lines) == 2_260
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d5236910b4ccd26bab942af9c2578b1b94a085cca13620506ba18c85fe60a492"


def test_a_cache_recorded_with_every_source_still_replays_strictly(
    tmp_path, shipped_suite, shipped_registry, shipped_script
):
    # Recorded over every condition while the relevance scorers still asked
    # the tool, verify and card sources, so it holds more keys than a route
    # asks now; one item of each suite group.
    cache = tmp_path / "cache.jsonl"
    shutil.copyfile(Path(__file__).parent / "data" / "replay_cache_all_sources.jsonl", cache)
    recorded_ids = {"a_fact_00", "a_live_00", "b_gate_00", "b_html_00", "b_belt_00",
                    "c_triv_00", "c_trap_00"}
    items = [item for item in shipped_suite if item.id in recorded_ids]
    assert len(items) == len(recorded_ids)
    before = cache.read_bytes()
    replay = CachedBackend(None, cache)
    for condition in CONDITIONS:
        scripted = ScriptedBackend(shipped_script, shipped_suite, condition.name.value)
        for item in items:
            replayed = run_trajectory(item, shipped_registry, replay, CFG, condition)
            assert replayed.diagnostic is None
            assert replayed == run_trajectory(item, shipped_registry, scripted, CFG, condition)
    assert cache.read_bytes() == before


# ---------------------------------------------------------------------------
# Outcome grading table


@pytest.mark.parametrize(
    "gold, gold_answer, final, answer, expected",
    [
        # gate_skill: pass iff no skill loaded, answer ignored
        (GoldAction.GATE_SKILL, "x", FinalAnswerClass.ANSWER, "y", Outcome.CORRECT),
        (GoldAction.GATE_SKILL, None, FinalAnswerClass.TOOL_CALL, None, Outcome.CORRECT),
        (GoldAction.GATE_SKILL, None, FinalAnswerClass.STOPPED, None, Outcome.CORRECT),
        (GoldAction.GATE_SKILL, "x", FinalAnswerClass.SKILL_LOADED, "x", Outcome.INCORRECT),
        # stop: stopped always passes; a direct answer passes only on match
        (GoldAction.STOP, "x", FinalAnswerClass.STOPPED, None, Outcome.CORRECT),
        (GoldAction.STOP, "x", FinalAnswerClass.ANSWER, "x", Outcome.CORRECT),
        (GoldAction.STOP, "x", FinalAnswerClass.ANSWER, "y", Outcome.INCORRECT),
        (GoldAction.STOP, None, FinalAnswerClass.ANSWER, "y", Outcome.INCORRECT),
        (GoldAction.STOP, "x", FinalAnswerClass.TOOL_CALL, "x", Outcome.INCORRECT),
        # direct
        (GoldAction.DIRECT, "x", FinalAnswerClass.ANSWER, "x", Outcome.CORRECT),
        (GoldAction.DIRECT, None, FinalAnswerClass.ANSWER, "anything", Outcome.CORRECT),
        (GoldAction.DIRECT, "x", FinalAnswerClass.ANSWER, "y", Outcome.INCORRECT),
        (GoldAction.DIRECT, "x", FinalAnswerClass.VERIFIED, "x", Outcome.INCORRECT),
        # call_tool
        (GoldAction.CALL_TOOL, "x", FinalAnswerClass.TOOL_CALL, "x", Outcome.CORRECT),
        (GoldAction.CALL_TOOL, None, FinalAnswerClass.TOOL_CALL, None, Outcome.CORRECT),
        (GoldAction.CALL_TOOL, "x", FinalAnswerClass.TOOL_CALL, "y", Outcome.INCORRECT),
        (GoldAction.CALL_TOOL, "x", FinalAnswerClass.ANSWER, "x", Outcome.INCORRECT),
        # verify
        (GoldAction.VERIFY, "x", FinalAnswerClass.VERIFIED, "x", Outcome.CORRECT),
        (GoldAction.VERIFY, "x", FinalAnswerClass.ANSWER, "x", Outcome.INCORRECT),
        # load_skill_allowed
        (GoldAction.LOAD_SKILL_ALLOWED, None, FinalAnswerClass.SKILL_LOADED, "z", Outcome.CORRECT),
        (GoldAction.LOAD_SKILL_ALLOWED, "x", FinalAnswerClass.SKILL_LOADED, "y", Outcome.INCORRECT),
        (GoldAction.LOAD_SKILL_ALLOWED, "x", FinalAnswerClass.TOOL_CALL, "x", Outcome.INCORRECT),
    ],
)
def test_classify_outcome(gold, gold_answer, final, answer, expected):
    assert classify_outcome(gold, gold_answer, final, answer) is expected


# ---------------------------------------------------------------------------
# Serialization


def test_trajectory_round_trip():
    card, backend, item = _skill_setup(source_trust=0.95)
    record = run_trajectory(item, _registry(card), backend, CFG, FULL)
    raw = trajectory_to_dict(record)
    assert trajectory_from_dict(raw) == record


def test_trajectory_round_trip_with_gate_and_failure():
    card, backend, item = _skill_setup(source_trust=0.85, stale=True)
    record = run_trajectory(item, _registry(card), backend, CFG, FULL)
    assert record.decisions[-1].gated_cards == ("c",)
    assert trajectory_from_dict(trajectory_to_dict(record)) == record

    failed = run_trajectory(
        make_item(), _registry(), DictBackend(sources={}), CFG, FULL
    )
    assert failed.diagnostic is not None
    assert trajectory_from_dict(trajectory_to_dict(failed)) == failed


def test_trajectory_dict_is_json_ready():
    import json

    card, backend, item = _skill_setup(source_trust=0.75)
    record = run_trajectory(item, _registry(card), backend, CFG, FULL)
    text = json.dumps(trajectory_to_dict(record))
    assert trajectory_from_dict(json.loads(text)) == record


def test_record_validation():
    with pytest.raises(ValueError):
        trajectory_from_dict(
            {
                "item_id": "x",
                "condition": "full",
                "decisions": [],
                "p_self_pre": 0.5,
                "p_self_post_decontaminated": 0.5,
                "final_answer_class": "answer",
                "outcome": "correct",
                "terminal_confidence": 0.5,
                "answer": None,
                "diagnostic": None,
            }
        )

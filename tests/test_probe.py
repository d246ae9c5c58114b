"""Delayed escalation: the one-step probe, its threshold and its cost."""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mesa.probe
import mesa.router
from mesa.backend import ScriptedBackend, load_script
from mesa.bench import CONDITIONS, condition_by_name, load_suite
from mesa.cards import CardRegistry, load_registry
from mesa.confidence import TOOL_CHANNEL
from mesa.context import Attachment
from mesa.dsl import eval_predicate, parse_predicate
from mesa.errors import MissingSignalError
from mesa.probe import (
    PROBE_COST,
    PROBE_SLACK,
    ProbeStage,
    ProbeState,
    cheap_verdicts,
    run_probe,
)
from mesa.router import (
    Action,
    ActionVariant,
    RoutingConfig,
    build_candidates,
    context_for_item,
    decide,
    run_trajectory,
)

from conftest import DictBackend, make_card, make_ctx
from test_trajectory import ReversedGather, WaveLog, wave_lines


CFG = RoutingConfig()


def _probe(ctx, card, signal):
    """A card's trace as a route makes it: the signal is asked only where cheap_probe holds."""
    (holds,) = cheap_verdicts(ctx, [card])
    return run_probe(CFG, card, signal if holds else None)


def test_probe_passes_on_predicate_and_insufficiency():
    card = make_card("c1", cheap_probe="mime:html")
    ctx = make_ctx(attachments=(Attachment("html"),))
    state = _probe(ctx, card, 0.3)
    assert state.stage is ProbeStage.LOADED
    assert state.passed is True
    assert state.probe_cost_charged == PROBE_COST


def test_probe_fails_when_predicate_false():
    card = make_card("c1", cheap_probe="mime:html")
    ctx = make_ctx(attachments=())
    assert cheap_verdicts(ctx, [card]) == [False]
    state = _probe(ctx, card, 0.3)
    assert state.stage is ProbeStage.SKIPPED
    assert state.passed is False
    assert run_probe(CFG, card, None) is state


def test_probe_fails_when_parametric_knowledge_sufficient():
    card = make_card("c1", cheap_probe='contains:"task"')
    state = run_probe(CFG, card, 0.95)
    assert state.passed is False


def test_probe_threshold_band_is_self_low_plus_slack():
    card = make_card("c1", cheap_probe='contains:"task"')
    threshold = CFG.self_low + PROBE_SLACK
    below = run_probe(CFG, card, threshold - 0.01)
    at = run_probe(CFG, card, threshold)
    assert below.passed is True
    assert at.passed is False


def test_probe_signal_asked_only_when_the_predicate_holds():
    # A failed predicate already decides Skipped, so the signal could not
    # change the verdict and build_candidates does not ask it; a holding
    # one asks it once.
    card = make_card("c1", cheap_probe="mime:html")
    backend = DictBackend(probes={"c1": 0.1}, sources={TOOL_CHANNEL: 0.5, "c1": 0.9})
    registry = CardRegistry(cards=(card,))
    _, _, (skipped,) = build_candidates(make_ctx(attachments=()), registry, backend, CFG, True)
    assert ("probe_signal", "c1") not in backend.calls
    assert (skipped.stage, skipped.passed, skipped.probe_cost_charged) == (
        ProbeStage.SKIPPED, False, PROBE_COST
    )
    html = make_ctx(attachments=(Attachment("html"),))
    _, _, (loaded,) = build_candidates(html, registry, backend, CFG, True)
    assert [call for call in backend.calls if call[0] == "probe_signal"] == [("probe_signal", "c1")]
    assert loaded.stage is ProbeStage.LOADED


def _old_rule(ctx, card, backend, cfg):
    """The probe as it was: the signal asked whether or not the predicate held."""
    predicate_holds = eval_predicate(card.cheap_probe, ctx)
    signal = backend.probe_signal(ctx, card.id)
    passed = predicate_holds and signal < cfg.self_low + PROBE_SLACK
    stage = ProbeStage.LOADED if passed else ProbeStage.SKIPPED
    return ProbeState(card.id, stage, passed, PROBE_COST)


_WORDS = ["task", "report", "html", "csv"]
_TAGS = ["doc", "code", "html", "csv"]
_probe_atoms = st.one_of(
    st.sampled_from(_TAGS).map("kind:{}".format),
    st.sampled_from(_TAGS).map("mime:{}".format),
    st.sampled_from(_WORDS).map('contains:"{}"'.format),
)
_probe_texts = st.recursive(
    _probe_atoms,
    lambda children: st.one_of(
        children.map("NOT ({})".format),
        st.tuples(children, children).map(lambda lr: f"({lr[0]}) AND ({lr[1]})"),
        st.tuples(children, children).map(lambda lr: f"({lr[0]}) OR ({lr[1]})"),
    ),
    max_leaves=4,
)
_probe_contexts = st.builds(
    make_ctx,
    prompt=st.lists(st.sampled_from(_WORDS + ["please"]), min_size=1, max_size=3).map(" ".join),
    kind_tags=st.lists(st.sampled_from(_TAGS), max_size=2).map(tuple),
    attachments=st.lists(st.sampled_from(_TAGS).map(Attachment), max_size=2).map(tuple),
)
_THRESHOLD = CFG.self_low + PROBE_SLACK


@settings(max_examples=300, deadline=None)
@given(_probe_texts, _probe_contexts, st.floats(min_value=0.0, max_value=1.0))
@example("kind:doc", make_ctx(), _THRESHOLD)
@example("kind:code", make_ctx(), 0.0)
def test_short_circuit_probe_equals_the_old_rule(text, ctx, signal):
    card = make_card("c1", cheap_probe=text)
    new = _probe(ctx, card, signal)
    assert new == _old_rule(ctx, card, DictBackend(probes={"c1": signal}), CFG)


def test_probe_missing_signal_raises():
    # A card whose cheap_probe holds asks its signal in wave 1, and a
    # backend without it fails the route.
    card = make_card("c1")
    backend = DictBackend(probes={}, sources={TOOL_CHANNEL: 0.5})
    with pytest.raises(MissingSignalError, match="c1"):
        build_candidates(make_ctx(), CardRegistry(cards=(card,)), backend, CFG, True)


def test_resolve_transitions():
    # One step from a matched card to its terminal stage; a probe that ran
    # keeps its verdict.
    card = make_card("c1", cheap_probe='contains:"task"')
    outcomes = ((0.1, ProbeStage.LOADED, True), (0.99, ProbeStage.SKIPPED, False))
    for signal, stage, passed in outcomes:
        state = run_probe(CFG, card, signal)
        assert (state.card_id, state.stage, state.passed) == ("c1", stage, passed)


def test_visited_stage_sequences():
    # Each matched card leaves exactly one trace, already terminal:
    # Matched -> (Loaded | Skipped), with no stage in between.
    cards = (
        make_card("pass", cheap_probe='contains:"task"'),
        make_card("fail", cheap_probe='contains:"task"'),
        make_card("unmatched", apply_when='contains:"absent"'),
    )
    backend = DictBackend(
        probes={"pass": 0.1, "fail": 0.99},
        sources={TOOL_CHANNEL: 0.5, "pass": 0.9},
    )
    _, _, traces = build_candidates(
        make_ctx(), CardRegistry(cards=cards), backend, CFG, probe_enabled=True
    )
    assert [(t.card_id, t.stage) for t in traces] == [
        ("pass", ProbeStage.LOADED),
        ("fail", ProbeStage.SKIPPED),
    ]


def test_bypass_skips_probe_entirely():
    card = make_card("c1")
    backend = DictBackend(sources={TOOL_CHANNEL: 0.5, "c1": 0.9})
    _, _, traces = build_candidates(
        make_ctx(), CardRegistry(cards=(card,)), backend, CFG, probe_enabled=False
    )
    (state,) = traces
    assert state.stage is ProbeStage.LOADED
    assert state.passed is None
    assert state.probe_cost_charged == 0.0
    assert ("probe_signal", "c1") not in backend.calls


def test_cost_charged_exactly_once():
    card = make_card("c1", cheap_probe='contains:"task"')
    for signal in (0.1, 0.99):
        state = run_probe(CFG, card, signal)
        assert state.probe_cost_charged == PROBE_COST


@pytest.mark.parametrize("gathering", [False, True], ids=["in-order", "gather"])
def test_build_candidates_asks_probes_only_of_cards_whose_predicate_holds(gathering):
    cards = (
        make_card("holds", cheap_probe="kind:doc"),
        make_card("fails", cheap_probe="mime:html"),
        make_card("holds_too", cheap_probe='contains:"task" OR kind:code'),
        make_card("fails_too", cheap_probe="NOT kind:doc"),
        make_card("unmatched", apply_when='contains:"absent"'),
    )
    inner = DictBackend(
        probes={card.id: 0.1 for card in cards},
        sources={TOOL_CHANNEL: 0.5, "holds": 0.9, "holds_too": 0.9},
    )
    backend = ReversedGather(inner) if gathering else inner
    _, _, traces = build_candidates(
        make_ctx(), CardRegistry(cards=cards), backend, CFG, probe_enabled=True
    )
    probed = [card_id for op, card_id in inner.calls if op == "probe_signal"]
    assert sorted(probed) == ["holds", "holds_too"]
    assert [(t.card_id, t.stage) for t in traces] == [
        ("holds", ProbeStage.LOADED),
        ("fails", ProbeStage.SKIPPED),
        ("holds_too", ProbeStage.LOADED),
        ("fails_too", ProbeStage.SKIPPED),
    ]
    if gathering:
        # Wave 1 holds self-confidence, tags, the two probe signals asked and the tool source.
        assert backend.waves[0] == 2 + len(probed) + 1


# ---------------------------------------------------------------------------
# Values shared per card


def _shared_value_registry():
    return CardRegistry(
        cards=(
            make_card("loads", apply_when='contains:"task"'),
            make_card("skips", apply_when='contains:"task"'),
            make_card("unmatched", apply_when='contains:"absent"'),
        )
    )


def _route(registry, prompt, probe_enabled):
    backend = DictBackend(
        p_self=0.2,
        probes={"loads": 0.1, "skips": 0.9},
        sources={TOOL_CHANNEL: 0.1, "loads": 0.8, "skips": 0.8},
    )
    candidates, _, traces = build_candidates(
        make_ctx(prompt=prompt), registry, backend, CFG, probe_enabled
    )
    (action,) = [a for a in candidates if a.card_id == "loads"]
    return action, {trace.card_id: trace for trace in traces}


def test_traces_and_load_action_are_shared_by_every_route_that_matches_the_card():
    registry = _shared_value_registry()
    action_on, on = _route(registry, "please do the task", True)
    action_on_again, on_again = _route(registry, "another task, other words", True)
    action_off, off = _route(registry, "please do the task", False)
    action_off_again, off_again = _route(registry, "another task, other words", False)

    assert on["loads"] is on_again["loads"]
    assert on["loads"] == ProbeState("loads", ProbeStage.LOADED, True, PROBE_COST)
    assert on["skips"] is on_again["skips"]
    assert on["skips"] == ProbeState("skips", ProbeStage.SKIPPED, False, PROBE_COST)
    assert off["loads"] is off_again["loads"]
    assert off["loads"] == ProbeState("loads", ProbeStage.LOADED)
    assert off["loads"] is not on["loads"]
    assert action_on is action_on_again is action_off is action_off_again
    assert action_on == Action(ActionVariant.LOAD_SKILL, card_id="loads", cost=0.5)
    # A with_body_loader copy holds the same cards, so it shares their values.
    action_copy, on_copy = _route(registry.with_body_loader(str), "task", True)
    assert action_copy is action_on
    assert on_copy["skips"] is on["skips"]


def _values_of(card_ids):
    return [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, (ProbeState, Action)) and obj.card_id in card_ids
    ]


def test_shared_values_are_built_by_routes_not_at_load_and_die_with_their_registry(tmp_path):
    ids = {"doomed_loads", "doomed_skips"}
    path = tmp_path / "cards.json"
    rows = [
        {
            "id": card_id,
            "name": card_id,
            "description": card_id,
            "apply_when": 'contains:"task"',
            "cheap_probe": "kind:doc",
            "offloading_type": "procedural",
            "source_trust": 0.9,
            "provenance": "first_party",
            "stale": False,
            "body_ref": "inline:body",
        }
        for card_id in sorted(ids)
    ]
    path.write_text(json.dumps({"cards": rows}), encoding="utf-8")
    registry = load_registry(path)
    gc.collect()
    assert _values_of(ids) == []

    backend = DictBackend(
        p_self=0.2,
        probes={"doomed_loads": 0.1, "doomed_skips": 0.9},
        sources={TOOL_CHANNEL: 0.1, "doomed_loads": 0.8, "doomed_skips": 0.8},
    )
    for probe_enabled in (True, False):
        build_candidates(make_ctx(), registry, backend, CFG, probe_enabled)
    # Each card's trace with the probe on and with it off, and its action
    # (with the probe off both cards load).
    assert len(_values_of(ids)) == 6

    del registry
    gc.collect()
    assert _values_of(ids) == []


# ---------------------------------------------------------------------------
# The probe wave of a whole-registry route


def test_a_route_decides_each_shared_cheap_probe_once_and_probes_every_card(monkeypatch):
    # 12 matched cards share 3 cheap_probe trees, as load_registry shares
    # equal texts: each tree is evaluated once per route, while run_probe
    # still runs once per matched card, in registry order.
    trees = [parse_predicate(text) for text in ("kind:doc", "NOT kind:doc", 'contains:"task"')]
    cards = tuple(
        replace(make_card(f"c{i:02d}"), cheap_probe=trees[i % len(trees)]) for i in range(12)
    )
    evaluated, probed = [], []

    def counting_eval(expr, ctx):
        evaluated.append(expr)
        return eval_predicate(expr, ctx)

    def counting_probe(cfg, card, *args):
        probed.append(card.id)
        return run_probe(cfg, card, *args)

    monkeypatch.setattr(mesa.probe, "eval_predicate", counting_eval)
    monkeypatch.setattr(mesa.router, "run_probe", counting_probe)
    backend = DictBackend(
        probes={card.id: 0.1 for card in cards},
        sources={TOOL_CHANNEL: 0.5, **{card.id: 0.8 for card in cards}},
    )
    registry = CardRegistry(cards=cards)
    for prompt in ("please do the task", "another task"):
        evaluated.clear()
        probed.clear()
        _, _, traces = build_candidates(make_ctx(prompt=prompt), registry, backend, CFG, True)
        assert sorted(map(id, evaluated)) == sorted(map(id, trees))
        assert probed == [card.id for card in cards]
        assert [t.passed for t in traces] == [i % 3 != 1 for i in range(12)]


class _ThreadedGather:
    """A backend whose gather runs each wave's calls on a pool's threads at once.

    Each call must be one query of the inner backend: a bound method of it,
    or mesa.router._missing_as_none around one.
    """

    def __init__(self, inner, pool) -> None:
        self._inner = inner
        self._pool = pool

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def gather(self, calls):
        for call in calls:
            query = call.args[0] if call.func is mesa.router._missing_as_none else call.func
            assert getattr(query, "__self__", None) is self._inner, call
        futures = [self._pool.submit(call) for call in calls]
        return [future.result(timeout=30) for future in futures]


def test_probes_gathered_on_threads_share_verdicts_and_match_in_order_probes():
    # The route decides the cheap_probe trees before wave 1, so gather's
    # threads run only probe signals; every card gets its own tree's verdict.
    trees = [parse_predicate(text) for text in ("kind:doc", "NOT kind:doc", "mime:html")]
    cards = tuple(
        replace(make_card(f"c{i:03d}"), cheap_probe=trees[i % len(trees)]) for i in range(120)
    )
    registry = CardRegistry(cards=cards)
    inner = DictBackend(
        probes={card.id: 0.1 for card in cards},
        sources={TOOL_CHANNEL: 0.5, **{card.id: 0.8 for card in cards}},
    )
    ctx = make_ctx()
    expected = build_candidates(ctx, registry, inner, CFG, True)[2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(5):
                traces = build_candidates(ctx, registry, _ThreadedGather(inner, pool), CFG, True)[2]
                assert traces == expected
    finally:
        sys.setswitchinterval(interval)
    assert [t.passed for t in expected] == [i % 3 == 0 for i in range(120)]


@pytest.fixture()
def routing_threads(monkeypatch):
    """The threads that mesa.probe.eval_predicate and mesa.router.run_probe run on, by name."""
    threads = {"eval_predicate": set(), "run_probe": set()}

    def on_thread(name, function):
        def call(*args):
            threads[name].add(threading.get_ident())
            return function(*args)

        return call

    monkeypatch.setattr(mesa.probe, "eval_predicate", on_thread("eval_predicate", eval_predicate))
    monkeypatch.setattr(mesa.router, "run_probe", on_thread("run_probe", run_probe))
    return threads


def test_gather_runs_only_backend_queries_on_the_shipped_suite(
    routing_threads, shipped_suite, shipped_registry, shipped_script
):
    # Every shipped trajectory under every condition, through a gather that
    # runs each query on a worker thread: the predicates and the traces stay
    # on the routing thread.
    with ThreadPoolExecutor(max_workers=4) as pool:
        for condition in CONDITIONS:
            inner = ScriptedBackend(shipped_script, shipped_suite, condition.name.value)
            backend = _ThreadedGather(inner, pool)
            for item in shipped_suite:
                record = run_trajectory(item, shipped_registry, backend, CFG, condition)
                assert record.diagnostic is None
    assert routing_threads == {
        "eval_predicate": {threading.get_ident()},
        "run_probe": {threading.get_ident()},
    }


def _load_registry_gen():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "registry_gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_registry_gen", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def seed1_route(tmp_path_factory):
    """perfbench's seed-1 registry, its 100 prompts as a suite, and their full-condition backend."""
    out = tmp_path_factory.mktemp("route10k")
    _load_registry_gen().generate(1, out)
    registry = load_registry(out / "cards.json")
    suite = load_suite(out / "suite.json", registry, expected_per_slice=None)
    return registry, suite, ScriptedBackend(load_script(out / "script.json"), suite, "full")


def test_seed1_whole_registry_routes_make_the_same_backend_calls_in_the_same_order(
    seed1_route,
):
    # The seed-1 prompts routed as `mesa route` routes, through a backend
    # with no gather, so the calls run in program order. The digest pins
    # every call: its prompt, its query and its card or channel. 20,215
    # calls in all.
    registry, suite, scripted = seed1_route
    calls: list[str] = []

    class Recording:
        def self_confidence(self, ctx):
            calls.append(f"{item.id} self_confidence")
            return scripted.self_confidence(ctx)

        def self_report_tags(self, ctx):
            calls.append(f"{item.id} self_report_tags")
            return scripted.self_report_tags(ctx)

        def probe_signal(self, ctx, card_id):
            calls.append(f"{item.id} probe_signal {card_id}")
            return scripted.probe_signal(ctx, card_id)

        def source_confidence(self, ctx, channel):
            calls.append(f"{item.id} source_confidence {channel}")
            return scripted.source_confidence(ctx, channel)

        def answer(self, ctx, variant_key):
            calls.append(f"{item.id} answer {variant_key}")
            return scripted.answer(ctx, variant_key)

    full = condition_by_name("full")
    for item in suite:
        decide(context_for_item(item), registry, Recording(), CFG, full)
    assert len(suite) == 100 and len(calls) == 20_215
    digest = hashlib.sha256("\n".join(calls).encode()).hexdigest()
    assert digest == "cc0347aa9b2c68a130d522b3c8626eaa550deaec6f8666a8768e4852e77dfcb5"


def test_seed1_whole_registry_routes_ask_the_same_waves(seed1_route):
    # The same routes through a backend with gather: every wave, in order.
    registry, suite, scripted = seed1_route
    backend = WaveLog(scripted)
    lines: list[str] = []
    full = condition_by_name("full")
    for item in suite:
        decide(context_for_item(item), registry, backend, CFG, full)
        lines += wave_lines(item.id, backend)
    assert len(lines) == 160
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "c28d666b301840b7b23f3fea47a006faeb4658ea1b528af93ea54d476ac4e82a"


def test_gather_runs_only_backend_queries_on_seed1_routes(routing_threads, seed1_route):
    registry, suite, scripted = seed1_route
    full = condition_by_name("full")
    with ThreadPoolExecutor(max_workers=4) as pool:
        backend = _ThreadedGather(scripted, pool)
        for item in suite:
            decide(context_for_item(item), registry, backend, CFG, full)
    assert routing_threads == {
        "eval_predicate": {threading.get_ident()},
        "run_probe": {threading.get_ident()},
    }

"""Delayed escalation: the one-step probe, its threshold and its cost."""

from __future__ import annotations

import pytest

from mesa.cards import CardRegistry
from mesa.confidence import TOOL_CHANNEL
from mesa.context import Attachment
from mesa.errors import MissingSignalError
from mesa.probe import PROBE_COST, PROBE_SLACK, ProbeStage, run_probe
from mesa.router import RoutingConfig, build_candidates

from conftest import DictBackend, make_card, make_ctx


CFG = RoutingConfig()


def test_probe_passes_on_predicate_and_insufficiency():
    card = make_card("c1", cheap_probe="mime:html")
    ctx = make_ctx(attachments=(Attachment("html"),))
    backend = DictBackend(probes={"c1": 0.3})
    state = run_probe(ctx, card, backend, CFG)
    assert state.stage is ProbeStage.LOADED
    assert state.passed is True
    assert state.probe_cost_charged == PROBE_COST


def test_probe_fails_when_predicate_false():
    card = make_card("c1", cheap_probe="mime:html")
    ctx = make_ctx(attachments=())
    backend = DictBackend(probes={"c1": 0.3})
    state = run_probe(ctx, card, backend, CFG)
    assert state.stage is ProbeStage.SKIPPED
    assert state.passed is False


def test_probe_fails_when_parametric_knowledge_sufficient():
    card = make_card("c1", cheap_probe='contains:"task"')
    backend = DictBackend(probes={"c1": 0.95})
    state = run_probe(make_ctx(), card, backend, CFG)
    assert state.passed is False


def test_probe_threshold_band_is_self_low_plus_slack():
    card = make_card("c1", cheap_probe='contains:"task"')
    threshold = CFG.self_low + PROBE_SLACK
    below = run_probe(make_ctx(), card, DictBackend(probes={"c1": threshold - 0.01}), CFG)
    at = run_probe(make_ctx(), card, DictBackend(probes={"c1": threshold}), CFG)
    assert below.passed is True
    assert at.passed is False


def test_probe_signal_always_queried():
    # The insufficiency signal is consulted even when the predicate already
    # failed, so signal coverage problems surface deterministically.
    card = make_card("c1", cheap_probe="mime:html")
    backend = DictBackend(probes={"c1": 0.1})
    run_probe(make_ctx(attachments=()), card, backend, CFG)
    assert ("probe_signal", "c1") in backend.calls


def test_probe_missing_signal_raises():
    card = make_card("c1")
    with pytest.raises(MissingSignalError):
        run_probe(make_ctx(), card, DictBackend(probes={}), CFG)


def test_resolve_transitions():
    # One step from a matched card to its terminal stage; a probe that ran
    # keeps its verdict.
    card = make_card("c1", cheap_probe='contains:"task"')
    outcomes = ((0.1, ProbeStage.LOADED, True), (0.99, ProbeStage.SKIPPED, False))
    for signal, stage, passed in outcomes:
        state = run_probe(make_ctx(), card, DictBackend(probes={"c1": signal}), CFG)
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
        state = run_probe(make_ctx(), card, DictBackend(probes={"c1": signal}), CFG)
        assert state.probe_cost_charged == PROBE_COST

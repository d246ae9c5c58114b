"""Scorers, vigilance gate, and tie-breaking."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesa.bench import CONDITIONS, condition_by_name
from mesa.cards import CardRegistry, Provenance, effective_trust
from mesa.confidence import TOOL_CHANNEL, VERIFY_CHANNEL, ConfidenceVector
from mesa.errors import MissingSignalError, RegistryLookupError
from mesa.probe import ProbeStage
from mesa.router import (
    COST_TABLE,
    TIE_BREAK_ORDER,
    VERIFY_BASELINE,
    Action,
    ActionVariant,
    Decision,
    RoutingConfig,
    build_candidates,
    decide,
    score_baseline,
    score_key,
    select_action,
)

from conftest import DictBackend, make_card, make_ctx


def _cv(p_self=0.5, **sources) -> ConfidenceVector:
    named = {TOOL_CHANNEL: sources.pop("tool", 0.5), VERIFY_CHANNEL: sources.pop("verify", 0.5)}
    named.update(sources)
    return ConfidenceVector(p_self=p_self, source_confidences=named)


def _basic_candidates(stop_utility=0.0) -> list[Action]:
    return [
        Action(ActionVariant.DIRECT, cost=COST_TABLE[ActionVariant.DIRECT]),
        Action(
            ActionVariant.STOP, utility_direct=stop_utility, cost=COST_TABLE[ActionVariant.STOP]
        ),
        Action(ActionVariant.CALL_TOOL, cost=COST_TABLE[ActionVariant.CALL_TOOL]),
        Action(ActionVariant.VERIFY, cost=COST_TABLE[ActionVariant.VERIFY]),
    ]


# ---------------------------------------------------------------------------
# Action and config validation


def test_action_validation():
    with pytest.raises(ValueError):
        Action(ActionVariant.LOAD_SKILL)  # needs a card id
    with pytest.raises(ValueError):
        Action(ActionVariant.DIRECT, card_id="x")
    with pytest.raises(ValueError):
        Action(ActionVariant.DIRECT, cost=-0.1)


def test_config_defaults_and_validation():
    cfg = RoutingConfig()
    assert cfg.alpha == 0.6
    assert cfg.cost_lambda == 0.1
    assert cfg.trust_gate == 0.7
    assert cfg.self_low == 0.45
    assert cfg.trap_verify is True
    assert COST_TABLE[ActionVariant.VERIFY] == 0.3
    assert COST_TABLE[ActionVariant.LOAD_SKILL] == 0.5
    assert [v for v in TIE_BREAK_ORDER] == [
        ActionVariant.STOP,
        ActionVariant.DIRECT,
        ActionVariant.VERIFY,
        ActionVariant.CALL_TOOL,
        ActionVariant.LOAD_SKILL,
    ]
    with pytest.raises(ValueError):
        RoutingConfig(alpha=1.2)
    with pytest.raises(ValueError):
        RoutingConfig(cost_lambda=-0.1)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"cost_lambda": math.nan}, "cost_lambda must be finite and >= 0"),
        ({"cost_lambda": math.inf}, "cost_lambda must be finite and >= 0"),
        ({"self_low": math.nan}, "self_low must be in \\[0, 1\\]"),
        ({"self_low": -0.1}, "self_low must be in \\[0, 1\\]"),
        ({"self_low": 1.5}, "self_low must be in \\[0, 1\\]"),
        (
            {"trust_override_threshold": 1.5},
            "trust_override_threshold must be in \\[0, 1\\], got 1.5",
        ),
        (
            {"trust_override_threshold": math.nan},
            "trust_override_threshold must be in \\[0, 1\\], got nan",
        ),
    ],
    ids=[
        "lambda-nan",
        "lambda-inf",
        "self-low-nan",
        "self-low-negative",
        "self-low-above-1",
        "trust-override-above-1",
        "trust-override-nan",
    ],
)
def test_config_rejects_non_finite_lambda_and_out_of_range_self_low(overrides, message):
    with pytest.raises(ValueError, match=message):
        RoutingConfig(**overrides)


# ---------------------------------------------------------------------------
# The dual score: worked examples and the brute-force formula oracle


def _registry(*cards) -> CardRegistry:
    return CardRegistry(cards=tuple(cards))


def _single_score(action, cv, cfg, card=None) -> float:
    """The score select_action gives its one candidate (cfg.trust_gate is 0.0)."""
    registry = _registry(card) if card is not None else _registry()
    decision = select_action(make_ctx(), [action], cv, cfg, registry)
    assert decision.chosen is action and decision.gated_cards == ()
    return decision.scores[score_key(action)]


def test_score_direct_example():
    cfg = RoutingConfig(alpha=0.6, cost_lambda=0.1, trust_gate=0.0)
    action = Action(ActionVariant.DIRECT, utility_direct=1.0, cost=0.0)
    assert _single_score(action, _cv(p_self=0.9), cfg) == pytest.approx(0.54)


def test_score_load_skill_example():
    cfg = RoutingConfig(alpha=0.6, cost_lambda=0.1, trust_gate=0.0)
    card = make_card("c", source_trust=0.5)
    action = Action(ActionVariant.LOAD_SKILL, card_id="c", cost=0.3)
    cv = _cv(c=0.8)
    assert _single_score(action, cv, cfg, card) == pytest.approx(0.13)


def test_score_zero_trust_annihilates_offload():
    cfg = RoutingConfig(trust_gate=0.0)
    card = make_card("c", source_trust=0.0)
    action = Action(ActionVariant.LOAD_SKILL, card_id="c", cost=0.5)
    score = _single_score(action, _cv(c=0.99), cfg, card)
    assert score == pytest.approx(-cfg.cost_lambda * 0.5)
    assert score <= 0.0


def test_score_missing_source_confidence():
    action = Action(ActionVariant.CALL_TOOL, cost=0.3)
    cv = ConfidenceVector(p_self=0.5, source_confidences={})
    with pytest.raises(MissingSignalError, match="__tool__"):
        _single_score(action, cv, RoutingConfig(trust_gate=0.0))


def _oracle_score(action, cv, cfg, card, vigilance_enabled=True):
    # Independent re-statement of the scoring formula.
    if action.variant in (ActionVariant.DIRECT, ActionVariant.STOP):
        value = cfg.alpha * cv.p_self * action.utility_direct
    else:
        if action.variant is ActionVariant.LOAD_SKILL:
            vig = effective_trust(card) if vigilance_enabled else 1.0
            p_src = cv.source_confidences[action.card_id]
        else:
            vig = 1.0
            channel = TOOL_CHANNEL if action.variant is ActionVariant.CALL_TOOL else VERIFY_CHANNEL
            p_src = cv.source_confidences[channel]
        value = (1.0 - cfg.alpha) * vig * p_src * action.utility_offload
    return value - cfg.cost_lambda * action.cost


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    lam=st.floats(min_value=0.0, max_value=2.0),
    p_self=st.floats(min_value=0.0, max_value=1.0),
    p_src=st.floats(min_value=0.0, max_value=1.0),
    trust=st.floats(min_value=0.0, max_value=1.0),
    stale=st.booleans(),
    utility=st.floats(min_value=0.0, max_value=2.0),
    cost=st.floats(min_value=0.0, max_value=1.0),
    variant=st.sampled_from(list(ActionVariant)),
)
def test_score_matches_formula_oracle(
    alpha, lam, p_self, p_src, trust, stale, utility, cost, variant
):
    cfg = RoutingConfig(alpha=alpha, cost_lambda=lam, trust_gate=0.0)
    card = None
    card_id = None
    if variant is ActionVariant.LOAD_SKILL:
        card = make_card("c", source_trust=trust, stale=stale)
        card_id = "c"
    action = Action(
        variant,
        card_id=card_id,
        utility_direct=utility,
        utility_offload=utility,
        cost=cost,
    )
    cv = _cv(p_self=p_self, tool=p_src, verify=p_src, c=p_src)
    assert _single_score(action, cv, cfg, card) == pytest.approx(
        _oracle_score(action, cv, cfg, card)
    )


# ---------------------------------------------------------------------------
# score_baseline


def test_baseline_singleton():
    action = Action(ActionVariant.DIRECT)
    decision = score_baseline([action], {"DIRECT": 1.0})
    assert decision.chosen is action


def test_baseline_loads_malicious_card_on_relevance():
    load = Action(ActionVariant.LOAD_SKILL, card_id="evil", cost=0.5)
    direct = Action(ActionVariant.DIRECT)
    decision = score_baseline([direct, load], {"DIRECT": 0.5, "LOAD_SKILL:evil": 0.9})
    assert decision.chosen is load


def test_baseline_tie_break_order():
    direct = Action(ActionVariant.DIRECT)
    verify = Action(ActionVariant.VERIFY, cost=0.3)
    decision = score_baseline([verify, direct], {"DIRECT": 0.5, "VERIFY": 0.5})
    assert decision.chosen is direct  # Direct precedes Verify in tie order


def test_baseline_requires_total_relevance():
    with pytest.raises(MissingSignalError, match="VERIFY"):
        score_baseline([Action(ActionVariant.VERIFY)], {})
    with pytest.raises(ValueError):
        score_baseline([], {})


def test_baseline_ignores_cost_and_trust():
    cheap = Action(ActionVariant.DIRECT, cost=0.0)
    costly = Action(ActionVariant.LOAD_SKILL, card_id="c", cost=99.0)
    decision = score_baseline([cheap, costly], {"DIRECT": 0.5, "LOAD_SKILL:c": 0.51})
    assert decision.chosen is costly


# ---------------------------------------------------------------------------
# select_action: gate, fallback, ablations


def test_gate_excludes_low_trust_and_records_it():
    cfg = RoutingConfig()
    card = make_card("evil", source_trust=0.2)
    load = Action(ActionVariant.LOAD_SKILL, card_id="evil", cost=0.5)
    decision = select_action(
        make_ctx(),
        _basic_candidates() + [load],
        _cv(p_self=0.3, tool=0.8, evil=0.99),
        cfg,
        _registry(card),
    )
    assert decision.chosen.variant is ActionVariant.CALL_TOOL
    assert decision.gated_cards == ("evil",)
    assert "LOAD_SKILL:evil" not in decision.scores


def test_gate_disabled_loads_with_neutral_vigilance():
    cfg = RoutingConfig()
    card = make_card("evil", source_trust=0.2)
    load = Action(ActionVariant.LOAD_SKILL, card_id="evil", cost=0.5)
    decision = select_action(
        make_ctx(),
        _basic_candidates() + [load],
        _cv(p_self=0.3, tool=0.8, evil=0.99),
        cfg,
        _registry(card),
        vigilance_enabled=False,
    )
    assert decision.chosen.variant is ActionVariant.LOAD_SKILL
    assert decision.gated_cards == ()
    # neutral vigilance: (1-alpha) * 1.0 * 0.99 - 0.1 * 0.5
    assert decision.scores["LOAD_SKILL:evil"] == pytest.approx(0.4 * 0.99 - 0.05)


def test_gate_boundary_is_inclusive():
    cfg = RoutingConfig(trust_gate=0.7)
    at_gate = make_card("ok", source_trust=0.7)
    load = Action(ActionVariant.LOAD_SKILL, card_id="ok", cost=0.5)
    decision = select_action(
        make_ctx(),
        _basic_candidates() + [load],
        _cv(p_self=0.1, tool=0.2, ok=0.99),
        cfg,
        _registry(at_gate),
    )
    assert decision.chosen.variant is ActionVariant.LOAD_SKILL
    assert decision.gated_cards == ()


def test_all_gated_candidates_rejected():
    # Engine candidates always include the four base actions, so only a
    # caller passing gated LoadSkills alone can empty the set.
    cfg = RoutingConfig()
    card = make_card("evil", source_trust=0.1)
    only_load = [Action(ActionVariant.LOAD_SKILL, card_id="evil", cost=0.5)]
    cv = _cv(p_self=0.9, evil=0.99)
    with pytest.raises(ValueError, match="empty candidate list"):
        select_action(make_ctx(), only_load, cv, cfg, _registry(card))
    ungated = select_action(
        make_ctx(), only_load, cv, cfg, _registry(card), vigilance_enabled=False
    )
    assert ungated.chosen is only_load[0]


def test_unknown_card_raises_with_or_without_vigilance():
    load = Action(ActionVariant.LOAD_SKILL, card_id="ghost", cost=0.5)
    for vigilance in (True, False):
        with pytest.raises(RegistryLookupError, match="ghost"):
            select_action(
                make_ctx(),
                _basic_candidates() + [load],
                _cv(ghost=0.9),
                RoutingConfig(),
                _registry(),
                vigilance_enabled=vigilance,
            )


def test_dualconf_disabled_pins_alpha_half():
    cfg = RoutingConfig(alpha=0.9)
    decision = select_action(
        make_ctx(),
        _basic_candidates(),
        _cv(p_self=0.5, tool=0.9),
        cfg,
        _registry(),
        dualconf_enabled=False,
    )
    # alpha forced to 0.5: Direct 0.25, CallTool 0.5*0.9-0.03 = 0.42
    assert decision.chosen.variant is ActionVariant.CALL_TOOL
    assert decision.scores["DIRECT"] == pytest.approx(0.25)
    assert decision.scores["CALL_TOOL"] == pytest.approx(0.42)


def test_empty_candidates_rejected():
    with pytest.raises(ValueError):
        select_action(make_ctx(), [], _cv(), RoutingConfig(), _registry())


def test_tie_prefers_stop_over_direct():
    cfg = RoutingConfig()
    candidates = _basic_candidates(stop_utility=1.0)
    decision = select_action(
        make_ctx(), candidates, _cv(p_self=0.9, tool=0.1, verify=0.1), cfg, _registry()
    )
    assert decision.scores["STOP"] == decision.scores["DIRECT"]
    assert decision.chosen.variant is ActionVariant.STOP


def test_permutation_invariance():
    cfg = RoutingConfig()
    cards = [make_card(f"c{i}", source_trust=0.8) for i in range(3)]
    candidates = _basic_candidates() + [
        Action(ActionVariant.LOAD_SKILL, card_id=f"c{i}", cost=0.5) for i in range(3)
    ]
    cv = _cv(p_self=0.4, tool=0.62, c0=0.775, c1=0.775, c2=0.5)
    registry = _registry(*cards)
    rng = random.Random(7)
    baseline_choice = select_action(make_ctx(), candidates, cv, cfg, registry)
    for _ in range(20):
        shuffled = candidates[:]
        rng.shuffle(shuffled)
        decision = select_action(make_ctx(), shuffled, cv, cfg, registry)
        assert decision.chosen == baseline_choice.chosen
        assert decision.scores == baseline_choice.scores
        assert decision.gated_cards == baseline_choice.gated_cards


def test_argmax_scale_invariance():
    # Scaling the utility/cost terms by a common positive constant must not
    # change the chosen variant (lambda scales costs, utilities scale wins).
    cfg = RoutingConfig(alpha=0.6, cost_lambda=0.1)
    for scale in (0.5, 2.0, 10.0):
        scaled_cfg = RoutingConfig(alpha=0.6, cost_lambda=0.1 * scale)
        base = _basic_candidates()
        scaled = [
            Action(
                a.variant,
                card_id=a.card_id,
                utility_direct=a.utility_direct * scale,
                utility_offload=a.utility_offload * scale,
                cost=a.cost,
            )
            for a in base
        ]
        cv = _cv(p_self=0.31, tool=0.8, verify=0.2)
        first = select_action(make_ctx(), base, cv, cfg, _registry())
        second = select_action(make_ctx(), scaled, cv, scaled_cfg, _registry())
        assert first.chosen.variant is second.chosen.variant


def test_cost_monotonicity():
    # Raising lambda never switches from a cheaper variant to a costlier one.
    cv = _cv(p_self=0.5, tool=0.75)
    cost_of = {
        ActionVariant.STOP: 0.0,
        ActionVariant.DIRECT: 0.0,
        ActionVariant.VERIFY: 0.3,
        ActionVariant.CALL_TOOL: 0.3,
        ActionVariant.LOAD_SKILL: 0.5,
    }
    previous_cost = None
    for lam in (0.0, 0.1, 0.3, 0.6, 1.0, 2.0):
        cfg = RoutingConfig(cost_lambda=lam)
        decision = select_action(
            make_ctx(), _basic_candidates(), cv, cfg, _registry()
        )
        chosen_cost = cost_of[decision.chosen.variant]
        if previous_cost is not None:
            assert chosen_cost <= previous_cost
        previous_cost = chosen_cost


# ---------------------------------------------------------------------------
# Randomized scorer-equivalence sweep (smaller sibling of the acceptance run)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_select_action_equals_brute_force(data):
    unit = st.floats(min_value=0.0, max_value=1.0)
    cfg = RoutingConfig(
        alpha=data.draw(unit),
        cost_lambda=data.draw(st.floats(min_value=0.0, max_value=1.0)),
        trust_gate=data.draw(unit),
    )
    n_cards = data.draw(st.integers(min_value=0, max_value=3))
    cards = []
    candidates = _basic_candidates()
    sources = {
        "tool": data.draw(unit),
        "verify": data.draw(unit),
    }
    for i in range(n_cards):
        trust = data.draw(unit)
        stale = data.draw(st.booleans())
        cards.append(make_card(f"c{i}", source_trust=trust, stale=stale))
        candidates.append(Action(ActionVariant.LOAD_SKILL, card_id=f"c{i}", cost=0.5))
        sources[f"c{i}"] = data.draw(unit)
    cv = _cv(p_self=data.draw(unit), **sources)
    registry = _registry(*cards)
    vigilance_enabled = data.draw(st.booleans())
    dualconf_enabled = data.draw(st.booleans())

    decision = select_action(
        make_ctx(),
        candidates,
        cv,
        cfg,
        registry,
        vigilance_enabled=vigilance_enabled,
        dualconf_enabled=dualconf_enabled,
    )

    # The ablations: no gate and a vigilance weight of 1.0, or alpha 0.5.
    oracle_cfg = cfg if dualconf_enabled else RoutingConfig(alpha=0.5, cost_lambda=cfg.cost_lambda)
    survivors = [
        a
        for a in candidates
        if a.variant is not ActionVariant.LOAD_SKILL
        or not vigilance_enabled
        or effective_trust(registry.get(a.card_id)) >= cfg.trust_gate
    ]
    assert all(
        effective_trust(registry.get(g)) < cfg.trust_gate for g in decision.gated_cards
    )
    if not vigilance_enabled:
        assert decision.gated_cards == ()
    if survivors:
        expected = {
            score_key(a): _oracle_score(
                a,
                cv,
                oracle_cfg,
                registry.get(a.card_id) if a.card_id else None,
                vigilance_enabled,
            )
            for a in survivors
        }
        assert decision.scores == pytest.approx(expected)
        chosen_score = decision.scores[score_key(decision.chosen)]
        assert chosen_score == pytest.approx(max(expected.values()))
    else:
        assert decision.chosen.variant in (ActionVariant.DIRECT, ActionVariant.STOP)


def test_score_key_formats():
    assert score_key(Action(ActionVariant.DIRECT)) == "DIRECT"
    assert score_key(Action(ActionVariant.LOAD_SKILL, card_id="c")) == "LOAD_SKILL:c"


# ---------------------------------------------------------------------------
# Gate before read and dominance pruning: a below-gate or dominated card costs
# no body read and no source query, and the choice stays the one made over
# every loaded card

_VIGILANT_CONDITIONS = [c for c in CONDITIONS if c.scorer == "dual" and c.vigilance_enabled]
_PROBED_DUAL_CONDITIONS = [c for c in CONDITIONS if c.scorer == "dual" and c.probe_enabled]


class _GateGuardBackend(DictBackend):
    """A DictBackend that refuses source queries about below-gate cards."""

    def __init__(self, below_gate: set[str], **kwargs) -> None:
        super().__init__(**kwargs)
        self.below_gate = below_gate

    def source_confidence(self, ctx, channel):
        if channel in self.below_gate:
            raise AssertionError(f"source of below-gate card {channel} queried")
        return super().source_confidence(ctx, channel)


def _reference(ctx, cards, traces, p_self, sources, tags, cfg, condition) -> Decision:
    """select_action over every Loaded card, with every source filled in."""
    verify = sources[VERIFY_CHANNEL] if "trap" in tags and cfg.trap_verify else VERIFY_BASELINE
    cv = ConfidenceVector(p_self, {**sources, VERIFY_CHANNEL: verify})
    candidates = _basic_candidates(1.0 if "trivial" in tags else 0.0) + [
        Action(ActionVariant.LOAD_SKILL, card_id=t.card_id, cost=0.5)
        for t in traces
        if t.stage is ProbeStage.LOADED
    ]
    return select_action(
        ctx,
        candidates,
        cv,
        cfg,
        CardRegistry(cards=tuple(cards)),
        vigilance_enabled=condition.vigilance_enabled,
        dualconf_enabled=condition.dualconf_enabled,
    )


def _dominated(reference, cards, tags, cfg, condition) -> set[str]:
    """The cards the reference scores whose bound cannot beat a known base score.

    A card's bound is its score at source confidence 1.0. With the probe on,
    the known scores are Direct's, Stop's, CallTool's and, unless a trap
    makes the verify source a query, Verify's.
    """
    if not condition.probe_enabled:
        return set()
    known = ["DIRECT", "STOP", "CALL_TOOL"]
    if not ("trap" in tags and cfg.trap_verify):
        known.append("VERIFY")
    best_known = max(reference.scores[key] for key in known)
    alpha = cfg.alpha if condition.dualconf_enabled else 0.5
    dominated = set()
    for card in cards:
        if f"LOAD_SKILL:{card.id}" in reference.scores:
            vig = effective_trust(card) if condition.vigilance_enabled else 1.0
            if (1.0 - alpha) * vig * 1.0 * 1.0 - cfg.cost_lambda * 0.5 <= best_known:
                dominated.add(card.id)
    return dominated


def _without(scores, card_ids) -> dict[str, float]:
    return {key: value for key, value in scores.items() if key.partition(":")[2] not in card_ids}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lazy_gate_matches_eager_gate_and_never_touches_gated_cards(data):
    unit = st.floats(min_value=0.0, max_value=1.0)
    cfg = RoutingConfig(trust_gate=data.draw(unit))
    cards = []
    probes: dict[str, float] = {}
    sources = {TOOL_CHANNEL: data.draw(unit), VERIFY_CHANNEL: data.draw(unit)}
    for i in range(data.draw(st.integers(min_value=1, max_value=4))):
        card_id = f"c{i}"
        cards.append(
            make_card(
                card_id,
                apply_when=data.draw(st.sampled_from(['contains:"task"', 'contains:"absent"'])),
                cheap_probe=data.draw(st.sampled_from(["kind:doc", "kind:absent"])),
                source_trust=data.draw(unit),
                stale=data.draw(st.booleans()),
            )
        )
        probes[card_id] = data.draw(st.sampled_from([0.1, 0.9]))
        sources[card_id] = data.draw(unit)
    below_gate = {c.id for c in cards if effective_trust(c) < cfg.trust_gate}
    tags = frozenset(data.draw(st.sets(st.sampled_from(["trap", "trivial"]))))
    p_self = data.draw(unit)
    allowed = data.draw(st.sampled_from([None, [c.id for c in cards]]))
    ctx = make_ctx()

    for condition in _VIGILANT_CONDITIONS:
        reads: list[str] = []

        def guarded_loader(card):
            assert card.id not in below_gate, f"body of below-gate card {card.id} read"
            reads.append(card.id)
            return "body"

        lazy_registry = CardRegistry(cards=tuple(cards), body_loader=guarded_loader)
        lazy_backend = _GateGuardBackend(
            below_gate, p_self=p_self, sources=sources, probes=probes, tags=tags
        )
        (lazy,), _ = decide(ctx, lazy_registry, lazy_backend, cfg, condition, allowed)

        # The eager gate: probe as a vigilance-off build does, then let
        # select_action gate every Loaded card, each read and source-queried.
        eager_backend = DictBackend(p_self=p_self, sources=sources, probes=probes, tags=tags)
        _, _, traces = build_candidates(
            ctx,
            CardRegistry(cards=tuple(cards)),
            eager_backend,
            cfg,
            condition.probe_enabled,
            allowed,
            vigilance_enabled=False,
        )
        eager = _reference(ctx, cards, traces, p_self, sources, tags, cfg, condition)
        dominated = _dominated(eager, cards, tags, cfg, condition)

        assert (lazy.chosen, lazy.gated_cards, lazy.probe_traces) == (
            eager.chosen,
            eager.gated_cards,
            traces,
        )
        # Only a dominated card's score may be missing.
        assert lazy.scores == _without(eager.scores, dominated)
        loaded = [t.card_id for t in traces if t.stage is ProbeStage.LOADED]
        assert reads == [c for c in loaded if c not in below_gate and c not in dominated]
        assert set(lazy.gated_cards) == set(loaded) & below_gate


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pruned_choice_equals_the_choice_over_every_loaded_card(data):
    # Drawn values include 0, 0.5 and 1, where a card's bound can tie the
    # best known score exactly.
    unit = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    cfg = RoutingConfig(
        alpha=data.draw(unit),
        cost_lambda=data.draw(
            st.one_of(st.sampled_from([0.0, 0.1]), st.floats(min_value=0.0, max_value=2.0))
        ),
        trust_gate=data.draw(unit),
        trap_verify=data.draw(st.booleans()),
    )
    cards = []
    probes: dict[str, float] = {}
    sources = {TOOL_CHANNEL: data.draw(unit), VERIFY_CHANNEL: data.draw(unit)}
    for i in range(data.draw(st.integers(min_value=1, max_value=5))):
        card_id = f"c{i}"
        cards.append(
            make_card(
                card_id,
                cheap_probe=data.draw(st.sampled_from(["kind:doc", "kind:absent"])),
                source_trust=data.draw(unit),
                stale=data.draw(st.booleans()),
            )
        )
        probes[card_id] = data.draw(st.sampled_from([0.1, 0.9]))
        sources[card_id] = data.draw(unit)
    tags = frozenset(data.draw(st.sets(st.sampled_from(["trap", "trivial"]))))
    p_self = data.draw(unit)
    allowed = data.draw(st.sampled_from([None, [c.id for c in cards]]))
    ctx = make_ctx()

    for condition in _PROBED_DUAL_CONDITIONS:
        reads: list[str] = []
        registry = CardRegistry(
            cards=tuple(cards), body_loader=lambda card: (reads.append(card.id), "body")[1]
        )
        backend = DictBackend(p_self=p_self, sources=sources, probes=probes, tags=tags)
        (decision,), _ = decide(ctx, registry, backend, cfg, condition, allowed)

        reference = _reference(
            ctx, cards, decision.probe_traces, p_self, sources, tags, cfg, condition
        )
        dominated = _dominated(reference, cards, tags, cfg, condition)
        asked = [
            channel
            for op, channel in backend.calls
            if op == "source_confidence" and channel not in (TOOL_CHANNEL, VERIFY_CHANNEL)
        ]
        assert decision.chosen == reference.chosen
        assert decision.gated_cards == reference.gated_cards
        assert decision.scores == _without(reference.scores, dominated)
        assert dominated.isdisjoint(reads) and dominated.isdisjoint(asked)
        scored = [c.id for c in cards if f"LOAD_SKILL:{c.id}" in reference.scores]
        assert reads == asked == [c for c in scored if c not in dominated]


@pytest.mark.parametrize("trap_verify", [True, False])
def test_only_a_known_verify_score_can_dominate_a_card(trap_verify):
    # The card's bound, 0.5 * 0.1 at source confidence 1.0, ties Verify's
    # baseline score exactly. On a trap task that asks the verify source,
    # Verify's score is unknown after wave 1, so the card is paid for, and
    # it wins once the source comes back 0. Otherwise the tie dominates it.
    cfg = RoutingConfig(alpha=0.5, cost_lambda=0.0, trust_gate=0.0, trap_verify=trap_verify)
    backend = DictBackend(
        p_self=0.0,
        sources={TOOL_CHANNEL: 0.0, VERIFY_CHANNEL: 0.0, "c": 1.0},
        probes={"c": 0.1},
        tags=frozenset({"trap"}),
    )
    registry = _registry(make_card("c", source_trust=0.1))
    (decision,), _ = decide(make_ctx(), registry, backend, cfg, condition_by_name("full"))
    assert [t.card_id for t in decision.probe_traces if t.passed] == ["c"]
    if trap_verify:
        assert decision.chosen == Action(ActionVariant.LOAD_SKILL, card_id="c", cost=0.5)
        assert ("source_confidence", "c") in backend.calls
    else:
        assert decision.chosen.variant is ActionVariant.VERIFY
        assert "LOAD_SKILL:c" not in decision.scores
        assert ("source_confidence", "c") not in backend.calls


def test_vigilance_off_over_vigilant_candidates_fails_closed():
    # A gated card's source was never asked, so scoring it without the gate
    # must raise instead of inventing a source confidence.
    card = make_card("low", source_trust=0.2)
    registry = _registry(card)
    backend = DictBackend(probes={"low": 0.1}, sources={TOOL_CHANNEL: 0.5, "low": 0.9})
    cfg = RoutingConfig()
    candidates, cv, _ = build_candidates(make_ctx(), registry, backend, cfg, True)
    assert Action(ActionVariant.LOAD_SKILL, card_id="low", cost=0.5) in candidates
    assert ("source_confidence", "low") not in backend.calls
    assert select_action(make_ctx(), candidates, cv, cfg, registry).gated_cards == ("low",)
    with pytest.raises(MissingSignalError, match="'low'"):
        select_action(make_ctx(), candidates, cv, cfg, registry, vigilance_enabled=False)


# ---------------------------------------------------------------------------
# Boundaries of the loaded-card loop and the gate: a trust equal to the gate
# passes it, a bound equal to the best known score is dominated, and
# vigilance off gates nothing


def _reading_registry(card) -> tuple[CardRegistry, list[str]]:
    reads: list[str] = []
    registry = CardRegistry(
        cards=(card,), body_loader=lambda c: (reads.append(c.id), "body")[1]
    )
    return registry, reads


@pytest.mark.parametrize("stale, source_trust, gate", [(False, 0.7, 0.7), (True, 0.8, 0.4)])
@pytest.mark.parametrize("probe_enabled", [True, False])
def test_a_trust_equal_to_the_gate_is_past_it(stale, source_trust, gate, probe_enabled):
    card = make_card("edge", source_trust=source_trust, stale=stale)
    assert effective_trust(card) == gate
    cfg = RoutingConfig(trust_gate=gate)
    registry, reads = _reading_registry(card)
    backend = DictBackend(
        p_self=0.0, sources={TOOL_CHANNEL: 0.0, "edge": 1.0}, probes={"edge": 0.1}
    )
    candidates, cv, _ = build_candidates(make_ctx(), registry, backend, cfg, probe_enabled)
    load = Action(ActionVariant.LOAD_SKILL, card_id="edge", cost=0.5)
    assert load in candidates
    assert reads == ["edge"]
    assert ("source_confidence", "edge") in backend.calls
    decision = select_action(make_ctx(), candidates, cv, cfg, registry)
    assert decision.gated_cards == ()
    assert decision.scores["LOAD_SKILL:edge"] == pytest.approx(0.4 * gate - 0.05)


@pytest.mark.parametrize("source_trust, dominated", [(0.75, True), (0.76, False)])
def test_a_bound_equal_to_the_best_known_score_is_dominated(source_trust, dominated):
    # With alpha 0.5 and no cost, the card's bound 0.5 * trust ties Direct's
    # score 0.5 * p_self exactly when the trust equals p_self.
    cfg = RoutingConfig(alpha=0.5, cost_lambda=0.0, trust_gate=0.0)
    card = make_card("c", source_trust=source_trust)
    registry, reads = _reading_registry(card)
    backend = DictBackend(
        p_self=0.75, sources={TOOL_CHANNEL: 0.0, "c": 1.0}, probes={"c": 0.1}
    )
    (decision,), _ = decide(make_ctx(), registry, backend, cfg, condition_by_name("full"))
    assert [(t.card_id, t.stage) for t in decision.probe_traces] == [("c", ProbeStage.LOADED)]
    assert ("LOAD_SKILL:c" not in decision.scores) is dominated
    assert (reads == []) is dominated
    assert (("source_confidence", "c") not in backend.calls) is dominated
    assert decision.chosen.variant is (
        ActionVariant.DIRECT if dominated else ActionVariant.LOAD_SKILL
    )


@pytest.mark.parametrize("probe_enabled", [True, False])
def test_vigilance_off_never_gates(probe_enabled):
    # Trust 0 under the strictest gate: with vigilance off the card is read,
    # asked, scored with a neutral vigilance of 1.0 and chosen.
    cfg = RoutingConfig(trust_gate=1.0)
    card = make_card("low", source_trust=0.0, stale=True)
    registry, reads = _reading_registry(card)
    backend = DictBackend(
        p_self=0.0, sources={TOOL_CHANNEL: 0.0, "low": 1.0}, probes={"low": 0.1}
    )
    candidates, cv, _ = build_candidates(
        make_ctx(), registry, backend, cfg, probe_enabled, vigilance_enabled=False
    )
    assert reads == ["low"]
    assert ("source_confidence", "low") in backend.calls
    decision = select_action(make_ctx(), candidates, cv, cfg, registry, vigilance_enabled=False)
    assert decision.gated_cards == ()
    assert decision.chosen == Action(ActionVariant.LOAD_SKILL, card_id="low", cost=0.5)
    assert decision.scores["LOAD_SKILL:low"] == pytest.approx(0.4 - 0.05)

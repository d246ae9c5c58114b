"""Action scoring, vigilance gating, and the per-task trajectory controller.

Two scorers live here. The baseline scorer is deliberately naive: argmax of
relevance times direct utility, no costs, no trust, no gating. The dual
scorer splits by action family:

    Direct/Stop:  alpha * p_self * utility_direct            - lambda * cost
    offloads:     (1 - alpha) * V_a * p_source * utility_off - lambda * cost

where V_a is the effective trust of the card for LoadSkill and 1.0 for the
built-in tool and verifier channels. Before scoring, the vigilance gate
removes every LoadSkill candidate whose effective trust sits below the
configured gate. An empty candidate set, before or after the gate, is a
ValueError: the engine's candidates always include the four base actions.

A card is below the gate when its effective trust (cards.effective_trust)
is less than cfg.trust_gate, so a trust equal to the gate passes. Under
vigilance, build_candidates applies the gate before paying for a loaded
card: a card below the gate is still probed and still becomes a LoadSkill
candidate (so select_action lists it among the gated cards), but its body
is never read and its source confidence is never queried.

A loaded card is also not paid for when it cannot win. With the probe on,
the dual scorer knows after wave 1 the scores of Direct, Stop, CallTool and,
unless the trap tag asks for the verify source, Verify. A card whose score
with a source confidence of 1.0 (its upper bound) is no higher than the best
of those is dominated: LoadSkill loses every tie, so it is never chosen.
build_candidates drops it before its body is read or its source asked, so it
is no candidate and Decision.scores holds no score for it. The bound and the
known scores come from _dual_score, the formula select_action scores with.

decide turns one task context into decisions: signal collection, probe
escalation, candidate assembly and selection. run_trajectory wires one
benchmark item end to end on top of it: offload execution with confidence
decontamination, and outcome grading against the item's gold label.

Every backend query goes out through _ask, in a wave of independent
queries, and a scorer is asked only what it reads: the dual scorer's waves
are build_candidates', a relevance scorer asks one wave of self-confidence,
tags and its relevance passes. A trajectory's last waves are the
post-offload confidence and the answer, in one wave when neither depends on
the other. A backend without gather asks each wave in order.

Codecs (mesa.codec) declare, once per record type, the JSON object that the
failure bank and the machine report write and read back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from mesa.cards import CardRegistry, SkillCard, effective_trust
from mesa.codec import NUMBER_DICT, STRING_TUPLE, Codec, enum_field
from mesa.confidence import (
    TOOL_CHANNEL,
    VERIFY_CHANNEL,
    ConfidenceVector,
    decontaminate,
)
from mesa.context import TaskContext
from mesa.dsl import eval_predicate
from mesa.errors import MissingSignalError
from mesa.probe import ProbeStage, ProbeState, run_probe, unprobed_trace

if TYPE_CHECKING:
    from mesa.backend import ModelBackend
    from mesa.bench import BenchmarkItem, Condition


class ActionVariant(Enum):
    DIRECT = "direct"
    CALL_TOOL = "call_tool"
    LOAD_SKILL = "load_skill"
    VERIFY = "verify"
    STOP = "stop"

    def __init__(self, value: str) -> None:
        # Plain attributes for the scoring loop, where the name property and
        # a lookup keyed by the member (Enum.__hash__) are Python-level calls:
        # the score-map key of a fixed action and the source channel of a
        # fixed offload (a LoadSkill's channel is its card id).
        self.key = self._name_
        self.channel = {"call_tool": TOOL_CHANNEL, "verify": VERIFY_CHANNEL}.get(value)


# Cheapest-first order used to break exact score ties.
TIE_BREAK_ORDER: tuple[ActionVariant, ...] = (
    ActionVariant.STOP,
    ActionVariant.DIRECT,
    ActionVariant.VERIFY,
    ActionVariant.CALL_TOOL,
    ActionVariant.LOAD_SKILL,
)

COST_TABLE: Mapping[ActionVariant, float] = {
    ActionVariant.DIRECT: 0.0,
    ActionVariant.STOP: 0.0,
    ActionVariant.VERIFY: 0.3,
    ActionVariant.CALL_TOOL: 0.3,
    ActionVariant.LOAD_SKILL: 0.5,
}

# Verifier source confidence when the trap heuristic is not in play.
VERIFY_BASELINE = 0.1

# Terminal confidence at or above which a post-offload claim is committed
# rather than hedged. BankConfig's high-confidence threshold defaults to it.
CLAIM_THRESHOLD = 0.8


@dataclass(frozen=True)
class Action:
    """One candidate: a variant plus its utilities and cost."""

    variant: ActionVariant
    card_id: str | None = None
    utility_direct: float = 1.0
    utility_offload: float = 1.0
    cost: float = 0.0

    def __post_init__(self) -> None:
        if self.cost < 0.0:
            raise ValueError("action cost must be >= 0")
        if self.variant is ActionVariant.LOAD_SKILL and not self.card_id:
            raise ValueError("LoadSkill actions must carry a card_id")
        if self.variant is not ActionVariant.LOAD_SKILL and self.card_id is not None:
            raise ValueError(f"{self.variant.value} actions must not carry a card_id")


def score_key(action: Action) -> str:
    """Stable score-map key: variant name, card-qualified for LoadSkill."""
    if action.variant is ActionVariant.LOAD_SKILL:
        return f"LOAD_SKILL:{action.card_id}"
    return action.variant.key


@dataclass(frozen=True)
class RoutingConfig:
    """Scorer, gate and decontamination parameters.

    alpha weighs self-confidence against source-confidence, cost_lambda is
    the cost penalty weight, trust_gate the minimum effective trust for
    LoadSkill candidacy, self_low the parametric-certainty threshold below
    which epistemic offloading pressure starts, trust_override_threshold the
    source trust at which decontamination lets an unverified raise stand.
    """

    alpha: float = 0.6
    cost_lambda: float = 0.1
    trust_gate: float = 0.7
    self_low: float = 0.45
    trap_verify: bool = True
    trust_override_threshold: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= self.trust_gate <= 1.0:
            raise ValueError("trust_gate must be in [0, 1]")
        if not (math.isfinite(self.cost_lambda) and self.cost_lambda >= 0.0):
            raise ValueError("cost_lambda must be finite and >= 0")
        if not 0.0 <= self.self_low <= 1.0:
            raise ValueError("self_low must be in [0, 1]")
        if not 0.0 <= self.trust_override_threshold <= 1.0:
            raise ValueError(
                f"trust_override_threshold must be in [0, 1], got {self.trust_override_threshold!r}"
            )


@dataclass(frozen=True)
class Decision:
    """Selection result: the chosen action plus its scoring evidence.

    scores holds the score of every candidate the gate keeps. A loaded card
    that build_candidates dropped as dominated was no candidate, so it has
    no score and is not among the gated cards; its probe trace stays.
    probe_traces holds one trace per matched card, in match order. Each is
    its card's shared value (mesa.probe), not a copy owned by this decision:
    every decision that matched the card with the same verdict holds the
    same object, and a chosen LoadSkill action is likewise its card's own.
    """

    chosen: Action
    scores: Mapping[str, float]
    gated_cards: tuple[str, ...] = ()
    probe_traces: tuple[ProbeState, ...] = ()


# ---------------------------------------------------------------------------
# Scorers


_SELF_SCORED = (ActionVariant.DIRECT, ActionVariant.STOP)


def _confidence_for(action: Action, cv: ConfidenceVector) -> float:
    """What an action is scored by: p_self for Direct and Stop, else its source's confidence."""
    variant = action.variant
    if variant in _SELF_SCORED:
        return cv.p_self
    channel = variant.channel or action.card_id
    assert channel is not None
    try:
        return cv.source_confidences[channel]
    except KeyError:
        raise MissingSignalError(
            f"no source confidence for channel {channel!r}"
        ) from None


def _dual_score(
    action: Action, confidence: float, alpha: float, cost_lambda: float, vigilance: float
) -> float:
    """The dual score of an action given the confidence it is scored by (_confidence_for).

    Rounding is monotone, so an offload's score never exceeds its score at
    confidence 1.0: build_candidates prunes on that bound.
    """
    if action.variant in _SELF_SCORED:
        base = alpha * confidence * action.utility_direct
    else:
        base = (1.0 - alpha) * vigilance * confidence * action.utility_offload
    return base - cost_lambda * action.cost


def _tie_key(action: Action) -> tuple:
    # Total deterministic order over actions: variant rank, then card id,
    # then the remaining value fields. Keeps selection permutation-invariant.
    return (
        TIE_BREAK_ORDER.index(action.variant),
        action.card_id or "",
        action.utility_direct,
        action.utility_offload,
        action.cost,
    )


def _argmax(scored: Sequence[tuple[Action, float]]) -> Action:
    best_action, best_score = scored[0]
    for action, score in scored[1:]:
        if score > best_score or (
            score == best_score and _tie_key(action) < _tie_key(best_action)
        ):
            best_action, best_score = action, score
    return best_action


def score_baseline(
    candidates: Sequence[Action], relevance: Mapping[str, float]
) -> Decision:
    """Relevance-only argmax: no gate, no cost, no trust.

    The relevance map is keyed by score_key. Missing keys violate the
    relevance-total precondition and raise MissingSignalError.
    """
    if not candidates:
        raise ValueError("empty candidate list")
    scored: list[tuple[Action, float]] = []
    scores: dict[str, float] = {}
    for action in candidates:
        key = score_key(action)
        try:
            rel = relevance[key]
        except KeyError:
            raise MissingSignalError(f"no relevance for candidate {key}") from None
        value = rel * action.utility_direct
        scored.append((action, value))
        scores[key] = value
    chosen = _argmax(scored)
    return Decision(chosen=chosen, scores=scores)


def select_action(
    ctx: TaskContext,
    candidates: Sequence[Action],
    cv: ConfidenceVector,
    cfg: RoutingConfig,
    registry: CardRegistry,
    *,
    vigilance_enabled: bool = True,
    dualconf_enabled: bool = True,
) -> Decision:
    """Gate, score, and pick one action under the dual-confidence scorer.

    vigilance_enabled=False is the ablation switch: the gate is skipped and
    LoadSkill is scored with a neutral vigilance weight of 1.0.
    dualconf_enabled=False scores with alpha pinned to 0.5, removing the
    asymmetric self-vs-source weighting.
    """
    del ctx  # part of the signature contract; scoring needs only cv/cfg
    alpha = cfg.alpha if dualconf_enabled else 0.5
    load_skill = ActionVariant.LOAD_SKILL
    gate = cfg.trust_gate
    cost_lambda = cfg.cost_lambda

    gated: list[str] = []
    scored: list[tuple[Action, float]] = []
    scores: dict[str, float] = {}
    for action in candidates:
        vigilance = 1.0
        if action.variant is load_skill:
            assert action.card_id is not None
            card = registry.get(action.card_id)
            if vigilance_enabled:
                vigilance = effective_trust(card)
                if vigilance < gate:
                    gated.append(action.card_id)
                    continue
        value = _dual_score(action, _confidence_for(action, cv), alpha, cost_lambda, vigilance)
        scored.append((action, value))
        scores[score_key(action)] = value

    if not scored:
        raise ValueError("empty candidate list")
    chosen = _argmax(scored)
    return Decision(chosen=chosen, scores=scores, gated_cards=tuple(sorted(gated)))


# ---------------------------------------------------------------------------
# Trajectories


class FinalAnswerClass(Enum):
    ANSWER = "answer"
    TOOL_CALL = "tool_call"
    SKILL_LOADED = "skill_loaded"
    VERIFIED = "verified"
    STOPPED = "stopped"


class Outcome(Enum):
    CORRECT = "correct"
    INCORRECT = "incorrect"


class GoldAction(Enum):
    """Graded expectation for one benchmark item."""

    DIRECT = "direct"
    CALL_TOOL = "call_tool"
    LOAD_SKILL_ALLOWED = "load_skill_allowed"
    VERIFY = "verify"
    STOP = "stop"
    GATE_SKILL = "gate_skill"


@dataclass(frozen=True)
class TrajectoryRecord:
    """One routed task: decisions, confidences, and graded outcome."""

    item_id: str
    condition: str
    decisions: tuple[Decision, ...]
    p_self_pre: float
    p_self_post_decontaminated: float
    final_answer_class: FinalAnswerClass
    outcome: Outcome
    terminal_confidence: float
    answer: str | None = None
    diagnostic: str | None = None

    def __post_init__(self) -> None:
        if not self.decisions:
            raise ValueError("a trajectory must contain at least one decision")
        if not 0.0 <= self.terminal_confidence <= 1.0:
            raise ValueError("terminal_confidence must be in [0, 1]")


def classify_outcome(
    gold_action: GoldAction,
    gold_answer: str | None,
    final_class: FinalAnswerClass,
    answer: str | None,
) -> Outcome:
    """Grade a finished trajectory against its gold label.

    GateSkill passes whenever no skill was loaded. Stop accepts an outright
    stop or a direct answer that matches the gold answer. Every other gold
    action requires its matching answer class plus, when a gold answer is
    present, an exact answer match.
    """
    answer_matches = gold_answer is None or answer == gold_answer
    if gold_action is GoldAction.GATE_SKILL:
        ok = final_class is not FinalAnswerClass.SKILL_LOADED
    elif gold_action is GoldAction.STOP:
        ok = final_class is FinalAnswerClass.STOPPED or (
            final_class is FinalAnswerClass.ANSWER
            and gold_answer is not None
            and answer == gold_answer
        )
    elif gold_action is GoldAction.DIRECT:
        ok = final_class is FinalAnswerClass.ANSWER and answer_matches
    elif gold_action is GoldAction.CALL_TOOL:
        ok = final_class is FinalAnswerClass.TOOL_CALL and answer_matches
    elif gold_action is GoldAction.VERIFY:
        ok = final_class is FinalAnswerClass.VERIFIED and answer_matches
    else:  # LOAD_SKILL_ALLOWED
        ok = final_class is FinalAnswerClass.SKILL_LOADED and answer_matches
    return Outcome.CORRECT if ok else Outcome.INCORRECT


def context_for_item(item: "BenchmarkItem") -> TaskContext:
    """Build the routed view of a benchmark item."""
    return TaskContext(
        prompt=item.prompt,
        kind_tags=frozenset(item.kind_tags),
        attachments=item.attachments,
    )


def _ask(backend: "ModelBackend", wave: Sequence[tuple[Callable[..., object], tuple]]) -> list:
    """Ask one wave of independent queries, each function(*args); results in wave order.

    A backend with gather is handed zero-argument partials, may run them at
    once and raises the first failure in wave order. Any other backend runs
    them in wave order in this thread, stopping at the first failure.
    """
    gather = getattr(backend, "gather", None)
    if gather is None:
        return [function(*args) for function, args in wave]
    return gather([partial(function, *args) for function, args in wave])


def _missing_as_none(query: Callable[..., float], *args: object) -> float | None:
    try:
        return query(*args)
    except MissingSignalError:
        return None


# The candidates every task has, in candidate order, by whether the tags
# call the task trivial: only STOP's utility differs. Actions are immutable,
# so every task shares them; LoadSkill candidates follow them.
_BASE_CANDIDATES: Mapping[bool, tuple[Action, ...]] = {
    trivial: (
        Action(ActionVariant.DIRECT, cost=COST_TABLE[ActionVariant.DIRECT]),
        Action(
            ActionVariant.STOP,
            utility_direct=1.0 if trivial else 0.0,
            cost=COST_TABLE[ActionVariant.STOP],
        ),
        Action(ActionVariant.CALL_TOOL, cost=COST_TABLE[ActionVariant.CALL_TOOL]),
        Action(ActionVariant.VERIFY, cost=COST_TABLE[ActionVariant.VERIFY]),
    )
    for trivial in (False, True)
}
_BASE_KEYS = tuple(map(score_key, _BASE_CANDIDATES[False]))
# Where SkillCard.memo keeps the card's LoadSkill action.
_LOAD_ACTION_SLOT = 3


def _load_action(card: SkillCard) -> Action:
    """The card's LoadSkill action, built by the first route that needs it and then shared."""
    memo = card.memo()
    action = memo[_LOAD_ACTION_SLOT]
    if action is None:
        action = Action(
            ActionVariant.LOAD_SKILL, card_id=card.id, cost=COST_TABLE[ActionVariant.LOAD_SKILL]
        )
        memo[_LOAD_ACTION_SLOT] = action
    return action


def _matching(
    ctx: TaskContext, registry: CardRegistry, allowed_card_ids: Sequence[str] | None
) -> list[SkillCard]:
    """The active cards whose apply_when holds for ctx, in match order.

    allowed_card_ids (the harness passes the item's injected ids) is scanned
    in full with eval_predicate; None makes the whole registry active, and
    its atom index finds the matching cards (CardRegistry.matching).
    """
    if allowed_card_ids is None:
        return registry.matching(ctx)
    active = map(registry.get, allowed_card_ids)
    return [card for card in active if eval_predicate(card.apply_when, ctx)]


def build_candidates(
    ctx: TaskContext,
    registry: CardRegistry,
    backend: "ModelBackend",
    cfg: RoutingConfig,
    probe_enabled: bool,
    allowed_card_ids: Sequence[str] | None = None,
    *,
    vigilance_enabled: bool = True,
    dualconf_enabled: bool = True,
) -> tuple[list[Action], ConfidenceVector, tuple[ProbeState, ...]]:
    """Assemble the dual scorer's candidate set, confidence vector, and probe traces.

    Cards whose apply_when matches the context (_matching) are probed; only
    escalated (Loaded) cards become LoadSkill candidates. A trace or
    LoadSkill action depends on its card alone, so each is built by the
    first route that needs it and shared by every later one (SkillCard.memo).
    Per Loaded card the loop reads its action from its slot and tests the
    gate with one comparison (with vigilance off the gate is -inf); only a
    card past the gate has its bound worked out, by _dual_score.

    Each Loaded card that passes the trust gate and is not dominated has its
    body read exactly once and its source confidence queried. With
    vigilance_enabled (the default), a Loaded card below the gate is neither
    read nor source-queried: it stays a LoadSkill candidate with a Loaded
    trace, and select_action with vigilance gates it. Its source is absent
    from the confidence vector, so scoring these candidates with vigilance
    off raises MissingSignalError rather than score the card from an
    invented source; build them with vigilance_enabled=False for that.

    With the probe on, the dual scorer prunes after wave 1: a Loaded card
    past the gate (any Loaded card, with vigilance off) whose score at a
    source confidence of 1.0 is no higher than the best known score of
    Direct, Stop, CallTool and (unless the verify source is still to be
    asked) Verify is dominated. It keeps its Loaded trace but is no
    candidate; its body is not read and its source is not asked. The scores
    use alpha as select_action does, so dualconf_enabled must match the
    select_action call (False pins alpha to 0.5).

    Each query goes out, through _ask, in the first wave that has its
    inputs. Wave 1 holds self-confidence, tags, every matched card's probe
    and the tool source; run_probe asks a probe signal only of a card whose
    cheap_probe holds, and the route's probes decide each distinct
    cheap_probe tree once. With the probe off the candidate set needs no
    backend answer, so wave 1 also holds the sources of the cards read.
    Wave 2 holds the verify source (when the trap tag asks for it) and,
    with the probe on, the sources of the cards read.
    """
    matching = _matching(ctx, registry, allowed_card_ids)
    head = [(backend.self_confidence, (ctx,)), (backend.self_report_tags, (ctx,))]
    source = backend.source_confidence
    channels = [TOOL_CHANNEL]  # the source channels not asked yet
    sources: dict[str, float] = {}
    alpha = cfg.alpha if dualconf_enabled else 0.5
    best_known = -math.inf  # until wave 1 fixes a score, no card is dominated
    if probe_enabled:
        # Which cards load, and so what the candidates ask, waits on the probes.
        # They share one verdict per distinct cheap_probe tree.
        verdicts: dict[int, bool] = {}
        probes = [(run_probe, (ctx, card, backend, cfg, verdicts)) for card in matching]
        wave = [*head, *probes, (source, (ctx, TOOL_CHANNEL))]
        p_self, tags, *probed, tool = _ask(backend, wave)
        traces = tuple(probed)
        sources[TOOL_CHANNEL] = tool
        channels = []
        # The confidences of Direct, Stop, CallTool and Verify, in
        # _BASE_CANDIDATES order. When the trap tag leaves the verify
        # source to wave 2, Verify's score is unknown and zip omits it.
        known = [p_self, p_self, tool]
        if not ("trap" in tags and cfg.trap_verify):
            known.append(VERIFY_BASELINE)
        best_known = max(
            _dual_score(action, confidence, alpha, cfg.cost_lambda, 1.0)
            for action, confidence in zip(_BASE_CANDIDATES["trivial" in tags], known)
        )
    else:
        traces = tuple(map(unprobed_trace, matching))

    # Read once per route, not once per matched card.
    loaded = ProbeStage.LOADED
    gate = cfg.trust_gate if vigilance_enabled else -math.inf
    cost_lambda = cfg.cost_lambda
    skills = []
    for card, state in zip(matching, traces):
        if state.stage is not loaded:
            continue
        # A trace is built through card.memo(), so the slots exist by now.
        action = card._memo[_LOAD_ACTION_SLOT] or _load_action(card)
        trust = effective_trust(card) if vigilance_enabled else 1.0
        if trust >= gate:
            if _dual_score(action, 1.0, alpha, cost_lambda, trust) <= best_known:
                continue  # dominated: cannot be chosen, so not paid for
            registry.read_body(card.id)
            channels.append(card.id)
        skills.append(action)

    if not probe_enabled:
        wave = head + [(source, (ctx, channel)) for channel in channels]
        p_self, tags, *values = _ask(backend, wave)
        sources.update(zip(channels, values))
        channels = []
    if "trap" in tags and cfg.trap_verify:
        channels.insert(0, VERIFY_CHANNEL)
    if channels:
        wave = [(source, (ctx, channel)) for channel in channels]
        sources.update(zip(channels, _ask(backend, wave)))
    sources.setdefault(VERIFY_CHANNEL, VERIFY_BASELINE)
    cv = ConfidenceVector(p_self=p_self, source_confidences=sources)
    return [*_BASE_CANDIDATES["trivial" in tags], *skills], cv, traces


def _relevance_decisions(
    ctx: TaskContext,
    registry: CardRegistry,
    backend: "ModelBackend",
    passes: int,
    allowed_card_ids: Sequence[str] | None,
) -> tuple[list[Decision], ConfidenceVector, tuple[ProbeState, ...]]:
    """A relevance scorer's decisions, one per pass (baseline 1, reflection 2), its
    confidence vector (p_self only) and its probe traces (all unprobed).

    A relevance scorer takes no probe, gate or pruning: every matched card
    loads, has its body read once and is a LoadSkill candidate after the
    four base actions. One wave asks self-confidence, tags and
    relevance:<key> for each candidate and, on a second pass,
    relevance2:<key>; no tool, verify or card source is asked. Each pass is
    one score_baseline decision. Reflection's second pass falls back, key
    by key, to the first pass where it went unanswered.
    """
    matching = _matching(ctx, registry, allowed_card_ids)
    traces = tuple(map(unprobed_trace, matching))
    skills = list(map(_load_action, matching))
    for card in matching:
        registry.read_body(card.id)
    keys = [*_BASE_KEYS, *map(score_key, skills)]
    source = backend.source_confidence
    wave = [(backend.self_confidence, (ctx,)), (backend.self_report_tags, (ctx,))]
    wave += [(source, (ctx, f"relevance:{key}")) for key in keys]
    if passes > 1:
        wave += [(_missing_as_none, (source, ctx, f"relevance2:{key}")) for key in keys]
    p_self, tags, *values = _ask(backend, wave)
    # The checks of a confidence vector: p_self and each relevance answered lie in [0, 1].
    ConfidenceVector(p_self, {a[-1]: v for (_, a), v in zip(wave[2:], values) if v is not None})

    candidates = [*_BASE_CANDIDATES["trivial" in tags], *skills]
    relevance = dict(zip(keys, values))
    decisions = [score_baseline(candidates, relevance)]
    if passes > 1:
        second_pass = {
            key: relevance[key] if value is None else value
            for key, value in zip(keys, values[len(keys) :])
        }
        decisions.append(score_baseline(candidates, second_pass))
    return decisions, ConfidenceVector(p_self=p_self), traces


# Relevance passes of each relevance scorer; the dual scorer asks none.
_RELEVANCE_PASSES = {"baseline": 1, "reflection": 2}


def decide(
    ctx: TaskContext,
    registry: CardRegistry,
    backend: "ModelBackend",
    cfg: RoutingConfig,
    condition: "Condition",
    allowed_card_ids: Sequence[str] | None = None,
) -> tuple[tuple[Decision, ...], ConfidenceVector]:
    """Build the candidates for one context and score them under a condition.

    Returns the scorer's decisions, the last of which is final (reflection
    makes two; the first carries the probe traces), and the confidence
    vector they were scored from. A relevance scorer reads no source
    confidence, so its vector carries p_self only.
    """
    passes = _RELEVANCE_PASSES.get(condition.scorer)
    if passes:
        decisions, cv, traces = _relevance_decisions(
            ctx, registry, backend, passes, allowed_card_ids
        )
    else:
        candidates, cv, traces = build_candidates(
            ctx,
            registry,
            backend,
            cfg,
            condition.probe_enabled,
            allowed_card_ids,
            vigilance_enabled=condition.vigilance_enabled,
            dualconf_enabled=condition.dualconf_enabled,
        )
        decisions = [
            select_action(
                ctx,
                candidates,
                cv,
                cfg,
                registry,
                vigilance_enabled=condition.vigilance_enabled,
                dualconf_enabled=condition.dualconf_enabled,
            )
        ]
    first = decisions[0]
    # Built directly: dataclasses.replace re-reads the field list on every call.
    decisions[0] = Decision(
        chosen=first.chosen,
        scores=first.scores,
        gated_cards=first.gated_cards,
        probe_traces=traces,
    )
    return tuple(decisions), cv


def run_trajectory(
    item: "BenchmarkItem",
    registry: CardRegistry,
    backend: "ModelBackend",
    cfg: RoutingConfig,
    condition: "Condition",
) -> TrajectoryRecord:
    """Route one benchmark item under one condition and grade the result.

    A missing backend signal never propagates: the trajectory fails closed
    as a Stopped, Incorrect record carrying the diagnostic.
    """
    try:
        return _run_trajectory(item, registry, backend, cfg, condition)
    except MissingSignalError as exc:
        fail_stop = Action(ActionVariant.STOP, utility_direct=0.0)
        return TrajectoryRecord(
            item_id=item.id,
            condition=condition.name.value,
            decisions=(Decision(chosen=fail_stop, scores={}),),
            p_self_pre=0.0,
            p_self_post_decontaminated=0.0,
            final_answer_class=FinalAnswerClass.STOPPED,
            outcome=Outcome.INCORRECT,
            terminal_confidence=0.0,
            diagnostic=str(exc),
        )


def _run_trajectory(
    item: "BenchmarkItem",
    registry: CardRegistry,
    backend: "ModelBackend",
    cfg: RoutingConfig,
    condition: "Condition",
) -> TrajectoryRecord:
    ctx = context_for_item(item)
    decisions, cv = decide(ctx, registry, backend, cfg, condition, item.injected_card_ids)

    chosen = decisions[-1].chosen
    p_self = cv.p_self
    answer: str | None
    if chosen.variant is ActionVariant.DIRECT:
        (answer,) = _ask(backend, [(backend.answer, (ctx, "direct"))])
        final = FinalAnswerClass.ANSWER
        terminal = p_self
    elif chosen.variant is ActionVariant.STOP:
        answer = None
        final = FinalAnswerClass.STOPPED
        terminal = p_self
    else:
        post_ctx = TaskContext(
            prompt=ctx.prompt,
            kind_tags=ctx.kind_tags,
            attachments=ctx.attachments,
            pre_offload_p_self=p_self,
        )
        if chosen.variant is ActionVariant.LOAD_SKILL:
            assert chosen.card_id is not None
            source_trust = registry.get(chosen.card_id).source_trust
            verified, final = False, FinalAnswerClass.SKILL_LOADED
            (post,) = _ask(backend, [(backend.self_confidence, (post_ctx,))])
        else:
            if chosen.variant is ActionVariant.CALL_TOOL:
                mode, verified, final = "tool", False, FinalAnswerClass.TOOL_CALL
            else:
                mode, verified, final = "verify", True, FinalAnswerClass.VERIFIED
            source_trust = 1.0
            # The tool and verify answers do not depend on the post-offload
            # confidence, so both queries go out in one wave.
            post, answer = _ask(
                backend, [(backend.self_confidence, (post_ctx,)), (backend.answer, (ctx, mode))]
            )
        if condition.decontam_enabled:
            terminal = decontaminate(
                p_self, post, source_trust, verified, cfg.trust_override_threshold
            )
        else:
            terminal = post
        if chosen.variant is ActionVariant.LOAD_SKILL:
            # The skill answer's mode depends on the decontaminated confidence.
            mode = "commit" if terminal >= CLAIM_THRESHOLD else "hedge"
            (answer,) = _ask(backend, [(backend.answer, (ctx, f"skill:{chosen.card_id}:{mode}"))])

    outcome = classify_outcome(item.gold_action, item.gold_answer, final, answer)
    return TrajectoryRecord(
        item_id=item.id,
        condition=condition.name.value,
        decisions=decisions,
        p_self_pre=p_self,
        p_self_post_decontaminated=terminal,
        final_answer_class=final,
        outcome=outcome,
        terminal_confidence=terminal,
        answer=answer,
    )


# ---------------------------------------------------------------------------
# Serialization (used by the failure bank and report tooling)


_ACTION = Codec(Action, variant=enum_field(ActionVariant))
_DECISION = Codec(
    Decision,
    chosen=(_ACTION.encode, _ACTION.decode),
    scores=NUMBER_DICT,
    gated_cards=STRING_TUPLE,
    probe_traces=Codec(ProbeState, stage=enum_field(ProbeStage)).many(),
)
_TRAJECTORY = Codec(
    TrajectoryRecord,
    decisions=_DECISION.many(),
    final_answer_class=enum_field(FinalAnswerClass),
    outcome=enum_field(Outcome),
)
trajectory_to_dict = _TRAJECTORY.encode
trajectory_from_dict = _TRAJECTORY.decode

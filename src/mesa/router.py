"""Action scoring, vigilance gating, and the per-task trajectory controller.

Two scorers live here. The baseline scorer is deliberately naive: argmax of
relevance times direct utility, no costs, no trust, no gating. The dual
scorer splits by action family:

    Direct/Stop:  alpha * p_self * utility_direct            - lambda * cost
    offloads:     (1 - alpha) * V_a * p_source * utility_off - lambda * cost

where V_a is the effective trust of the card for LoadSkill and 1.0 for the
built-in tool and verifier channels. Before scoring, the vigilance gate
removes every LoadSkill candidate whose effective trust sits below the
configured gate; if that empties the candidate set the controller falls back
to Direct/Stop.

decide turns one task context into decisions: signal collection, probe
escalation, candidate assembly and selection. run_trajectory wires one
benchmark item end to end on top of it: offload execution with confidence
decontamination, and outcome grading against the item's gold label.

Backend queries that do not depend on each other go out together in waves
(see _gather): self-confidence, tags, every matched card's probe and the
tool source; then the verify and loaded-card sources; then the relevance
passes; then the post-offload confidence with the answer. Concatenated, the
waves list the queries in the order a sequential controller would ask them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from mesa.cards import CardRegistry, effective_trust
from mesa.confidence import (
    TOOL_CHANNEL,
    VERIFY_CHANNEL,
    ConfidenceVector,
    DecontaminationConfig,
    decontaminate,
)
from mesa.context import Attachment, TaskContext
from mesa.dsl import eval_predicate
from mesa.errors import MissingSignalError
from mesa.probe import ProbeStage, ProbeState, begin, bypass, resolve, run_probe

if TYPE_CHECKING:
    from mesa.backend import ModelBackend
    from mesa.bench import BenchmarkItem, Condition


class ActionVariant(Enum):
    DIRECT = "direct"
    CALL_TOOL = "call_tool"
    LOAD_SKILL = "load_skill"
    VERIFY = "verify"
    STOP = "stop"


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
# rather than hedged. Matches the failure bank's high-confidence threshold.
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
    return action.variant.name


@dataclass(frozen=True)
class RoutingConfig:
    """Scorer and gate parameters.

    alpha weighs self-confidence against source-confidence, cost_lambda is
    the cost penalty weight, trust_gate the minimum effective trust for
    LoadSkill candidacy, self_low the parametric-certainty threshold below
    which epistemic offloading pressure starts.
    """

    alpha: float = 0.6
    cost_lambda: float = 0.1
    trust_gate: float = 0.7
    self_low: float = 0.45
    trap_verify: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= self.trust_gate <= 1.0:
            raise ValueError("trust_gate must be in [0, 1]")
        if self.cost_lambda < 0.0:
            raise ValueError("cost_lambda must be >= 0")


@dataclass(frozen=True)
class Decision:
    """Selection result: the chosen action plus full scoring evidence."""

    chosen: Action
    scores: Mapping[str, float]
    gated_cards: tuple[str, ...] = ()
    probe_traces: tuple[ProbeState, ...] = ()


# ---------------------------------------------------------------------------
# Scorers


def _source_confidence_for(action: Action, cv: ConfidenceVector) -> float:
    channel = {
        ActionVariant.CALL_TOOL: TOOL_CHANNEL,
        ActionVariant.VERIFY: VERIFY_CHANNEL,
    }.get(action.variant, action.card_id)
    assert channel is not None
    try:
        return cv.source_confidences[channel]
    except KeyError:
        raise MissingSignalError(
            f"no source confidence for channel {channel!r}"
        ) from None


def _dual_score(
    action: Action, cv: ConfidenceVector, alpha: float, cost_lambda: float, vigilance: float
) -> float:
    if action.variant in (ActionVariant.DIRECT, ActionVariant.STOP):
        base = alpha * cv.p_self * action.utility_direct
    else:
        p_source = _source_confidence_for(action, cv)
        base = (1.0 - alpha) * vigilance * p_source * action.utility_offload
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
    if not candidates:
        raise ValueError("empty candidate list")
    alpha = cfg.alpha if dualconf_enabled else 0.5

    gated: list[str] = []
    survivors: list[Action] = []
    for action in candidates:
        if action.variant is ActionVariant.LOAD_SKILL:
            assert action.card_id is not None
            card = registry.get(action.card_id)
            if vigilance_enabled and effective_trust(card) < cfg.trust_gate:
                gated.append(action.card_id)
                continue
        survivors.append(action)

    if not survivors:
        # every candidate was a gated LoadSkill; the agent must still act
        survivors = [
            Action(
                ActionVariant.DIRECT,
                utility_direct=1.0,
                cost=COST_TABLE[ActionVariant.DIRECT],
            ),
            Action(
                ActionVariant.STOP,
                utility_direct=0.0,
                cost=COST_TABLE[ActionVariant.STOP],
            ),
        ]

    scored: list[tuple[Action, float]] = []
    scores: dict[str, float] = {}
    for action in survivors:
        vigilance = 1.0
        if action.variant is ActionVariant.LOAD_SKILL and vigilance_enabled:
            assert action.card_id is not None
            vigilance = effective_trust(registry.get(action.card_id))
        value = _dual_score(action, cv, alpha, cfg.cost_lambda, vigilance)
        scored.append((action, value))
        scores[score_key(action)] = value

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
        attachments=tuple(
            Attachment(mime_tag=a.mime_tag, bytes_len=a.bytes_len) for a in item.attachments
        ),
    )


def _gather(backend: "ModelBackend", calls: Sequence[Callable[[], object]]) -> list:
    """Run independent backend queries; results come back in list order.

    A backend with a gather method may run the calls concurrently; it raises
    the first failure in list order. Any other backend runs them one after
    another in this thread, stopping at the first failure, so its call
    sequence is exactly the program order.
    """
    gather = getattr(backend, "gather", None)
    if gather is None:
        return [call() for call in calls]
    return gather(calls)


def _missing_as_none(query: Callable[..., float], *args: object) -> float | None:
    try:
        return query(*args)
    except MissingSignalError:
        return None


def build_candidates(
    ctx: TaskContext,
    registry: CardRegistry,
    backend: "ModelBackend",
    cfg: RoutingConfig,
    probe_enabled: bool,
    allowed_card_ids: Sequence[str] | None = None,
) -> tuple[list[Action], ConfidenceVector, tuple[ProbeState, ...]]:
    """Assemble the candidate set, confidence vector, and probe traces.

    Cards whose apply_when matches the context enter the probe machine;
    only escalated (Loaded) cards become LoadSkill candidates, and each load
    reads the card body exactly once. allowed_card_ids restricts which
    registry cards are active (the harness passes the item's injected ids)
    and is scanned in full; None means the whole registry is active, and its
    atom index picks the cards whose apply_when is evaluated.

    The backend sees two waves: self-confidence, tags, the probe of every
    matched card and the tool source; then the verify source (when the trap
    tag asks for it) and the source of every loaded card.
    """
    if allowed_card_ids is None:
        active = registry.candidates(ctx)
    else:
        active = [registry.get(card_id) for card_id in allowed_card_ids]
    matching = [card for card in active if eval_predicate(card.apply_when, ctx)]

    wave = [lambda: backend.self_confidence(ctx), lambda: backend.self_report_tags(ctx)]
    if probe_enabled:
        for card in matching:
            wave.append(lambda card=card: run_probe(begin(card), card, ctx, backend, cfg))
    wave.append(lambda: backend.source_confidence(ctx, TOOL_CHANNEL))
    p_self, tags, *probed, tool_source = _gather(backend, wave)

    # Wave 2 asks the verify source (when the trap tag calls for it) and
    # the source of every loaded card.
    channels = [VERIFY_CHANNEL] if "trap" in tags and cfg.trap_verify else []
    traces: list[ProbeState] = []
    loaded = []
    for index, card in enumerate(matching):
        state = resolve(probed[index]) if probe_enabled else bypass(begin(card))
        traces.append(state)
        if state.stage is ProbeStage.LOADED:
            registry.read_body(card.id)
            loaded.append(card)
            channels.append(card.id)

    stop_utility = 1.0 if "trivial" in tags else 0.0
    candidates = [
        Action(ActionVariant.DIRECT, cost=COST_TABLE[ActionVariant.DIRECT]),
        Action(
            ActionVariant.STOP,
            utility_direct=stop_utility,
            cost=COST_TABLE[ActionVariant.STOP],
        ),
        Action(ActionVariant.CALL_TOOL, cost=COST_TABLE[ActionVariant.CALL_TOOL]),
        Action(ActionVariant.VERIFY, cost=COST_TABLE[ActionVariant.VERIFY]),
    ]
    candidates.extend(
        Action(
            ActionVariant.LOAD_SKILL,
            card_id=card.id,
            cost=COST_TABLE[ActionVariant.LOAD_SKILL],
        )
        for card in loaded
    )

    sources: dict[str, float] = {TOOL_CHANNEL: tool_source, VERIFY_CHANNEL: VERIFY_BASELINE}
    if channels:
        values = _gather(
            backend, [lambda ch=channel: backend.source_confidence(ctx, ch) for channel in channels]
        )
        sources.update(zip(channels, values))

    cv = ConfidenceVector(p_self=p_self, source_confidences=sources)
    return candidates, cv, tuple(traces)


def _score_relevance(
    ctx: TaskContext,
    candidates: Sequence[Action],
    backend: "ModelBackend",
    reflect: bool,
) -> list[Decision]:
    """Baseline decisions from relevance queries, sent as one wave.

    Reflection adds a second pass whose missing values fall back, key by
    key, to the first pass.
    """
    keys = [score_key(action) for action in candidates]
    query = backend.source_confidence
    calls = [lambda key=key: query(ctx, f"relevance:{key}") for key in keys]
    if reflect:
        calls.extend(
            lambda key=key: _missing_as_none(query, ctx, f"relevance2:{key}") for key in keys
        )
    values = _gather(backend, calls)
    relevance = dict(zip(keys, values))
    decisions = [score_baseline(candidates, relevance)]
    if reflect:
        second_pass = {
            key: relevance[key] if value is None else value
            for key, value in zip(keys, values[len(keys):])
        }
        decisions.append(score_baseline(candidates, second_pass))
    return decisions


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
    vector they were scored from.
    """
    candidates, cv, traces = build_candidates(
        ctx, registry, backend, cfg, condition.probe_enabled, allowed_card_ids
    )
    if condition.scorer in ("baseline", "reflection"):
        decisions = _score_relevance(
            ctx, candidates, backend, reflect=condition.scorer == "reflection"
        )
    else:
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
    dc_cfg: DecontaminationConfig | None = None,
) -> TrajectoryRecord:
    """Route one benchmark item under one condition and grade the result.

    A missing backend signal never propagates: the trajectory fails closed
    as a Stopped, Incorrect record carrying the diagnostic.
    """
    dc_cfg = dc_cfg or DecontaminationConfig()
    try:
        return _run_trajectory(item, registry, backend, cfg, condition, dc_cfg)
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
    dc_cfg: DecontaminationConfig,
) -> TrajectoryRecord:
    ctx = context_for_item(item)
    decisions, cv = decide(ctx, registry, backend, cfg, condition, item.injected_card_ids)

    chosen = decisions[-1].chosen
    p_self = cv.p_self
    answer: str | None
    if chosen.variant is ActionVariant.DIRECT:
        answer = backend.answer(ctx, "direct")
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
            post = backend.self_confidence(post_ctx)
        else:
            if chosen.variant is ActionVariant.CALL_TOOL:
                mode, verified, final = "tool", False, FinalAnswerClass.TOOL_CALL
            else:
                mode, verified, final = "verify", True, FinalAnswerClass.VERIFIED
            source_trust = 1.0
            # The tool and verify answers do not depend on the post-offload
            # confidence, so both queries go out in one wave.
            post, answer = _gather(
                backend,
                [lambda: backend.self_confidence(post_ctx), lambda: backend.answer(ctx, mode)],
            )
        if condition.decontam_enabled:
            terminal = decontaminate(p_self, post, source_trust, verified, dc_cfg)
        else:
            terminal = post
        if chosen.variant is ActionVariant.LOAD_SKILL:
            # The skill answer's mode depends on the decontaminated confidence.
            mode = "commit" if terminal >= CLAIM_THRESHOLD else "hedge"
            answer = backend.answer(ctx, f"skill:{chosen.card_id}:{mode}")

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


def _action_to_dict(action: Action) -> dict:
    return {
        "variant": action.variant.value,
        "card_id": action.card_id,
        "utility_direct": action.utility_direct,
        "utility_offload": action.utility_offload,
        "cost": action.cost,
    }


def _action_from_dict(raw: dict) -> Action:
    return Action(
        variant=ActionVariant(raw["variant"]),
        card_id=raw["card_id"],
        utility_direct=raw["utility_direct"],
        utility_offload=raw["utility_offload"],
        cost=raw["cost"],
    )


def _probe_state_to_dict(state: ProbeState) -> dict:
    return {
        "card_id": state.card_id,
        "stage": state.stage.value,
        "passed": state.passed,
        "probe_cost_charged": state.probe_cost_charged,
    }


def _probe_state_from_dict(raw: dict) -> ProbeState:
    return ProbeState(
        card_id=raw["card_id"],
        stage=ProbeStage(raw["stage"]),
        passed=raw["passed"],
        probe_cost_charged=raw["probe_cost_charged"],
    )


def _decision_to_dict(decision: Decision) -> dict:
    return {
        "chosen": _action_to_dict(decision.chosen),
        "scores": dict(decision.scores),
        "gated_cards": list(decision.gated_cards),
        "probe_traces": [_probe_state_to_dict(t) for t in decision.probe_traces],
    }


def _decision_from_dict(raw: dict) -> Decision:
    return Decision(
        chosen=_action_from_dict(raw["chosen"]),
        scores=dict(raw["scores"]),
        gated_cards=tuple(raw["gated_cards"]),
        probe_traces=tuple(_probe_state_from_dict(t) for t in raw["probe_traces"]),
    )


def trajectory_to_dict(record: TrajectoryRecord) -> dict:
    return {
        "item_id": record.item_id,
        "condition": record.condition,
        "decisions": [_decision_to_dict(d) for d in record.decisions],
        "p_self_pre": record.p_self_pre,
        "p_self_post_decontaminated": record.p_self_post_decontaminated,
        "final_answer_class": record.final_answer_class.value,
        "outcome": record.outcome.value,
        "terminal_confidence": record.terminal_confidence,
        "answer": record.answer,
        "diagnostic": record.diagnostic,
    }


def trajectory_from_dict(raw: dict) -> TrajectoryRecord:
    return TrajectoryRecord(
        item_id=raw["item_id"],
        condition=raw["condition"],
        decisions=tuple(_decision_from_dict(d) for d in raw["decisions"]),
        p_self_pre=raw["p_self_pre"],
        p_self_post_decontaminated=raw["p_self_post_decontaminated"],
        final_answer_class=FinalAnswerClass(raw["final_answer_class"]),
        outcome=Outcome(raw["outcome"]),
        terminal_confidence=raw["terminal_confidence"],
        answer=raw["answer"],
        diagnostic=raw["diagnostic"],
    )

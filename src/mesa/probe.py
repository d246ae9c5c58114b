"""Delayed escalation: probe a matched card before paying for its body.

A matched card does not become a LoadSkill candidate until a cheap probe says
the load is worth it. The probe is a conjunction: the card's cheap_probe
predicate must hold on the context AND the backend's probe signal must report
parametric insufficiency (probe confidence below self_low + PROBE_SLACK).

States move strictly Matched -> Probed{passed} -> Loaded | Skipped. The only
other edge, bypass (Matched -> Loaded), exists for conditions that disable the
probe mechanism entirely; run_probe and resolve never produce it. ProbeStates
are immutable values owned by one trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from mesa.cards import SkillCard
from mesa.context import TaskContext
from mesa.dsl import eval_predicate
from mesa.errors import IllegalTransitionError

if TYPE_CHECKING:
    from mesa.backend import ModelBackend
    from mesa.router import RoutingConfig

# One probe costs a tenth of a skill load (router.COST_TABLE: 0.5).
PROBE_COST = 0.05

# The probe escalates slightly earlier than the direct-answer threshold.
PROBE_SLACK = 0.1


class ProbeStage(Enum):
    MATCHED = "matched"
    PROBED = "probed"
    LOADED = "loaded"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class ProbeState:
    """Progress of one card through the escalation machine.

    passed is None until the probe has run; it is retained through
    Loaded/Skipped for trace readability.
    """

    card_id: str
    stage: ProbeStage
    passed: bool | None = None
    probe_cost_charged: float = 0.0

    def __post_init__(self) -> None:
        if self.probe_cost_charged < 0.0:
            raise ValueError("probe_cost_charged must be >= 0")


def begin(card: SkillCard) -> ProbeState:
    """Enter the machine: the card's apply_when matched the context."""
    return ProbeState(card_id=card.id, stage=ProbeStage.MATCHED)


def run_probe(
    state: ProbeState,
    card: SkillCard,
    ctx: TaskContext,
    backend: "ModelBackend",
    cfg: "RoutingConfig",
) -> ProbeState:
    """Run the cheap probe; charges PROBE_COST exactly once.

    Passes only when the card's cheap_probe predicate holds and the backend's
    probe signal reports parametric insufficiency for this card.
    """
    if state.stage is not ProbeStage.MATCHED:
        raise IllegalTransitionError(
            f"run_probe requires stage matched, found {state.stage.value}"
        )
    if card.id != state.card_id:
        raise ValueError(f"probe state is for card {state.card_id!r}, got {card.id!r}")
    predicate_holds = eval_predicate(card.cheap_probe, ctx)
    probe_p_self = backend.probe_signal(ctx, card.id)
    insufficient = probe_p_self < cfg.self_low + PROBE_SLACK
    return ProbeState(
        card_id=state.card_id,
        stage=ProbeStage.PROBED,
        passed=predicate_holds and insufficient,
        probe_cost_charged=PROBE_COST,
    )


def resolve(state: ProbeState) -> ProbeState:
    """Commit a probed card to Loaded (probe passed) or Skipped."""
    if state.stage is not ProbeStage.PROBED:
        raise IllegalTransitionError(
            f"resolve requires stage probed, found {state.stage.value}"
        )
    assert state.passed is not None
    stage = ProbeStage.LOADED if state.passed else ProbeStage.SKIPPED
    return ProbeState(
        card_id=state.card_id,
        stage=stage,
        passed=state.passed,
        probe_cost_charged=state.probe_cost_charged,
    )


def bypass(state: ProbeState) -> ProbeState:
    """Matched -> Loaded without probing; only for probe-disabled conditions."""
    if state.stage is not ProbeStage.MATCHED:
        raise IllegalTransitionError(
            f"bypass requires stage matched, found {state.stage.value}"
        )
    return ProbeState(card_id=state.card_id, stage=ProbeStage.LOADED)

"""Delayed escalation: probe a matched card before paying for its body.

A matched card does not become a LoadSkill candidate until a cheap probe says
the load is worth it. The probe is one decision per matched card, load or
skip, and it is a short-circuit conjunction: the card's cheap_probe predicate
must hold on the context, and only then is the backend's probe signal asked
whether it reports parametric insufficiency (below self_low + PROBE_SLACK).

run_probe returns the card's terminal state, Loaded or Skipped, charged
PROBE_COST. Conditions that disable the probe load every matched card
uncharged, with passed left None (unprobed_trace). A ProbeState depends on
its card and verdict alone, so it is an immutable value shared per card:
each of a card's three traces is built the first time a route needs it,
kept in the card's memo slots, and reused by every later route and
trajectory that matches the card.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from mesa.cards import SkillCard
from mesa.context import TaskContext
from mesa.dsl import eval_predicate

if TYPE_CHECKING:
    from mesa.backend import ModelBackend
    from mesa.router import RoutingConfig

# One probe costs a tenth of a skill load (router.COST_TABLE: 0.5).
PROBE_COST = 0.05

# The probe escalates slightly earlier than the direct-answer threshold.
PROBE_SLACK = 0.1


class ProbeStage(Enum):
    MATCHED = "matched"
    LOADED = "loaded"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class ProbeState:
    """Where one matched card ended up, and what its probe cost.

    passed is None when no probe ran; a probed card keeps its verdict for
    trace readability.
    """

    card_id: str
    stage: ProbeStage
    passed: bool | None = None
    probe_cost_charged: float = 0.0

    def __post_init__(self) -> None:
        if self.probe_cost_charged < 0.0:
            raise ValueError("probe_cost_charged must be >= 0")


# Where SkillCard.memo keeps the trace of each probe verdict; None: no probe ran.
_TRACE_SLOT = {True: 0, False: 1, None: 2}


def _trace(card: SkillCard, passed: bool | None) -> ProbeState:
    """The card's shared trace for a probe verdict (None: no probe ran)."""
    memo = card.memo()
    slot = _TRACE_SLOT[passed]
    state = memo[slot]
    if state is None:
        if passed is None:
            state = ProbeState(card.id, ProbeStage.LOADED)
        else:
            stage = ProbeStage.LOADED if passed else ProbeStage.SKIPPED
            state = ProbeState(card.id, stage, passed, PROBE_COST)
        memo[slot] = state
    return state


def unprobed_trace(card: SkillCard) -> ProbeState:
    """A card loaded with the probe disabled: Loaded, passed None, uncharged."""
    return _trace(card, None)


def run_probe(
    ctx: TaskContext,
    card: SkillCard,
    backend: "ModelBackend",
    cfg: "RoutingConfig",
) -> ProbeState:
    """Probe one matched card: Loaded if it passes, else Skipped; charges PROBE_COST.

    Passes only when the card's cheap_probe predicate holds and the backend's
    probe signal then reports parametric insufficiency for this card. A failed
    predicate already decides Skipped, so its card's signal is never asked.
    """
    passed = eval_predicate(card.cheap_probe, ctx) and (
        backend.probe_signal(ctx, card.id) < cfg.self_low + PROBE_SLACK
    )
    # After the card's first route its trace is read straight from its slot.
    memo = card._memo
    state = memo[_TRACE_SLOT[passed]] if memo is not None else None
    return state or _trace(card, passed)

"""Delayed escalation: probe a matched card before paying for its body.

A matched card does not become a LoadSkill candidate until a cheap probe says
the load is worth it. The probe is one decision per matched card, load or
skip, and it is a short-circuit conjunction: the card's cheap_probe predicate
must hold on the context, and only then is the backend's probe signal asked
whether it reports parametric insufficiency (below self_low + PROBE_SLACK).

A route decides its matched cards' predicates first, on its own thread, with
cheap_verdicts, which evaluates each distinct cheap_probe tree once
(load_registry shares the trees of equal texts). run_probe then turns a
card's signal, None when it was not asked, into its terminal state, Loaded
or Skipped, charged PROBE_COST.
Conditions that disable the probe load every matched card uncharged, with
passed left None (unprobed_trace). A ProbeState depends on its card and
verdict alone, so it is an immutable value shared per card: each of a
card's three traces is built the first time a route needs it, kept in its
own slot on the card (_trace_passed, _trace_failed, _trace_unprobed), and
reused by every later route and trajectory that matches the card.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from mesa.cards import SkillCard
from mesa.context import TaskContext
from mesa.dsl import eval_predicate

if TYPE_CHECKING:
    from mesa.router import RoutingConfig

# One probe costs a tenth of a skill load (router.COST_TABLE: 0.5).
PROBE_COST = 0.05

# The probe escalates slightly earlier than the direct-answer threshold.
PROBE_SLACK = 0.1


class ProbeStage(Enum):
    MATCHED = "matched"
    LOADED = "loaded"
    SKIPPED = "skipped"


@dataclass(frozen=True, slots=True)
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


def unprobed_trace(card: SkillCard) -> ProbeState:
    """A card loaded with the probe disabled: Loaded, passed None, uncharged."""
    return card._trace_unprobed or card.keep(
        "_trace_unprobed", ProbeState(card.id, ProbeStage.LOADED)
    )


def cheap_verdicts(ctx: TaskContext, cards: Sequence[SkillCard]) -> list[bool]:
    """Whether each card's cheap_probe holds on ctx, in card order; each distinct tree is
    evaluated once, and the cards that share it take its verdict by tree identity."""
    verdicts: dict[int, bool] = {}
    held = []
    for card in cards:
        tree = card.cheap_probe
        holds = verdicts.get(id(tree))
        if holds is None:
            holds = verdicts[id(tree)] = eval_predicate(tree, ctx)
        held.append(holds)
    return held


def run_probe(cfg: "RoutingConfig", card: SkillCard, signal: float | None) -> ProbeState:
    """One matched card's trace from its probe signal: Loaded if it passes, else Skipped.

    signal is None when the card's cheap_probe failed and it was not asked,
    which decides Skipped; a signal passes below cfg.self_low + PROBE_SLACK
    (parametric insufficiency). Either way the probe charges PROBE_COST.
    """
    if signal is not None and signal < cfg.self_low + PROBE_SLACK:
        return card._trace_passed or card.keep(
            "_trace_passed", ProbeState(card.id, ProbeStage.LOADED, True, PROBE_COST)
        )
    return card._trace_failed or card.keep(
        "_trace_failed", ProbeState(card.id, ProbeStage.SKIPPED, False, PROBE_COST)
    )

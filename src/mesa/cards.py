"""Skill cards: metadata records routed on before any skill body is loaded.

A card carries two predicates (apply_when for candidacy, cheap_probe for the
delayed escalation check), an offloading class, and a trust provenance pair
that feeds the vigilance gate. Registries are immutable after load; card
bodies stay behind an opaque body_ref and are only fetched through
CardRegistry.read_body, which makes load laziness observable in tests.
CardRegistry.candidates prefilters the whole registry for one context
through an atom index over the apply_when predicates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Mapping

from mesa.context import TaskContext
from mesa.dsl import PredicateExpr, PredicateIndex, is_vacuous, parse_predicate
from mesa.errors import CardFileError, PredicateSyntaxError, RegistryLookupError


class OffloadingType(Enum):
    PROCEDURAL = "procedural"  # skill / playbook / behavioral script
    EPISTEMIC = "epistemic"  # retrieval or computation tool
    EVALUATIVE = "evaluative"  # verifier / test harness


class Provenance(Enum):
    FIRST_PARTY = "first_party"
    VERIFIED_PUBLISHER = "verified_publisher"
    COMMUNITY_UNVERIFIED = "community_unverified"
    UNKNOWN = "unknown"


# Trust a linter will accept for each provenance level. The loader does not
# enforce these: adversarial fixtures deliberately violate them.
TRUST_CEILINGS: Mapping[Provenance, float] = {
    Provenance.FIRST_PARTY: 0.95,
    Provenance.VERIFIED_PUBLISHER: 0.80,
    Provenance.COMMUNITY_UNVERIFIED: 0.40,
    Provenance.UNKNOWN: 0.20,
}

# Staleness discount: a stale card keeps only half its recorded trust.
STALE_TRUST_FACTOR = 0.5


@dataclass(frozen=True)
class SkillCard:
    id: str
    name: str
    description: str
    apply_when: PredicateExpr
    cheap_probe: PredicateExpr
    offloading_type: OffloadingType
    source_trust: float
    provenance: Provenance
    stale: bool
    body_ref: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("card id must be non-empty")
        if not 0.0 <= self.source_trust <= 1.0:
            raise ValueError(f"card {self.id!r}: source_trust must be in [0, 1]")


def effective_trust(card: SkillCard) -> float:
    """Trust after the staleness discount; never exceeds source_trust."""
    if card.stale:
        return STALE_TRUST_FACTOR * card.source_trust
    return card.source_trust


BodyLoader = Callable[[SkillCard], str]


def _default_body_loader(card: SkillCard) -> str:
    if card.body_ref.startswith("inline:"):
        return card.body_ref[len("inline:") :]
    return f"<skill body at {card.body_ref}>"


@dataclass(frozen=True)
class CardRegistry:
    """Ordered, immutable card collection with id lookup and lazy body reads."""

    cards: tuple[SkillCard, ...]
    body_loader: BodyLoader = _default_body_loader
    _by_id: dict[str, SkillCard] = field(init=False, repr=False)
    # One slot for the apply_when index, built on the first candidates call
    # and shared with every with_body_loader copy.
    _index: list[PredicateIndex | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: dict[str, SkillCard] = {}
        for card in self.cards:
            if card.id in by_id:
                raise CardFileError(f"duplicate card id {card.id!r}")
            by_id[card.id] = card
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_index", [None])

    def __iter__(self) -> Iterator[SkillCard]:
        return iter(self.cards)

    def __len__(self) -> int:
        return len(self.cards)

    def __contains__(self, card_id: str) -> bool:
        return card_id in self._by_id

    def get(self, card_id: str) -> SkillCard:
        try:
            return self._by_id[card_id]
        except KeyError:
            raise RegistryLookupError(f"no card with id {card_id!r}") from None

    def read_body(self, card_id: str) -> str:
        """Fetch a skill body. The only sanctioned path to body content."""
        return self.body_loader(self.get(card_id))

    def candidates(self, ctx: TaskContext) -> list[SkillCard]:
        """Cards whose apply_when may hold for ctx, in registry order.

        Every card whose apply_when holds is included, so filtering the
        result with eval_predicate gives exactly the matching cards.
        """
        index = self._index[0]
        if index is None:
            index = PredicateIndex(card.apply_when for card in self.cards)
            self._index[0] = index
        cards = self.cards
        return [cards[position] for position in index.candidates(ctx)]

    def with_body_loader(self, loader: BodyLoader) -> "CardRegistry":
        """Same cards and index, different body loader (used by counting test doubles)."""
        clone = CardRegistry(cards=self.cards, body_loader=loader)
        object.__setattr__(clone, "_index", self._index)
        return clone


_CARD_FIELDS = {
    "id",
    "name",
    "description",
    "apply_when",
    "cheap_probe",
    "offloading_type",
    "source_trust",
    "provenance",
    "stale",
    "body_ref",
}


def _parse_card(raw: object, index: int) -> SkillCard:
    where = f"card #{index}"
    if not isinstance(raw, dict):
        raise CardFileError(f"{where}: expected an object")
    if raw.get("id"):
        where = f"card {raw['id']!r}"
    unknown = set(raw) - _CARD_FIELDS
    if unknown:
        raise CardFileError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = _CARD_FIELDS - set(raw)
    if missing:
        raise CardFileError(f"{where}: missing field(s) {sorted(missing)}")
    try:
        apply_when = parse_predicate(str(raw["apply_when"]))
        cheap_probe = parse_predicate(str(raw["cheap_probe"]))
    except PredicateSyntaxError as exc:
        raise CardFileError(f"{where}: bad predicate: {exc}") from exc
    try:
        offloading = OffloadingType(raw["offloading_type"])
    except ValueError:
        raise CardFileError(
            f"{where}: bad offloading_type {raw['offloading_type']!r}"
        ) from None
    try:
        provenance = Provenance(raw["provenance"])
    except ValueError:
        raise CardFileError(f"{where}: bad provenance {raw['provenance']!r}") from None
    if not isinstance(raw["stale"], bool):
        raise CardFileError(f"{where}: stale must be a boolean")
    if not isinstance(raw["source_trust"], (int, float)) or isinstance(raw["source_trust"], bool):
        raise CardFileError(f"{where}: source_trust must be a number")
    try:
        return SkillCard(
            id=str(raw["id"]),
            name=str(raw["name"]),
            description=str(raw["description"]),
            apply_when=apply_when,
            cheap_probe=cheap_probe,
            offloading_type=offloading,
            source_trust=float(raw["source_trust"]),
            provenance=provenance,
            stale=bool(raw["stale"]),
            body_ref=str(raw["body_ref"]),
        )
    except ValueError as exc:
        raise CardFileError(f"{where}: {exc}") from exc


def load_registry(path: str | Path) -> CardRegistry:
    """Load a card file; all predicates parse eagerly, no partial registry.

    Raises CardFileError naming the offending card for any schema violation,
    duplicate id, or predicate syntax error.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CardFileError(f"cannot read card file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CardFileError(f"card file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"cards"} or not isinstance(doc["cards"], list):
        raise CardFileError(f'card file {path}: expected top-level {{"cards": [...]}}')
    cards = tuple(_parse_card(raw, i) for i, raw in enumerate(doc["cards"]))
    return CardRegistry(cards=cards)


# ---------------------------------------------------------------------------
# Lint

CODE_TRUST_CEILING = "trust-exceeds-provenance-ceiling"
CODE_VACUOUS_APPLY = "vacuous-apply-when"
CODE_REDUNDANT_PROBE = "redundant-probe"
CODE_STALE_HIGH_TRUST = "stale-high-trust"


@dataclass(frozen=True)
class Diagnostic:
    card_id: str
    code: str
    message: str

    def render(self) -> str:
        return f"{self.card_id}:{self.code}:{self.message}"


def lint_cards(registry: CardRegistry, trust_gate: float = 0.7) -> list[Diagnostic]:
    """Diagnose suspicious cards. Diagnostics, never failures."""
    findings: list[Diagnostic] = []
    for card in registry:
        ceiling = TRUST_CEILINGS[card.provenance]
        if card.source_trust > ceiling:
            findings.append(
                Diagnostic(
                    card.id,
                    CODE_TRUST_CEILING,
                    f"source_trust {card.source_trust:g} exceeds "
                    f"{card.provenance.value} ceiling {ceiling:g}",
                )
            )
        if is_vacuous(card.apply_when):
            findings.append(
                Diagnostic(card.id, CODE_VACUOUS_APPLY, "apply_when matches every context")
            )
        if card.cheap_probe == card.apply_when:
            findings.append(
                Diagnostic(
                    card.id, CODE_REDUNDANT_PROBE, "cheap_probe adds nothing over apply_when"
                )
            )
        if card.stale and card.source_trust >= trust_gate:
            findings.append(
                Diagnostic(
                    card.id,
                    CODE_STALE_HIGH_TRUST,
                    f"stale card still records trust {card.source_trust:g} "
                    f">= gate {trust_gate:g}",
                )
            )
    return findings

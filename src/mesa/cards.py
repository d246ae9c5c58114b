"""Skill cards: metadata records routed on before any skill body is loaded.

A card carries two predicates (apply_when for candidacy, cheap_probe for the
delayed escalation check), an offloading class, and a trust provenance pair
that feeds the vigilance gate. Registries are immutable after load; card
bodies stay behind an opaque body_ref and are only fetched through
CardRegistry.read_body, which makes load laziness observable in tests.
CardRegistry.matching finds the cards whose apply_when holds for one
context through an exact atom index over the apply_when predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Mapping

from mesa.codec import read_document
from mesa.context import TaskContext
from mesa.dsl import PredicateExpr, PredicateIndex, is_vacuous, predicate_parser
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


@dataclass(frozen=True, slots=True)
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
    # Values that depend on this card alone, shared by every route that
    # matches it: slots 0-2 hold the probe traces (mesa.probe), slot 3 the
    # LoadSkill action (mesa.router). None until a route first needs one.
    _memo: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("card id must be non-empty")
        if not 0.0 <= self.source_trust <= 1.0:
            raise ValueError(f"card {self.id!r}: source_trust must be in [0, 1]")

    def memo(self) -> list:
        """The card's four shared-value slots, empty (None) until each is first built.

        Two threads may create the slots at once and one list is lost; its
        values equal the kept list's, so no lock is needed.
        """
        memo = self._memo
        if memo is None:
            memo = [None] * 4
            object.__setattr__(self, "_memo", memo)
        return memo


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


@dataclass(frozen=True, slots=True)
class CardRegistry:
    """Ordered, immutable card collection with id lookup and lazy body reads.

    matching(ctx) finds the cards whose apply_when holds through an exact
    atom index, built once per registry on the first call.
    """

    cards: tuple[SkillCard, ...]
    body_loader: BodyLoader = _default_body_loader
    # The last failure-bank entry (recorded_at) whose trust updates the card
    # file holds; None: none applied yet (mesa.bank.hypercorrection_updates).
    applied_through: int | None = None
    _by_id: dict[str, SkillCard] = field(init=False, repr=False)
    # One slot for the apply_when index, built on the first matching call
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

    def matching(self, ctx: TaskContext) -> list[SkillCard]:
        """Cards whose apply_when holds for ctx, in registry order.

        Exactly the cards of a full scan with eval_predicate, found through
        the atom index over the apply_when predicates (dsl.PredicateIndex),
        which is built on the first call.
        """
        index = self._index[0]
        if index is None:
            index = PredicateIndex(card.apply_when for card in self.cards)
            self._index[0] = index
        cards = self.cards
        return [cards[position] for position in index.matching(ctx)]

    def with_body_loader(self, loader: BodyLoader) -> "CardRegistry":
        """Same cards and index, different body loader (used by counting test doubles)."""
        clone = CardRegistry(self.cards, loader, self.applied_through)
        object.__setattr__(clone, "_index", self._index)
        return clone


_CARD_FIELDS = frozenset(f.name for f in fields(SkillCard) if f.init)
_STRING_FIELDS = ("id", "name", "description", "apply_when", "cheap_probe", "body_ref")
_OFFLOADING_TYPES = {member.value: member for member in OffloadingType}
_PROVENANCES = {member.value: member for member in Provenance}


def _card_error(raw: dict, index: int, problem: str) -> CardFileError:
    """The problem, prefixed by the card's id if it has one, else by its index."""
    where = f"card {raw['id']!r}" if raw.get("id") else f"card #{index}"
    return CardFileError(f"{where}: {problem}")


def _parse_card(raw: object, index: int, parse: Callable[[str], PredicateExpr]) -> SkillCard:
    """Check a card's fields one at a time, in a fixed order; the first failure names it."""
    if type(raw) is not dict:
        raise CardFileError(f"card #{index}: expected an object")
    if raw.keys() != _CARD_FIELDS:
        unknown = raw.keys() - _CARD_FIELDS
        if unknown:
            raise _card_error(raw, index, f"unknown field(s) {sorted(unknown)}")
        raise _card_error(raw, index, f"missing field(s) {sorted(_CARD_FIELDS - raw.keys())}")
    for name in _STRING_FIELDS:
        if type(raw[name]) is not str:
            raise _card_error(raw, index, f"{name} must be a string")
    try:
        apply_when, cheap_probe = parse(raw["apply_when"]), parse(raw["cheap_probe"])
    except PredicateSyntaxError as exc:
        raise _card_error(raw, index, f"bad predicate: {exc}") from exc
    offloading = raw["offloading_type"]
    if type(offloading) is not str or offloading not in _OFFLOADING_TYPES:
        raise _card_error(raw, index, f"bad offloading_type {offloading!r}")
    provenance = raw["provenance"]
    if type(provenance) is not str or provenance not in _PROVENANCES:
        raise _card_error(raw, index, f"bad provenance {provenance!r}")
    if type(raw["stale"]) is not bool:
        raise _card_error(raw, index, "stale must be a boolean")
    trust = raw["source_trust"]
    if type(trust) is not float and type(trust) is not int:
        raise _card_error(raw, index, "source_trust must be a number")
    if not raw["id"]:
        raise _card_error(raw, index, "card id must be non-empty")
    if not 0.0 <= trust <= 1.0:
        raise _card_error(raw, index, "source_trust must be in [0, 1]")
    return SkillCard(
        raw["id"], raw["name"], raw["description"], apply_when, cheap_probe,
        _OFFLOADING_TYPES[offloading], float(trust), _PROVENANCES[provenance], raw["stale"],
        raw["body_ref"],
    )


def load_registry(path: str | Path) -> CardRegistry:
    """Load a card file; all predicates parse eagerly, no partial registry.

    Each distinct predicate text is parsed once; equal texts share one tree,
    and equal atoms across the file one atom (dsl.predicate_parser).

    Raises CardFileError naming the offending card for any schema violation,
    duplicate id, or predicate syntax error, and naming applied_through when
    that optional top-level field is not a non-negative integer.
    """
    doc = read_document(path, CardFileError, "card file", "cards", "applied_through")
    parse = predicate_parser()
    cards = tuple(_parse_card(raw, i, parse) for i, raw in enumerate(doc["cards"]))
    return CardRegistry(cards=cards, applied_through=read_applied_through(doc, path))


def read_applied_through(doc: dict, path: str | Path) -> int | None:
    """A card file's optional applied_through: a non-negative int, or None when absent."""
    if "applied_through" not in doc:
        return None
    value = doc["applied_through"]
    if type(value) is not int or value < 0:
        raise CardFileError(
            f"card file {path}: applied_through must be a non-negative integer, got {value!r}"
        )
    return value


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


def lint_cards(registry: CardRegistry, trust_gate: float) -> list[Diagnostic]:
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

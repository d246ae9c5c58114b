"""Shared test fixtures: shipped data files and small builders."""

from __future__ import annotations

from importlib.resources import files

import pytest

from mesa.backend import load_script
from mesa.bench import load_suite
from mesa.cards import (
    CardRegistry,
    OffloadingType,
    Provenance,
    SkillCard,
)
from mesa.context import Attachment, TaskContext
from mesa.dsl import parse_predicate

# The shipped data files, found the way an installed package finds them.
DATA = files("mesa") / "data"


def make_card(
    card_id: str = "helper",
    apply_when: str = 'contains:"task"',
    cheap_probe: str = "kind:doc",
    source_trust: float = 0.9,
    provenance: Provenance = Provenance.FIRST_PARTY,
    stale: bool = False,
    offloading_type: OffloadingType = OffloadingType.PROCEDURAL,
    body_ref: str = "inline:do the thing",
) -> SkillCard:
    return SkillCard(
        id=card_id,
        name=f"name of {card_id}",
        description=f"description of {card_id}",
        apply_when=parse_predicate(apply_when),
        cheap_probe=parse_predicate(cheap_probe),
        offloading_type=offloading_type,
        source_trust=source_trust,
        provenance=provenance,
        stale=stale,
        body_ref=body_ref,
    )


def make_ctx(
    prompt: str = "please do the task",
    kind_tags: tuple[str, ...] = ("doc",),
    attachments: tuple[Attachment, ...] = (),
    pre_offload_p_self: float | None = None,
) -> TaskContext:
    return TaskContext(
        prompt=prompt,
        kind_tags=frozenset(kind_tags),
        attachments=attachments,
        pre_offload_p_self=pre_offload_p_self,
    )


class DictBackend:
    """Minimal in-memory backend for unit tests."""

    def __init__(
        self,
        p_self: float = 0.5,
        p_self_post: float = 0.9,
        sources: dict[str, float] | None = None,
        probes: dict[str, float] | None = None,
        answers: dict[str, str] | None = None,
        tags: frozenset[str] = frozenset(),
    ) -> None:
        self.p_self = p_self
        self.p_self_post = p_self_post
        self.sources = sources or {}
        self.probes = probes or {}
        self.answers = answers or {}
        self.tags = tags
        self.calls: list[tuple] = []

    def self_confidence(self, ctx):
        self.calls.append(("self_confidence", ctx.pre_offload_p_self))
        return self.p_self_post if ctx.pre_offload_p_self is not None else self.p_self

    def source_confidence(self, ctx, channel):
        self.calls.append(("source_confidence", channel))
        from mesa.errors import MissingSignalError

        try:
            return self.sources[channel]
        except KeyError:
            raise MissingSignalError(f"no source for {channel}") from None

    def probe_signal(self, ctx, card_id):
        self.calls.append(("probe_signal", card_id))
        from mesa.errors import MissingSignalError

        try:
            return self.probes[card_id]
        except KeyError:
            raise MissingSignalError(f"no probe for {card_id}") from None

    def answer(self, ctx, variant_key):
        self.calls.append(("answer", variant_key))
        return self.answers.get(variant_key, f"answer for {variant_key}")

    def self_report_tags(self, ctx):
        self.calls.append(("self_report_tags", None))
        return self.tags


@pytest.fixture(scope="session")
def shipped_registry() -> CardRegistry:
    from mesa.cards import load_registry

    return load_registry(DATA / "cards.json")


@pytest.fixture(scope="session")
def shipped_suite(shipped_registry):
    return load_suite(DATA / "suite.json", shipped_registry)


@pytest.fixture(scope="session")
def shipped_script():
    return load_script(DATA / "script.json")


@pytest.fixture(scope="session")
def mini_registry() -> CardRegistry:
    from mesa.cards import load_registry

    return load_registry(DATA / "cards_mini.json")


@pytest.fixture(scope="session")
def mini_suite(mini_registry):
    return load_suite(DATA / "suite_mini.json", mini_registry, expected_per_slice=None)


@pytest.fixture(scope="session")
def mini_script():
    return load_script(DATA / "script_mini.json")

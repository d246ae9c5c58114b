"""
Delayed escalation: probe before you pay for the body
=====================================================

Matching a skill card is cheap; loading its body is not. Delayed
escalation puts a probe between the two: a matched card is only loaded when
its cheap_probe predicate holds AND a quick confidence check says the agent
actually needs help. The probe is one step, load or skip. This demo runs it
by hand, then lets build_candidates run it and proves, with a counting
loader, that bodies are read exactly once per load and never for skipped
cards.

Run with: python3 demos/03_probe_lifecycle.py
"""

from __future__ import annotations

from mesa import (
    PROBE_COST,
    PROBE_SLACK,
    CardRegistry,
    OffloadingType,
    Provenance,
    RoutingConfig,
    SkillCard,
    TaskContext,
    build_candidates,
    eval_predicate,
    parse_predicate,
    run_probe,
)

# ---------------------------------------------------------------------------
# A card and two tasks: one the agent finds hard, one it knows cold.

card = SkillCard(
    id="snail_facts",
    name="Gastropod reference",
    description="Everything about snails.",
    apply_when=parse_predicate('contains:"snail"'),
    cheap_probe=parse_predicate("kind:question"),
    offloading_type=OffloadingType.EPISTEMIC,
    source_trust=0.9,
    provenance=Provenance.FIRST_PARTY,
    stale=False,
    body_ref="inline:the reference text",
)

hard_task = TaskContext(
    prompt="how many teeth does a garden snail have",
    kind_tags=frozenset({"question"}),
)
easy_task = TaskContext(
    prompt="is a snail an animal",
    kind_tags=frozenset({"question"}),
)


class SignalBackend:
    """Answers probe checks from a table; everything else is fixed."""

    def __init__(self, probe_table: dict[str, float]) -> None:
        self.probe_table = probe_table
        self.probe_calls = 0

    def self_confidence(self, ctx):
        return 0.30

    def source_confidence(self, ctx, channel):
        return 0.80

    def probe_signal(self, ctx, card_id):
        self.probe_calls += 1
        return self.probe_table[ctx.prompt]

    def answer(self, ctx, variant_key):
        return "about 14000"

    def self_report_tags(self, ctx):
        return frozenset()


backend = SignalBackend(
    probe_table={hard_task.prompt: 0.20, easy_task.prompt: 0.95}
)
cfg = RoutingConfig()
threshold = cfg.self_low + PROBE_SLACK
print(f"probe passes when signal < self_low + slack = {threshold:.2f}")

# ---------------------------------------------------------------------------
# The probe by hand, in its two steps: the local cheap_probe predicate, then
# the backend's probe signal, asked only where the predicate holds. run_probe
# turns the signal (None when it was not asked) into one step from Matched
# to Loaded or Skipped. Each probe charges PROBE_COST exactly once, whichever
# way it goes.

for name, task in (("hard", hard_task), ("easy", easy_task)):
    signal = backend.probe_signal(task, card.id) if eval_predicate(card.cheap_probe, task) else None
    state = run_probe(cfg, card, signal)
    print(
        f"{name} task: probe={backend.probe_table[task.prompt]:.2f} "
        f"-> passed={state.passed} -> {state.stage.value} "
        f"(charged {state.probe_cost_charged:.2f}, expected {PROBE_COST:.2f})"
    )

# ---------------------------------------------------------------------------
# The same probe inside build_candidates, which decides the predicates of
# all matched cards before it asks the backend anything, with a loader that
# counts body reads. Loads are lazy: the easy task matches the card but never
# pays for the body. A condition without the probe loads every matched card
# uncharged.

reads: list[str] = []
registry = CardRegistry(cards=(card,)).with_body_loader(
    lambda c: reads.append(c.id) or "the reference text"
)

for name, task in (("hard", hard_task), ("easy", easy_task)):
    candidates, cv, traces = build_candidates(
        task, registry, backend, cfg, probe_enabled=True
    )
    skills = [a.card_id for a in candidates if a.card_id is not None]
    print(
        f"{name} task: trace={[t.stage.value for t in traces]} "
        f"skill candidates={skills} body reads so far={reads}"
    )

assert reads == ["snail_facts"], "exactly one paid load across both tasks"

_, _, (unprobed,) = build_candidates(easy_task, registry, backend, cfg, probe_enabled=False)
print(
    f"probe disabled: easy task -> {unprobed.stage.value} "
    f"(passed={unprobed.passed}, charged {unprobed.probe_cost_charged:.2f}) "
    f"body reads so far={reads}"
)

"""Acceptance gate: the nine headline guarantees of the engine.

Each test prints one PASS line so a full run reads as a checklist. The
reference accuracy table is the 7-condition, 3-slice matrix the shipped
fixtures are constructed to reproduce.
"""

from __future__ import annotations

import json
import math
import random
import socket
import time
from types import SimpleNamespace

import pytest

from mesa.bank import BankConfig, BankEntry, TrustUpdate, apply_updates, hypercorrection_updates
from mesa.bench import condition_by_name, emit_report, normal_cdf, run_matrix, two_prop_ztest
from mesa.cards import CardRegistry, effective_trust
from mesa.confidence import ConfidenceVector, DecontaminationConfig, decontaminate
from mesa.dsl import And, Contains, Kind, Matches, Mime, Not, Or, parse_predicate, print_predicate
from mesa.errors import PredicateSyntaxError, StaleTrustError
from mesa.probe import ProbeStage
from mesa.router import (
    Action,
    ActionVariant,
    Outcome,
    RoutingConfig,
    score_key,
    select_action,
)

from conftest import make_card, make_ctx
from test_bank import make_record
from test_dsl import _MALFORMED_CORPUS

REFERENCE_TABLE = {
    "baseline": {"A": 0.500, "B": 0.000, "C": 0.500, "overall": 0.333},
    "reflection": {"A": 0.500, "B": 0.000, "C": 0.500, "overall": 0.333},
    "no_probe": {"A": 1.000, "B": 0.800, "C": 1.000, "overall": 0.933},
    "no_vigilance": {"A": 1.000, "B": 0.500, "C": 1.000, "overall": 0.833},
    "no_decontam": {"A": 1.000, "B": 1.000, "C": 1.000, "overall": 1.000},
    "no_dualconf": {"A": 1.000, "B": 1.000, "C": 1.000, "overall": 1.000},
    "full": {"A": 1.000, "B": 1.000, "C": 1.000, "overall": 1.000},
}


@pytest.fixture(scope="module")
def matrix_run(shipped_suite, shipped_registry, shipped_script):
    """One instrumented full-matrix run shared by several criteria."""
    reads: list[str] = []

    def counting_loader(card):
        reads.append(card.id)
        return f"body of {card.id}"

    registry = shipped_registry.with_body_loader(counting_loader)
    records = []
    reads_per_record: list[list[str]] = []

    def on_record(rec):
        records.append(rec)
        reads_per_record.append(reads[sum(map(len, reads_per_record)):])

    start = time.perf_counter()
    table = run_matrix(shipped_suite, registry, shipped_script, on_record=on_record)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        table=table,
        records=records,
        reads=reads,
        reads_per_record=reads_per_record,
        elapsed=elapsed,
    )


def test_accuracy_table_reproduction(matrix_run):
    """1: the full matrix reproduces the reference table exactly, quickly."""
    cells = matrix_run.table.cells
    assert set(cells) == set(REFERENCE_TABLE)

    # strongest form: exact integer correct-counts out of 50 per slice
    counts: dict[tuple[str, str], int] = {}
    for it in matrix_run.table.items:
        counts[(it.condition, it.slice)] = counts.get((it.condition, it.slice), 0) + (
            it.outcome == "correct"
        )
    for condition, expected_row in REFERENCE_TABLE.items():
        for column, expected in expected_row.items():
            if column == "overall":
                continue
            assert counts[(condition, column)] == round(expected * 50), (condition, column)
            assert cells[condition][column] == counts[(condition, column)] / 50

    # and the rendered report matches the reference digits byte for byte
    width = max(len("condition"), max(len(c) for c in REFERENCE_TABLE))
    header = "condition".ljust(width) + "".join(
        h.rjust(10) for h in ("slice_A", "slice_B", "slice_C", "overall")
    )
    expected_text = "\n".join(
        [header]
        + [
            name.ljust(width)
            + "".join(f"{row[col]:.3f}".rjust(10) for col in ("A", "B", "C", "overall"))
            for name, row in REFERENCE_TABLE.items()
        ]
    ) + "\n"
    assert emit_report(matrix_run.table, "text") == expected_text

    assert len(matrix_run.records) == 1050
    assert matrix_run.elapsed < 5.0, f"matrix took {matrix_run.elapsed:.2f}s"
    print(
        f"\n[acceptance 1] reference table reproduced exactly "
        f"({matrix_run.elapsed:.2f}s for 1050 trajectories): PASS"
    )


def test_ztest_values_and_harness_significance(matrix_run):
    """2: z-test worked example, harness slice-B significance, CDF oracle."""
    result = two_prop_ztest(40, 50, 25, 50)
    assert result.z == pytest.approx(3.1449, abs=1e-3)
    assert result.p_two_sided == pytest.approx(1.66e-3, abs=1e-4)

    def correct_in_b(condition):
        return sum(
            1
            for it in matrix_run.table.items
            if it.condition == condition and it.slice == "B" and it.outcome == "correct"
        )

    k_probe, k_vigilance = correct_in_b("no_probe"), correct_in_b("no_vigilance")
    assert (k_probe, k_vigilance) == (40, 25)
    harness = two_prop_ztest(k_probe, 50, k_vigilance, 50)
    assert harness.z == result.z and harness.p_two_sided == result.p_two_sided
    assert harness.p_two_sided < 0.01

    # Simpson's rule oracle for the normal CDF, agreement to 1e-9
    def oracle(x: float) -> float:
        steps = 4000
        if x == 0.0:
            return 0.5
        sign, upper = (1.0, x) if x > 0 else (-1.0, -x)
        h = upper / steps
        pdf = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
        acc = pdf(0.0) + pdf(upper)
        for i in range(1, steps):
            acc += pdf(i * h) * (4 if i % 2 else 2)
        return 0.5 + sign * acc * h / 3.0

    for i in range(-20, 21):
        x = i * 0.3
        assert abs(normal_cdf(x) - oracle(x)) <= 1e-9, x
    print(
        f"[acceptance 2] z = {result.z:.4f}, p = {result.p_two_sided:.2e} < 0.01, "
        f"CDF oracle agreement <= 1e-9: PASS"
    )


def _independent_score(action, cv, cfg, card):
    """Re-derivation of the dual-confidence utility from first principles."""
    if action.variant in (ActionVariant.DIRECT, ActionVariant.STOP):
        value = cfg.alpha * cv.p_self * action.utility_direct
    elif action.variant is ActionVariant.LOAD_SKILL:
        vigilance = card.source_trust * (0.5 if card.stale else 1.0)
        value = (1.0 - cfg.alpha) * vigilance * cv.source_confidences[card.id] * action.utility_offload
    else:
        channel = "__tool__" if action.variant is ActionVariant.CALL_TOOL else "__verify__"
        value = (1.0 - cfg.alpha) * 1.0 * cv.source_confidences[channel] * action.utility_offload
    return value - cfg.cost_lambda * action.cost


def test_scorer_equivalence_over_random_draws():
    """3: select_action agrees with a brute-force evaluator on 1000 draws."""
    rng = random.Random(20260825)
    for draw_index in range(1000):
        cfg = RoutingConfig(
            alpha=rng.random(),
            cost_lambda=rng.random() * 2.0,
            trust_gate=rng.random(),
        )
        cards = []
        candidates = [
            Action(ActionVariant.DIRECT, utility_direct=rng.random() * 2, cost=rng.random()),
            Action(ActionVariant.STOP, utility_direct=rng.random() * 2, cost=rng.random()),
            Action(ActionVariant.CALL_TOOL, utility_offload=rng.random() * 2, cost=rng.random()),
            Action(ActionVariant.VERIFY, utility_offload=rng.random() * 2, cost=rng.random()),
        ]
        sources = {"__tool__": rng.random(), "__verify__": rng.random()}
        for i in range(rng.randint(0, 4)):
            card = make_card(
                f"c{i}", source_trust=rng.random(), stale=rng.random() < 0.5
            )
            cards.append(card)
            candidates.append(
                Action(
                    ActionVariant.LOAD_SKILL,
                    card_id=card.id,
                    utility_offload=rng.random() * 2,
                    cost=rng.random(),
                )
            )
            sources[card.id] = rng.random()
        cv = ConfidenceVector(p_self=rng.random(), source_confidences=sources)
        registry = CardRegistry(cards=tuple(cards))
        by_id = {card.id: card for card in cards}

        decision = select_action(make_ctx(), candidates, cv, cfg, registry)

        survivors = [
            action
            for action in candidates
            if action.variant is not ActionVariant.LOAD_SKILL
            or effective_trust(by_id[action.card_id]) >= cfg.trust_gate
        ]
        draw = {
            "index": draw_index,
            "alpha": cfg.alpha,
            "lambda": cfg.cost_lambda,
            "gate": cfg.trust_gate,
            "candidates": candidates,
            "cards": cards,
            "cv": cv,
        }
        if not survivors:
            assert decision.chosen.variant in (ActionVariant.DIRECT, ActionVariant.STOP), draw
            continue
        scored = [
            (_independent_score(a, cv, cfg, by_id.get(a.card_id)), a) for a in survivors
        ]
        best = max(score for score, _ in scored)
        chosen_score = decision.scores[score_key(decision.chosen)]
        assert math.isclose(chosen_score, best, rel_tol=0.0, abs_tol=1e-12), draw
        winners = [a for score, a in scored if math.isclose(score, best, rel_tol=0, abs_tol=1e-12)]
        if len(winners) == 1:
            assert decision.chosen == winners[0], draw
        else:
            assert decision.chosen in winners, draw
    print("[acceptance 3] scorer equals brute-force evaluator on 1000 draws: PASS")


def test_gate_soundness(matrix_run, shipped_registry):
    """4: vigilance never lets an under-trusted card load, anywhere."""
    vigilant = {
        name
        for name in REFERENCE_TABLE
        if condition_by_name(name).vigilance_enabled
    }
    gate = RoutingConfig().trust_gate
    checked = 0
    for rec in matrix_run.records:
        if rec.condition not in vigilant:
            continue
        chosen = rec.decisions[-1].chosen
        if chosen.variant is ActionVariant.LOAD_SKILL:
            checked += 1
            card = shipped_registry.get(chosen.card_id)
            assert effective_trust(card) >= gate, (rec.item_id, rec.condition)

    rng = random.Random(77)
    for _ in range(1000):
        cfg = RoutingConfig(trust_gate=rng.random())
        cards = [
            make_card(f"c{i}", source_trust=rng.random(), stale=rng.random() < 0.5)
            for i in range(rng.randint(1, 6))
        ]
        candidates = [
            Action(ActionVariant.DIRECT),
            Action(ActionVariant.STOP),
            Action(ActionVariant.CALL_TOOL, cost=0.3),
            Action(ActionVariant.VERIFY, cost=0.3),
        ] + [
            Action(ActionVariant.LOAD_SKILL, card_id=card.id, cost=rng.random() * 0.2)
            for card in cards
        ]
        sources = {"__tool__": rng.random() * 0.2, "__verify__": rng.random() * 0.2}
        # adversarial: untrusted cards scream relevance
        sources.update({card.id: 0.9 + rng.random() * 0.1 for card in cards})
        cv = ConfidenceVector(p_self=rng.random() * 0.2, source_confidences=sources)
        decision = select_action(
            make_ctx(), candidates, cv, cfg, CardRegistry(cards=tuple(cards))
        )
        if decision.chosen.variant is ActionVariant.LOAD_SKILL:
            card = next(c for c in cards if c.id == decision.chosen.card_id)
            assert effective_trust(card) >= cfg.trust_gate
        for gated_id in decision.gated_cards:
            card = next(c for c in cards if c.id == gated_id)
            assert effective_trust(card) < cfg.trust_gate
    print(
        f"[acceptance 4] gate soundness over 1050 trajectories "
        f"({checked} skill loads) plus 1000 adversarial registries: PASS"
    )


def test_probe_laziness(matrix_run):
    """5: a body is read once per Loaded card the gate passes, never if gated; NoProbe pays."""
    passed_loads = gated_loads = 0
    for rec, reads in zip(matrix_run.records, matrix_run.reads_per_record, strict=True):
        first = rec.decisions[0]
        gated = set(first.gated_cards)
        loaded = [t.card_id for t in first.probe_traces if t.stage is ProbeStage.LOADED]
        assert reads == [card_id for card_id in loaded if card_id not in gated]
        assert gated.isdisjoint(reads)
        passed_loads += len(reads)
        gated_loads += len(loaded) - len(reads)
    assert len(matrix_run.reads) == passed_loads
    assert passed_loads > 0
    assert gated_loads > 0

    no_probe_b_failures = {
        it.item_id
        for it in matrix_run.table.items
        if it.condition == "no_probe" and it.slice == "B" and it.outcome == "incorrect"
    }
    assert no_probe_b_failures == {f"b_html_{i:02d}" for i in range(10)}
    print(
        f"[acceptance 5] body reads == {passed_loads} Loaded cards past the gate, "
        f"none of {gated_loads} gated loads; "
        f"NoProbe slice-B failures are exactly the 10 HTML items: PASS"
    )


def test_decontamination_properties(mini_suite, mini_registry, mini_script):
    """6: monotone safety and idempotence; the mini-suite flips an outcome."""
    rng = random.Random(6021023)
    cfg = DecontaminationConfig()
    for _ in range(10_000):
        pre, post, trust = rng.random(), rng.random(), rng.random()
        verified = rng.random() < 0.5
        result = decontaminate(pre, post, trust, verified, cfg)
        if not verified and trust < cfg.trust_override_threshold:
            assert result <= pre
        again = decontaminate(pre, result, trust, verified, cfg)
        assert again == result

    conditions = (condition_by_name("full"), condition_by_name("no_decontam"))
    table = run_matrix(mini_suite, mini_registry, mini_script, conditions)
    outcome = {(it.condition, it.item_id): it.outcome for it in table.items}
    flipped = [
        item.id
        for item in mini_suite
        if outcome[("full", item.id)] != outcome[("no_decontam", item.id)]
    ]
    assert flipped, "disabling decontamination must change at least one outcome"
    print(
        f"[acceptance 6] decontamination invariants over 10000 tuples; "
        f"mini-suite flips {flipped}: PASS"
    )


def test_bank_exclusivity_and_trust_sequence(tmp_path):
    """7: updates fire exactly for confident implicated failures."""
    rng = random.Random(414213)
    registry = CardRegistry(
        cards=tuple(make_card(f"c{i}", source_trust=0.9) for i in range(4))
    )
    entries = []
    expected = 0
    for i in range(10_000):
        outcome = Outcome.INCORRECT if rng.random() < 0.5 else Outcome.CORRECT
        terminal = rng.random()
        card = rng.choice([None, "c0", "c1", "c2", "c3"])
        entries.append(
            BankEntry(
                trajectory=make_record(
                    item_id=f"t{i}", outcome=outcome, terminal=terminal
                ),
                implicated_card=card,
            )
        )
        if outcome is Outcome.INCORRECT and terminal >= 0.8 and card:
            expected += 1
    updates = hypercorrection_updates(entries, BankConfig(), registry)
    assert len(updates) == expected

    # repeated failures halve trust exactly: representable powers of two
    one_card = CardRegistry(cards=(make_card("c", source_trust=1.0),))
    chain = [
        BankEntry(trajectory=make_record(item_id=f"r{i}"), implicated_card="c")
        for i in range(20)
    ]
    sequence = hypercorrection_updates(chain, BankConfig(), one_card)
    for n, update in enumerate(sequence, start=1):
        assert update.new_trust == 1.0 * 0.5**n

    # double application trips the optimistic concurrency check
    path = tmp_path / "cards.json"
    path.write_text(
        json.dumps(
            {
                "cards": [
                    {
                        "id": "c",
                        "name": "Card",
                        "description": "d",
                        "apply_when": 'contains:"x"',
                        "cheap_probe": "kind:doc",
                        "offloading_type": "procedural",
                        "source_trust": 0.8,
                        "provenance": "first_party",
                        "stale": False,
                        "body_ref": "inline:b",
                    }
                ]
            }
        ),
        encoding="utf-8",
    )
    batch = [TrustUpdate("c", 0.8, 0.4, "confident failure")]
    apply_updates(path, batch)
    with pytest.raises(StaleTrustError):
        apply_updates(path, batch)
    print(
        f"[acceptance 7] {expected} updates from 10000 entries, exclusive and "
        f"exactly geometric; double apply rejected: PASS"
    )


def _random_expr(rng: random.Random, depth: int):
    tags = ("doc", "code", "html", "csv", "legacy_input", "a-b.c_1")
    strings = ("task", "weird \"quote\"", "back\\slash", "émoji ok", "x y z", "")
    patterns = ("[a-z]+", "a|b", "task.?", "v\\d+", "^start", "end$")
    if depth <= 0 or rng.random() < 0.3:
        pick = rng.randrange(4)
        if pick == 0:
            return Contains(rng.choice(strings))
        if pick == 1:
            return Matches(rng.choice(patterns))
        if pick == 2:
            return Kind(rng.choice(tags))
        return Mime(rng.choice(tags))
    pick = rng.randrange(3)
    if pick == 0:
        return Not(_random_expr(rng, depth - 1))
    combiner = And if pick == 1 else Or
    return combiner(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_dsl_round_trip_and_malformed_corpus():
    """8: parse(print(t)) == t for 1000 generated trees; errors are positioned."""
    rng = random.Random(8128)
    for case in range(1000):
        tree = _random_expr(rng, rng.randint(0, 6))
        printed = print_predicate(tree)
        assert parse_predicate(printed) == tree, (case, printed)

    for text in _MALFORMED_CORPUS:
        with pytest.raises(PredicateSyntaxError) as err:
            parse_predicate(text)
        assert 0 <= err.value.offset <= len(text.encode("utf-8"))
    print(
        f"[acceptance 8] 1000 round-trips and {len(_MALFORMED_CORPUS)} "
        f"positioned parse errors: PASS"
    )


def test_determinism_and_offline_operation(
    matrix_run, shipped_suite, shipped_registry, shipped_script, monkeypatch
):
    """9: byte-identical reruns; the scripted matrix needs no network."""

    def refuse(*args, **kwargs):
        raise AssertionError("network access attempted during a scripted run")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)

    again = run_matrix(shipped_suite, shipped_registry, shipped_script)
    first = emit_report(matrix_run.table, "machine").encode("utf-8")
    second = emit_report(again, "machine").encode("utf-8")
    assert first == second
    print(
        f"[acceptance 9] two runs byte-identical ({len(first)} bytes) with "
        f"sockets disabled: PASS"
    )

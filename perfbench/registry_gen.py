"""Seeded synthetic inputs for the route_registry_10k workload.

Writes a card file, a suite and a behaviour script that mesa loads through
its public loaders, plus `expected.json`: for every prompt, which cards match,
which probes pass and which loaded cards the vigilance gate drops. The
expectations come from this file's own small predicate model, never from
mesa's evaluator, so a routing defect shows as a gate failure.

Run standalone: python3 perfbench/registry_gen.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

CARD_COUNT = 10_000
PROMPT_COUNT = 100
VOCAB = [f"t{i:04d}" for i in range(400)]
WORDS_PER_PROMPT = 8
KINDS = ["code", "math", "legal", "med", "data", "web"]
MIMES = ["pdf", "png", "csv", "json"]
PROVENANCE_TRUST = {
    "first_party": (0.75, 0.95),
    "verified_publisher": (0.6, 0.8),
    "community_unverified": (0.2, 0.4),
    "unknown": (0.05, 0.2),
}
TRUST_GATE = 0.7  # RoutingConfig().trust_gate
PROBE_PASS_BELOW = 0.55  # RoutingConfig().self_low + probe.PROBE_SLACK
PROBE_SIGNALS = (0.2, 0.4, 0.7, 0.9)
# Distinct `matches:` patterns the cards draw from. The shipped registry has
# none, so no real registry sets a share; the pool stays well under the 512
# patterns that mesa's compiled-pattern cache holds, so the workload measures
# predicate evaluation rather than regex compilation.
REGEX_POOL = 256

# Predicates are tuples: ("contains", tok) ("matches", toks) ("kind", k)
# ("mime", m) ("not", x) ("and", a, b) ("or", a, b).


def _holds(node: tuple, prompt: dict) -> bool:
    op = node[0]
    if op == "contains":
        return node[1].lower() in prompt["words"]
    if op == "matches":
        return any(tok in prompt["words"] for tok in node[1])
    if op == "kind":
        return node[1] in prompt["kinds"]
    if op == "mime":
        return node[1] in prompt["mimes"]
    if op == "not":
        return not _holds(node[1], prompt)
    if op == "and":
        return _holds(node[1], prompt) and _holds(node[2], prompt)
    return _holds(node[1], prompt) or _holds(node[2], prompt)


def _render(node: tuple) -> str:
    op = node[0]
    if op == "contains":
        return f'contains:"{node[1]}"'
    if op == "matches":
        return 'matches:"(?:' + "|".join(node[1]) + ')"'
    if op in ("kind", "mime"):
        return f"{op}:{node[1]}"
    if op == "not":
        return f"NOT ({_render(node[1])})"
    return f"({_render(node[1])}) {op.upper()} ({_render(node[2])})"


def _word(rng: random.Random) -> tuple:
    tok = rng.choice(VOCAB)
    # contains is case-insensitive, so some cards spell the token in capitals
    return ("contains", tok.upper() if rng.random() < 0.3 else tok)


def _apply_when(rng: random.Random, shape: int, regexes: list[tuple]) -> tuple:
    if shape < 3:
        return _word(rng)
    if shape == 3:
        return ("matches", rng.choice(regexes))
    if shape < 6:
        return ("and", _word(rng), ("kind", rng.choice(KINDS)))
    if shape < 8:
        return ("or", _word(rng), ("and", ("kind", rng.choice(KINDS)), ("mime", rng.choice(MIMES))))
    if shape < 10:
        return ("and", ("or", _word(rng), _word(rng)), ("not", ("mime", rng.choice(MIMES))))
    return ("and", ("not", ("kind", rng.choice(KINDS))), _word(rng))


def _cheap_probe(rng: random.Random) -> tuple:
    shape = rng.randrange(3)
    if shape == 0:
        return ("not", ("mime", rng.choice(MIMES)))
    if shape == 1:
        return ("or", ("kind", rng.choice(KINDS)), ("kind", rng.choice(KINDS)))
    return ("not", ("kind", rng.choice(KINDS)))


def generate(seed: int, out: Path) -> dict:
    """Write cards.json, suite.json, script.json and expected.json; return the shares."""
    rng = random.Random(seed)
    regexes = [tuple(rng.sample(VOCAB, 3)) for _ in range(REGEX_POOL)]
    cards, models = [], []
    for i in range(CARD_COUNT):
        apply_when, cheap_probe = _apply_when(rng, i % 12, regexes), _cheap_probe(rng)
        provenance = rng.choice(sorted(PROVENANCE_TRUST))
        low, high = PROVENANCE_TRUST[provenance]
        card = {
            "id": f"c{i:05d}",
            "name": f"synthetic card {i}",
            "description": "generated for the routing benchmark",
            "apply_when": _render(apply_when),
            "cheap_probe": _render(cheap_probe),
            "offloading_type": "procedural",
            "source_trust": round(rng.uniform(low, high), 3),
            "provenance": provenance,
            "stale": rng.random() < 0.25,
            "body_ref": f"inline:steps for synthetic card {i}",
        }
        cards.append(card)
        models.append((apply_when, cheap_probe))

    items, rows, expected = [], [], []
    matched_total = passed_total = gated_total = 0
    for p in range(PROMPT_COUNT):
        words = rng.sample(VOCAB, WORDS_PER_PROMPT)
        prompt = {
            "words": set(words),
            "kinds": set(rng.sample(KINDS, 1 + p % 2)),
            "mimes": set(rng.sample(MIMES, 1)) if p % 5 < 3 else set(),
        }
        item_id = f"r{p:03d}"
        tags = "trap" if rng.random() < 0.2 else ""
        items.append({
            "id": item_id,
            "slice": "A",
            "prompt": f"Route request {p}: " + " ".join(words),
            "kind_tags": sorted(prompt["kinds"]),
            "attachments": [{"mime_tag": m, "bytes_len": 1024} for m in sorted(prompt["mimes"])],
            "injected_card_ids": [],
            "gold_action": "direct",
            "gold_answer": None,
        })

        def row(key: str, value: object) -> None:
            rows.append({"item": item_id, "condition": "*", "key": key, "value": value})

        row("p_self", round(rng.uniform(0.2, 0.9), 2))
        row("tags", tags)
        row("source:__tool__", round(rng.uniform(0.2, 0.9), 2))
        if tags:
            row("source:__verify__", round(rng.uniform(0.2, 0.9), 2))
        matched, passed, gated = [], [], []
        for card, (apply_when, cheap_probe) in zip(cards, models):
            if not _holds(apply_when, prompt):
                continue
            matched.append(card["id"])
            signal = rng.choice(PROBE_SIGNALS)
            row(f"probe:{card['id']}", signal)
            if _holds(cheap_probe, prompt) and signal < PROBE_PASS_BELOW:
                passed.append(card["id"])
                row(f"source:{card['id']}", round(rng.uniform(0.3, 0.95), 2))
                trust = card["source_trust"] * (0.5 if card["stale"] else 1.0)
                if trust < TRUST_GATE:
                    gated.append(card["id"])
        expected.append({"item": item_id, "matched": matched, "passed": passed, "gated": sorted(gated)})
        matched_total += len(matched)
        passed_total += len(passed)
        gated_total += len(gated)

    out.mkdir(parents=True, exist_ok=True)
    for name, doc in (
        ("cards.json", {"cards": cards}),
        ("suite.json", {"items": items}),
        ("script.json", {"rows": rows}),
        ("expected.json", {"seed": seed, "prompts": expected}),
    ):
        (out / name).write_text(json.dumps(doc), encoding="utf-8")
    return {
        "seed": seed,
        "cards": CARD_COUNT,
        "prompts": PROMPT_COUNT,
        "regex_patterns": len({_render(m) for m, _ in models if m[0] == "matches"}),
        "match_share": matched_total / (CARD_COUNT * PROMPT_COUNT),
        "pass_share": passed_total / max(1, matched_total),
        "gate_share": gated_total / max(1, passed_total),
    }


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.seed, args.out)))

"""Deterministic fixture generator for the shipped benchmark.

Builds the 150-item suite, its card registry, and the behavior script that
drives the scripted backend, plus a 3-item supplementary mini suite that
makes confidence decontamination outcome-visible. Everything is synthesized
from literal tables (no RNG), so regeneration is byte-stable:

    python3 tools/gen_fixtures.py [--out DIR]

Suite composition, 50 items per slice:

* Slice A (epistemic boundary): 25 well-known facts the agent should answer
  directly, 25 time-sensitive questions where parametric memory is stale and
  a retrieval tool is the right call.
* Slice B (procedural routing): 25 tasks that inject a low-trust community
  or unknown-provenance card (the vigilance gate must refuse it), 10 HTML
  cleanup tasks with a trusted first-party card the cheap probe shows to be
  unnecessary, and 15 tasks with a stale publisher card that both the gate
  and the probe reject independently.
* Slice C (evaluative control): 25 trivial checks that deserve an immediate
  stop, 25 classic trap questions where only verification gets the right
  answer.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Iterable

_DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "mesa" / "data"


# ---------------------------------------------------------------------------
# Literal content tables

# (prompt, answer) pairs the agent is expected to answer from memory.
_FACTS: tuple[tuple[str, str], ...] = (
    ("What is the chemical symbol for gold?", "Au"),
    ("How many sides does a hexagon have?", "6"),
    ("What is the capital of France?", "Paris"),
    ("In what year did a crewed mission first land on the Moon?", "1969"),
    ("What is the boiling point of water at sea level in Celsius?", "100"),
    ("Which planet is known as the Red Planet?", "Mars"),
    ("What is the largest ocean on Earth?", "The Pacific Ocean"),
    ("How many minutes are in an hour?", "60"),
    ("What gas do plants absorb for photosynthesis?", "Carbon dioxide"),
    ("Who wrote the play Romeo and Juliet?", "William Shakespeare"),
    ("What is the square root of 81?", "9"),
    ("Which element has atomic number 1?", "Hydrogen"),
    ("What is the capital of Japan?", "Tokyo"),
    ("How many continents are there on Earth?", "7"),
    ("What is the freezing point of water in Fahrenheit?", "32"),
    ("Which keyboard instrument typically has 88 keys?", "The piano"),
    ("What is the currency of the United Kingdom?", "Pound sterling"),
    ("How many legs does a spider have?", "8"),
    ("What is the tallest mountain above sea level?", "Mount Everest"),
    ("Which language has the most native speakers worldwide?", "Mandarin Chinese"),
    ("What does DNA stand for?", "Deoxyribonucleic acid"),
    ("How many degrees are in a right angle?", "90"),
    ("What is the capital of Australia?", "Canberra"),
    ("Which organ pumps blood through the human body?", "The heart"),
    ("What is the chemical formula for table salt?", "NaCl"),
)

# (prompt, live answer from the tool, stale answer from memory).
_LIVE: tuple[tuple[str, str, str], ...] = (
    (
        "What is Contoso's stock price right now?",
        "Contoso is trading at $147.32.",
        "Contoso is trading at $92.10.",
    ),
    (
        "What is the weather in Reykjavik at this moment?",
        "Reykjavik is 4 C with light rain.",
        "Reykjavik is 12 C and sunny.",
    ),
    (
        "Who won yesterday's late game in the continental hockey final?",
        "Northport won 3-2 in overtime.",
        "Southgate won 4-1.",
    ),
    (
        "What is the current UTC time?",
        "The current UTC time is 14:05.",
        "The current UTC time is 09:30.",
    ),
    (
        "What is the latest stable release of the Quarrel framework?",
        "Quarrel 8.3.1 is the latest stable release.",
        "Quarrel 5.0.0 is the latest stable release.",
    ),
    (
        "How long is the security line at the airfield's Gate B right now?",
        "About 25 minutes at Gate B.",
        "About 5 minutes at Gate B.",
    ),
    (
        "What is today's EUR to USD exchange rate?",
        "1 EUR buys 1.0842 USD today.",
        "1 EUR buys 1.3200 USD today.",
    ),
    (
        "Is the Cedar Street bridge open to traffic this morning?",
        "No, the Cedar Street bridge is closed for repairs.",
        "Yes, the Cedar Street bridge is open.",
    ),
    (
        "What is the current air quality index in Delhi?",
        "Delhi's AQI is 212 right now.",
        "Delhi's AQI is 58 right now.",
    ),
    (
        "Which headline is on the front page of the city paper today?",
        "The front page covers the transit strike vote.",
        "The front page covers the harvest festival.",
    ),
    (
        "What is the spot price of silver at the moment?",
        "Silver is at $31.44 per ounce.",
        "Silver is at $16.80 per ounce.",
    ),
    (
        "How many open seats remain on tonight's 7pm ferry?",
        "12 seats remain on the 7pm ferry.",
        "The 7pm ferry is wide open.",
    ),
    (
        "What is the current wait time at the Elm Clinic urgent care?",
        "The Elm Clinic wait is 40 minutes.",
        "The Elm Clinic wait is 10 minutes.",
    ),
    (
        "Did the city council pass the zoning measure this afternoon?",
        "Yes, the measure passed 6-3 this afternoon.",
        "The vote has not been scheduled.",
    ),
    (
        "What is the temperature in Phoenix right now?",
        "Phoenix is 41 C right now.",
        "Phoenix is 28 C right now.",
    ),
    (
        "Which song tops the streaming chart this week?",
        "Glass Harbor tops the chart this week.",
        "Paper Lanterns tops the chart this week.",
    ),
    (
        "What is the current occupancy of the Midtown parking garage?",
        "The Midtown garage is 92 percent full.",
        "The Midtown garage is 40 percent full.",
    ),
    (
        "How much rain fell at the reservoir in the last 24 hours?",
        "The reservoir logged 18 mm in 24 hours.",
        "The reservoir logged no rain.",
    ),
    (
        "What is the posted delay on the Northern rail line right now?",
        "The Northern line is delayed 20 minutes.",
        "The Northern line is running on time.",
    ),
    (
        "What is the live score in the Rovers match?",
        "Rovers lead 2-0 in the 70th minute.",
        "The match ended 1-1.",
    ),
    (
        "What is the current price of one Bitcoin in USD?",
        "Bitcoin is at $103,250.",
        "Bitcoin is at $19,400.",
    ),
    (
        "Is the pollen count high in Austin today?",
        "Austin's pollen count is very high today.",
        "Austin's pollen count is low today.",
    ),
    (
        "Which runway is active at the coastal airfield right now?",
        "Runway 27 is active.",
        "Runway 09 is active.",
    ),
    (
        "What is the queue depth on the build farm at this moment?",
        "The build farm queue is 34 jobs deep.",
        "The build farm queue is empty.",
    ),
    (
        "What does the tide table show for the harbor this evening?",
        "High tide is at 18:42 this evening.",
        "High tide is at 21:15 this evening.",
    ),
)

# (prompt, answer) pairs so trivial that further compute is waste.
_TRIVIA: tuple[tuple[str, str], ...] = (
    ("Is the word 'cat' shorter than the word 'caterpillar'?", "Yes"),
    ("What is 2 plus 2?", "4"),
    ("Does Tuesday come after Monday?", "Yes"),
    ("Is ice colder than boiling water?", "Yes"),
    ("How many letters are in the word 'dog'?", "3"),
    ("Is the number 10 even?", "Yes"),
    ("What is 10 minus 7?", "3"),
    ("Does the letter A come before B in the alphabet?", "Yes"),
    ("Is a triangle a shape with three sides?", "Yes"),
    ("What is 3 times 3?", "9"),
    ("Does the word 'book' contain the letter k?", "Yes"),
    ("What is the first letter of the word 'apple'?", "a"),
    ("Is 100 larger than 10?", "Yes"),
    ("What is 12 divided by 4?", "3"),
    ("Does a week have 7 days?", "Yes"),
    ("What is 0 plus 0?", "0"),
    ("Is noon earlier than midnight of the same day?", "Yes"),
    ("What is 5 plus 5?", "10"),
    ("Is 'zzz' made of the letter z repeated?", "Yes"),
    ("What is 9 minus 9?", "0"),
    ("Is one dozen equal to 12?", "Yes"),
    ("What is 1 times 100?", "100"),
    ("Does 'abc' contain the letter b?", "Yes"),
    ("What is 14 plus 1?", "15"),
    ("Is the last letter of 'sun' the letter n?", "Yes"),
)

# (prompt, verified correct answer, intuitive wrong answer).
_TRAPS: tuple[tuple[str, str, str], ...] = (
    (
        "A bat and a ball cost $1.10 together. The bat costs $1.00 more than "
        "the ball. How much does the ball cost?",
        "$0.05",
        "$0.10",
    ),
    (
        "If 5 machines take 5 minutes to make 5 widgets, how long would 100 "
        "machines take to make 100 widgets?",
        "5 minutes",
        "100 minutes",
    ),
    (
        "A lily pad patch doubles daily and covers a lake in 48 days. How "
        "many days does it take to cover half the lake?",
        "47 days",
        "24 days",
    ),
    (
        "How many of each animal did Moses take on the ark?",
        "None; it was Noah",
        "Two",
    ),
    (
        "A farmer had 15 sheep and all but 8 died. How many are left?",
        "8",
        "7",
    ),
    (
        "You are running a race and pass the person in second place. What "
        "place are you in now?",
        "Second",
        "First",
    ),
    (
        "How many months of the year have 28 days?",
        "All 12",
        "1",
    ),
    (
        "A doctor gives you 3 pills and says to take one every half hour. "
        "How long do the pills last?",
        "1 hour",
        "1.5 hours",
    ),
    (
        "Divide 30 by one half and add 10. What do you get?",
        "70",
        "25",
    ),
    (
        "A rooster lays an egg on the apex of a barn roof. Which way does "
        "the egg roll?",
        "Roosters do not lay eggs",
        "Down the steeper side",
    ),
    (
        "How many cubic meters of dirt are in a hole 3 m long, 2 m wide, "
        "and 1 m deep?",
        "None; a hole is empty",
        "6",
    ),
    (
        "A plane crashes exactly on the border of two countries. Where do "
        "they bury the survivors?",
        "Survivors are not buried",
        "In the country of the crash",
    ),
    (
        "What weighs more, a kilogram of feathers or a kilogram of bricks?",
        "They weigh the same",
        "The bricks",
    ),
    (
        "A snail climbs 3 m up a 10 m well each day and slips back 2 m each "
        "night. On which day does it reach the top?",
        "Day 8",
        "Day 10",
    ),
    (
        "Is it legal for a man to marry his widow's sister?",
        "No; he is dead",
        "Yes",
    ),
    (
        "Johnny's mother had three children: April, May, and who?",
        "Johnny",
        "June",
    ),
    (
        "How many times can you subtract 10 from 100?",
        "Once; after that it is 90",
        "10 times",
    ),
    (
        "An electric train heads north at 80 km/h with a west wind blowing. "
        "Which way does the smoke drift?",
        "Electric trains make no smoke",
        "East",
    ),
    (
        "How many birthdays does the average person have?",
        "One",
        "About 80",
    ),
    (
        "Before Mount Everest was discovered, what was the highest mountain "
        "on Earth?",
        "Mount Everest",
        "K2",
    ),
    (
        "With one match, in a dark room with a candle, an oil lamp, and a "
        "stove, what do you light first?",
        "The match",
        "The candle",
    ),
    (
        "Two coins add up to 30 cents and one of them is not a nickel. What "
        "are the coins?",
        "A quarter and a nickel",
        "That is impossible",
    ),
    (
        "A red house is made of red bricks and a blue house of blue bricks. "
        "What is a greenhouse made of?",
        "Glass",
        "Green bricks",
    ),
    (
        "There are 6 apples and you take away 4. How many apples do you "
        "have?",
        "4",
        "2",
    ),
    (
        "What occurs twice in a week, once in a year, and never in a day?",
        "The letter e",
        "A full moon",
    ),
)

# Names for the low-trust community/unknown helper cards of Slice B.
_GATE_CARD_NAMES: tuple[str, ...] = (
    "Date and time conversion toolkit",
    "Meeting minutes power pack",
    "Action item auto-extractor",
    "Agenda condenser macro",
    "One-click notes summarizer",
)


# ---------------------------------------------------------------------------
# Builders


def _attachment(mime_tag: str, bytes_len: int) -> dict:
    return {"mime_tag": mime_tag, "bytes_len": bytes_len}


def _item(
    item_id: str,
    slice_name: str,
    prompt: str,
    gold_action: str,
    gold_answer: str | None,
    kind_tags: Iterable[str] = (),
    attachments: Iterable[dict] = (),
    injected_card_ids: Iterable[str] = (),
) -> dict:
    return {
        "id": item_id,
        "slice": slice_name,
        "prompt": prompt,
        "kind_tags": sorted(kind_tags),
        "attachments": list(attachments),
        "injected_card_ids": list(injected_card_ids),
        "gold_action": gold_action,
        "gold_answer": gold_answer,
    }


def _card(
    card_id: str,
    name: str,
    description: str,
    apply_when: str,
    cheap_probe: str,
    source_trust: float,
    provenance: str,
    stale: bool = False,
    offloading_type: str = "procedural",
    body: str = "",
) -> dict:
    return {
        "id": card_id,
        "name": name,
        "description": description,
        "apply_when": apply_when,
        "cheap_probe": cheap_probe,
        "offloading_type": offloading_type,
        "source_trust": round(source_trust, 4),
        "provenance": provenance,
        "stale": stale,
        "body_ref": f"inline:{body or name}",
    }


class _ScriptBuilder:
    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, item_id: str, key: str, value: float | str, condition: str = "*") -> None:
        if isinstance(value, float):
            value = round(value, 4)
        self.rows.append(
            {"item": item_id, "condition": condition, "key": key, "value": value}
        )

    def signals(
        self,
        item_id: str,
        p_self: float,
        p_self_post: float,
        tags: str,
        p_tool: float,
        p_verify: float,
        answer_direct: str,
        answer_tool: str,
        answer_verify: str,
    ) -> None:
        self.add(item_id, "p_self", p_self)
        self.add(item_id, "p_self_post", p_self_post)
        self.add(item_id, "tags", tags)
        self.add(item_id, "source:__tool__", p_tool)
        self.add(item_id, "source:__verify__", p_verify)
        self.add(item_id, "answer:direct", answer_direct)
        self.add(item_id, "answer:tool", answer_tool)
        self.add(item_id, "answer:verify", answer_verify)
        for variant, rel in (("DIRECT", 0.9), ("STOP", 0.05), ("CALL_TOOL", 0.3), ("VERIFY", 0.2)):
            self.add(item_id, f"source:relevance:{variant}", rel)

    def card_signals(
        self,
        item_id: str,
        card_id: str,
        probe: float,
        p_source: float,
        answer_commit: str,
        answer_hedge: str,
    ) -> None:
        self.add(item_id, f"probe:{card_id}", probe)
        self.add(item_id, f"source:{card_id}", p_source)
        self.add(item_id, f"source:relevance:LOAD_SKILL:{card_id}", 0.95)
        self.add(item_id, f"source:relevance2:LOAD_SKILL:{card_id}", 0.97)
        self.add(item_id, f"answer:skill:{card_id}:commit", answer_commit)
        self.add(item_id, f"answer:skill:{card_id}:hedge", answer_hedge)


def build_main() -> tuple[dict, dict, dict]:
    """The 150-item suite, its registry, and its behavior script."""
    items: list[dict] = []
    cards: list[dict] = []
    script = _ScriptBuilder()

    # Slice A, band 1: answerable facts. Direct answer is the gold answer.
    for i, (prompt, answer) in enumerate(_FACTS):
        item_id = f"a_fact_{i:02d}"
        items.append(_item(item_id, "A", prompt, "direct", answer))
        script.signals(
            item_id,
            p_self=0.90 + 0.01 * (i % 10),
            p_self_post=0.90,
            tags="",
            p_tool=0.30,
            p_verify=0.20,
            answer_direct=answer,
            answer_tool=answer,
            answer_verify=answer,
        )

    # Slice A, band 2: time-sensitive questions. Memory is stale; the tool
    # has the live value.
    for i, (prompt, live, stale_answer) in enumerate(_LIVE):
        item_id = f"a_live_{i:02d}"
        items.append(_item(item_id, "A", prompt, "call_tool", live))
        script.signals(
            item_id,
            p_self=0.05 + 0.01 * (i % 16),
            p_self_post=0.95,
            tags="",
            p_tool=0.85 + 0.01 * (i % 11),
            p_verify=0.20,
            answer_direct=stale_answer,
            answer_tool=live,
            answer_verify=live,
        )

    # Slice B, band 1: each item injects one low-trust helper card that
    # claims near-certain success. The gate must refuse it; the retrieval
    # tool is the honest fallback.
    for i in range(25):
        marker = f"MTG-{1400 + i}"
        if i == 0:
            card_id = "date_time"
            prompt = f"Convert every timestamp in meeting notes {marker} to UTC."
        else:
            card_id = f"g_card_{i:02d}"
            prompt = f"Extract the action items from meeting notes {marker}."
        item_id = f"b_gate_{i:02d}"
        unknown = i % 5 < 2
        items.append(
            _item(
                item_id,
                "B",
                prompt,
                "gate_skill",
                None,
                kind_tags=["document"],
                injected_card_ids=[card_id],
            )
        )
        cards.append(
            _card(
                card_id,
                _GATE_CARD_NAMES[i % len(_GATE_CARD_NAMES)],
                f"Community macro pack promising one-click handling of {marker}.",
                apply_when=f'contains:"{marker}"',
                cheap_probe="kind:document",
                source_trust=0.22 + 0.01 * (i % 9) if unknown else 0.05 + 0.01 * i,
                provenance="unknown" if unknown else "community_unverified",
                body=f"Run the bundled macro over {marker} and paste its output.",
            )
        )
        script.signals(
            item_id,
            p_self=0.30 + 0.01 * (i % 11),
            p_self_post=0.90,
            tags="",
            p_tool=0.72 + 0.01 * (i % 7),
            p_verify=0.20,
            answer_direct=f"From memory, {marker} had no clear action items.",
            answer_tool=f"Retrieved {marker} and extracted its action items.",
            answer_verify=f"Cross-checked {marker} line by line.",
        )
        script.card_signals(
            item_id,
            card_id,
            probe=0.20 + 0.01 * (i % 21),
            p_source=0.92 + 0.01 * (i % 7),
            answer_commit=f"The macro pack says {marker} approved budget line 7.",
            answer_hedge=f"The macro pack output for {marker} looks unreliable.",
        )

    # Slice B, band 2: trusted first-party cards on HTML cleanup tasks the
    # agent can already handle; only the cheap probe reveals the load is
    # pointless.
    for i in range(10):
        marker = f"NL-{88 + i}"
        item_id = f"b_html_{i:02d}"
        card_id = f"h_card_{i:02d}"
        tool_answer = f"Sanitized {marker}: removed 4 tracking pixels."
        items.append(
            _item(
                item_id,
                "B",
                f"Strip the tracking pixels out of newsletter draft {marker}.",
                "call_tool",
                tool_answer,
                kind_tags=["html_input"],
                attachments=[_attachment("html", 2048 + i)],
                injected_card_ids=[card_id],
            )
        )
        cards.append(
            _card(
                card_id,
                f"In-house HTML sanitizer recipe {i}",
                "First-party recipe for cleaning marketing HTML drafts.",
                apply_when=f'contains:"{marker}" AND mime:html',
                cheap_probe="mime:html",
                source_trust=0.88 + 0.01 * (i % 8),
                provenance="first_party",
                body="Strip script and tracking nodes, then re-serialize.",
            )
        )
        script.signals(
            item_id,
            p_self=0.36 + 0.01 * (i % 7),
            p_self_post=0.92,
            tags="",
            p_tool=0.74 + 0.01 * (i % 3),
            p_verify=0.20,
            answer_direct=f"Rough cleanup of {marker} from memory.",
            answer_tool=tool_answer,
            answer_verify=f"Verified {marker} against the tracker blocklist.",
        )
        script.card_signals(
            item_id,
            card_id,
            probe=0.85 + 0.01 * i,
            p_source=0.94 + 0.01 * (i % 5),
            answer_commit=f"Sanitizer recipe applied to {marker}.",
            answer_hedge=f"Sanitizer recipe tentatively applied to {marker}.",
        )

    # Slice B, band 3: stale publisher cards. The trust gate and the cheap
    # probe each reject them independently.
    for i in range(15):
        marker = f"INV-{300 + i}"
        item_id = f"b_belt_{i:02d}"
        card_id = f"s_card_{i:02d}"
        tool_answer = f"{marker} reconciled; 2 discrepancies flagged."
        items.append(
            _item(
                item_id,
                "B",
                f"Reconcile the inventory export {marker} against the general ledger.",
                "call_tool",
                tool_answer,
                kind_tags=["document"],
                injected_card_ids=[card_id],
            )
        )
        cards.append(
            _card(
                card_id,
                f"Legacy inventory migration assistant {i}",
                "Publisher-signed playbook for a retired export format.",
                apply_when=f'contains:"{marker}"',
                cheap_probe="mime:csv" if i % 2 == 0 else "kind:legacy_input",
                source_trust=0.80,
                provenance="verified_publisher",
                stale=True,
                body="Map the legacy columns, then diff against the ledger.",
            )
        )
        script.signals(
            item_id,
            p_self=0.30 + 0.01 * (i % 9),
            p_self_post=0.90,
            tags="",
            p_tool=0.80 + 0.01 * (i % 6),
            p_verify=0.20,
            answer_direct=f"From memory, {marker} probably balances.",
            answer_tool=tool_answer,
            answer_verify=f"Re-audited {marker} by hand.",
        )
        script.card_signals(
            item_id,
            card_id,
            probe=0.50,
            p_source=0.90,
            answer_commit=f"Migration assistant reconciled {marker}.",
            answer_hedge=f"Migration assistant output for {marker} is tentative.",
        )

    # Slice C, band 1: trivia that deserves an immediate stop. The direct
    # answer matches gold, so even a naive scorer is graded correct here.
    for i, (prompt, answer) in enumerate(_TRIVIA):
        item_id = f"c_triv_{i:02d}"
        items.append(_item(item_id, "C", prompt, "stop", answer))
        script.signals(
            item_id,
            p_self=0.97 + 0.01 * (i % 3),
            p_self_post=0.98,
            tags="trivial",
            p_tool=0.20,
            p_verify=0.20,
            answer_direct=answer,
            answer_tool=answer,
            answer_verify=answer,
        )

    # Slice C, band 2: trap questions. The intuitive direct answer is wrong;
    # only the verifier returns gold. A reflective second relevance pass
    # doubles down on answering directly.
    for i, (prompt, correct, wrong) in enumerate(_TRAPS):
        item_id = f"c_trap_{i:02d}"
        items.append(_item(item_id, "C", prompt, "verify", correct))
        script.signals(
            item_id,
            p_self=0.45 + 0.01 * (i % 8),
            p_self_post=0.90,
            tags="trap",
            p_tool=0.20,
            p_verify=0.90 + 0.01 * (i % 5),
            answer_direct=wrong,
            answer_tool=f"{wrong} (unverified search snippet)",
            answer_verify=correct,
        )
        script.add(item_id, "source:relevance2:DIRECT", 0.92)

    # Two registry-only cards for the linter to flag; no item injects them.
    cards.append(
        _card(
            "lint_vacuous_helper",
            "Universal task helper",
            "Claims to apply to absolutely everything.",
            apply_when='contains:""',
            cheap_probe="kind:document",
            source_trust=0.10,
            provenance="community_unverified",
            body="Generic advice with no task anchor.",
        )
    )
    cards.append(
        _card(
            "lint_redundant_helper",
            "Echo probe helper",
            "Ships a probe identical to its applicability predicate.",
            apply_when='contains:"echo-probe-demo"',
            cheap_probe='contains:"echo-probe-demo"',
            source_trust=0.30,
            provenance="community_unverified",
            body="Probe and applicability are the same check.",
        )
    )

    return {"items": items}, {"cards": cards}, {"rows": script.rows}


def build_mini() -> tuple[dict, dict, dict]:
    """Three-item suite where decontamination visibly changes an outcome.

    Item m_tz loads a mid-trust card: with decontamination the terminal
    confidence stays at the low pre-offload value, the answer hedges, and
    the hedge is gold; without it the inflated post-offload confidence
    commits to the card's wrong claim. Items m_snail and m_sdk pin the two
    escape hatches (verification and very high source trust).
    """
    items = [
        _item(
            "m_tz",
            "B",
            "Normalize the shift schedule in TZ-OPS-12 to UTC wall clock times.",
            "load_skill_allowed",
            "Tentatively 09:00 UTC start, pending timezone confirmation.",
            kind_tags=["schedule"],
            injected_card_ids=["tz_playbook"],
        ),
        _item(
            "m_snail",
            "C",
            "A snail climbs 3 feet up a 30 foot well each day and slips back "
            "2 feet each night. How many days until it escapes?",
            "verify",
            "28 days",
        ),
        _item(
            "m_sdk",
            "B",
            "Scaffold a webhook handler with the FastKit SDK starter template.",
            "load_skill_allowed",
            "Scaffolded the handler with the FastKit starter template.",
            kind_tags=["code"],
            injected_card_ids=["firstparty_sdk"],
        ),
    ]
    cards = [
        _card(
            "tz_playbook",
            "Timezone normalization playbook",
            "Publisher walkthrough for shift schedule conversions.",
            apply_when='contains:"TZ-OPS-12"',
            cheap_probe="kind:schedule",
            source_trust=0.75,
            provenance="verified_publisher",
            body="Convert each shift to UTC using the site's zone table.",
        ),
        _card(
            "firstparty_sdk",
            "FastKit SDK scaffolding guide",
            "First-party starter template walkthrough.",
            apply_when='contains:"FastKit"',
            cheap_probe="kind:code",
            source_trust=0.95,
            provenance="first_party",
            body="Generate the handler from the starter template.",
        ),
    ]

    script = _ScriptBuilder()
    script.signals(
        "m_tz",
        p_self=0.30,
        p_self_post=0.93,
        tags="",
        p_tool=0.50,
        p_verify=0.20,
        answer_direct="From memory, shifts start at 09:00 local time.",
        answer_tool="Schedule service returned the shifts in local time.",
        answer_verify="Verified: the schedule timezone is unconfirmed.",
    )
    script.card_signals(
        "m_tz",
        "tz_playbook",
        probe=0.30,
        p_source=0.97,
        answer_commit="09:00 UTC start, confirmed.",
        answer_hedge="Tentatively 09:00 UTC start, pending timezone confirmation.",
    )
    script.signals(
        "m_snail",
        p_self=0.48,
        p_self_post=0.90,
        tags="trap",
        p_tool=0.20,
        p_verify=0.92,
        answer_direct="30 days",
        answer_tool="29 days (unverified search snippet)",
        answer_verify="28 days",
    )
    script.signals(
        "m_sdk",
        p_self=0.35,
        p_self_post=0.96,
        tags="",
        p_tool=0.40,
        p_verify=0.20,
        answer_direct="Here is a generic webhook sketch.",
        answer_tool="Fetched the generic SDK documentation.",
        answer_verify="Verified the generic sketch compiles.",
    )
    script.card_signals(
        "m_sdk",
        "firstparty_sdk",
        probe=0.25,
        p_source=0.90,
        answer_commit="Scaffolded the handler with the FastKit starter template.",
        answer_hedge="Draft handler scaffold; template use unconfirmed.",
    )
    return {"items": items}, {"cards": cards}, {"rows": script.rows}


def write_fixtures(out_dir: str | Path = _DATA_DIR) -> list[Path]:
    """Write all six fixture files; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    suite, cards, script = build_main()
    mini_suite, mini_cards, mini_script = build_mini()
    docs = {
        "suite.json": suite,
        "cards.json": cards,
        "script.json": script,
        "suite_mini.json": mini_suite,
        "cards_mini.json": mini_cards,
        "script_mini.json": mini_script,
    }
    written = []
    for name, doc in docs.items():
        path = out / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        written.append(path)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 tools/gen_fixtures.py",
        description="Regenerate the shipped benchmark fixture files.",
    )
    parser.add_argument(
        "--out",
        default=str(_DATA_DIR),
        help="output directory (default: src/mesa/data)",
    )
    args = parser.parse_args(argv)
    for path in write_fixtures(args.out):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

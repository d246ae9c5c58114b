"""Deterministic evaluation harness.

Loads a benchmark suite, runs the full condition matrix against a scripted
backend, folds trajectories into a per-condition, per-slice accuracy table,
and renders it as text, CSV, or a machine-readable JSON document that
round-trips losslessly. Also houses the two-proportion z-test and the
normal CDF it needs.

Conditions: two naive scorers (baseline, reflection) and five dual-scorer
variants (full plus one ablation each for the probe, vigilance,
decontamination, and dual-confidence mechanisms).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping, Sequence

from mesa.backend import BehaviorScript, ScriptedBackend
from mesa.cards import CardRegistry
from mesa.codec import Codec, decode_json, read_document
from mesa.context import Attachment, TaskContext
from mesa.errors import CoverageError, MesaError, SuiteFormatError
from mesa.router import (
    FinalAnswerClass,
    GoldAction,
    Outcome,
    RoutingConfig,
    TrajectoryRecord,
    run_trajectory,
)


class SliceName(Enum):
    A = "A"  # epistemic boundaries: answer vs call a tool
    B = "B"  # procedural routing: gate adversarial or pointless skills
    C = "C"  # evaluative control: stop on trivia, verify on traps


@dataclass(frozen=True)
class BenchmarkItem:
    """One suite item. context is derived: the routed view of the item, built once
    here and shared by every trajectory that routes the item, under every condition."""

    id: str
    slice: SliceName
    prompt: str
    kind_tags: frozenset[str]
    attachments: tuple[Attachment, ...]
    injected_card_ids: tuple[str, ...]
    gold_action: GoldAction
    gold_answer: str | None
    context: TaskContext = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("item id must be non-empty")
        if not self.prompt:
            raise ValueError(f"item {self.id}: prompt must be non-empty")
        context = TaskContext(self.prompt, frozenset(self.kind_tags), self.attachments)
        object.__setattr__(self, "context", context)


class ConditionName(Enum):
    BASELINE = "baseline"
    REFLECTION = "reflection"
    NO_PROBE = "no_probe"
    NO_VIGILANCE = "no_vigilance"
    NO_DECONTAM = "no_decontam"
    NO_DUALCONF = "no_dualconf"
    FULL = "full"


@dataclass(frozen=True)
class Condition:
    """One column of the evaluation matrix: a scorer plus mechanism toggles.

    A relevance scorer (baseline, reflection) takes no probe, vigilance or
    dual-confidence toggle; decontam_enabled acts on every scorer.
    """

    name: ConditionName
    scorer: str  # "baseline" | "reflection" | "dual"
    probe_enabled: bool
    vigilance_enabled: bool
    decontam_enabled: bool
    dualconf_enabled: bool


# Report row order. The naive scorers come first, the full engine last.
CONDITIONS: tuple[Condition, ...] = (
    Condition(ConditionName.BASELINE, "baseline", False, False, False, False),
    Condition(ConditionName.REFLECTION, "reflection", False, False, False, False),
    Condition(ConditionName.NO_PROBE, "dual", False, True, True, True),
    Condition(ConditionName.NO_VIGILANCE, "dual", True, False, True, True),
    Condition(ConditionName.NO_DECONTAM, "dual", True, True, False, True),
    Condition(ConditionName.NO_DUALCONF, "dual", True, True, True, False),
    Condition(ConditionName.FULL, "dual", True, True, True, True),
)

_BY_NAME = {cond.name.value: cond for cond in CONDITIONS}


def condition_by_name(name: str) -> Condition:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ValueError(f"unknown condition {name!r} (known: {known})") from None


# ---------------------------------------------------------------------------
# Suite loading

_ITEM_FIELDS = {f.name for f in fields(BenchmarkItem) if f.init}


def _parse_attachment(raw: object, where: str) -> Attachment:
    try:
        mime_tag, bytes_len = raw["mime_tag"], raw["bytes_len"]  # type: ignore[index]
    except (KeyError, TypeError) as exc:
        raise SuiteFormatError(f"{where}: bad attachment: {exc}") from exc
    if not isinstance(mime_tag, str):
        raise SuiteFormatError(f"{where}: bad attachment: mime_tag must be a string")
    if not isinstance(bytes_len, int) or isinstance(bytes_len, bool):
        raise SuiteFormatError(f"{where}: bad attachment: bytes_len must be an integer")
    try:
        return Attachment(mime_tag=mime_tag, bytes_len=bytes_len)
    except ValueError as exc:
        raise SuiteFormatError(f"{where}: bad attachment: {exc}") from exc


def _parse_item(raw: object, index: int) -> BenchmarkItem:
    where = f"item #{index}"
    if not isinstance(raw, dict):
        raise SuiteFormatError(f"{where}: expected an object")
    if raw.get("id"):
        where = f"item {raw['id']!r}"
    unknown = set(raw) - _ITEM_FIELDS
    if unknown:
        raise SuiteFormatError(f"{where}: unknown field(s) {sorted(unknown)}")
    missing = _ITEM_FIELDS - set(raw)
    if missing:
        raise SuiteFormatError(f"{where}: missing field(s) {sorted(missing)}")
    try:
        slice_ = SliceName(raw["slice"])
    except ValueError:
        raise SuiteFormatError(f"{where}: bad slice {raw['slice']!r}") from None
    try:
        gold = GoldAction(raw["gold_action"])
    except ValueError:
        raise SuiteFormatError(f"{where}: bad gold_action {raw['gold_action']!r}") from None
    for name in ("id", "prompt"):
        if not isinstance(raw[name], str):
            raise SuiteFormatError(f"{where}: {name} must be a string")
    for name in ("kind_tags", "attachments", "injected_card_ids"):
        if not isinstance(raw[name], list):
            raise SuiteFormatError(f"{where}: {name} must be a list")
    for name in ("kind_tags", "injected_card_ids"):
        if not all(isinstance(value, str) for value in raw[name]):
            raise SuiteFormatError(f"{where}: {name} must hold only strings")
    parsed_attachments = tuple(_parse_attachment(att, where) for att in raw["attachments"])
    gold_answer = raw["gold_answer"]
    if gold_answer is not None and not isinstance(gold_answer, str):
        raise SuiteFormatError(f"{where}: gold_answer must be a string or null")
    try:
        return BenchmarkItem(
            id=raw["id"],
            slice=slice_,
            prompt=raw["prompt"],
            kind_tags=frozenset(raw["kind_tags"]),
            attachments=parsed_attachments,
            injected_card_ids=tuple(raw["injected_card_ids"]),
            gold_action=gold,
            gold_answer=gold_answer,
        )
    except ValueError as exc:
        raise SuiteFormatError(f"{where}: {exc}") from exc


def load_suite(
    path: str | Path,
    registry: CardRegistry | None = None,
    expected_per_slice: int | None = 50,
) -> tuple[BenchmarkItem, ...]:
    """Load and validate a suite file.

    expected_per_slice enforces equal slice sizes (None disables the check,
    which supplementary mini-suites need). A registry, when given, is used
    to reject dangling injected card ids.
    """
    doc = read_document(path, SuiteFormatError, "suite", "items")
    items = tuple(_parse_item(raw, i) for i, raw in enumerate(doc["items"]))

    seen: set[str] = set()
    for item in items:
        if item.id in seen:
            raise SuiteFormatError(f"duplicate item id {item.id!r}")
        seen.add(item.id)

    if expected_per_slice is not None:
        for slice_ in SliceName:
            count = sum(1 for item in items if item.slice is slice_)
            if count != expected_per_slice:
                raise SuiteFormatError(
                    f"slice {slice_.value} expected {expected_per_slice}, found {count}"
                )

    if registry is not None:
        for item in items:
            for card_id in item.injected_card_ids:
                if card_id not in registry:
                    raise SuiteFormatError(
                        f"item {item.id}: injected card {card_id!r} is not in the registry"
                    )
    return items


# ---------------------------------------------------------------------------
# Matrix runner


@dataclass(frozen=True, slots=True)
class ItemOutcome:
    """One cell of traceability: how one item fared under one condition."""

    condition: str
    item_id: str
    slice: str
    outcome: str
    final_class: str
    diagnostic: str | None = None


@dataclass(frozen=True)
class ResultsTable:
    """Accuracy matrix plus per-item outcomes.

    cells maps condition name -> {slice value -> accuracy, "overall" ->
    mean of the slice accuracies}.
    """

    conditions: tuple[str, ...]
    cells: Mapping[str, Mapping[str, float]]
    items: tuple[ItemOutcome, ...]


def run_matrix(
    suite: Sequence[BenchmarkItem],
    registry: CardRegistry,
    script: BehaviorScript,
    conditions: Sequence[Condition] = CONDITIONS,
    cfg: RoutingConfig = RoutingConfig(),
    on_record: Callable[[TrajectoryRecord], None] | None = None,
) -> ResultsTable:
    """Run every item under every condition and fold into a ResultsTable.

    The script is coverage-checked first so missing fixture keys surface
    before any trajectory runs. Individual trajectory failures are counted
    as Incorrect with a diagnostic and never abort the matrix. on_record,
    when given, observes every finished TrajectoryRecord.
    """
    missing = script.missing_keys(suite, [cond.name.value for cond in conditions])
    if missing:
        raise CoverageError(missing)

    slice_values = [s.value for s in SliceName]
    # Enum values are read through a Python-level property: read each once,
    # not once per trajectory.
    item_slices = [(item, item.slice.value) for item in suite]
    correct_value = Outcome.CORRECT.value
    incorrect_value, stopped_value = Outcome.INCORRECT.value, FinalAnswerClass.STOPPED.value
    outcomes: list[ItemOutcome] = []
    cells: dict[str, dict[str, float]] = {}
    for cond in conditions:
        name = cond.name.value
        backend = ScriptedBackend(script, suite, name)
        correct: dict[str, int] = {s: 0 for s in slice_values}
        totals: dict[str, int] = {s: 0 for s in slice_values}
        for item, slice_value in item_slices:
            try:
                rec = run_trajectory(item, registry, backend, cfg, cond)
                if on_record is not None:
                    on_record(rec)
                outcome = ItemOutcome(
                    condition=name,
                    item_id=item.id,
                    slice=slice_value,
                    outcome=rec.outcome.value,
                    final_class=rec.final_answer_class.value,
                    diagnostic=rec.diagnostic,
                )
            except MesaError as exc:
                outcome = ItemOutcome(
                    condition=name,
                    item_id=item.id,
                    slice=slice_value,
                    outcome=incorrect_value,
                    final_class=stopped_value,
                    diagnostic=str(exc),
                )
            outcomes.append(outcome)
            totals[slice_value] += 1
            if outcome.outcome == correct_value:
                correct[slice_value] += 1
        row: dict[str, float] = {}
        present = [s for s in slice_values if totals[s] > 0]
        for s in present:
            row[s] = correct[s] / totals[s]
        row["overall"] = sum(row[s] for s in present) / len(present) if present else 0.0
        cells[name] = row

    return ResultsTable(
        conditions=tuple(cond.name.value for cond in conditions),
        cells=cells,
        items=tuple(outcomes),
    )


# ---------------------------------------------------------------------------
# Statistics


@dataclass(frozen=True)
class ZTestResult:
    z: float
    p_two_sided: float


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the error function.

    The negative branch is computed as 1 - cdf(-x), so the reflection
    identity holds by construction.
    """
    if not math.isfinite(x):
        raise ValueError("normal_cdf requires finite x")
    if x < 0.0:
        return 1.0 - normal_cdf(-x)
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def two_prop_ztest(k1: int, n1: int, k2: int, n2: int) -> ZTestResult:
    """Pooled two-proportion z-test with a two-sided p value.

    Convention: a pooled proportion of exactly 0 or 1 forces identical
    sample proportions, so the test degenerates to z = 0, p = 1.
    """
    for k, n in ((k1, n1), (k2, n2)):
        if n < 1:
            raise ValueError("sample sizes must be >= 1")
        if not 0 <= k <= n:
            raise ValueError("successes must satisfy 0 <= k <= n")
    pooled = (k1 + k2) / (n1 + n2)
    if pooled in (0.0, 1.0):
        return ZTestResult(z=0.0, p_two_sided=1.0)
    z = (k1 / n1 - k2 / n2) / math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    p = 2.0 * (1.0 - normal_cdf(abs(z)))
    return ZTestResult(z=z, p_two_sided=p)


# ---------------------------------------------------------------------------
# Reports

REPORT_FORMAT_TAG = "routing-bench-results-v1"

_ITEM = Codec(ItemOutcome)
_ENCODE_ITEMS, _DECODE_ITEMS = _ITEM.many()
_CELL_KEYS = {s.value for s in SliceName} | {"overall"}


def _text_report(table: ResultsTable) -> str:
    slices = [s.value for s in SliceName]
    columns = [s for s in slices if any(s in table.cells[c] for c in table.conditions)]
    headers = [f"slice_{s}" for s in columns] + ["overall"]
    name_width = max([len("condition")] + [len(c) for c in table.conditions])
    lines = ["condition".ljust(name_width) + "".join(h.rjust(10) for h in headers)]
    for cond in table.conditions:
        row = table.cells[cond]
        cells = [row.get(s) for s in columns] + [row.get("overall")]
        rendered = "".join(
            (f"{v:.3f}" if v is not None else "-").rjust(10) for v in cells
        )
        lines.append(cond.ljust(name_width) + rendered)
    return "\n".join(lines) + "\n"


def _csv_report(table: ResultsTable) -> str:
    lines = ["condition,slice,accuracy"]
    for cond in table.conditions:
        row = table.cells[cond]
        for s in [s.value for s in SliceName]:
            if s in row:
                lines.append(f"{cond},{s},{row[s]:.6f}")
        lines.append(f"{cond},overall,{row['overall']:.6f}")
    return "\n".join(lines) + "\n"


def _machine_report(table: ResultsTable) -> str:
    doc = {
        "format": REPORT_FORMAT_TAG,
        "conditions": list(table.conditions),
        "cells": {cond: dict(row) for cond, row in table.cells.items()},
        "items": _ENCODE_ITEMS(table.items),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def emit_report(table: ResultsTable, format: str = "text") -> str:
    """Render a ResultsTable as 'text', 'csv', or 'machine'."""
    if format == "text":
        return _text_report(table)
    if format == "csv":
        return _csv_report(table)
    if format == "machine":
        return _machine_report(table)
    raise ValueError(f"unknown report format {format!r}")


def parse_report(document: str) -> ResultsTable:
    """Inverse of emit_report for the machine format.

    A document that is not a well-formed machine report raises
    SuiteFormatError naming the first problem found.
    """
    try:
        doc = decode_json(document)
    except ValueError as exc:
        raise SuiteFormatError(f"not a machine-readable report: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != REPORT_FORMAT_TAG:
        raise SuiteFormatError(f"not a {REPORT_FORMAT_TAG} document")
    missing = {"conditions", "cells", "items"} - set(doc)
    if missing:
        raise SuiteFormatError(f"{REPORT_FORMAT_TAG}: missing key(s) {sorted(missing)}")
    conditions, cells = doc["conditions"], doc["cells"]
    if not isinstance(conditions, list) or not all(isinstance(c, str) for c in conditions):
        raise SuiteFormatError(f"{REPORT_FORMAT_TAG}: conditions must be a list of strings")
    if (
        len(set(conditions)) != len(conditions)
        or not isinstance(cells, dict)
        or set(cells) != set(conditions)
    ):
        raise SuiteFormatError(f"{REPORT_FORMAT_TAG}: cells must hold one row per listed condition")
    for cond, row in cells.items():
        if (
            not isinstance(row, dict)
            or "overall" not in row
            or not set(row) <= _CELL_KEYS
            or not all(type(value) in (int, float) for value in row.values())
        ):
            raise SuiteFormatError(
                f"{REPORT_FORMAT_TAG}: cells[{cond!r}] must map overall and slices "
                "A, B, C to numbers"
            )
    if not isinstance(doc["items"], list):
        raise SuiteFormatError(f"{REPORT_FORMAT_TAG}: items must be a list")
    try:
        items = _DECODE_ITEMS(doc["items"])
    except TypeError as exc:
        raise SuiteFormatError(f"{REPORT_FORMAT_TAG}: bad item: {exc}") from exc
    return ResultsTable(conditions=tuple(conditions), cells=cells, items=items)

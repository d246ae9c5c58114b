"""High-confidence control-failure bank.

An append-only JSONL log of routed trajectories plus the hypercorrection
rule that turns them into trust updates: only failures that were both
confident (terminal confidence at or above the high-confidence threshold)
and attributable to a card ever lower that card's trust, and each hit
multiplies trust by (1 - decrement_factor).

Appends go through mesa.journal under an exclusive flock, each fsynced. A
record counts once its newline is written: readers skip a torn final line and
the next append cuts it off, while damage anywhere else (a last complete
record without a sequence number too) is corruption. Trust updates are
applied to the card file under an exclusive lock on a sidecar <path>.lock,
after an optimistic old-value check; the prior file is kept at <path>.bak,
and both go through journal.replace_durably, each with the card file's mode.
The same rename records the last bank entry applied (the card file's
applied_through), so a rerun on the same bank applies nothing. A record whose
append raised left nothing in the bank, so a caller retries it exactly then.
"""

from __future__ import annotations

import fcntl
import json
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from mesa import journal
from mesa.cards import CardRegistry, read_applied_through
from mesa.codec import Codec, decode_json
from mesa.errors import BankCorruptionError, RegistryLookupError, StaleTrustError
from mesa.router import (
    CLAIM_THRESHOLD,
    Outcome,
    TrajectoryRecord,
    trajectory_from_dict,
    trajectory_to_dict,
)


@dataclass(frozen=True)
class BankConfig:
    """Hypercorrection parameters: threshold tau and decrement kappa."""

    high_confidence_threshold: float = CLAIM_THRESHOLD
    decrement_factor: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.high_confidence_threshold <= 1.0:
            raise ValueError("high_confidence_threshold must be in [0, 1]")
        if not 0.0 < self.decrement_factor <= 1.0:
            raise ValueError("decrement_factor must be in (0, 1]")


@dataclass(frozen=True, slots=True)
class BankEntry:
    """One recorded trajectory, optionally implicating a card."""

    trajectory: TrajectoryRecord
    implicated_card: str | None = None
    recorded_at: int = -1  # assigned by record()


@dataclass(frozen=True)
class TrustUpdate:
    """One trust decay, from the bank entry recorded_at (-1: an unrecorded entry)."""

    card_id: str
    old_trust: float
    new_trust: float
    reason: str
    recorded_at: int = -1

    def __post_init__(self) -> None:
        if self.old_trust > 0.0 and not self.new_trust < self.old_trust:
            raise ValueError("a trust update must strictly lower a positive trust")


_ENTRY = Codec(BankEntry, trajectory=(trajectory_to_dict, trajectory_from_dict))


def record(entry: BankEntry, bank_path: str | Path) -> int:
    """Append one entry; returns its assigned sequence number.

    The first entry gets 0 and each later one follows the journal's last
    complete record, so an append costs the same at any bank size. The
    entry's own recorded_at field is ignored and restamped. If the append
    raises, the bank holds no part of the entry.
    """
    payload = _ENTRY.encode(entry)
    seq = 0

    def make_line(last: bytes | None) -> str:
        nonlocal seq
        if last is not None:
            try:
                previous = decode_json(last)["recorded_at"]
            except (ValueError, KeyError, TypeError):
                previous = None
            if type(previous) is not int:
                raise BankCorruptionError(f"{bank_path}: last record has no readable recorded_at")
            seq = previous + 1
        payload["recorded_at"] = seq
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    journal.append(bank_path, make_line)
    return seq


def read_bank(path: str | Path) -> list[BankEntry]:
    """Read every complete entry; a torn final line is skipped with a warning."""
    entries: list[BankEntry] = []
    for index, line in enumerate(journal.read_lines(path)):
        try:
            raw = decode_json(line.decode("utf-8"))
            entry = _ENTRY.decode(raw)
        except (TypeError, ValueError) as exc:  # JSON and UTF-8 errors are ValueErrors
            raise BankCorruptionError(f"{path}: damaged record at line {index}: {exc}") from exc
        if entry.recorded_at != index:
            raise BankCorruptionError(
                f"{path}: sequence mismatch at line {index}: recorded_at={entry.recorded_at}"
            )
        entries.append(entry)
    return entries


def hypercorrection_updates(
    entries: Sequence[BankEntry], cfg: BankConfig, registry: CardRegistry
) -> list[TrustUpdate]:
    """Trust updates for exactly the high-confidence, card-implicating failures.

    Successes and low-confidence failures never update. Several entries
    implicating one card chain within the batch, so n hits multiply trust by
    (1 - decrement_factor)^n.

    Entries at or below the registry's applied_through were applied before
    and are skipped, so a rerun decays each failure once. A bank whose last
    entry lies below applied_through is not the bank that was applied:
    StaleTrustError.
    """
    through = registry.applied_through
    if through is not None:
        last = entries[-1].recorded_at if entries else -1
        if last < through:
            ends = f"ends at entry {last}" if entries else "holds no entry"
            raise StaleTrustError(
                f"the bank {ends}, but the card file was corrected through entry {through}"
            )
        entries = [entry for entry in entries if entry.recorded_at > through]
    current: dict[str, float] = {}
    updates: list[TrustUpdate] = []
    for entry in entries:
        record_ = entry.trajectory
        if record_.outcome is not Outcome.INCORRECT:
            continue
        if record_.terminal_confidence < cfg.high_confidence_threshold:
            continue
        if not entry.implicated_card:
            continue
        card_id = entry.implicated_card
        if card_id not in current:
            current[card_id] = registry.get(card_id).source_trust
        old = current[card_id]
        new = old * (1.0 - cfg.decrement_factor)
        updates.append(
            TrustUpdate(
                card_id=card_id,
                old_trust=old,
                new_trust=new,
                reason=(
                    f"high-confidence failure on {record_.item_id} "
                    f"({record_.condition}, confidence {record_.terminal_confidence:g})"
                ),
                recorded_at=entry.recorded_at,
            )
        )
        current[card_id] = new
    return updates


def apply_updates(registry_path: str | Path, updates: Sequence[TrustUpdate]) -> None:
    """Rewrite the card file with new trust values and its applied_through.

    Each update's old_trust must still match the file (optimistic check), and
    each recorded update must come from an entry after the file's
    applied_through; a failed check aborts the whole batch with the file
    untouched. The same rewrite raises applied_through to the last entry the
    batch applies, so the trust values and the watermark change together.
    The prior file is kept at <path>.bak, with the card file's mode, and the
    rewrite lands via atomic rename. Only source_trust fields and
    applied_through change. Concurrent correctors serialize on an exclusive
    flock of <path>.lock, held from the read to the last rename; a sidecar is
    locked because the rename replaces the card file's inode.
    """
    path = Path(registry_path)
    with open(path.with_name(path.name + ".lock"), "ab") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        original = path.read_bytes()
        try:
            doc = decode_json(original.decode("utf-8"))
        except ValueError as exc:  # UTF-8 and JSON errors alike
            raise StaleTrustError(f"cannot parse card file {path}: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("cards"), list):
            raise StaleTrustError(f"card file {path} has no cards list")
        by_id = {card.get("id"): card for card in doc["cards"] if isinstance(card, dict)}
        for update in updates:
            card = by_id.get(update.card_id)
            if card is None:
                raise RegistryLookupError(f"no card with id {update.card_id!r} in {path}")
            if card.get("source_trust") != update.old_trust:
                raise StaleTrustError(
                    f"card {update.card_id!r}: expected trust {update.old_trust!r}, "
                    f"file has {card.get('source_trust')!r}; batch aborted"
                )
            card["source_trust"] = update.new_trust
        recorded = [update.recorded_at for update in updates if update.recorded_at >= 0]
        if recorded:
            through = read_applied_through(doc, path)
            if through is not None and min(recorded) <= through:
                raise StaleTrustError(
                    f"entry {min(recorded)} is at or below the card file's applied_through "
                    f"{through}; batch aborted"
                )
            doc["applied_through"] = max(recorded)
        mode = stat.S_IMODE(path.stat().st_mode)
        journal.replace_durably(path.with_name(path.name + ".bak"), original, mode)
        journal.replace_durably(path, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))

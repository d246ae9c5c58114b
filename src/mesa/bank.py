"""High-confidence control-failure bank.

An append-only JSONL log of routed trajectories plus the hypercorrection
rule that turns them into trust updates: only failures that were both
confident (terminal confidence at or above the high-confidence threshold)
and attributable to a card ever lower that card's trust, and each hit
multiplies trust by (1 - decrement_factor).

Appends go through mesa.journal, one write under an exclusive flock and then
fsync. A record counts once its newline is written: readers skip a torn final
line and the next append cuts it off, while damage anywhere else (a last
complete record without a sequence number too) is corruption. Trust updates
are applied to the card file under an exclusive lock on a sidecar <path>.lock,
through an optimistic old-value check, a backup of the prior file, and an
atomic rename; the backup and the new file are each fsynced before their
rename and the directory after it.
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from mesa import journal
from mesa.cards import CardRegistry
from mesa.errors import BankCorruptionError, RegistryLookupError, StaleTrustError
from mesa.router import Outcome, TrajectoryRecord, trajectory_from_dict, trajectory_to_dict


@dataclass(frozen=True)
class BankConfig:
    """Hypercorrection parameters: threshold tau and decrement kappa."""

    high_confidence_threshold: float = 0.8
    decrement_factor: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.high_confidence_threshold <= 1.0:
            raise ValueError("high_confidence_threshold must be in [0, 1]")
        if not 0.0 < self.decrement_factor <= 1.0:
            raise ValueError("decrement_factor must be in (0, 1]")


@dataclass(frozen=True)
class BankEntry:
    """One recorded trajectory, optionally implicating a card."""

    trajectory: TrajectoryRecord
    implicated_card: str | None = None
    recorded_at: int = -1  # assigned by record()


@dataclass(frozen=True)
class TrustUpdate:
    card_id: str
    old_trust: float
    new_trust: float
    reason: str

    def __post_init__(self) -> None:
        if self.old_trust > 0.0 and not self.new_trust < self.old_trust:
            raise ValueError("a trust update must strictly lower a positive trust")


def _entry_to_line(entry: BankEntry, seq: int) -> str:
    payload = {
        "recorded_at": seq,
        "implicated_card": entry.implicated_card,
        "trajectory": trajectory_to_dict(entry.trajectory),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _entry_from_dict(raw: dict) -> BankEntry:
    return BankEntry(
        trajectory=trajectory_from_dict(raw["trajectory"]),
        implicated_card=raw["implicated_card"],
        recorded_at=raw["recorded_at"],
    )


def record(entry: BankEntry, bank_path: str | Path) -> int:
    """Append one entry; returns its assigned sequence number.

    The first entry gets 0 and each later one follows the journal's last
    complete record, so an append costs the same at any bank size. The
    entry's own recorded_at field is ignored and restamped.
    """
    seq = 0

    def make_line(last: bytes | None) -> str:
        nonlocal seq
        if last is not None:
            try:
                previous = json.loads(last)["recorded_at"]
            except (ValueError, KeyError, TypeError):
                previous = None
            if type(previous) is not int:
                raise BankCorruptionError(f"{bank_path}: last record has no readable recorded_at")
            seq = previous + 1
        return _entry_to_line(entry, seq)

    journal.append(bank_path, make_line)
    return seq


def read_bank(path: str | Path) -> list[BankEntry]:
    """Read every complete entry; a torn final line is skipped with a warning."""
    entries: list[BankEntry] = []
    for index, line in enumerate(journal.read_lines(path)):
        try:
            raw = json.loads(line.decode("utf-8"))
            entry = _entry_from_dict(raw)
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
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
    """
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
            )
        )
        current[card_id] = new
    return updates


def _replace_durably(path: Path, data: bytes) -> None:
    """Write data to a temp file, fsync it, rename it over path, fsync the directory."""
    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def apply_updates(registry_path: str | Path, updates: Sequence[TrustUpdate]) -> None:
    """Rewrite the card file with new trust values.

    Each update's old_trust must still match the file (optimistic check); a
    mismatch aborts the whole batch with the file untouched. The prior file
    is kept at <path>.bak and the rewrite lands via atomic rename. Only
    source_trust fields change. Concurrent correctors serialize on an
    exclusive flock of <path>.lock, held from the read to the last rename; a
    sidecar is locked because the rename replaces the card file's inode.
    """
    path = Path(registry_path)
    with open(path.with_name(path.name + ".lock"), "ab") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        original = path.read_bytes()
        try:
            doc = json.loads(original.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
        _replace_durably(path.with_name(path.name + ".bak"), original)
        _replace_durably(path, (json.dumps(doc, indent=2) + "\n").encode("utf-8"))

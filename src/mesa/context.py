"""Task context: the routed view of one incoming task.

A TaskContext is everything the engine may inspect before committing to an
action: the prompt text, caller-supplied kind tags, attachment metadata, and
(once an offload has begun) the pre-offload self-confidence. It is immutable;
a trajectory stage that needs another view constructs a new context.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Attachment:
    """Metadata for one task attachment. Bodies are never inspected."""

    mime_tag: str
    bytes_len: int = 0

    def __post_init__(self) -> None:
        if not self.mime_tag:
            raise ValueError("attachment mime_tag must be non-empty")
        if self.bytes_len < 0:
            raise ValueError("attachment bytes_len must be >= 0")


@dataclass(frozen=True)
class TaskContext:
    """One task as seen by predicates, the scorer, and backends.

    pre_offload_p_self is None until an offload begins; the trajectory
    controller sets it so backends can distinguish the post-offload
    confidence query from the initial one.
    """

    prompt: str
    kind_tags: frozenset[str] = field(default_factory=frozenset)
    attachments: tuple[Attachment, ...] = ()
    pre_offload_p_self: float | None = None

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.pre_offload_p_self is not None and not 0.0 <= self.pre_offload_p_self <= 1.0:
            raise ValueError("pre_offload_p_self must be in [0, 1]")

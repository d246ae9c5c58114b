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
    confidence query from the initial one. lowered_prompt is derived: the
    prompt lowercased once, for the predicates' `contains` tests.
    """

    prompt: str
    kind_tags: frozenset[str] = field(default_factory=frozenset)
    attachments: tuple[Attachment, ...] = ()
    pre_offload_p_self: float | None = None
    lowered_prompt: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if self.pre_offload_p_self is not None and not 0.0 <= self.pre_offload_p_self <= 1.0:
            raise ValueError("pre_offload_p_self must be in [0, 1]")
        object.__setattr__(self, "lowered_prompt", self.prompt.lower())

    def after_offload(self, p_self: float) -> TaskContext:
        """This task once an offload has begun at self-confidence p_self.

        A copy with pre_offload_p_self set: the lowered prompt is carried
        over, not computed again.
        """
        if not 0.0 <= p_self <= 1.0:
            raise ValueError("pre_offload_p_self must be in [0, 1]")
        post = object.__new__(TaskContext)
        post.__dict__.update(self.__dict__, pre_offload_p_self=p_self)
        return post

"""Dual-confidence state and confidence decontamination.

The engine tracks two confidence families per task: p_self (certainty that
parametric knowledge suffices) and per-channel source confidences (certainty
that a given external procedure would produce a correct result). Reserved
channel ids __tool__ and __verify__ carry the built-in tool and verifier
confidences; every other key is a card id.

Decontamination guards against post-offload confidence inflation: after
consuming external content, a raised p_self is clamped back to its pre-offload
value unless verification succeeded or the source's trust clears a strict
threshold. Decreases are always accepted. The threshold is a routing setting,
RoutingConfig.trust_override_threshold, which the router passes in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

TOOL_CHANNEL = "__tool__"
VERIFY_CHANNEL = "__verify__"


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True, slots=True)
class ConfidenceVector:
    """p_self plus per-channel source confidences for one task."""

    p_self: float
    source_confidences: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_unit("p_self", self.p_self)
        for channel, value in self.source_confidences.items():
            if not 0.0 <= value <= 1.0:  # the name is built only for the error
                _check_unit(f"source_confidences[{channel!r}]", value)


def decontaminate(
    pre_offload_p_self: float,
    post_offload_p_self: float,
    source_trust: float,
    verified: bool,
    trust_override_threshold: float,
) -> float:
    """Accept or clamp a post-offload self-confidence.

    Returns post_offload_p_self when verified or when source_trust clears
    trust_override_threshold; otherwise min(pre, post). Never raises the
    result above an unverified, low-trust post-offload reading's pre value.
    """
    _check_unit("pre_offload_p_self", pre_offload_p_self)
    _check_unit("post_offload_p_self", post_offload_p_self)
    _check_unit("source_trust", source_trust)
    if verified or source_trust >= trust_override_threshold:
        return post_offload_p_self
    return min(pre_offload_p_self, post_offload_p_self)

"""Dual-confidence vector and decontamination."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesa.confidence import ConfidenceVector, decontaminate
from mesa.router import RoutingConfig

_unit = st.floats(min_value=0.0, max_value=1.0)
THRESHOLD = RoutingConfig().trust_override_threshold


# ---------------------------------------------------------------------------
# ConfidenceVector


def test_vector_validates_ranges():
    with pytest.raises(ValueError):
        ConfidenceVector(p_self=1.2, source_confidences={})
    with pytest.raises(ValueError, match=r"^source_confidences\['a'\] must be in \[0, 1\], got -0.1$"):
        ConfidenceVector(p_self=0.5, source_confidences={"b": 1.0, "a": -0.1})


# ---------------------------------------------------------------------------
# Decontamination


def test_decontaminate_clamps_inflation():
    assert decontaminate(0.4, 0.9, 0.5, False, THRESHOLD) == 0.4


def test_decontaminate_trust_override():
    assert decontaminate(0.4, 0.9, 0.95, False, THRESHOLD) == 0.9


def test_decontaminate_verified_accepts_post():
    assert decontaminate(0.4, 0.9, 0.0, True, THRESHOLD) == 0.9


def test_decontaminate_decrease_always_accepted():
    assert decontaminate(0.4, 0.2, 0.5, False, THRESHOLD) == 0.2
    assert decontaminate(0.4, 0.2, 0.99, False, THRESHOLD) == 0.2
    assert decontaminate(0.4, 0.2, 0.0, True, THRESHOLD) == 0.2


def test_threshold_boundary_is_inclusive():
    assert decontaminate(0.1, 0.8, 0.9, False, 0.9) == 0.8
    assert decontaminate(0.1, 0.8, 0.8999, False, 0.9) == 0.1


@settings(max_examples=500)
@given(pre=_unit, post=_unit, trust=_unit, verified=st.booleans())
def test_monotone_safety_and_idempotence(pre, post, trust, verified):
    once = decontaminate(pre, post, trust, verified, THRESHOLD)
    if not verified and trust < THRESHOLD:
        assert once <= pre
    assert decontaminate(pre, once, trust, verified, THRESHOLD) == once
    assert 0.0 <= once <= 1.0

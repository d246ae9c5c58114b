"""Dual-confidence vector and decontamination."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesa.confidence import ConfidenceVector, DecontaminationConfig, decontaminate

_unit = st.floats(min_value=0.0, max_value=1.0)


# ---------------------------------------------------------------------------
# ConfidenceVector


def test_vector_validates_ranges():
    with pytest.raises(ValueError):
        ConfidenceVector(p_self=1.2, source_confidences={})
    with pytest.raises(ValueError):
        ConfidenceVector(p_self=0.5, source_confidences={"a": -0.1})


# ---------------------------------------------------------------------------
# Decontamination


def test_decontaminate_clamps_inflation():
    assert decontaminate(0.4, 0.9, 0.5, False) == 0.4


def test_decontaminate_trust_override():
    assert decontaminate(0.4, 0.9, 0.95, False) == 0.9


def test_decontaminate_verified_accepts_post():
    assert decontaminate(0.4, 0.9, 0.0, True) == 0.9


def test_decontaminate_decrease_always_accepted():
    assert decontaminate(0.4, 0.2, 0.5, False) == 0.2
    assert decontaminate(0.4, 0.2, 0.99, False) == 0.2
    assert decontaminate(0.4, 0.2, 0.0, True) == 0.2


def test_threshold_boundary_is_inclusive():
    cfg = DecontaminationConfig(trust_override_threshold=0.9)
    assert decontaminate(0.1, 0.8, 0.9, False, cfg) == 0.8
    assert decontaminate(0.1, 0.8, 0.8999, False, cfg) == 0.1


def test_config_validates():
    with pytest.raises(ValueError):
        DecontaminationConfig(trust_override_threshold=1.5)


@settings(max_examples=500)
@given(pre=_unit, post=_unit, trust=_unit, verified=st.booleans())
def test_monotone_safety_and_idempotence(pre, post, trust, verified):
    cfg = DecontaminationConfig()
    once = decontaminate(pre, post, trust, verified, cfg)
    if not verified and trust < cfg.trust_override_threshold:
        assert once <= pre
    assert decontaminate(pre, once, trust, verified, cfg) == once
    assert 0.0 <= once <= 1.0

"""Fixtures shared by the test modules."""

from __future__ import annotations

import dataclasses

import pytest


@pytest.fixture
def drift_at_d3(monkeypatch):
    """Make every gyni-to-dr translation at d=3 drift in value."""
    from causalkit import duality, games
    from causalkit.instruments import coarse_grain

    translate = duality.gyni_to_dr

    def drifting(strategy):
        # Relabel the first party's outcomes at d=3 only: the value drifts.
        out = translate(strategy)
        if games.input_count(strategy) != 3:
            return out
        arm = out.parties[0]
        shifted = coarse_grain(arm.instruments[0], [1, 2, 0], 3)
        return dataclasses.replace(
            out, parties=(dataclasses.replace(arm, instruments=(shifted,)), out.parties[1])
        )

    monkeypatch.setattr(duality, "gyni_to_dr", drifting)

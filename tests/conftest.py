"""Fixtures shared by the test modules."""

from __future__ import annotations

import dataclasses

import pytest


@pytest.fixture
def drift_at_d3(monkeypatch):
    """Make every gyni-to-dr translation at d=3 drift in value."""
    from causalkit import duality
    from causalkit.instruments import Instrument
    from causalkit.tensor import KronSum, OperatorStack

    translate = duality.gyni_to_dr

    def drifting(strategy):
        # Relabel the first party's outcomes at d=3 only: the value drifts.
        # Old outcome k becomes outcome (k + 1) mod 3; the outcome axis lives
        # on the instrument's last part.
        out = translate(strategy)
        if strategy.d != 3:
            return out
        arm = out.parties[0]
        ins = arm.instruments[0]
        *shared, last = ins.terms.parts
        shifted = Instrument(KronSum((*shared, OperatorStack(last.wires, last.matrix[[2, 0, 1]]))), ins.output_wires)
        return dataclasses.replace(
            out, parties=(dataclasses.replace(arm, instruments=(shifted,)), out.parties[1])
        )

    monkeypatch.setattr(duality, "gyni_to_dr", drifting)


@pytest.fixture
def forbid_contraction(monkeypatch):
    """Call it to make every later ``batched_trace`` call fail, wherever the
    package looks the name up (a dense instrument stack contracts too)."""
    from causalkit import duality, games, tensor

    def contracted(*args, **kwargs):
        raise AssertionError("contracted before the inputs were checked")

    def forbid():
        for module in (tensor, games, duality):
            monkeypatch.setattr(module, "batched_trace", contracted)

    return forbid

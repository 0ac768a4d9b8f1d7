"""Instrument constructors, validation, conjugation, and composition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalkit.instruments import (
    Instrument,
    choi_of_unitary,
    coarse_grain,
    conjugate_instrument,
    extend_instrument_with_measurement,
    identity_channel_instrument,
    measure_prepare_instrument,
    stack_instruments,
    validate_instrument,
)
from causalkit.sampling import random_instrument
from causalkit.tensor import LabeledOperator, WireLabel

A_IN = WireLabel("A_I", 2)
A_OUT = WireLabel("A_O", 2)
E0, E1 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


class TestChoiOfUnitary:
    def test_identity_choi_frozen(self):
        # sum_ij |i><j| (x) |i><j|: twice the maximally entangled projector.
        cj = choi_of_unitary(np.eye(2), A_IN, A_OUT)
        expected = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 1.0
        np.testing.assert_allclose(cj.matrix, expected, atol=1e-15)

    def test_bit_flip_choi_frozen(self):
        cj = choi_of_unitary(SX, A_IN, A_OUT)
        expected = np.zeros((4, 4), dtype=complex)
        for i in (1, 2):
            for j in (1, 2):
                expected[i, j] = 1.0
        np.testing.assert_allclose(cj.matrix, expected, atol=1e-15)

    def test_rank_one_trace_d(self):
        rng = np.random.default_rng(8)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(g)
        cj = choi_of_unitary(u, WireLabel("in", 3), WireLabel("out", 3))
        spectrum = np.linalg.eigvalsh(cj.matrix)
        assert spectrum[-1] == pytest.approx(3.0, abs=1e-12)
        assert abs(spectrum[-2]) <= 1e-9
        assert np.trace(cj.matrix) == pytest.approx(3.0, abs=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            choi_of_unitary(np.diag([1.0, 2.0]), A_IN, A_OUT)


class TestMeasurePrepare:
    def test_computational_resend_frozen(self):
        # Measure the computational basis, re-prepare the same state.
        ins = measure_prepare_instrument([E0, E1], [E0, E1], A_IN, A_OUT)
        np.testing.assert_allclose(ins.ops[0].matrix, np.diag([1, 0, 0, 0]), atol=0)
        np.testing.assert_allclose(ins.ops[1].matrix, np.diag([0, 0, 0, 1]), atol=0)
        assert validate_instrument(ins).valid

    def test_flip_preparation_frozen(self):
        ins = measure_prepare_instrument([E0, E1], [E1, E0], A_IN, A_OUT)
        np.testing.assert_allclose(ins.ops[0].matrix, np.diag([0, 1, 0, 0]), atol=0)
        np.testing.assert_allclose(ins.ops[1].matrix, np.diag([0, 0, 1, 0]), atol=0)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="one preparation per basis vector"):
            measure_prepare_instrument([E0, E1], [E0], A_IN, A_OUT)

    def test_rejects_non_orthonormal(self):
        skew = np.array([1.0, 1.0]) / np.sqrt(2)
        with pytest.raises(ValueError, match="orthonormal"):
            measure_prepare_instrument([E0, skew], [E0, E1], A_IN, A_OUT)


class TestValidation:
    def test_empty_outcome_list_rejected(self):
        with pytest.raises(ValueError, match="at least one outcome"):
            Instrument((), ("A_I",), ("A_O",))

    def test_forced_outcome_instrument(self):
        ins = identity_channel_instrument(A_IN, A_OUT, forced_outcome=1, n_outcomes=2)
        assert validate_instrument(ins).valid
        assert np.max(np.abs(ins.ops[0].matrix)) == 0.0

    def test_tp_violation_reported(self):
        half = LabeledOperator((A_IN, A_OUT), np.eye(4, dtype=complex) / 4)
        report = validate_instrument(Instrument((half,), ("A_I",), ("A_O",)))
        assert not report.valid
        assert report.tp_residual == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_random_instruments_valid(self, seed, n_outcomes):
        rng = np.random.default_rng(seed)
        ins = random_instrument(rng, (A_IN,), (A_OUT,), n_outcomes)
        report = validate_instrument(ins)
        assert report.valid
        assert report.tp_residual <= 1e-12


class TestConjugation:
    def test_hadamard_on_input_frozen(self):
        # Conjugating the computational readout by H yields the +/- readout.
        ins = measure_prepare_instrument([E0, E1], [E0, E1], A_IN, A_OUT)
        rot = conjugate_instrument(ins, HADAMARD, "input")
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        expected = np.kron(np.outer(plus, plus), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(rot.ops[0].matrix, expected, atol=1e-12)

    def test_preserves_validity_any_side(self):
        rng = np.random.default_rng(2)
        ins = random_instrument(rng, (A_IN,), (A_OUT,), 2)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(g)
        for side in ("input", "output", "A_I", "A_O"):
            assert validate_instrument(conjugate_instrument(ins, u, side)).valid

    def test_dimension_mismatch_rejected(self):
        ins = measure_prepare_instrument([E0, E1], [E0, E1], A_IN, A_OUT)
        with pytest.raises(ValueError, match="2x2"):
            conjugate_instrument(ins, np.eye(4), "input")

    def test_unknown_wire_rejected(self):
        ins = measure_prepare_instrument([E0, E1], [E0, E1], A_IN, A_OUT)
        with pytest.raises(ValueError, match="unknown side"):
            conjugate_instrument(ins, np.eye(2), "Q")


class TestComposition:
    def _family(self):
        forward = identity_channel_instrument(A_IN, A_OUT, forced_outcome=1, n_outcomes=2)
        flip = measure_prepare_instrument([E0, E1], [E1, E0], A_IN, A_OUT)
        return (forward, flip)

    def test_composite_is_valid(self):
        u = np.kron(HADAMARD, np.eye(2)) @ np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        composite = extend_instrument_with_measurement(
            self._family(),
            u,
            (WireLabel("A", 2), WireLabel("A'", 2)),
            selector=0,
            postprocess=lambda m, k: (k + m[1]) % 2,
            n_outcomes=2,
        )
        assert composite.input_wires == ("A", "A'", "A_I")
        assert composite.output_wires == ("A_O",)
        report = validate_instrument(composite)
        assert report.valid
        assert report.tp_residual <= 1e-12

    def test_invalid_inner_instrument_rejected(self):
        # Two copies of I/2 sum to the identity, whose output trace is 2*I:
        # not trace preserving.
        half = LabeledOperator((A_IN, A_OUT), np.eye(4, dtype=complex) / 2)
        bad = Instrument((half, half), ("A_I",), ("A_O",))
        with pytest.raises(ValueError, match="not a valid instrument"):
            extend_instrument_with_measurement(
                (bad, bad),
                np.eye(4),
                (WireLabel("A", 2), WireLabel("A'", 2)),
                selector=0,
                postprocess=lambda m, k: k,
            )

    def test_family_size_must_match_selector_dim(self):
        with pytest.raises(ValueError, match="selector wire dimension"):
            extend_instrument_with_measurement(
                self._family() + self._family(),
                np.eye(4),
                (WireLabel("A", 2), WireLabel("A'", 2)),
                selector=0,
                postprocess=lambda m, k: k,
            )

    def test_stack_by_member_and_outcome(self):
        rng = np.random.default_rng(191)
        family = [random_instrument(rng, (A_IN,), (A_OUT,), 3) for _ in range(2)]
        stack = stack_instruments(family)
        assert stack.matrix.shape == (2, 3, 4, 4)
        np.testing.assert_array_equal(stack.matrix[1, 2], family[1].ops[2].matrix)
        forced = identity_channel_instrument(A_IN, A_OUT, forced_outcome=0, n_outcomes=2)
        with pytest.raises(ValueError, match="outcome count"):
            stack_instruments([family[0], forced])

    def test_coarse_graining_stays_valid(self):
        rng = np.random.default_rng(5)
        ins = random_instrument(rng, (A_IN,), (A_OUT,), 4)
        merged = coarse_grain(ins, [0, 1, 0, 1], 2)
        assert merged.n_outcomes == 2
        assert validate_instrument(merged).valid
        np.testing.assert_allclose(
            merged.total().matrix, ins.total().matrix, atol=1e-12
        )

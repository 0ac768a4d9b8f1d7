"""Instrument constructors, validation, conjugation, and composition."""

from __future__ import annotations

import copy
import pickle
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalkit.instruments import (
    Instrument,
    PartyArm,
    choi_of_unitary,
    conjugate_instrument,
    extend_instrument_with_measurement,
    identity_channel_instrument,
    measure_prepare_instrument,
    validate_instrument,
)
from causalkit.duality import gyni_to_dr
from causalkit.sampling import random_gyni_strategy, random_instrument
from causalkit.tensor import KronSum, LabeledOperator, OperatorStack, WireLabel, conjugate_wires, permute_wires

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
            Instrument((), ("A_O",))

    def test_forced_outcome_instrument(self):
        ins = identity_channel_instrument(A_IN, A_OUT, forced_outcome=1, n_outcomes=2)
        assert validate_instrument(ins).valid
        assert np.max(np.abs(ins.ops[0].matrix)) == 0.0

    def test_tp_violation_reported(self):
        half = LabeledOperator((A_IN, A_OUT), np.eye(4, dtype=complex) / 4)
        report = validate_instrument(Instrument((half,), ("A_O",)))
        assert not report.valid
        assert report.tp_residual == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 4))
    def test_random_instruments_valid(self, seed, d, n_outcomes):
        rng = np.random.default_rng(seed)
        ins = random_instrument(rng, (WireLabel("A_I", d),), (WireLabel("A_O", d),), n_outcomes)
        report = validate_instrument(ins)
        assert report.valid
        assert report.tp_residual <= 1e-12

    def test_one_hermiticity_pass_for_all_branches(self, monkeypatch):
        # The branches are checked as one stack: a single pass covers all
        # four, and the eigenvalue solve reuses its defects.
        from causalkit import instruments, tensor

        calls = []
        defect = tensor.hermiticity_defect

        def counted(op):
            calls.append(op)
            return defect(op)

        monkeypatch.setattr(instruments, "hermiticity_defect", counted)
        monkeypatch.setattr(tensor, "hermiticity_defect", counted)
        qutrits = (WireLabel("A_I", 3),), (WireLabel("A_O", 3),)
        ins = random_instrument(np.random.default_rng(4), *qutrits, 4)
        assert validate_instrument(ins).valid
        assert len(calls) == 1
        assert calls[0].matrix.shape == (4, 9, 9)

    def test_one_dense_stack_per_call(self, monkeypatch):
        composite = gyni_to_dr(random_gyni_strategy(np.random.default_rng(6), 3)).parties[0].instruments[0]
        reads = []
        dense = KronSum.matrix.fget

        def counted(self):
            reads.append(self)
            return dense(self)

        monkeypatch.setattr(KronSum, "matrix", property(counted))
        assert validate_instrument(composite).valid
        assert len(reads) == 1


def _names(ins: Instrument) -> list[str]:
    return [w.name for w in ins.wires]


class TestConjugation:
    def test_hadamard_on_input_frozen(self):
        # Conjugating the computational readout by H yields the +/- readout.
        ins = measure_prepare_instrument([E0, E1], [E0, E1], A_IN, A_OUT)
        rot = conjugate_instrument(ins, HADAMARD, ins.input_wires)
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        expected = np.kron(np.outer(plus, plus), np.diag([1.0, 0.0]))
        np.testing.assert_allclose(permute_wires(rot.ops[0], _names(ins)).matrix, expected, atol=1e-12)

    def test_preserves_validity_any_side(self):
        rng = np.random.default_rng(2)
        ins = random_instrument(rng, (A_IN,), (A_OUT,), 2)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(g)
        for names in (ins.input_wires, ins.output_wires, ("A_I",), ("A_O",)):
            assert validate_instrument(conjugate_instrument(ins, u, names)).valid

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("side", ["input", "output", "A"])
    def test_matches_dense_conjugator(self, d, side):
        # Reference: kron(U, I_rest), its wires permuted to the instrument's
        # order, applied as U M U^dag branch by branch.
        rng = np.random.default_rng(40 + d)
        wires = (WireLabel("A", d), WireLabel("A_I", d), WireLabel("A_O", d))
        ins = random_instrument(rng, wires[:2], wires[2:], d)
        targets = {"input": [0, 1], "output": [2], "A": [0]}[side]
        dim = d ** len(targets)
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        rest = [i for i in range(3) if i not in targets]
        big = np.kron(u, np.eye(d ** len(rest))).reshape((d,) * 6)
        order = list(np.argsort(targets + rest))
        big = big.transpose(order + [3 + i for i in order]).reshape(d**3, d**3)
        names = {"input": ins.input_wires, "output": ins.output_wires, "A": ("A",)}[side]
        rotated = conjugate_instrument(ins, u, names)
        for got, op in zip(rotated.ops, ins.ops):
            got = permute_wires(got, _names(ins))
            assert got.wires == ins.wires
            np.testing.assert_allclose(got.matrix, big @ op.matrix @ big.conj().T, atol=1e-12)

    @pytest.mark.parametrize("names", [("A_O",), ("A",), ("A", "A_O")])
    def test_composite_matches_dense(self, names):
        # Wires (A, A', A_I, A_O): the readout part holds A, the outcome-stacked
        # part A_O. Reference: U on the dense branches of the composite.
        rng = np.random.default_rng(41)
        composite = gyni_to_dr(random_gyni_strategy(rng, 2)).parties[0].instruments[0]
        dim = 2 ** len(names)
        u, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        rotated = conjugate_instrument(composite, u, names)
        dense = OperatorStack(composite.wires, composite.terms.matrix)
        got = permute_wires(OperatorStack(rotated.wires, rotated.terms.matrix), _names(composite))
        np.testing.assert_allclose(got.matrix, conjugate_wires(dense, u, names).matrix, atol=1e-12)
        if names == ("A_O",):
            assert rotated.terms.parts[0] is composite.terms.parts[0]
        elif names == ("A",):  # the dense branches, factored on A
            assert rotated.terms.parts[-1].names == names
        else:  # 2 outcomes x 4^2 units > 4^2 block entries: the dense branches, conjugated whole
            assert len(rotated.terms.parts) == 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stack_of_unitaries_matches_one_call_each(self, d):
        rng = np.random.default_rng(42 + d)
        wires = (WireLabel("A", d), WireLabel("A_I", d), WireLabel("A_O", d))
        ins = random_instrument(rng, wires[:2], wires[2:], d)
        us = np.stack([np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0] for _ in range(3)])
        stacked = conjugate_instrument(ins, us, ("A",))
        assert len(stacked) == 3
        for got, u in zip(stacked, us):
            one = conjugate_instrument(ins, u, ("A",))
            got, one = (permute_wires(OperatorStack(m.wires, m.terms.matrix), _names(ins)) for m in (got, one))
            assert np.array_equal(got.matrix, one.matrix)

    def test_stacked_members_stack_without_a_copy(self):
        # A stacked conjugation's members are the rows of one array, so their
        # stack is a view of it; in another order they are copied.
        rng = np.random.default_rng(46)
        wires = (WireLabel("A", 3), WireLabel("A_I", 3), WireLabel("A_O", 3))
        ins = random_instrument(rng, wires[:2], wires[2:], 3)
        members = conjugate_instrument(ins, np.stack([np.eye(3), np.roll(np.eye(3), 1, axis=0)]), ("A",))
        lasts = [m.terms.parts[-1].matrix for m in members]
        stacked = PartyArm(members).stack.parts[-1].matrix
        assert all(np.shares_memory(stacked, last) for last in lasts)
        assert np.array_equal(stacked, np.array(lasts))
        swapped = PartyArm(members[::-1]).stack.parts[-1].matrix
        assert not np.shares_memory(swapped, lasts[0])
        assert np.array_equal(swapped, np.array(lasts[::-1]))
        # Unpickled members keep their bytes in a buffer that is not an array.
        unpickled = PartyArm(pickle.loads(pickle.dumps(members))).stack.parts[-1].matrix
        assert np.array_equal(unpickled, stacked)

    def test_every_stacked_unitary_checked(self):
        ins = measure_prepare_instrument([E0, E1], [E0, E1], A_IN, A_OUT)
        with pytest.raises(ValueError, match="not unitary"):
            conjugate_instrument(ins, np.stack([np.eye(2), HADAMARD, np.diag([1.0, 2.0])]), ("A_I",))

    def test_dimension_mismatch_rejected(self):
        ins = measure_prepare_instrument([E0, E1], [E0, E1], A_IN, A_OUT)
        with pytest.raises(ValueError, match="2x2"):
            conjugate_instrument(ins, np.eye(4), ins.input_wires)

    def test_unknown_wire_rejected(self):
        ins = measure_prepare_instrument([E0, E1], [E0, E1], A_IN, A_OUT)
        with pytest.raises(ValueError, match="unknown wires"):
            conjugate_instrument(ins, np.eye(2), ("Q",))


def _embedded(ins: Instrument, u: np.ndarray, names) -> np.ndarray:
    """kron(U, I) on the instrument's wires, in its order, with U on the named wires."""
    named, rest = [n for n in _names(ins) if n in names], [n for n in _names(ins) if n not in names]
    wires = tuple(ins.wire(n) for n in named + rest)
    big = LabeledOperator(wires, np.kron(u, np.eye(LabeledOperator.total_dim_of(wires) // len(u))))
    return permute_wires(big, _names(ins)).matrix


class TestFactoredConjugation:
    """A plain instrument conjugated on a few of its wires X keeps every
    member factored: one block part on the other wires, shared by the
    members of a stack, and a part on X per member."""

    @staticmethod
    def _case(case: str, d: int) -> tuple[Instrument, tuple[str, ...]]:
        rng = np.random.default_rng([47, d])
        code, fresh, w_in, w_out = (WireLabel(n, d) for n in ("A", "A'", "A_I", "A_O"))
        if case == "code":
            return random_instrument(rng, (code, w_in), (w_out,), d), ("A",)
        if case == "two-wire":  # one outcome: 1 x (d^2)^2 units against (d^2)^2 block entries
            return random_instrument(rng, (code, fresh, w_in), (w_out,), 1), ("A", "A_I")
        # A read-out composite: the twirl reaches its readout part, so its branches are made dense first.
        return gyni_to_dr(random_gyni_strategy(rng, d)).parties[0].instruments[0], ("A",)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("case", ["code", "two-wire", "composite"])
    @pytest.mark.parametrize("n", [None, 3])
    def test_matches_dense_conjugator(self, d, case, n):
        ins, names = self._case(case, d)
        dim = d ** len(names)
        rng = np.random.default_rng([48, d])
        us = np.stack([np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0] for _ in range(n or 1)])
        members = conjugate_instrument(ins, us if n else us[0], names)
        members = members if n else (members,)
        assert len(members) == len(us)
        for member, u in zip(members, us):
            shared, last = member.terms.parts
            assert shared is members[0].terms.parts[0]
            assert shared.names == tuple(n for n in _names(ins) if n not in names) and last.names == names
            assert shared.matrix.shape[0] == ins.n_outcomes * dim**2
            assert member.output_wires == ins.output_wires
            big = _embedded(ins, u, names)
            for got, op in zip(member.ops, ins.ops):
                got = permute_wires(got, _names(ins))
                np.testing.assert_allclose(got.matrix, big @ op.matrix @ big.conj().T, atol=1e-12)
        arm = PartyArm(members)
        assert arm.stack.parts[0] is members[0].terms.parts[0]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_whole_part_when_units_outweigh_blocks(self, d):
        # d outcomes x (d^2)^2 units on (A, A_I) against d^2 block entries on A_O:
        # the part is conjugated whole, in its wire order.
        ins, _ = self._case("code", d)
        rotated = conjugate_instrument(ins, np.eye(d * d), ("A", "A_I"))
        assert rotated.wires == ins.wires and len(rotated.terms.parts) == 1

    def test_one_arm_reads_the_shared_blocks_once(self, monkeypatch):
        # The members of one stacked conjugation hold one block part object,
        # so the arm does not compare it with itself entry by entry.
        ins, names = self._case("code", 3)
        members = conjugate_instrument(ins, np.stack([np.eye(3)] * 3), names)
        compared = []
        equal = np.array_equal
        monkeypatch.setattr(np, "array_equal", lambda a, b: compared.append(a.shape) or equal(a, b))
        PartyArm(members)
        assert compared == []


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
            PartyArm(self._family()),
            u,
            (WireLabel("A", 2), WireLabel("A'", 2)),
            selector=0,
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
        bad = Instrument((half, half), ("A_O",))
        with pytest.raises(ValueError, match="not a valid instrument"):
            extend_instrument_with_measurement(
                PartyArm((bad, bad)),
                np.eye(4),
                (WireLabel("A", 2), WireLabel("A'", 2)),
                selector=0,
            )

    def test_error_names_the_first_invalid_member(self):
        # The members are checked as one stack; the error still names the member.
        half = LabeledOperator((A_IN, A_OUT), np.eye(4, dtype=complex) / 2)
        bad = Instrument((half, half), ("A_O",))
        message = "inner instrument 1 is not a valid instrument (min eig 5.000e-01, tp residual 1.000e+00)"
        with pytest.raises(ValueError, match=re.escape(message)):
            extend_instrument_with_measurement(
                PartyArm((self._family()[0], bad)), np.eye(4), (WireLabel("A", 2), WireLabel("A'", 2)), selector=0
            )

    def test_one_dense_stack_per_member(self, monkeypatch):
        # The family's dense stack is read once, from its arm, and both
        # validated and gathered (3 reads when each member built its own).
        qutrits = (WireLabel("A_I", 3),), (WireLabel("A_O", 3),)
        family = [random_instrument(np.random.default_rng(30 + k), *qutrits, 3) for k in range(3)]
        reads = []
        dense = KronSum.matrix.fget

        def counted(self):
            reads.append(self)
            return dense(self)

        monkeypatch.setattr(KronSum, "matrix", property(counted))
        extend_instrument_with_measurement(PartyArm(family), np.eye(9), (WireLabel("A", 3), WireLabel("A'", 3)), 0)
        assert len(reads) == 1

    def test_family_size_must_match_selector_dim(self):
        with pytest.raises(ValueError, match="selector wire dimension"):
            extend_instrument_with_measurement(
                PartyArm(self._family() + self._family()),
                np.eye(4),
                (WireLabel("A", 2), WireLabel("A'", 2)),
                selector=0,
            )

    def test_stack_by_member_and_outcome(self):
        rng = np.random.default_rng(191)
        family = [random_instrument(rng, (A_IN,), (A_OUT,), 3) for _ in range(2)]
        stack = PartyArm(family).stack
        assert stack.matrix.shape == (2, 3, 4, 4)
        np.testing.assert_array_equal(stack.matrix[1, 2], family[1].ops[2].matrix)
        forced = identity_channel_instrument(A_IN, A_OUT, forced_outcome=0, n_outcomes=2)
        with pytest.raises(ValueError, match="outcome count"):
            PartyArm([family[0], forced])

    def test_stack_rejects_another_wire_order(self):
        ins = random_instrument(np.random.default_rng(192), (A_IN,), (A_OUT,), 2)
        swapped = tuple(permute_wires(op, ["A_O", "A_I"]) for op in ins.ops)
        member = Instrument(swapped, ins.output_wires)
        with pytest.raises(ValueError, match="in that order"):
            PartyArm([ins, member])

    def test_coarse_graining_stays_valid(self):
        rng = np.random.default_rng(5)
        ins = random_instrument(rng, (A_IN,), (A_OUT,), 4)
        merged = _merge_outcomes(ins, [0, 1, 0, 1], 2)
        assert merged.n_outcomes == 2
        assert validate_instrument(merged).valid
        np.testing.assert_allclose(
            sum(op.matrix for op in merged.ops), sum(op.matrix for op in ins.ops), atol=1e-12
        )


def _merge_outcomes(ins: Instrument, grouping, n_outcomes: int) -> Instrument:
    """Merge outcomes: ``grouping[k]`` is the new label of old outcome k.

    Only the last part, which carries the outcome axis, changes, so a
    factored instrument stays factored.
    """
    *shared, last = ins.terms.parts
    acc = np.zeros((n_outcomes,) + last.matrix.shape[1:], dtype=complex)
    np.add.at(acc, list(grouping), last.matrix)
    return Instrument(KronSum((*shared, OperatorStack(last.wires, acc))), ins.output_wires)


def _families(d: int) -> dict[str, list[Instrument]]:
    """Seeded d-member families: plain instruments on (A_I, A_O), and
    read-out composites that share one readout, conjugated on A_I."""
    rng = np.random.default_rng([600, d])
    w_in, w_out = WireLabel("A_I", d), WireLabel("A_O", d)
    plain = [random_instrument(rng, (w_in,), (w_out,), d) for _ in range(d)]
    u, _ = np.linalg.qr(rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d)))
    composite = extend_instrument_with_measurement(PartyArm(plain), u, (WireLabel("A", d), WireLabel("A'", d)), 0)
    shifts = np.stack([np.linalg.matrix_power(np.roll(np.eye(d), 1, axis=0), i) for i in range(d)])
    return {"plain": plain, "readout": list(conjugate_instrument(composite, shifts, ("A_I",)))}


class TestPartyArm:
    """An arm checks and stacks its family once, when built."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["plain", "readout"])
    def test_stack_entries_are_the_members_branches(self, d, kind):
        arm = PartyArm(_families(d)[kind])
        assert len(arm.stack.parts) == (1 if kind == "plain" else 2)
        stack = arm.stack.matrix
        assert stack.shape[:2] == (d, d)
        for i, ins in enumerate(arm.instruments):
            for k, op in enumerate(ins.ops):
                assert np.array_equal(stack[i, k], op.matrix), (i, k)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["plain", "readout"])
    def test_pickle_and_copy_carry_the_instruments_once(self, d, kind):
        arm = PartyArm(_families(d)[kind])
        data = pickle.dumps(arm)
        # The stack is rebuilt on load, not pickled: at most a fixed overhead
        # over the instruments' own pickle.
        assert len(data) <= len(pickle.dumps(arm.instruments)) + 200
        for loaded in (pickle.loads(data), copy.deepcopy(arm)):
            assert len(loaded.stack.parts) == len(arm.stack.parts)
            for got, want in zip(loaded.stack.parts, arm.stack.parts):
                assert got.wires == want.wires
                assert np.array_equal(got.matrix, want.matrix)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_mismatched_families_raise_when_built(self, d):
        families = _families(d)
        plain, readout = families["plain"], families["readout"]
        w_in, w_out = plain[0].wire("A_I"), plain[0].wire("A_O")
        fewer = random_instrument(np.random.default_rng([601, d]), (w_in,), (w_out,), d - 1)
        with pytest.raises(ValueError, match="outcome count"):
            PartyArm([*plain[1:], fewer])
        swapped = Instrument(tuple(permute_wires(op, ["A_O", "A_I"]) for op in plain[0].ops), ("A_O",))
        with pytest.raises(ValueError, match="in that order"):
            PartyArm([plain[1], swapped])
        other = extend_instrument_with_measurement(PartyArm(plain), np.eye(d * d), (WireLabel("A", d), WireLabel("A'", d)), 0)
        with pytest.raises(ValueError, match="share one readout"):
            PartyArm([readout[0], other])
        with pytest.raises(ValueError, match="share one readout"):
            PartyArm([readout[0], plain[0]])


def _kron_composite(family, u, measured, selector):
    """The composite as dense blocks: inner outcome k under readout m adds
    kron(U^dag|m><m|U, inner op) to outcome (k + m[1 - selector]) mod d."""
    w1, w2 = measured
    d = measured[1 - selector].dim
    side = family[0].ops[0].total_dim
    out = [np.zeros((w1.dim * w2.dim * side,) * 2, dtype=complex) for _ in range(d)]
    for m in product(range(w1.dim), range(w2.dim)):
        row = u[m[0] * w2.dim + m[1]]
        proj = np.outer(row.conj(), row)
        for k, op in enumerate(family[m[selector]].ops):
            out[(k + m[1 - selector]) % d] += np.kron(proj, op.matrix)
    return out


class TestFactoredComposite:
    # The composer only pads; merged and empty outcomes come from merging
    # the padded composite's outcomes, as (grouping, outcome count).
    GROUPING = {
        # Several padded outcomes land on each of two outcomes.
        "merge": lambda d: ([k % 2 for k in range(d)], 2),
        # Outcome d - 1 is never produced.
        "empty": lambda d: ([k % (d - 1) for k in range(d)], d),
    }

    def _composite(self, d, kind, selector=0, seed=0):
        rng = np.random.default_rng(500 + 10 * d + seed)
        w_in, w_out = WireLabel("A_I", d), WireLabel("A_O", d)
        family = [random_instrument(rng, (w_in,), (w_out,), d) for _ in range(d)]
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        u, _ = np.linalg.qr(g)
        measured = (WireLabel("A", d), WireLabel("A'", d))
        composite = extend_instrument_with_measurement(PartyArm(family), u, measured, selector)
        want = _kron_composite(family, u, measured, selector)
        if kind == "pad":
            return composite, want
        grouping, count = self.GROUPING[kind](d)
        merged = [np.zeros_like(want[0]) for _ in range(count)]
        for block, a in zip(want, grouping):
            merged[a] += block
        return _merge_outcomes(composite, grouping, count), merged

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["pad", "merge", "empty"])
    @pytest.mark.parametrize("selector", [0, 1])
    def test_dense_view_matches_kron_construction(self, d, kind, selector):
        composite, want = self._composite(d, kind, selector)
        assert [w.name for w in composite.wires] == ["A", "A'", "A_I", "A_O"]
        readout, branches = composite.terms.parts
        assert readout.matrix.shape == (d * d, d * d, d * d)
        assert branches.matrix.shape[:2] == (len(want), d * d)
        assert composite.n_outcomes == len(want)
        for got, ref in zip(composite.ops, want):
            np.testing.assert_allclose(got.matrix, ref, atol=1e-12)
        if kind == "empty":
            np.testing.assert_array_equal(composite.ops[d - 1].matrix, 0)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["pad", "merge", "empty"])
    def test_composite_passes_validation(self, d, kind):
        composite, _ = self._composite(d, kind)
        report = validate_instrument(composite)
        assert report.valid
        assert report.tp_residual <= 1e-12

    def test_outcome_count_must_match_padding_wire(self):
        rng = np.random.default_rng(517)
        w_in, w_out = WireLabel("A_I", 3), WireLabel("A_O", 3)
        family = [random_instrument(rng, (w_in,), (w_out,), 2) for _ in range(3)]
        measured = (WireLabel("A", 3), WireLabel("A'", 3))
        with pytest.raises(ValueError, match="needs 3 outcomes"):
            extend_instrument_with_measurement(PartyArm(family), np.eye(9), measured, 0)

    def test_stack_shares_the_readout(self):
        a, _ = self._composite(2, "pad")
        stack = PartyArm([a, a]).stack
        assert stack.batch_shape == (2, 2)
        np.testing.assert_allclose(stack.matrix[1, 0], a.ops[0].matrix, atol=1e-12)
        b, _ = self._composite(2, "pad", seed=1)
        with pytest.raises(ValueError, match="readout"):
            PartyArm([a, b])

    def test_plain_instrument_is_one_term(self):
        rng = np.random.default_rng(7)
        ins = random_instrument(rng, (A_IN,), (A_OUT,), 3)
        (branches,) = ins.terms.parts
        assert branches.matrix.shape == (3, 1, 4, 4)
        rebuilt = Instrument(ins.ops, ins.output_wires)
        for got, op in zip(rebuilt.ops, ins.ops):
            np.testing.assert_array_equal(got.matrix, op.matrix)
        with pytest.raises(ValueError, match="do not match"):
            Instrument(KronSum((OperatorStack((A_IN, A_OUT), branches.matrix),)), ("B",))


def _passes() -> list[Instrument]:
    """Two valid two-outcome instruments on (A_I, A_O)."""
    return [identity_channel_instrument(A_IN, A_OUT, k, 2) for k in (0, 1)]


def _plain(branches: np.ndarray) -> Instrument:
    """An instrument from A_I to A_O whose one part is stacked as ``branches`` is."""
    return Instrument(KronSum((OperatorStack((A_IN, A_OUT), branches),)), ("A_O",))


MEASURED = (WireLabel("m1", 2), WireLabel("m2", 2))


class TestInputChecks:
    """Input checks that no other test reaches, each through its public entry point."""

    @pytest.mark.parametrize(
        "call, fragment",
        [
            pytest.param(
                lambda: _plain(np.zeros((2, 4, 4))),
                "stacked by (outcome, term)",
                id="misshapen-part",
            ),
            pytest.param(
                lambda: _plain(np.zeros((0, 1, 4, 4))),
                "at least one outcome",
                id="no-outcome",
            ),
            pytest.param(
                lambda: choi_of_unitary(np.eye(2), A_IN, WireLabel("out", 3)), "equal wire dims", id="choi-dims"
            ),
            pytest.param(
                lambda: identity_channel_instrument(A_IN, A_OUT, 2, 2), "out of range", id="forced-outcome"
            ),
            pytest.param(
                lambda: measure_prepare_instrument([E0], [E0], A_IN, A_OUT), "must have 2 vectors", id="basis-size"
            ),
            pytest.param(
                lambda: measure_prepare_instrument([E0, E1], [E0, 2 * E1], A_IN, A_OUT),
                "must be normalized",
                id="preparation-norm",
            ),
            pytest.param(
                lambda: extend_instrument_with_measurement(PartyArm(_passes()), np.eye(4), MEASURED, 2),
                "selector must be 0 or 1",
                id="selector",
            ),
            pytest.param(
                lambda: extend_instrument_with_measurement(PartyArm([]), np.eye(4), MEASURED, 0),
                "an arm needs at least one instrument",
                id="empty-family",
            ),
            pytest.param(
                lambda: extend_instrument_with_measurement(
                    PartyArm([_passes()[0], identity_channel_instrument(WireLabel("X", 2), WireLabel("Y", 2), 1, 2)]),
                    np.eye(4),
                    MEASURED,
                    0,
                ),
                "every stacked operator must act on the wires ('A_I', 'A_O'), in that order",
                id="family-wires",
            ),
            pytest.param(
                lambda: conjugate_instrument(_passes()[0], np.eye(1), ()), "at least one wire name", id="conjugate-no-wire"
            ),
        ],
    )
    def test_raises(self, call, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            call()

    def test_non_hermitian_branch_gets_the_nan_report(self):
        skew = np.zeros((4, 4), dtype=complex)
        skew[0, 1] = 1.0
        report = validate_instrument(Instrument((LabeledOperator((A_IN, A_OUT), skew),), ("A_O",)))
        assert report.hermiticity == 1.0
        assert np.isnan(report.outcome_min_eigs).all()
        assert report.tp_residual == float("inf")
        assert not report.valid

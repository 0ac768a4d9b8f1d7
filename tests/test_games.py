"""Game evaluation oracles.

The headline numbers asserted here were derived by hand before the
implementation existed and are frozen as closed forms:

* forced-answer/flip-readout strategy on the indefinite-order process:
  per-input branches 0, (2+sqrt2)/4, (2+sqrt2)/4, (1+1/sqrt2)/4, averaging
  to (5/16)(1+1/sqrt2);
* conjugate-basis baseline for retrieval: every code wins with 1/2.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import product

import numpy as np
import pytest

from causalkit.games import (
    CYRIL_GYNI_VALUE,
    BellCode,
    GameStrategy,
    PartyArm,
    bell_state,
    behaviour,
    coded_pairs,
    constant_output_gyni_strategy,
    cyril_gyni_strategy,
    game_terms,
    game_value,
    pauli_y_baseline_strategy,
    relay_gyni_strategy,
    _resend_same_mutant,
)
from causalkit.duality import DIRECTION_TOKENS, check_duality, dr_to_gyni, fourier, gyni_to_dr
from causalkit.instruments import Instrument, identity_channel_instrument, validate_instrument
from causalkit.processes import ProcessMatrix, PartySlot, _pauli, build_cyril
from causalkit.sampling import random_dr_strategy, random_gyni_strategy, random_instrument
from causalkit.tensor import (
    LabeledOperator,
    OperatorStack,
    WireLabel,
    batched_trace,
    min_eigenvalue,
    partial_trace,
    stack_operators,
)

SQRT2 = np.sqrt(2)


class TestBellCodes:
    def test_qubit_codes_frozen(self):
        # (x1, x2) = (shift, phase): 00 and 10 are the even pair states,
        # 01 and 11 pick up the relative minus sign. Every real entry is
        # exactly +-1/2 or 0; the phase exp(i pi) leaves an imaginary rounding.
        expected = {
            (0, 0): [1, 0, 0, 1],
            (1, 0): [0, 1, 1, 0],
            (0, 1): [1, 0, 0, -1],
            (1, 1): [0, 1, -1, 0],
        }
        for (x1, x2), vec in expected.items():
            state = bell_state(BellCode(2, x1, x2))
            np.testing.assert_array_equal(state.matrix.real, np.outer(vec, vec) / 2)
            np.testing.assert_allclose(state.matrix.imag, 0, atol=1e-15)

    def test_orthonormal_gram(self):
        # Tr[rho_x rho_y] = |<B^x|B^y>|^2 = delta_xy over the four qubit codes.
        pairs = coded_pairs(2, ("A", "B")).matrix.reshape(4, 4, 4)
        gram = np.einsum("xij,yji->xy", pairs, pairs)
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_qutrit_codes_orthonormal_and_hiding(self):
        codes = [BellCode(3, x1, x2) for x1, x2 in product(range(3), repeat=2)]
        states = [bell_state(c).matrix for c in codes]
        gram = np.array([[np.trace(u @ v) for v in states] for u in states])
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)
        for c in codes:
            state = bell_state(c)
            for wire in ("A", "B"):
                marg = partial_trace(state, {wire})
                np.testing.assert_allclose(marg.matrix, np.eye(3) / 3, atol=1e-12)

    def test_qubit_hiding_tight(self):
        for x1, x2 in product(range(2), repeat=2):
            state = bell_state(BellCode(2, x1, x2))
            for wire in ("A", "B"):
                marg = partial_trace(state, {wire})
                assert np.max(np.abs(marg.matrix - np.eye(2) / 2)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_bell_state_is_its_coded_pair(self, d):
        pairs = coded_pairs(d, ("P", "Q"))
        for x1, x2 in product(range(d), repeat=2):
            state = bell_state(BellCode(d, x1, x2), ("P", "Q"))
            assert state.wires == pairs.wires
            np.testing.assert_array_equal(state.matrix, pairs.matrix[x1, x2])

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_each_wire_alone_sees_no_code(self, d):
        # Every coded pair leaves each wire maximally mixed: one party alone
        # learns nothing of the code, at every dimension.
        pairs = coded_pairs(d, ("A", "B")).matrix.reshape((d,) * 6)  # [x1, x2, a, b, a', b']
        mixed = np.broadcast_to(np.eye(d) / d, (d, d, d, d))
        np.testing.assert_allclose(np.einsum("xyabcb->xyac", pairs), mixed, atol=1e-12)
        np.testing.assert_allclose(np.einsum("xyabad->xybd", pairs), mixed, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_two_copies_decode_by_locc(self, d):
        # Copy 1 read in the computational basis on both wires gives
        # v - u = x1 mod d; copy 2 read in the Fourier basis gives
        # u + v = x2 mod d. Each reading is uniform over the d outcomes it
        # allows, so two copies reveal the code with certainty. Row d u + v
        # of a readout is <e_u|<e_v| for the basis columns e.
        pairs = coded_pairs(d, ("A", "B")).matrix
        z_read, f_read = (
            np.einsum("mi,xyij,mj->xym", readout, pairs, readout.conj()).real.reshape((d,) * 4)
            for readout in (np.kron(basis, basis).conj().T for basis in (np.eye(d), fourier(d)))
        )
        u, v = np.ix_(range(d), range(d))
        for x1, x2 in product(range(d), repeat=2):
            np.testing.assert_allclose(z_read[x1, x2], ((v - u) % d == x1) / d, atol=1e-12)
            np.testing.assert_allclose(f_read[x1, x2], ((u + v) % d == x2) / d, atol=1e-12)

    def test_bell_state_builds_only_its_pair(self):
        # All d^2 coded pairs take d^2 times the memory of the one returned.
        tracemalloc.start()
        try:
            state = bell_state(BellCode(12, 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * state.matrix.nbytes

    def test_code_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BellCode(2, 2, 0)
        with pytest.raises(ValueError):
            BellCode(1, 0, 0)

    def test_single_pair_readout_correlations(self):
        # Computational readings XOR to the shift symbol, conjugate readings
        # to the phase symbol; so two copies, one read each way, reveal both.
        plus = np.array([1.0, 1.0]) / SQRT2
        minus = np.array([1.0, -1.0]) / SQRT2
        for x1, x2 in product(range(2), repeat=2):
            state = bell_state(BellCode(2, x1, x2))
            for u, v in product(range(2), repeat=2):
                proj = np.kron(
                    np.diag([1 - u, u]).astype(complex), np.diag([1 - v, v])
                )
                p = np.trace(state.matrix @ proj).real
                assert p == pytest.approx(0.5 * ((u ^ v) == x1), abs=1e-12)
            for s, t in product(range(2), repeat=2):
                vs = (plus, minus)
                proj = np.kron(np.outer(vs[s], vs[s]), np.outer(vs[t], vs[t]))
                p = np.trace(state.matrix @ proj).real
                assert p == pytest.approx(0.5 * ((s ^ t) == x2), abs=1e-12)


class TestMutualGuessing:
    def test_cyril_value_closed_form(self):
        value = game_value(cyril_gyni_strategy())
        assert value == pytest.approx((5 / 16) * (1 + 1 / SQRT2), abs=1e-12)
        assert value == pytest.approx(CYRIL_GYNI_VALUE, abs=1e-15)

    @staticmethod
    def _exact_trace(op: np.ndarray, strategy: GameStrategy) -> Fraction:
        """Tr[op G] as an exact rational, G = the winning effects averaged over (x, y)."""
        g = batched_trace([], [arm.stack for arm in strategy.parties], ["xy", "yx"])
        tr = np.trace(op @ g.reshape(2, 2, 16, 16).mean(axis=(0, 1)))
        assert tr.imag == 0
        return Fraction(tr.real)

    def test_cyril_value_is_exact(self):
        # Cyril is W = P + Q/sqrt2 with P = I/4 and Q = (ZZZI + ZIXX)/4. Their traces against
        # the dyadic G are exact in float64, so the value is 5/16 (1 + 1/sqrt2) with no tolerance.
        p, q = _pauli("IIII") / 4, (_pauli("ZZZI") + _pauli("ZIXX")) / 4
        strategy = cyril_gyni_strategy()
        assert self._exact_trace(p, strategy) == self._exact_trace(q, strategy) == Fraction(5, 16)
        value = float(self._exact_trace(build_cyril().op.matrix, strategy))
        assert value == pytest.approx(game_value(strategy), abs=1e-15)
        # Re-preparing the measured bit unchanged breaks the identity.
        assert self._exact_trace(q, _resend_same_mutant()) == Fraction(3, 16)

    def test_cyril_per_input_branches_frozen(self):
        terms = game_terms(cyril_gyni_strategy())
        assert terms[(0, 0)] == pytest.approx(0.0, abs=1e-12)
        assert terms[(0, 1)] == pytest.approx((2 + SQRT2) / 4, abs=1e-12)
        assert terms[(1, 0)] == pytest.approx((2 + SQRT2) / 4, abs=1e-12)
        assert terms[(1, 1)] == pytest.approx((1 + 1 / SQRT2) / 4, abs=1e-12)

    def test_cyril_beats_every_ordered_benchmark(self):
        assert game_value(cyril_gyni_strategy()) > 0.5 + 0.03

    def test_relay_benchmark(self):
        assert game_value(relay_gyni_strategy()) == pytest.approx(0.5, abs=1e-12)

    def test_relay_terms_are_exact(self):
        # The identity channel's Choi operator has entries exactly 1, so no term rounds.
        assert set(game_terms(relay_gyni_strategy()).values()) == {0.5}

    def test_constant_benchmark(self):
        assert game_value(constant_output_gyni_strategy()) == pytest.approx(0.25, abs=1e-12)

    def test_normalization_per_input(self):
        table = behaviour(cyril_gyni_strategy())
        for i1, i2 in product(range(2), repeat=2):
            dist = table[i1, i2]
            assert dist.min() >= -1e-9
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_random_strategy_probabilities_in_range(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            table = behaviour(random_gyni_strategy(rng, 2))
            for i1, i2 in product(range(2), repeat=2):
                dist = table[i1, i2]
                assert dist.min() >= -1e-9
                assert dist.max() <= 1 + 1e-9
                assert dist.sum() == pytest.approx(1.0, abs=1e-9)


    def test_qutrit_behaviour_matches_explicit_kron(self):
        strategy = random_gyni_strategy(np.random.default_rng(62), 3)
        table = behaviour(strategy)
        w = strategy.process.op.matrix
        arm_a, arm_b = strategy.parties
        want = np.empty((3, 3, 3, 3))
        for x, y, a, b in product(range(3), repeat=4):
            effect = np.kron(arm_a.instruments[x].ops[a].matrix, arm_b.instruments[y].ops[b].matrix)
            want[x, y, a, b] = np.trace(w @ effect).real
        np.testing.assert_allclose(table, want, atol=1e-12)
        np.testing.assert_allclose(table.sum(axis=(2, 3)), np.ones((3, 3)), atol=1e-12)


class TestRetrieval:
    def test_pauli_y_baseline_value(self):
        strategy = pauli_y_baseline_strategy()
        value = game_value(strategy)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_pauli_y_outcome_table_frozen(self):
        # Per code: the two anti-aligned (or aligned) outcome pairs carry 1/2
        # each and exactly one of them is the winning pair.
        strategy = pauli_y_baseline_strategy()
        expected_half = {
            (0, 0): {(0, 0), (1, 1)},
            (0, 1): {(0, 1), (1, 0)},
            (1, 0): {(1, 0), (0, 1)},
            (1, 1): {(1, 1), (0, 0)},
        }
        for (x1, x2), support in expected_half.items():
            state = bell_state(BellCode(2, x1, x2), ("A", "B"))
            for a, b in product(range(2), repeat=2):
                p = behaviour(strategy, state)[0, 0, a, b]
                target = 0.5 if (a, b) in support else 0.0
                assert p == pytest.approx(target, abs=1e-12)
            assert (x1, x2) in support  # the winning pair is always present

    def test_retrieval_terms_all_half(self):
        strategy = pauli_y_baseline_strategy()
        terms = game_terms(strategy)
        for p in terms.values():
            assert p == pytest.approx(0.5, abs=1e-12)

    def test_retrieval_normalization(self):
        strategy = pauli_y_baseline_strategy()
        for x1, x2 in product(range(2), repeat=2):
            state = bell_state(BellCode(2, x1, x2), ("A", "B"))
            dist = behaviour(strategy, state)[0, 0]
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)


    def test_qutrit_behaviour_matches_explicit_kron(self):
        strategy = random_dr_strategy(np.random.default_rng(63), 3)
        codes = [bell_state(BellCode(3, x1, x2)) for x1, x2 in product(range(3), repeat=2)]
        table = behaviour(strategy, stack_operators(codes, (9,)))
        assert table.shape == (9, 1, 1, 3, 3)
        w = strategy.process.op.matrix  # wires (A_I, A_O, B_I, B_O)
        ins_a, ins_b = (arm.instruments[0] for arm in strategy.parties)
        # Effect wires (A, A_I, A_O, B, B_I, B_O) reordered to the carrier's
        # (A_I, A_O, B_I, B_O, A, B), rows and columns alike.
        order = [1, 2, 4, 5, 0, 3]
        # Each effect transposed once: Tr[C E] is the entrywise sum of C * E^T.
        transposed = {}
        for a, b in product(range(3), repeat=2):
            effect = np.kron(ins_a.ops[a].matrix, ins_b.ops[b].matrix)
            effect = effect.reshape((3,) * 12).transpose(order + [6 + i for i in order])
            transposed[a, b] = effect.reshape(729, 729).T
        for k, code in enumerate(codes):
            carrier = np.kron(w, code.matrix)
            for (a, b), effect_t in transposed.items():
                want = np.sum(carrier * effect_t).real
                assert table[k, 0, 0, a, b] == pytest.approx(want, abs=1e-12)
            assert table[k, 0, 0].sum() == pytest.approx(1.0, abs=1e-12)


class TestStructuralErrors:
    def test_wire_mismatch_rejected(self):
        strategy = pauli_y_baseline_strategy()
        with pytest.raises(ValueError):
            behaviour(strategy)  # code wires unfilled

    def test_unfilled_code_wire_rejected_before_contraction(self, monkeypatch):
        from causalkit import games

        def no_contraction(*args, **kwargs):
            raise AssertionError("contraction ran")

        strategy = pauli_y_baseline_strategy()
        monkeypatch.setattr(games, "batched_trace", no_contraction)
        half = LabeledOperator((WireLabel("A", 2),), np.eye(2) / 2)
        for states in (None, half):
            with pytest.raises(ValueError, match="hold no state"):
                behaviour(strategy, states)

    def test_code_wire_dimensions_must_agree(self, monkeypatch):
        from causalkit import games

        rng = np.random.default_rng(65)
        arm_a = random_dr_strategy(rng, 2).parties[0]
        # Party B reads a qutrit code wire against party A's qubit one.
        wires = (WireLabel("B", 3), WireLabel("B_I", 2)), (WireLabel("B_O", 2),)
        arm_b = PartyArm((random_instrument(rng, *wires, 2),))
        process = random_dr_strategy(rng, 2).process

        def contracted(*args):
            raise AssertionError("contracted before the code wires were checked")

        monkeypatch.setattr(games, "batched_trace", contracted)
        with pytest.raises(ValueError, match="one dimension"):
            GameStrategy(process, (arm_a, arm_b))

    @pytest.mark.parametrize(
        "inputs, held",
        [(("B_I",), r"\[\]"), (("B", "B2", "B_I"), r"\['B', 'B2'\]")],
        ids=["no-code-wire", "two-code-wires"],
    )
    def test_one_code_wire_per_party(self, monkeypatch, inputs, held):
        from causalkit import games

        rng = np.random.default_rng(66)
        strategy = random_dr_strategy(rng, 2)
        # Party B's instrument acts on zero or two wires the process lacks.
        wires = tuple(WireLabel(n, 2) for n in inputs), (WireLabel("B_O", 2),)
        arm_b = PartyArm((random_instrument(rng, *wires, 2),))

        def contracted(*args):
            raise AssertionError("contracted before the code wires were checked")

        monkeypatch.setattr(games, "batched_trace", contracted)
        with pytest.raises(ValueError, match=f"one per party; party 'B' has {held}"):
            GameStrategy(strategy.process, (strategy.parties[0], arm_b))

    @pytest.mark.parametrize("build", [cyril_gyni_strategy, pauli_y_baseline_strategy])
    def test_swapped_arms_rejected(self, build):
        strategy = build()
        with pytest.raises(ValueError, match="arm of party 'A' acts on process wires"):
            GameStrategy(strategy.process, strategy.parties[::-1])

    def test_arm_on_other_party_wire_rejected(self):
        rng = np.random.default_rng(67)
        strategy = random_gyni_strategy(rng, 2)
        # Party A's instrument also reads party B's input wire.
        wires = (WireLabel("A_I", 2), WireLabel("B_I", 2)), (WireLabel("A_O", 2),)
        arm_a = PartyArm(tuple(random_instrument(rng, *wires, 2) for _ in range(2)))
        with pytest.raises(ValueError, match=r"party 'A' acts on process wires \['B_I'\]"):
            GameStrategy(strategy.process, (arm_a, strategy.parties[1]))

    def test_code_wire_of_two_parties_rejected(self):
        rng = np.random.default_rng(68)
        strategy = random_dr_strategy(rng, 2)
        # Party B's instrument reads party A's code wire (A, B_I) -> B_O.
        wires = (WireLabel("A", 2), WireLabel("B_I", 2)), (WireLabel("B_O", 2),)
        arm_b = PartyArm((random_instrument(rng, *wires, 2),))
        with pytest.raises(ValueError, match="parties 'A' and 'B' both act on code wire 'A'"):
            GameStrategy(strategy.process, (strategy.parties[0], arm_b))


def _renamed_cyril_strategy() -> GameStrategy:
    """The forced-answer/flip-readout strategy with every wire renamed."""
    mapping = {"A_I": "P_in", "A_O": "P_out", "B_I": "Q_in", "B_O": "Q_out"}
    source = cyril_gyni_strategy()

    def rename_op(op: LabeledOperator) -> LabeledOperator:
        wires = tuple(WireLabel(mapping[w.name], w.dim) for w in op.wires)
        return LabeledOperator(wires, op.matrix)

    proc = ProcessMatrix(
        rename_op(source.process.op),
        (PartySlot("A", "P_in", "P_out"), PartySlot("B", "Q_in", "Q_out")),
    )
    arms = []
    for arm in source.parties:
        new_ins = tuple(
            Instrument(
                tuple(rename_op(op) for op in ins.ops),
                tuple(mapping[w] for w in ins.output_wires),
            )
            for ins in arm.instruments
        )
        arms.append(PartyArm(new_ins))
    return GameStrategy(proc, tuple(arms))


def _renamed_code_wires(strategy: GameStrategy, names: tuple[str, str]) -> GameStrategy:
    """A retrieval strategy with its two code wires renamed."""
    mapping = dict(zip(strategy.state_wires, names))

    def rename(wires: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(mapping.get(n, n) for n in wires)

    arms = []
    for arm in strategy.parties:
        (ins,) = arm.instruments
        wires = tuple(WireLabel(mapping.get(w.name, w.name), w.dim) for w in ins.wires)
        ops = tuple(LabeledOperator(wires, op.matrix) for op in ins.ops)
        renamed = Instrument(ops, rename(ins.output_wires))
        arms.append(PartyArm((renamed,)))
    return GameStrategy(strategy.process, tuple(arms))


class TestRelabelingInvariance:
    def test_renamed_wires_same_value(self):
        original = game_value(cyril_gyni_strategy())
        renamed = game_value(_renamed_cyril_strategy())
        assert renamed == pytest.approx(original, abs=1e-12)

    def test_renamed_terms_match(self):
        a = game_terms(cyril_gyni_strategy())
        b = game_terms(_renamed_cyril_strategy())
        for key in a:
            assert b[key] == pytest.approx(a[key], abs=1e-12)

    def test_qutrit_retrieval_code_wires_renamed(self):
        strategy = random_dr_strategy(np.random.default_rng(64), 3)
        renamed = _renamed_code_wires(strategy, ("P", "Q"))
        assert renamed.state_wires == ("P", "Q")
        assert renamed.parties[1].instruments[0].wire("Q").dim == 3
        a, b = game_terms(strategy), game_terms(renamed)
        assert set(b) == set(product(range(3), repeat=2))
        for key in a:
            assert b[key] == pytest.approx(a[key], abs=1e-12)
        assert game_value(renamed) == pytest.approx(game_value(strategy), abs=1e-12)


class TestDerivedCodeWires:
    """``state_wires`` is read off the instruments: each arm's off-process wires."""

    @pytest.mark.parametrize(
        "build", [cyril_gyni_strategy, relay_gyni_strategy, constant_output_gyni_strategy]
    )
    def test_guessing_builtins_have_none(self, build):
        assert build().state_wires == ()

    def test_pauli_y_baseline(self):
        assert pauli_y_baseline_strategy().state_wires == ("A", "B")

    @pytest.mark.parametrize("d", [2, 3])
    def test_sampled_and_translated(self, d):
        rng = np.random.default_rng([68, d])
        guessing, retrieval = random_gyni_strategy(rng, d), random_dr_strategy(rng, d)
        assert guessing.state_wires == ()
        assert retrieval.state_wires == ("A", "B")
        assert gyni_to_dr(guessing).state_wires == ("A", "B")
        assert dr_to_gyni(retrieval).state_wires == ()
        if d == 2:
            assert gyni_to_dr(cyril_gyni_strategy()).state_wires == ("A", "B")
            assert dr_to_gyni(pauli_y_baseline_strategy()).state_wires == ()


# (id, builder, d, plays retrieval): the named strategies and seeded samples.
BUILT = [
    ("cyril", cyril_gyni_strategy, 2, False),
    ("relay", relay_gyni_strategy, 2, False),
    ("constant", constant_output_gyni_strategy, 2, False),
    ("pauli-y", pauli_y_baseline_strategy, 2, True),
    ("cyril-dual", lambda: gyni_to_dr(cyril_gyni_strategy()), 2, True),
    *(
        (f"{game}-d{d}", lambda sample=sample, d=d: sample(np.random.default_rng([69, d]), d), d, game == "dr")
        for game, sample in (("gyni", random_gyni_strategy), ("dr", random_dr_strategy))
        for d in range(2, 6)
    ),
]


class TestGameSettledAtBuild:
    """A strategy's game and ``d`` are settled, and its shape checked, when it is built."""

    @pytest.mark.parametrize("translate", [False, True], ids=["source", "translated"])
    @pytest.mark.parametrize("build, d, retrieval", [case[1:] for case in BUILT], ids=[case[0] for case in BUILT])
    def test_dimension_and_code_wires(self, build, d, retrieval, translate):
        strategy = build()
        if translate:
            strategy, retrieval = (dr_to_gyni if retrieval else gyni_to_dr)(strategy), not retrieval
        assert strategy.d == d
        assert strategy.state_wires == (("A", "B") if retrieval else ())
        for arm, code_wire in zip(strategy.parties, strategy.state_wires or (None, None)):
            assert len(arm.instruments) == (1 if retrieval else d)
            assert {ins.n_outcomes for ins in arm.instruments} == {d}
            if retrieval:
                assert arm.instruments[0].wire(code_wire).dim == d

    @pytest.mark.parametrize("d", [2, 3])
    def test_three_parties(self, d, forbid_contraction):
        rng = np.random.default_rng([70, d])
        wires = [WireLabel(f"{p}_{end}", d) for p in "ABC" for end in "IO"]
        slots = tuple(PartySlot(p, f"{p}_I", f"{p}_O") for p in "ABC")
        process = ProcessMatrix(LabeledOperator(tuple(wires), np.eye(d**6) / d**3), slots)
        labs = list(zip(wires[::2], wires[1::2]))
        arms = [PartyArm(tuple(random_instrument(rng, (i,), (o,), d) for _ in range(d))) for i, o in labs]
        strategy = GameStrategy(process, tuple(arms))
        assert (strategy.d, strategy.state_wires) == (d, ())
        table = behaviour(strategy)  # P[x, y, z, a, b, c]
        assert table.shape == (d,) * 6
        np.testing.assert_allclose(table.sum(axis=(3, 4, 5)), np.ones((d,) * 3), atol=1e-12)
        # One code wire per party (X, Y, Z): a three-party retrieval strategy.
        coded = [random_instrument(rng, (WireLabel(c, d), i), (o,), d) for c, (i, o) in zip("XYZ", labs)]
        retrieval = GameStrategy(process, tuple(PartyArm((ins,)) for ins in coded))
        assert (retrieval.d, retrieval.state_wires) == (d, ("X", "Y", "Z"))
        # Behaviour takes any number of parties; the games take two, checked before any contraction.
        forbid_contraction()
        for source in (strategy, retrieval):
            for score in (game_value, *(partial(check_duality, direction=t) for t in DIRECTION_TOKENS)):
                with pytest.raises(ValueError, match="expected a bipartite process, got 3 parties"):
                    score(source)
        arms[2] = PartyArm(arms[2].instruments[1:])
        with pytest.raises(ValueError, match="disagree on the number of classical inputs"):
            GameStrategy(process, tuple(arms))


class TestDerivedInputWires:
    """An instrument reads every wire it does not emit, in its parts' order: a
    plain retrieval instrument its code wire, then its lab input; a gyni_to_dr
    composite its lab input (the source family), then the code and fresh wires
    its readout part measures; a dr_to_gyni twirl of a plain instrument the
    code wire it conjugates, then its lab input."""

    @pytest.mark.parametrize("translate", [False, True], ids=["source", "translated"])
    @pytest.mark.parametrize("case", BUILT, ids=[case[0] for case in BUILT])
    def test_every_instrument(self, case, translate):
        name, build, _, retrieval = case
        strategy = build()
        read_out = name == "cyril-dual" or (translate and not retrieval)
        if translate:
            strategy = (dr_to_gyni if retrieval else gyni_to_dr)(strategy)
        for code, slot, arm in zip("AB", strategy.process.parties, strategy.parties):
            if read_out:
                expected = (slot.input_wire, code, f"{code}'")
            elif retrieval:
                expected = (code, slot.input_wire)
            else:
                expected = (slot.input_wire,)
            assert {(ins.input_wires, ins.output_wires) for ins in arm.instruments} == {
                (expected, (slot.output_wire,))
            }


def _seeded_strategies(d: int, seed: int) -> dict[str, GameStrategy]:
    """Seeded sources of both games and their translations, whose processes
    are extended and whose retrieval instruments are two-part kron sums."""
    rng = np.random.default_rng([seed, d])
    gyni, dr = random_gyni_strategy(rng, d), random_dr_strategy(rng, d)
    return {"gyni": gyni, "dr": dr, "gyni_to_dr": gyni_to_dr(gyni), "dr_to_gyni": dr_to_gyni(dr)}


class TestTiedContraction:
    """game_terms contracts only each game's winning entries; these are
    the entries of the full behaviour table that the game reads."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_terms_are_entries_of_the_full_table(self, d, seed):
        strategies = _seeded_strategies(d, seed)
        assert len(strategies["gyni_to_dr"].parties[0].instruments[0].terms.parts) == 2
        assert len(strategies["dr_to_gyni"].process.factors) == 2
        for name, strategy in strategies.items():
            # The one game_terms reads the game off the strategy.
            if strategy.state_wires:
                table = behaviour(strategy, coded_pairs(d, strategy.state_wires))  # P[x1, x2, 0, 0, a, b]
                wins = {(x1, x2): table[x1, x2, 0, 0, x1, x2] for x1, x2 in product(range(d), repeat=2)}
            else:
                table = behaviour(strategy)  # P[x, y, a, b]
                wins = {(i1, i2): table[i1, i2, i2, i1] for i1, i2 in product(range(d), repeat=2)}
            terms = game_terms(strategy)
            assert terms.keys() == wins.keys(), name
            for key, p in terms.items():
                assert abs(p - wins[key]) <= 1e-12, name

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_scoring_stacks_no_arm(self, monkeypatch, d):
        # Every arm is stacked when it is built; scoring only reads the stacks.
        from causalkit import instruments, tensor

        strategies = _seeded_strategies(d, 3)

        def stacked(*args):
            raise AssertionError("an instrument family was stacked while scoring")

        for module in (instruments, tensor):
            monkeypatch.setattr(module, "stack_operators", stacked)
        for strategy in strategies.values():
            codes = coded_pairs(d, strategy.state_wires) if strategy.state_wires else None
            game_value(strategy), game_terms(strategy), behaviour(strategy, codes)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stacked_eigenvalues_match_each_branch(self, d):
        for strategy in _seeded_strategies(d, 2).values():
            for ins in (ins for arm in strategy.parties for ins in arm.instruments):
                stacked = validate_instrument(ins).outcome_min_eigs
                assert stacked == tuple(min_eigenvalue(op) for op in ins.ops)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_tie_of_unequal_lengths_rejected_before_arithmetic(self, monkeypatch, d):
        from causalkit import tensor

        wire = (WireLabel("A", d),)
        carrier = OperatorStack(wire, np.zeros((d, d, d)))
        effect = OperatorStack(wire, np.zeros((d + 1, d, d)))

        def contracted(*args):
            raise AssertionError("contracted before the tied lengths were checked")

        for name in ("einsum_path", "einsum", "matmul"):
            monkeypatch.setattr(tensor.np, name, contracted)
        with pytest.raises(ValueError, match=f"ties axes of lengths {d} and {d + 1}"):
            batched_trace([carrier], [effect], ["x", "x"])


try:
    from numpy._core import einsumfunc as _einsumfunc
except ImportError:  # numpy 1.x
    _einsumfunc = None
# numpy 2.4's einsum contracts each pair of a path by matmul, the steps the runner replays.
PAIRS_BY_MATMUL = hasattr(_einsumfunc, "bmm_einsum")


def _spy_runs(monkeypatch) -> tuple:
    """The runner, and the list it records every (plan, tensors) into that ``batched_trace`` hands it."""
    from causalkit import tensor

    run, seen = tensor._run, []
    monkeypatch.setattr(tensor, "_run", lambda plan, tensors: seen.append((plan, tensors)) or run(plan, tensors))
    return run, seen


class TestCompiledContraction:
    """The runner replays np.einsum's pairwise steps, along the plan's path,
    into its workspace, so it returns np.einsum's bits; a pair with nothing
    contracted is a broadcast multiply, as in numpy. On a numpy whose einsum
    does not contract pairs by matmul there are no such bits to match, and the
    comparison is to 16 ulp of the largest entry instead."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_runner_gives_einsums_bits(self, monkeypatch, d):
        from causalkit import duality

        run, seen = _spy_runs(monkeypatch)
        for strategy in _seeded_strategies(d, 23).values():
            game_terms(strategy)
            behaviour(strategy, coded_pairs(d, strategy.state_wires) if strategy.state_wires else None)
            for arm in strategy.parties:
                assert arm.instruments[0].terms.matrix.ndim == 3
        duality.readout_correlation_residual(d)
        assert sum(bool(plan[3]) for plan, _ in seen) >= 8
        for plan, tensors in seen:
            got = np.ascontiguousarray(run(plan, tensors))
            want = np.ascontiguousarray(np.einsum(plan[0], *tensors, optimize=plan[2]))
            if PAIRS_BY_MATMUL:
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), plan[0]
            else:
                # Another numpy sums each pair in its own order. On this path, a
                # per-pair c_einsum replay differed by up to 8 ulp of the largest entry.
                assert np.abs(got - want).max() <= 16 * np.spacing(np.abs(want).max()), plan[0]

    def test_every_contraction_of_two_or_more_tensors_runs_steps(self, monkeypatch):
        # numpy's greedy path for the readout ends in a three-operand step, and
        # one of its pairs contracts nothing; both now run as the runner's pairs.
        from causalkit import cli, duality

        _, seen = _spy_runs(monkeypatch)
        for d in (2, 3, 4, 5):
            duality.readout_correlation_residual(d)
        cli.build_manifest()
        rng = np.random.default_rng([1, 0])
        check_duality(random_gyni_strategy(rng, 4), "gyni2dr"), check_duality(random_dr_strategy(rng, 4), "dr2gyni")
        assert sum(len(tensors) > 2 for _, tensors in seen) >= 8
        for plan, tensors in seen:
            assert len(plan[3]) == len(tensors) - 1, plan[0]

    def test_no_pure_layout_calls_einsum(self, monkeypatch):
        # A side that only permutes axes and drops length-1 ones is written by
        # np.copyto; only a copy that sums or takes a diagonal runs np.einsum.
        # (A lone tensor has no sides: one np.einsum lays it out.)
        from causalkit import cli, tensor

        _, seen = _spy_runs(monkeypatch)
        run, in_run, copies = tensor._run, [], []
        einsum = np.einsum

        def running(plan, tensors):
            in_run.append(bool(plan[3]))
            try:
                return run(plan, tensors)
            finally:
                in_run.pop()

        def spied(eq, *operands, **kwargs):
            if in_run and in_run[-1] and len(operands) == 1:
                copies.append((eq, operands[0].shape))
            return einsum(eq, *operands, **kwargs)

        monkeypatch.setattr(tensor, "_run", running)
        monkeypatch.setattr(np, "einsum", spied)
        cli.build_manifest()
        rng = np.random.default_rng([1, 0])
        check_duality(random_gyni_strategy(rng, 4), "gyni2dr"), check_duality(random_dr_strategy(rng, 4), "dr2gyni")
        layouts = [side for plan, _ in seen for step in plan[3] for side in step[1] if isinstance(side[0], tuple)]
        assert len(layouts) >= 8
        for eq, shape in copies:
            term, want = eq.split("->")
            sizes = dict(zip(term, shape))
            pure = len(set(term)) == len(term) and all(sizes[ix] == 1 for ix in term if ix not in want)
            assert not pure, eq

    def test_warm_d4_translation_stays_small(self):
        # einsum's own transposed copies and a re-copied stack of the
        # conjugated arm would take 6.0 MB here.
        strategy = dr_to_gyni(random_dr_strategy(np.random.default_rng([1, 0]), 4))
        game_value(strategy)  # plans made and the workspace taken
        tracemalloc.start()
        try:
            game_value(strategy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20


def _imaginary(arm: PartyArm) -> PartyArm:
    """The arm with every CJ operator multiplied by i."""
    instruments = []
    for ins in arm.instruments:
        ops = tuple(LabeledOperator(o.wires, 1j * o.matrix) for o in ins.ops)
        instruments.append(Instrument(ops, ins.output_wires))
    return PartyArm(tuple(instruments))


def _rearmed(strategy: GameStrategy, arm) -> GameStrategy:
    """``strategy`` with ``arm(k, party's arm)`` for party k's arm."""
    return GameStrategy(strategy.process, tuple(arm(k, a) for k, a in enumerate(strategy.parties)))


def _three_outcome_arm(k: int, arm: PartyArm) -> PartyArm:
    ins = arm.instruments[0]
    wires = ins.wire(ins.input_wires[-1]), ins.wire(ins.output_wires[0])
    return PartyArm((identity_channel_instrument(*wires, 0, 3),) * 2)


class TestInputChecks:
    """Input checks that no other test reaches, each through its public entry point."""

    @pytest.mark.parametrize(
        "call, fragment",
        [
            pytest.param(lambda: PartyArm(()), "at least one instrument", id="empty-arm"),
            pytest.param(
                lambda: GameStrategy(relay_gyni_strategy().process, relay_gyni_strategy().parties[:1]),
                "must equip every process party",
                id="missing-arm",
            ),
            pytest.param(
                lambda: game_value(_rearmed(relay_gyni_strategy(), lambda k, a: PartyArm(a.instruments[k:]))),
                "disagree on the number of classical inputs",
                id="input-counts",
            ),
            pytest.param(
                lambda: game_value(_rearmed(relay_gyni_strategy(), _three_outcome_arm)),
                "d instruments of d outcomes",
                id="outcome-count",
            ),
            pytest.param(
                lambda: game_value(_rearmed(pauli_y_baseline_strategy(), lambda k, a: PartyArm(a.instruments * 2))),
                "take no classical input",
                id="retrieval-inputs",
            ),
            pytest.param(
                lambda: game_value(_rearmed(relay_gyni_strategy(), lambda k, a: _imaginary(a) if k == 0 else a)),
                "non-real value",
                id="non-real",
            ),
        ],
    )
    def test_raises(self, call, fragment):
        with pytest.raises(ValueError, match=fragment):
            call()

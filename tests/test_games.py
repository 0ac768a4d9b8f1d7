"""Game evaluation oracles.

The headline numbers asserted here were derived by hand before the
implementation existed and are frozen as closed forms:

* forced-answer/flip-readout strategy on the indefinite-order process:
  per-input branches 0, (2+sqrt2)/4, (2+sqrt2)/4, (1+1/sqrt2)/4, averaging
  to (5/16)(1+1/sqrt2);
* conjugate-basis baseline for retrieval: every code wins with 1/2.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from causalkit.games import (
    CYRIL_GYNI_VALUE,
    BellCode,
    GameStrategy,
    PartyArm,
    bell_state,
    bell_vector,
    behaviour,
    coded_pairs,
    constant_output_gyni_strategy,
    cyril_gyni_strategy,
    dr_terms,
    eval_dr,
    eval_gyni,
    gyni_terms,
    pauli_y_baseline_strategy,
    relay_gyni_strategy,
)
from causalkit.duality import dr_to_gyni, gyni_to_dr
from causalkit.instruments import Instrument, identity_channel_instrument, validate_instrument
from causalkit.processes import ProcessMatrix, PartySlot
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
        # 01 and 11 pick up the relative minus sign.
        r = 1 / SQRT2
        expected = {
            (0, 0): [r, 0, 0, r],
            (1, 0): [0, r, r, 0],
            (0, 1): [r, 0, 0, -r],
            (1, 1): [0, r, -r, 0],
        }
        for (x1, x2), vec in expected.items():
            np.testing.assert_allclose(
                bell_vector(BellCode(2, x1, x2)), vec, atol=1e-15
            )

    def test_orthonormal_gram(self):
        codes = [BellCode(2, x1, x2) for x1, x2 in product(range(2), repeat=2)]
        vecs = [bell_vector(c) for c in codes]
        gram = np.abs(np.array([[np.vdot(u, v) for v in vecs] for u in vecs]))
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_qutrit_codes_orthonormal_and_hiding(self):
        codes = [BellCode(3, x1, x2) for x1, x2 in product(range(3), repeat=2)]
        vecs = [bell_vector(c) for c in codes]
        gram = np.abs(np.array([[np.vdot(u, v) for v in vecs] for u in vecs]))
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

    def test_code_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BellCode(2, 2, 0)
        with pytest.raises(ValueError):
            BellCode(1, 0, 0)

    def test_single_pair_readout_correlations(self):
        # Computational readings XOR to the shift symbol, conjugate readings
        # to the phase symbol; this grounds the classical decoder.
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
        value = eval_gyni(cyril_gyni_strategy())
        assert value == pytest.approx((5 / 16) * (1 + 1 / SQRT2), abs=1e-12)
        assert value == pytest.approx(CYRIL_GYNI_VALUE, abs=1e-15)

    def test_cyril_per_input_branches_frozen(self):
        terms = gyni_terms(cyril_gyni_strategy())
        assert terms[(0, 0)] == pytest.approx(0.0, abs=1e-12)
        assert terms[(0, 1)] == pytest.approx((2 + SQRT2) / 4, abs=1e-12)
        assert terms[(1, 0)] == pytest.approx((2 + SQRT2) / 4, abs=1e-12)
        assert terms[(1, 1)] == pytest.approx((1 + 1 / SQRT2) / 4, abs=1e-12)

    def test_cyril_beats_every_ordered_benchmark(self):
        assert eval_gyni(cyril_gyni_strategy()) > 0.5 + 0.03

    def test_relay_benchmark(self):
        assert eval_gyni(relay_gyni_strategy()) == pytest.approx(0.5, abs=1e-12)

    def test_relay_terms_are_exact(self):
        # The identity channel's Choi operator has entries exactly 1, so no term rounds.
        assert set(gyni_terms(relay_gyni_strategy()).values()) == {0.5}

    def test_constant_benchmark(self):
        assert eval_gyni(constant_output_gyni_strategy()) == pytest.approx(0.25, abs=1e-12)

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
        value = eval_dr(strategy)
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

    def test_dr_terms_all_half(self):
        strategy = pauli_y_baseline_strategy()
        terms = dr_terms(strategy)
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

    def test_game_told_by_code_wires(self):
        retrieval, guessing = pauli_y_baseline_strategy(), cyril_gyni_strategy()
        with pytest.raises(ValueError, match="has code wires"):
            eval_gyni(retrieval)
        with pytest.raises(ValueError, match="two code wires"):
            eval_dr(guessing)


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
                tuple(mapping[w] for w in ins.input_wires),
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
        renamed = Instrument(ops, rename(ins.input_wires), rename(ins.output_wires))
        arms.append(PartyArm((renamed,)))
    return GameStrategy(strategy.process, tuple(arms))


class TestRelabelingInvariance:
    def test_renamed_wires_same_value(self):
        original = eval_gyni(cyril_gyni_strategy())
        renamed = eval_gyni(_renamed_cyril_strategy())
        assert renamed == pytest.approx(original, abs=1e-12)

    def test_renamed_terms_match(self):
        a = gyni_terms(cyril_gyni_strategy())
        b = gyni_terms(_renamed_cyril_strategy())
        for key in a:
            assert b[key] == pytest.approx(a[key], abs=1e-12)

    def test_qutrit_retrieval_code_wires_renamed(self):
        strategy = random_dr_strategy(np.random.default_rng(64), 3)
        renamed = _renamed_code_wires(strategy, ("P", "Q"))
        assert renamed.state_wires == ("P", "Q")
        assert renamed.parties[1].instruments[0].wire("Q").dim == 3
        a, b = dr_terms(strategy), dr_terms(renamed)
        assert set(b) == set(product(range(3), repeat=2))
        for key in a:
            assert b[key] == pytest.approx(a[key], abs=1e-12)
        assert eval_dr(renamed) == pytest.approx(eval_dr(strategy), abs=1e-12)


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
        assert strategy.game_dim(retrieval) == d
        with pytest.raises(ValueError, match="code wires"):
            strategy.game_dim(not retrieval)

    @pytest.mark.parametrize("d", [2, 3])
    def test_three_parties(self, d):
        rng = np.random.default_rng([70, d])
        wires = [WireLabel(f"{p}_{end}", d) for p in "ABC" for end in "IO"]
        slots = tuple(PartySlot(p, f"{p}_I", f"{p}_O") for p in "ABC")
        process = ProcessMatrix(LabeledOperator(tuple(wires), np.eye(d**6) / d**3), slots)
        labs = zip(wires[::2], wires[1::2])
        arms = [PartyArm(tuple(random_instrument(rng, (i,), (o,), d) for _ in range(d))) for i, o in labs]
        strategy = GameStrategy(process, tuple(arms))
        assert (strategy.d, strategy.state_wires) == (d, ())
        table = behaviour(strategy)  # P[x, y, z, a, b, c]
        assert table.shape == (d,) * 6
        np.testing.assert_allclose(table.sum(axis=(3, 4, 5)), np.ones((d,) * 3), atol=1e-12)
        arms[2] = PartyArm(arms[2].instruments[1:])
        with pytest.raises(ValueError, match="disagree on the number of classical inputs"):
            GameStrategy(process, tuple(arms))


def _seeded_strategies(d: int, seed: int) -> dict[str, GameStrategy]:
    """Seeded sources of both games and their translations, whose processes
    are extended and whose retrieval instruments are two-part kron sums."""
    rng = np.random.default_rng([seed, d])
    gyni, dr = random_gyni_strategy(rng, d), random_dr_strategy(rng, d)
    return {"gyni": gyni, "dr": dr, "gyni_to_dr": gyni_to_dr(gyni), "dr_to_gyni": dr_to_gyni(dr)}


class TestTiedContraction:
    """The evaluators contract only each game's winning entries; these are
    the entries of the full behaviour table that the game reads."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_terms_are_entries_of_the_full_table(self, d, seed):
        strategies = _seeded_strategies(d, seed)
        assert len(strategies["gyni_to_dr"].parties[0].instruments[0].terms.parts) == 2
        assert len(strategies["dr_to_gyni"].process.factors) == 2
        for name in ("gyni", "dr_to_gyni"):
            table = behaviour(strategies[name])  # P[x, y, a, b]
            for (i1, i2), p in gyni_terms(strategies[name]).items():
                assert abs(p - table[i1, i2, i2, i1]) <= 1e-12, name
        for name in ("dr", "gyni_to_dr"):
            strategy = strategies[name]
            table = behaviour(strategy, coded_pairs(d, strategy.state_wires))  # P[x1, x2, 0, 0, a, b]
            for (x1, x2), p in dr_terms(strategy).items():
                assert abs(p - table[x1, x2, 0, 0, x1, x2]) <= 1e-12, name

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

        monkeypatch.setattr(tensor, "_einsum_plan", contracted)
        monkeypatch.setattr(tensor.np, "einsum", contracted)
        with pytest.raises(ValueError, match=f"ties axes of lengths {d} and {d + 1}"):
            batched_trace([carrier], [effect], ["x", "x"])


def _imaginary(arm: PartyArm) -> PartyArm:
    """The arm with every CJ operator multiplied by i."""
    instruments = []
    for ins in arm.instruments:
        ops = tuple(LabeledOperator(o.wires, 1j * o.matrix) for o in ins.ops)
        instruments.append(Instrument(ops, ins.input_wires, ins.output_wires))
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
                lambda: eval_gyni(_rearmed(relay_gyni_strategy(), lambda k, a: PartyArm(a.instruments[k:]))),
                "disagree on the number of classical inputs",
                id="input-counts",
            ),
            pytest.param(
                lambda: eval_gyni(_rearmed(relay_gyni_strategy(), _three_outcome_arm)),
                "d instruments of d outcomes",
                id="outcome-count",
            ),
            pytest.param(
                lambda: eval_dr(_rearmed(pauli_y_baseline_strategy(), lambda k, a: PartyArm(a.instruments * 2))),
                "take no classical input",
                id="retrieval-inputs",
            ),
            pytest.param(
                lambda: eval_gyni(_rearmed(relay_gyni_strategy(), lambda k, a: _imaginary(a) if k == 0 else a)),
                "non-real value",
                id="non-real",
            ),
        ],
    )
    def test_raises(self, call, fragment):
        with pytest.raises(ValueError, match=fragment):
            call()

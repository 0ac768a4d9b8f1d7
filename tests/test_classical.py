"""Exact-rational oracles for the tripartite retrieval round.

All target values were derived by hand from the 2^6 x 2^6 case enumeration
before the module was written, then frozen here:

* shared-process strategy 27/32, winning on exactly the minority branch;
* no-collaboration product bound (3/4)^3 x 2 = 27/64;
* forwarding relay 3/4, with the two downstream players perfect;
* flagged variant: 27/32 for the adapted shared-process strategy (both
  rounds equal), 21/32 = (3/4 + 9/16)/2 for the relay.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

import pytest

from causalkit.classical import (
    ClassicalProcess3,
    _wins,
    e_bw,
    ebw_process,
    ftdr_accounting,
    is_logically_consistent,
    shared_process_accounting,
    tdr_accounting_ebw,
    tdr_relay_accounting,
    tdr_success_no_collab,
)

EBW_TABLE = {
    (0, 0, 0): (0, 0, 0),
    (0, 0, 1): (1, 0, 0),
    (0, 1, 0): (0, 0, 1),
    (1, 0, 0): (0, 1, 0),
    (0, 1, 1): (0, 0, 1),
    (1, 0, 1): (1, 0, 0),
    (1, 1, 0): (0, 1, 0),
    (1, 1, 1): (0, 0, 0),
}


class TestProcessTable:
    def test_full_table_frozen(self):
        for outputs, flags in EBW_TABLE.items():
            assert e_bw(outputs) == flags

    def test_minority_branch_rotates_against_cycle(self):
        assert e_bw((1, 0, 0)) == (0, 1, 0)
        assert e_bw((0, 1, 0)) == (0, 0, 1)
        assert e_bw((0, 0, 1)) == (1, 0, 0)

    def test_majority_branch_complements(self):
        assert e_bw((1, 1, 0)) == (0, 1, 0)
        assert e_bw((1, 1, 1)) == (0, 0, 0)

    def test_process_object_matches_function(self):
        proc = ebw_process()
        for o1, o2, o3 in product(range(2), repeat=3):
            assert proc.table[4 * o1 + 2 * o2 + o3] == e_bw((o1, o2, o3))

    def test_table_length_checked(self):
        with pytest.raises(ValueError, match="8 entries"):
            ClassicalProcess3(((0, 0, 0),) * 7)

    def test_outputs_checked(self):
        with pytest.raises(ValueError):
            e_bw((0, 2, 0))


def winning_guesses(pair):
    """Every guess (g0, g, gp) that wins against the hidden pair, by the rule ``_wins``."""
    return frozenset(g for g in product(range(2), repeat=3) if _wins(*g, *pair))


class TestGuessStructure:
    def test_winning_guesses_frozen(self):
        assert winning_guesses((0, 0)) == frozenset(
            {(0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)}
        )

    def test_winning_guesses_always_four(self):
        # One identification plus three eliminations, for every hidden pair.
        for pair in product(range(2), repeat=2):
            winners = winning_guesses(pair)
            assert len(winners) == 4
            assert (1,) + pair in winners
            assert (0,) + pair not in winners


class TestSharedProcessStrategy:
    def test_overall_value_exact(self):
        value = tdr_accounting_ebw().overall
        assert isinstance(value, Fraction)
        assert value == Fraction(27, 32)

    def test_uniform_over_inputs(self):
        acc = tdr_accounting_ebw()
        assert acc.per_input_min == acc.per_input_max == Fraction(27, 32)

    def test_branch_accounting(self):
        # The strategy wins exactly when the process takes its minority
        # branch; the majority branch never wins but is rare.
        acc = tdr_accounting_ebw()
        assert acc.branch_weight == (Fraction(27, 32), Fraction(5, 32))
        assert acc.branch_success == (Fraction(1), Fraction(0))
        total = sum(w * s for w, s in zip(acc.branch_weight, acc.branch_success))
        assert total == acc.overall


ALL_ZERO = ClassicalProcess3(((0, 0, 0),) * 8)
IDENTITY = ClassicalProcess3(tuple(product(range(2), repeat=3)))
# The first player's flag is its own output; the others always get 0.
SELF_LOOP = ClassicalProcess3(tuple((o1, 0, 0) for o1, _, _ in product(range(2), repeat=3)))


def loop_accounting(process, reversed_roles):
    """Plain per-case reference for ``shared_process_accounting``."""
    wins, per_input, cases, hits = 0, [], [0, 0], [0, 0]
    for xbits in product(range(2), repeat=6):
        x1, x1p, x2, x2p, x3, x3p = xbits
        input_wins = 0
        for az, ax, bz, bx, cz, cx in product(range(2), repeat=6):
            a = (az ^ x1) & (ax ^ x1p)
            b = (bz ^ x2) & (bx ^ x2p)
            c = (cz ^ x3) & (cx ^ x3p)
            outputs = (1 - c, 1 - a, 1 - b) if reversed_roles else (b, c, a)
            flags = process.table[4 * outputs[0] + 2 * outputs[1] + outputs[2]]
            guesses = ((flags[0], 1 - az, 1 - ax), (flags[1], 1 - bz, 1 - bx), (flags[2], 1 - cz, 1 - cx))
            won = int(all(g in winning_guesses(xbits[2 * k : 2 * k + 2]) for k, g in enumerate(guesses)))
            branch = int(sum(outputs) >= 2)
            input_wins += won
            cases[branch] += 1
            hits[branch] += won
        per_input.append(input_wins)
        wins += input_wins
    return (
        Fraction(wins, 4096),
        Fraction(min(per_input), 64),
        Fraction(max(per_input), 64),
        tuple(Fraction(c, 4096) for c in cases),
        tuple(Fraction(h, c) if c else Fraction(0) for h, c in zip(hits, cases)),
    )


class TestTableProcesses:
    @pytest.mark.parametrize(
        "process, reversed_roles",
        [(ALL_ZERO, False), (ALL_ZERO, True), (IDENTITY, False), (ebw_process(), True)],
    )
    def test_enumerator_matches_case_loop(self, process, reversed_roles):
        acc = shared_process_accounting(process, reversed_roles=reversed_roles)
        assert (
            acc.overall,
            acc.per_input_min,
            acc.per_input_max,
            acc.branch_weight,
            acc.branch_success,
        ) == loop_accounting(process, reversed_roles)


def fixed_point_counts(process):
    """Fixed points o = f(process(o)) for each of the 64 local-function choices."""
    functions = [lambda a: 0, lambda a: 1, lambda a: a, lambda a: 1 - a]
    return [
        sum(
            all(f(flag) == o for f, flag, o in zip(fs, process.table[4 * o1 + 2 * o2 + o3], (o1, o2, o3)))
            for o1, o2, o3 in product(range(2), repeat=3)
        )
        for fs in product(functions, repeat=3)
    ]


class TestLogicalConsistency:
    def test_ebw_process_passes(self):
        assert is_logically_consistent(ebw_process())
        assert fixed_point_counts(ebw_process()) == [1] * 64

    def test_own_output_flag_fails(self):
        # Paired with NOT, the first player's output would have to equal its
        # own negation: no fixed point.
        assert not is_logically_consistent(SELF_LOOP)
        assert 0 in fixed_point_counts(SELF_LOOP)

    def test_identity_table_fails(self):
        assert not is_logically_consistent(IDENTITY)

    @pytest.mark.parametrize("process", [ALL_ZERO, IDENTITY, SELF_LOOP, ebw_process()])
    def test_matches_fixed_point_loop(self, process):
        assert is_logically_consistent(process) == (fixed_point_counts(process) == [1] * 64)


class TestBenchmarks:
    def test_no_collaboration_product(self):
        assert tdr_success_no_collab() == Fraction(27, 64)

    def test_relay_accounting(self):
        acc = tdr_relay_accounting()
        assert acc.overall == Fraction(3, 4)
        assert acc.per_player == (Fraction(3, 4), Fraction(1), Fraction(1))

    def test_definite_order_benchmark(self):
        assert tdr_relay_accounting().overall == Fraction(3, 4)

    def test_strict_separation(self):
        assert tdr_success_no_collab() < tdr_relay_accounting().overall
        assert tdr_relay_accounting().overall < tdr_accounting_ebw().overall


class TestFlaggedVariant:
    def test_shared_process_survives_flag(self):
        acc = ftdr_accounting("ebw")
        assert acc.overall == Fraction(27, 32)
        assert acc.round_success == (Fraction(27, 32), Fraction(27, 32))

    def test_relay_degrades_under_flag(self):
        acc = ftdr_accounting("definite_order")
        assert acc.overall == Fraction(21, 32)
        assert acc.round_success == (Fraction(3, 4), Fraction(9, 16))

    def test_flagged_gap(self):
        assert ftdr_accounting("definite_order").overall < ftdr_accounting("ebw").overall

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ftdr_accounting("bogus")


class TestRuntime:
    def test_classical_manifest_values_fast(self):
        start = time.perf_counter()
        tdr_accounting_ebw()
        tdr_success_no_collab()
        tdr_relay_accounting()
        ftdr_accounting("ebw")
        ftdr_accounting("definite_order")
        assert time.perf_counter() - start < 0.25

"""Round-trip checks for the guessing/retrieval correspondence.

Oracles:

* exact gate identities at small dimension (the d=2 readout matrix is
  written out by hand, the shift/clock pair obeys ZX = w XZ);
* value preservation certified numerically on named and on randomized
  strategies, in both directions, at d=2, d=3 and d=4.
"""

from __future__ import annotations

import tracemalloc
from itertools import product

import numpy as np
import pytest

from causalkit.duality import (
    DIRECTION_TOKENS,
    DualityCertificate,
    check_duality,
    controlled_shift,
    dr_to_gyni,
    fourier,
    gyni_to_dr,
    party_readout_unitaries,
    pauli_xd,
    pauli_zd,
    readout_correlation_residual,
)
from causalkit.games import (
    CYRIL_GYNI_VALUE,
    GameStrategy,
    PartyArm,
    cyril_gyni_strategy,
    game_value,
    pauli_y_baseline_strategy,
)
from causalkit.sampling import random_dr_strategy, random_gyni_strategy
from causalkit.processes import extend_with_state
from causalkit.tensor import DEFAULT_TOL, KronSum, LabeledOperator, WireLabel

SQRT2 = np.sqrt(2)


class TestGates:
    def test_fourier_2_is_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / SQRT2
        np.testing.assert_allclose(fourier(2), h, atol=1e-15)

    def test_controlled_shift_2_is_cnot(self):
        cnot = np.eye(4)[[0, 1, 3, 2]]
        np.testing.assert_allclose(controlled_shift(2), cnot, atol=0)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_controlled_shift_matches_loop(self, d):
        want = np.zeros((d * d, d * d))
        for m, n in product(range(d), repeat=2):
            want[m * d + (n + m) % d, m * d + n] = 1.0
        np.testing.assert_array_equal(controlled_shift(d), want)

    def test_weyl_commutation_d3(self):
        w = np.exp(2j * np.pi / 3)
        z, x = pauli_zd(3), pauli_xd(3)
        np.testing.assert_allclose(z @ x, w * x @ z, atol=1e-12)

    def test_shift_and_clock_unitary(self):
        for d in (2, 3, 5):
            for u in (pauli_xd(d), pauli_zd(d), fourier(d), controlled_shift(d)):
                np.testing.assert_allclose(
                    u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12
                )

    def test_dimension_lower_bound(self):
        for builder in (pauli_xd, pauli_zd, fourier, controlled_shift):
            with pytest.raises(ValueError):
                builder(1)

    def test_qubit_readout_matrix_frozen(self):
        expected = np.array(
            [
                [1, 0, 0, 1],
                [0, 1, 1, 0],
                [1, 0, 0, -1],
                [0, 1, -1, 0],
            ],
            dtype=complex,
        ) / SQRT2
        v_a, v_b = party_readout_unitaries(2)
        np.testing.assert_allclose(v_a, expected, atol=1e-12)
        np.testing.assert_allclose(v_b, expected, atol=1e-12)

    def test_readout_unitaries_are_unitary(self):
        for d in (2, 3):
            for v in party_readout_unitaries(d):
                np.testing.assert_allclose(
                    v @ v.conj().T, np.eye(d * d), atol=1e-12
                )

    def test_readout_correlation_precheck(self):
        # Both parties' measured symbol pairs must reconstruct the code
        # symbols with certainty; this is what makes the mapping exact.
        assert readout_correlation_residual(2) <= 1e-12
        assert readout_correlation_residual(3) <= 1e-12
        assert readout_correlation_residual(4) <= 1e-12  # CI certifies the duality at d = 4 and 5
        assert readout_correlation_residual(5) <= DEFAULT_TOL

    def test_readout_correlation_rejects_imaginary_mass(self, monkeypatch):
        # A convention bug that leaves imaginary mass fails the check instead of vanishing in .real.
        from causalkit import duality

        contract = duality.batched_trace
        monkeypatch.setattr(duality, "batched_trace", lambda *args: contract(*args) + 1e-3j)
        with pytest.raises(ValueError, match="non-real value"):
            readout_correlation_residual(2)


class TestNamedStrategies:
    def test_cyril_maps_to_retrieval_at_same_value(self):
        cert = check_duality(cyril_gyni_strategy(), "gyni2dr")
        assert cert.source_value == pytest.approx(CYRIL_GYNI_VALUE, abs=1e-12)
        assert cert.deviation <= 1e-9
        assert cert.ok

    def test_pauli_y_maps_to_guessing_at_half(self):
        cert = check_duality(pauli_y_baseline_strategy(), "dr2gyni")
        assert cert.source_value == pytest.approx(0.5, abs=1e-12)
        assert cert.deviation <= 1e-9

    def test_mapped_cyril_evaluates_directly(self):
        mapped = gyni_to_dr(cyril_gyni_strategy())
        value = game_value(mapped)
        assert value == pytest.approx(CYRIL_GYNI_VALUE, abs=1e-9)

    def test_mapped_pauli_y_evaluates_directly(self):
        mapped = dr_to_gyni(pauli_y_baseline_strategy())
        assert game_value(mapped) == pytest.approx(0.5, abs=1e-9)


class TestRandomizedRoundTrips:
    def test_qubit_guessing_to_retrieval(self):
        rng = np.random.default_rng(1101)
        for _ in range(6):
            cert = check_duality(random_gyni_strategy(rng, 2), "gyni2dr")
            assert cert.deviation <= 1e-9

    def test_qubit_retrieval_to_guessing(self):
        rng = np.random.default_rng(1102)
        for _ in range(6):
            cert = check_duality(random_dr_strategy(rng, 2), "dr2gyni")
            assert cert.deviation <= 1e-9

    def test_qutrit_both_directions(self):
        rng = np.random.default_rng(1103)
        for _ in range(3):
            cert = check_duality(random_gyni_strategy(rng, 3), "gyni2dr")
            assert cert.deviation <= 1e-9
            cert = check_duality(random_dr_strategy(rng, 3), "dr2gyni")
            assert cert.deviation <= 1e-9


    def test_d4_both_directions_stay_factored(self):
        # A dense W (x) aux at d=4 alone is 4096 x 4096 complex, 256 MB.
        rng = np.random.default_rng(1104)
        gyni, dr = random_gyni_strategy(rng, 4), random_dr_strategy(rng, 4)
        tracemalloc.start()
        try:
            certs = check_duality(gyni, "gyni2dr"), check_duality(dr, "dr2gyni")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(cert.deviation <= 1e-9 for cert in certs)
        assert peak < 150 * 2**20


    def test_d5_gyni2dr_stays_factored(self):
        # The dense composite instruments alone hold 4 x 625 x 625 complex
        # per party; the factored path peaks near 12 MB (268 MB when dense).
        gyni = random_gyni_strategy(np.random.default_rng(1105), 5)
        tracemalloc.start()
        try:
            cert = check_duality(gyni, "gyni2dr")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.deviation <= 1e-9
        assert peak < 48 * 2**20


    def test_d5_dr2gyni_stays_factored(self):
        # Each twirled member shares one block part and owns only its d^2 units
        # on the code wire, so no member holds a dense d^3-sided stack of its
        # own; the dense twirls peaked at 18 MB, units padded with zeros at 6 MB.
        # Warm: the plans and the runner's workspace (7 MB here) are taken first.
        dr = random_dr_strategy(np.random.default_rng(1109), 5)
        check_duality(dr, "dr2gyni")
        tracemalloc.start()
        try:
            cert = check_duality(dr, "dr2gyni")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.deviation <= 1e-9
        assert peak < 5 * 2**20


class TestDenseReads:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gyni_to_dr_lab_part_is_the_source_family(self, d):
        # Branch a is sum_t S[t] (x) R[a, t]: the lab part S is the source arm's
        # (member, outcome) stack as its d^2 terms, with no gathered copy, and
        # the readout part R is stacked by (outcome a, term t).
        strategy = random_gyni_strategy(np.random.default_rng([1111, d]), d)
        for source, target in zip(strategy.parties, gyni_to_dr(strategy).parties):
            family, readout = target.instruments[0].terms.parts
            stacked = source.stack.matrix
            assert family.wires == source.stack.wires
            assert np.array_equal(family.matrix, stacked.reshape((d * d,) + stacked.shape[-2:]))
            assert readout.matrix.shape == (d, d * d, d * d, d * d)

    def test_d5_gyni2dr_meets_w_with_the_family(self):
        # The target's contraction meets W with the d^2 family operators; with
        # d^3 gathered copies the traced peak was 9.8 MB (5.5 MB now). Warm: the
        # plans and the runner's workspace are taken first.
        gyni = random_gyni_strategy(np.random.default_rng(1112), 5)
        check_duality(gyni, "gyni2dr")
        tracemalloc.start()
        try:
            cert = check_duality(gyni, "gyni2dr")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.deviation <= 1e-9
        assert peak < 7 * 2**20

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dr_to_gyni_twirls_share_one_block_part(self, d):
        # The d twirls of a party differ only in their first part, the units on
        # the code wire by (a, b): the arm stacks those by member and keeps one
        # block part, by (outcome, a, b).
        translated = dr_to_gyni(random_dr_strategy(np.random.default_rng([1110, d]), d))
        for arm in translated.parties:
            units, blocks = arm.stack.parts
            assert all(ins.terms.parts[-1] is blocks for ins in arm.instruments)
            assert units.matrix.shape == (d, d**2, d, d) and blocks.matrix.shape[:2] == (d, d**2)
            assert all(part.total_dim < d**3 for part in arm.stack.parts)

    def test_dr_to_gyni_builds_no_dense_stack_at_d3(self, monkeypatch):
        # Each twirl conjugates the outcome-stacked part holding the code
        # wire, so no instrument's dense stack is built (2d reads before).
        strategy = random_dr_strategy(np.random.default_rng(1106), 3)
        reads = []
        dense = KronSum.matrix.fget

        def counted(self):
            reads.append(self)
            return dense(self)

        monkeypatch.setattr(KronSum, "matrix", property(counted))
        translated = dr_to_gyni(strategy)
        assert reads == []
        assert game_value(translated) == pytest.approx(game_value(strategy), abs=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gyni_to_dr_stacks_each_family_once(self, d, monkeypatch):
        # The composer reads the family off the source arm, so the only arms
        # built are the two targets.
        strategy = random_gyni_strategy(np.random.default_rng([1107, d]), d)
        built = []
        post_init = PartyArm.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(PartyArm, "__post_init__", counted)
        translated = gyni_to_dr(strategy)
        assert len(built) == 2
        assert all(target is arm for target, arm in zip(translated.parties, built))


class TestCertificate:
    def test_to_dict_round_trip(self):
        cert = check_duality(cyril_gyni_strategy(), "gyni2dr")
        payload = cert.to_dict()
        assert payload["direction"] == "gyni2dr"
        assert payload["d"] == 2
        assert payload["status"] == "pass"
        assert payload["deviation"] == cert.deviation
        assert set(payload) == {
            "direction",
            "d",
            "source_value",
            "target_value",
            "deviation",
            "tolerance",
            "status",
        }

    def test_drift_is_returned_not_raised(self, drift_at_d3):
        strategy = random_gyni_strategy(np.random.default_rng(31), 3)
        cert = check_duality(strategy, "gyni2dr")
        assert not cert.ok
        assert cert.deviation > cert.tolerance
        assert cert.to_dict()["status"] == "fail"

    def test_failed_certificate_reports(self):
        cert = DualityCertificate("gyni2dr", 2, 0.5, 0.4, 1e-9)
        assert not cert.ok
        assert cert.to_dict()["status"] == "fail"
        assert cert.deviation == pytest.approx(0.1)


class TestErrors:
    def test_direction_tokens(self):
        assert DIRECTION_TOKENS == ("gyni2dr", "dr2gyni")
        with pytest.raises(ValueError, match="direction"):
            check_duality(cyril_gyni_strategy(), "sideways")

    def test_wrong_game_for_direction(self):
        with pytest.raises(ValueError):
            gyni_to_dr(pauli_y_baseline_strategy())
        with pytest.raises(ValueError):
            dr_to_gyni(cyril_gyni_strategy())

    @pytest.mark.parametrize(
        "build, direction, message",
        [
            (
                pauli_y_baseline_strategy,
                "gyni2dr",
                r"^strategy has code wires \('A', 'B'\), so it is for the retrieval game$",
            ),
            (cyril_gyni_strategy, "dr2gyni", r"^retrieval needs two code wires, one per party; party 'A' has \[\]$"),
        ],
        ids=["gyni2dr", "dr2gyni"],
    )
    def test_wrong_direction_rejected_before_contraction(self, forbid_contraction, build, direction, message):
        # The translation runs, and refuses the other game, before either side is scored.
        strategy = build()
        forbid_contraction()
        with pytest.raises(ValueError, match=message):
            check_duality(strategy, direction)


def test_gyni_to_dr_rejects_a_process_with_a_code_wire():
    strategy = cyril_gyni_strategy()
    ancilla = LabeledOperator((WireLabel("A", 2),), np.eye(2) / 2)
    taken = GameStrategy(extend_with_state(strategy.process, ancilla), strategy.parties)
    with pytest.raises(ValueError, match="process already uses wire 'A'; cannot add code wires"):
        gyni_to_dr(taken)

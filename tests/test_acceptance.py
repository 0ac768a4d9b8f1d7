"""End-to-end acceptance gate.

Eleven release criteria, one test each, plus one test per row of the
manifest's claims table ``causalkit.claims.CLAIMS``. Every criterion asserts
its frozen numbers with the tolerance pinned next to it and, on success,
prints a single ``ACCEPT nn PASS`` line (run with ``-s`` to see them; under
``-v`` the test id itself doubles as the pass/fail line). Each claims-table
row must pass at ``DEFAULT_TOL``, or at the fixed tolerance the row pins.
Failures surface as plain pytest assertions.

Tolerances used throughout:

* VALUE_TOL = 1e-9 for anything that went through floating-point evaluation;
* TIGHT_TOL = 1e-12 for constructions that are exact up to rounding;
* exact ``Fraction`` equality for the classical enumeration.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from causalkit.claims import CLAIMS
from causalkit.classical import (
    e_bw,
    ftdr_accounting,
    tdr_accounting_ebw,
    tdr_relay_accounting,
    tdr_success_no_collab,
)
from causalkit.duality import (
    check_duality,
    controlled_shift,
    fourier,
    gyni_to_dr,
    party_readout_unitaries,
    pauli_xd,
    pauli_zd,
    readout_correlation_residual,
)
from causalkit.games import (
    CYRIL_GYNI_VALUE,
    BellCode,
    behaviour,
    bell_state,
    coded_pairs,
    cyril_gyni_strategy,
    game_value,
    pauli_y_baseline_strategy,
)
from causalkit.instruments import (
    PartyArm,
    choi_of_unitary,
    conjugate_instrument,
    extend_instrument_with_measurement,
    identity_channel_instrument,
    measure_prepare_instrument,
    validate_instrument,
)
from causalkit.processes import (
    build_cyril,
    is_ppt_cut,
    shared_state_process,
    validate_process,
    verify_cyril_separable_decomposition,
)
from causalkit.sampling import (
    random_dr_strategy,
    random_gyni_strategy,
    random_instrument,
)
from causalkit.tensor import DEFAULT_TOL, WireLabel, partial_trace

VALUE_TOL = 1e-9
TIGHT_TOL = 1e-12
SQRT2 = np.sqrt(2)


def _accept(n: int, label: str) -> None:
    print(f"ACCEPT {n:02d} PASS  {label}")


def test_criterion_01_guessing_value_and_runtime():
    start = time.perf_counter()
    value = game_value(cyril_gyni_strategy())
    elapsed = time.perf_counter() - start
    target = (5 / 16) * (1 + 1 / SQRT2)
    assert value == pytest.approx(target, abs=VALUE_TOL)
    assert value > 0.5
    assert elapsed < 1.0
    _accept(1, f"guessing value {value:.10f} in {elapsed * 1e3:.0f} ms")


def test_criterion_02_validity_and_separable_rebuild():
    report = validate_process(build_cyril())
    assert report.valid
    for name, residual in report.constraint_residuals:
        assert residual <= VALUE_TOL, name
    rebuild = verify_cyril_separable_decomposition()
    assert rebuild <= VALUE_TOL
    _accept(2, f"validity residuals ok, separable rebuild {rebuild:.2e}")


def test_criterion_03_transpose_dichotomy():
    cyril = build_cyril()
    ppt_ok, min_eig = is_ppt_cut(cyril, "B")
    assert ppt_ok
    assert abs(min_eig) <= VALUE_TOL
    phi_plus = bell_state(BellCode(2, 0, 0), ("A_I", "B_I")).matrix
    witness = shared_state_process(phi_plus)  # maximally entangled inputs
    assert validate_process(witness).valid
    npt_ok, witness_eig = is_ppt_cut(witness, "B")
    assert not npt_ok
    assert witness_eig == pytest.approx(-0.5, abs=VALUE_TOL)
    _accept(3, f"transpose test: {min_eig:.1e} vs {witness_eig:.3f}")


def test_criterion_04_conjugate_baseline_table():
    strategy = pauli_y_baseline_strategy()
    value = game_value(strategy)
    assert value == pytest.approx(0.5, abs=TIGHT_TOL)
    # Eight half-weight rows: per code the aligned or anti-aligned outcome
    # pairs each carry 1/2, and exactly one of them is the winning pair.
    rows = 0
    for x1, x2 in product(range(2), repeat=2):
        state = bell_state(BellCode(2, x1, x2), ("A", "B"))
        support = {(x1, x2), (1 - x1, 1 - x2)}
        for a, b in product(range(2), repeat=2):
            p = behaviour(strategy, state)[0, 0, a, b]
            target = 0.5 if (a, b) in support else 0.0
            assert p == pytest.approx(target, abs=TIGHT_TOL)
            rows += p > 0.25
    assert rows == 8
    _accept(4, f"conjugate baseline 1/2 with {rows} half-weight rows")


def test_criterion_05_qubit_duality_certificates():
    cert = check_duality(cyril_gyni_strategy(), "gyni2dr")
    assert cert.source_value == pytest.approx(CYRIL_GYNI_VALUE, abs=TIGHT_TOL)
    assert cert.deviation <= VALUE_TOL
    direct = game_value(gyni_to_dr(cyril_gyni_strategy()))
    assert direct == pytest.approx(CYRIL_GYNI_VALUE, abs=VALUE_TOL)
    rng = np.random.default_rng(20260815)
    checked = 0
    for _ in range(10):
        assert check_duality(random_gyni_strategy(rng, 2), "gyni2dr").deviation <= VALUE_TOL
        assert check_duality(random_dr_strategy(rng, 2), "dr2gyni").deviation <= VALUE_TOL
        checked += 2
    assert checked >= 20
    _accept(5, f"qubit duality: named + {checked} randomized round trips")


def test_criterion_06_qutrit_duality_and_gates():
    h = np.array([[1, 1], [1, -1]]) / SQRT2
    np.testing.assert_allclose(fourier(2), h, atol=TIGHT_TOL)
    np.testing.assert_allclose(controlled_shift(2), np.eye(4)[[0, 1, 3, 2]], atol=0)
    w = np.exp(2j * np.pi / 3)
    np.testing.assert_allclose(
        pauli_zd(3) @ pauli_xd(3), w * pauli_xd(3) @ pauli_zd(3), atol=TIGHT_TOL
    )
    for v in party_readout_unitaries(2):  # (H (x) I) CNOT
        np.testing.assert_allclose(v, np.kron(h, np.eye(2)) @ np.eye(4)[[0, 1, 3, 2]], atol=TIGHT_TOL)
    rng = np.random.default_rng(20260816)
    checked = 0
    for _ in range(5):
        assert check_duality(random_gyni_strategy(rng, 3), "gyni2dr").deviation <= VALUE_TOL
        assert check_duality(random_dr_strategy(rng, 3), "dr2gyni").deviation <= VALUE_TOL
        checked += 2
    assert checked >= 10
    _accept(6, f"qutrit duality: {checked} round trips, gate identities exact")


def test_criterion_07_readout_precheck():
    r2 = readout_correlation_residual(2)
    r3 = readout_correlation_residual(3)
    assert r2 <= VALUE_TOL
    assert r3 <= VALUE_TOL
    _accept(7, f"readout symbol reconstruction residuals {r2:.1e}, {r3:.1e}")


def test_criterion_08_classical_enumeration_and_runtime():
    start = time.perf_counter()
    acc = tdr_accounting_ebw()
    elapsed = time.perf_counter() - start
    assert acc.overall == Fraction(27, 32)
    assert acc.per_input_min == acc.per_input_max == Fraction(27, 32)
    assert acc.branch_weight == (Fraction(27, 32), Fraction(5, 32))
    assert acc.branch_success == (Fraction(1), Fraction(0))
    assert tdr_accounting_ebw().overall == Fraction(27, 32)
    assert elapsed < 1.0
    _accept(8, f"shared-process 27/32, branch split exact, {elapsed * 1e3:.0f} ms")


def test_criterion_09_classical_benchmarks_ordering():
    no_collab = tdr_success_no_collab()
    definite = tdr_relay_accounting().overall
    flagged = ftdr_accounting("definite_order").overall
    assert no_collab == Fraction(27, 64)
    assert definite == Fraction(3, 4)
    assert flagged == Fraction(21, 32)
    assert ftdr_accounting("definite_order").round_success == (
        Fraction(3, 4),
        Fraction(9, 16),
    )
    assert no_collab < definite < Fraction(27, 32)
    _accept(9, "benchmarks 27/64 < 3/4 < 27/32, flagged relay 21/32")


def test_criterion_10_process_table_and_two_copy_decode():
    table = {
        (0, 0, 0): (0, 0, 0),
        (0, 0, 1): (1, 0, 0),
        (0, 1, 0): (0, 0, 1),
        (1, 0, 0): (0, 1, 0),
        (0, 1, 1): (0, 0, 1),
        (1, 0, 1): (1, 0, 0),
        (1, 1, 0): (0, 1, 0),
        (1, 1, 1): (0, 0, 0),
    }
    for outputs, flags in table.items():
        assert e_bw(outputs) == flags

    # Two copies of a qubit code decode by LOCC: copy 1 is read in Z on both
    # wires, copy 2 in X, and by the Born rule every outcome's parities are
    # (x1, x2). Row 2u + v of a readout is <e_u|<e_v| for the basis columns e.
    pairs = coded_pairs(2, ("A", "B")).matrix
    z_read, x_read = (
        np.einsum("mi,xyij,mj->xym", readout, pairs, readout.conj()).real.reshape(2, 2, 2, 2)
        for readout in (np.kron(basis, basis).conj().T for basis in (np.eye(2), fourier(2)))
    )
    worst_error = 0.0
    for x1, x2 in product(range(2), repeat=2):
        joint = np.multiply.outer(z_read[x1, x2], x_read[x1, x2])  # [u1, v1, u2, v2]
        assert joint.sum() == pytest.approx(1.0, abs=TIGHT_TOL)
        error = sum(joint[o] for o in product(range(2), repeat=4) if (o[0] ^ o[1], o[2] ^ o[3]) != (x1, x2))
        worst_error = max(worst_error, error)
    assert worst_error <= TIGHT_TOL
    _accept(10, "process table 8/8, two copies read in Z and X decode 4/4 codes (Born rule)")


def test_criterion_11_property_suite():
    # CPTP residuals for every instrument constructor.
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    h = np.array([[1, 1], [1, -1]]) / SQRT2
    a_in, a_out = WireLabel("A_I", 2), WireLabel("A_O", 2)
    built = [
        identity_channel_instrument(a_in, a_out),
        identity_channel_instrument(a_in, a_out, forced_outcome=1, n_outcomes=2),
        measure_prepare_instrument([e0, e1], [e1, e0], a_in, a_out),
    ]
    built.append(conjugate_instrument(built[2], h, built[2].input_wires))
    arm, measured = PartyArm((built[1], built[2])), (WireLabel("A", 2), WireLabel("A'", 2))
    for s in (0, 1):
        built.append(extend_instrument_with_measurement(arm, party_readout_unitaries(2)[s], measured, s))
    rng = np.random.default_rng(20260817)
    built.append(random_instrument(rng, (a_in,), (a_out,), 3))
    worst_tp = 0.0
    for ins in built:
        report = validate_instrument(ins)
        assert report.valid
        worst_tp = max(worst_tp, report.tp_residual)
    assert worst_tp <= VALUE_TOL

    # Normalization on randomized strategies of both games.
    for _ in range(3):
        strategy = random_gyni_strategy(rng, 2)
        for i1, i2 in product(range(2), repeat=2):
            assert behaviour(strategy)[i1, i2].sum() == pytest.approx(
                1.0, abs=VALUE_TOL
            )
        retrieval = random_dr_strategy(rng, 2)
        for x1, x2 in product(range(2), repeat=2):
            state = bell_state(BellCode(2, x1, x2), retrieval.state_wires)
            assert behaviour(retrieval, state)[0, 0].sum() == pytest.approx(
                1.0, abs=VALUE_TOL
            )

    # Hiding: every code's single-wire marginal is maximally mixed.
    worst_hide = 0.0
    for d in (2, 3):
        for x1, x2 in product(range(d), repeat=2):
            state = bell_state(BellCode(d, x1, x2))
            for wire in ("A", "B"):
                marg = partial_trace(state, {wire}).matrix
                worst_hide = max(worst_hide, np.max(np.abs(marg - np.eye(d) / d)))
    assert worst_hide <= TIGHT_TOL
    _accept(11, f"tp residual {worst_tp:.1e}, hiding defect {worst_hide:.1e}")


def test_choi_helper_is_cptp():
    # Keeps the constructor list in criterion 11 honest: the unitary Choi
    # helper is exercised via a one-outcome instrument.
    choi = choi_of_unitary(np.eye(2), WireLabel("A_I", 2), WireLabel("A_O", 2))
    assert partial_trace(choi, {"A_O"}).matrix == pytest.approx(np.eye(2))


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.claim_id for c in CLAIMS])
def test_claims_table_row(claim):
    record = claim.check(DEFAULT_TOL)
    assert record.status == "pass", f"{record.claim_id}: expected {record.expected}, got {record.computed}"

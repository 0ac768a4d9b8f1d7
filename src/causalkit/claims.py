"""The reproduction manifest's claims and the built-in objects they name.

:data:`CLAIMS` is the table of headline claims that the manifest and the
acceptance tests both check. Each claim returns its number and reference as a
:class:`Reading`, and :meth:`Claim.check` alone gives verdicts. The built-in
processes and strategies are the ones the commands offer by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import classical, duality, games, processes, sampling, tensor
from .games import CYRIL_GYNI_VALUE, BellCode, GameStrategy
from .instruments import choi_of_unitary
from .processes import ProcessMatrix
from .tensor import DEFAULT_TOL

MANIFEST_SEED = 20260815


@dataclass(frozen=True)
class ReproductionRecord:
    claim_id: str
    command: str
    expected: str
    computed: str
    tolerance: float
    status: str  # "pass" | "fail"


def _fmt(v: float | Fraction) -> str:
    return str(v) if isinstance(v, Fraction) else f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# Built-in objects

def _bell_pair_outputs_process() -> ProcessMatrix:
    """The identity channel's Choi operator on both inputs and on both outputs; fails validity."""
    (ai, ao), (bi, bo) = processes.lab_wires(2)
    return processes.party_process(choi_of_unitary(np.eye(2), ai, bi), choi_of_unitary(np.eye(2), ao, bo))


PROCESS_BUILDERS: dict[str, Callable[[], ProcessMatrix]] = {
    "cyril": processes.build_cyril,
    "mixed": processes.maximally_mixed_process,
    "shared-bell": lambda: processes.shared_state_process(games.bell_state(BellCode(2, 0, 0)).matrix),
    "bell-pair-outputs": _bell_pair_outputs_process,
}

GYNI_STRATEGIES: dict[str, Callable[[], GameStrategy]] = {
    "cyril": games.cyril_gyni_strategy,
    "relay": games.relay_gyni_strategy,
    "constant": games.constant_output_gyni_strategy,
}

DRB_STRATEGIES: dict[str, Callable[[], GameStrategy]] = {
    "pauli-y": games.pauli_y_baseline_strategy,
    "cyril-dual": lambda: duality.gyni_to_dr(games.cyril_gyni_strategy()),
}


# ---------------------------------------------------------------------------
# Manifest

@dataclass(frozen=True)
class Reading:
    """What a claim computed, for :meth:`Claim.check` to judge: ``near`` passes if |value - reference|
    <= tol, ``at_most`` if value <= reference (a residual's reference is the tolerance), ``exact`` if
    value == reference. ``text`` is the computed text, if not the value as :func:`_fmt` prints it."""

    kind: str  # "near", "at_most" or "exact"
    value: object
    reference: object
    text: str | None = None


@dataclass(frozen=True)
class Claim:
    """One headline claim: the command that reproduces it, what it states,
    and how to recompute it.

    ``expected`` may name the tolerance as ``{tol:g}``. ``tolerance`` is a
    fixed tolerance, or None for the run's. ``evaluate(tol)`` returns a
    :class:`Reading`, whose verdict :meth:`check` decides. If either raises,
    the row fails and its computed text names the exception. Rows look
    library functions up by name when they run, so nothing is computed on import.
    """

    claim_id: str
    command: str
    expected: str
    tolerance: float | None
    evaluate: Callable[[float], Reading]

    def check(self, tol: float = DEFAULT_TOL) -> ReproductionRecord:
        tol = tol if self.tolerance is None else self.tolerance
        try:
            reading = self.evaluate(tol)
            if reading.kind == "near":
                passed = abs(reading.value - reading.reference) <= tol
            elif reading.kind == "at_most":
                passed = reading.value <= reading.reference
            else:
                passed = reading.kind == "exact" and reading.value == reading.reference
            computed = _fmt(reading.value) if reading.text is None else reading.text
        except Exception as exc:
            computed, passed = f"error: {type(exc).__name__}: {exc}", False
        expected = self.expected.format(tol=tol)
        status = "pass" if passed else "fail"
        return ReproductionRecord(self.claim_id, self.command, expected, computed, tol, status)


def _join(values) -> str:
    return ", ".join(map(str, values))


def _cyril_valid(tol):
    report = processes.validate_process(processes.build_cyril(), tol)
    worst = max(r for _, r in report.constraint_residuals)
    return Reading("exact", report.valid, True, f"max residual {_fmt(worst)}, min eig {_fmt(report.min_eig)}")


def _cyril_unordered(tol):
    cyril = processes.build_cyril()
    orders = {o: processes.check_order(cyril, o, tol).compatible for o in processes.ORDER_TOKENS}
    text = _join(f"{k}: {v}" for k, v in orders.items())
    return Reading("exact", tuple(orders.values()), (False, False, False), text)


def _cyril_ppt(tol):
    ok, eig = processes.is_ppt_cut(processes.build_cyril(), "B", tol)
    return Reading("exact", ok, True, f"min transposed eig {_fmt(eig)}")


def _worst_round_trip(d: int, rounds: int, tol: float) -> float:
    """Largest certificate deviation over seeded random strategies, both directions."""
    rng = np.random.default_rng(MANIFEST_SEED + d)
    worst = 0.0
    for _ in range(rounds):
        worst = max(
            worst,
            duality.check_duality(sampling.random_gyni_strategy(rng, d), "gyni2dr", tol).deviation,
            duality.check_duality(sampling.random_dr_strategy(rng, d), "dr2gyni", tol).deviation,
        )
    return worst


def _shared_bell_npt(tol):
    shared = PROCESS_BUILDERS["shared-bell"]()
    valid = processes.validate_process(shared, tol).valid
    ns = processes.check_order(shared, "no-signaling", tol).compatible
    ppt, eig = processes.is_ppt_cut(shared, "B", tol)
    text = f"valid {valid}, no-signaling {ns}, min eig {_fmt(eig)}"
    return Reading("exact", (valid, ns, ppt, abs(eig + 0.5) <= tol), (True, True, False, True), text)


def _tdr_ebw(tol):
    acc = classical.tdr_accounting_ebw()
    text = f"{acc.overall} (per input {acc.per_input_min}..{acc.per_input_max})"
    return Reading("exact", (acc.overall, acc.per_input_min, acc.per_input_max), (Fraction(27, 32),) * 3, text)


def _tdr_branches(tol):
    acc = classical.tdr_accounting_ebw()
    text = f"weights {_join(acc.branch_weight)}; success {_join(acc.branch_success)}"
    return Reading("exact", (acc.branch_weight[0], acc.branch_success), (Fraction(27, 32), (1, 0)), text)


def _ebw_consistent(tol):
    consistent = classical.is_logically_consistent(classical.ebw_process())
    return Reading("exact", consistent, True, "logically consistent" if consistent else "inconsistent")


def _tdr_relay(tol):
    rel = classical.tdr_relay_accounting()
    text = f"{rel.overall} (players {_join(rel.per_player)})"
    return Reading("exact", (rel.overall, rel.per_player), (Fraction(3, 4), (Fraction(3, 4), 1, 1)), text)


def _ftdr(strategy: str, reference: tuple) -> Reading:
    acc = classical.ftdr_accounting(strategy)
    text = f"{acc.overall} (rounds {_join(acc.round_success)})"
    return Reading("exact", (acc.overall, acc.round_success), reference, text)


def _baseline(strategy: GameStrategy, k: int) -> Reading:
    """A baseline's value against 1/d^k at its own dimension d."""
    return Reading("near", games.game_value(strategy), strategy.d ** -k)


def _mutant_detected(tol):
    mutant = games.game_value(games._resend_same_mutant())
    gap = abs(mutant - CYRIL_GYNI_VALUE)
    return Reading("exact", gap > tol, True, f"mutant {_fmt(mutant)}, gap {_fmt(gap)}")


def _hiding_defect() -> float:
    """Largest entry of |marginal - I/2| over the four qubit codes and both wires."""
    pairs = games.coded_pairs(2, ("A", "B"))
    marginals = [tensor.partial_trace(pairs, {w.name}).matrix for w in pairs.wires]
    return float(np.max(np.abs(np.array(marginals) - np.eye(2) / 2)))


_CYRIL_VALUE_TEXT = f"5/16*(1+1/sqrt(2)) = {_fmt(CYRIL_GYNI_VALUE)}"

CLAIMS: tuple[Claim, ...] = (
    Claim("gyni-cyril-value", "causalkit gyni --process cyril", _CYRIL_VALUE_TEXT, None,
          lambda tol: Reading("near", games.game_value(games.cyril_gyni_strategy()), CYRIL_GYNI_VALUE)),
    Claim("process-cyril-valid", "causalkit validate --process cyril", "all residuals <= {tol:g}", None,
          _cyril_valid),
    Claim("process-cyril-unordered", "causalkit manifest",
          "incompatible with A<B, B<A, and no-signaling", None, _cyril_unordered),
    Claim("process-cyril-ppt", "causalkit ppt --process cyril --cut B",
          "PPT across the party cut (min eig >= -{tol:g})", None, _cyril_ppt),
    Claim("process-cyril-separable", "causalkit manifest",
          "eight-product-term rebuild residual <= {tol:g}", 1e-12,
          lambda tol: Reading("at_most", processes.verify_cyril_separable_decomposition(), tol)),
    Claim("gyni-relay-value", "causalkit gyni --process relay", "0.5", None,
          lambda tol: _baseline(GYNI_STRATEGIES["relay"](), 1)),
    Claim("gyni-constant-value", "causalkit gyni --process constant", "0.25", None,
          lambda tol: _baseline(GYNI_STRATEGIES["constant"](), 2)),
    Claim("drb-pauli-y-value", "causalkit drb --strategy pauli-y", "0.5", None,
          lambda tol: _baseline(games.pauli_y_baseline_strategy(), 1)),
    Claim("drb-cyril-dual-value", "causalkit drb --strategy cyril-dual", _CYRIL_VALUE_TEXT, None,
          lambda tol: Reading("near", games.game_value(DRB_STRATEGIES["cyril-dual"]()), CYRIL_GYNI_VALUE)),
    Claim("duality-gyni2dr-cyril", "causalkit duality --direction gyni2dr --process cyril",
          "deviation <= {tol:g}", None,
          lambda tol: Reading(
              "at_most", duality.check_duality(games.cyril_gyni_strategy(), "gyni2dr", tol).deviation, tol)),
    Claim("duality-dr2gyni-pauli-y", "causalkit duality --direction dr2gyni --process pauli-y",
          "deviation <= {tol:g}", None,
          lambda tol: Reading(
              "at_most", duality.check_duality(games.pauli_y_baseline_strategy(), "dr2gyni", tol).deviation, tol)),
    Claim("duality-random-d2", f"causalkit duality --direction gyni2dr --seed {MANIFEST_SEED + 2} --dim 2",
          "max deviation <= {tol:g} over 6 seeded round trips", None,
          lambda tol: Reading("at_most", _worst_round_trip(2, 3, tol), tol)),
    Claim("duality-random-d3", f"causalkit duality --direction gyni2dr --seed {MANIFEST_SEED + 3} --dim 3",
          "max deviation <= {tol:g} over 4 seeded round trips", None,
          lambda tol: Reading("at_most", _worst_round_trip(3, 2, tol), tol)),
    Claim("readout-correlation", "causalkit manifest",
          "off-rule probability mass <= {tol:g} at d=2 and d=3", None,
          lambda tol: Reading("at_most", max(duality.readout_correlation_residual(d) for d in (2, 3)), tol)),
    Claim("process-shared-bell-npt", "causalkit ppt --process shared-bell --cut B",
          "valid no-signaling process with min transposed eig -0.5", None, _shared_bell_npt),
    Claim("classical-tdr-ebw", "causalkit classical tdr --strategy ebw --exact", "27/32", 0.0, _tdr_ebw),
    Claim("classical-tdr-branches", "causalkit classical tdr --strategy ebw --exact",
          "majority-0 weight 27/32 with conditional success 1; majority-1 success 0", 0.0, _tdr_branches),
    Claim("classical-ebw-consistent", "causalkit classical tdr --strategy ebw --exact",
          "each of the 64 local-function choices has exactly one fixed point", 0.0, _ebw_consistent),
    Claim("classical-tdr-no-collab", "causalkit classical tdr --strategy none --exact", "27/64", 0.0,
          lambda tol: Reading("exact", classical.tdr_success_no_collab(), Fraction(27, 64))),
    Claim("classical-tdr-relay", "causalkit classical tdr --strategy definite --exact",
          "3/4 (players: 3/4, 1, 1)", 0.0, _tdr_relay),
    Claim("classical-ftdr-ebw", "causalkit classical ftdr --strategy ebw --exact",
          "27/32 with both rounds 27/32", 0.0,
          lambda tol: _ftdr("ebw", (Fraction(27, 32), (Fraction(27, 32), Fraction(27, 32))))),
    Claim("classical-ftdr-definite", "causalkit classical ftdr --strategy definite --exact",
          "21/32 with rounds 3/4 and 9/16", 0.0,
          lambda tol: _ftdr("definite_order", (Fraction(21, 32), (Fraction(3, 4), Fraction(9, 16))))),
    Claim("mutation-resend-same-detected", "causalkit manifest",
          "re-preparing the measured bit unchanged shifts the value by > {tol:g}", 0.05, _mutant_detected),
    Claim("codes-hide-marginals", "causalkit manifest",
          "single-wire marginals of all four qubit codes equal I/2 within {tol:g}", 1e-12,
          lambda tol: Reading("at_most", _hiding_defect(), tol)),
)

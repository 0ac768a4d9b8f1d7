"""Exact value-preserving maps between the two games, in both directions.

From retrieval to mutual guessing: fill the code wires with the zero-code
pair and have each party twirl its share per classical input (shift powers on
one side, phase powers on the other), which re-encodes the inputs into the
effective pair state.

From mutual guessing to retrieval: append a fresh zero-code pair, rotate
(code wire, fresh wire) with a readout unitary, measure both, use one symbol
to select the original instrument and the other to one-time-pad the answer.
The readout unitaries are built so the four measured symbols satisfy the
mod-d sum rules  u + v = x2  and  u' + v' = x1  with probability one; the
correlation check below is the arbiter for any convention question.

A translation reads ``d`` off its source, settled when that strategy was built.
:func:`check_duality` runs one translation and returns its certificate, which
carries the verdict: a drifted value is a certificate with ``ok`` false.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import (
    BellCode,
    GameStrategy,
    PartyArm,
    bell_state,
    coded_pairs,
    eval_dr,
    eval_gyni,
)
from .instruments import (
    _readout_projectors,
    conjugate_instrument,
    extend_instrument_with_measurement,
)
from .processes import ProcessMatrix, extend_with_state
from .tensor import DEFAULT_TOL, WireLabel, batched_trace

DIRECTION_TOKENS = ("gyni2dr", "dr2gyni")


def _require_dim(d: int) -> None:
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"local dimension must be an integer >= 2, got {d!r}")


def pauli_xd(d: int) -> np.ndarray:
    """Cyclic shift |k> -> |k+1 mod d>."""
    _require_dim(d)
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def pauli_zd(d: int) -> np.ndarray:
    """Phase gate diag(w^k) with w = exp(2 pi i / d)."""
    _require_dim(d)
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


def fourier(d: int) -> np.ndarray:
    """F[q, k] = w^(qk) / sqrt(d); the Hadamard gate at d = 2."""
    _require_dim(d)
    omega = np.exp(2j * np.pi / d)
    grid = np.outer(np.arange(d), np.arange(d))
    return omega**grid / np.sqrt(d)


def _controlled_permutation(d: int, target) -> np.ndarray:
    """|m, n> -> |m, target(m, n) mod d> on a (control, target) pair."""
    _require_dim(d)
    m, n = np.divmod(np.arange(d * d), d)
    return np.eye(d * d, dtype=complex)[:, m * d + target(m, n) % d]


def controlled_shift(d: int) -> np.ndarray:
    """|m, n> -> |m, n+m mod d> on a (control, target) pair; CNOT at d = 2."""
    return _controlled_permutation(d, np.add)


QUBIT_READOUT_UNITARY = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [1, 0, 0, -1],
        [0, 1, -1, 0],
    ],
    dtype=complex,
) / np.sqrt(2)


def party_readout_unitaries(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Readout rotations (first party, second party) on (code, fresh) wires.

    Both parties finish with an inverse Fourier on the code wire; they differ
    in how the fresh wire absorbs the code symbol (subtract vs reflect), which
    is what makes *both* measured pairs come out sum-correlated. The two
    matrices coincide at d = 2 and equal QUBIT_READOUT_UNITARY there.
    """
    _require_dim(d)
    mix = np.kron(np.conj(fourier(d)), np.eye(d, dtype=complex))
    # Subtract: |m, n> -> |m, n-m>. Reflect: |m, n> -> |m, m-n>, CNOT at d = 2.
    unshift, reflect = controlled_shift(d).conj().T, _controlled_permutation(d, np.subtract)
    return mix @ unshift, mix @ reflect


def readout_correlation_residual(d: int) -> float:
    """Worst-case leaked probability mass off the sum rules, over all codes.

    For every code x, rotate (code pair) (x) (zero-code pair) by the party
    readouts and accumulate the probability of measured symbols violating
    u + v = x2 or u' + v' = x1 (mod d). Exactly zero in exact arithmetic.
    All d^6 probabilities come from one contraction, with codes stacked by
    (x1, x2) and projectors by (u, u') and (v, v').
    """
    v_a, v_b = party_readout_unitaries(d)
    codes = coded_pairs(d, ("A", "B"))
    aux = bell_state(BellCode(d, 0, 0), ("A'", "B'"))
    proj_a = _readout_projectors(v_a, (WireLabel("A", d), WireLabel("A'", d)))
    proj_b = _readout_projectors(v_b, (WireLabel("B", d), WireLabel("B'", d)))
    prob = batched_trace([codes, aux], [proj_a, proj_b]).real.reshape((d,) * 6)  # [x1, x2, u, u', v, v']
    x1, x2, u, up, v, vp = np.ix_(*[np.arange(d)] * 6)
    on_rule = ((u + v) % d == x2) & ((up + vp) % d == x1)
    mass = np.where(on_rule, prob, 0.0).sum(axis=(2, 3, 4, 5))
    return float(np.max(np.abs(1.0 - mass)))


@dataclass(frozen=True)
class DualityCertificate:
    direction: str
    d: int
    source_value: float
    target_value: float
    tolerance: float = DEFAULT_TOL

    @property
    def deviation(self) -> float:
        return abs(self.source_value - self.target_value)

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "d": self.d,
            "source_value": self.source_value,
            "target_value": self.target_value,
            "deviation": self.deviation,
            "tolerance": self.tolerance,
            "status": "pass" if self.ok else "fail",
        }


def _with_zero_code(process: ProcessMatrix, d: int, names: tuple[str, str]) -> ProcessMatrix:
    """``process`` with the zero-code pair adjoined on ``names``, one wire per party, in party order."""
    pair = bell_state(BellCode(d, 0, 0), names)
    return extend_with_state(process, pair, assign={n: p.name for n, p in zip(names, process.parties)})


def gyni_to_dr(strategy: GameStrategy) -> GameStrategy:
    """Rebuild a mutual-guessing strategy as a retrieval strategy of equal value.

    The returned strategy's instruments act on fresh code wires ("A", "B"),
    which are therefore its :attr:`~GameStrategy.state_wires`; its process is
    the original one extended with a zero-code pair on ("A'", "B'"). Party i
    (0 or 1) measures (code wire, fresh wire), selects its inner instrument
    with measured symbol i and pads its answer with the other symbol.
    """
    d = strategy.game_dim(retrieval=False)
    taken = set(strategy.process.names)
    for name in ("A", "B", "A'", "B'"):
        if name in taken:
            raise ValueError(f"process already uses wire {name!r}; cannot add code wires")
    extended = _with_zero_code(strategy.process, d, ("A'", "B'"))
    readouts = party_readout_unitaries(d)
    arms = []
    for selector, (arm, code) in enumerate(zip(strategy.parties, ("A", "B"))):
        wires = (WireLabel(code, d), WireLabel(f"{code}'", d))
        ins = extend_instrument_with_measurement(arm.instruments, readouts[selector], wires, selector)
        arms.append(PartyArm((ins,)))
    return GameStrategy(extended, tuple(arms))


def dr_to_gyni(strategy: GameStrategy) -> GameStrategy:
    """Rebuild a retrieval strategy as a mutual-guessing strategy of equal value.

    The code wires are filled with the zero-code pair (now part of the
    process); on classical input i the first party twirls its share by the
    inverse phase power Z^-i, the second by the inverse shift power X^-i,
    which re-encodes (i2, i1) into the effective pair.
    """
    d = strategy.game_dim(retrieval=True)
    sa, sb = strategy.state_wires
    ins_a, ins_b = (arm.instruments[0] for arm in strategy.parties)
    extended = _with_zero_code(strategy.process, d, (sa, sb))
    # One stacked conjugation per party, by the inverse powers g^-i, i = 0..d-1.
    alice, bob = (
        conjugate_instrument(ins, np.stack([np.linalg.matrix_power(g.conj().T, i) for i in range(d)]), (wire,))
        for ins, g, wire in ((ins_a, pauli_zd(d), sa), (ins_b, pauli_xd(d), sb))
    )
    return GameStrategy(extended, (PartyArm(alice), PartyArm(bob)))


def check_duality(
    strategy: GameStrategy, direction: str, tol: float = DEFAULT_TOL
) -> DualityCertificate:
    """Run the requested translation and certify value preservation.

    The certificate carries the verdict: it is returned whether or not the
    translated value stays within ``tol`` (:attr:`DualityCertificate.ok`). A
    drift means a conventions bug, not a numerical hiccup.
    """
    if direction not in DIRECTION_TOKENS:
        raise ValueError(f"direction must be one of {DIRECTION_TOKENS}")
    if direction == "gyni2dr":
        source, target = eval_gyni(strategy), eval_dr(gyni_to_dr(strategy))
    else:
        source, target = eval_dr(strategy), eval_gyni(dr_to_gyni(strategy))
    return DualityCertificate(direction, strategy.d, source, target, tol)

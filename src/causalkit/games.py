"""Two retrieval games played across a process matrix.

*Mutual input guessing*: each party draws a uniform classical input,
conditions its instrument on it, and must output the other party's input.
*State retrieval*: the referee appends a two-wire code state to the process;
each party holds one code wire and must output one of the two classical
symbols hidden in the code (first party the shift symbol, second the phase
symbol). A :class:`GameStrategy` reads its code wires, ``state_wires``, off
its instruments: they are the wires an arm acts on that the process lacks.
Only a retrieval strategy has them, so that is what tells the games apart.
A strategy's game and dimension ``d`` are settled, and checked, when it is
built, so no caller names the game: :func:`game_terms` reads it off the strategy.

Every probability of a game comes from one factored contraction of
``Tr[(W (x) state) (M_A (x) M_B)]``, wire by wire, so no joint kron is formed:
:func:`behaviour` over every input, outcome and code, and :func:`game_terms` over
only the d^2 winning entries, each outcome axis tied to the symbol it guesses.
The process enters as its factors and each party's arm as the parts of its
:attr:`~causalkit.instruments.PartyArm.stack`, stacked when the arm was built
(its shared term index is summed), so no dense process or instrument is built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .instruments import (
    Instrument,
    PartyArm,
    choi_of_unitary,
    identity_channel_instrument,
    measure_prepare_instrument,
)
from .processes import (
    ProcessMatrix, _require_bipartite, build_cyril, channel_process, lab_wires, maximally_mixed_process,
)
from .tensor import DEFAULT_TOL, LabeledOperator, OperatorStack, WireLabel, batched_trace

# Closed-form value of the cyril strategy (qubit wires). The baselines have
# no constant: each scores 1/d or 1/d^2 at its own dimension d.
CYRIL_GYNI_VALUE = (5 / 16) * (1 + 1 / np.sqrt(2))


@dataclass(frozen=True)
class BellCode:
    """Two classical dits hidden in a maximally entangled pair.

    ``x1`` selects the shift (computational-basis correlation), ``x2`` the
    phase (conjugate-basis correlation).
    """

    d: int
    x1: int
    x2: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("code dimension must be at least 2")
        if not (0 <= self.x1 < self.d and 0 <= self.x2 < self.d):
            raise ValueError(f"code symbols must lie in 0..{self.d - 1}")


def _bell_vectors(d: int, x1s, x2s) -> np.ndarray:
    """|B^x> for every code x in x1s × x2s, indexed by position [i1, i2]; see :func:`bell_vector`."""
    i1, i2, k = np.ix_(range(len(x1s)), range(len(x2s)), range(d))
    x1, x2 = np.asarray(x1s)[i1], np.asarray(x2s)[i2]
    vecs = np.zeros((len(x1s), len(x2s), d * d), dtype=complex)
    vecs[i1, i2, k * d + (k + x1) % d] = np.exp(2j * np.pi / d) ** (x2 * k) / np.sqrt(d)
    return vecs


def bell_vector(code: BellCode) -> np.ndarray:
    """|B^x> = (1/sqrt d) sum_k w^(x2 k) |k>|k+x1 mod d>; the other codes are not built."""
    return _bell_vectors(code.d, [code.x1], [code.x2])[0, 0]


def bell_state(code: BellCode, wire_names: tuple[str, str] = ("A", "B")) -> LabeledOperator:
    """Density operator of the coded pair on two fresh wires; the other codes are not built."""
    vec = bell_vector(code)
    return LabeledOperator(tuple(WireLabel(n, code.d) for n in wire_names), np.outer(vec, vec.conj()))


@dataclass(frozen=True)
class GameStrategy:
    """A process and one arm per party: arm i belongs to process party i.

    An arm may act on its party's process wires (input, output and extra
    wires) and on wires the process lacks, its code wires: :attr:`state_wires`,
    in party order. The game and its dimension :attr:`d` are settled here, for
    :func:`game_terms` and the translations to read. With no code wire (mutual
    guessing) every party has d inputs of d outcomes; with one code wire per
    party, of dimension d (retrieval), one input of d outcomes.
    """

    process: ProcessMatrix
    parties: tuple[PartyArm, ...]
    d: int = field(init=False)
    state_wires: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parties", tuple(self.parties))
        if len(self.parties) != len(self.process.parties):
            raise ValueError("strategy must equip every process party")
        on_process, code_wires, owner = set(self.process.names), [], {}
        for arm, slot in zip(self.parties, self.process.parties):
            acted = [w.name for w in arm.stack.wires]
            foreign = [n for n in acted if n in on_process and n not in slot.all_wires]
            if foreign:
                raise ValueError(f"arm of party {slot.name!r} acts on process wires {foreign} it does not hold")
            code_wires.append([n for n in acted if n not in on_process])
            for name in code_wires[-1]:
                if owner.setdefault(name, slot.name) != slot.name:
                    raise ValueError(f"parties {owner[name]!r} and {slot.name!r} both act on code wire {name!r}")
        counts = {arm.stack.batch_shape[0] for arm in self.parties}
        if len(counts) != 1:
            raise ValueError("parties disagree on the number of classical inputs")
        (d,) = counts
        outcomes = {arm.stack.batch_shape[1] for arm in self.parties}
        if owner:
            for slot, wires in zip(self.process.parties, code_wires):
                if len(wires) != 1:
                    raise ValueError(f"retrieval needs two code wires, one per party; party {slot.name!r} has {wires}")
            if d != 1:
                raise ValueError("retrieval strategies take no classical input")
            dims = {arm.instruments[0].wire(name).dim for arm, (name,) in zip(self.parties, code_wires)}
            if len(dims) != 1 or outcomes != dims:
                raise ValueError("code wires and outcome counts must share one dimension d")
            (d,) = dims
        elif outcomes != {d}:
            raise ValueError("guessing strategies need d instruments of d outcomes per party")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "state_wires", tuple(owner))


def _probabilities(strategy: GameStrategy, states=None, batch=None) -> np.ndarray:
    """:func:`behaviour`'s contraction, unmoved; ``batch`` labels the states' and arms' axes."""
    unfilled = [n for n in strategy.state_wires if states is None or n not in states.names]
    if unfilled:
        raise ValueError(f"code wires {unfilled} hold no state")
    carriers = [*strategy.process.factors, *([] if states is None else [states])]
    batch = batch and [""] * len(strategy.process.factors) + batch
    return _real(batched_trace(carriers, [arm.stack for arm in strategy.parties], batch))


def _real(table: np.ndarray) -> np.ndarray:
    """The real part of a table of probabilities; an imaginary part above max(DEFAULT_TOL, 1e-7) raises."""
    worst = np.unravel_index(np.argmax(np.abs(table.imag)), table.shape)
    if abs(table[worst].imag) > max(DEFAULT_TOL, 1e-7):
        raise ValueError(f"probability has a non-real value {table[worst]!r}")
    return table.real


def behaviour(strategy: GameStrategy, states=None) -> np.ndarray:
    """Every Tr[(W (x) state) (M_A (x) M_B)] of the strategy, from one contraction.

    ``states`` is None, one code state, or an :class:`OperatorStack` of them.
    Axes are (state stack axes..., one input per party..., one outcome per
    party...): P[x, y, a, b], or P[code, x, y, a, b] for a stack of code
    states. Wire mismatches raise ValueError before any arithmetic, and an
    imaginary part above max(DEFAULT_TOL, 1e-7) raises after it.
    """
    table, n = _probabilities(strategy, states), len(strategy.parties)
    # Axes end in (x, a, y, b, ...); move the outcomes last.
    return np.moveaxis(table, range(table.ndim - 2 * n + 1, table.ndim, 2), range(-n, 0))


@functools.lru_cache(maxsize=64)
def coded_pairs(d: int, wire_names: tuple[str, str]) -> OperatorStack:
    """The d^2 coded pairs on two wires, stacked by code (x1, x2): built once per (d, names), read-only."""
    vecs = _bell_vectors(d, range(d), range(d))
    wires = (WireLabel(wire_names[0], d), WireLabel(wire_names[1], d))
    pairs = OperatorStack(wires, vecs[..., :, None] * vecs.conj()[..., None, :])
    pairs.matrix.flags.writeable = False
    return pairs


def game_terms(strategy: GameStrategy) -> dict[tuple[int, int], float]:
    """Per-input success probabilities of the strategy's game, the only entries contracted.

    With code wires (retrieval) these are P(a = x1, b = x2 | code x), the
    referee hiding x in the d^2 coded pairs on those wires; with none (mutual
    guessing), P(a = i2, b = i1 | i1, i2). Each outcome is tied to the symbol it
    guesses. Only two-party strategies play either game.
    """
    _require_bipartite(strategy.process)
    if strategy.state_wires:
        codes = coded_pairs(strategy.d, strategy.state_wires)
        table = _probabilities(strategy, codes, ["ab", "ia", "ib"])[..., 0]
    else:
        table = _probabilities(strategy, batch=["xy", "yx"])
    return {(u, v): float(table[u, v]) for u, v in product(range(strategy.d), repeat=2)}


def game_value(strategy: GameStrategy) -> float:
    """Uniform-input success probability of the strategy's game."""
    terms = game_terms(strategy)
    return float(sum(terms.values()) / len(terms))


# ---------------------------------------------------------------------------
# Reference strategies

def cyril_gyni_strategy() -> GameStrategy:
    """The mutual-guessing strategy beating every causally ordered one.

    On input 0 a party forwards its input wire untouched and answers 1; on
    input 1 it measures in the computational basis, answers the measured bit,
    and re-prepares the flipped bit. Evaluates to CYRIL_GYNI_VALUE.
    """
    return _forward_or_resend(flip=True)


def _resend_same_mutant() -> GameStrategy:
    """Deliberately broken :func:`cyril_gyni_strategy`: on input 1 a party
    re-prepares the measured bit unchanged. Kept for the manifest's
    mutation-sensitivity claim."""
    return _forward_or_resend(flip=False)


def _forward_or_resend(flip: bool) -> GameStrategy:
    e0, e1 = np.eye(2, dtype=complex)
    arms = []
    for w_in, w_out in lab_wires(2):
        forward = identity_channel_instrument(w_in, w_out, forced_outcome=1, n_outcomes=2)
        resend = measure_prepare_instrument([e0, e1], [e1, e0] if flip else [e0, e1], w_in, w_out)
        arms.append(PartyArm((forward, resend)))
    return GameStrategy(build_cyril(), tuple(arms))


def constant_output_gyni_strategy() -> GameStrategy:
    """Both parties discard everything and always answer 0 (value 1/4)."""
    arms = []
    for w_in, w_out in lab_wires(2):
        cj = LabeledOperator((w_in, w_out), np.eye(4, dtype=complex) / 2)
        zero = LabeledOperator((w_in, w_out), np.zeros((4, 4), dtype=complex))
        ins = Instrument((cj, zero), (w_out.name,))
        arms.append(PartyArm((ins, ins)))
    return GameStrategy(maximally_mixed_process(2), tuple(arms))


def relay_gyni_strategy() -> GameStrategy:
    """Best fixed-order benchmark: the second party learns the first's input
    through an identity channel; the first party answers a fair coin (1/2)."""
    e0, e1 = np.eye(2, dtype=complex)
    (a_in, a_out), (b_in, b_out) = lab_wires(2)
    alice = []
    for e in (e0, e1):
        cj = LabeledOperator((a_in, a_out), np.kron(np.eye(2) / 2, np.outer(e, e.conj())))
        alice.append(Instrument((cj, cj), (a_out.name,)))
    read = measure_prepare_instrument([e0, e1], [e0, e1], b_in, b_out)
    bob = PartyArm((read, read))
    identity_choi = choi_of_unitary(np.eye(2), a_out, b_in).matrix
    process = channel_process(np.diag([1.0, 0.0]), identity_choi, "A<B")
    return GameStrategy(process, (PartyArm(tuple(alice)), bob))


def pauli_y_baseline_strategy() -> GameStrategy:
    """Unentangled retrieval benchmark scoring 1/d = 1/2, the LOCC bound, exactly.

    Both parties measure their code wire along Y and ignore the process
    wires. The first party maps up/down to 0/1, the second to 1/0; the Y-Y
    correlations of the four coded pairs make every code succeed with 1/2.
    """
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    up = (np.eye(2) + sy) / 2
    down = (np.eye(2) - sy) / 2
    keep_prep0 = np.kron(np.eye(2), np.diag([1.0, 0.0]))  # (w_in, w_out) factor
    arms = []
    for (name, projs), (w_in, w_out) in zip((("A", (up, down)), ("B", (down, up))), lab_wires(2)):
        code_wire = WireLabel(name, 2)
        wires = (code_wire, w_in, w_out)
        ops = tuple(LabeledOperator(wires, np.kron(proj, keep_prep0)) for proj in projs)
        ins = Instrument(ops, (w_out.name,))
        arms.append(PartyArm((ins,)))
    return GameStrategy(maximally_mixed_process(2), tuple(arms))

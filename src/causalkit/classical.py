"""Classical tripartite retrieval: one exact, vectorized enumerator.

Three players share six maximally correlated bit pairs in a directed
triangle; the pair between two players hides a two-bit string. In the
standard round the (first, third) pair hides x1, the (second, first) pair x2
and the (third, second) pair x3. Each player outputs a bit, a classical
process turns the outputs into flags, and each player guesses a flag plus a
string: flag 0 wins by eliminating a wrong string, flag 1 by identifying the
right one. :func:`score_round` scores a process table and a local strategy,
written as numpy bit arithmetic, on every input and free bit at once; every
probability is a :class:`fractions.Fraction` of integer counts.
:func:`is_logically_consistent` certifies a process after Baumeler & Wolf
(NJP 18, 013036, 2016).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import numpy as np

from .games import BellCode

Bits = tuple[int, ...]
# Maps input bits x[0..5] = (x1, x1', x2, x2', x3, x3') and free bits r to the
# three output bits and the three guessed strings, as broadcastable arrays.
Strategy = Callable[[np.ndarray, np.ndarray], tuple[tuple, tuple]]


def _check_bits(bits: Bits, n: int, what: str) -> Bits:
    bits = tuple(int(b) for b in bits)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"{what} must be {n} bits, got {bits!r}")
    return bits


def _wins(g0, g, gp, y, yp):
    """The win rule on ints or bit arrays: guess (g0, g, gp), hidden (y, yp)."""
    return (g0 == 1) == ((g == y) & (gp == yp))


@dataclass(frozen=True)
class ClassicalProcess3:
    """Deterministic process: ``table[4*o1 + 2*o2 + o3]`` is the flag triple
    handed to the players when they emit outputs (o1, o2, o3)."""

    table: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if len(self.table) != 8:
            raise ValueError("table needs exactly 8 entries")
        table = tuple(_check_bits(t, 3, "table entry") for t in self.table)
        object.__setattr__(self, "table", table)


def e_bw(outputs: Bits) -> tuple[int, int, int]:
    """The majority-switched cyclic process: with a minority of ones the
    flags are the outputs rotated one step against the cycle, otherwise the
    complemented outputs rotated the other way."""
    o1, o2, o3 = _check_bits(outputs, 3, "outputs")
    if o1 + o2 + o3 <= 1:
        return (o3, o1, o2)
    return (1 - o2, 1 - o3, 1 - o1)


def ebw_process() -> ClassicalProcess3:
    return ClassicalProcess3(tuple(map(e_bw, product(range(2), repeat=3))))


def is_logically_consistent(process: ClassicalProcess3) -> bool:
    """True when each of the 4**3 = 64 choices of local functions f has
    exactly one fixed point o = f(process(o)) among the 8 output triples."""
    local = np.array([[0, 0], [1, 1], [0, 1], [1, 0]])  # flag -> output: 0, 1, id, NOT
    outputs = np.array(list(product(range(2), repeat=3)))  # row 4*o1 + 2*o2 + o3
    # keeps[j, k, o]: local function j maps party k's flag under o to o_k.
    keeps = local[:, np.asarray(process.table).T] == outputs.T
    fixed = keeps[:, None, None, 0] & keeps[None, :, None, 1] & keeps[None, None, :, 2]
    return bool(np.all(fixed.sum(axis=-1) == 1))


def score_round(
    process: ClassicalProcess3, strategy: Strategy, free_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """(wins, outputs) of ``strategy`` against ``process``, each indexed
    [player, input, free case]: 64 hidden inputs times 2**free_bits cases.
    Free bits that cancel out of every guess need not be enumerated."""
    x = (np.arange(64)[:, None] >> np.arange(5, -1, -1)[:, None, None]) & 1
    r = (np.arange(2**free_bits) >> np.arange(free_bits)[:, None, None]) & 1
    outputs, strings = strategy(x, r)
    o = np.stack([np.broadcast_to(b, (64, 2**free_bits)) for b in outputs])
    flags = np.asarray(process.table)[4 * o[0] + 2 * o[1] + o[2]]
    wins = np.stack([
        _wins(flags[..., k], g, gp, x[2 * k], x[2 * k + 1])
        for k, (g, gp) in enumerate(strings)
    ])
    return wins, o


def _share(cases: np.ndarray, per: int | None = None) -> Fraction:
    return Fraction(int(np.sum(cases)), per or cases.size)


@dataclass(frozen=True)
class BranchAccounting:
    """Enumeration results split by the majority branch of the process."""

    overall: Fraction
    per_input_min: Fraction
    per_input_max: Fraction
    branch_weight: tuple[Fraction, Fraction]
    branch_success: tuple[Fraction, Fraction]


def shared_process_accounting(
    process: ClassicalProcess3, reversed_roles: bool = False
) -> BranchAccounting:
    """The shared-process strategy played with any process table.

    Each player guesses the complement of its outcomes on the pair it reads
    first and outputs the AND of its outcomes on the other pair. The free
    bits are the first-read outcomes (the partners' outcomes would give the
    same counts, by the XOR pair correlations).
    """

    def play(x: np.ndarray, r: np.ndarray) -> tuple[tuple, tuple]:
        p1, p2, p3 = ((r[2 * k] ^ x[2 * k]) & (r[2 * k + 1] ^ x[2 * k + 1]) for k in range(3))
        # Reversed round: pair 1 between first+second, pair 2 second+third,
        # pair 3 third+first; outputs are complemented partner ANDs.
        outputs = (1 - p3, 1 - p1, 1 - p2) if reversed_roles else (p2, p3, p1)
        return outputs, tuple((1 - r[2 * k], 1 - r[2 * k + 1]) for k in range(3))

    wins, outputs = score_round(process, play, 6)
    won, majority = wins.all(axis=0), outputs.sum(axis=0) >= 2
    per_input = won.sum(axis=1)
    branches = (~majority, majority)
    return BranchAccounting(
        overall=_share(won),
        per_input_min=Fraction(int(per_input.min()), won.shape[1]),
        per_input_max=Fraction(int(per_input.max()), won.shape[1]),
        branch_weight=tuple(map(_share, branches)),  # type: ignore[arg-type]
        branch_success=tuple(  # type: ignore[arg-type]
            _share(won & b, int(b.sum())) if b.any() else Fraction(0) for b in branches
        ),
    )


def tdr_accounting_ebw() -> BranchAccounting:
    """Full enumeration of the shared-process strategy, standard round (27/32)."""
    return shared_process_accounting(ebw_process())


def _forwarding_wins(served: tuple[int, int, int]) -> np.ndarray:
    """Wins of a relay: a served player identifies its string from a
    forwarded share ((s ^ x) ^ s is x for every outcome s, so s is not
    enumerated); every other player eliminates with a uniform pick."""

    def play(x: np.ndarray, r: np.ndarray) -> tuple[tuple, tuple]:
        picks = iter(r)
        return (0, 0, 0), tuple(
            (x[2 * k], x[2 * k + 1]) if s else (next(picks), next(picks))
            for k, s in enumerate(served)
        )

    return score_round(ClassicalProcess3((served,) * 8), play, 2 * (3 - sum(served)))[0]


def tdr_success_no_collab() -> Fraction:
    """Every player eliminates with a fresh uniform pair; no communication."""
    return _share(_forwarding_wins((0, 0, 0)).all(axis=0))


@dataclass(frozen=True)
class RelayAccounting:
    overall: Fraction
    per_player: tuple[Fraction, Fraction, Fraction]


def tdr_relay_accounting() -> RelayAccounting:
    """One relay, the fixed order first->second->third with outcome
    forwarding (3/4): only the first player, with nobody upstream, must
    eliminate with a uniform pair. In the flagged variant fixed orders reach
    only 21/32 (:func:`ftdr_accounting`)."""
    wins = _forwarding_wins((0, 1, 1))
    return RelayAccounting(_share(wins.all(axis=0)), tuple(map(_share, wins)))  # type: ignore[arg-type]


@dataclass(frozen=True)
class FlagAccounting:
    overall: Fraction
    round_success: tuple[Fraction, Fraction]


def ftdr_accounting(strategy: str) -> FlagAccounting:
    """Flagged variant: a fair coin selects standard or reversed pair roles.

    ``"ebw"`` plays the shared-process strategy adapted per round;
    ``"definite_order"`` the forwarding relay, which in the reversed round
    can only serve the third player exactly. Its 21/32 is the optimum over
    *fixed* orders only: a causally separable strategy whose first player
    reads the round and routes 1->2->3 or 1->3->2 serves two players in
    either round and reaches 3/4.
    """
    if strategy == "ebw":
        std = tdr_accounting_ebw().overall
        rev = shared_process_accounting(ebw_process(), reversed_roles=True).overall
    elif strategy == "definite_order":
        std = tdr_relay_accounting().overall
        rev = _share(_forwarding_wins((0, 0, 1)).all(axis=0))
    else:
        raise ValueError(f"unknown strategy {strategy!r}; expected 'ebw' or 'definite_order'")
    return FlagAccounting((std + rev) / 2, (std, rev))


def two_copy_locc_decode(z_bits: tuple[int, int], x_bits: tuple[int, int]) -> BellCode:
    """Recover a qubit code from two copies measured locally: one read in
    the computational basis on both wires (``z_bits``), the other in the
    conjugate basis (``x_bits``); each pair's XOR reveals one symbol."""
    z_bits = _check_bits(z_bits, 2, "computational readings")
    x_bits = _check_bits(x_bits, 2, "conjugate readings")
    return BellCode(2, z_bits[0] ^ z_bits[1], x_bits[0] ^ x_bits[1])

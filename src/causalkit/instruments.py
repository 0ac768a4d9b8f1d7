"""Quantum instruments as labeled Choi-Jamiolkowski operator families.

An instrument is a finite list of CJ operators, one per classical outcome,
each acting on the same ordered wires. The convention throughout the package
is direct contraction: a measure-and-prepare branch that detects basis vector
``b`` and re-prepares ``p`` is literally |b><b| (x) |p><p|, and probabilities
are plain traces against the carrying process, with no transpose inserted at
contraction time.

Wire roles are not positional: outputs are declared; every other wire is
read, in wire order (ancillary state wires first, then the lab input wire).
Completeness is the Choi trace-preservation condition Tr_out(sum_k M_k) = I_in.

Constructors check their inputs at ``DEFAULT_TOL`` and raise on a violation;
only :func:`validate_instrument` takes a ``tol``, which sets its verdict.

Instruments are stored as factors, in one :class:`KronSum` stacked by
outcome. A plain instrument is its one part, with one term. The composite
that reads out two ancilla wires before a selected inner instrument
(:func:`extend_instrument_with_measurement`) has two parts: branch k is
sum_m R[m] (x) S[k, m], a readout stack R by term m and a branch stack S by
(outcome k, term m). It therefore costs one small (outcome, readout) gather
instead of a dense block of side d^2 D per branch. Conjugated on a few wires
X (:func:`conjugate_instrument`), a plain instrument has two parts too: blocks
on the other wires, shared by a stacked conjugation's members, and a small
part on X each, so its wires become (other wires, X). A :class:`PartyArm` stacks
its family, one instrument per classical input, once; game contractions
take that stack's parts as they are, and the composer takes the source arm
and gathers from its stack. The dense operators,
:attr:`Instrument.ops`, are built only when read, e.g. by :func:`validate_instrument`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .tensor import (
    DEFAULT_TOL,
    KronSum,
    LabeledOperator,
    OperatorStack,
    WireLabel,
    _check_tol,
    _find_wire,
    _positions,
    conjugate_wires,
    hermiticity_defect,
    min_eigenvalue,
    partial_trace,
    stack_operators,
)


@dataclass(frozen=True)
class Instrument:
    """CJ operators per outcome, kept as factors, plus the wires it emits.

    Branch k is sum_m kron(terms.parts[0][m], ..., terms.parts[-1][k, m]):
    the last part is stacked by (outcome k, term m), every earlier part by
    the term m alone. A plain instrument is the one-part, one-term case; it
    is built as ``Instrument(ops, output_wires)`` from one
    :class:`LabeledOperator` per outcome. Every wire that is not an output is
    an input (:attr:`input_wires`). :attr:`ops` is the dense view, one
    operator per outcome on the parts' wires; it is built on each read.
    """

    terms: KronSum
    output_wires: tuple[str, ...]

    def __post_init__(self) -> None:
        terms = self.terms
        if not isinstance(terms, KronSum):
            ops = tuple(terms)
            if not ops:
                raise ValueError("an instrument needs at least one outcome")
            terms = KronSum((stack_operators(ops, (len(ops), 1)),))
        if [p.matrix.ndim for p in terms.parts] != [3] * (len(terms.parts) - 1) + [4]:
            raise ValueError("the last part must be stacked by (outcome, term), the others by term")
        if not terms.batch_shape[0]:
            raise ValueError("an instrument needs at least one outcome")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "output_wires", tuple(self.output_wires))
        names = tuple(w.name for w in terms.wires)
        if not set(self.output_wires) <= set(names):
            raise ValueError(f"declared outputs {sorted(self.output_wires)} do not match operator wires {names}")

    @property
    def input_wires(self) -> tuple[str, ...]:
        """Every wire that is not an output, in wire order."""
        return tuple(w.name for w in self.wires if w.name not in self.output_wires)

    @property
    def ops(self) -> tuple[LabeledOperator, ...]:
        """The dense CJ operator of every outcome."""
        wires = self.wires
        return tuple(LabeledOperator(wires, m) for m in self.terms.matrix)

    @property
    def n_outcomes(self) -> int:
        return self.terms.batch_shape[0]

    @property
    def wires(self) -> tuple[WireLabel, ...]:
        return self.terms.wires

    def wire(self, name: str) -> WireLabel:
        return _find_wire(self.wires, name)


@dataclass(frozen=True)
class PartyArm:
    """One player's equipment: an instrument per classical input (one entry
    for the retrieval game, where the only input is the code wire).

    :attr:`stack` holds the family by (input, outcome), checked and stacked
    once, here: members share every part but the last and their outcome count,
    and their last parts share wires in one order (:func:`stack_operators`).
    A pickled or copied arm carries its instruments alone and restacks them.
    """

    instruments: tuple[Instrument, ...]
    stack: KronSum = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        family = tuple(self.instruments)
        if not family:
            raise ValueError("an arm needs at least one instrument")
        counts = {ins.n_outcomes for ins in family}
        if len(counts) != 1:
            raise ValueError(f"instruments disagree on the outcome count: {sorted(counts)}")
        shared = family[0].terms.parts[:-1]
        for ins in family[1:]:
            parts = ins.terms.parts[:-1]
            if len(parts) != len(shared) or any(
                a is not b and (a.wires != b.wires or not np.array_equal(a.matrix, b.matrix))
                for a, b in zip(parts, shared)
            ):
                raise ValueError("instruments in a family must share one readout")
        lasts = [ins.terms.parts[-1] for ins in family]
        object.__setattr__(self, "instruments", family)
        object.__setattr__(self, "stack", KronSum(shared + (stack_operators(lasts, (len(lasts),)),)))

    def __reduce__(self):
        return PartyArm, (self.instruments,)


@dataclass(frozen=True)
class InstrumentReport:
    outcome_min_eigs: tuple[float, ...]
    hermiticity: float
    tp_residual: float
    tolerance: float

    @property
    def psd_ok(self) -> bool:
        return all(e >= -self.tolerance for e in self.outcome_min_eigs)

    @property
    def valid(self) -> bool:
        return self.psd_ok and self.hermiticity <= self.tolerance and self.tp_residual <= self.tolerance


def validate_instrument(ins: Instrument, tol: float = DEFAULT_TOL) -> InstrumentReport:
    """Positivity of every branch, in one stacked pass, plus completeness of the sum."""
    _check_tol(tol)
    return _reports(ins, ins.terms.matrix, tol)[0]


def _reports(ins: Instrument, branches: np.ndarray, tol: float) -> list[InstrumentReport]:
    """The report of :func:`validate_instrument` for each instrument on ``ins``'s wires and
    outputs in ``branches``, a dense stack by outcome or by (member, outcome), in one pass."""
    ops = OperatorStack(ins.wires, branches)
    herm = np.max(hermiticity_defect(ops), axis=-1).reshape(-1)
    eigs = min_eigenvalue(ops).reshape(herm.size, -1)
    reduced = partial_trace(OperatorStack(ins.wires, branches.sum(axis=-3)), set(ins.output_wires))
    tp = np.max(np.abs(reduced.matrix - np.eye(reduced.total_dim)), axis=(-2, -1)).reshape(-1)
    eigs[herm > tol], tp[herm > tol] = np.nan, np.inf  # a member not Hermitian within tol has no spectrum
    return [InstrumentReport(tuple(e.tolist()), h, t, tol) for h, e, t in zip(herm.tolist(), eigs, tp.tolist())]


def _unitary(u: np.ndarray, dim: int, what: str, stack: bool = False) -> np.ndarray:
    """``u`` as complex; raises unless a dim x dim unitary (with ``stack``, a stack) within ``DEFAULT_TOL``."""
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (dim, dim) or u.ndim > 2 + stack:
        raise ValueError(f"{what} must be a {dim}x{dim} unitary, got shape {u.shape}")
    if np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(dim))) > DEFAULT_TOL:
        raise ValueError(f"{what} is not unitary within tolerance")
    return u


def _readout_projectors(v: np.ndarray, wires: Sequence[WireLabel]) -> OperatorStack:
    """The projectors V^dag |m><m| V of a readout unitary V on ``wires``, stacked by m."""
    return OperatorStack(wires, v.conj()[:, :, None] * v[:, None, :])


def choi_of_unitary(u: np.ndarray, in_wire: WireLabel, out_wire: WireLabel) -> LabeledOperator:
    """CJ operator of a unitary channel, on wires (in, out).

    The result is rank one with trace d: the outer product of the vector
    sum_i |i> (x) U|i>. Raises if ``u`` is not unitary within ``DEFAULT_TOL``.
    """
    if out_wire.dim != in_wire.dim:
        raise ValueError(f"a unitary channel needs equal wire dims, got {in_wire.dim}, {out_wire.dim}")
    vec = _unitary(u, in_wire.dim, "channel matrix").T.reshape(-1)
    return LabeledOperator((in_wire, out_wire), np.outer(vec, vec.conj()))


def identity_channel_instrument(
    in_wire: WireLabel, out_wire: WireLabel, forced_outcome: int = 0, n_outcomes: int = 1
) -> Instrument:
    """Pass the state through untouched; announce a fixed outcome."""
    if not 0 <= forced_outcome < n_outcomes:
        raise ValueError("forced outcome out of range")
    cj = choi_of_unitary(np.eye(in_wire.dim), in_wire, out_wire)
    zero = LabeledOperator(cj.wires, np.zeros_like(cj.matrix))
    ops = tuple(cj if k == forced_outcome else zero for k in range(n_outcomes))
    return Instrument(ops, (out_wire.name,))


def measure_prepare_instrument(
    basis: Sequence[np.ndarray],
    preparations: Sequence[np.ndarray],
    in_wire: WireLabel,
    out_wire: WireLabel,
) -> Instrument:
    """Projective measurement followed by a pure re-preparation per outcome.

    ``basis`` must be a complete orthonormal family on the input wire, and
    ``preparations`` pairs each outcome with a unit vector sent onward, both
    within ``DEFAULT_TOL``. Branch k is |b_k><b_k| (x) |p_k><p_k|.
    """
    if len(basis) != len(preparations):
        raise ValueError("need exactly one preparation per basis vector")
    d = in_wire.dim
    if len(basis) != d:
        raise ValueError(f"basis must have {d} vectors, got {len(basis)}")
    _unitary(np.column_stack(basis), d, "measurement basis (orthonormal columns)")
    ops = []
    for b, p in zip(basis, preparations):
        p = np.asarray(p, dtype=complex)
        if abs(np.linalg.norm(p) - 1.0) > DEFAULT_TOL:
            raise ValueError("preparation vectors must be normalized")
        ops.append(
            LabeledOperator(
                (in_wire, out_wire),
                np.kron(np.outer(b, np.conj(b)), np.outer(p, np.conj(p))),
            )
        )
    return Instrument(tuple(ops), (out_wire.name,))


def conjugate_instrument(ins: Instrument, u: np.ndarray, names: Sequence[str]):
    """Conjugate every branch by a unitary U on the named wires X.

    Each branch maps to U M U†, which preserves positivity; acting on input
    wires or output wires alone also preserves completeness. U is indexed by
    X in the instrument's own wire order. A last part (the one stacked by
    outcome) that holds X and shares a term sum is conjugated alone
    (:func:`conjugate_wires`). Otherwise the branches, dense if U reaches a
    shared part, stay factored: branch k = sum_ab |a><b|_X (x) M_k[a, b] gives
    the blocks M_k[a, b] on the other wires by term t = (k, a, b), shared by a
    stack's members, and a part on X by (outcome k', t) holding delta_kk'
    U|a><b|U†, so the wires are (other wires, X). Where its K^2 d_X^4 entries
    outweigh K dense branches (K d_X^2 > (D/d_X)^2, as when X is every wire),
    the branches are conjugated whole. A stack of n unitaries gives n instruments.
    """
    names = tuple(names)
    if not names:
        raise ValueError("conjugate_instrument needs at least one wire name")
    unknown = set(names) - {w.name for w in ins.wires}
    if unknown:
        raise ValueError(f"unknown wires {sorted(unknown)}; instrument has {[w.name for w in ins.wires]}")
    dim = OperatorStack.total_dim_of(w for w in ins.wires if w.name in names)
    u = _unitary(u, dim, f"conjugation matrix for wires {names}", stack=True)
    *shared, last = ins.terms.parts
    if not set(names) <= set(last.names):
        shared, last = [], OperatorStack(ins.wires, ins.terms.matrix[:, None])
    (k, m), wires, rest_dim = last.matrix.shape[:2], last.wires, last.total_dim // dim
    if shared or k * dim**2 > rest_dim**2:
        lasts = conjugate_wires(last, u, names).matrix.reshape((-1,) + last.matrix.shape)
    else:
        x = _positions(last, names)
        rest = [i for i in range(len(wires)) if i not in x]
        axes = [2 + i + side * len(wires) for group in (x, rest) for side in (0, 1) for i in group]
        blocks = last.as_tensor().transpose(0, 1, *axes).reshape(-1, rest_dim, rest_dim)  # by (k, m, a, b)
        shared, wires = [OperatorStack(tuple(wires[i] for i in rest), blocks)], tuple(wires[i] for i in x)
        units = conjugate_wires(OperatorStack(wires, np.eye(dim * dim).reshape(-1, dim, dim)), u, names).matrix
        lasts = np.zeros((units.size // dim**4, k, k, m, dim * dim, dim, dim), dtype=complex)
        lasts[:, np.arange(k), np.arange(k)] = units.reshape(-1, 1, 1, dim * dim, dim, dim)
        lasts = lasts.reshape(-1, k, k * m * dim * dim, dim, dim)
    members = tuple(Instrument(KronSum((*shared, OperatorStack(wires, s))), ins.output_wires) for s in lasts)
    return members if u.ndim == 3 else members[0]


def extend_instrument_with_measurement(
    arm: PartyArm,
    pre_unitary: np.ndarray,
    measured_wires: tuple[WireLabel, WireLabel],
    selector: int,
) -> Instrument:
    """Compose: rotate two ancilla wires, read them out, run the inner
    instrument picked by one symbol, and pad its outcome with the other.

    Outcome k of member ``m[selector]`` becomes (k + m[1 - selector]) mod d,
    with d the dimension of the padding wire ``measured_wires[1 - selector]``.

    :param arm: the source :class:`PartyArm`; its family, checked and stacked
        when the arm was built, holds the inner instruments, indexed by the
        selected measured symbol, each valid at ``DEFAULT_TOL`` with d outcomes
    :param pre_unitary: applied to the two measured wires before the
        computational-basis readout (effective projectors U†|m1 m2><m1 m2|U)
    :param measured_wires: the two fresh wires being measured
    :param selector: 0 or 1, which measured symbol picks the family member
    :return: instrument on (measured wires..., inner wires...) whose input
        side gains the measured wires
    """
    if selector not in (0, 1):
        raise ValueError("selector must be 0 or 1")
    w1, w2 = measured_wires
    sel_dim, d = (w1.dim, w2.dim)[selector], (w1.dim, w2.dim)[1 - selector]
    members, outcomes = arm.stack.batch_shape
    if members != sel_dim:
        raise ValueError(f"family size {members} must match the selector wire dimension {sel_dim}")
    if outcomes != d:
        raise ValueError(f"every inner instrument needs {d} outcomes, one per padding symbol; got {outcomes}")
    base, inner = arm.instruments[0], arm.stack.matrix
    for k, report in enumerate(_reports(base, inner, DEFAULT_TOL)):
        if not report.valid:
            raise ValueError(
                f"inner instrument {k} is not a valid instrument "
                f"(min eig {min(report.outcome_min_eigs):.3e}, tp residual {report.tp_residual:.3e})"
            )
    u = _unitary(pre_unitary, w1.dim * w2.dim, "pre-measurement matrix")

    # Branch a is sum_m R[m] (x) S[a, m]: R[m] = U^dag |m><m| U reads out m =
    # (m1, m2), and S[a, m] is branch (a - m[1 - selector]) mod d of member m[selector].
    symbols = np.divmod(np.arange(w1.dim * w2.dim), w2.dim)
    chosen, other = symbols[selector], symbols[1 - selector]
    branches = inner[chosen[None, :], (np.arange(d)[:, None] - other[None, :]) % d]
    readout = _readout_projectors(u, (w1, w2))
    return Instrument(KronSum((readout, OperatorStack(base.wires, branches))), base.output_wires)

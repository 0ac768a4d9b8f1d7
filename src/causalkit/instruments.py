"""Quantum instruments as labeled Choi-Jamiolkowski operator families.

An instrument is a finite list of CJ operators, one per classical outcome,
each acting on the same ordered wires. The convention throughout the package
is direct contraction: a measure-and-prepare branch that detects basis vector
``b`` and re-prepares ``p`` is literally |b><b| (x) |p><p|, and probabilities
are plain traces against the carrying process, with no transpose inserted at
contraction time.

Wire roles are not positional: outputs are declared, every other wire is read,
and a factored instrument's wires follow its parts: callers find them by name.
Completeness is the Choi trace-preservation condition Tr_out(sum_k M_k) = I_in.

Constructors check their inputs at ``DEFAULT_TOL`` and raise on a violation;
only :func:`validate_instrument` takes a ``tol``, which sets its verdict.

Instruments are stored as factors, in one :class:`KronSum` stacked by
outcome. A plain instrument is its one part, with one term. The composite
that reads out two ancilla wires before a selected inner instrument
(:func:`extend_instrument_with_measurement`) has two parts: branch k is
sum_t S[t] (x) R[k, t], the inner family S as its arm stacked it, by term
t = (member, inner outcome), with no copy, then a small readout stack R by
(outcome k, term t). Conjugated on a few wires X (:func:`conjugate_instrument`),
a plain instrument has two parts too: a small part on X each, then blocks on
the other wires, shared by a stacked conjugation's members, so its wires become
(X, other wires). A :class:`PartyArm` stacks its family, one instrument per
classical input, once, by the one part its members differ in; game
contractions take that stack's parts as they are.
The dense operators, :attr:`Instrument.ops`, are built only when read, e.g. by
:func:`validate_instrument`.
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
    once, here: members share their outcome count and every part but one,
    compared by identity, then by wires and entries, and that part is stacked
    by member (:func:`stack_operators`), the last if none differs. A read-out
    composite's members share their lab family, a twirl's their blocks.
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
        first = family[0].terms.parts
        differ = {i for ins in family[1:] for i, (a, b) in enumerate(zip(ins.terms.parts, first))
                  if a is not b and (a.wires != b.wires or not np.array_equal(a.matrix, b.matrix))}
        if len(differ) > 1 or {len(ins.terms.parts) for ins in family} != {len(first)}:
            raise ValueError("instruments in a family must share every part but one")
        i = differ.pop() if differ else len(first) - 1
        stacked = stack_operators([ins.terms.parts[i] for ins in family], (len(family),))
        object.__setattr__(self, "instruments", family)
        object.__setattr__(self, "stack", KronSum((*first[:i], stacked, *first[i + 1 :])))

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
    if not u.size:
        raise ValueError(f"{what} is an empty stack of unitaries")
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
    outcome) that holds X and shares a term sum, as a read-out composite's
    readout holds its code wire, is conjugated alone (:func:`conjugate_wires`).
    Otherwise the branches, dense if U reaches a shared part (no command's twirl does),
    stay factored: branch k = sum_ab |a><b|_X (x) M_k[a, b] gives a first part on X,
    the units U|a><b|U† by term t = (a, b), and a last part, the blocks M_k[a, b]
    on the other wires by (outcome k, t), one object shared by a stack's members,
    so the wires are (X, other wires). Where a member's d_X^4 units outweigh its K
    dense branches (d_X^2 > K (D/d_X)^2), the branches are conjugated whole.
    A stack of n unitaries gives n instruments; an empty stack raises.
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
    (k, m), wires, rest_dim, blocks = last.matrix.shape[:2], last.wires, last.total_dim // dim, []
    if shared or m * dim**2 > k * rest_dim**2:
        own = conjugate_wires(last, u, names).matrix.reshape((-1,) + last.matrix.shape)
    else:
        x = _positions(last, names)
        rest = [i for i in range(len(wires)) if i not in x]
        axes = [2 + i + side * len(wires) for group in (x, rest) for side in (0, 1) for i in group]
        by_term = last.as_tensor().transpose(0, 1, *axes).reshape(k, -1, rest_dim, rest_dim)  # by (k, (m, a, b))
        blocks, wires = [OperatorStack(tuple(wires[i] for i in rest), by_term)], tuple(wires[i] for i in x)
        units = OperatorStack(wires, np.tile(np.eye(dim * dim).reshape(-1, dim, dim), (m, 1, 1)))
        own = conjugate_wires(units, u, names).matrix.reshape(-1, m * dim * dim, dim, dim)
    members = tuple(Instrument(KronSum((*shared, OperatorStack(wires, s), *blocks)), ins.output_wires) for s in own)
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
    :return: instrument on (inner wires..., measured wires), the arm's stacked
        family then the readout; its input side gains the measured wires
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

    # Branch a is sum_t S[t] (x) R[a, t], t = (member i, inner outcome b): S[t] is branch b of member i,
    # and R[a, t] = U^dag |m><m| U for the one m with m[selector] = i, m[1 - selector] = (a - b) mod d.
    member, outcome = np.divmod(np.arange(sel_dim * d), d)
    symbols = (member, (np.arange(d)[:, None] - outcome) % d)
    m = np.ravel_multi_index(symbols if selector == 0 else symbols[::-1], (w1.dim, w2.dim))
    family = OperatorStack(base.wires, inner.reshape((-1,) + inner.shape[-2:]))
    readout = OperatorStack((w1, w2), _readout_projectors(u, (w1, w2)).matrix[m])
    return Instrument(KronSum((family, readout)), base.output_wires)

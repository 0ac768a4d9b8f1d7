"""Quantum instruments as labeled Choi-Jamiolkowski operator families.

An instrument is a finite list of CJ operators, one per classical outcome,
each acting on the same ordered wires. The convention throughout the package
is direct contraction: a measure-and-prepare branch that detects basis vector
``b`` and re-prepares ``p`` is literally |b><b| (x) |p><p|, and probabilities
are plain traces against the carrying process, with no transpose inserted at
contraction time.

Wire roles are declared, not positional: ``input_wires`` lists everything the
instrument reads (ancillary state wires first, then the lab input wire) and
``output_wires`` what it emits. Completeness is the Choi trace-preservation
condition Tr_out(sum_k M_k) = I_in.

Instruments are stored as factors. Branch k is sum_m R[m] (x) S[k, m], with
a readout stack R on some wires and a branch stack S on the rest; a plain
instrument has no readout and one term. Reading out two ancilla wires before
a selected inner instrument (:func:`extend_instrument_with_measurement`)
therefore costs one small (outcome, readout) gather instead of a dense block
of side d^2 D per branch, and game contractions take R and S as they are
(:func:`stack_instruments`). The dense operators, :attr:`Instrument.ops`,
are built only when read, e.g. by :func:`validate_instrument`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensor import (
    DEFAULT_TOL,
    KronSum,
    LabeledOperator,
    OperatorStack,
    WireLabel,
    _find_wire,
    conjugate_wires,
    hermiticity_defect,
    min_eigenvalue,
    partial_trace,
    permute_wires,
)


@dataclass(frozen=True)
class Instrument:
    """CJ operators per outcome, kept as factors, plus the wire-role split.

    Branch k is sum_m kron(readout[m], branches[k, m]): ``readout`` stacks
    operators on the readout wires by term m, and ``branches`` stacks
    operators on the remaining wires by (outcome k, term m). A plain
    instrument is the one-term case, with no readout wires and m of length 1;
    it is built as ``Instrument(ops, input_wires, output_wires)`` from one
    :class:`LabeledOperator` per outcome. :attr:`ops` is the dense view, one
    operator per outcome on (readout wires..., branch wires...); it is built
    on each read, and :attr:`terms` is the same stack kept as factors.
    """

    branches: OperatorStack
    input_wires: tuple[str, ...]
    output_wires: tuple[str, ...]
    readout: OperatorStack | None = None

    def __post_init__(self) -> None:
        branches = self.branches
        if not isinstance(branches, OperatorStack):
            ops = tuple(branches)
            if not ops:
                raise ValueError("an instrument needs at least one outcome")
            names = ops[0].names
            for op in ops[1:]:
                if op.names != names:
                    raise ValueError("all outcome operators must share the same wires")
            branches = OperatorStack(ops[0].wires, np.array([op.matrix for op in ops])[:, None])
        if branches.matrix.ndim != 4 or not branches.matrix.shape[0]:
            raise ValueError("branches must be stacked by (outcome, term), one outcome or more")
        if self.readout is not None and self.readout.matrix.ndim != 3:
            raise ValueError("the readout must be stacked by term alone")
        object.__setattr__(self, "branches", branches)
        object.__setattr__(self, "input_wires", tuple(self.input_wires))
        object.__setattr__(self, "output_wires", tuple(self.output_wires))
        names = tuple(w.name for w in self.terms.wires)
        declared = set(self.input_wires) | set(self.output_wires)
        if set(self.input_wires) & set(self.output_wires):
            raise ValueError("a wire cannot be both input and output")
        if declared != set(names):
            raise ValueError(f"declared wires {sorted(declared)} do not match operator wires {names}")

    @property
    def terms(self) -> KronSum:
        """The branches as factors, stacked by outcome."""
        return KronSum(((self.readout,) if self.readout is not None else ()) + (self.branches,))

    @property
    def ops(self) -> tuple[LabeledOperator, ...]:
        """The dense CJ operator of every outcome."""
        wires = self.wires
        return tuple(LabeledOperator(wires, m) for m in self.terms.matrix)

    @property
    def n_outcomes(self) -> int:
        return self.branches.matrix.shape[0]

    @property
    def wires(self) -> tuple[WireLabel, ...]:
        return (self.readout.wires if self.readout is not None else ()) + self.branches.wires

    def wire(self, name: str) -> WireLabel:
        return _find_wire(self.wires, name)


@dataclass(frozen=True)
class InstrumentReport:
    outcome_min_eigs: tuple[float, ...]
    hermiticity: float
    tp_residual: float
    tolerance: float = DEFAULT_TOL

    @property
    def psd_ok(self) -> bool:
        return all(e >= -self.tolerance for e in self.outcome_min_eigs)

    @property
    def valid(self) -> bool:
        return self.psd_ok and self.hermiticity <= self.tolerance and self.tp_residual <= self.tolerance


def validate_instrument(ins: Instrument, tol: float = DEFAULT_TOL) -> InstrumentReport:
    """Positivity of every branch plus completeness of the sum."""
    ops = ins.ops
    defects = [hermiticity_defect(op) for op in ops]
    herm = max(defects)
    if herm > tol:
        return InstrumentReport((float("nan"),) * ins.n_outcomes, herm, float("inf"), tol)
    eigs = tuple(min_eigenvalue(op, tol, defect) for op, defect in zip(ops, defects))
    total = LabeledOperator(ins.wires, sum(op.matrix for op in ops))
    reduced = partial_trace(total, set(ins.output_wires))
    tp = float(np.max(np.abs(reduced.matrix - np.eye(reduced.total_dim))))
    return InstrumentReport(eigs, herm, tp, tol)


def _require_valid(ins: Instrument, tol: float, what: str) -> None:
    report = validate_instrument(ins, tol)
    if not report.valid:
        raise ValueError(
            f"{what} is not a valid instrument "
            f"(min eig {min(report.outcome_min_eigs):.3e}, tp residual {report.tp_residual:.3e})"
        )


def _unitary(u: np.ndarray, dim: int, tol: float, what: str) -> np.ndarray:
    """``u`` as a complex array; raises unless it is a dim x dim unitary within ``tol``."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (dim, dim):
        raise ValueError(f"{what} must be a {dim}x{dim} unitary, got shape {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(dim))) > tol:
        raise ValueError(f"{what} is not unitary within tolerance")
    return u


def _readout_projectors(v: np.ndarray, wires: Sequence[WireLabel]) -> OperatorStack:
    """The projectors V^dag |m><m| V of a readout unitary V on ``wires``, stacked by m."""
    return OperatorStack(wires, v.conj()[:, :, None] * v[:, None, :])


def choi_of_unitary(
    u: np.ndarray, in_wire: WireLabel, out_wire: WireLabel, tol: float = DEFAULT_TOL
) -> LabeledOperator:
    """CJ operator of a unitary channel, on wires (in, out).

    The result is rank one with trace d: the outer product of the vector
    sum_i |i> (x) U|i>. Raises if ``u`` is not unitary within ``tol``.
    """
    if out_wire.dim != in_wire.dim:
        raise ValueError(f"a unitary channel needs equal wire dims, got {in_wire.dim}, {out_wire.dim}")
    vec = _unitary(u, in_wire.dim, tol, "channel matrix").T.reshape(-1)
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
    return Instrument(ops, (in_wire.name,), (out_wire.name,))


def measure_prepare_instrument(
    basis: Sequence[np.ndarray],
    preparations: Sequence[np.ndarray],
    in_wire: WireLabel,
    out_wire: WireLabel,
    tol: float = DEFAULT_TOL,
) -> Instrument:
    """Projective measurement followed by a pure re-preparation per outcome.

    ``basis`` must be a complete orthonormal family on the input wire;
    ``preparations`` pairs each outcome with the unit vector sent onward.
    Branch k is |b_k><b_k| (x) |p_k><p_k|.
    """
    if len(basis) != len(preparations):
        raise ValueError("need exactly one preparation per basis vector")
    d = in_wire.dim
    if len(basis) != d:
        raise ValueError(f"basis must have {d} vectors, got {len(basis)}")
    bmat = np.column_stack([np.asarray(b, dtype=complex) for b in basis])
    if bmat.shape != (d, d) or np.max(np.abs(bmat.conj().T @ bmat - np.eye(d))) > tol:
        raise ValueError("measurement family is not an orthonormal basis")
    ops = []
    for b, p in zip(basis, preparations):
        p = np.asarray(p, dtype=complex)
        if abs(np.linalg.norm(p) - 1.0) > tol:
            raise ValueError("preparation vectors must be normalized")
        ops.append(
            LabeledOperator(
                (in_wire, out_wire),
                np.kron(np.outer(b, np.conj(b)), np.outer(p, np.conj(p))),
            )
        )
    return Instrument(tuple(ops), (in_wire.name,), (out_wire.name,))


def conjugate_instrument(
    ins: Instrument, u: np.ndarray, side: str, tol: float = DEFAULT_TOL
) -> Instrument:
    """Conjugate every branch by a unitary on part of the instrument.

    ``side`` is ``"input"`` (all input wires jointly), ``"output"`` (all
    output wires), or a single wire name. Each branch maps to U M U†, which
    preserves positivity; acting on inputs or outputs alone also preserves
    completeness. U acts on the wire axes of the dense branches, and the
    result is a plain instrument.
    """
    if side == "input":
        targets = ins.input_wires
    elif side == "output":
        targets = ins.output_wires
    else:
        if side not in ins.input_wires + ins.output_wires:
            raise ValueError(f"unknown side or wire {side!r}")
        targets = (side,)
    dim = OperatorStack.total_dim_of(w for w in ins.wires if w.name in targets)
    u = _unitary(u, dim, tol, f"conjugation matrix for wires {targets}")
    dense = conjugate_wires(OperatorStack(ins.wires, ins.terms.matrix), u, targets)
    return Instrument(
        OperatorStack(ins.wires, dense.matrix[:, None]), ins.input_wires, ins.output_wires
    )


def extend_instrument_with_measurement(
    family: Sequence[Instrument],
    pre_unitary: np.ndarray,
    measured_wires: tuple[WireLabel, WireLabel],
    selector: int,
    tol: float = DEFAULT_TOL,
) -> Instrument:
    """Compose: rotate two ancilla wires, read them out, run the inner
    instrument picked by one symbol, and pad its outcome with the other.

    Outcome k of member ``m[selector]`` becomes (k + m[1 - selector]) mod d,
    with d the dimension of the padding wire ``measured_wires[1 - selector]``.

    :param family: inner instruments, indexed by the selected measured symbol;
        all must be valid, share wires and have d outcomes
    :param pre_unitary: applied to the two measured wires before the
        computational-basis readout (effective projectors U†|m1 m2><m1 m2|U)
    :param measured_wires: the two fresh wires being measured
    :param selector: 0 or 1, which measured symbol picks the family member
    :return: instrument on (measured wires..., inner wires...) whose input
        side gains the measured wires
    """
    if selector not in (0, 1):
        raise ValueError("selector must be 0 or 1")
    family = list(family)
    if not family:
        raise ValueError("need at least one inner instrument")
    w1, w2 = measured_wires
    sel_dim, d = (w1.dim, w2.dim)[selector], (w1.dim, w2.dim)[1 - selector]
    if len(family) != sel_dim:
        raise ValueError(
            f"family size {len(family)} must match the selector wire dimension {sel_dim}"
        )
    base = family[0]
    for k, ins in enumerate(family):
        if ins.n_outcomes != d:
            raise ValueError(f"inner instrument {k} needs {d} outcomes, one per padding symbol")
        _require_valid(ins, tol, f"inner instrument {k}")
        if ins.wires != base.wires:
            raise ValueError("inner instruments must share identical wires")
    u = _unitary(pre_unitary, w1.dim * w2.dim, tol, "pre-measurement matrix")

    # Branch a is sum_m R[m] (x) S[a, m]: R[m] = U^dag |m><m| U reads out m =
    # (m1, m2), and S[a, m] is branch (a - m[1 - selector]) mod d of member m[selector].
    symbols = np.divmod(np.arange(w1.dim * w2.dim), w2.dim)
    chosen, other = symbols[selector], symbols[1 - selector]
    inner = np.stack([ins.terms.matrix for ins in family])
    branches = inner[chosen[None, :], (np.arange(d)[:, None] - other[None, :]) % d]
    return Instrument(
        OperatorStack(base.wires, branches),
        (w1.name, w2.name) + base.input_wires,
        base.output_wires,
        _readout_projectors(u, (w1, w2)),
    )


def _same_readout(a: OperatorStack | None, b: OperatorStack | None) -> bool:
    if a is None or b is None:
        return a is b
    return a.wires == b.wires and np.array_equal(a.matrix, b.matrix)


def stack_instruments(family: Sequence[Instrument]) -> KronSum:
    """CJ operators of an instrument family, stacked by (member, outcome).

    The stack stays factored: members must share one readout, which is
    stacked once, and their outcome count; their branch wires may come in
    any order.
    """
    counts = {ins.n_outcomes for ins in family}
    if len(counts) != 1:
        raise ValueError(f"instruments disagree on the outcome count: {sorted(counts)}")
    first = family[0]
    if not all(_same_readout(ins.readout, first.readout) for ins in family[1:]):
        raise ValueError("instruments in a family must share one readout")
    names = first.branches.names
    mats = [
        (b if b.names == names else permute_wires(b, names)).matrix
        for b in (ins.branches for ins in family)
    ]
    branches = OperatorStack(first.branches.wires, np.stack(mats))
    return KronSum(((first.readout,) if first.readout is not None else ()) + (branches,))


def coarse_grain(ins: Instrument, grouping: Sequence[int], n_outcomes: int) -> Instrument:
    """Merge outcomes: ``grouping[k]`` is the new label of old outcome k.

    The readout is kept, so a factored instrument stays factored.
    """
    if len(grouping) != ins.n_outcomes:
        raise ValueError("grouping must relabel every outcome")
    if any(not 0 <= g < n_outcomes for g in grouping):
        raise ValueError("grouping label out of range")
    stack = ins.branches.matrix
    acc = np.zeros((n_outcomes,) + stack.shape[1:], dtype=complex)
    np.add.at(acc, list(grouping), stack)
    return Instrument(
        OperatorStack(ins.branches.wires, acc), ins.input_wires, ins.output_wires, ins.readout
    )

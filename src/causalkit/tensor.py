"""Dense operators over named tensor wires.

Every operator carries an ordered tuple of :class:`WireLabel` entries and a
square complex matrix. An :class:`OperatorStack` holds such matrices along
leading batch axes, and a :class:`LabeledOperator` is the stack with none, so
the wire bookkeeping is written once. Wire order is big-endian: the first wire
is the most significant factor, so for qubit wires ``(X, Y)`` the basis state
``|1>_X|0>_Y`` sits at index 2. All helpers key off wire *names*; positional
bookkeeping never leaks into calling code.

Numerical policy: matrices are dense ``complex128``, Hermitian spectra go
through ``numpy.linalg.eigvalsh`` only, and the default comparison tolerance is
``DEFAULT_TOL`` (absolute, entrywise).

Every probability is one einsum over factor tensors (:func:`batched_trace`): a
plan cached per operand signature (checks, subscripts, numpy's greedy path cut
into pairs) and a runner that replays numpy's pairwise executor, each side's
copy (``np.copyto`` where it only permutes) in one reused per-thread complex128
workspace, so its bits are ``np.einsum``'s along that path. A lone tensor
contracts nothing: one ``np.einsum`` lays it out.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9


def _check_tol(tol: float) -> None:
    """Raise unless a verdict's ``tol`` is finite and >= 0 (0 means exact)."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


# einsum's subscript letters: a row and a column letter per wire, and in
# batched_trace one per batch label and per kron-sum term axis. No dense
# operator comes near 26 wires, but a factored contraction, which forms no
# dense operator, can: batched_trace's plan counts its letters first.
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class WireLabel:
    """A named tensor factor with a fixed local dimension (at least 2)."""

    name: str
    dim: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("wire name must be a non-empty string")
        if not isinstance(self.dim, int) or self.dim < 2:
            raise ValueError(f"wire {self.name!r} needs an integer dim >= 2, got {self.dim!r}")


@dataclass(frozen=True)
class OperatorStack:
    """Operators on one wire tuple, stacked along leading batch axes.

    :param wires: ordered wire labels shared by every stacked operator; names
        must be unique
    :param matrix: array of shape ``batch + (D, D)`` with D = prod(dims),
        stored as complex128
    """

    wires: tuple[WireLabel, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        wires = tuple(self.wires)
        names = [w.name for w in wires]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate wire names: {names}")
        mat = np.asarray(self.matrix, dtype=np.complex128)
        dim = self.total_dim_of(wires)
        if mat.shape[-2:] != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not end in ({dim}, {dim})")
        object.__setattr__(self, "wires", wires)
        object.__setattr__(self, "matrix", mat)

    @staticmethod
    def total_dim_of(wires: Iterable[WireLabel]) -> int:
        return math.prod(w.dim for w in wires)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(w.dim for w in self.wires)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(w.name for w in self.wires)

    @property
    def total_dim(self) -> int:
        return self.total_dim_of(self.wires)

    def wire(self, name: str) -> WireLabel:
        return _find_wire(self.wires, name)

    def as_tensor(self) -> np.ndarray:
        """Reshape to the batch axes, then one row axis plus one column axis per wire."""
        return self.matrix.reshape(self.matrix.shape[:-2] + self.dims + self.dims)

    def __eq__(self, other) -> bool:
        """Equal by value: the same type, the same wires and the same entries."""
        return type(other) is type(self) and other.wires == self.wires and np.array_equal(other.matrix, self.matrix)

    def __hash__(self) -> int:
        return hash((self.wires, self.matrix.shape))


@dataclass(frozen=True, eq=False)
class LabeledOperator(OperatorStack):
    """One square matrix on its ordered wires: the stack with no batch axes."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.matrix.ndim != 2:
            raise ValueError(f"an operator takes one matrix, got shape {self.matrix.shape}")


def _find_wire(wires: Sequence[WireLabel], name: str) -> WireLabel:
    for w in wires:
        if w.name == name:
            return w
    raise KeyError(f"no wire named {name!r}; have {tuple(w.name for w in wires)}")


def identity_operator(wires: Sequence[WireLabel]) -> LabeledOperator:
    """Identity matrix on the given wires."""
    wires = tuple(wires)
    return LabeledOperator(wires, np.eye(OperatorStack.total_dim_of(wires)))


def kron(*ops: LabeledOperator) -> LabeledOperator:
    """Tensor product of one or more operators; earlier wires stay most significant.

    Raises ValueError if two operands share a wire name.
    """
    if not ops:
        raise ValueError("kron needs at least one operand")
    names = [n for op in ops for n in op.names]
    if len(set(names)) != len(names):
        shared = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"kron operands share wires {shared}")
    wires = tuple(w for op in ops for w in op.wires)
    return LabeledOperator(wires, functools.reduce(np.kron, (op.matrix for op in ops)))


def _positions(op: OperatorStack, names: Iterable[str]) -> tuple[int, ...]:
    """Positions of the named wires in ``op``'s wire order; an unknown name raises KeyError."""
    names = set(names)
    missing = names - set(op.names)
    if missing:
        raise KeyError(f"unknown wires {sorted(missing)}; operator has {op.names}")
    return tuple(i for i, name in enumerate(op.names) if name in names)


def _diagonal(tensor: np.ndarray, n: int, axes: tuple[int, ...]) -> np.ndarray:
    """Writable view of a ``batch + dims + dims`` tensor on n wires, each column in ``axes``
    tied to its row: batch, n rows, other columns. Summing those rows is the partial trace."""
    sub = list(_LETTERS[: 2 * n])
    for i in axes:
        sub[n + i] = sub[i]
    kept = [sub[n + i] for i in range(n) if i not in axes]
    return np.einsum("..." + "".join(sub) + "->..." + "".join(sub[:n] + kept), tensor)


def partial_trace(op, traced: Iterable[str]):
    """Trace out the named wires of an operator or a stack, keeping the rest (and any batch axes) in order;
    with no wire named, ``op`` itself, not a copy."""
    axes = _positions(op, traced)
    if not axes:
        return op
    batch = op.matrix.shape[:-2]
    reduced = _diagonal(op.as_tensor(), len(op.wires), axes).sum(axis=tuple(len(batch) + i for i in axes))
    kept = tuple(w for i, w in enumerate(op.wires) if i not in axes)
    dim = OperatorStack.total_dim_of(kept)
    return type(op)(kept, reduced.reshape(batch + (dim, dim)))


def permute_wires(op, new_order: Sequence[str]):
    """Reorder wires to ``new_order`` (a permutation of the current names).

    Takes a :class:`LabeledOperator` or an :class:`OperatorStack`, whose
    batch axes are kept, and returns the same type.
    """
    new_order, names = list(new_order), op.names
    if sorted(new_order) != sorted(names):
        raise ValueError(f"{new_order} is not a permutation of {names}")
    n, nb = len(names), op.matrix.ndim - 2
    perm = [names.index(name) for name in new_order]
    axes = list(range(nb)) + [nb + p for p in perm] + [nb + n + p for p in perm]
    out = op.as_tensor().transpose(axes).reshape(op.matrix.shape)
    return type(op)(tuple(op.wires[p] for p in perm), out)


def hermiticity_defect(op: OperatorStack):
    """max|M - M^dag|: a float for one operator, an array by entry for a stack.

    One buffer holds conj(M^T), then M minus it, then the moduli: no other copy of M, the same bits.
    """
    buf = np.conjugate(op.matrix.swapaxes(-1, -2), order="C")  # so the passes below run contiguously
    np.subtract(op.matrix, buf, out=buf)
    defect = np.max(np.abs(buf, out=buf).real, axis=(-2, -1))
    return float(defect) if defect.ndim == 0 else defect


def min_eigenvalue(op: OperatorStack, transposed: Iterable[str] = ()):
    """Smallest eigenvalue of the Hermitian part (M + M^dag)/2: a float, or an array by entry for a stack.

    M is first transposed on the wires named in ``transposed`` (a partial
    transpose, which keeps :func:`hermiticity_defect`). The Hermitian part is
    built in one buffer from two transposed views of ``op``, with the bits of
    ``(M + M^dag) / 2``, and one stacked eigvalsh sees it. Whether that is the
    spectrum of ``op`` is the caller's verdict, on :func:`hermiticity_defect`.
    """
    nb, n = op.matrix.ndim - 2, len(op.wires)
    batch, rows, cols = list(range(nb)), list(range(nb, nb + n)), list(range(nb + n, nb + 2 * n))
    for i in _positions(op, transposed):
        rows[i], cols[i] = cols[i], rows[i]
    tensor, sym = op.as_tensor(), np.empty(op.matrix.shape, dtype=np.complex128)
    out = sym.reshape(tensor.shape)
    np.conjugate(tensor.transpose(batch + cols + rows), out=out)
    np.add(tensor.transpose(batch + rows + cols), out, out=out)
    sym /= 2
    eig = np.linalg.eigvalsh(sym)[..., 0]
    return float(eig) if eig.ndim == 0 else eig


def add_replaced(out: np.ndarray, op: LabeledOperator, wires_x: Iterable[str], coeff: float = 1.0) -> None:
    """Add ``coeff * R_X(op)`` in place into ``out``, shaped like ``op.as_tensor()``.

    R_X(op) = Tr_X(op) (x) I_X / d_X, in op's wire order, replaces the wires
    X by the normalized identity. It vanishes unless row and column agree on
    every wire in X, so Tr_X(op), summed on the diagonal view of
    :func:`partial_trace`, is added into that view of ``out``, one block per
    value of X; on a zero ``out`` this leaves R_X(op) itself.
    """
    axes, n = _positions(op, wires_x), len(op.wires)
    d_x = OperatorStack.total_dim_of([op.wires[i] for i in axes])
    traced = np.asarray(_diagonal(op.as_tensor(), n, axes).sum(axis=axes))  # 0-d, not a scalar, for X = all wires
    np.divide(np.multiply(coeff, traced, out=traced), d_x, out=traced)  # coeff * Tr_X(op) / d_x, in place
    diagonal = np.moveaxis(_diagonal(out, n, axes), axes, range(len(axes)))
    for x in np.ndindex(diagonal.shape[: len(axes)]):  # numpy copies the whole view for one add
        diagonal[x] += traced


@dataclass(frozen=True)
class KronSum:
    """A stack kept as factors, one sum of krons per entry.

    Entry ``[i0, i1, ...]`` is sum_m kron(parts[0][i0, m], parts[1][i1, m], ...).
    Each part is an :class:`OperatorStack` whose last batch axis is the
    shared term index m, of one length for all parts; its other batch axes
    (i0 for the first part, and so on) are its own. The stack this stands
    for has the parts' own batch axes and the parts' wires, both in part
    order. :func:`batched_trace` contracts the parts and sums m inside its
    one einsum; :attr:`matrix` is the dense stack, built on each read.
    """

    parts: tuple[OperatorStack, ...]

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("a kron sum needs at least one part")
        if any(p.matrix.ndim < 3 for p in parts):
            raise ValueError("every part needs a trailing term axis")
        terms = {p.matrix.shape[-3] for p in parts}
        if len(terms) != 1:
            raise ValueError(f"parts disagree on the term count: {sorted(terms)}")
        _side_wires((p.wires for p in parts), "kron sum parts")
        object.__setattr__(self, "parts", parts)

    @property
    def wires(self) -> tuple[WireLabel, ...]:
        return tuple(w for p in self.parts for w in p.wires)

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return tuple(n for p in self.parts for n in p.matrix.shape[:-3])

    @property
    def matrix(self) -> np.ndarray:
        """The dense stack, of shape ``batch_shape + (D, D)``: every wire left open."""
        dim = OperatorStack.total_dim_of(self.wires)
        return batched_trace([], [self]).reshape(self.batch_shape + (dim, dim))


def stack_operators(ops: Sequence[OperatorStack], shape: tuple[int, ...]) -> OperatorStack:
    """Stack ``prod(shape)`` operators or stacks, in row-major order, into ``shape``.

    Every member must act on the wires of the first one, in the same order,
    and have its batch shape; ``shape`` leads the batch axes of the result.
    One member stacks with no copy; more are copied once, into the result.
    """
    if not ops:
        raise ValueError("stack_operators needs at least one operator")
    first = ops[0]
    if any(op.wires != first.wires for op in ops[1:]):
        raise ValueError(f"every stacked operator must act on the wires {first.names}, in that order")
    matrix = first.matrix[None] if len(ops) == 1 else np.array([op.matrix for op in ops])
    return OperatorStack(first.wires, matrix.reshape(tuple(shape) + first.matrix.shape))


def _side_wires(wire_tuples, side: str) -> dict[str, int]:
    wires: dict[str, int] = {}
    for w in itertools.chain.from_iterable(wire_tuples):
        if w.name in wires:
            raise ValueError(f"wire {w.name!r} appears twice among {side}")
        wires[w.name] = w.dim
    return wires


@functools.lru_cache(maxsize=256)
def _plan(n_carriers: int, operands: tuple, batch: tuple | None) -> tuple:
    """Check and compile one operand signature of :func:`batched_trace`: (subscripts, tensor shapes, numpy's
    path as pairs, False for a lone tensor, the runner's steps, workspace entries). A failed check is not cached."""
    carrier_wires = _side_wires([wires for _, parts in operands[:n_carriers] for wires, _ in parts], "carriers")
    effect_wires = _side_wires([wires for _, parts in operands[n_carriers:] for wires, _ in parts], "effects")
    unmet = sorted(set(carrier_wires) - set(effect_wires))
    if unmet:
        raise ValueError(f"carrier wires {unmet} meet no effect")
    if any(effect_wires[name] != dim for name, dim in carrier_wires.items()):
        raise ValueError("carrier/effect wire dimensions differ")
    # A kron sum's batch axes are its parts' own, not the shared term axis.
    shapes = [tuple(n for _, s in parts for n in s[:-3]) if kron else parts[0][1][:-2] for kron, parts in operands]
    batch = [[(k, i) for i in range(len(s))] for k, s in enumerate(shapes)] if batch is None else batch
    lengths: dict = {}  # label -> axis length, in order of first use
    for labels, shape in zip(batch, shapes, strict=True):
        for label, n in zip(labels, shape, strict=True):
            if lengths.setdefault(label, n) != n:
                raise ValueError(f"batch label {label!r} ties axes of lengths {lengths[label]} and {n}")
    wires = {**carrier_wires, **effect_wires}  # carrier order, then the open wires
    needed = 2 * len(wires) + len(lengths) + sum(kron for kron, _ in operands)
    if needed > len(_LETTERS):
        raise ValueError(f"the contraction needs {needed} subscript letters; einsum has {len(_LETTERS)}")
    letters = iter(_LETTERS)
    row = {name: next(letters) for name in wires}
    col = {name: next(letters) for name in wires}
    axis = dict(zip(lengths, letters))  # label -> einsum letter
    subs, tensor_shapes, sizes = [], [], {}
    for k, ((kron, parts), labels) in enumerate(zip(operands, batch)):
        # Tr[S M] = S_rc M_cr: effect factors are indexed column-first.
        first, second = (row, col) if k < n_carriers else (col, row)
        # A kron sum's parts share its term axis, which is summed.
        term, labels = next(letters) if kron else "", iter(labels)
        for part_wires, shape in parts:
            names = [w.name for w in part_wires]
            lead = "".join(axis[label] for label in itertools.islice(labels, len(shape) - 2 - len(term)))
            subs.append(lead + term + "".join(first[n] for n in names) + "".join(second[n] for n in names))
            tensor_shapes.append(shape[:-2] + 2 * tuple(w.dim for w in part_wires))
            sizes.update(zip(subs[-1], tensor_shapes[-1]))
    # An open wire keeps the effect's own row, col[n], and column, row[n].
    open_wires = list(wires)[len(carrier_wires) :]
    out = "".join([*axis.values(), *(col[n] for n in open_wires), *(row[n] for n in open_wires)])
    subscripts = ",".join(subs) + "->" + out
    blanks = [np.broadcast_to(np.zeros((), dtype=np.complex128), s) for s in tensor_shapes]
    steps, size = _steps(subs, out, sizes, np.einsum_path(subscripts, *blanks, optimize="greedy")[0])
    return subscripts, tuple(tensor_shapes), bool(steps) and ["einsum_path", *(s[0] for s in steps)], steps, size


def _steps(terms: list, out: str, sizes: dict, path: list) -> tuple:
    """(steps, workspace entries) that replay numpy's pairwise executor, ``bmm_einsum``, along ``path``,
    a k-operand step as k-1 pairs, the two highest positions first so that the rest keep theirs. The bits
    are numpy's only because this mirrors it: a step pops the higher position first, orders its product's
    axes by (length, letter), drops axes of length 1 and lays each side out, by np.copyto if that only permutes
    and drops length-1 axes, else by one einsum copy, as (batch, kept, contracted) and (batch, contracted, kept)
    for a matmul, or in the product's axis order for a multiply."""
    steps = []
    for group in map(sorted, path[1:]):
        for _ in group[1:]:  # each product goes last, so it is one of the group's next two highest
            inds = group.pop(), group.pop()
            a, b = (terms.pop(i) for i in inds)
            res = "".join(sorted(set(a + b) & set(out).union(*terms), key=lambda ix: (sizes[ix], ix))) if terms else out
            left, right = ([ix for ix in dict.fromkeys(t) if sizes[ix] > 1] for t in (a, b))
            bat, con = ([ix for ix in left if ix in right and (ix in res) == kept] for kept in (True, False))
            a_keep, b_keep = ([ix for ix in s if ix not in o and ix in res] for s, o in ((left, right), (right, left)))
            sides, top = [], 0  # (copy's einsum or False, its workspace span and shape, fused shape) per side
            for term, groups in ((a, (bat, a_keep, con)), (b, (bat, con, b_keep))):
                if con:
                    want = "".join(itertools.chain(*groups))
                    fused = tuple(math.prod(map(sizes.get, g)) for g in groups[not bat :])
                else:  # nothing contracted: the product's axes, length 1 where this side lacks one
                    want = "".join(ix for ix in res if ix in term)
                    fused = tuple(sizes[ix] if ix in term else 1 for ix in res)
                span = slice(top, top + math.prod(map(sizes.get, want)) * (term != want))
                kept = [ix for ix in term if ix in want]  # a pure layout drops only length-1 axes, once each
                pure = len(kept) == len(want) and math.prod(map(sizes.get, term)) == math.prod(map(sizes.get, kept))
                layout = (tuple(map(sizes.get, kept)), tuple(map(kept.index, want))) if pure else f"{term}->{want}"
                sides.append((term != want and layout, span, tuple(map(sizes.get, want)), fused))
                top = span.stop
            made = [ix for ix in res if sizes[ix] == 1] + bat + a_keep + b_keep if con else list(res)
            shape, perm = tuple(map(sizes.get, made)), tuple(made.index(ix) for ix in res)
            steps.append((inds, tuple(sides), shape, perm, np.matmul if con else np.multiply))
            terms.append(res)
            group.append(len(terms) - 1)
    return tuple(steps), max((span.stop for step in steps for _, span, _, _ in step[1]), default=0)


_workspace = threading.local()  # .buf: this thread's complex128 buffer, reused by every run


def _run(plan: tuple, tensors: list) -> np.ndarray:
    """Execute a plan's steps, each side's copy in the workspace."""
    subscripts, _, _, steps, size = plan
    if not steps:  # a lone tensor contracts nothing: one einsum transposes or traces it
        return np.einsum(subscripts, *tensors)
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < size:
        _workspace.buf = buf = None  # drop the old buffer before the larger one is taken
        _workspace.buf = buf = np.empty(size, dtype=np.complex128)
    ops = list(tensors)
    for inds, sides, shape, perm, product in steps:
        pair = [ops.pop(i) for i in inds]
        for k, (copy, at, want, fused) in enumerate(sides):
            if isinstance(copy, str):  # a copy that sums or takes a diagonal
                pair[k] = np.einsum(copy, pair[k], out=buf[at].reshape(want))
            elif copy:
                np.copyto(dst := buf[at].reshape(want), pair[k].reshape(copy[0]).transpose(copy[1]))
                pair[k] = dst
            pair[k] = pair[k].reshape(fused)
        ops.append(product(*pair).reshape(shape).transpose(perm))
    return ops[0]


def batched_trace(
    carriers: Sequence[LabeledOperator | OperatorStack | KronSum],
    effects: Sequence[LabeledOperator | OperatorStack | KronSum],
    batch: Sequence[Sequence] | None = None,
) -> np.ndarray:
    """Tr[(kron of carriers) @ (kron of effects)] for every choice of stack entries.

    Each wire name appears at most once on each side, and every carrier wire
    on the effect side too, with the same dimension. A wire that only the
    effects hold stays open: the result ends in the open wires' row axes,
    then their column axes, in effect order, so that this E satisfies
    ``Tr[rho E] == batched_trace([*carriers, rho], effects)``. A
    :class:`KronSum` has its parts' own batch axes; its shared term axis is
    summed. ``batch`` labels each operand's batch axes (carriers first),
    e.g. ``"xa"``; by default each axis has its own label. Axes with one
    label are tied, as einsum's repeated letters are: of one length, and
    only their diagonal is computed. The result's batch axes come one per
    label, in order of first use. No kron, nor a kron sum's dense form, is
    formed. The plan checks wires, tied lengths and that einsum's 52 subscript
    letters suffice once per signature, before any arithmetic, and the runner
    replays numpy's steps (module docstring).
    """
    kinds = [(isinstance(op, KronSum), op.parts if isinstance(op, KronSum) else (op,)) for op in (*carriers, *effects)]
    signature = tuple((kron, tuple((p.wires, p.matrix.shape) for p in parts)) for kron, parts in kinds)
    plan = _plan(len(carriers), signature, None if batch is None else tuple(map(tuple, batch)))
    return _run(plan, [p.matrix.reshape(s) for p, s in zip((p for _, parts in kinds for p in parts), plan[1])])


def conjugate_wires(op, u: np.ndarray, names: Iterable[str]):
    """U M U^dag for every stacked M, with U on the named wires and I elsewhere.

    ``u`` is indexed by the named wires in the operator's own wire order.
    Takes a :class:`LabeledOperator` or an :class:`OperatorStack` and returns
    the same type; a stack of unitaries, shaped batch + (D_u, D_u), gives a
    stack led by that batch. Adjacent named wires split each index into
    (left, t, right), so U is two broadcast matmuls on reshaped views, U on
    the rows and conj(U) on the columns; other wires are permuted together first.
    """
    targets = _positions(op, names)
    if not targets:
        raise ValueError("conjugate_wires needs at least one wire name")
    if targets != tuple(range(targets[0], targets[0] + len(targets))):
        named, rest = [op.names[i] for i in targets], [n for i, n in enumerate(op.names) if i not in targets]
        moved = permute_wires(op, rest[: targets[0]] + named + rest[targets[0] :])
        return permute_wires(conjugate_wires(moved, u, named), op.names)
    u = np.asarray(u, dtype=np.complex128)
    lead, batch, side = u.shape[:-2], op.matrix.shape[:-2], op.total_dim
    left, t = math.prod(op.dims[: targets[0]]), math.prod(op.dims[i] for i in targets)
    u = u.reshape((-1,) + (1,) * (len(batch) + 1) + u.shape[-2:])
    out = u @ op.matrix.reshape(batch + (left, t, side * side // (left * t)))  # rows
    out = u.conj() @ out.reshape((len(u),) + batch + (side * left, t, side // (left * t)))  # columns
    out = out.reshape(lead + op.matrix.shape)
    return OperatorStack(op.wires, out) if lead else type(op)(op.wires, out)


def dump_operator(op: LabeledOperator) -> str:
    """Serialize to the plain-text wire/matrix format.

    One ``wires:`` header line, then one line per matrix row, each entry
    ``%.17g%+.17gj`` (17 significant digits, so :func:`load_operator` reads
    back the same bits). Each row is one ``%`` format over that row's
    interleaved (re, im) floats, read from a float64 view of the matrix
    (copied first if it is not C-contiguous).
    """
    rows = np.ascontiguousarray(op.matrix).view(np.float64)
    row = " ".join(["%.17g%+.17gj"] * op.total_dim) + "\n"
    lines = ["wires: " + ",".join(f"{w.name}:{w.dim}" for w in op.wires) + "\n"]
    lines += [row % tuple(r.tolist()) for r in rows]
    return "".join(lines)


def _parse_wire_line(line: str) -> tuple[WireLabel, ...]:
    key, _, rest = line.partition(":")
    if key.strip() != "wires":
        raise ValueError(f"expected 'wires' header, got {line!r}")
    wires = []
    for item in rest.strip().split(","):
        name, _, dim = item.strip().rpartition(":")
        if not name or not re.fullmatch(r"\s*[+-]?\d+\s*", dim):  # what int() reads, bar underscores
            raise ValueError(f"malformed wire entry {item!r}")
        wires.append(WireLabel(name, int(dim)))
    return tuple(wires)


def load_operator(lines: Iterable[str]) -> LabeledOperator:
    """Inverse of :func:`dump_operator`, from the dump's lines, read once (a list or a generator);
    blank lines are skipped.

    Each row is parsed on its own by numpy's C tokenizer (``np.loadtxt``) and
    stored in the matrix as it is read, so the reader keeps no copy of the
    lines: beside the matrix it holds one line and its parsed row. Raises
    ValueError on a malformed dump or a non-finite matrix entry; an
    unreadable row is named.
    """
    rows = (ln for ln in lines if ln.strip())
    header = next(rows, None)
    if header is None:
        raise ValueError("empty operator dump")
    wires = _parse_wire_line(header)
    dim = OperatorStack.total_dim_of(wires)
    matrix, widths, bad, n = None, set(), None, 0
    for n, row in enumerate(rows, 1):
        if n > dim:
            continue  # only counted
        try:
            entries = np.loadtxt([row], dtype=np.complex128, comments=None, ndmin=2)
        except ValueError:
            entries = None
        widths.add(width := None if entries is None else entries.shape[1])
        if width == dim:  # the matrix is taken at the first full row, not on the header's word alone
            matrix = np.empty((dim, dim), dtype=np.complex128) if matrix is None else matrix
            matrix[n - 1] = entries[0]
        elif not bad:
            bad = f"matrix row {n}: expected {dim} entries per row, found {width}" if width else (
                f"matrix row {n} has an entry that is not a complex number")
    if n != dim:
        raise ValueError(f"expected {dim} matrix rows, found {n}")
    if bad:  # rows that all read, at one width other than dim, name no row
        raise ValueError(f"expected {dim} entries per row, found {width}" if width and widths == {width} else bad)
    nonfinite = ~np.isfinite(matrix)
    if nonfinite.any():
        raise ValueError(f"matrix row {nonfinite.any(axis=1).argmax() + 1} has a non-finite entry")
    return LabeledOperator(wires, matrix)

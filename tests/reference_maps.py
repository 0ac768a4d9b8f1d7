"""Dense reference for the reduce-and-replace map, written with np.kron.

R_X(W) = Tr_X(W) (x) I_X / d_X is built the long way: move the wires of X
last with an explicit axis permutation, trace them with np.trace, kron a
normalized identity back on, and undo the permutation. The library never
forms this kron; these tests compare its reductions against it.
"""

from __future__ import annotations

from itertools import product

import numpy as np


def reference_replace(matrix: np.ndarray, dims: tuple[int, ...], traced: set[int]) -> np.ndarray:
    """R_X of ``matrix`` on wires of ``dims``, X given as wire positions."""
    n = len(dims)
    order = [i for i in range(n) if i not in traced] + sorted(traced)
    d_x = int(np.prod([dims[i] for i in traced], dtype=int))
    d_kept = matrix.shape[0] // d_x
    moved = matrix.reshape(dims + dims).transpose(order + [n + i for i in order])
    reduced = np.trace(moved.reshape(d_kept, d_x, d_kept, d_x), axis1=1, axis2=3)
    replaced = np.kron(reduced, np.eye(d_x) / d_x)
    back = list(np.argsort(order))
    moved_dims = tuple(dims[i] for i in order)
    return (
        replaced.reshape(moved_dims + moved_dims)
        .transpose(back + [n + i for i in back])
        .reshape(matrix.shape)
    )


def reference_residuals(proc) -> dict[str, dict[str, float]]:
    """Every validity and order residual of a bipartite process, from dense R_X."""
    w, dims, names = proc.op.matrix, proc.op.dims, proc.op.names
    a, b = proc.parties

    def r(*wires: str) -> np.ndarray:
        return reference_replace(w, dims, {names.index(x) for x in wires})

    def gap(x: np.ndarray, y: np.ndarray) -> float:
        return float(np.max(np.abs(x - y)))

    ai, ao, bi, bo = a.input_wire, a.output_wire, b.input_wire, b.output_wire
    return {
        "validity": {
            "normalization": abs(np.trace(w) - proc.output_dim),
            f"no signaling to {b.name}'s past": gap(r(ai, ao), r(ai, ao, bo)),
            f"no signaling to {a.name}'s past": gap(r(bi, bo), r(bi, bo, ao)),
            "affine closure": gap(w + r(ao, bo), r(ao) + r(bo)),
        },
        "A<B": {
            f"{b.name} output ignored": gap(w, r(bo)),
            f"{a.name} output flat once {b.name} is traced": gap(r(bi, bo), r(bi, bo, ao)),
        },
        "B<A": {
            f"{a.name} output ignored": gap(w, r(ao)),
            f"{b.name} output flat once {a.name} is traced": gap(r(ai, ao), r(ai, ao, bo)),
        },
        "no-signaling": {f"{a.name} output ignored": gap(w, r(ao)), f"{b.name} output ignored": gap(w, r(bo))},
    }


def reference_order(proc, order: str) -> dict[str, float]:
    """max|(1 - R_{O_k}) R_{labs after k} W| for each party k of the chain ``order``
    (``A<B<C``; ``no-signaling`` puts every party last), any number of parties, from dense R_X."""
    w, dims, names = proc.op.matrix, proc.op.dims, proc.op.names
    chain = [p.name for p in proc.parties] if order == "no-signaling" else order.split("<")
    out = {}
    for k, name in enumerate(chain):
        later = [] if order == "no-signaling" else [proc.party(n) for n in chain[k + 1 :]]
        m = reference_replace(w, dims, {names.index(x) for p in later for x in (p.input_wire, p.output_wire)})
        m = m - reference_replace(m, dims, {names.index(proc.party(name).output_wire)})
        traced = f"flat once {' and '.join(p.name for p in later)} {'is' if len(later) == 1 else 'are'} traced"
        out[f"{name} output {traced if later else 'ignored'}"] = float(np.max(np.abs(m)))
    return out


def reference_components(proc) -> dict[str, float]:
    """max|prod_{i in S} (1 - R_{O_i}) prod_{i not in S} R_{I_i O_i} W| for every nonempty
    set S of parties, any number of them, applying one dense factor at a time."""
    w, dims, names = proc.op.matrix, proc.op.dims, proc.op.names

    def r(matrix: np.ndarray, *wires: str) -> np.ndarray:
        return reference_replace(matrix, dims, {names.index(x) for x in wires})

    out = {}
    for kept in product((False, True), repeat=len(proc.parties)):
        if not any(kept):
            continue
        m = w
        for keep, p in zip(kept, proc.parties):
            m = m - r(m, p.output_wire) if keep else r(m, p.input_wire, p.output_wire)
        s = [p.name for keep, p in zip(kept, proc.parties) if keep]
        out["affine closure" if all(kept) else f"no signaling to {' and '.join(s)}'s past"] = float(np.max(np.abs(m)))
    return out

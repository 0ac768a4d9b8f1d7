"""Seeded generators for random states, channels, instruments, and strategies.

Random processes are convex mixtures of families known to satisfy the
validity constraints exactly (fixed-order channel processes both ways, a
shared-input-state process, and at qubit dimension the causally indefinite
reference process), so sampled processes are valid by construction and any
validation failure flags a library bug rather than a bad sample.
"""

from __future__ import annotations

import numpy as np

from .games import GameStrategy, PartyArm
from .instruments import Instrument
from .processes import (
    ProcessMatrix,
    build_cyril,
    channel_process,
    lab_wires,
    shared_state_process,
)
from .tensor import LabeledOperator, WireLabel


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def _random_cptp(rng: np.random.Generator, d_in: int, d_out: int, n: int) -> list[np.ndarray]:
    """Choi operators of ``n`` random CP maps, wire order (in, out), rescaled
    by (marg^-1/2 (x) I) so that their sum is trace preserving."""
    dim = d_in * d_out
    blocks = []
    for _ in range(n):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        blocks.append(g @ g.conj().T)
    marg = sum(blocks).reshape(d_in, d_out, d_in, d_out).trace(axis1=1, axis2=3)
    vals, vecs = np.linalg.eigh(marg)
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    scale = np.kron(inv_sqrt, np.eye(d_out))
    return [scale @ b @ scale.conj().T for b in blocks]


def random_channel_choi(rng: np.random.Generator, d_in: int, d_out: int) -> np.ndarray:
    """Choi operator of a random CPTP map, wire order (in, out)."""
    return _random_cptp(rng, d_in, d_out, 1)[0]


def random_instrument(
    rng: np.random.Generator,
    input_wires: tuple[WireLabel, ...],
    output_wires: tuple[WireLabel, ...],
    n_outcomes: int,
) -> Instrument:
    """Random CP branches rescaled so the sum is exactly trace preserving."""
    wires = input_wires + output_wires
    d_in, d_out = LabeledOperator.total_dim_of(input_wires), LabeledOperator.total_dim_of(output_wires)
    ops = tuple(LabeledOperator(wires, b) for b in _random_cptp(rng, d_in, d_out, n_outcomes))
    return Instrument(ops, tuple(w.name for w in output_wires))


def random_process(rng: np.random.Generator, d: int = 2) -> ProcessMatrix:
    """Convex mixture of valid processes on the four standard wires."""
    components = [
        channel_process(random_density(rng, d), random_channel_choi(rng, d, d), "A<B"),
        channel_process(random_density(rng, d), random_channel_choi(rng, d, d), "B<A"),
        shared_state_process(random_density(rng, d * d)),
    ]
    if d == 2:
        components.append(build_cyril())
    weights = rng.dirichlet(np.ones(len(components)))
    mat = sum(w * c.op.matrix for w, c in zip(weights, components))
    first = components[0]
    return ProcessMatrix(LabeledOperator(first.op.wires, mat), first.parties)


def random_gyni_strategy(rng: np.random.Generator, d: int = 2) -> GameStrategy:
    """Random valid process and a random d-outcome instrument per input."""
    process = random_process(rng, d)
    arms = [PartyArm(tuple(random_instrument(rng, (i,), (o,), d) for _ in range(d))) for i, o in lab_wires(d)]
    return GameStrategy(process, tuple(arms))


def random_dr_strategy(rng: np.random.Generator, d: int = 2) -> GameStrategy:
    """Random retrieval strategy: each party reads its code wire and lab input."""
    process = random_process(rng, d)
    arms = [
        PartyArm((random_instrument(rng, (WireLabel(name, d), i), (o,), d),))
        for name, (i, o) in zip(("A", "B"), lab_wires(d))
    ]
    return GameStrategy(process, tuple(arms))

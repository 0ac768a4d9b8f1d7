"""Bipartite process matrices: validity, causal order, and the PPT cut.

A process matrix W lives on the four party wires (two input wires, two output
wires) plus any ancillary state wires appended later. Probabilities come from
direct contraction, P = Tr[W (M_A (x) M_B)], so validity is:

* W is positive semidefinite,
* Tr W equals the product D_out of the output dimensions,
* the reduced-and-replaced combinations below hold, writing
  R_X W = Tr_X(W) (x) I_X / d_X (:func:`causalkit.tensor.add_replaced`):

  1. R_{A_I A_O} W = R_{A_I A_O B_O} W          ("no signaling to B's past")
  2. R_{B_I B_O} W = R_{B_I B_O A_O} W          ("no signaling to A's past")
  3. W + R_{A_O B_O} W = R_{A_O} W + R_{B_O} W  ("affine closure")

With the normalization these are equivalent to the usual projective
characterization; each is reported with its max-abs residual so a failure
names the violated condition.

Each residual is taken on the smallest tensor that determines it; none forms
a kron or permutes wires. Conditions 1, 2 and the second condition of a fixed
order compare R_X W with R_{X+o} W = R_X R_o W. Their difference,
(Tr_X W - R_o Tr_X W) (x) I_X / d_X, only repeats the entries of the reduced
operator Tr_X W, so the residual is taken there and divided by d_X. The rest
involve W itself: each R_X term is added into one copy of W, in place on the
block where it is nonzero (:func:`causalkit.tensor.add_replaced`).

Constructors check their inputs at ``DEFAULT_TOL`` and raise on a violation;
the ``tol`` of a check sets only its verdict.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .tensor import (
    DEFAULT_TOL,
    LabeledOperator,
    WireLabel,
    _find_wire,
    add_replaced,
    dump_operator,
    hermiticity_defect,
    identity_operator,
    kron,
    load_operator,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    permute_wires,
)

ORDER_TOKENS = ("A<B", "B<A", "no-signaling")


@dataclass(frozen=True)
class PartySlot:
    """One party's wires: a classical-input-conditioned lab with in/out wires."""

    name: str
    input_wire: str
    output_wire: str
    extra_wires: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (self.name and all(self.all_wires)):
            raise ValueError(f"party entry '{self.name}=({','.join(self.all_wires)})' has an empty party or wire name")

    @property
    def all_wires(self) -> tuple[str, ...]:
        return (self.input_wire, self.output_wire) + self.extra_wires


@dataclass(frozen=True)
class ProcessMatrix:
    """A process operator, kept as tensor factors, plus the party slots acting on it.

    ``factors`` is one :class:`LabeledOperator` or a tuple of them on
    disjoint wires; the process is their kron, in order. Adjoined ancilla
    states stay separate factors (see :func:`extend_with_state`), so game
    contractions never form the joint operator. :attr:`op` is the dense
    view for checks that need one; it is built on each read, and for a
    one-factor process it is that factor itself.
    """

    factors: tuple[LabeledOperator, ...]
    parties: tuple[PartySlot, ...]

    def __post_init__(self) -> None:
        factors = self.factors
        if isinstance(factors, LabeledOperator):
            factors = (factors,)
        object.__setattr__(self, "factors", tuple(factors))
        object.__setattr__(self, "parties", tuple(self.parties))
        if not self.factors:
            raise ValueError("a process needs at least one factor")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"process factors share wires: {self.names}")
        names = [p.name for p in self.parties]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate party names {names}")
        claimed: list[str] = []
        for p in self.parties:
            claimed.extend(p.all_wires)
        if len(set(claimed)) != len(claimed):
            raise ValueError("parties claim overlapping wires")
        missing = set(claimed) - set(self.names)
        if missing:
            raise ValueError(f"party wires {sorted(missing)} absent from operator")
        object.__setattr__(self, "_unassigned", tuple(n for n in self.names if n not in set(claimed)))

    @property
    def op(self) -> LabeledOperator:
        """The dense process operator, the kron of the factors."""
        return self.factors[0] if len(self.factors) == 1 else kron(*self.factors)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for f in self.factors for n in f.names)

    def wire(self, name: str) -> WireLabel:
        return _find_wire([w for f in self.factors for w in f.wires], name)

    @property
    def unassigned_wires(self) -> tuple[str, ...]:
        return self._unassigned  # type: ignore[attr-defined]

    def party(self, name: str) -> PartySlot:
        for p in self.parties:
            if p.name == name:
                return p
        raise KeyError(f"no party {name!r}; have {[p.name for p in self.parties]}")

    @property
    def output_dim(self) -> int:
        return LabeledOperator.total_dim_of(self.wire(p.output_wire) for p in self.parties)

    @functools.cached_property
    def hermiticity(self) -> float:
        """max|W - W^dagger|, kept on the instance after the first read.

        A partial transpose only permutes the entries of W - W^dagger, so
        every cut of W has this defect too, to the bit.
        """
        return hermiticity_defect(self.op)

    @functools.cached_property
    def _cut_spectrum(self) -> tuple[float, float]:
        """(Hermiticity defect, min eigenvalue of the symmetrized matrix) of W
        with the first party's wires transposed, whatever the defect; kept
        on the instance after the first read (see :func:`is_ppt_cut`)."""
        pt = partial_transpose(self.op, set(self.parties[0].all_wires))
        return self.hermiticity, min_eigenvalue(pt, math.inf, self.hermiticity)


@dataclass(frozen=True)
class ValidityReport:
    """Validity residuals, absolute, and the scale max|W_ij| that relates them to W."""

    psd_ok: bool
    min_eig: float
    hermiticity: float
    constraint_residuals: tuple[tuple[str, float], ...]
    scale: float
    tolerance: float = DEFAULT_TOL

    @property
    def valid(self) -> bool:
        return self.psd_ok and all(r <= self.tolerance for _, r in self.constraint_residuals)

    @property
    def relative_residuals(self) -> tuple[tuple[str, float], ...]:
        """Each residual over :attr:`scale` (nan for W = 0); :attr:`valid` stays absolute."""
        return tuple((k, r / self.scale if self.scale else float("nan")) for k, r in self.constraint_residuals)

    def residual(self, name: str) -> float:
        for key, value in self.constraint_residuals:
            if key == name:
                return value
        raise KeyError(name)


@dataclass(frozen=True)
class OrderReport:
    order: str
    residuals: tuple[tuple[str, float], ...]
    tolerance: float = DEFAULT_TOL

    @property
    def compatible(self) -> bool:
        return all(r <= self.tolerance for _, r in self.residuals)


def _residual(op: LabeledOperator, *terms: tuple[float, set[str]]) -> float:
    """Max-abs entry of op + sum_k c_k R_{X_k} op, over the terms (c_k, X_k)."""
    out = op.as_tensor().copy()
    for coeff, wires in terms:
        add_replaced(out, op, wires, coeff)
    return float(np.max(np.abs(out)))


def _flat_once_traced(op: LabeledOperator, traced: set[str], wire: str) -> float:
    """max|R_X op - R_{X+wire} op|, taken on Tr_X op (see the module docstring)."""
    reduced = partial_trace(op, traced)
    return _residual(reduced, (-1.0, {wire})) / (op.total_dim // reduced.total_dim)


def _require_bipartite(proc: ProcessMatrix) -> tuple[PartySlot, PartySlot]:
    if len(proc.parties) != 2:
        raise ValueError(f"expected a bipartite process, got {len(proc.parties)} parties")
    return proc.parties[0], proc.parties[1]


def validate_process(proc: ProcessMatrix, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Check positivity, normalization, and the three reduction constraints.

    Structural problems (wrong party count, missing wires) raise before any
    numerics run; numerical violations land in the report instead.
    """
    pa, pb = _require_bipartite(proc)
    w = proc.op
    herm = proc.hermiticity
    scale = float(np.max(np.abs(w.matrix)))
    if herm > tol:
        return ValidityReport(False, float("nan"), herm, (("hermiticity", herm),), scale, tol)
    mineig = min_eigenvalue(w, tol, defect=herm)
    trace_resid = float(abs(complex(np.trace(w.matrix)) - proc.output_dim))
    ao, bo = pa.output_wire, pb.output_wire
    return ValidityReport(
        psd_ok=mineig >= -tol,
        min_eig=mineig,
        hermiticity=herm,
        constraint_residuals=(
            ("normalization", trace_resid),
            (f"no signaling to {pb.name}'s past", _flat_once_traced(w, {pa.input_wire, ao}, bo)),
            (f"no signaling to {pa.name}'s past", _flat_once_traced(w, {pb.input_wire, bo}, ao)),
            ("affine closure", _residual(w, (-1.0, {ao}), (-1.0, {bo}), (1.0, {ao, bo}))),
        ),
        scale=scale,
        tolerance=tol,
    )


def check_order(proc: ProcessMatrix, order: str, tol: float = DEFAULT_TOL) -> OrderReport:
    """Test compatibility with a fixed signaling direction (or none).

    ``A<B`` means the first party cannot receive from the second: W ignores
    the second output, and the reduction over the second lab is flat on the
    first output. ``B<A`` mirrors it; ``no-signaling`` forbids both outputs
    from mattering.
    """
    pa, pb = _require_bipartite(proc)
    if order not in ORDER_TOKENS:
        raise ValueError(f"unknown order token {order!r}; expected one of {ORDER_TOKENS}")
    w = proc.op
    if order == "no-signaling":
        resid = _residual(w, (-1.0, {pa.output_wire, pb.output_wire}))
        return OrderReport(order, (("outputs ignored", resid),), tol)
    first, second = (pa, pb) if order == "A<B" else (pb, pa)
    r1 = _residual(w, (-1.0, {second.output_wire}))
    r2 = _flat_once_traced(w, {second.input_wire, second.output_wire}, first.output_wire)
    return OrderReport(
        order,
        (
            (f"{second.name} output ignored", r1),
            (f"{first.name} output flat once {second.name} is traced", r2),
        ),
        tol,
    )


def is_ppt_cut(proc: ProcessMatrix, side: str, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Partial transpose across the party cut; returns (is PPT, min eigenvalue).

    ``side`` is a party name; its wires (including assigned ancilla wires) are
    transposed. Unassigned ancilla wires make the cut ambiguous and raise. A
    transposed matrix that is not Hermitian within ``tol`` is not PPT and has
    no spectrum to report: (False, nan), as in :func:`validate_process`.

    Both sides of the cut share one spectrum: with every wire assigned,
    W^{T_B} is the full transpose of W^{T_A}, so the two have the same
    eigenvalues and the same Hermiticity defect. The spectrum is computed
    once per process, always transposing the first party's wires, and kept
    on the process as two floats; ``tol`` only decides the verdict.
    """
    _require_bipartite(proc)
    proc.party(side)  # an unknown side raises KeyError
    if proc.unassigned_wires:
        raise ValueError(
            f"wires {proc.unassigned_wires} are not assigned to a party; cut is ambiguous"
        )
    defect, mineig = proc._cut_spectrum
    if defect > tol:
        return (False, float("nan"))
    return (mineig >= -tol, mineig)


# ---------------------------------------------------------------------------
# Constructors

_SZ = np.diag([1.0, -1.0]).astype(complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

# The two labs of every built-in process; their wires, in this order, are
# (A_I, A_O, B_I, B_O) (Oreshkov, Costa & Brukner, arXiv:1105.4464).
PARTIES = (PartySlot("A", "A_I", "A_O"), PartySlot("B", "B_I", "B_O"))


def lab_wires(d: int) -> tuple[tuple[WireLabel, WireLabel], ...]:
    """Each party's (input, output) wire of :data:`PARTIES`, of dimension d."""
    return tuple((WireLabel(p.input_wire, d), WireLabel(p.output_wire, d)) for p in PARTIES)


def party_process(*factors: LabeledOperator) -> ProcessMatrix:
    """The process W = kron(factors), its wires put in :data:`PARTIES` order."""
    w = permute_wires(kron(*factors), [n for p in PARTIES for n in p.all_wires])
    return ProcessMatrix(w, PARTIES)


def build_cyril() -> ProcessMatrix:
    """The two-party qubit process with no definite causal order.

    W = (1/4)[I + (Z Z Z I + Z I X X)/sqrt(2)] on wires (A_I, A_O, B_I, B_O).
    Both Pauli strings anticommute, so the spectrum is {0, 1/2} and W is PSD.
    """
    eye = np.eye(2, dtype=complex)
    term1 = np.kron(np.kron(_SZ, _SZ), np.kron(_SZ, eye))
    term2 = np.kron(np.kron(_SZ, eye), np.kron(_SX, _SX))
    mat = (np.eye(16, dtype=complex) + (term1 + term2) / np.sqrt(2)) / 4
    return party_process(LabeledOperator(sum(lab_wires(2), ()), mat))


def verify_cyril_separable_decomposition() -> float:
    """Rebuild :func:`build_cyril` from eight product terms; return the residual.

    Each term is (1/2) P (x) P (x) P (x) P with rank-1 projectors onto Z, X,
    and the two diagonal directions (Z±X)/sqrt2. Every factor is PSD, so an
    exact reconstruction certifies separability across all four wires.
    """
    r2 = np.sqrt(2)
    eye = np.eye(2, dtype=complex)
    pz = {+1: (eye + _SZ) / 2, -1: (eye - _SZ) / 2}
    px = {+1: (eye + _SX) / 2, -1: (eye - _SX) / 2}
    pa = {+1: (eye + (_SZ + _SX) / r2) / 2, -1: (eye - (_SZ + _SX) / r2) / 2}
    pb = {+1: (eye + (_SZ - _SX) / r2) / 2, -1: (eye - (_SZ - _SX) / r2) / 2}
    terms = [
        (+1, +1, pa, +1, +1),
        (-1, +1, pa, -1, +1),
        (+1, +1, pb, +1, -1),
        (-1, +1, pb, -1, -1),
        (+1, -1, pb, -1, +1),
        (-1, -1, pb, +1, +1),
        (+1, -1, pa, -1, -1),
        (-1, -1, pa, +1, -1),
    ]
    acc = np.zeros((16, 16), dtype=complex)
    for s1, s2, mid, sm, s4 in terms:
        factors = (pz[s1], pz[s2], mid[sm], px[s4])
        for f in factors:
            if np.linalg.eigvalsh(f)[0] < -1e-12:
                raise AssertionError("decomposition factor is not PSD")
        term = np.kron(np.kron(factors[0], factors[1]), np.kron(factors[2], factors[3]))
        if abs(np.trace(term) - 1.0) > 1e-12:
            raise AssertionError("decomposition term trace is not 1")
        acc += 0.5 * term
    return float(np.max(np.abs(acc - build_cyril().op.matrix)))


def maximally_mixed_process(d: int = 2) -> ProcessMatrix:
    """The fully uninformative process: the shared-state process of I/d^2."""
    return shared_state_process(np.eye(d * d) / d**2)


def shared_state_process(rho: np.ndarray) -> ProcessMatrix:
    """No-signaling process handing the parties a joint input state.

    ``rho`` is a density matrix on (A_I, B_I), of side d^2 for wires of
    dimension d; outputs are discarded, which shows up as identity factors
    on both output wires.
    """
    rho = np.asarray(rho, dtype=complex)
    (ai, ao), (bi, bo) = lab_wires(math.isqrt(rho.shape[0]))
    return party_process(LabeledOperator((ai, bi), rho), identity_operator((ao, bo)))


def channel_process(rho_in: np.ndarray, channel_choi: np.ndarray, direction: str = "A<B") -> ProcessMatrix:
    """Definite-order process: a state into the first lab, a channel to the second.

    For ``A<B``: W = rho_{A_I} (x) C_{A_O B_I} (x) I_{B_O}, with ``channel_choi``
    the Choi operator of the channel from the first party's output to the
    second party's input (trace-preserving: its A_O reduction is the identity).
    Every wire has the dimension d of the d x d state ``rho_in``.
    """
    if direction not in ORDER_TOKENS[:2]:
        raise ValueError(f"channel_process needs a signaling direction, A<B or B<A, got {direction!r}")
    rho_in = np.asarray(rho_in, dtype=complex)
    labs = lab_wires(rho_in.shape[0])
    (first_in, first_out), (second_in, second_out) = labs if direction == "A<B" else labs[::-1]
    return party_process(
        LabeledOperator((first_in,), rho_in),
        LabeledOperator((first_out, second_in), np.asarray(channel_choi, dtype=complex)),
        identity_operator((second_out,)),
    )


def extend_with_state(
    proc: ProcessMatrix, state: LabeledOperator, assign: Mapping[str, str] | None = None
) -> ProcessMatrix:
    """Adjoin an ancillary quantum state on fresh wires.

    ``state`` must be a density operator (PSD, unit trace within
    ``DEFAULT_TOL``) on wires disjoint from the process. ``assign`` maps each
    new wire to a party name so later cut-based checks know which side the
    wire belongs to; an unknown wire or party raises. The state becomes one
    more factor of the returned process; W (x) state is never formed unless
    :attr:`ProcessMatrix.op` is read.
    """
    clash = set(state.names) & set(proc.names)
    if clash:
        raise ValueError(f"state wires {sorted(clash)} already used by the process")
    if abs(complex(np.trace(state.matrix)) - 1.0) > DEFAULT_TOL:
        raise ValueError("state is not normalized (trace != 1)")
    defect = hermiticity_defect(state)
    if defect > DEFAULT_TOL or min_eigenvalue(state, DEFAULT_TOL, defect) < -DEFAULT_TOL:
        raise ValueError("state is not positive semidefinite")
    assign = dict(assign or {})
    unknown = set(assign) - set(state.names)
    if unknown:
        raise ValueError(f"assignment mentions unknown wires {sorted(unknown)}")
    party_names = [p.name for p in proc.parties]
    strangers = set(assign.values()) - set(party_names)
    if strangers:
        raise ValueError(f"assignment names unknown parties {sorted(strangers)}; process has {party_names}")
    parties = tuple(
        replace(p, extra_wires=p.extra_wires + tuple(w for w in state.names if assign.get(w) == p.name))
        for p in proc.parties
    )
    return ProcessMatrix(proc.factors + (state,), parties)


# ---------------------------------------------------------------------------
# Serialization

def dump_process(proc: ProcessMatrix) -> str:
    parts = ";".join(
        f"{p.name}=({','.join(p.all_wires)})" for p in proc.parties
    )
    return f"parties: {parts}\n" + dump_operator(proc.op)


def load_process(text: str) -> ProcessMatrix:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("parties:"):
        raise ValueError("process dump must start with a 'parties:' header")
    header = lines[0][len("parties:") :].strip()
    parties = []
    for chunk in header.split(";"):
        name, _, rest = chunk.partition("=")
        rest = rest.strip()
        if not (rest.startswith("(") and rest.endswith(")")):
            raise ValueError(f"malformed party entry {chunk!r}")
        wires = tuple(w.strip() for w in rest[1:-1].split(","))
        if len(wires) < 2:
            raise ValueError(f"party {name!r} needs at least input and output wires")
        parties.append(PartySlot(name.strip(), wires[0], wires[1], tuple(wires[2:])))
    op = load_operator(lines[1:])
    return ProcessMatrix(op, tuple(parties))

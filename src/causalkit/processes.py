"""Process matrices of any number of parties: validity and causal order; two-party PPT cut.

A process matrix W lives on each party's input and output wires plus any
ancillary state wires appended later. Probabilities come from direct
contraction, P = Tr[W (M_A (x) M_B (x) ...)], so validity is:

* W is positive semidefinite,
* Tr W equals the product D_out of the output dimensions,
* each orthogonal component of 1 - L_V vanishes on W. Writing
  R_X W = Tr_X(W) (x) I_X / d_X, 1 - L_V is the sum over nonempty party sets
  S of prod_{i in S} (1 - R_{O_i}) prod_{i not in S} R_{I_i O_i} (Araujo et
  al., NJP 17, 102001, 2015; arXiv:1506.03776), named "no signaling to <S>'s
  past", or "affine closure" when S is every party. For two parties these are

  1. R_{A_I A_O} W = R_{A_I A_O B_O} W          ("no signaling to B's past")
  2. R_{B_I B_O} W = R_{B_I B_O A_O} W          ("no signaling to A's past")
  3. W + R_{A_O B_O} W = R_{A_O} W + R_{B_O} W  ("affine closure")

A fixed order A_1 < ... < A_N holds when (1 - R_{O_k}) Tr_{labs after k} W = 0
for every k; no-signaling puts every party last: W = R_{O_k} W for every k.

Each is reported with its max-abs residual, so a failure names the violated
condition.

Each residual is taken on the smallest tensor that determines it; none forms
a kron or permutes wires. The component with the labs X traced is
(prod_o (1 - R_o) Tr_X W) (x) I_X / d_X, so its residual is taken on Tr_X W
and divided by d_X: the R_o terms of the product are added into one copy of
Tr_X W, in place on the block where each is nonzero
(:func:`causalkit.tensor.add_replaced`).

Constructors check their inputs at ``DEFAULT_TOL`` and raise on a violation;
the ``tol`` of a check, finite and >= 0, sets only its verdict.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .tensor import (
    DEFAULT_TOL,
    LabeledOperator,
    WireLabel,
    _check_tol,
    _find_wire,
    add_replaced,
    dump_operator,
    hermiticity_defect,
    identity_operator,
    kron,
    load_operator,
    min_eigenvalue,
    partial_trace,
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
    unassigned_wires: tuple[str, ...] = field(init=False)

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
        object.__setattr__(self, "unassigned_wires", tuple(n for n in self.names if n not in set(claimed)))

    @property
    def op(self) -> LabeledOperator:
        """The dense process operator, the kron of the factors."""
        return self.factors[0] if len(self.factors) == 1 else kron(*self.factors)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for f in self.factors for n in f.names)

    def wire(self, name: str) -> WireLabel:
        return _find_wire([w for f in self.factors for w in f.wires], name)

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
    def _cut_min_eig(self) -> float:
        """Min eigenvalue of the symmetrized W with the first party's wires transposed,
        whatever its Hermiticity defect; kept after the first read (see :func:`is_ppt_cut`)."""
        return min_eigenvalue(self.op, self.parties[0].all_wires)


@dataclass(frozen=True)
class ValidityReport:
    """Validity residuals, absolute, and the scale max|W_ij| that relates them to W."""

    min_eig: float
    hermiticity: float
    constraint_residuals: tuple[tuple[str, float], ...]
    scale: float
    tolerance: float

    @property
    def psd_ok(self) -> bool:
        return self.min_eig >= -self.tolerance  # False on the nan of a non-Hermitian W

    @property
    def valid(self) -> bool:
        return self.psd_ok and all(r <= self.tolerance for _, r in self.constraint_residuals)

    @property
    def relative_residuals(self) -> tuple[tuple[str, float], ...]:
        """Each residual over :attr:`scale` (nan for W = 0); :attr:`valid` stays absolute."""
        return tuple((k, r / self.scale if self.scale else float("nan")) for k, r in self.constraint_residuals)


@dataclass(frozen=True)
class OrderReport:
    order: str
    residuals: tuple[tuple[str, float], ...]
    tolerance: float

    @property
    def compatible(self) -> bool:
        return all(r <= self.tolerance for _, r in self.residuals)


def _flat(op: LabeledOperator, outputs: Sequence[str], traced: Iterable[str] = ()) -> float:
    """max|prod_{o in outputs} (1 - R_o) R_X op|, taken on Tr_X op (see the module docstring)."""
    reduced = partial_trace(op, traced)
    out = reduced.as_tensor().copy()
    for k in range(1, len(outputs) + 1):
        for s in itertools.combinations(outputs, k):
            add_replaced(out, reduced, s, (-1.0) ** k)
    return float(np.max(np.abs(out, out=out).real)) / (op.total_dim // reduced.total_dim)


def _require_bipartite(proc: ProcessMatrix) -> tuple[PartySlot, PartySlot]:
    if len(proc.parties) != 2:
        raise ValueError(f"expected a bipartite process, got {len(proc.parties)} parties")
    return proc.parties[0], proc.parties[1]


def validate_process(proc: ProcessMatrix, tol: float = DEFAULT_TOL) -> ValidityReport:
    """Check positivity, normalization, and the 2^N - 1 reduction constraints of N parties.

    With k = N - 1 down to 0 labs traced, each k-set of traced parties in
    party order (see the module docstring); violations land in the report.
    """
    _check_tol(tol)
    w = proc.op
    herm = proc.hermiticity
    scale = float(np.max(np.abs(w.matrix)))
    if herm > tol:
        return ValidityReport(float("nan"), herm, (("hermiticity", herm),), scale, tol)
    residuals = [("normalization", float(abs(complex(np.trace(w.matrix)) - proc.output_dim)))]
    for k in range(len(proc.parties) - 1, -1, -1):
        for traced in itertools.combinations(proc.parties, k):
            others = [p for p in proc.parties if p not in traced]
            name = f"no signaling to {' and '.join(p.name for p in others)}'s past" if traced else "affine closure"
            labs = {n for p in traced for n in (p.input_wire, p.output_wire)}
            residuals.append((name, _flat(w, [p.output_wire for p in others], labs)))
    return ValidityReport(min_eigenvalue(w), herm, tuple(residuals), scale, tol)


def check_order(proc: ProcessMatrix, order: str, tol: float = DEFAULT_TOL) -> OrderReport:
    """Test compatibility with a fixed causal order of the parties (or none).

    ``order`` names every party once, joined by ``<`` (``A<B``, ``B<A``,
    ``A<B<C``), or is ``no-signaling``, which puts every party last. Each
    party's output may matter only once the labs after it are traced:
    (1 - R_{O_k}) Tr_{labs after k} W = 0, one residual per party, last party
    first, named "X output ignored" when no lab comes after X.
    """
    _check_tol(tol)
    names = [p.name for p in proc.parties]
    chain = names if order == "no-signaling" else order.split("<")
    if sorted(chain) != sorted(names):
        raise ValueError(f"unknown order token {order!r}; expected parties {names} joined by '<' or 'no-signaling'")
    w, residuals = proc.op, []
    for k in reversed(range(len(chain))):
        party = proc.party(chain[k])
        later = [] if order == "no-signaling" else [proc.party(n) for n in chain[k + 1 :]]
        labs = {n for p in later for n in (p.input_wire, p.output_wire)}
        after = f"flat once {' and '.join(p.name for p in later)} {'is' if len(later) == 1 else 'are'} traced"
        residuals.append((f"{party.name} output {after if later else 'ignored'}", _flat(w, [party.output_wire], labs)))
    return OrderReport(order, tuple(residuals), tol)


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
    on the process beside its Hermiticity defect; ``tol`` only decides the verdict.
    """
    _check_tol(tol)
    _require_bipartite(proc)
    proc.party(side)  # an unknown side raises KeyError
    if proc.unassigned_wires:
        raise ValueError(
            f"wires {proc.unassigned_wires} are not assigned to a party; cut is ambiguous"
        )
    if proc.hermiticity > tol:
        return (False, float("nan"))
    return (proc._cut_min_eig >= -tol, proc._cut_min_eig)


# ---------------------------------------------------------------------------
# Constructors

# The single-qubit Paulis that the qubit built-ins are written in.
_PAULI = dict(zip("IXZ", np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]]], dtype=complex)))


def _pauli(word: str) -> np.ndarray:
    """The kron of the Paulis that ``word`` names, left to right: ``_pauli("ZIXX")`` = Z (x) I (x) X (x) X."""
    return functools.reduce(np.kron, (_PAULI[letter] for letter in word))


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

    W = (1/4)[I + (ZZZI + ZIXX)/sqrt(2)] on wires (A_I, A_O, B_I, B_O): the two
    Pauli words anticommute, so the spectrum is {0, 1/2} and W is PSD.
    """
    mat = (_pauli("IIII") + (_pauli("ZZZI") + _pauli("ZIXX")) / np.sqrt(2)) / 4
    return party_process(LabeledOperator(sum(lab_wires(2), ()), mat))


def verify_cyril_separable_decomposition() -> float:
    """Rebuild :func:`build_cyril` from eight product terms; return the residual.

    With P(a) = (I + a)/2, the term of signs (s1, s2, s4) in {+1, -1}^3 is
    (1/2) P(s1 Z) (x) P(s2 Z) (x) P(s1 s2 n) (x) P(s4 X), with n = (Z + X)/sqrt2
    if s2 = s4 and (Z - X)/sqrt2 otherwise. Every factor is a rank-1
    projector, so an exact rebuild of the words ZZZI and ZIXX certifies
    separability across all four wires. The residual is the largest of the
    rebuild's max-abs error and each factor's negative eigenvalue and trace error.
    """
    z, x = _pauli("Z"), _pauli("X")
    factors = np.array([
        [(_pauli("I") + a) / 2 for a in (s1 * z, s2 * z, s1 * s2 * (z + s2 * s4 * x) / np.sqrt(2), s4 * x)]
        for s1, s2, s4 in itertools.product((1, -1), repeat=3)
    ])
    rebuilt = sum(0.5 * functools.reduce(np.kron, term) for term in factors)
    traces = np.trace(factors, axis1=-2, axis2=-1)
    errors = (np.abs(rebuilt - build_cyril().op.matrix), -np.linalg.eigvalsh(factors), np.abs(traces - 1))
    return float(max(np.max(e) for e in errors))


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
    return party_process(_require_state(LabeledOperator((ai, bi), rho)), identity_operator((ao, bo)))


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
    state = _require_state(LabeledOperator((first_in,), rho_in))
    choi = LabeledOperator((first_out, second_in), np.asarray(channel_choi, dtype=complex))
    _require_state(choi, "channel Choi operator", first_out.dim)
    if np.max(np.abs(partial_trace(choi, {second_in.name}).matrix - np.eye(first_out.dim))) > DEFAULT_TOL:
        raise ValueError("channel is not trace preserving (Tr over the second input of its Choi operator != I)")
    return party_process(state, choi, identity_operator((second_out,)))


def _require_state(op: LabeledOperator, what: str = "state", trace: int = 1) -> LabeledOperator:
    """``op``; raises unless it is PSD with trace ``trace`` (by default, a density
    operator) within ``DEFAULT_TOL``."""
    if abs(complex(np.trace(op.matrix)) - trace) > DEFAULT_TOL:
        raise ValueError(f"{what} is not normalized (trace != {trace})")
    if hermiticity_defect(op) > DEFAULT_TOL or min_eigenvalue(op) < -DEFAULT_TOL:
        raise ValueError(f"{what} is not positive semidefinite")
    return op


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
    _require_state(state)
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
    # The lines of text.splitlines(), cut one at a time as load_operator reads them.
    lines = (line for piece in re.finditer(r".*\n?", text) for line in piece[0].splitlines())
    first = next(lines, "")
    if not first.startswith("parties:"):
        raise ValueError("process dump must start with a 'parties:' header")
    header = first[len("parties:") :].strip()
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
    op = load_operator(lines)
    return ProcessMatrix(op, tuple(parties))

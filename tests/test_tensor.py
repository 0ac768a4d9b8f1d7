"""Tests for the labeled-operator core.

Expected matrices and spectra in this file were derived by hand and are
frozen as literals; the library is never used to generate its own oracle.
"""

from __future__ import annotations

import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from causalkit.duality import gyni_to_dr
from causalkit.games import cyril_gyni_strategy
from causalkit.processes import build_cyril, extend_with_state, maximally_mixed_process
from causalkit.sampling import random_dr_strategy, random_instrument, random_process
from causalkit.tensor import (
    DEFAULT_TOL,
    KronSum,
    LabeledOperator,
    OperatorStack,
    WireLabel,
    add_replaced,
    batched_trace,
    conjugate_wires,
    dump_operator,
    hermiticity_defect,
    identity_operator,
    kron,
    load_operator,
    min_eigenvalue,
    partial_trace,
    permute_wires,
    stack_operators,
)
from reference_maps import reference_replace

SZ = np.diag([1.0, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
PHI_PLUS = 0.5 * np.array(
    [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex
)

A = WireLabel("A", 2)
B = WireLabel("B", 2)
C = WireLabel("C", 3)


def op(wires, matrix) -> LabeledOperator:
    return LabeledOperator(tuple(wires), np.asarray(matrix, dtype=complex))


def per_entry_dump(m: LabeledOperator) -> str:
    """The dump text built by formatting each numpy entry on its own."""
    lines = ["wires: " + ",".join(f"{w.name}:{w.dim}" for w in m.wires)]
    for r in range(m.total_dim):
        entries = (m.matrix[r, c] for c in range(m.total_dim))
        lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in entries))
    return "\n".join(lines) + "\n"


def replaced(m: LabeledOperator, wires_x) -> LabeledOperator:
    """R_X(m) = Tr_X(m) (x) I_X / d_X: add_replaced on a zero tensor."""
    out = np.zeros(m.dims + m.dims, dtype=complex)
    add_replaced(out, m, wires_x)
    return LabeledOperator(m.wires, out.reshape(m.matrix.shape))


def random_herm(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


class TestWireLabel:
    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            WireLabel("A", 1)

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            WireLabel("", 2)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            op([A, WireLabel("A", 2)], np.eye(4))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            op([A, B], np.eye(5))


class TestValueEquality:
    """Operators, and every record built from them, compare and hash by value."""

    @pytest.mark.parametrize(
        "build", [build_cyril, cyril_gyni_strategy, lambda: gyni_to_dr(cyril_gyni_strategy())],
        ids=["cyril", "cyril-strategy", "cyril-dual"],
    )
    def test_two_builds_are_equal(self, build):
        first, second = build(), build()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

    def test_values_differ(self):
        cyril = build_cyril()
        assert cyril != maximally_mixed_process()
        assert cyril.op != OperatorStack(cyril.op.wires, cyril.op.matrix)  # another type
        assert cyril.op != LabeledOperator(cyril.op.wires, 2 * cyril.op.matrix)

    def test_arm_is_in_its_strategy(self):
        strategy = cyril_gyni_strategy()
        assert all(arm in strategy.parties for arm in cyril_gyni_strategy().parties)
        assert len({arm.instruments[0] for arm in strategy.parties}) == 2


class TestKron:
    def test_sz_sx_frozen(self):
        # sigma_z (x) sigma_x, big-endian: |10> <-> index 2 picks up the -1.
        expected = np.array(
            [
                [0, 1, 0, 0],
                [1, 0, 0, 0],
                [0, 0, 0, -1],
                [0, 0, -1, 0],
            ],
            dtype=complex,
        )
        got = kron(op([A], SZ), op([B], SX))
        assert got.names == ("A", "B")
        np.testing.assert_allclose(got.matrix, expected, atol=0)

    def test_name_collision_rejected(self):
        with pytest.raises(ValueError):
            kron(op([A], SZ), op([A], SX))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        x = op([A], rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        y = op([B], rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        z = op([C], rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        left = kron(kron(x, y), z)
        right = kron(x, kron(y, z))
        assert left.names == right.names
        np.testing.assert_allclose(left.matrix, right.matrix, atol=1e-12)

    def test_variadic_is_the_left_fold_to_the_bit(self):
        rng = np.random.default_rng(7)
        x, y, z = (op([w], random_herm(rng, w.dim)) for w in (A, B, C))
        joint = kron(x, y, z)
        assert joint.names == ("A", "B", "C")
        np.testing.assert_array_equal(joint.matrix, np.kron(np.kron(x.matrix, y.matrix), z.matrix))
        np.testing.assert_array_equal(kron(x).matrix, x.matrix)

    def test_variadic_collision_and_empty_rejected(self):
        with pytest.raises(ValueError, match=r"share wires \['A'\]"):
            kron(op([A], SZ), op([B], SX), op([A], SX))
        with pytest.raises(ValueError, match="at least one operand"):
            kron()


class TestPartialTrace:
    def test_factorized_operand(self):
        rng = np.random.default_rng(7)
        x = random_herm(rng, 2)
        y = random_herm(rng, 3)
        joint = kron(op([A], x), op([C], y))
        reduced = partial_trace(joint, {"C"})
        assert reduced.names == ("A",)
        np.testing.assert_allclose(reduced.matrix, np.trace(y) * x, atol=1e-12)

    def test_full_trace_leaves_scalar(self):
        reduced = partial_trace(op([A, B], PHI_PLUS), {"A", "B"})
        assert reduced.wires == ()
        np.testing.assert_allclose(reduced.matrix, [[1.0]], atol=1e-12)

    def test_unknown_wire_rejected(self):
        with pytest.raises(KeyError):
            partial_trace(op([A], SZ), {"Q"})

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("traced", [{"X"}, {"Y"}, {"X", "Z"}, {"Y", "Z"}], ids=["X", "Y", "XZ", "YZ"])
    def test_stack_with_two_batch_axes(self, d, traced):
        wires = (WireLabel("X", d), WireLabel("Y", 2), WireLabel("Z", d))
        rng = np.random.default_rng(d)
        shape = (2, 3, 2 * d * d, 2 * d * d)
        stack = OperatorStack(wires, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        reduced = partial_trace(stack, traced)
        assert type(reduced) is OperatorStack
        assert reduced.names == tuple(n for n in ("X", "Y", "Z") if n not in traced)
        flat = stack.matrix.reshape((6,) + shape[2:])
        entries = [partial_trace(LabeledOperator(wires, m), traced).matrix for m in flat]
        np.testing.assert_array_equal(reduced.matrix, np.reshape(entries, reduced.matrix.shape))
        # Reference: trace each named wire's row and column axes with np.trace, last wire first.
        tensor = stack.matrix.reshape((2, 3) + stack.dims + stack.dims)
        for i in sorted((stack.names.index(n) for n in traced), reverse=True):
            n = (tensor.ndim - 2) // 2
            tensor = np.trace(tensor, axis1=2 + i, axis2=2 + n + i)
        np.testing.assert_allclose(reduced.matrix, tensor.reshape(reduced.matrix.shape), rtol=0, atol=1e-12)


def dense_transpose(m: OperatorStack, names) -> np.ndarray:
    """The stack with the named wires' row and column axes swapped, as a new dense array."""
    n, nb = len(m.wires), m.matrix.ndim - 2
    axes = list(range(nb + 2 * n))
    for i, name in enumerate(m.names):
        if name in names:
            axes[nb + i], axes[nb + n + i] = axes[nb + n + i], axes[nb + i]
    return np.ascontiguousarray(m.as_tensor().transpose(axes)).reshape(m.matrix.shape)


class TestPartialTranspose:
    """``min_eigenvalue(op, transposed)``: the spectrum of a partially transposed operator."""

    def test_phi_plus_spectrum_frozen(self):
        # PT of the maximally entangled qubit pair: eigenvalues {-1/2, 1/2 x3}, on either wire.
        phi = op([A, B], PHI_PLUS)
        assert min_eigenvalue(phi, {"B"}) == pytest.approx(-0.5, abs=1e-12)
        assert min_eigenvalue(phi, {"A"}) == pytest.approx(-0.5, abs=1e-12)
        assert min_eigenvalue(phi, {"A", "B"}) == pytest.approx(0.0, abs=1e-12)

    def test_cut_keeps_hermiticity_defect(self):
        # A partial transpose only permutes the entries of M - M^dag.
        rng = np.random.default_rng(11)
        m = op([A, C], rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        pt = op([A, C], dense_transpose(m, {"C"}))
        assert hermiticity_defect(pt) == hermiticity_defect(m) > 0.1
        assert np.trace(pt.matrix) == np.trace(m.matrix)

    def test_unknown_wire_rejected(self):
        with pytest.raises(KeyError, match="unknown wires"):
            min_eigenvalue(op([A, B], PHI_PLUS), {"Q"})


def _dense_checked(d: int) -> list[OperatorStack]:
    """Operators the dense checks see: a seeded process at d, one extended with a state
    (d = 2 only), the branch stacks of a retrieval strategy's instruments, and a stack
    with two batch axes."""
    rng = np.random.default_rng([33, d])
    proc = random_process(rng, d)
    ops = [proc.op]
    if d == 2:
        state = LabeledOperator((WireLabel("X", 2),), np.diag([0.25, 0.75]))
        ops.append(extend_with_state(proc, state, {"X": "A"}).op)
    for arm in random_dr_strategy(rng, d).parties:
        ops.append(OperatorStack(arm.instruments[0].wires, arm.instruments[0].terms.matrix))
    ins = random_instrument(rng, (WireLabel("I", d),), (WireLabel("O", d),), d)
    ops.append(OperatorStack(ins.wires, ins.terms.matrix[None].repeat(2, axis=0)))
    return ops


class TestScratchBitIdentity:
    """The one-buffer checks give the bits of the dense formulas, compared with ``==``."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_min_eigenvalue_of_every_cut(self, d):
        for m in _dense_checked(d):
            for k in range(len(m.wires) + 1):
                names = set(m.names[:k])
                pt = dense_transpose(m, names)
                sym = (pt + pt.conj().swapaxes(-1, -2)) / 2
                want = np.linalg.eigvalsh(sym)[..., 0]
                got = min_eigenvalue(m, names)
                assert np.asarray(got).tobytes() == want.tobytes(), (m.names, names)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_hermiticity_defect(self, d):
        for m in _dense_checked(d):
            skewed = type(m)(m.wires, m.matrix + 1e-3j * np.triu(np.ones(m.matrix.shape[-2:]), 1))
            for x in (m, skewed):
                want = np.max(np.abs(x.matrix - x.matrix.conj().swapaxes(-1, -2)), axis=(-2, -1))
                assert np.asarray(hermiticity_defect(x)).tobytes() == want.tobytes()


class TestPermuteWires:
    def test_two_wire_swap_frozen(self):
        joint = kron(op([A], SZ), op([B], SX))
        swapped = permute_wires(joint, ["B", "A"])
        assert swapped.names == ("B", "A")
        np.testing.assert_allclose(swapped.matrix, np.kron(SX, SZ), atol=0)

    def test_not_a_permutation_rejected(self):
        with pytest.raises(ValueError):
            permute_wires(op([A, B], np.eye(4)), ["A", "A"])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.permutations(["A", "B", "C"]))
    def test_spectrum_preserved(self, seed, order):
        rng = np.random.default_rng(seed)
        m = kron(op([A], random_herm(rng, 2)), op([B], random_herm(rng, 2)), op([C], random_herm(rng, 3)))
        before = np.linalg.eigvalsh(m.matrix)
        after = np.linalg.eigvalsh(permute_wires(m, order).matrix)
        np.testing.assert_allclose(after, before, atol=1e-9)

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(3)
        m = op([A, C], rng.normal(size=(6, 6)))
        back = permute_wires(permute_wires(m, ["C", "A"]), ["A", "C"])
        np.testing.assert_allclose(back.matrix, m.matrix, atol=0)


class TestMinEigenvalue:
    def test_non_hermitian_reads_its_hermitian_part(self):
        # (M + M^dag)/2 = X/2, whose spectrum is {-1/2, 1/2}; no tolerance is consulted.
        skew = op([A], np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert min_eigenvalue(skew) == pytest.approx(-0.5, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_psd_within_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        psd = op([A, B], g @ g.conj().T)
        assert min_eigenvalue(psd) >= -DEFAULT_TOL


class TestTraceAndReplace:
    def test_phi_plus_single_wire(self):
        # Tr_B phi+ = I/2, so the replacement collapses the pair to I/4.
        out = replaced(op([A, B], PHI_PLUS), {"B"})
        assert out.names == ("A", "B")
        np.testing.assert_allclose(out.matrix, np.eye(4) / 4, atol=1e-12)

    def test_all_wires_gives_normalized_identity(self):
        rng = np.random.default_rng(5)
        m = op([A, B], random_herm(rng, 4))
        out = replaced(m, {"A", "B"})
        np.testing.assert_allclose(out.matrix, np.trace(m.matrix) * np.eye(4) / 4, atol=1e-12)

    def test_trace_preserved_and_idempotent(self):
        rng = np.random.default_rng(9)
        m = op([A, B, C], random_herm(rng, 12))
        once = replaced(m, {"B"})
        twice = replaced(once, {"B"})
        assert np.trace(once.matrix) == pytest.approx(np.trace(m.matrix), abs=1e-12)
        np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotence_random(self, seed):
        rng = np.random.default_rng(seed)
        m = op([A, C], rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        once = replaced(m, {"A"})
        twice = replaced(once, {"A"})
        np.testing.assert_allclose(twice.matrix, once.matrix, atol=1e-12)


    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3, 3), (5, 5, 5), (2, 3, 5), (3, 2, 2, 3, 2)])
    def test_matches_dense_kron_reference(self, dims):
        rng = np.random.default_rng(sum(dims))
        wires = [WireLabel(f"w{i}", d) for i, d in enumerate(dims)]
        side = int(np.prod(dims))
        m = op(wires, random_herm(rng, side) / side)
        for k in range(len(dims) + 1):
            for traced in combinations(range(len(dims)), k):
                got = replaced(m, {wires[i].name for i in traced})
                assert got.names == m.names
                want = reference_replace(m.matrix, dims, set(traced))
                np.testing.assert_allclose(got.matrix, want, rtol=0, atol=1e-15)

    def test_add_replaced_accumulates_in_place(self):
        rng = np.random.default_rng(17)
        m = op([A, C, B], random_herm(rng, 12))
        out = m.as_tensor().copy()
        add_replaced(out, m, {"A", "B"}, -1.0)
        add_replaced(out, m, {"C"}, 0.5)
        want = m.matrix - reference_replace(m.matrix, m.dims, {0, 2}) + 0.5 * reference_replace(m.matrix, m.dims, {1})
        np.testing.assert_allclose(out.reshape(12, 12), want, rtol=0, atol=1e-14)

    def test_unknown_wire_rejected(self):
        with pytest.raises(KeyError):
            replaced(op([A, B], PHI_PLUS), {"Z"})


class TestProductTrace:
    def test_matches_dense_kron(self):
        rng = np.random.default_rng(21)
        s1, s2 = random_herm(rng, 2), random_herm(rng, 3)
        e1, e2 = random_herm(rng, 2), random_herm(rng, 3)
        got = batched_trace(
            [op([A], s1), op([C], s2)], [op([A], e1), op([C], e2)]
        )
        want = np.trace(np.kron(s1, s2) @ np.kron(e1, e2))
        assert got == pytest.approx(want, abs=1e-12)

    def test_interleaved_factorization(self):
        # Effect factors may group wires differently from the carriers.
        rng = np.random.default_rng(22)
        carrier = op([A, B], random_herm(rng, 4))
        ea, eb = random_herm(rng, 2), random_herm(rng, 2)
        got = batched_trace([carrier], [op([B], eb), op([A], ea)])
        want = np.trace(carrier.matrix @ np.kron(ea, eb))
        assert got == pytest.approx(want, abs=1e-12)

    def test_wire_mismatch_rejected(self):
        with pytest.raises(ValueError):
            batched_trace([op([A], SZ)], [op([B], SX)])

    def test_batched_matches_entrywise(self):
        # Batch axes come out in argument order: carriers first, then effects.
        rng = np.random.default_rng(23)
        carriers = [op([C], random_herm(rng, 3)) for _ in range(4)]
        effects = [op([B, A], random_herm(rng, 4)) for _ in range(6)]
        other = op([A, B], random_herm(rng, 4))
        ident = op([C], np.eye(3))
        got = batched_trace(
            [stack_operators(carriers, (2, 2)), other], [stack_operators(effects, (3, 2)), ident]
        )
        assert got.shape == (2, 2, 3, 2)
        for i, j, k, m in np.ndindex(*got.shape):
            want = batched_trace([carriers[2 * i + j], other], [effects[2 * k + m], ident])
            assert got[i, j, k, m] == pytest.approx(want, abs=1e-12)

    def test_stack_rejects_another_wire_order(self):
        rng = np.random.default_rng(24)
        m = op([A, C], random_herm(rng, 6))
        assert stack_operators([m, m], (2,)).wires == (A, C)
        with pytest.raises(ValueError, match="in that order"):
            stack_operators([m, permute_wires(m, ["C", "A"])], (2,))

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError):
            OperatorStack((A,), np.zeros((2, 3, 3)))
        with pytest.raises(ValueError):
            batched_trace([op([A], SZ)], [OperatorStack((B,), np.zeros((2, 2, 2)))])

    def test_stack_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate wire names"):
            OperatorStack((A, WireLabel("A", 2)), np.zeros((3, 4, 4)))

    def test_stack_wire_accessors(self):
        stack = OperatorStack((A, C), np.zeros((3, 6, 6)))
        assert (stack.names, stack.dims, stack.total_dim) == (("A", "C"), (2, 3), 6)
        assert stack.wire("C") == C
        with pytest.raises(KeyError):
            stack.wire("Q")

    def test_operator_is_the_unbatched_stack(self):
        assert isinstance(op([A], SZ), OperatorStack)
        with pytest.raises(ValueError):
            LabeledOperator((A,), np.zeros((3, 2, 2)))

    @staticmethod
    def _qubit_projections(n: int, axes: int) -> tuple[list, list]:
        """n one-qubit carriers I/2, the first stacked over ``axes`` axes of length 1, against n
        effects |0><0|: Tr = 2^-n."""
        wires = [WireLabel(f"q{i}", 2) for i in range(n)]
        carriers = [op([w], np.eye(2) / 2) for w in wires]
        carriers[0] = OperatorStack((wires[0],), carriers[0].matrix.reshape((1,) * axes + (2, 2)))
        return carriers, [op([w], np.diag([1.0, 0.0])) for w in wires]

    @pytest.mark.parametrize("n, axes", [(26, 0), (25, 2)])
    def test_all_52_subscript_letters(self, n, axes):
        # A row and a column letter per wire, one per batch label: einsum's 52 letters, all used.
        got = batched_trace(*self._qubit_projections(n, axes))
        assert got.shape == (1,) * axes
        assert got.item() == pytest.approx(2.0**-n, rel=1e-12)

    @pytest.mark.parametrize("n, axes", [(27, 0), (25, 3)])
    def test_more_than_52_subscript_letters_rejected(self, n, axes):
        with pytest.raises(ValueError, match=f"needs {2 * n + axes} subscript letters; einsum has 52"):
            batched_trace(*self._qubit_projections(n, axes))


class TestKronSum:
    def _parts(self, rng, terms):
        # Part one on (A,), term-stacked; part two on (C,), stacked by (k, term).
        r = np.array([random_herm(rng, 2) for _ in range(terms)])
        s = np.array([[random_herm(rng, 3) for _ in range(terms)] for _ in range(4)])
        return OperatorStack((A,), r), OperatorStack((C,), s)

    def test_dense_view_is_sum_of_krons(self):
        rng = np.random.default_rng(25)
        r, s = self._parts(rng, 3)
        ks = KronSum((r, s))
        assert ks.wires == (A, C)
        assert ks.batch_shape == (4,)
        for k in range(4):
            want = sum(np.kron(r.matrix[m], s.matrix[k, m]) for m in range(3))
            np.testing.assert_allclose(ks.matrix[k], want, atol=1e-12)

    @pytest.mark.parametrize("terms", [1, 3])
    def test_shared_axis_sum_matches_loop(self, terms):
        rng = np.random.default_rng(26 + terms)
        r, s = self._parts(rng, terms)
        carriers = [stack_operators([op([C, A], random_herm(rng, 6)) for _ in range(2)], (2,))]
        other = op([B], random_herm(rng, 2))
        effect_b = stack_operators([op([B], random_herm(rng, 2)) for _ in range(5)], (5,))
        got = batched_trace([carriers[0], other], [KronSum((r, s)), effect_b])
        assert got.shape == (2, 4, 5)
        for i, k, j in np.ndindex(*got.shape):
            carrier = permute_wires(op([C, A], carriers[0].matrix[i]), ["A", "C"]).matrix
            want = 0.0
            for m in range(terms):
                effect = np.kron(np.kron(r.matrix[m], s.matrix[k, m]), effect_b.matrix[j])
                want += np.trace(np.kron(carrier, other.matrix) @ effect)
            assert got[i, k, j] == pytest.approx(want, abs=1e-10)

    def test_parts_checked(self):
        rng = np.random.default_rng(27)
        r, s = self._parts(rng, 3)
        with pytest.raises(ValueError, match="term count"):
            KronSum((r, OperatorStack((C,), s.matrix[:, :2])))
        with pytest.raises(ValueError, match="term axis"):
            KronSum((OperatorStack((A,), SZ),))
        with pytest.raises(ValueError, match="twice"):
            KronSum((r, OperatorStack((A,), r.matrix)))


class TestOpenWires:
    @pytest.mark.parametrize("d", [2, 3])
    def test_open_wires_are_the_effective_operator(self, d):
        # Wires only the effects hold (Q, R, S) stay open: for every rho on
        # them, Tr[rho E] is the contraction with rho as one more carrier.
        rng = np.random.default_rng(40 + d)
        p, q, r, s = (WireLabel(n, d) for n in "PQRS")
        carrier = stack_operators([op([p], random_herm(rng, d)) for _ in range(2)], (2,))
        first = OperatorStack((q, p), np.array([[random_herm(rng, d * d) for _ in range(3)] for _ in range(4)]))
        second = OperatorStack((r,), np.array([random_herm(rng, d) for _ in range(3)]))
        last = stack_operators([op([s], random_herm(rng, d)) for _ in range(2)], (2,))
        effects = [KronSum((first, second)), last]
        # The carrier's stack axis is tied to the last effect's.
        effective = batched_trace([carrier], effects, ["x", "k", "x"])
        assert effective.shape == (2, 4) + (d,) * 6
        rho = op([q, r, s], random_herm(rng, d**3))
        want = batched_trace([carrier, rho], effects, ["x", "", "k", "x"])
        got = np.einsum("ij,xkji->xk", rho.matrix, effective.reshape(2, 4, d**3, d**3))
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize(
        "carriers, effects",
        [
            ([op([A, B], PHI_PLUS)], [op([A], SZ)]),  # B meets no effect
            ([op([WireLabel("A", 3)], np.eye(3))], [op([A], SZ)]),  # dimensions differ
        ],
    )
    def test_rejected_before_any_arithmetic(self, monkeypatch, carriers, effects):
        def no_arithmetic(*args, **kwargs):
            raise AssertionError("einsum ran")

        monkeypatch.setattr(np, "einsum", no_arithmetic)
        monkeypatch.setattr(np, "einsum_path", no_arithmetic)
        with pytest.raises(ValueError):
            batched_trace(carriers, effects)


class TestConjugateWires:
    def test_stack_keeps_batch_and_type(self):
        rng = np.random.default_rng(28)
        stack = OperatorStack((A, C), np.array([random_herm(rng, 6) for _ in range(3)]))
        out = conjugate_wires(stack, SX, ["A"])
        assert isinstance(out, OperatorStack)
        big = np.kron(SX, np.eye(3))
        for k in range(3):
            np.testing.assert_allclose(out.matrix[k], big @ stack.matrix[k] @ big, atol=1e-12)

    def test_unknown_wire_rejected(self):
        with pytest.raises(KeyError):
            conjugate_wires(op([A], SZ), SX, ["Q"])


class TestDumpLoad:
    def test_header_format(self):
        text = dump_operator(op([A, C], np.eye(6)))
        assert text.splitlines()[0] == "wires: A:2,C:3"

    def test_round_trip_exact(self):
        rng = np.random.default_rng(33)
        m = op([A, C], rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        back = load_operator(dump_operator(m).splitlines())
        assert back.wires == m.wires
        np.testing.assert_array_equal(back.matrix, m.matrix)

    def test_entry_style(self):
        text = dump_operator(op([A], np.array([[0.5, 0], [0, -1j]])))
        rows = text.splitlines()[1:]
        assert rows[0].split()[0] == "0.5+0j"
        assert rows[1].split()[1] == "-0-1j"

    def test_matches_per_entry_formatter(self):
        # The same text as formatting each numpy entry on its own, -0.0 included.
        rng = np.random.default_rng(34)
        d3 = (WireLabel("X", 3), WireLabel("Y", 3))
        mat = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        mat[0, 0], mat[1, 2] = complex(-0.0, 0.0), complex(0.0, -0.0)
        mat[3, 3] = complex(-0.0, -0.0)
        mat[4, 4] = complex(1e-300, -1e300)
        m = op(d3, mat)
        text = dump_operator(m)
        assert text.startswith("wires: X:3,Y:3\n")
        assert text == per_entry_dump(m)
        assert "-0-0j" in text
        assert load_operator(text.splitlines()).matrix.tobytes() == m.matrix.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_any_entries_match_per_entry_formatter(self, d, data):
        # nan, +-inf, subnormals, extremes and signed zeros in either part.
        mat = data.draw(arrays(np.complex128, (d * d, d * d), elements=st.complex_numbers()))
        m = op((WireLabel("X", d), WireLabel("Y", d)), mat)
        assert dump_operator(m) == per_entry_dump(m)

    def test_non_contiguous_matrix(self):
        rng = np.random.default_rng(35)
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        swapped = permute_wires(op([A, C], mat), ["C", "A"])
        strided = LabeledOperator((A, C), mat.T)
        assert not strided.matrix.flags.c_contiguous
        for m in (swapped, strided):
            text = dump_operator(m)
            assert text == per_entry_dump(m)
            assert load_operator(text.splitlines()).matrix.tobytes() == np.ascontiguousarray(m.matrix).tobytes()

    def test_d4_process_matches_reference_and_round_trips(self):
        m = random_process(np.random.default_rng(36), 4).op
        text = dump_operator(m)
        assert text == per_entry_dump(m)
        back = load_operator(text.splitlines())
        assert back.wires == m.wires
        assert back.matrix.tobytes() == m.matrix.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3]), st.data())
    def test_round_trip_is_bit_exact(self, d, data):
        # Any finite entries: subnormals, extremes and signed zeros included.
        finite = st.complex_numbers(allow_nan=False, allow_infinity=False)
        mat = data.draw(arrays(np.complex128, (d * d, d * d), elements=finite))
        m = op((WireLabel("X", d), WireLabel("Y", d)), mat)
        back = load_operator(dump_operator(m).splitlines())
        assert back.wires == m.wires
        assert back.matrix.tobytes() == m.matrix.tobytes()

    @pytest.mark.parametrize(
        "entry", ["nan+0j", "0+nanj", "inf+0j", "-inf-1j", "1e999+0j", "nan", "inf", "-inf", "nanj", "nan+nanj"]
    )
    def test_non_finite_entry_rejected(self, entry):
        rows = dump_operator(op([A], np.eye(2))).splitlines()
        rows[2] = f"0+0j {entry}"
        with pytest.raises(ValueError, match="row 2 has a non-finite entry"):
            load_operator(rows)

    def test_ragged_row_named(self):
        rows = dump_operator(op([A, C], np.eye(6))).splitlines()
        rows[3] = " ".join(rows[3].split()[:5])
        with pytest.raises(ValueError, match="matrix row 3: expected 6 entries per row, found 5"):
            load_operator(rows)

    def test_every_row_short(self):
        rows = ["wires: A:2", "1+0j", "0+0j"]
        with pytest.raises(ValueError, match="^expected 2 entries per row, found 1$"):
            load_operator(rows)

    @pytest.mark.parametrize("tail", ["#", "# note", "#0+0j"])
    def test_hash_is_not_a_comment(self, tail):
        rows = dump_operator(op([A], np.eye(2))).splitlines()
        rows[2] = f"{rows[2]} {tail}"
        with pytest.raises(ValueError, match="matrix row 2"):
            load_operator(rows)

    def test_unparsable_entry_named(self):
        rows = dump_operator(op([A], np.eye(2))).splitlines()
        rows[2] = "0+0j 1+0k"
        with pytest.raises(ValueError, match="matrix row 2 has an entry that is not a complex number"):
            load_operator(rows)

    def test_blank_lines_between_rows_skipped(self):
        m = op([A, C], np.arange(36).reshape(6, 6) * (1 - 0.5j))
        rows = dump_operator(m).splitlines()
        spaced = rows[:1] + ["", " \t"] + rows[1:3] + [""] + rows[3:] + ["  "]
        assert load_operator(spaced).matrix.tobytes() == m.matrix.tobytes()

    def test_extra_rows_counted_in_full(self):
        rows = dump_operator(op([A], np.eye(2))).splitlines()
        with pytest.raises(ValueError, match="^expected 2 matrix rows, found 5$"):
            load_operator(rows + rows[1:] + ["0+0j 1e999j"])

    def test_row_count_is_checked_before_the_rows(self):
        with pytest.raises(ValueError, match="^expected 6 matrix rows, found 2$"):
            load_operator(["wires: A:2,C:3", "junk", "1+0j"])

    def test_crlf_and_generator_lines_load_bit_exactly(self):
        m = op([A, C], np.arange(36).reshape(6, 6) * (1 - 0.5j) - 0.0)
        text = dump_operator(m).replace("\n", "\r\n")
        for lines in (text.splitlines(), iter(text.splitlines(keepends=True)), (ln for ln in text.split("\n"))):
            assert load_operator(lines).matrix.tobytes() == m.matrix.tobytes()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ((2, "0+0j 1+0k"), "^matrix row 2 has an entry that is not a complex number$"),
            ((2, "0+0j 1+0j #"), "^matrix row 2 has an entry that is not a complex number$"),
            ((2, "0+0j nan+0j"), "^matrix row 2 has a non-finite entry$"),
            ((2, "0+0j"), "^matrix row 2: expected 2 entries per row, found 1$"),
            ((1, "1+0j"), "^matrix row 1: expected 2 entries per row, found 1$"),
            ((1, "1+0j 0+0j 0+0j"), "^matrix row 1: expected 2 entries per row, found 3$"),
        ],
    )
    def test_rows_named_from_a_generator(self, edit, message):
        # The same messages from a list, a generator, and rows that follow the named one.
        rows = dump_operator(op([A], np.eye(2))).splitlines()
        rows[edit[0]] = edit[1]
        for lines in (rows, iter(rows)):
            with pytest.raises(ValueError, match=message):
                load_operator(lines)

    def test_first_bad_row_named_when_later_rows_differ(self):
        # Row 1 is short and row 3 unreadable: the first one is named, as a table would.
        rows = ["wires: C:3", "1+0j 0+0j", "0+0j 1+0j 0+0j", "0+0j x 1+0j"]
        with pytest.raises(ValueError, match="^matrix row 1: expected 3 entries per row, found 2$"):
            load_operator(rows)
        rows[1] = "1+0j 0+0j 0+0j"
        with pytest.raises(ValueError, match="^matrix row 3 has an entry that is not a complex number$"):
            load_operator(rows)

    def test_identity_helper(self):
        ident = identity_operator([A, C])
        assert ident.total_dim == 6
        np.testing.assert_array_equal(ident.matrix, np.eye(6))


class TestInputChecks:
    """Input checks that no other test reaches, each through its public entry point."""

    @pytest.mark.parametrize(
        "call, error, fragment",
        [
            pytest.param(lambda: KronSum(()), ValueError, "at least one part", id="empty-kron-sum"),
            pytest.param(lambda: load_operator(["", "  "]), ValueError, "empty operator dump", id="empty-dump"),
            pytest.param(
                lambda: load_operator(["wires: A:x", "1+0j"]), ValueError, "malformed wire entry 'A:x'", id="dim-x"
            ),
            pytest.param(lambda: load_operator(["wires: A:2,B:2.5"]), ValueError, "entry 'B:2.5'", id="dim-float"),
            pytest.param(lambda: load_operator(["wires: A:1", "1+0j"]), ValueError, "dim >= 2", id="dim-1"),
            pytest.param(lambda: stack_operators([], (0,)), ValueError, "at least one operator", id="empty-stack"),
            pytest.param(
                lambda: conjugate_wires(op([A], SZ), np.eye(1), []), ValueError, "at least one wire name", id="no-wire"
            ),
        ],
    )
    def test_raises(self, call, error, fragment):
        with pytest.raises(error, match=re.escape(fragment)):
            call()

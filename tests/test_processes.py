"""Process-matrix validity, causal order, the PPT cut, and constructors."""

from __future__ import annotations

import functools
import json
import math
import pickle
import re
import tracemalloc
from dataclasses import replace
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalkit.processes import (
    ORDER_TOKENS,
    ProcessMatrix,
    PartySlot,
    build_cyril,
    channel_process,
    check_order,
    dump_process,
    extend_with_state,
    is_ppt_cut,
    lab_wires,
    load_process,
    maximally_mixed_process,
    party_process,
    shared_state_process,
    validate_process,
    verify_cyril_separable_decomposition,
)
from causalkit.classical import ClassicalProcess3, ebw_process, is_logically_consistent
from causalkit.cli import PROCESS_BUILDERS
from causalkit.duality import check_duality, pauli_xd, pauli_zd
from causalkit.games import GameStrategy, PartyArm, behaviour, coded_pairs, cyril_gyni_strategy
from causalkit.instruments import validate_instrument
from causalkit.sampling import (
    random_channel_choi,
    random_density,
    random_gyni_strategy,
    random_instrument,
    random_process,
)
from causalkit.tensor import (
    LabeledOperator,
    WireLabel,
    dump_operator,
    kron,
    load_operator,
    partial_trace,
    permute_wires,
)
from reference_maps import reference_components, reference_order, reference_residuals

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def phi_plus(dim: int = 2) -> np.ndarray:
    vec = np.zeros(dim * dim, dtype=complex)
    for k in range(dim):
        vec[k * dim + k] = 1 / np.sqrt(dim)
    return np.outer(vec, vec.conj())


def identity_choi() -> np.ndarray:
    return 2 * phi_plus()


class TestCyril:
    def test_matrix_matches_independent_construction(self):
        # Rebuilt from scratch with raw numpy kron, never through the library.
        eye = np.eye(2)
        expected = (
            np.eye(16)
            + (
                np.kron(np.kron(SZ, SZ), np.kron(SZ, eye))
                + np.kron(np.kron(SZ, eye), np.kron(SX, SX))
            )
            / np.sqrt(2)
        ) / 4
        proc = build_cyril()
        assert proc.op.names == ("A_I", "A_O", "B_I", "B_O")
        np.testing.assert_allclose(proc.op.matrix, expected, atol=1e-15)

    def test_spectrum_frozen(self):
        # Anticommuting strings: G^2 = 2I, so eigenvalues are (1 +- 1)/4.
        spectrum = np.linalg.eigvalsh(build_cyril().op.matrix)
        np.testing.assert_allclose(spectrum, [0.0] * 8 + [0.5] * 8, atol=1e-12)

    def test_valid(self):
        report = validate_process(build_cyril())
        assert report.valid
        assert report.min_eig >= -1e-12
        assert all(r <= 1e-12 for _, r in report.constraint_residuals)

    def test_incompatible_with_every_order(self):
        proc = build_cyril()
        for order in ("A<B", "B<A", "no-signaling"):
            report = check_order(proc, order)
            assert not report.compatible
            # Killing one Pauli string leaves the other at weight 1/(4 sqrt 2).
            assert max(r for _, r in report.residuals) > 0.17

    def test_order_token_aliases(self):
        # Only the three plain tokens are accepted; other spellings of them are not.
        assert check_order(build_cyril(), "A<B").order == "A<B"
        for alias in ("A≺B", "A < B"):
            with pytest.raises(ValueError, match="unknown order token"):
                check_order(build_cyril(), alias)
            with pytest.raises(ValueError, match="signaling direction"):
                channel_process(np.diag([1.0, 0.0]), identity_choi(), alias)

    def test_orders_are_read_by_party_name(self):
        # Renamed parties P and Q: "P<Q" is cyril's A<B residual for residual, and "A<B" names no party.
        cyril = build_cyril()
        renamed = ProcessMatrix(cyril.factors, tuple(replace(p, name=n) for p, n in zip(cyril.parties, "PQ")))
        want = [r for _, r in check_order(cyril, "A<B").residuals]
        assert [r for _, r in check_order(renamed, "P<Q").residuals] == want
        with pytest.raises(ValueError, match="unknown order token 'A<B'"):
            check_order(renamed, "A<B")

    def test_ppt_both_cuts(self):
        # Z and X are symmetric matrices, so the partial transpose fixes W.
        proc = build_cyril()
        for side in ("A", "B"):
            ok, min_eig = is_ppt_cut(proc, side)
            assert ok
            assert min_eig == pytest.approx(0.0, abs=1e-12)

    def test_separable_decomposition_exact(self):
        assert verify_cyril_separable_decomposition() <= 1e-12


class TestValidation:
    def test_bell_pair_outputs_fails_affine_closure_only(self):
        # Coded pairs on inputs and outputs, trace-normalized: the first
        # three constraints pass and affine closure fails with residual 1.
        inputs = LabeledOperator(
            (WireLabel("A_I", 2), WireLabel("B_I", 2)), phi_plus()
        )
        outputs = LabeledOperator(
            (WireLabel("A_O", 2), WireLabel("B_O", 2)), phi_plus()
        )
        op = permute_wires(kron(inputs, outputs), ["A_I", "A_O", "B_I", "B_O"])
        proc = ProcessMatrix(
            LabeledOperator(op.wires, 4 * op.matrix),
            (PartySlot("A", "A_I", "A_O"), PartySlot("B", "B_I", "B_O")),
        )
        report = validate_process(proc)
        assert not report.valid
        assert report.psd_ok
        assert dict(report.constraint_residuals)["normalization"] <= 1e-12
        assert dict(report.constraint_residuals)["affine closure"] == pytest.approx(1.0, abs=1e-12)

    def test_psd_verdict_is_set_by_the_tolerance(self):
        # I/4 less (1/4 + 1e-8)|0><0|: Hermitian, with min eigenvalue -1e-8.
        mixed = maximally_mixed_process()
        matrix = mixed.op.matrix.copy()
        matrix[0, 0] -= 0.25 + 1e-8
        proc = ProcessMatrix(LabeledOperator(mixed.op.wires, matrix), mixed.parties)
        strict, loose = validate_process(proc, 1e-9), validate_process(proc, 1e-6)
        assert strict.min_eig == loose.min_eig == pytest.approx(-1e-8, rel=1e-6)
        assert (strict.psd_ok, loose.psd_ok) == (False, True)

    def test_channel_process_valid_and_ordered(self):
        proc = channel_process(np.diag([1.0, 0.0]), identity_choi(), "A<B")
        assert validate_process(proc).valid
        assert check_order(proc, "A<B").compatible
        report = check_order(proc, "B<A")
        assert not report.compatible
        assert max(r for _, r in report.residuals) > 0.4

    def test_shared_state_process_no_signaling_and_npt(self):
        proc = shared_state_process(phi_plus())
        assert validate_process(proc).valid
        assert check_order(proc, "no-signaling").compatible
        assert check_order(proc, "A<B").compatible  # no-signaling sits in both cones
        ok, min_eig = is_ppt_cut(proc, "B")
        assert not ok
        assert min_eig == pytest.approx(-0.5, abs=1e-12)

    def test_qutrit_constructors_read_d_from_their_matrices(self):
        rng = np.random.default_rng(818)
        shared = shared_state_process(random_density(rng, 9))
        ordered = channel_process(random_density(rng, 3), random_channel_choi(rng, 3, 3), "B<A")
        for proc in (shared, ordered):
            assert proc.op.matrix.shape == (81, 81)
            assert {proc.wire(n).dim for n in proc.names} == {3}
            assert validate_process(proc).valid
        assert check_order(ordered, "B<A").compatible

    def test_maximally_mixed_valid(self):
        assert validate_process(maximally_mixed_process()).valid

    def test_one_party_process_gets_a_report(self):
        op = LabeledOperator((WireLabel("A_I", 2), WireLabel("A_O", 2)), np.eye(4))
        report = validate_process(ProcessMatrix(op, (PartySlot("A", "A_I", "A_O"),)))
        assert dict(report.constraint_residuals)["normalization"] == 2.0  # |Tr I_4 - d_O| = |4 - 2|
        assert report.valid is False

    def test_wires_must_exist(self):
        op = LabeledOperator((WireLabel("A_I", 2),), np.eye(2))
        with pytest.raises(ValueError):
            ProcessMatrix(op, (PartySlot("A", "A_I", "A_O"),))


@functools.cache
def verdict_inputs(d: int) -> tuple:
    """A seeded process, an instrument on lab A's wires and a guessing strategy, at dimension d."""
    rng = np.random.default_rng([29, d])
    (a_in, a_out), _ = lab_wires(d)
    return random_process(rng, d), random_instrument(rng, (a_in,), (a_out,), d), random_gyni_strategy(rng, d)


# Every library check that takes a verdict tolerance, called on verdict_inputs(d).
VERDICTS = {
    "validate_process": lambda proc, ins, strategy, tol: validate_process(proc, tol),
    "check_order": lambda proc, ins, strategy, tol: check_order(proc, "A<B", tol),
    "is_ppt_cut": lambda proc, ins, strategy, tol: is_ppt_cut(proc, "A", tol),
    "validate_instrument": lambda proc, ins, strategy, tol: validate_instrument(ins, tol),
    "check_duality": lambda proc, ins, strategy, tol: check_duality(strategy, "gyni2dr", tol),
}


class TestVerdictTolerance:
    """A verdict's tol must be finite and >= 0; otherwise every check raises, naming it."""

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("check", sorted(VERDICTS))
    def test_rejected_unless_finite_and_nonnegative(self, check, d, tol):
        with pytest.raises(ValueError, match=re.escape(f"tol must be finite and >= 0, got {tol!r}")):
            VERDICTS[check](*verdict_inputs(d), tol)

    @pytest.mark.parametrize("check", sorted(VERDICTS))
    def test_zero_means_exact(self, check):
        VERDICTS[check](*verdict_inputs(2), 0.0)


def own_pt(proc: ProcessMatrix, side: str) -> np.ndarray:
    """W with ``side``'s own wires transposed, by plain numpy."""
    w, wires = proc.op, set(proc.party(side).all_wires)
    n = len(w.wires)
    axes = list(range(2 * n))
    for i, name in enumerate(w.names):
        if name in wires:
            axes[i], axes[n + i] = n + i, i
    return w.as_tensor().transpose(axes).reshape(w.total_dim, w.total_dim)


def own_pt_min_eig(proc: ProcessMatrix, side: str) -> float:
    """Smallest eigenvalue of W with ``side``'s own wires transposed, by plain numpy."""
    pt = own_pt(proc, side)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0])


class TestCutSpectrum:
    """Both sides of the party cut share one spectrum, computed once per process."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sides_agree_with_their_own_transpose(self, d):
        rng = np.random.default_rng([1212, d])
        procs = [random_process(rng, d) for _ in range(3)]
        state = LabeledOperator((WireLabel("A'", 2), WireLabel("B'", 2)), random_density(rng, 4))
        procs.append(extend_with_state(procs[0], state, assign={"A'": "A", "B'": "B"}))
        for proc in procs:
            cut_a, cut_b = is_ppt_cut(proc, "A"), is_ppt_cut(proc, "B")
            assert cut_a == cut_b
            for side, (ok, eig) in zip("AB", (cut_a, cut_b)):
                own = own_pt_min_eig(proc, side)
                assert abs(eig - own) <= 1e-12
                assert ok == (own >= -1e-9)

    def test_tol_decides_the_verdict_not_the_memo(self):
        proc = random_process(np.random.default_rng(1213), 2)
        skewed = proc.op.matrix.copy()
        skewed[0, 1] += 1e-3
        proc = ProcessMatrix(LabeledOperator(proc.op.wires, skewed), proc.parties)
        ok, eig = is_ppt_cut(proc, "A", tol=1e-9)
        assert not ok and np.isnan(eig)
        ok, eig = is_ppt_cut(proc, "B", tol=1e-2)
        assert abs(eig - own_pt_min_eig(proc, "B")) <= 1e-12
        assert ok == (eig >= -1e-2)

    def test_one_solve_per_process(self, monkeypatch):
        from causalkit import processes

        proc = random_process(np.random.default_rng(1214), 2)  # its constructors' input checks solve too
        solves = []
        solve = processes.min_eigenvalue
        monkeypatch.setattr(processes, "min_eigenvalue", lambda *a: solves.append(a) or solve(*a))
        for side in ("A", "B", "A"):
            is_ppt_cut(proc, side)
        assert len(solves) == 1

    def test_memo_is_two_floats(self):
        proc = random_process(np.random.default_rng(1215), 3)
        twin = ProcessMatrix(proc.factors, proc.parties)
        before = pickle.dumps(proc)
        is_ppt_cut(proc, "A")
        after = pickle.dumps(proc)
        # A dense 81 x 81 complex copy alone would add 105 kB.
        assert len(after) - len(before) < 100
        memo = vars(pickle.loads(after))
        assert all(type(memo[k]) is float for k in ("hermiticity", "_cut_min_eig"))
        assert proc == twin

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_defect_for_every_report(self, d, monkeypatch, tmp_path, capsys):
        # A partial transpose permutes the entries of W - W^dagger, so each
        # cut's defect is W's, bit for bit; it is computed once per process.
        from causalkit import processes, tensor
        from causalkit.cli import main

        rng = np.random.default_rng([1216, d])
        base = random_process(rng, d)
        skewed = base.op.matrix + 1e-3 * rng.normal(size=base.op.matrix.shape)
        state = LabeledOperator((WireLabel("A'", d),), random_density(rng, d))
        proc = extend_with_state(
            ProcessMatrix(LabeledOperator(base.op.wires, skewed), base.parties), state, assign={"A'": "A"}
        )
        path = tmp_path / "skewed.txt"
        path.write_text(dump_process(proc), encoding="utf-8")
        calls = []
        defect = tensor.hermiticity_defect

        def counted(op):
            calls.append(op)
            return defect(op)

        monkeypatch.setattr(processes, "hermiticity_defect", counted)
        monkeypatch.setattr(tensor, "hermiticity_defect", counted)
        herm = validate_process(proc).hermiticity
        for side in ("A", "B"):
            ok, eig = is_ppt_cut(proc, side)
            assert not ok and np.isnan(eig)
        assert len(calls) == 1
        assert herm > 1e-6
        assert proc.hermiticity == herm
        for side in ("A", "B"):
            pt = own_pt(proc, side)
            assert float(np.max(np.abs(pt - pt.conj().T))) == herm
            calls.clear()
            assert main(["ppt", str(path), "--cut", side, "--json"]) == 1
            assert json.loads(capsys.readouterr().out)["hermiticity"] == herm
            assert len(calls) == 1

    def test_ambiguous_cut_raises_before_numerics(self):
        state = LabeledOperator((WireLabel("A'", 2),), np.eye(2) / 2)
        ext = extend_with_state(build_cyril(), state)
        with pytest.raises(ValueError, match="ambiguous"):
            is_ppt_cut(ext, "B")
        assert "_cut_min_eig" not in vars(ext)


class TestPartyLayout:
    """Every constructor lays its process on the wires (A_I, A_O, B_I, B_O)."""

    LAYOUT = ("A_I", "A_O", "B_I", "B_O")

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_mixed_is_the_normalized_identity(self, d):
        assert np.array_equal(maximally_mixed_process(d).op.matrix, np.eye(d**4) / d**2)

    @pytest.mark.parametrize("name", ["cyril", "shared-bell", "bell-pair-outputs"])
    def test_qubit_builtins(self, name):
        assert PROCESS_BUILDERS[name]().op.names == self.LAYOUT

    @pytest.mark.parametrize("d", [2, 3])
    def test_constructors(self, d):
        rng = np.random.default_rng(60 + d)
        procs = [maximally_mixed_process(d), shared_state_process(random_density(rng, d * d))] + [
            channel_process(random_density(rng, d), random_channel_choi(rng, d, d), direction)
            for direction in ("A<B", "B<A")
        ]
        for proc in procs:
            assert proc.op.names == self.LAYOUT
            assert proc.op.dims == (d,) * 4


class TestRandomProcesses:
    def test_mixtures_valid_and_ppt_symmetric(self):
        # PPT is a property of the cut, not of which side is transposed.
        rng = np.random.default_rng(515)
        for _ in range(20):
            proc = random_process(rng, 2)
            assert validate_process(proc).valid
            ppt_a, _ = is_ppt_cut(proc, "A")
            ppt_b, _ = is_ppt_cut(proc, "B")
            assert ppt_a == ppt_b

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_sampled_inputs_pass_the_constructor_checks(self, d):
        assert validate_process(random_process(np.random.default_rng([1216, d]), d)).valid

    def test_qutrit_mixtures_valid(self):
        rng = np.random.default_rng(717)
        for _ in range(5):
            assert validate_process(random_process(rng, 3)).valid

    def test_convexity(self):
        rng = np.random.default_rng(99)
        p1, p2 = random_process(rng), random_process(rng)
        lam = rng.uniform()
        mix = ProcessMatrix(
            LabeledOperator(p1.op.wires, lam * p1.op.matrix + (1 - lam) * p2.op.matrix),
            p1.parties,
        )
        assert validate_process(mix).valid

    def test_order_compatible_implies_valid(self):
        rng = np.random.default_rng(404)
        for direction in ("A<B", "B<A"):
            proc = channel_process(
                random_density(rng, 2), random_channel_choi(rng, 2, 2), direction
            )
            assert check_order(proc, direction).compatible
            assert validate_process(proc).valid


def perturbed(proc: ProcessMatrix, seed: int, size: float = 1e-2) -> ProcessMatrix:
    """The process plus a random Hermitian term of max entry ``size``: every residual is nonzero."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=proc.op.matrix.shape) + 1j * rng.normal(size=proc.op.matrix.shape)
    h = g + g.conj().T
    return ProcessMatrix(LabeledOperator(proc.op.wires, proc.op.matrix + size * h / np.max(np.abs(h))), proc.parties)


def mixed_dims_process() -> ProcessMatrix:
    """rho (x) C (x) I on A_I:2, A_O:3, B_I:2, B_O:3, with C a channel from A_O to B_I: A<B."""
    rng = np.random.default_rng(919)
    wires = (WireLabel("A_I", 2), WireLabel("A_O", 3), WireLabel("B_I", 2), WireLabel("B_O", 3))
    mat = np.kron(np.kron(random_density(rng, 2), random_channel_choi(rng, 3, 2)), np.eye(3))
    return ProcessMatrix(LabeledOperator(wires, mat), (PartySlot("A", "A_I", "A_O"), PartySlot("B", "B_I", "B_O")))


def ancilla_process() -> ProcessMatrix:
    """A random qutrit process with a qubit-qutrit state adjoined, one wire per party."""
    rng = np.random.default_rng(929)
    state = LabeledOperator((WireLabel("A'", 2), WireLabel("B'", 3)), random_density(rng, 6))
    return extend_with_state(random_process(rng, 3), state, assign={"A'": "A", "B'": "B"})


ORDER_SEEDS = {"A<B": 1, "B<A": 2}

RESIDUAL_CASES = {
    **{f"random-d{d}": lambda d=d: random_process(np.random.default_rng([808, d]), d) for d in (2, 3, 4, 5)},
    "mixed-dims": mixed_dims_process,
    "ancilla": ancilla_process,
}


def bumped(proc: ProcessMatrix, wire: str, size: float = 1e-3) -> ProcessMatrix:
    """The process plus ``size`` (|0><0| - |1><1|) on one output wire and identities elsewhere."""
    factors = [np.eye(w.dim) for w in proc.op.wires]
    flip = np.zeros(proc.wire(wire).dim)
    flip[:2] = (1.0, -1.0)
    factors[proc.op.names.index(wire)] = np.diag(flip)
    bump = functools.reduce(np.kron, factors)
    return ProcessMatrix(LabeledOperator(proc.op.wires, proc.op.matrix + size * bump), proc.parties)


class TestReducedResiduals:
    """Residuals taken on reduced tensors equal the dense kron-and-permute definitions."""

    @pytest.mark.parametrize("shift", [False, True], ids=["process", "perturbed"])
    @pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
    def test_every_residual_matches_dense_reference(self, case, shift):
        proc = RESIDUAL_CASES[case]()
        if shift:
            proc = perturbed(proc, seed=len(case))
        want = reference_residuals(proc)
        got = {"validity": dict(validate_process(proc).constraint_residuals)}
        for order in ("A<B", "B<A", "no-signaling"):
            got[order] = dict(check_order(proc, order).residuals)
        assert {k: set(v) for k, v in got.items()} == {k: set(v) for k, v in want.items()}
        for key, residuals in want.items():
            for name, value in residuals.items():
                assert got[key][name] == pytest.approx(value, abs=1e-15), (key, name)
                assert value > 1e-6 or not shift, (key, name)

    def test_no_kron_no_permutation_one_hermiticity_pass(self, monkeypatch):
        from causalkit import processes, tensor

        proc = random_process(np.random.default_rng(5), 3)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense kron or wire permutation on the validity path")

        for module in (processes, tensor):
            for name in ("kron", "permute_wires"):
                monkeypatch.setattr(module, name, forbidden)
        monkeypatch.setattr(np, "kron", forbidden)
        calls = []
        defect = tensor.hermiticity_defect

        def counted(op):
            calls.append(op)
            return defect(op)

        monkeypatch.setattr(processes, "hermiticity_defect", counted)
        monkeypatch.setattr(tensor, "hermiticity_defect", counted)
        assert validate_process(proc).valid
        assert len(calls) == 1
        for order in ("A<B", "B<A", "no-signaling"):
            check_order(proc, order)

    def test_mixed_dims_process_is_valid_and_ordered(self):
        proc = mixed_dims_process()
        assert validate_process(proc).valid
        assert check_order(proc, "A<B").compatible
        assert not check_order(proc, "B<A").compatible

    @pytest.mark.parametrize("wire", ["A_O", "B_O"])
    @pytest.mark.parametrize("direction", ["A<B", "B<A"])
    @pytest.mark.parametrize("d", [3, 5])
    def test_signalling_bump_is_flagged(self, d, direction, wire):
        rng = np.random.default_rng([d, ORDER_SEEDS[direction]])
        proc = channel_process(random_density(rng, d), random_channel_choi(rng, d, d), direction)
        assert validate_process(proc).valid
        assert check_order(proc, direction).compatible
        bad = bumped(proc, wire)
        report = validate_process(bad)
        assert not report.valid
        assert max(r for _, r in report.constraint_residuals) > 1e-5
        assert not check_order(bad, direction).compatible

    def test_relative_residuals_divide_by_largest_entry(self):
        proc = perturbed(random_process(np.random.default_rng(31), 3), seed=3)
        report = validate_process(proc)
        assert report.scale == np.max(np.abs(proc.op.matrix))
        for (name, r), (rel_name, rel) in zip(report.constraint_residuals, report.relative_residuals):
            assert rel_name == name
            assert rel == r / report.scale
        zero = ProcessMatrix(LabeledOperator(proc.op.wires, 0 * proc.op.matrix), proc.parties)
        assert all(np.isnan(r) for _, r in validate_process(zero).relative_residuals)
        # The three reduction residuals are linear in W, so their relative values are scale-free.
        big = ProcessMatrix(LabeledOperator(proc.op.wires, 4 * proc.op.matrix), proc.parties)
        np.testing.assert_allclose(
            [r for _, r in validate_process(big).relative_residuals[1:]],
            [r for _, r in report.relative_residuals[1:]],
            rtol=1e-12,
        )


THREE_PARTIES = tuple(PartySlot(n, f"{n}_I", f"{n}_O") for n in "ABC")


def classical_process(process: ClassicalProcess3) -> ProcessMatrix:
    """W = sum_o |f(o)><f(o)|_I (x) |o><o|_O on six qubit wires, I = (A_I, B_I, C_I), O = (A_O, B_O, C_O)."""
    diagonal = np.zeros((2,) * 6)
    for o in product(range(2), repeat=3):
        f = process.table[4 * o[0] + 2 * o[1] + o[2]]
        diagonal[f[0], o[0], f[1], o[1], f[2], o[2]] = 1.0
    wires = tuple(WireLabel(n, 2) for p in THREE_PARTIES for n in (p.input_wire, p.output_wire))
    return ProcessMatrix(LabeledOperator(wires, np.diag(diagonal.reshape(-1))), THREE_PARTIES)


# The causal chain A -> B -> C: each party receives its predecessor's output.
CHAIN = ClassicalProcess3(tuple((0, o[0], o[1]) for o in product(range(2), repeat=3)))


def edits_of_ebw() -> list[ClassicalProcess3]:
    """Every table that differs from E_BW's in exactly one of its eight entries: 8 x 7 = 56."""
    table = ebw_process().table
    return [
        ClassicalProcess3(table[:k] + (flags,) + table[k + 1 :])
        for k in range(8)
        for flags in product(range(2), repeat=3)
        if flags != table[k]
    ]


class TestTripartite:
    """Validity at N = 3, against Baumeler and Wolf's logical consistency of classical processes."""

    def test_ebw_has_every_component_exactly_zero(self):
        report = validate_process(classical_process(ebw_process()))
        assert len(report.constraint_residuals) == 2**3  # seven components plus normalization
        assert all(r == 0.0 for _, r in report.constraint_residuals)
        assert report.valid

    def test_validity_is_logical_consistency(self):
        # Every edit of E_BW is inconsistent, and so almost every random table; E_BW and the
        # causal chain A -> B -> C are consistent.
        rng = np.random.default_rng(2016)
        randoms = [ClassicalProcess3(tuple(map(tuple, rng.integers(0, 2, (8, 3))))) for _ in range(200)]
        tables = [ebw_process(), CHAIN] + edits_of_ebw() + randoms
        assert len(tables) == 2 + 56 + 200
        verdicts = [(validate_process(classical_process(t)).valid, is_logically_consistent(t)) for t in tables]
        assert all(valid == consistent for valid, consistent in verdicts)
        assert {consistent for _, consistent in verdicts} == {True, False}

    @pytest.mark.parametrize("seed", range(3))
    def test_every_component_matches_dense_reference(self, seed):
        proc = perturbed(classical_process(ebw_process()), seed)
        got = dict(validate_process(proc).constraint_residuals)
        assert got.pop("normalization") == pytest.approx(abs(np.trace(proc.op.matrix) - 8), abs=1e-12)
        want = reference_components(proc)
        assert set(got) == set(want) and len(want) == 7
        for name, value in want.items():
            assert got[name] == pytest.approx(value, abs=1e-12), name
            assert value > 1e-6, name


ORDERS3 = ["<".join(names) for names in permutations("ABC")] + ["no-signaling"]


class TestTripartiteOrder:
    """Causal order at N = 3: one condition (1 - R_{O_k}) Tr_{labs after k} W = 0 per party."""

    def test_ebw_fits_no_order(self):
        proc = classical_process(ebw_process())
        for order in ORDERS3:
            report = check_order(proc, order)
            assert len(report.residuals) == 3
            assert not report.compatible, order

    def test_chain_fits_its_own_order_only(self):
        proc = classical_process(CHAIN)
        verdicts = {order: check_order(proc, order).compatible for order in ORDERS3}
        assert verdicts == {order: order == "A<B<C" for order in ORDERS3}
        assert [name for name, _ in check_order(proc, "A<B<C").residuals] == [
            "C output ignored",
            "B output flat once C is traced",
            "A output flat once B and C are traced",
        ]

    @pytest.mark.parametrize("order", ORDERS3)
    @pytest.mark.parametrize("table", [ebw_process(), CHAIN], ids=["ebw", "chain"])
    def test_every_residual_matches_dense_reference(self, table, order):
        proc = perturbed(classical_process(table), seed=22)
        got = dict(check_order(proc, order).residuals)
        want = reference_order(proc, order)
        assert set(got) == set(want) and len(want) == 3
        for name, value in want.items():
            assert got[name] == pytest.approx(value, abs=1e-12), name
            assert value > 1e-6, name

    @pytest.mark.parametrize("order", ["A<B<A", "A<A<B<C", "A<B", "A<B<D", "A<B<C<D", "a<b<c", "A<B<C<", "A<<B<C"])
    def test_order_must_name_every_party_once(self, monkeypatch, order):
        from causalkit import processes

        def forbidden(*args, **kwargs):
            raise AssertionError("reduction before the order was read")

        monkeypatch.setattr(processes, "add_replaced", forbidden)
        with pytest.raises(ValueError, match="unknown order token"):
            check_order(classical_process(CHAIN), order)


class TestQutritNormalization:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_validity_trace_condition(self, seed):
        proc = random_process(np.random.default_rng(seed), 3)
        trace = np.trace(proc.op.matrix)
        assert trace == pytest.approx(9.0, abs=1e-12)
        report = validate_process(proc)
        assert report.valid
        assert dict(report.constraint_residuals)["normalization"] == abs(trace - 9)

    @pytest.mark.parametrize("game", ["guessing", "retrieval"])
    @pytest.mark.parametrize("direction", ["A<B", "B<A"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_behaviour_marginals(self, d, direction, game):
        # The party acting first learns neither the other's input nor the code (its code
        # wire is I/d for every code): its outcome marginal ignores both, so it wins 1/d.
        rng = np.random.default_rng([303, ORDER_SEEDS[direction], d])
        first = 0 if direction == "A<B" else 1
        for _ in range(4):
            proc = channel_process(random_density(rng, d), random_channel_choi(rng, d, d), direction)
            lab = [((proc.wire(f"{p}_I"),), (proc.wire(f"{p}_O"),)) for p in ("A", "B")]
            if game == "guessing":
                arms = tuple(PartyArm(tuple(random_instrument(rng, i, o, d) for _ in range(d))) for i, o in lab)
                table = behaviour(GameStrategy(proc, arms))  # P[x, y, a, b]
                assert table.shape == (d,) * 4
                marginal, across = table.sum(axis=3 - first), 1 - first  # across the other's input
            else:
                arms = tuple(
                    PartyArm((random_instrument(rng, (WireLabel(p, d),) + i, o, d),)) for p, (i, o) in zip("AB", lab)
                )
                s = GameStrategy(proc, arms)
                table = behaviour(s, coded_pairs(d, s.state_wires))  # P[x1, x2, x, y, a, b]
                assert table.shape == (d, d, 1, 1, d, d)
                table = table.reshape(d * d, d, d)
                marginal, across = table.sum(axis=2 - first), 0  # across the code
            assert table.min() >= -1e-12
            np.testing.assert_allclose(table.sum(axis=(-2, -1)), 1.0, atol=1e-12)
            assert np.ptp(marginal, axis=across).max() <= 1e-12

    def test_cyril_first_marginal_depends_on_the_other_input(self):
        # The counter-case: on cyril, A's outcome marginal moves with B's input by 1/(2 sqrt 2).
        table = behaviour(cyril_gyni_strategy())
        assert np.ptp(table.sum(axis=3), axis=1).max() == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)


def word_powers(d: int, word: str) -> np.ndarray:
    """sum_{j=1}^{d-1} T^j, with T the kron of the d-dimensional Paulis that ``word`` names (I, X, Z)."""
    t = functools.reduce(np.kron, ({"I": np.eye(d), "X": pauli_xd(d), "Z": pauli_zd(d)}[c] for c in word))
    return sum(np.linalg.matrix_power(t, j) for j in range(1, d))


class TestOrderMixture:
    """Failing every order is not indefiniteness: W_d = (1/d^2)[I + (1/2) sum_j (T1^j + T2^j)],
    T1 = ZZZI and T2 = ZIXX, is the even mixture of an A<B and a B<A process."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_mixture_of_two_orders_fails_every_order(self, d):
        def process(mat: np.ndarray) -> ProcessMatrix:
            return party_process(LabeledOperator(sum(lab_wires(d), ()), mat / d**2))

        eye, t1, t2 = np.eye(d**4), word_powers(d, "ZZZI"), word_powers(d, "ZIXX")
        w, first, second = process(eye + (t1 + t2) / 2), process(eye + t1), process(eye + t2)
        assert validate_process(w).valid
        assert not any(check_order(w, order).compatible for order in ORDER_TOKENS)
        assert validate_process(first).valid and check_order(first, "A<B").compatible
        assert validate_process(second).valid and check_order(second, "B<A").compatible
        assert np.max(np.abs((first.op.matrix + second.op.matrix) / 2 - w.op.matrix)) <= 1e-16


class TestExtendWithState:
    def test_extension_stays_valid(self):
        state = LabeledOperator(
            (WireLabel("A'", 2), WireLabel("B'", 2)), phi_plus()
        )
        ext = extend_with_state(build_cyril(), state, assign={"A'": "A", "B'": "B"})
        assert validate_process(ext).valid
        assert ext.party("A").extra_wires == ("A'",)
        ok, _ = is_ppt_cut(ext, "A")  # cut now includes the ancilla wires
        assert isinstance(ok, bool)

    def test_rejects_unnormalized(self):
        state = LabeledOperator((WireLabel("A'", 2),), np.eye(2))
        with pytest.raises(ValueError, match="not normalized"):
            extend_with_state(build_cyril(), state)

    def test_rejects_non_psd(self):
        state = LabeledOperator((WireLabel("A'", 2),), np.diag([1.5, -0.5]))
        with pytest.raises(ValueError, match="positive"):
            extend_with_state(build_cyril(), state)

    def test_rejects_wire_clash(self):
        state = LabeledOperator((WireLabel("A_I", 2),), np.eye(2) / 2)
        with pytest.raises(ValueError, match="already used"):
            extend_with_state(build_cyril(), state)

    def test_rejects_unknown_party(self):
        # A wire assigned to no party of the process would stay unassigned.
        state = LabeledOperator((WireLabel("A'", 2),), np.eye(2) / 2)
        with pytest.raises(ValueError, match=r"unknown parties \['Z'\]; process has \['A', 'B'\]"):
            extend_with_state(build_cyril(), state, assign={"A'": "Z"})

    def test_one_hermiticity_pass_on_the_state(self, monkeypatch):
        from causalkit import processes, tensor

        calls = []
        defect = tensor.hermiticity_defect

        def counted(op):
            calls.append(op)
            return defect(op)

        monkeypatch.setattr(processes, "hermiticity_defect", counted)
        monkeypatch.setattr(tensor, "hermiticity_defect", counted)
        state = LabeledOperator((WireLabel("X", 3),), random_density(np.random.default_rng(6), 3))
        extend_with_state(build_cyril(), state)
        assert len(calls) == 1

    def test_dense_view_is_the_kron_at_d3(self):
        rng = np.random.default_rng(303)
        proc = random_process(rng, 3)
        state = LabeledOperator(
            (WireLabel("A'", 3), WireLabel("B'", 3)), random_density(rng, 9)
        )
        ext = extend_with_state(proc, state, assign={"A'": "A", "B'": "B"})
        assert ext.factors[0] is proc.op and ext.factors[1] is state
        assert ext.op.names == ("A_I", "A_O", "B_I", "B_O", "A'", "B'")
        np.testing.assert_array_equal(ext.op.matrix, np.kron(proc.op.matrix, state.matrix))

    def test_one_factor_view_is_the_factor(self):
        proc = build_cyril()
        assert proc.op is proc.factors[0]
        state = LabeledOperator((WireLabel("A'", 2),), np.eye(2) / 2)
        ext = extend_with_state(proc, state, assign={"A'": "A"})
        # No dense W (x) state is stored: the pickle holds the two factors only.
        factors_bytes = proc.op.matrix.nbytes + state.matrix.nbytes
        assert len(pickle.dumps(ext)) < 2 * factors_bytes

    def test_unassigned_wires_block_ppt(self):
        state = LabeledOperator((WireLabel("A'", 2),), np.eye(2) / 2)
        ext = extend_with_state(build_cyril(), state)
        with pytest.raises(ValueError, match="ambiguous"):
            is_ppt_cut(ext, "A")


class TestSerialization:
    def test_round_trip(self):
        proc = build_cyril()
        back = load_process(dump_process(proc))
        assert back.parties == proc.parties
        np.testing.assert_array_equal(back.op.matrix, proc.op.matrix)

    def test_header_format(self):
        text = dump_process(build_cyril())
        assert text.splitlines()[0] == "parties: A=(A_I,A_O);B=(B_I,B_O)"

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="parties"):
            load_process("wires: A:2\n1+0j 0+0j\n0+0j 1+0j\n")

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
    def test_random_round_trip_is_bit_exact(self, seed, d):
        proc = random_process(np.random.default_rng(seed), d)
        back = load_process(dump_process(proc))
        assert back.parties == proc.parties
        assert back.op.wires == proc.op.wires
        assert back.op.matrix.tobytes() == proc.op.matrix.tobytes()

    def test_d4_round_trip_is_bit_exact(self):
        proc = random_process(np.random.default_rng(44), 4)
        back = load_process(dump_process(proc))
        assert back.op.wires == proc.op.wires
        assert back.op.matrix.tobytes() == proc.op.matrix.tobytes()

    def test_crlf_and_blank_lines_round_trip(self):
        proc = random_process(np.random.default_rng(45), 3)
        lines = dump_process(proc).splitlines()
        texts = ["\r\n".join(lines), "\n\n".join(lines[:3]) + "\n \r\n\t\n" + "\n".join(lines[3:]) + "\n\n"]
        for text in texts:
            back = load_process(text)
            assert back.parties == proc.parties
            assert back.op.matrix.tobytes() == proc.op.matrix.tobytes()

    def test_header_must_open_the_text(self):
        with pytest.raises(ValueError, match="'parties:' header"):
            load_process("\n" + dump_process(build_cyril()))
        with pytest.raises(ValueError, match="^expected 16 matrix rows, found 17$"):
            load_process(dump_process(build_cyril()) + "0+0j\n")


def dense_flat(op: LabeledOperator, outputs, traced=()) -> float:
    """The residual of ``processes._flat`` by the dense formulas: each R term added by one broadcast
    into an einsum diagonal view of a copy of Tr_X W, and the moduli taken into a new array."""
    reduced = partial_trace(op, traced)
    tensor, n = reduced.as_tensor(), len(reduced.wires)
    out = tensor.copy()
    for k in range(1, len(outputs) + 1):
        for s in combinations(outputs, k):
            axes = tuple(reduced.names.index(o) for o in s)
            sub = [i if i < n or i - n not in axes else i - n for i in range(2 * n)]
            kept = list(range(n)) + [n + i for i in range(n) if i not in axes]
            diagonal = np.einsum(out, sub, kept)
            diagonal += (-1.0) ** k * np.einsum(tensor, sub, kept).sum(axis=axes, keepdims=True) / math.prod(
                reduced.dims[i] for i in axes)
    return float(np.max(np.abs(out))) / (op.total_dim // reduced.total_dim)


def _fresh_processes() -> list[ProcessMatrix]:
    """Seeded random processes at d = 2..5 and one with a qubit state on A's side."""
    procs = [random_process(np.random.default_rng([4500, d]), d) for d in (2, 3, 4, 5)]
    state = LabeledOperator((WireLabel("X", 2),), np.diag([0.25, 0.75]))
    return procs + [extend_with_state(procs[1], state, {"X": "A"})]


class TestScratchBuffers:
    """The dense checks work from views of W and one scratch buffer, with the bits of the dense formulas."""

    @pytest.mark.parametrize("index", range(5))
    def test_residuals_are_bit_identical(self, index):
        proc = _fresh_processes()[index]
        (a_i, a_o), (b_i, b_o) = ((p.input_wire, p.output_wire) for p in proc.parties)
        w = proc.op
        m = w.matrix
        report = validate_process(proc)
        assert report.hermiticity == np.max(np.abs(m - m.conj().T))
        assert report.min_eig == np.linalg.eigvalsh((m + m.conj().T) / 2)[0]
        assert is_ppt_cut(proc, "A")[1] == own_pt_min_eig(proc, "A")
        assert dict(report.constraint_residuals) == {
            "normalization": abs(complex(np.trace(m)) - proc.output_dim),
            "no signaling to B's past": dense_flat(w, [b_o], {a_i, a_o}),
            "no signaling to A's past": dense_flat(w, [a_o], {b_i, b_o}),
            "affine closure": dense_flat(w, [a_o, b_o]),
        }
        orders = {o: dict(check_order(proc, o).residuals) for o in ORDER_TOKENS}
        assert orders == {
            "A<B": {"B output ignored": dense_flat(w, [b_o]),
                    "A output flat once B is traced": dense_flat(w, [a_o], {b_i, b_o})},
            "B<A": {"A output ignored": dense_flat(w, [a_o]),
                    "B output flat once A is traced": dense_flat(w, [b_o], {a_i, a_o})},
            "no-signaling": {"B output ignored": dense_flat(w, [b_o]), "A output ignored": dense_flat(w, [a_o])},
        }

    def test_memory_peaks_near_one_w(self):
        # tracemalloc sees numpy's buffers. Each step may take 1.5 W above what it is handed: the
        # text for the reader (its result, W itself, counts), W for the checks. A copy of W for each
        # step of the dense formulas takes 1.6 to 3.1 W here.
        source = random_process(np.random.default_rng(4501), 4)
        text, w_bytes = dump_process(source), source.op.matrix.nbytes
        peaks = {}

        def traced(name, call):
            tracemalloc.start()
            try:
                result = call()
                peaks[name] = tracemalloc.get_traced_memory()[1] / w_bytes
            finally:
                tracemalloc.stop()
            return result

        proc = traced("load_process", lambda: load_process(text))
        traced("validate_process", lambda: validate_process(proc))
        traced("check_order x3", lambda: [check_order(proc, o) for o in ORDER_TOKENS])
        traced("is_ppt_cut x2", lambda: [is_ppt_cut(proc, side) for side in "AB"])
        assert max(peaks.values()) <= 1.5, peaks


# Edits to a valid dump: (kind, line index, token index, replacement text).
# Half the edits hit the header lines, and besides arbitrary text a
# replacement may be a token the parser treats specially.
TOKENS = st.sampled_from(["nan+0j", "1e999j", "A_I:1", "A_I:3", "A_I:2,A_I:2", "A=(A_I)", "B=(A_I,A_O)", ""])
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["drop", "duplicate", "replace"]),
        st.one_of(st.integers(0, 1), st.integers(0, 99)),
        st.integers(0, 99),
        st.one_of(st.text(), TOKENS),
    ),
    min_size=1,
    max_size=4,
)


def mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for kind, line, token, replacement in mutations:
        if not lines:
            break
        line %= len(lines)
        if kind == "drop":
            del lines[line]
        elif kind == "duplicate":
            lines.insert(line, lines[line])
        else:
            tokens = lines[line].split(" ")
            tokens[token % len(tokens)] = replacement
            lines[line] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestLoaderFuzz:
    """A mutated dump either loads or raises ValueError, never anything else."""

    @settings(max_examples=150, deadline=None)
    @given(MUTATIONS)
    def test_operator_dump(self, mutations):
        try:
            load_operator(mutate(dump_operator(build_cyril().op), mutations).splitlines())
        except ValueError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(MUTATIONS)
    def test_process_dump(self, mutations):
        try:
            load_process(mutate(dump_process(build_cyril()), mutations))
        except ValueError:
            pass


def _qubits(*names: str) -> LabeledOperator:
    return LabeledOperator(tuple(WireLabel(n, 2) for n in names), np.eye(2 ** len(names)) / 2 ** len(names))


class TestInputChecks:
    """Input checks that no other test reaches, each through its public entry point."""

    @pytest.mark.parametrize(
        "call, error, fragment",
        [
            pytest.param(lambda: ProcessMatrix((), ()), ValueError, "at least one factor", id="no-factor"),
            pytest.param(
                lambda: ProcessMatrix((_qubits("A_I"), _qubits("A_I")), ()), ValueError, "share wires", id="shared"
            ),
            pytest.param(
                lambda: ProcessMatrix(
                    _qubits("A_I", "A_O", "B_I", "B_O"),
                    (PartySlot("A", "A_I", "A_O"), PartySlot("A", "B_I", "B_O")),
                ),
                ValueError,
                "duplicate party names",
                id="party-names",
            ),
            pytest.param(
                lambda: ProcessMatrix(
                    _qubits("A_I", "A_O", "B_I", "B_O"),
                    (PartySlot("A", "A_I", "A_O"), PartySlot("B", "A_I", "B_O")),
                ),
                ValueError,
                "overlapping wires",
                id="party-wires",
            ),
            pytest.param(lambda: build_cyril().party("C"), KeyError, "no party 'C'", id="party"),
            pytest.param(
                lambda: dict(validate_process(build_cyril()).constraint_residuals)["positivity"],
                KeyError,
                "'positivity'",
                id="report",
            ),
            pytest.param(
                lambda: extend_with_state(build_cyril(), _qubits("X"), {"Y": "A"}),
                ValueError,
                "unknown wires ['Y']",
                id="assign-wire",
            ),
            pytest.param(
                lambda: load_process("parties: A=(A_I);B=(B_I,B_O)\n" + dump_operator(build_cyril().op)),
                ValueError,
                "party 'A' needs at least input and output wires",
                id="one-wire-party",
            ),
            pytest.param(
                lambda: load_process("parties: =(A_I,A_O);B=(B_I,B_O)\n" + dump_operator(build_cyril().op)),
                ValueError,
                "party entry '=(A_I,A_O)' has an empty party or wire name",
                id="empty-party-name",
            ),
            pytest.param(
                lambda: load_process("parties: A=(,);B=(B_I,B_O)\n" + dump_operator(build_cyril().op)),
                ValueError,
                "party entry 'A=(,)' has an empty party or wire name",
                id="empty-wire-names",
            ),
            pytest.param(
                lambda: PartySlot("A", "A_I", "A_O", ("",)), ValueError, "'A=(A_I,A_O,)'", id="empty-extra-wire"
            ),
            pytest.param(
                lambda: shared_state_process(2 * np.eye(4) / 4), ValueError, "state is not normalized", id="shared-trace"
            ),
            pytest.param(
                lambda: shared_state_process(np.diag([1.5, -0.5, 0.0, 0.0])),
                ValueError,
                "state is not positive",
                id="shared-psd",
            ),
            pytest.param(
                lambda: shared_state_process(np.triu(np.ones((4, 4))) / 4),
                ValueError,
                "state is not positive",
                id="shared-hermitian",
            ),
            pytest.param(
                lambda: channel_process(np.eye(2), identity_choi(), "B<A"),
                ValueError,
                "state is not normalized",
                id="channel-state-trace",
            ),
            pytest.param(
                lambda: channel_process(np.diag([1.5, -0.5]), identity_choi()),
                ValueError,
                "state is not positive",
                id="channel-state-psd",
            ),
            pytest.param(
                lambda: channel_process(np.eye(2) / 2, np.eye(4)),
                ValueError,
                "channel Choi operator is not normalized (trace != 2)",
                id="choi-trace",
            ),
            pytest.param(
                lambda: channel_process(np.eye(2) / 2, np.diag([1.5, -0.5, 0.5, 0.5])),
                ValueError,
                "channel Choi operator is not positive",
                id="choi-psd",
            ),
            pytest.param(
                lambda: channel_process(np.eye(2) / 2, np.diag([2.0, 0.0, 0.0, 0.0]), "B<A"),
                ValueError,
                "channel is not trace preserving",
                id="choi-trace-preserving",
            ),
        ],
    )
    def test_raises(self, call, error, fragment):
        with pytest.raises(error) as exc:
            call()
        assert fragment in str(exc.value)

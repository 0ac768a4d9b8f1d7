"""The benchmark's workloads: seeded inputs, the timed operation, and its checks.

Each workload builds its inputs from ``(seed, index)`` alone, hands the
program only those inputs, and checks every result outside the timed region
against a computation of the benchmark's own or a property the result must
have, never against a stored copy of an earlier output.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
exits (code 1) when that tree is missing or another causalkit gets imported,
so a benchmark run can never measure an installed copy by mistake.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import pickle
import resource
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "causalkit" / "__init__.py").is_file():
    raise SystemExit(f"bench: no causalkit source tree at {SRC}")
sys.path.insert(0, str(SRC))
import causalkit as ck  # noqa: E402
import causalkit.sampling as sampling  # noqa: E402

if Path(ck.__file__).resolve().parent != (SRC / "causalkit").resolve():
    raise SystemExit(f"bench: imported causalkit from {ck.__file__}, not from {SRC}")

TOL = 1e-9
PARTY_WIRES = ("A_I", "A_O", "B_I", "B_O")


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's source comes first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def input_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _expect_wires(op, names: tuple[str, ...]) -> None:
    if op.names != names:
        raise ValueError(f"expected wires {names}, got {op.names}")


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


class Workload:
    """A workload provides ``build(seed, index, outdir)`` (write input
    ``index``), ``load(outdir, index)``, the timed ``op(input)`` and
    ``check(input, result)``, which returns a failure reason or None. The
    defaults below time one in-process operation."""

    name = ""
    n_inputs = 3

    def in_process_op(self, inp):
        """The operation as the traced run times it: in this process, where
        the tracer's wrappers can see it."""
        return self.op(inp)

    def run_check(self, inputs) -> str | None:
        return None

    def cpu_s(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)


# ---------------------------------------------------------------------------
# manifest-cold

MANIFEST_CLAIMS = (
    "gyni-cyril-value", "process-cyril-valid", "process-cyril-unordered",
    "process-cyril-ppt", "process-cyril-separable", "gyni-relay-value",
    "gyni-constant-value", "drb-pauli-y-value", "drb-cyril-dual-value",
    "duality-gyni2dr-cyril", "duality-dr2gyni-pauli-y", "duality-random-d2",
    "duality-random-d3", "readout-correlation", "process-shared-bell-npt",
    "classical-tdr-ebw", "classical-tdr-branches", "classical-tdr-no-collab",
    "classical-tdr-relay", "classical-ftdr-ebw", "classical-ftdr-definite",
    "mutation-resend-same-detected", "codes-hide-marginals",
)
# The paper's exact classical values; each record's computed text starts with it.
CLASSICAL_VALUES = {
    "classical-tdr-ebw": Fraction(27, 32),
    "classical-tdr-relay": Fraction(3, 4),
    "classical-tdr-no-collab": Fraction(27, 64),
    "classical-ftdr-ebw": Fraction(27, 32),
    "classical-ftdr-definite": Fraction(21, 32),
}
CYRIL_CLAIMS = ("gyni-cyril-value", "drb-cyril-dual-value")


class ManifestCold(Workload):
    """``causalkit manifest --json`` in a fresh interpreter per operation."""

    name = "manifest-cold"
    n_inputs = 0  # a set-up is a cold import of causalkit.cli; nothing is built

    def build(self, seed: int, index: int, outdir: Path) -> None:
        importlib.import_module("causalkit.cli")

    def load(self, outdir: Path, index: int):
        return None

    def op(self, inp):
        proc = subprocess.run(
            [sys.executable, "-m", "causalkit.cli", "manifest", "--json"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=150,
        )
        return proc.returncode, proc.stdout

    def in_process_op(self, inp):
        cli = importlib.import_module("causalkit.cli")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["manifest", "--json"])
        return code, buf.getvalue()

    def check(self, inp, out) -> str | None:
        code, text = out
        if code != 0:
            return f"manifest exited with {code}"
        records = {r["claim_id"]: r for r in json.loads(text)["records"]}
        missing = sorted(set(MANIFEST_CLAIMS) - set(records))
        if missing:
            return f"manifest lacks claims {missing}"
        failing = sorted(k for k, r in records.items() if r["status"] != "pass")
        if failing:
            return f"manifest claims not passing: {failing}"
        for claim, value in CLASSICAL_VALUES.items():
            got = Fraction(records[claim]["computed"].split()[0])
            if got != value:
                return f"{claim}: {got} != {value}"
        cyril = (5 / 16) * (1 + 1 / np.sqrt(2))
        for claim in CYRIL_CLAIMS:
            got = float(records[claim]["computed"])
            if abs(got - cyril) > TOL:
                return f"{claim}: {got!r} is not (5/16)(1+1/sqrt 2) = {cyril!r}"
        return None

    def cpu_s(self) -> float:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_CHILDREN)


# ---------------------------------------------------------------------------
# duality-d4

def _bell_density(d: int, x1: int, x2: int) -> np.ndarray:
    """|B^x><B^x| with |B^x> = d^-1/2 sum_k w^(x2 k) |k>|k+x1>, wires (A, B)."""
    vec = np.zeros(d * d, dtype=complex)
    for k in range(d):
        vec[k * d + (k + x1) % d] = np.exp(2j * np.pi * x2 * k / d) / np.sqrt(d)
    return np.outer(vec, vec.conj())


def gyni_value(strategy) -> float:
    """Mean over inputs (i1, i2) of P(a = i2, b = i1), as Tr[W (M_A kron M_B)]."""
    w = strategy.process.op
    _expect_wires(w, PARTY_WIRES)
    arm_a, arm_b = strategy.parties
    d = len(arm_a.instruments)
    total = 0.0
    for i1, i2 in product(range(d), repeat=2):
        ma, mb = arm_a.instruments[i1].ops[i2], arm_b.instruments[i2].ops[i1]
        _expect_wires(ma, PARTY_WIRES[:2])
        _expect_wires(mb, PARTY_WIRES[2:])
        total += np.sum(w.matrix * np.kron(ma.matrix, mb.matrix).T).real
    return total / d**2


def dr_value(strategy) -> float:
    """Mean over codes x of P(a = x1, b = x2), code pair on wires (A, B)."""
    w = strategy.process.op
    _expect_wires(w, PARTY_WIRES)
    if strategy.state_wires != ("A", "B"):
        raise ValueError(f"expected code wires ('A', 'B'), got {strategy.state_wires}")
    ins_a, ins_b = (arm.instruments[0] for arm in strategy.parties)
    _expect_wires(ins_a.ops[0], ("A", "A_I", "A_O"))
    _expect_wires(ins_b.ops[0], ("B", "B_I", "B_O"))
    d = ins_a.n_outcomes
    w8 = w.matrix.reshape((d,) * 8)
    total = 0.0
    for x1, x2 in product(range(d), repeat=2):
        rho = _bell_density(d, x1, x2).reshape((d,) * 4)
        ma = ins_a.ops[x1].matrix.reshape((d,) * 6)
        mb = ins_b.ops[x2].matrix.reshape((d,) * 6)
        # Tr[(W kron rho)(M_A kron M_B)]: an effect's rows carry the carrier's
        # column indices. W: rows ijkl, cols mnop; rho: rows qr, cols st.
        total += np.einsum("ijklmnop,qrst,smnqij,toprkl->", w8, rho, ma, mb, optimize=True).real
    return total / d**2


class DualityD4(Workload):
    """One seeded strategy per direction at d=4, certified by ``check_duality``."""

    name = "duality-d4"
    d = 4

    def build(self, seed: int, index: int, outdir: Path) -> None:
        rng = input_rng(seed, index)
        pair = (sampling.random_gyni_strategy(rng, self.d), sampling.random_dr_strategy(rng, self.d))
        (outdir / f"{self.name}-{index}.pkl").write_bytes(pickle.dumps(pair))

    def load(self, outdir: Path, index: int):
        # Only this benchmark's own set-up wrote these bytes.
        return pickle.loads((outdir / f"{self.name}-{index}.pkl").read_bytes())

    def op(self, inp):
        gyni, dr = inp
        return ck.check_duality(gyni, "gyni2dr"), ck.check_duality(dr, "dr2gyni")

    def check(self, inp, out) -> str | None:
        for cert, own in zip(out, (gyni_value(inp[0]), dr_value(inp[1]))):
            values = (cert.source_value, cert.target_value, own)
            if not all(0.0 <= v <= 1.0 for v in values):
                return f"{cert.direction}: value outside [0, 1]: {values}"
            if abs(cert.source_value - own) > TOL:
                return f"{cert.direction}: source {cert.source_value!r} != independent {own!r}"
            if abs(cert.target_value - own) > TOL:
                return f"{cert.direction}: target {cert.target_value!r} does not preserve {own!r}"
        return None


# ---------------------------------------------------------------------------
# validity-d5

def pt_min_eigenvalue(matrix: np.ndarray, d: int, party: int) -> float:
    """Smallest eigenvalue after transposing party 0's or 1's two wires."""
    axes = list(range(8))
    for a in (2 * party, 2 * party + 1):
        axes[a], axes[4 + a] = axes[4 + a], axes[a]
    pt = matrix.reshape((d,) * 8).transpose(axes).reshape(d**4, d**4)
    return float(np.linalg.eigvalsh(pt)[0])


class ValidityD5(Workload):
    """Read back a d=5 process dump, then validity, order and PPT checks."""

    name = "validity-d5"
    d = 5

    def build(self, seed: int, index: int, outdir: Path) -> None:
        proc = sampling.random_process(input_rng(seed, index), self.d)
        (outdir / f"{self.name}-{index}.txt").write_text(ck.dump_process(proc))
        np.save(outdir / f"{self.name}-{index}.npy", proc.op.matrix)

    def load(self, outdir: Path, index: int):
        return outdir / f"{self.name}-{index}.txt", np.load(outdir / f"{self.name}-{index}.npy")

    def op(self, inp):
        proc = ck.load_process(inp[0].read_text())
        report = ck.validate_process(proc)
        orders = [ck.check_order(proc, o) for o in ("A<B", "B<A", "no-signaling")]
        ppt = [ck.is_ppt_cut(proc, side) for side in ("A", "B")]
        return proc, report, orders, ppt

    def check(self, inp, out) -> str | None:
        proc, report, _, ppt = out
        ref = inp[1]
        if proc.op.names != PARTY_WIRES or [p.name for p in proc.parties] != ["A", "B"]:
            return f"dump read back with wires {proc.op.names}"
        if proc.op.matrix.dtype != ref.dtype or not np.array_equal(proc.op.matrix, ref):
            return "dump did not round-trip bit-exactly"
        if not report.valid:
            return f"sampled process reported invalid: {report.constraint_residuals}"
        for party, (is_ppt, eig) in enumerate(ppt):
            own = pt_min_eigenvalue(ref, self.d, party)
            if abs(eig - own) > TOL or is_ppt != (own >= -TOL):
                return f"is_ppt_cut party {party}: ({is_ppt}, {eig!r}) vs own min eig {own!r}"
        return None

    def run_check(self, inputs) -> str | None:
        """A signalling term on A's output alone must make validation fail."""
        d = self.d
        flip = np.zeros(d)
        flip[:2] = (1.0, -1.0)
        bump = np.kron(np.kron(np.eye(d), np.diag(flip)), np.eye(d * d))
        wires = tuple(ck.WireLabel(n, d) for n in PARTY_WIRES)
        parties = (ck.PartySlot("A", "A_I", "A_O"), ck.PartySlot("B", "B_I", "B_O"))
        bad = ck.ProcessMatrix(ck.LabeledOperator(wires, inputs[0][1] + 1e-3 * bump), parties)
        if ck.validate_process(bad).valid:
            return "a process with a signalling A_O term was reported valid"
        return None


WORKLOADS = {w.name: w for w in (ManifestCold, DualityD4, ValidityD5)}

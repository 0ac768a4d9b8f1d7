"""Command-line interface: exit codes, JSON payloads, file round-trips.

Every invocation goes through ``main(argv)`` in-process; stdout is captured
with capsys and parsed back, so these double as serialization tests.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from causalkit import duality
from causalkit.cli import CLAIMS, MANIFEST_SEED, Claim, Reading, build_manifest, main
from causalkit.games import CYRIL_GYNI_VALUE
from causalkit.processes import dump_process, extend_with_state, load_process, build_cyril
from causalkit.tensor import LabeledOperator, WireLabel
from manifest_rows import EXACT_COMPUTED, MANIFEST_ROWS


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv: str) -> tuple[int, dict]:
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def assert_unwritable_is_usage_error(capsys, argv, path) -> None:
    """Exit 2, one stderr line naming the path, no traceback and no stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    message = captured.err.strip().splitlines()[-1]
    assert str(path) in message
    assert "No such file or directory" in message
    assert not path.exists()


class TestValidate:
    def test_builtin_valid_process(self, capsys):
        code, payload = run_json(capsys, "validate", "--process", "cyril")
        assert code == 0
        assert payload["valid"] is True
        assert payload["psd_ok"] is True
        assert set(payload["residuals"]) == {
            "normalization",
            "no signaling to B's past",
            "no signaling to A's past",
            "affine closure",
        }
        assert all(v <= 1e-9 for v in payload["residuals"].values())

    def test_builtin_invalid_process(self, capsys):
        code, payload = run_json(capsys, "validate", "--process", "bell-pair-outputs")
        assert code == 1
        assert payload["valid"] is False
        assert payload["residuals"]["affine closure"] > 0.5

    def test_bell_pair_outputs_residuals_are_exact(self, capsys):
        _, payload = run_json(capsys, "validate", "--process", "bell-pair-outputs")
        assert payload["residuals"]["normalization"] == 0.0
        assert payload["residuals"]["affine closure"] == 1.0

    def test_file_argument(self, capsys, tmp_path):
        path = tmp_path / "proc.txt"
        path.write_text(dump_process(build_cyril()), encoding="utf-8")
        code, payload = run_json(capsys, "validate", str(path))
        assert code == 0
        assert payload["valid"] is True

    def test_unknown_builtin(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--process", "nonesuch"])
        assert exc.value.code == 2

    def _usage_error(self, capsys, path, command="validate", *options) -> str:
        with pytest.raises(SystemExit) as exc:
            main([command, str(path), *options])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        message = err.strip().splitlines()[-1]
        assert str(path) in message
        assert "Traceback" not in err
        return message

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        message = self._usage_error(capsys, tmp_path / "absent.txt")
        assert "No such file" in message

    def test_truncated_dump_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "truncated.txt"
        path.write_text("\n".join(dump_process(build_cyril()).splitlines()[:3]), encoding="utf-8")
        message = self._usage_error(capsys, path)
        assert "expected 16 matrix rows, found 1" in message

    def test_non_integer_wire_dim_is_usage_error(self, capsys, tmp_path):
        lines = dump_process(build_cyril()).splitlines()
        lines[1] = lines[1].replace("A_I:2", "A_I:x")
        path = tmp_path / "bad_dim.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert "malformed wire entry 'A_I:x'" in self._usage_error(capsys, path)

    @pytest.mark.parametrize("command", ["validate", "ppt"])
    @pytest.mark.parametrize(
        "header, entry", [("=(A_I,A_O)", "'=(A_I,A_O)'"), ("A=(,)", "'A=(,)'")], ids=["party-name", "wire-names"]
    )
    def test_empty_party_or_wire_name_is_usage_error(self, capsys, tmp_path, command, header, entry):
        lines = dump_process(build_cyril()).splitlines()
        lines[0] = f"parties: {header};B=(B_I,B_O)"
        path = tmp_path / "empty_name.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = self._usage_error(capsys, path, command)
        assert f"party entry {entry} has an empty party or wire name" in message

    def test_relative_residuals_are_extra_keys(self, capsys):
        code, payload = run_json(capsys, "validate", "--process", "bell-pair-outputs")
        assert code == 1
        assert payload["scale"] == pytest.approx(1.0, abs=1e-12)
        assert set(payload["relative_residuals"]) == set(payload["residuals"])
        for name, value in payload["residuals"].items():
            assert payload["relative_residuals"][name] == value / payload["scale"]

    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"parties: \xff\xfe\n")
        assert "utf-8" in self._usage_error(capsys, path)

    def test_unreadable_file_is_usage_error(self, capsys, tmp_path):
        # A directory fails to open for reading whatever the user's privileges.
        assert "directory" in self._usage_error(capsys, tmp_path)

    @pytest.mark.parametrize("command", ["validate", "ppt"])
    @pytest.mark.parametrize("entry", ["nan+0j", "inf+0j"])
    def test_non_finite_entry_is_usage_error(self, capsys, tmp_path, command, entry):
        lines = dump_process(build_cyril()).splitlines()
        lines[3] = " ".join([entry] * 16)
        path = tmp_path / "non_finite.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = self._usage_error(capsys, path, command)
        assert "row 2 has a non-finite entry" in message

    @staticmethod
    def _one_party_dump(tmp_path) -> Path:
        lines = dump_process(build_cyril()).splitlines()
        lines[0] = "parties: A=(A_I,A_O)"
        path = tmp_path / "one_party.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_one_party_dump_gets_a_report(self, capsys, tmp_path):
        # Validity holds for any party count: cyril's Tr W = 4 against the one output's d_O = 2.
        code = main(["validate", str(self._one_party_dump(tmp_path)), "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert "Traceback" not in captured.err
        payload = json.loads(captured.out, parse_constant=lambda c: pytest.fail(f"bare {c}"))
        assert payload["valid"] is False
        assert payload["residuals"]["normalization"] == pytest.approx(2.0, abs=1e-12)

    def test_one_party_dump_is_usage_error(self, capsys, tmp_path):
        assert "not two-party" in self._usage_error(capsys, self._one_party_dump(tmp_path), "ppt", "--cut", "A")

    def test_ppt_with_unassigned_wire_is_usage_error(self, capsys, tmp_path):
        ancilla = LabeledOperator((WireLabel("X", 2),), np.eye(2) / 2)
        path = tmp_path / "adjoined.txt"
        path.write_text(dump_process(extend_with_state(build_cyril(), ancilla)), encoding="utf-8")
        message = self._usage_error(capsys, path, "ppt", "--cut", "A")
        assert "['X']" in message and "ambiguous" in message


class TestPpt:
    def test_cyril_is_ppt_on_both_cuts(self, capsys):
        for cut in ("A", "B"):
            code, payload = run_json(capsys, "ppt", "--process", "cyril", "--cut", cut)
            assert code == 0
            assert payload["ppt"] is True
            assert abs(payload["min_eigenvalue"]) <= 1e-9

    def test_shared_bell_is_npt(self, capsys):
        code, payload = run_json(capsys, "ppt", "--process", "shared-bell")
        assert code == 1
        assert payload["ppt"] is False
        assert payload["min_eigenvalue"] == pytest.approx(-0.5, abs=1e-9)

    def test_default_cut_is_the_second_party(self, capsys, tmp_path):
        lines = dump_process(build_cyril()).splitlines()
        assert lines[0] == "parties: A=(A_I,A_O);B=(B_I,B_O)"
        lines[0] = "parties: P=(A_I,A_O);Q=(B_I,B_O)"
        path = tmp_path / "renamed.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, payload = run_json(capsys, "ppt", str(path))
        assert code == 0
        assert payload["cut"] == "Q"
        assert payload["ppt"] is True

    def test_unknown_cut_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ppt", "--process", "cyril", "--cut", "Z"])
        assert exc.value.code == 2
        assert "cut" in capsys.readouterr().err

    def test_non_hermitian_dump_is_not_ppt(self, capsys, tmp_path):
        cyril = build_cyril()
        skewed = cyril.op.matrix.copy()
        skewed[0, 1] += 0.1
        path = tmp_path / "skewed.txt"
        proc = dataclasses.replace(cyril, factors=LabeledOperator(cyril.op.wires, skewed))
        path.write_text(dump_process(proc), encoding="utf-8")
        code = main(["ppt", str(path), "--json"])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        payload = json.loads(captured.out)
        assert code == 1
        assert payload["ppt"] is False
        assert payload["min_eigenvalue"] is None
        assert payload["hermiticity"] == pytest.approx(0.1, abs=1e-12)
        # validate reports the same file the same way.
        code, payload = run_json(capsys, "validate", str(path))
        assert code == 1
        assert payload["psd_ok"] is False
        assert payload["min_eig"] is None


def _reject_constant(token: str):
    raise ValueError(f"not strict JSON: {token}")


RESIDUAL_KEYS = ["normalization", "no signaling to B's past", "no signaling to A's past", "affine closure"]


@pytest.mark.parametrize(
    "dump, command, code, nulls",
    [
        ("non-hermitian", "validate", 1, ["min_eig"]),
        ("non-hermitian", "ppt", 1, ["min_eigenvalue"]),
        ("all-zero", "validate", 1, [f"relative_residuals.{k}" for k in RESIDUAL_KEYS]),
        ("all-zero", "ppt", 0, []),
    ],
    ids=["non-hermitian-validate", "non-hermitian-ppt", "all-zero-validate", "all-zero-ppt"],
)
def test_json_prints_nan_as_null(capsys, tmp_path, dump, command, code, nulls):
    # A skewed W has no spectrum to report (nan), and W = 0 no scale to divide by (nan).
    cyril = build_cyril()
    matrix = np.zeros_like(cyril.op.matrix)
    if dump == "non-hermitian":
        matrix = cyril.op.matrix.copy()
        matrix[0, 1] += 0.1
    path = tmp_path / "w.txt"
    path.write_text(dump_process(dataclasses.replace(cyril, factors=LabeledOperator(cyril.op.wires, matrix))))
    got, out = run(capsys, command, str(path), "--json")
    payload = json.loads(out, parse_constant=_reject_constant)
    flat = {f"{k}.{n}": w for k, v in payload.items() if isinstance(v, dict) for n, w in v.items()}
    flat.update(payload)
    assert (got, sorted(k for k, v in flat.items() if v is None)) == (code, sorted(nulls))


class TestGameCommands:
    def test_gyni_cyril_payload(self, capsys):
        code, payload = run_json(capsys, "gyni", "--process", "cyril")
        assert code == 0
        assert payload["game"] == "gyni"
        assert payload["value"] == pytest.approx(CYRIL_GYNI_VALUE, abs=1e-12)
        assert set(payload["terms"]) == {
            "i1=0,i2=0",
            "i1=0,i2=1",
            "i1=1,i2=0",
            "i1=1,i2=1",
        }

    def test_gyni_relay_value(self, capsys):
        code, payload = run_json(capsys, "gyni", "--process", "relay")
        assert code == 0
        assert payload["value"] == pytest.approx(0.5, abs=1e-12)

    def test_drb_pauli_y(self, capsys):
        code, payload = run_json(capsys, "drb", "--strategy", "pauli-y")
        assert code == 0
        assert payload["game"] == "dr"
        assert payload["value"] == pytest.approx(0.5, abs=1e-12)
        assert all(
            p == pytest.approx(0.5, abs=1e-12) for p in payload["terms"].values()
        )

    def test_drb_cyril_dual(self, capsys):
        code, payload = run_json(capsys, "drb", "--strategy", "cyril-dual")
        assert code == 0
        assert payload["value"] == pytest.approx(CYRIL_GYNI_VALUE, abs=1e-9)


class TestDuality:
    def test_named_strategy_certificate(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, payload = run_json(
            capsys,
            "duality",
            "--direction",
            "gyni2dr",
            "--process",
            "cyril",
            "--emit-certificate",
            str(cert_path),
        )
        assert code == 0
        assert payload["status"] == "pass"
        assert payload["deviation"] <= 1e-9
        on_disk = json.loads(cert_path.read_text(encoding="utf-8"))
        assert on_disk == payload

    def test_unwritable_certificate_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "absent" / "cert.json"
        argv = ["duality", "--direction", "gyni2dr", "--process", "cyril", "--emit-certificate", str(path)]
        assert_unwritable_is_usage_error(capsys, argv, path)

    def test_seeded_round_trip(self, capsys):
        code, payload = run_json(
            capsys, "duality", "--direction", "dr2gyni", "--seed", "7", "--dim", "3"
        )
        assert code == 0
        assert payload["d"] == 3
        assert payload["deviation"] <= 1e-9

    def test_direction_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["duality", "--process", "cyril"])
        assert exc.value.code == 2

    def test_drift_is_a_failed_certificate(self, capsys, drift_at_d3):
        code, payload = run_json(
            capsys, "duality", "--direction", "gyni2dr", "--seed", str(MANIFEST_SEED + 3), "--dim", "3"
        )
        assert code == 1
        assert payload["status"] == "fail"
        assert payload["d"] == 3
        assert payload["deviation"] > payload["tolerance"]
        assert payload["strategy"] == f"random(seed={MANIFEST_SEED + 3}, d=3)"

    def test_dim_without_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["duality", "--direction", "gyni2dr", "--process", "cyril", "--dim", "3"])
        assert exc.value.code == 2
        assert "--dim" in capsys.readouterr().err

    def test_process_with_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["duality", "--direction", "gyni2dr", "--process", "cyril", "--seed", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "--process" in err

    def test_dim_below_two_is_usage_error(self, capsys):
        for dim in ("1", "0"):
            with pytest.raises(SystemExit) as exc:
                main(["duality", "--direction", "gyni2dr", "--seed", "1", "--dim", dim])
            assert exc.value.code == 2
            assert "--dim" in capsys.readouterr().err

    @pytest.mark.parametrize("direction", ["gyni2dr", "dr2gyni"])
    def test_negative_seed_is_usage_error(self, capsys, direction):
        # numpy's generators take no negative seed; the CLI says so itself.
        with pytest.raises(SystemExit) as exc:
            main(["duality", "--direction", direction, "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: causalkit duality ")
        assert "--seed must be non-negative, got -1" in err


class TestClassical:
    def test_tdr_ebw_exact(self, capsys):
        code, payload = run_json(capsys, "classical", "tdr", "--strategy", "ebw", "--exact")
        assert code == 0
        assert payload["numerator"] == 27
        assert payload["denominator"] == 32
        assert payload["exact"] == "27/32"
        assert payload["decimal"] == pytest.approx(27 / 32)
        assert payload["branch_weight"][0]["exact"] == "27/32"
        assert payload["branch_success"] == [
            {"numerator": 1, "denominator": 1, "exact": "1/1", "decimal": 1.0},
            {"numerator": 0, "denominator": 1, "exact": "0/1", "decimal": 0.0},
        ]

    def test_tdr_definite(self, capsys):
        code, payload = run_json(capsys, "classical", "tdr", "--strategy", "definite")
        assert code == 0
        assert payload["exact"] == "3/4"
        assert [p["exact"] for p in payload["per_player"]] == ["3/4", "1/1", "1/1"]

    def test_tdr_none(self, capsys):
        code, payload = run_json(capsys, "classical", "tdr", "--strategy", "none")
        assert code == 0
        assert payload["exact"] == "27/64"

    def test_ftdr_values(self, capsys):
        code, payload = run_json(capsys, "classical", "ftdr", "--strategy", "ebw")
        assert code == 0
        assert payload["exact"] == "27/32"
        assert [p["exact"] for p in payload["round_success"]] == ["27/32", "27/32"]

        code, payload = run_json(capsys, "classical", "ftdr", "--strategy", "definite")
        assert code == 0
        assert payload["exact"] == "21/32"
        assert [p["exact"] for p in payload["round_success"]] == ["3/4", "9/16"]

    def test_tdr_ebw_reports_consistency(self, capsys):
        code, payload = run_json(capsys, "classical", "tdr", "--strategy", "ebw")
        assert code == 0
        assert payload["logically_consistent"] is True

    def test_strategy_scoped_to_variant(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classical", "ftdr", "--strategy", "none"])
        assert exc.value.code == 2


class TestDump:
    def test_cyril_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cyril.txt"
        code, out = run(capsys, "dump", "--object", "cyril", "--out", str(path))
        assert code == 0
        proc = load_process(path.read_text(encoding="utf-8"))
        np.testing.assert_allclose(proc.op.matrix, build_cyril().op.matrix, atol=0)

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "absent" / "x.txt"
        assert_unwritable_is_usage_error(capsys, ["dump", "--object", "cyril", "--out", str(path)], path)

    def test_bell_object(self, capsys):
        code, out = run(capsys, "dump", "--object", "bell:1,1")
        assert code == 0
        assert out.startswith("wires: A:2,B:2")

    def test_readout_unitary_qutrit(self, capsys):
        code, out = run(capsys, "dump", "--object", "readout-unitary:3:2")
        assert code == 0
        assert out.startswith("wires: code:3,fresh:3")

    def test_unknown_object(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dump", "--object", "spaghetti"])
        assert exc.value.code == 2

    # Tokens off the grammar: surplus fields, and empty or non-numeric ones.
    @pytest.mark.parametrize(
        "token",
        ["cyril:junk", "bell:1,1:junk", "readout-unitary:3:2:junk"]
        + ["bell:", "bell:1,x", "bell:1,1,", "readout-unitary:", "readout-unitary:a", "readout-unitary:3:"],
    )
    def test_surplus_fields_are_usage_errors(self, capsys, token):
        with pytest.raises(SystemExit) as exc:
            main(["dump", "--object", token])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "choose cyril, bell:x1,x2[,d], readout-unitary[:d[:party]]" in err

    @pytest.mark.parametrize(
        "token, message",
        [("bell:5,0", "code symbols must lie in 0..1"), ("readout-unitary:3:3", "party must be 1 or 2")],
    )
    def test_value_errors_keep_their_message(self, capsys, token, message):
        with pytest.raises(SystemExit) as exc:
            main(["dump", "--object", token])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_oversized_dimension_is_usage_error(self, capsys):
        # d = 10^7 asks numpy for 1.42 PiB, past any address space, so the
        # allocation fails at once and no memory is touched.
        with pytest.raises(SystemExit) as exc:
            main(["dump", "--object", "bell:0,0,10000000"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "causalkit dump: error: Unable to allocate" in err


class TestManifest:
    def test_manifest_passes(self, capsys):
        code, payload = run_json(capsys, "manifest")
        assert code == 0
        assert payload["status"] == "pass"
        assert payload["failures"] == 0
        assert payload["total"] >= 12
        ids = [r["claim_id"] for r in payload["records"]]
        assert len(ids) == len(set(ids))
        for record in payload["records"]:
            assert set(record) == {
                "claim_id",
                "command",
                "expected",
                "computed",
                "tolerance",
                "status",
            }

    def test_fixed_columns(self):
        records = build_manifest()
        assert [(r.claim_id, r.command, r.expected, r.tolerance) for r in records] == MANIFEST_ROWS
        computed = {r.claim_id: r.computed for r in records}
        assert {k: computed[k] for k in EXACT_COMPUTED} == EXACT_COMPUTED

    @pytest.mark.parametrize(
        "reading, status, computed",
        [
            (Reading("near", 0.5 + 5e-10, 0.5), "pass", "0.50000000050000004"),
            (Reading("near", 0.5 - 2e-9, 0.5), "fail", "0.499999998"),
            (Reading("at_most", 1e-9, 1e-9), "pass", "1.0000000000000001e-09"),
            (Reading("at_most", 2e-9, 1e-9), "fail", "2.0000000000000001e-09"),
            (Reading("exact", Fraction(27, 64), Fraction(27, 64)), "pass", "27/64"),
            (Reading("exact", (Fraction(3, 4), (1, 0)), (Fraction(3, 4), (1, 0)), "3/4"), "pass", "3/4"),
            (Reading("exact", (Fraction(3, 4), (1, 1)), (Fraction(3, 4), (1, 0)), "3/4"), "fail", "3/4"),
            (Reading("exact", True, False, "consistent"), "fail", "consistent"),
            (Reading("close", 0.5, 0.5), "fail", "0.5"),
        ],
    )
    def test_verdict_and_computed_text(self, reading, status, computed):
        record = Claim("row", "causalkit manifest", "within {tol:g}", None, lambda tol: reading).check(1e-9)
        assert (record.status, record.computed, record.expected) == (status, computed, "within 1e-09")

    def test_consistency_claim(self):
        records = {r.claim_id: r for r in build_manifest()}
        assert len(records) == len(MANIFEST_ROWS)
        assert records["classical-ebw-consistent"].status == "pass"

    def test_drifting_claim_is_a_fail_row(self, capsys, drift_at_d3):
        code, payload = run_json(capsys, "manifest")
        assert code == 1
        assert payload["total"] == len(MANIFEST_ROWS)
        assert len(payload["records"]) == len(MANIFEST_ROWS)
        records = {r["claim_id"]: r for r in payload["records"]}
        assert len(records) == len(MANIFEST_ROWS)
        assert [k for k, r in records.items() if r["status"] != "pass"] == ["duality-random-d3"]
        assert float(records["duality-random-d3"]["computed"]) > 1e-9

    def test_raising_claim_is_a_fail_row(self, capsys, monkeypatch):
        def broken(d):
            raise ValueError("readout broke")

        monkeypatch.setattr(duality, "readout_correlation_residual", broken)
        code, payload = run_json(capsys, "manifest")
        assert code == 1
        assert payload["total"] == len(payload["records"]) == len(MANIFEST_ROWS)
        records = {r["claim_id"]: r for r in payload["records"]}
        assert [k for k, r in records.items() if r["status"] != "pass"] == ["readout-correlation"]
        assert records["readout-correlation"]["computed"] == "error: ValueError: readout broke"

    @pytest.mark.parametrize("claim", CLAIMS, ids=[c.claim_id for c in CLAIMS])
    def test_claim_command_runs(self, capsys, claim):
        # The shared-bell claim is a failed PPT check, so its command exits 1.
        expected = 1 if claim.claim_id == "process-shared-bell-npt" else 0
        assert main(shlex.split(claim.command)[1:]) == expected
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "claim_id",
        [
            "process-cyril-unordered",
            "process-cyril-separable",
            "readout-correlation",
            "mutation-resend-same-detected",
            "codes-hide-marginals",
        ],
    )
    def test_claim_command_prints_its_number(self, capsys, claim_id):
        # No other command prints these rows' numbers, so each row names the manifest.
        claim = next(c for c in CLAIMS if c.claim_id == claim_id)
        main(shlex.split(claim.command)[1:])
        out = capsys.readouterr().out
        assert claim_id in out
        assert claim.check().computed in out

    def test_builder_is_deterministic(self):
        a = [dataclasses.asdict(r) for r in build_manifest()]
        b = [dataclasses.asdict(r) for r in build_manifest()]
        assert a == b
        assert isinstance(MANIFEST_SEED, int)


class TestToleranceEnv:
    def test_env_override(self, capsys, monkeypatch):
        # An absurdly tight tolerance flips validation of a fine process.
        monkeypatch.setenv("CAUSALKIT_TOL", "1e-18")
        code, payload = run_json(capsys, "validate", "--process", "mixed")
        assert payload["tolerance"] == 1e-18

    def test_env_zero_is_exact(self, capsys, monkeypatch):
        # The library's rule: 0 is a valid tolerance, the exact verdict.
        monkeypatch.setenv("CAUSALKIT_TOL", "0")
        code, payload = run_json(capsys, "validate", "--process", "mixed")
        assert code == 0
        assert payload["tolerance"] == 0.0
        assert payload["valid"] is True

    def test_env_must_parse(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUSALKIT_TOL", "tight")
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--process", "cyril"])
        assert exc.value.code == 2

    def test_env_rejects_nan(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUSALKIT_TOL", "nan")
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--process", "cyril"])
        assert exc.value.code == 2
        assert "CAUSALKIT_TOL" in capsys.readouterr().err

    def test_env_rejects_negative(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUSALKIT_TOL", "-1")
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--process", "cyril"])
        assert exc.value.code == 2
        assert "CAUSALKIT_TOL" in capsys.readouterr().err

    def test_env_rejects_inf(self, capsys, monkeypatch):
        monkeypatch.setenv("CAUSALKIT_TOL", "inf")
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--process", "cyril"])
        assert exc.value.code == 2
        assert "CAUSALKIT_TOL" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_build_manifest_rejects_the_tolerance(self, tol):
        with pytest.raises(ValueError, match=f"tol must be finite and >= 0, got {tol!r}"):
            build_manifest(tol)


@pytest.mark.parametrize(
    "argv",
    [
        ["duality", "--direction", "gyni2dr", "--dim", "3"],
        ["ppt", "--process", "cyril", "--cut", "C"],
        ["dump", "--object", "nope"],
        ["validate", "{missing}"],
    ],
)
def test_usage_error_names_the_subcommand(capsys, tmp_path, argv):
    argv = [a.format(missing=tmp_path / "absent.txt") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: causalkit {argv[0]} ")


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["validate"], "provide a process file or --process <name>"),
        (["duality", "--direction", "dr2gyni", "--process", "relay"], "unknown strategy 'relay' for dr2gyni"),
    ],
)
def test_unreached_usage_errors(capsys, argv, fragment):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert fragment in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "ppt"])
def test_process_file_and_builtin_are_exclusive(capsys, tmp_path, command):
    # A named file must not be ignored in favour of the built-in, missing or not.
    with pytest.raises(SystemExit) as exc:
        main([command, str(tmp_path / "absent.txt"), "--process", "mixed"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not allowed with argument process_file" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code",
    [(["manifest", "--json"], 0), (["validate", "--process", "bell-pair-outputs", "--json"], 1)],
    ids=["manifest", "validate"],
)
def test_closed_stdout_keeps_the_exit_code(argv, code):
    # The module entry point writes into a pipe whose reader is already gone.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        command = [sys.executable, "-m", "causalkit.cli", *argv]
        done = subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr.decode()) == (code, "")

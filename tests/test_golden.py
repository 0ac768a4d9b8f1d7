"""The manifest's stdout against the golden files in ``tests/golden``.

These files are the manifest's one pin: each row's id, command, expected text,
tolerance, verdict and computed text. Under the Python x.y and numpy version
that wrote them (``versions.json``) the comparison is byte for byte, so any
moved bit fails here and shows as the diff of the files that
``tests/golden/regen.py`` rewrites. Under other versions floats may move in
their last bits; then each record's fixed columns and verdict must still match
exactly, and so must its computed text wherever that prints no float: its
tolerance is 0, or the text holds no digit.
"""

from __future__ import annotations

import json

import pytest

from golden.regen import COMMANDS, HERE, run, versions

FIXED = ("claim_id", "command", "expected", "tolerance", "status")


def _prints_no_float(record: dict) -> bool:
    """An exact row (tolerance 0) or one whose computed text holds no digit."""
    return record["tolerance"] == 0 or not any(c.isdigit() for c in record["computed"])


def _fixed_columns(name: str, text: str) -> list:
    """What must match under any versions: each JSON record's fixed columns,
    verdict and float-free computed text, or each text line up to the computed
    value."""
    if name.endswith(".json"):
        return [
            [record[key] for key in FIXED] + [record["computed"] if _prints_no_float(record) else None]
            for record in json.loads(text)["records"]
        ]
    return [line.split(" | got ")[0] for line in text.splitlines()]


def test_manifest_matches_golden(monkeypatch):
    monkeypatch.delenv("CAUSALKIT_TOL", raising=False)
    golden_versions = json.loads((HERE / "versions.json").read_text(encoding="utf-8"))
    same_versions = versions() == golden_versions
    for name, argv in COMMANDS.items():
        code, text = run(argv)
        assert code == 0, f"causalkit {' '.join(argv)} exited {code}"
        golden = (HERE / name).read_text(encoding="utf-8")
        if same_versions:
            assert text == golden, f"{name} moved; rerun tests/golden/regen.py and review the diff"
        else:
            assert _fixed_columns(name, text) == _fixed_columns(name, golden), (
                f"{name}: fixed columns differ between Python/numpy {versions()} and the golden "
                f"files' {golden_versions}"
            )


def _record(claim_id, computed, tolerance, expected="within tol", status="pass") -> dict:
    return {"claim_id": claim_id, "command": "causalkit manifest", "expected": expected,
            "computed": computed, "tolerance": tolerance, "status": status}


ROWS = [
    _record("float", "0.53347086912079611", 1e-9),
    _record("fraction", "27/64", 0.0),
    _record("verdicts", "A<B: False, B<A: False", 1e-9),
]


@pytest.mark.parametrize(
    "row, key, value, same",
    [
        (0, "computed", "0.53347086912079589", True),
        (1, "computed", "27/63", False),
        (2, "computed", "A<B: True, B<A: False", False),
        (0, "status", "fail", False),
        (1, "expected", "within 2 tol", False),
        (0, "tolerance", 1e-12, False),
    ],
    ids=["float-moved", "fraction-moved", "digit-free-moved", "verdict", "expected-text", "tolerance"],
)
def test_fixed_columns_across_versions(row, key, value, same):
    # The comparison made under versions other than the golden files': only a
    # float row's computed text may move.
    moved = [dict(record) for record in ROWS]
    moved[row][key] = value
    golden, text = (json.dumps({"records": records}) for records in (ROWS, moved))
    assert (_fixed_columns("manifest.json", text) == _fixed_columns("manifest.json", golden)) is same

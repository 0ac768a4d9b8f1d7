"""The manifest's stdout against the golden files in ``tests/golden``.

Under the Python x.y and numpy version that wrote the files
(``versions.json``) the comparison is byte for byte, so any moved bit fails
here and shows as the diff of the files that ``tests/golden/regen.py``
rewrites. Under other versions floats may move in their last bits; then each
record's fixed columns and verdict must still match exactly.
"""

from __future__ import annotations

import json

from golden.regen import COMMANDS, HERE, run, versions

FIXED = ("claim_id", "command", "expected", "tolerance", "status")


def _fixed_columns(name: str, text: str) -> list:
    """What must match under any versions: each JSON record's fixed columns and
    verdict, or each text line up to the computed value."""
    if name.endswith(".json"):
        return [[record[key] for key in FIXED] for record in json.loads(text)["records"]]
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

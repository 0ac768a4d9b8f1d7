"""Every documented command's output against its golden file in ``tests/golden``.

These files are the one pin of each command's stdout and exit code, and of a
usage error's message (``tests/golden/regen.py`` lists the commands and
rewrites the files). One rule compares them. Under the Python x.y and numpy
version that wrote them (``versions.json``) it is byte for byte, so any moved
bit fails here and shows as the diff of the rewritten files. Under other
versions floats may move in their last bits: every character outside a number
must still match, and every number must agree within ``NUMBER_TOL``. Two
integers that differ differ by at least 1, so integers, Fractions, wire
dimensions and exit codes stay exact, as do verdicts and names.
"""

from __future__ import annotations

import argparse
import json
import re

import numpy as np
import pytest

from causalkit.claims import DRB_STRATEGIES, GYNI_STRATEGIES, PROCESS_BUILDERS
from causalkit.cli import CLASSICAL_CALLS, _build_parser
from golden.regen import COMMANDS, HERE, record, versions

NUMBER_TOL = 1e-12
# A signed decimal or float token: a JSON number, a manifest's computed text, a dump entry's parts.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
GOLDEN_VERSIONS = json.loads((HERE / "versions.json").read_text(encoding="utf-8"))


def agrees(text: str, golden: str, byte_for_byte: bool) -> bool:
    """The one rule: equal bytes, or else equal text between the numbers and numbers within NUMBER_TOL."""
    if byte_for_byte:
        return text == golden
    pairs = zip(NUMBER.findall(text), NUMBER.findall(golden))
    return NUMBER.split(text) == NUMBER.split(golden) and all(abs(float(a) - float(b)) <= NUMBER_TOL for a, b in pairs)


@pytest.mark.parametrize("name", COMMANDS)
def test_output_matches_golden(monkeypatch, name):
    monkeypatch.delenv("CAUSALKIT_TOL", raising=False)
    same_versions = versions() == GOLDEN_VERSIONS
    assert agrees(record(COMMANDS[name]), (HERE / name).read_text(encoding="utf-8"), same_versions), (
        f"{name} moved under Python/numpy {versions()} against the golden files' {GOLDEN_VERSIONS}"
        + ("; rerun tests/golden/regen.py and review the diff" if same_versions else "")
    )


def test_no_command_or_builtin_is_unpinned():
    argvs = list(COMMANDS.values())
    (subcommands,) = (a.choices for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subcommands) <= {argv[0] for argv in argvs}
    for command, names in (("validate", PROCESS_BUILDERS), ("ppt", PROCESS_BUILDERS),
                           ("gyni", GYNI_STRATEGIES), ("drb", DRB_STRATEGIES)):
        assert set(names) <= {word for argv in argvs if argv[0] == command for word in argv}, command
    assert set(CLASSICAL_CALLS) <= {(argv[1], argv[3]) for argv in argvs if argv[0] == "classical"}


FLOAT = "0.53347086912079611"
GOLDEN = "\n".join([
    "exit 2",
    "stderr: causalkit ppt: error: unknown cut 'C'",
    f'{{"valid": true, "status": "pass", "value": {FLOAT}, "exact": "27/32"}}',
    "wires: A_I:2,A_O:2",
    "0.42677669529663687+0j 0-0j",
]) + "\n"


@pytest.mark.parametrize(
    "old, new, across_versions",
    [
        (FLOAT, repr(np.nextafter(float(FLOAT), 1.0).item()), True),
        ("0.42677669529663687", repr(np.nextafter(0.42677669529663687, 0.0).item()), True),
        ("0-0j", "0+1e-17j", True),
        (FLOAT, repr(float(FLOAT) + 1e-9), False),
        ("true", "false", False),
        ('"pass"', '"fail"', False),
        ("exit 2", "exit 1", False),
        ("A_O:2", "B_O:2", False),
        ("A_O:2", "A_O:3", False),
        ("27/32", "27/64", False),
        ("'C'", "'D'", False),
    ],
    ids=["float-ulp", "dump-entry-ulp", "signed-zero", "float-1e-9", "verdict", "status", "exit-code",
         "wire-name", "wire-dim", "fraction", "stderr"],
)
def test_the_one_rule(old, new, across_versions):
    moved = GOLDEN.replace(old, new, 1)
    assert moved != GOLDEN
    assert not agrees(moved, GOLDEN, byte_for_byte=True)  # the writing versions: any moved byte fails
    assert agrees(moved, GOLDEN, byte_for_byte=False) is across_versions

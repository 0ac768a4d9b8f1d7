"""Rewrite the golden files from the checkout's ``src``.

Writes one file per command in :data:`COMMANDS`, each holding what
:func:`record` reads off that command, and ``versions.json``, the Python and
numpy versions that wrote them. Run it on purpose, when a change moves a
command's output, and let the diff of these files show what moved::

    python tests/golden/regen.py

It writes nothing if ``manifest`` fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import numpy as np  # noqa: E402

from causalkit.cli import main  # noqa: E402

# Each golden file and the command, at the default tolerance, whose output it holds.
COMMANDS = {
    "manifest.json": ["manifest", "--json"],
    "manifest.txt": ["manifest"],
    **{f"{command}-{name}.txt": [command, "--process", name, "--json"]
       for command in ("validate", "ppt") for name in ("cyril", "mixed", "shared-bell", "bell-pair-outputs")},
    "ppt-cyril-cut-A.txt": ["ppt", "--process", "cyril", "--cut", "A", "--json"],
    **{f"gyni-{name}.txt": ["gyni", "--process", name, "--json"] for name in ("cyril", "relay", "constant")},
    **{f"drb-{name}.txt": ["drb", "--strategy", name, "--json"] for name in ("pauli-y", "cyril-dual")},
    **{f"duality-{direction}-seed7-d{d}.txt": ["duality", "--direction", direction, "--seed", "7", "--dim", str(d), "--json"]
       for direction in ("gyni2dr", "dr2gyni") for d in (2, 3, 4, 5)},
    "duality-gyni2dr-cyril.txt": ["duality", "--direction", "gyni2dr", "--process", "cyril", "--json"],
    **{f"duality-dr2gyni-{name}.txt": ["duality", "--direction", "dr2gyni", "--process", name, "--json"]
       for name in ("cyril-dual", "pauli-y")},
    **{f"classical-{variant}-{strategy}.txt": ["classical", variant, "--strategy", strategy, "--exact", "--json"]
       for variant, strategy in (("tdr", "ebw"), ("tdr", "definite"), ("tdr", "none"), ("ftdr", "ebw"), ("ftdr", "definite"))},
    **{f"dump-{token.replace(':', '-').replace(',', '-')}.txt": ["dump", "--object", token]
       for token in ("cyril", "bell:1,1", "bell:0,1,3", "readout-unitary:3:2")},
    "error-dump-spaghetti.txt": ["dump", "--object", "spaghetti"],
    "error-classical-ftdr-none.txt": ["classical", "ftdr", "--strategy", "none"],
    "error-duality-dim-without-seed.txt": ["duality", "--direction", "gyni2dr", "--dim", "3"],
    "error-ppt-cut-C.txt": ["ppt", "--process", "cyril", "--cut", "C"],
}


def versions() -> dict[str, str]:
    """The running Python x.y and numpy version."""
    return {"python": ".".join(platform.python_version_tuple()[:2]), "numpy": np.__version__}


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``causalkit <argv>``, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits 2 on a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record(argv: list[str]) -> str:
    """The golden text of ``causalkit <argv>``.

    A manifest's is its stdout alone, and a failing manifest raises
    RuntimeError, so its exit code is 0. Any other command's is a line with
    its exit code, then for a usage error (exit 2) a line with the last line
    of its stderr, then its stdout.
    """
    code, out, err = run(argv)
    if argv[0] == "manifest":
        if code != 0:
            raise RuntimeError(f"causalkit {' '.join(argv)} exited {code}")
        return out
    return f"exit {code}\n" + (f"stderr: {err.splitlines()[-1]}\n" if code == 2 else "") + out


if __name__ == "__main__":
    os.environ.pop("CAUSALKIT_TOL", None)
    try:
        texts = {name: record(argv) for name, argv in COMMANDS.items()}
    except RuntimeError as exc:
        sys.exit(f"{exc}; the golden files are not rewritten")
    for name, text in texts.items():
        (HERE / name).write_text(text, encoding="utf-8")
    (HERE / "versions.json").write_text(json.dumps(versions(), indent=2) + "\n", encoding="utf-8")

"""Rewrite the golden manifest files from the checkout's ``src``.

Writes ``manifest.json`` and ``manifest.txt``, the stdout of
``causalkit manifest --json`` and ``causalkit manifest`` at the default
tolerance, and ``versions.json``, the Python and numpy versions that wrote
them. Run it on purpose, when a change moves the manifest, and let the diff of
these files show what moved::

    python tests/golden/regen.py
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

# The manifest command each golden file holds the stdout of.
COMMANDS = {"manifest.json": ["manifest", "--json"], "manifest.txt": ["manifest"]}


def versions() -> dict[str, str]:
    """The running Python x.y and numpy version."""
    return {"python": ".".join(platform.python_version_tuple()[:2]), "numpy": np.__version__}


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``causalkit <argv>``, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


if __name__ == "__main__":
    os.environ.pop("CAUSALKIT_TOL", None)
    for name, argv in COMMANDS.items():
        code, text = run(argv)
        if code != 0:
            sys.exit(f"causalkit {' '.join(argv)} exited {code}; the golden files are not rewritten")
        (HERE / name).write_text(text, encoding="utf-8")
    (HERE / "versions.json").write_text(json.dumps(versions(), indent=2) + "\n", encoding="utf-8")

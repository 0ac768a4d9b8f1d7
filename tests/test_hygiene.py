"""Source hygiene of ``src/causalkit``, by a stdlib AST scan.

Every imported name is used in its module, every private module-level
function is referenced somewhere in the package besides its definition, and
so is every public module-level function or class but two named checks. The
package ``__init__`` is left out of the import check: its imports are the
public re-exports. Only ``processes`` spells a lab wire's name; every other
module reads the two-party layout from it. The claims table stays clear of the
argparse front end: ``claims`` imports nothing from ``cli``, and only ``cli``
imports ``argparse``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "causalkit"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _imported(tree: ast.Module) -> set[str]:
    """The names that import statements bind, anywhere in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads: bare names and attribute names."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_package_found():
    assert {"tensor.py", "processes.py", "cli.py"} <= set(TREES)


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used) == []


def test_every_private_function_is_referenced():
    read = set().union(*map(_read, TREES.values()))
    private = [
        f"{module}:{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.endswith("__")
    ]
    assert private, "the scan found no private function at all"
    assert sorted(name for name in private if name.split(":")[1] not in read) == []


# The library's own checks: a user calls them on what they build, but no
# command runs them.
UNCALLED_CHECKS = {"behaviour", "validate_instrument"}


def test_every_public_definition_is_read():
    read = set().union(*map(_read, TREES.values())) | UNCALLED_CHECKS
    public = [
        f"{module.removesuffix('.py')}:{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert public, "the scan found no public definition at all"
    assert sorted(name for name in public if name.split(":")[1] not in read) == []


# The four lab wires, and the suffixes an f-string like f"{name}_I" would build them from.
LAB_WIRE_NAMES = {"A_I", "A_O", "B_I", "B_O", "_I", "_O"}


@pytest.mark.parametrize("module", sorted(set(TREES) - {"processes.py"}))
def test_only_processes_spells_a_lab_wire(module):
    spelled = [
        node.value
        for node in ast.walk(TREES[module])
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in LAB_WIRE_NAMES
    ]
    assert spelled == []


def _imported_modules(tree: ast.Module) -> set[str]:
    """Each dotted part of every module a module imports, and every name it
    imports from one, so ``from .cli import x``, ``from causalkit.cli import x``
    and ``from . import cli`` all name ``cli``."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            modules.update((node.module or "").split("."), (alias.name for alias in node.names))
    return modules


def test_claims_stay_clear_of_the_front_end():
    assert "cli" not in _imported_modules(TREES["claims.py"])
    argparse_users = [module for module, tree in TREES.items() if "argparse" in _imported_modules(tree)]
    assert argparse_users == ["cli.py"]

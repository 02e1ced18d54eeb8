"""Hygiene of the public API and of the test oracles."""

import ast
from pathlib import Path

import pytest

import hypident


def test_every_export_resolves_once():
    assert len(hypident.__all__) == len(set(hypident.__all__))
    for name in hypident.__all__:
        assert hasattr(hypident, name), f"hypident.__all__ names missing {name}"


def imports(path):
    """Every module ``path`` imports, relative ones with their leading dots."""
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    return imported


def test_oracles_import_nothing_from_the_package():
    imported = imports(Path(__file__).parent / "oracles.py")
    assert "fractions" in imported  # the scan sees the imports that are there
    for module in imported:
        assert not module.startswith(".") and module.split(".")[0] != "hypident", module


@pytest.mark.parametrize(
    "module, forbidden",
    [
        # the law compares the expansion and values it is handed and cannot build a kernel
        ("asymptotics", {".residues", ".identity"}),
        # the kernel routes know nothing of the law or of the certificate
        ("residues", {".asymptotics", ".identity"}),
    ],
)
def test_the_law_and_the_kernel_routes_import_each_other_not(module, forbidden):
    imported = imports(Path(hypident.__file__).parent / f"{module}.py")
    assert ".hyper" in imported  # the scan sees the imports that are there
    assert not forbidden & set(imported), imported

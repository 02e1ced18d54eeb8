"""Hygiene of the public API and of the test oracles."""

import ast
from pathlib import Path

import hypident


def test_every_export_resolves_once():
    assert len(hypident.__all__) == len(set(hypident.__all__))
    for name in hypident.__all__:
        assert hasattr(hypident, name), f"hypident.__all__ names missing {name}"


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert "fractions" in imported  # the scan sees the imports that are there
    for module in imported:
        assert not module.startswith(".") and module.split(".")[0] != "hypident", module

"""Hygiene of the public API and of the test oracles."""

import ast
import os
import subprocess
import sys
from fractions import Fraction as Q
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


def test_the_cli_starts_without_dataclasses_or_inspect():
    # every CLI process pays its imports: dataclasses brings inspect, ast, dis
    # and tokenize, then builds each class through exec
    code = "import hypident.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(hypident.__file__).parent.parent)}
    child = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")


def every_record():
    """One value of each of the package's immutable record types."""
    bessel = hypident.bessel_demo(Q(1, 3), 1)
    verified = bessel.exact
    kernel = hypident.residue_kernel(verified.instance, 0)
    lemma = hypident.Lemma1Report(1, (0, 1), (Q(1, 2), 1))
    return [
        bessel, verified, verified.instance, verified.derived, verified.beta, kernel,
        kernel.scaled, kernel.scaled.num, hypident.LaurentSeries(0, (1, 2), 3), lemma,
        hypident.fuzz(0),
    ]


def test_every_record_is_immutable():
    records = every_record()
    assert len({type(value) for value in records}) == 11
    for value in records:
        field = next(iter(type(value).__annotations__))
        held = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) is held and not hasattr(value, "extra")
        assert repr(value).startswith(f"{type(value).__name__}({field}=")
        assert value == value and value != (held,)

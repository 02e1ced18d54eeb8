"""Hygiene of the public API and of the test oracles."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import hypident


EXPORTED = [
    "BesselReport", "BetaTable", "CheckFailed", "DerivedQuantities", "DimensionMismatch",
    "FuzzReport", "HypidentError", "IdentityInstance", "KBelowRange", "LaurentSeries",
    "Lemma1Report", "NotDistinctModZ", "NumericResidualExceeded", "Polynomial", "PrefactorPole",
    "RationalFunction", "ResidueKernel", "SupportViolation", "Theorem", "TruncationError",
    "ValidationError", "VerificationReport", "bessel_demo", "bessel_j", "beta_coefficients",
    "check_residue_polynomial", "exp_series_coefficient", "finite_residues", "fuzz",
    "kernel_ladder", "law_points", "lhs_series", "random_instance", "residue_at_infinity",
    "residue_kernel", "residue_sum_closed_form", "sum_finite_residues", "validate", "verify",
]


def test_every_export_resolves_once():
    assert len(hypident.__all__) == len(set(hypident.__all__))
    for name in hypident.__all__:
        assert hasattr(hypident, name), f"hypident.__all__ names missing {name}"


def test_the_exported_names_are_pinned():
    assert sorted(hypident.__all__) == EXPORTED


def submodules():
    """Every module of the package but ``__main__``, which starts the CLI."""
    return [
        importlib.import_module(f"hypident.{info.name}")
        for info in pkgutil.iter_modules(hypident.__path__)
        if info.name != "__main__"
    ]


def test_each_name_is_exported_by_the_module_that_defines_it():
    listed = []
    for module in submodules():
        for name in getattr(module, "__all__", ()):
            assert getattr(module, name).__module__ == module.__name__, (module.__name__, name)
            listed.append(name)
    assert sorted(listed) == sorted(hypident.__all__)  # one module's list each


def test_the_package_holds_only_its_exports_and_submodules():
    public = {name for name in vars(hypident) if not name.startswith("_")}
    modules = {module.__name__.removeprefix("hypident.") for module in submodules()}
    # a name a module binds but does not list, such as Fraction, must not leak
    assert public - modules == set(hypident.__all__)


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


def names(path):
    """Every name ``path`` binds, reads or imports, and every attribute it reads."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update({node.name, node.asname} - {None})
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


@pytest.mark.parametrize(
    "name, home",
    [
        ("sum_finite_residues", "residues"),
        ("residue_at_infinity", "residues"),
        ("residue_sum_closed_form", "residues"),
        ("check_residue_polynomial", "asymptotics"),
        ("law_points", "asymptotics"),
    ],
)
def test_the_certificates_are_composed_in_identity_only(name, home):
    # the lemma certificate and the three-route comparison are written once,
    # in identity; the CLI hands identity the kernel at --k and prints
    naming = {path.stem for path in Path(hypident.__file__).parent.glob("*.py") if name in names(path)}
    assert naming == {home, "identity"}


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
        kernel.fraction, kernel.fraction.num, hypident.LaurentSeries(0, (1, 2), 3), lemma,
        hypident.fuzz(0),
    ]


def package_records():
    """Every class of the package's modules built by ``algebra.record``,
    known by the qualname of the ``__setattr__`` that decorator installs."""
    found = set()
    for module in submodules():
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                if value.__setattr__.__qualname__.startswith("record.<locals>."):
                    found.add(value)
    return found


def test_every_record_type_is_covered():
    found = package_records()
    assert hypident.LaurentSeries in found  # the scan sees the records that are there
    assert {type(value) for value in every_record()} == found


def test_every_record_is_immutable():
    records = every_record()
    assert len({type(value) for value in records}) == len(records)
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

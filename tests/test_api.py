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


def package_definitions():
    """(definitions, scopes): every top-level function and class of ``src/``
    and every method, keyed "module.Class.name", with its AST node; and per
    module, each name it binds to one of them, its own or imported."""
    definitions, scopes = {}, {}
    for path in Path(hypident.__file__).parent.glob("*.py"):
        module, scope = path.stem, scopes.setdefault(path.stem, {})
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope[node.name] = f"{module}.{node.name}"
                definitions[scope[node.name]] = node
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef):
                        definitions[f"{module}.{node.name}.{item.name}"] = item
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                scope.update({alias.asname or alias.name: f"{node.module}.{alias.name}" for alias in node.names})
    return definitions, scopes


def call_closure(entry, left_out=("hyper.IdentityInstance.derived",)):
    """Every definition of ``src/`` that ``entry`` reaches: a name bound to a
    function or class, an attribute named as any package method (so every
    method of that name), and building a class runs its ``__post_init__``.
    Annotations are not followed, nor anything in ``left_out``."""
    definitions, scopes = package_definitions()
    methods = {}
    for key in definitions:
        if key.count(".") == 2:
            methods.setdefault(key.rsplit(".", 1)[1], set()).add(key)
    reached, todo = set(), [entry]
    while todo:
        key = todo.pop()
        if key in reached or key in left_out or key not in definitions:
            continue
        reached.add(key)
        node, scope = definitions[key], scopes[key.split(".", 1)[0]]
        if isinstance(node, ast.ClassDef):
            todo.append(f"{key}.__post_init__")
            continue
        annotations = {id(sub) for part in ast.walk(node) for field in ("annotation", "returns")
                       if getattr(part, field, None) for sub in ast.walk(getattr(part, field))}
        for sub in ast.walk(node):
            if id(sub) in annotations:
                continue
            if isinstance(sub, ast.Name) and sub.id in scope:
                todo.append(scope[sub.id])
            elif isinstance(sub, ast.Attribute):
                todo += methods.get(sub.attr, ())
    return reached


ROUTES = {
    "route 1": "identity.lhs_series",
    "route 2": "residues.residue_sum_closed_form",
    "route 3": "residues.sum_finite_residues",
    "route 4": "residues.residue_at_infinity",
    "law": "asymptotics.check_residue_polynomial",
}
# what two routes may share; a new shared helper must argue for its place here
SHARED = {
    ("route 1", "route 2"): {"hyper.rising_quotient"},
    ("route 3", "route 4"): {"residues.ResidueKernel._to_z"},
}


def test_the_call_closure_sees_the_calls_that_are_there():
    assert {"hyper.hyper_series", "algebra.convolve", "algebra.LaurentSeries.__post_init__"} <= call_closure(
        ROUTES["route 1"]
    )
    assert "residues.ResidueKernel.expansion" in call_closure(ROUTES["route 4"])
    assert {"asymptotics._law_values", "asymptotics._step"} <= call_closure(ROUTES["law"])
    assert "hyper.IdentityInstance.derived" not in call_closure(ROUTES["route 2"])


@pytest.mark.parametrize("pair", [(x, y) for i, x in enumerate(ROUTES) for y in list(ROUTES)[i + 1 :]])
def test_the_routes_share_only_the_pinned_helpers(pair):
    # a route rewritten to read another agrees with it whenever the code is
    # right, so only the structure can show it: the call closures in src/ of
    # the routes' and the law's entry points, validation left out
    first, second = (call_closure(ROUTES[route]) for route in pair)
    assert first & second == SHARED.get(pair, set())


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

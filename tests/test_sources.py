"""Every Python file parses under the oldest interpreter the package supports,
every public name the package declares resolves, and the library holds only
code it runs or exports.

pyproject.toml declares requires-python >= 3.10, so syntax newer than 3.10
(except* groups, PEP 695 type parameters) must not appear in the sources.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_oldest_supported_python_is_3_10():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_public_names_resolve():
    # a name deleted from a module must also leave its __all__ and the
    # package's re-exports
    package = ROOT / "src" / "gf2to1"
    declared = []  # (module, name)
    for path in sorted(package.glob("*.py")):
        module = "gf2to1" if path.stem == "__init__" else f"gf2to1.{path.stem}"
        names = getattr(importlib.import_module(module), "__all__", ())
        declared += [(module, name) for name in names]
    for node in ast.walk(ast.parse((package / "__init__.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            declared += [(f"gf2to1.{node.module}", alias.name) for alias in node.names]
    missing = [(m, name) for m, name in declared if not hasattr(importlib.import_module(m), name)]
    assert not missing



def test_tracer_names_resolve():
    # perfbench/tracer.py calls getattr on each name it wraps, so a library
    # name it spans must stay bound while the tracer names it
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    spanned = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANNED" for t in node.targets)
    )
    names = [(home, attr) for _, home, attr in spanned]
    names += [("gf2to1.field", "FieldCtx.mul_table"), ("gf2to1.two2one", "qm_transforms")]
    assert ("gf2to1.poly", "resultant_eliminate") in names
    missing = []
    for module, dotted in names:
        obj = importlib.import_module(module)
        for attr in dotted.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append((module, dotted))
    assert not missing


# defined in the library, used by no library code, and kept: name -> reason
UNREFERENCED_KEPT = {
    "FieldCtx.sqrt": "documented in the README as part of the field API",
    "qm_shape_orbit": "perfbench/tracer.py spans it; ROADMAP item 2 moves it",
    "solve_artin_schreier": "documented in the README as part of the lowdeg API",
}


def test_library_defines_only_what_it_uses_or_exports():
    # name-based: a def counts as used when its name occurs in src/gf2to1 as a
    # name, an attribute or an import, so a submodule __all__ entry counts only
    # when the package re-exports it or library code reads it; an oracle only
    # tests use belongs in them
    package = ROOT / "src" / "gf2to1"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    used, defined = set(), []  # defined: (module, qualified name)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)

        def collect(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((module, prefix + child.name))
                    collect(child, f"{prefix}{child.name}.")
                else:
                    collect(child, prefix)

        collect(tree, "")
    unused = []
    for module, qualname in defined:
        name = qualname.rpartition(".")[2]
        dunder = name.startswith("__") and name.endswith("__")
        if not (dunder or name in used or qualname in UNREFERENCED_KEPT):
            unused.append(f"{module}.{qualname}")
    assert not unused
    assert set(UNREFERENCED_KEPT) <= {qualname for _, qualname in defined}


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: str(p.relative_to(ROOT)))
def test_library_imports_nothing_from_tests(path):
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
    roots = {name.partition(".")[0] for name in imported}
    assert not {r for r in roots if r in ("tests", "conftest") or r.startswith("test_")}

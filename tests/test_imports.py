"""Every module of the package uses each name it imports, imports no
underscore name from another module of the package, and only the von
Mises-Fisher sampler imports scipy.stats.

`__init__` is exempt from the first check: its imports are the package's
public surface."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lensdepth"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_checker_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom .x import a, b as c\nnp.zeros(a)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: c"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def private_imports(source: str) -> list[str]:
    """Underscore names imported from the package (dunders such as
    `__version__` are public)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "lensdepth"):
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_checker_finds_private_imports():
    source = ("from . import __version__, _x\nfrom .depth import _counts, batch_depth\n"
              "from lensdepth.metrics import _flat_rows\nfrom numpy import _globals\n")
    assert private_imports(source) == [
        "line 1: _x", "line 2: _counts", "line 3: _flat_rows"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_imports_no_private_name(module):
    assert private_imports((PACKAGE / module).read_text()) == []


def scipy_stats_imports(source: str) -> list[str]:
    """Every import of scipy.stats or of a name from it, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names
                      if a.name == "scipy.stats" or a.name.startswith("scipy.stats.")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "scipy.stats" or node.module.startswith("scipy.stats."):
                found += [f"from {node.module} import {a.name}" for a in node.names]
            elif node.module == "scipy":
                found += [f"from scipy import {a.name}" for a in node.names
                          if a.name == "stats"]
    return found


def test_checker_finds_scipy_stats_imports():
    source = ("import scipy.stats\nimport scipy.special\nfrom scipy import stats, special\n"
              "def f():\n    from scipy.stats import norm\n"
              "    from scipy.stats._distn_infrastructure import rv_continuous\n")
    assert scipy_stats_imports(source) == [
        "import scipy.stats", "from scipy import stats", "from scipy.stats import norm",
        "from scipy.stats._distn_infrastructure import rv_continuous"]


def test_scipy_stats_is_imported_only_for_vonmises_fisher():
    # scipy.stats takes about three times as long to import as
    # scipy.special, which the normal and Student-t laws use instead.
    found = {p.name: scipy_stats_imports(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: imports for name, imports in found.items() if imports} == {
        "asymptotics.py": ["from scipy.stats import vonmises_fisher"]}

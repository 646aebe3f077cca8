"""Every module of the package and of its tests uses each name it
imports, no module of the package imports an underscore name from
another of its modules, only the von Mises-Fisher sampler imports
scipy.stats, only the Student-t sampler and the gamma-tn table import
scipy.special, and every name the package exports is used by its
modules or named in the README.

`__init__` is exempt from the first check: its imports are the package's
public surface."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lensdepth"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = ROOT / "tests"


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


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_test_module_uses_every_import(module):
    assert unused_imports((TESTS / module).read_text()) == []


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


def scipy_imports(source: str, sub: str) -> list[tuple[str, str]]:
    """(scope, statement) for every import of scipy.<sub> or of a name
    from it, at any depth.  The scope lists the enclosing functions and
    the `if` tests whose branch holds the import, outermost first."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    module = f"scipy.{sub}"

    def scope(node):
        path = []
        while node in parents:
            node, child = parents[node], node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                path.append(f"def {node.name}")
            elif isinstance(node, ast.If):
                test = ast.unparse(node.test)
                path.append(f"if {test}" if child in node.body else f"if not {test}")
        return " / ".join(reversed(path))

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(scope(node), f"import {a.name}") for a in node.names
                      if a.name == module or a.name.startswith(module + ".")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == module or node.module.startswith(module + "."):
                names = ", ".join(a.name for a in node.names)
                found.append((scope(node), f"from {node.module} import {names}"))
            elif node.module == "scipy":
                found += [(scope(node), f"from scipy import {a.name}") for a in node.names
                          if a.name == sub]
    return found


def scipy_stats_imports(source: str) -> list[str]:
    """Every import of scipy.stats or of a name from it, at any depth."""
    return [statement for _, statement in scipy_imports(source, "stats")]


def test_checker_finds_scipy_stats_imports():
    source = ("import scipy.stats\nimport scipy.special\nfrom scipy import stats, special\n"
              "def f():\n    from scipy.stats import norm\n"
              "    from scipy.stats._distn_infrastructure import rv_continuous\n")
    assert scipy_stats_imports(source) == [
        "import scipy.stats", "from scipy import stats", "from scipy.stats import norm",
        "from scipy.stats._distn_infrastructure import rv_continuous"]


def test_checker_finds_the_scope_of_scipy_special_imports():
    source = ("from scipy import special\n"
              "def f(x):\n    if x == 'a':\n        import scipy.special.cython_special\n"
              "    elif x > 1:\n        pass\n    else:\n"
              "        from scipy.special import ndtr\n")
    assert scipy_imports(source, "special") == [
        ("", "from scipy import special"),
        ("def f / if x == 'a'", "import scipy.special.cython_special"),
        ("def f / if not x == 'a' / if not x > 1", "from scipy.special import ndtr")]


def test_scipy_stats_is_imported_only_for_vonmises_fisher():
    # scipy.stats takes about three times as long to import as
    # scipy.special, which the Student-t law uses instead.
    found = {p.name: scipy_stats_imports(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: imports for name, imports in found.items() if imports} == {
        "asymptotics.py": ["from scipy.stats import vonmises_fisher"]}


def test_scipy_special_is_imported_only_for_student_t_and_gamma_tn():
    # The normal law's cdf and ppf are ports of Cephes (asymptotics._ndtr
    # and _ndtri), so simulating it loads no scipy module.
    found = {p.name: scipy_imports(p.read_text(), "special")
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: imports for name, imports in found.items() if imports} == {
        "asymptotics.py": [("def make_sampler / if dist == 'student_t'",
                            "from scipy.special import stdtr, stdtrit")],
        "dispersion.py": [("def gamma_t_vs_normal_grid",
                           "from scipy.special import ndtri, stdtrit")]}


def unused_exports(init: str, modules: list[str], readme: str) -> list[str]:
    """Names `init` imports from the package that no module in `modules`
    refers to (a definition is not a reference) and `readme` does not
    name."""
    exported = [alias.asname or alias.name for node in ast.parse(init).body
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names]
    used = set()
    for source in modules:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(name for name in exported if name not in used
                  and not re.search(rf"\b{re.escape(name)}\b", readme))


def test_checker_finds_unused_exports():
    init = "from .a import f, g, h as k\nfrom .b import C, D\nfrom os import path\n"
    modules = ["def f():\n    return C()\n",
               "import x\ndef g():\n    return x.k\nclass D:\n    pass\n"]
    assert unused_exports(init, modules, "Call `g` first.") == ["D", "f"]


def test_every_export_is_used_or_documented():
    modules = [(PACKAGE / name).read_text() for name in MODULES]
    assert unused_exports((PACKAGE / "__init__.py").read_text(), modules,
                          (ROOT / "README.md").read_text()) == []

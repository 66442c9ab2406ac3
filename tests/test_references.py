"""Every dotted name the README cites and every :func:/:class: reference in
the package docstrings resolves to an attribute of its module, every
module-level name of the package is read somewhere in it, every name a
module imports is read in that module, every ``raise`` of the model lies in
``GameParams.__post_init__``, and ``import dtnsat`` loads no module of the
package."""
import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dtnsat

PACKAGE = Path(dtnsat.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(dtnsat.__path__))
# `simulate._contacts` or `dtnsat.model.relay_payoffs(...)` in README prose
README_REF = re.compile(r"`(?:dtnsat\.)?((?:%s)\.[\w.]*\w)[`(]" % "|".join(MODULES))
DOC_REF = re.compile(r":(?:func|class):`([\w.]+)`")


def readme_refs():
    return sorted(set(README_REF.findall(README.read_text(encoding="utf-8"))))


def docstring_refs():
    # an unqualified name is read in the module that cites it
    return sorted({(module, ref) for module in MODULES
                   for ref in DOC_REF.findall((PACKAGE / f"{module}.py").read_text(
                       encoding="utf-8"))})


def resolves(module: str, dotted: str) -> bool:
    parts = dotted.split(".")
    if parts[0] == "dtnsat":
        module, parts = parts[1], parts[2:]
    obj = importlib.import_module(f"dtnsat.{module}")
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_both_sources_cite_names():
    assert readme_refs() and docstring_refs()


@pytest.mark.parametrize("ref", readme_refs())
def test_readme_reference_resolves(ref):
    module, _, attr = ref.partition(".")
    assert resolves(module, attr), f"README cites `{ref}`, which dtnsat.{module} lacks"


@pytest.mark.parametrize("module, ref", docstring_refs())
def test_docstring_reference_resolves(module, ref):
    assert resolves(module, ref), f"dtnsat.{module} cites {ref}, which does not resolve"


def test_a_stale_reference_fails():
    assert not resolves("simulate", "_no_such_kernel")
    assert not resolves("experiments", "dtnsat.model.no_such_payoff")


def definitions(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and assignments (no dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("__")}


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level ``_name`` functions, classes and assignments (no dunders)."""
    return {name for name in definitions(tree) if name.startswith("_")}


def unread_names(package: Path) -> list[str]:
    """``module.name`` of each module-level name that no module of
    ``package`` reads.

    A name counts as read where it is loaded in its own module, loaded in a
    module that imports it from there, or taken as an attribute anywhere.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py")}
    loads = {module: {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             for module, tree in trees.items()}
    attributes = {node.attr for tree in trees.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    read = {(module, name) for module in trees for name in loads[module] | attributes}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                read.update((node.module, alias.name) for alias in node.names
                            if (alias.asname or alias.name) in loads[module])
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in definitions(tree) if (module, name) not in read)


def unused_private_names(package: Path) -> list[str]:
    return [ref for ref in unread_names(package) if ref.partition(".")[2].startswith("_")]


def unread_public_names(package: Path) -> list[str]:
    return [ref for ref in unread_names(package) if not ref.partition(".")[2].startswith("_")]


def test_every_private_name_is_used():
    defined = {name for path in PACKAGE.glob("*.py")
               for name in private_definitions(ast.parse(path.read_text(encoding="utf-8")))}
    assert len(defined) == 48
    assert unused_private_names(PACKAGE) == []


def test_an_unused_private_name_fails(tmp_path):
    (tmp_path / "core.py").write_text(
        "_LIMIT = 3\n_TABLE: dict = {}\n\n\ndef _helper():\n    return 1\n\n\n"
        "def _kernel():\n    return _LIMIT\n\n\nclass _Rows:\n    pass\n",
        encoding="utf-8")
    (tmp_path / "api.py").write_text(
        "from .core import _Rows, _TABLE, _kernel\n\n\ndef run():\n    return _kernel()\n\n\n"
        "def size(rows):\n    return rows._TABLE\n", encoding="utf-8")
    # _Rows is imported but never loaded; _TABLE is read as an attribute
    assert unused_private_names(tmp_path) == ["core._Rows", "core._helper"]


def unused_imports(package: Path) -> list[str]:
    """``module.name`` of each name that a module of ``package`` binds by an
    import and never loads; ``from __future__`` imports bind nothing."""
    unused = []
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused.extend(f"{path.stem}.{name}" for name in bound if name not in loads)
    return sorted(unused)


def test_every_import_is_read():
    assert unused_imports(PACKAGE) == []


def test_an_unused_import_fails(tmp_path):
    (tmp_path / "core.py").write_text(
        "from __future__ import annotations\n\nimport math\nimport os.path\n"
        "import numpy as np\nfrom typing import Optional\n\n"
        "from .model import _any_delivers, storage_energy as energy\n\n\n"
        "def run(x: Optional[float]):\n    return math.log(x) + energy(x)\n",
        encoding="utf-8")
    # Optional is read in an annotation; os, np and _any_delivers never are
    assert unused_imports(tmp_path) == ["core._any_delivers", "core.np", "core.os"]


def raise_lines(path: Path) -> tuple[list[int], list[int]]:
    """(inside, outside): the lines of the module's ``raise`` statements in
    ``GameParams.__post_init__``, where the model checks each input once,
    and elsewhere."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    checks = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "GameParams"
              for method in cls.body
              if isinstance(method, ast.FunctionDef) and method.name == "__post_init__"
              for node in ast.walk(method)}
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    return (sorted(node.lineno for node in raises if id(node) in checks),
            sorted(node.lineno for node in raises if id(node) not in checks))


def test_the_model_raises_only_in_its_input_check():
    inside, outside = raise_lines(PACKAGE / "model.py")
    assert inside and outside == []


def test_a_stray_raise_fails(tmp_path):
    (tmp_path / "model.py").write_text(
        "class GameParams:\n    def __post_init__(self):\n        raise ValueError\n\n"
        "    def scale(self):\n        raise ValueError\n\n\n"
        "def share(n):\n    if n < 1:\n        raise ValueError\n    return 1 / n\n",
        encoding="utf-8")
    assert raise_lines(tmp_path / "model.py") == ([3], [6, 11])


# the public names that no module of the package reads
PERFBENCH_ONLY = [
    # only perfbench/workloads.py imports it, for the region check's slack
    # (ROADMAP items 1 and 17)
    "equilibrium.BISECTION_TOL",
    # only perfbench/workloads.py imports it, for its solve-pse check
    # (ROADMAP items 1 and 17)
    "equilibrium.minimum_satisfying_cohort",
]


def test_every_public_name_is_read():
    assert unread_public_names(PACKAGE) == PERFBENCH_ONLY


def test_an_unread_public_name_fails(tmp_path):
    (tmp_path / "core.py").write_text(
        "LIMIT = 3\nTABLE: dict = {}\n_SCALE = 2\n\n\ndef helper():\n    return 1\n\n\n"
        "def kernel():\n    return LIMIT * _SCALE\n\n\nclass Rows:\n    pass\n",
        encoding="utf-8")
    (tmp_path / "api.py").write_text(
        "from .core import Rows, TABLE, kernel\n\n\ndef run():\n    return kernel()\n\n\n"
        "def size(rows):\n    return rows.TABLE\n\n\nrun()\nsize(None)\n", encoding="utf-8")
    # Rows is imported but never loaded; TABLE is read as an attribute
    assert unread_public_names(tmp_path) == ["core.Rows", "core.helper"]
    assert unused_private_names(tmp_path) == []


def test_the_package_namespace_is_thin():
    # a fresh interpreter, so that no test has imported a module yet
    probe = ("import sys, dtnsat; "
             "print(sorted(m for m in sys.modules if m.startswith('dtnsat.'))); "
             "print(sorted(n for n in vars(dtnsat) if not n.startswith('_')))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n[]\n"

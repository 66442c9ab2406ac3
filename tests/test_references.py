"""Every dotted name the README cites and every :func:/:class: reference in
the package docstrings resolves to an attribute of its module (a function
or class defined there, not imported), every module-level name of the
package is read somewhere in it, every name a module imports is read in
that module, every ``raise`` of the model lies in
``GameParams.__post_init__``, only the model applies its payoff rule or
reads its payoff parameters, ``learning`` takes only the episode stream
from ``simulate``, and ``import dtnsat`` loads no module of the package."""
import ast
import importlib
import inspect
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


def resolves(module: str, dotted: str, package: str = "dtnsat") -> bool:
    """Whether ``dotted``, read in ``package.module`` unless it names its
    package, is an attribute there; a function or class must also be defined
    in that module, not merely imported into it."""
    parts = dotted.split(".")
    if parts[0] == package:
        module, parts = parts[1], parts[2:]
    obj = importlib.import_module(f"{package}.{module}")
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return not (inspect.isfunction(obj) or inspect.isclass(obj)) or \
        obj.__module__ == f"{package}.{module}"


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


def test_a_citation_of_an_imported_function_or_class_fails(tmp_path, monkeypatch):
    (tmp_path / "refprobe").mkdir()
    (tmp_path / "refprobe" / "__init__.py").write_text("", encoding="utf-8")
    (tmp_path / "refprobe" / "model.py").write_text(
        "RATE = 0.5\n\n\nclass Record:\n    pass\n\n\ndef pay(x):\n    return x\n",
        encoding="utf-8")
    (tmp_path / "refprobe" / "simulate.py").write_text(
        "from .model import RATE, Record, pay\n\n\ndef run():\n    return pay(RATE)\n",
        encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        # simulate imports pay and Record, which model defines
        assert not resolves("simulate", "pay", "refprobe")
        assert not resolves("simulate", "Record", "refprobe")
        assert resolves("simulate", "refprobe.model.pay", "refprobe")
        assert resolves("model", "Record", "refprobe")
        # its own function, and a value, which has no home module
        assert resolves("simulate", "run", "refprobe")
        assert resolves("simulate", "RATE", "refprobe")
    finally:
        for name in [m for m in sys.modules if m.partition(".")[0] == "refprobe"]:
            del sys.modules[name]


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
    assert len(defined) == 50
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


# the model states how a relay is paid, once, in _payoff_pair; the other
# modules pay through model._cohort_payoffs, its binomial mean or
# model.reduced_payoffs
PAYOFF_RULE = ("delivery_share", "relay_payoffs", "_payoff_pair")
# the episode stream, all that learning takes from simulate
STREAM = {"MODEL", "_index", "_windows"}


def payoff_rule_calls(package: Path) -> list[str]:
    """``module:line`` of each call of a ``PAYOFF_RULE`` function, by name
    or as an attribute, in a module of ``package`` other than ``model``."""
    calls = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "model":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and (getattr(node.func, "id", None) in PAYOFF_RULE
                                               or getattr(node.func, "attr", None) in PAYOFF_RULE):
                calls.append((path.stem, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(calls)]


def test_only_the_model_applies_the_payoff_rule():
    assert payoff_rule_calls(PACKAGE) == []


def test_a_payoff_rule_call_outside_the_model_fails(tmp_path):
    (tmp_path / "model.py").write_text(
        "def relay_payoffs(alpha, share):\n    return alpha * share\n\n\n"
        "def pay(alpha):\n    return relay_payoffs(alpha, 0.5)\n", encoding="utf-8")
    (tmp_path / "simulate.py").write_text(
        "from . import model\nfrom .model import delivery_share\n\n\n"
        "def score(k, q):\n    share = delivery_share(k, q)\n"
        "    return model.relay_payoffs(1.0, share)\n\n\n"
        "TABLE = (delivery_share, model.relay_payoffs)\n", encoding="utf-8")
    # the model's own call and the two uncalled references do not count
    assert payoff_rule_calls(tmp_path) == ["simulate:6", "simulate:7"]


# the regrets that the payoff rule charges, read only by the model
PAYOFF_PARAMETERS = ("sigma", "gamma")


def payoff_parameter_reads(package: Path) -> list[str]:
    """``module:line`` of each read of a ``PAYOFF_PARAMETERS`` attribute in a
    module of ``package`` other than ``model``."""
    reads = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "model":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in PAYOFF_PARAMETERS):
                reads.append((path.stem, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(reads)]


def test_only_the_model_reads_the_payoff_parameters():
    assert payoff_parameter_reads(PACKAGE) == []


def test_a_payoff_parameter_read_outside_the_model_fails(tmp_path):
    (tmp_path / "model.py").write_text(
        "def regret(params):\n    return params.sigma + params.gamma\n", encoding="utf-8")
    (tmp_path / "equilibrium.py").write_text(
        "KEYS = {\"sigma\": 0.2}\n\n\n"
        "def reward(params, cost):\n    return cost - params.gamma\n\n\n"
        "def tune(record):\n    record.sigma = 0.1\n    return record\n", encoding="utf-8")
    # the model's own reads, a key named sigma and a store do not count
    assert payoff_parameter_reads(tmp_path) == ["equilibrium:5"]


def simulate_imports(path: Path) -> set[str]:
    """The names that the module at ``path`` imports from ``simulate``, and
    ``simulate`` itself where it imports the whole module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("simulate", "dtnsat.simulate"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update("simulate" for alias in node.names
                         if alias.name in ("simulate", "dtnsat.simulate"))
    return names


def test_learning_takes_only_the_stream_from_simulate():
    assert simulate_imports(PACKAGE / "learning.py") <= STREAM


def test_a_payoff_import_from_simulate_fails(tmp_path):
    (tmp_path / "learning.py").write_text(
        "from . import simulate\nfrom .model import _cohort_payoffs\n"
        "from .simulate import MODEL, _cohort_shares, _windows\n", encoding="utf-8")
    assert simulate_imports(tmp_path / "learning.py") - STREAM == {"_cohort_shares", "simulate"}


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

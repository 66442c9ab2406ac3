"""Every dotted name the README cites and every :func:/:class: reference in
the package docstrings resolves to an attribute of its module."""
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import dtnsat

PACKAGE = Path(dtnsat.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"
MODULES = sorted(m.name for m in pkgutil.iter_modules(dtnsat.__path__))
# `simulate._contacts` or `dtnsat.model.tagged_payoffs(...)` in README prose
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

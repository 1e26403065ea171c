"""The package holds what its commands run.

Every public module-level function or class of ``src/srip``, and every
public method or property of such a class, is referred to by code in a
command, another package module, ``scripts`` or ``perfbench``.  Code
that only tests reach belongs in the tests, reference code in
``tests/oracles.py``.

A reference counts only where code makes it: a name (``ast.Name``), an
attribute (``ast.Attribute``) or an import.  Docstrings, comments and
strings, such as the span table of ``perfbench/spans.py``, keep nothing
in the package; the expressions of an f-string are code and count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "srip"
USERS = [PACKAGE, ROOT / "scripts", ROOT / "perfbench"]


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path, node.lineno, node.name


def _public_members():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, item.lineno, f"{node.name}.{item.name}"


def _references():
    """(names, attributes): every name that code in ``USERS`` refers to, as a
    bare name or an import, and every attribute that it reads or writes."""
    names, attributes = set(), set()
    for folder in USERS:
        for path in sorted(folder.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
    return names, attributes


DEFINITIONS = list(_public_definitions())
MEMBERS = list(_public_members())
NAMES, ATTRIBUTES = _references()


@pytest.mark.parametrize("path, lineno, name", DEFINITIONS,
                         ids=[f"{path.stem}.{name}" for path, _, name in DEFINITIONS])
def test_every_public_name_is_used_outside_the_tests(path, lineno, name):
    """A module attribute ``srip.x.name`` counts as a use of ``name`` too."""
    assert name in NAMES | ATTRIBUTES, f"{path.name}:{lineno} {name} is referred to only by tests"


@pytest.mark.parametrize("path, lineno, name", MEMBERS,
                         ids=[f"{path.stem}.{name}" for path, _, name in MEMBERS])
def test_every_public_method_is_used_outside_the_tests(path, lineno, name):
    """A method or property counts as used where code reads ``.name``.  The
    match ignores the receiver, so a name that some other object also
    carries passes on that object's use: ``PrimeField.add`` would pass on
    ``seen.add`` in ``paths.py``."""
    assert name.rsplit(".", 1)[1] in ATTRIBUTES, \
        f"{path.name}:{lineno} {name} is referred to only by tests"

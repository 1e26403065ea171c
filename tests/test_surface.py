"""The package holds what its commands run.

Every public module-level function or class of ``src/srip``, and every
public method or property of such a class, is referred to by a command,
another package module, ``scripts`` or ``perfbench``.  Code that only
tests reach belongs in the tests, reference code in ``tests/oracles.py``.
"""

import ast
import re
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


def _lines():
    for folder in USERS:
        for path in sorted(folder.rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                yield path, number, line


def _public_members():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path, item.lineno, f"{node.name}.{item.name}"


DEFINITIONS = list(_public_definitions())
MEMBERS = list(_public_members())
LINES = list(_lines())


@pytest.mark.parametrize("path, lineno, name", DEFINITIONS,
                         ids=[f"{path.stem}.{name}" for path, _, name in DEFINITIONS])
def test_every_public_name_is_used_outside_the_tests(path, lineno, name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    assert any(word.search(line) for where, number, line in LINES
               if (where, number) != (path, lineno)), \
        f"{path.name}:{lineno} {name} is referred to only by tests"


@pytest.mark.parametrize("path, lineno, name", MEMBERS,
                         ids=[f"{path.stem}.{name}" for path, _, name in MEMBERS])
def test_every_public_method_is_used_outside_the_tests(path, lineno, name):
    """A method or property counts as used where ``.name`` appears outside
    its own definition line.  The match ignores the receiver, so a name
    that some other object also carries passes on that object's use:
    ``PrimeField.add`` would pass on ``seen.add`` in ``paths.py``, and
    ``Dictionary.bases`` on the ``.bases`` array of ``perfbench``."""
    attribute = re.compile(rf"\.{re.escape(name.rsplit('.', 1)[1])}\b")
    assert any(attribute.search(line) for where, number, line in LINES
               if (where, number) != (path, lineno)), \
        f"{path.name}:{lineno} {name} is referred to only by tests"

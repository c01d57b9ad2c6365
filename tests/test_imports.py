"""Every name a module of the package imports is used in that module, the
census engine reads no private name of the canonical labeling, and each
type alias is assigned in one module."""

import ast
import builtins
import typing
from collections import Counter
from pathlib import Path

import pytest

import cycleset

# __init__ imports names to export them, not to use them
MODULES = sorted(
    p for p in Path(cycleset.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that no expression reads.
    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as p\n"
        "from a import b, c\n"
        "c()\n"
    )
    assert unused_imports(source) == ["os", "p", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_reads(source: str, module: str) -> list[str]:
    """The underscore names of the sibling ``module`` that ``source`` reads,
    as ``module._name`` or by ``from .module import _name``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
            names += [a.name for a in node.names if a.name.startswith("_")]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == module
            and node.attr.startswith("_")
        ):
            names.append(node.attr)
    return names


def test_private_reads_are_found():
    source = (
        "from . import canon\n"
        "from .canon import _a, b\n"
        "from .perm import _c\n"
        "canon._d(canon.e, other._f)\n"
    )
    assert private_reads(source, "canon") == ["_a", "_d"]


def test_enumeration_reads_no_private_name_of_canon():
    source = (Path(cycleset.__file__).parent / "enumeration.py").read_text(encoding="utf-8")
    assert private_reads(source, "canon") == []


# the generic types an alias subscripts: builtin classes and typing's names
GENERICS = {n for n in dir(builtins) if isinstance(getattr(builtins, n), type)}
GENERICS |= set(typing.__all__)


def type_aliases(source: str) -> list[str]:
    """The type aliases that ``source`` assigns at module level: a name
    bound to a subscripted generic type such as ``tuple[int, ...]``, a name
    annotated ``TypeAlias``, or a ``type`` statement."""
    names = []
    for node in ast.parse(source).body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in GENERICS
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            names.append(node.targets[0].id)
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and "TypeAlias" in ast.unparse(node.annotation)
        ):
            names.append(node.target.id)
        elif type(node).__name__ == "TypeAlias":  # ``type X = ...``, Python 3.12+
            names.append(node.name.id)
    return names


def test_type_aliases_are_found():
    source = (
        "from typing import TypeAlias\n"
        "A = tuple[int, ...]\n"
        "B: TypeAlias = list[int]\n"
        "C = 3\n"
        "D = x[0]\n"
        "E = Callable[[int], int]\n"
        "def f():\n"
        "    F = dict[int, int]\n"
    )
    assert type_aliases(source) == ["A", "B", "E"]


def test_each_type_alias_is_assigned_once():
    counts = Counter(
        name for path in MODULES for name in type_aliases(path.read_text(encoding="utf-8"))
    )
    assert "Table" in counts
    assert [name for name, k in counts.items() if k > 1] == []

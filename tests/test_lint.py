"""Static checks on the library source that need no linter installed."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "locirr"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that nothing else in the module
    reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def names_read(node) -> Counter:
    """How often each name is read, as a name, an attribute or an import."""
    read = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            read[n.id] += 1
        elif isinstance(n, ast.Attribute):
            read[n.attr] += 1
        elif isinstance(n, ast.alias):
            read[n.name] += 1
    return read


def unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes (one leading underscore)
    that no module of ``sources`` refers to outside their own definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = sum((names_read(tree) for tree in trees.values()), Counter())
    return [
        f"{name} line {node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and read[node.name] == names_read(node)[node.name]
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_module_imports(path):
    # __init__.py imports only to re-export, so it is exempt
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_caught():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nd()\n"
    assert unused_imports(source) == ["line 2: os", "line 3: b"]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def test_unreferenced_private_definition_is_caught():
    sources = {
        "a.py": (
            "def _kept():\n    pass\n"
            "def _dead():\n    pass\n"
            "class _Dead:\n    pass\n"
            "def _recursive():\n    return _recursive()\n"
            "def __dunder__():\n    pass\n"
        ),
        "b.py": "from a import _kept\n",
    }
    assert unreferenced_private_defs(sources) == [
        "a.py line 3: _dead",
        "a.py line 5: _Dead",
        "a.py line 7: _recursive",
    ]

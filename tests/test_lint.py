"""Static checks on the library source that need no linter installed."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "locirr"
# public builders that only the tests call: kept for building test graphs
TEST_BUILDERS = {"path_graph", "complete_graph", "star_graph"}


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


def unreferenced_defs(sources: dict[str, str], private: bool, users=()) -> list[str]:
    """Module-level functions and classes of ``sources``, the private ones
    (one leading underscore) or the public ones, that neither a module of
    ``sources`` nor a source in ``users`` refers to outside their own
    definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = sum((names_read(tree) for tree in trees.values()), Counter())
    for source in users:
        read += names_read(ast.parse(source))
    return [
        f"{name} line {node.lineno}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
        and not node.name.startswith("__")
        and read[node.name] == names_read(node)[node.name]
    ]


def assert_statements(source: str) -> list[str]:
    """Every ``assert`` statement: ``python -O`` strips them, so a check the
    library relies on must raise explicitly."""
    return [f"line {n.lineno}" for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


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
    assert unreferenced_defs(sources, private=True) == []


def test_no_unreferenced_public_definitions():
    # a public name must serve the library, the CLI, the bench, a script or
    # an acceptance criterion; a re-export in __init__.py alone is no use
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    users = [
        p.read_text()
        for p in [*ROOT.glob("bench/*.py"), *ROOT.glob("scripts/*.py"), ROOT / "tests" / "test_acceptance.py"]
    ]
    unused = unreferenced_defs(sources, private=False, users=users)
    assert [u for u in unused if u.split(": ")[1] not in TEST_BUILDERS] == []


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
    assert unreferenced_defs(sources, private=True) == [
        "a.py line 3: _dead",
        "a.py line 5: _Dead",
        "a.py line 7: _recursive",
    ]


def test_unreferenced_public_definition_is_caught():
    sources = {
        "a.py": (
            "def kept():\n    pass\n"
            "def used_by_user():\n    pass\n"
            "def dead():\n    pass\n"
            "class Dead:\n    pass\n"
            "def _private():\n    return kept()\n"
        ),
    }
    users = ["from a import used_by_user\n"]
    assert unreferenced_defs(sources, private=False, users=users) == [
        "a.py line 5: dead",
        "a.py line 7: Dead",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []


def test_assert_statement_is_caught():
    source = "def f(x):\n    assert x\n    if x:\n        assert (x, 'why')\n    return 'assert'\n"
    assert assert_statements(source) == ["line 2", "line 4"]

"""Every private module-level name in ``src/metafn`` is read somewhere in ``src/metafn``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "metafn"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def defined_private_names(tree: ast.Module) -> list[str]:
    """Private names the module's top level binds by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if _private(n)]


def loaded_names(tree: ast.Module) -> set[str]:
    """Names the module reads, bare (``_f()``) or as an attribute (``mod._f``)."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def orphans(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(text) for name, text in sources.items()}
    loaded = set().union(*map(loaded_names, trees.values()))
    return [f"{name}: {helper}" for name, tree in trees.items()
            for helper in defined_private_names(tree) if helper not in loaded]


@pytest.mark.parametrize("sources,found", [
    ({"a": "def _f():\n    pass\n"}, ["a: _f"]),
    ({"a": "def _f():\n    pass\n", "b": "from .a import _f\n_f()\n"}, []),
    ({"a": "def _f():\n    pass\n", "b": "from . import a\na._f()\n"}, []),
    ({"a": "_X = 1\nclass _C:\n    pass\n"}, ["a: _X", "a: _C"]),
    ({"a": "_X = 1\ndef f():\n    return _X\n"}, []),
    ({"a": "_X: int = 1\n_Y, (_Z, w) = 2, (3, 4)\nprint(_Y)\n"}, ["a: _X", "a: _Z"]),
    ({"a": "def __getattr__(name):\n    pass\n"}, []),
    ({"a": "def f():\n    def _inner():\n        pass\n"}, []),
])
def test_the_rule_finds_orphaned_private_names(sources, found):
    assert orphans(sources) == found


def test_no_private_helper_is_left_unused():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert orphans(sources) == []

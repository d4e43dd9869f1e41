"""No module in ``src/metafn`` imports a name it never uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "metafn"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names that the module's top-level imports bind and the module never reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("code,unused", [
    ("from typing import Callable, Sequence\nf: Callable", ["Sequence"]),
    ("import numpy as np\nnp.zeros(1)", []),
    ("import os.path\nos.sep", []),
    ("from . import tensor as T\n", ["T"]),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import json\n", []),
])
def test_the_rule_finds_unused_imports(code, unused):
    assert unused_imports(ast.parse(code)) == unused


def test_no_module_imports_a_name_it_never_uses():
    offenders = [f"{path.name}: {name}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
                 for name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []

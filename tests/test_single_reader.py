"""Every input file enters through ``metafn.errors``: no other module reads a file."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "metafn"


def reads_a_file(call: ast.Call) -> bool:
    """Whether ``call`` is ``open`` in a read mode, ``.read_bytes``, ``.read_text`` or
    ``json.load``; a mode that is not a literal counts as a read."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("read_bytes", "read_text"):
        return True
    if (isinstance(func, ast.Attribute) and func.attr == "load"
            and isinstance(func.value, ast.Name) and func.value.id == "json"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        mode_at = 1               # open(file, mode)
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode_at = 0               # Path.open(mode)
    else:
        return False
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[mode_at:mode_at + 1]
    mode = modes[0] if modes else ast.Constant("r")
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and "r" not in mode.value and "+" not in mode.value)


@pytest.mark.parametrize("code,reads", [
    ("open(p)", True), ("open(p, 'rb')", True), ("open(p, mode='r+')", True),
    ("open(p, m)", True), ("p.open()", True), ("p.read_text()", True),
    ("p.read_bytes()", True), ("json.load(fh)", True),
    ("open(p, 'w')", False), ("p.open('wb')", False), ("json.loads(s)", False),
    ("p.write_bytes(b)", False), ("json.dump(x, fh)", False),
])
def test_the_rule_tells_reads_from_writes(code, reads):
    assert reads_a_file(ast.parse(code, mode="eval").body) is reads


def test_no_module_but_errors_reads_a_file():
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call) and reads_a_file(node)]
    assert offenders == []

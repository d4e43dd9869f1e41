"""Every output file leaves through ``metafn.errors``: no other module writes a file."""

import ast
import json
import os
from pathlib import Path

import pytest

from metafn.errors import json_text, write_file

SRC = Path(__file__).resolve().parents[1] / "src" / "metafn"


def writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` is ``open`` in a mode with ``w``, ``a``, ``x`` or ``+``,
    ``.write_text``, ``.write_bytes``, ``.mkdir``, ``json.dump`` or ``os.replace``;
    a mode that is not a literal counts as a write."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes", "mkdir"):
        return True
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and (func.value.id, func.attr) in {("json", "dump"), ("os", "replace")}):
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
                and not set(mode.value) & set("wax+"))


@pytest.mark.parametrize("code,writes", [
    ("open(p, 'w')", True), ("open(p, 'wb')", True), ("open(p, mode='a')", True),
    ("open(p, 'x')", True), ("open(p, 'r+')", True), ("open(p, m)", True),
    ("p.open('w')", True), ("p.open(mode='ab')", True), ("p.write_text(s)", True),
    ("p.write_bytes(b)", True), ("json.dump(x, fh)", True), ("p.mkdir(parents=True)", True),
    ("os.replace(a, b)", True),
    ("open(p)", False), ("open(p, 'rb')", False), ("p.open()", False),
    ("p.read_text()", False), ("p.read_bytes()", False), ("json.dumps(x)", False),
    ("json.load(fh)", False), ("s.replace(a, b)", False), ("fh.write(s)", False),
])
def test_the_rule_tells_writes_from_reads(code, writes):
    assert writes_a_file(ast.parse(code, mode="eval").body) is writes


def test_no_module_but_errors_writes_a_file():
    offenders = [f"{path.name}:{node.lineno}"
                 for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.Call) and writes_a_file(node)]
    assert offenders == []


def test_write_file_makes_the_parents_and_writes_text_as_utf8(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    write_file(path, "λ\n")
    write_file(tmp_path / "out.bin", b"\x00\xff")
    assert path.read_bytes() == "λ\n".encode("utf-8")
    assert (tmp_path / "out.bin").read_bytes() == b"\x00\xff"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "out.bin"]


def test_a_failed_write_keeps_the_previous_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    write_file(path, json_text({"a": 1}))

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        write_file(path, json_text({"a": 2}))
    assert json.loads(path.read_text()) == {"a": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_json_text_is_strict_sorted_and_ends_in_a_newline():
    assert json_text({"b": [1.5], "a": None}) == '{\n  "a": null,\n  "b": [\n    1.5\n  ]\n}\n'
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            json_text({"a": bad})

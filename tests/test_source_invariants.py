"""Invariants of the source tree itself, checked on its syntax trees.

Plans are values (``docs/backends.md``, "Plans are values"): nothing
under ``src/repro`` copies a plan to defend itself against a consumer,
and no operator can have its children swapped in place.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def offences_in(source: str):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "deepcopy" \
                or isinstance(node, ast.Attribute) \
                and node.attr == "deepcopy" \
                or isinstance(node, ast.alias) \
                and "deepcopy" in (node.name, node.asname):
            yield f"line {node.lineno}: deepcopy"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name == "replace_children":
            yield f"line {node.lineno}: def replace_children"


def test_the_scan_catches_what_it_is_for():
    assert len(list(offences_in(
        "import copy\nfrom copy import deepcopy as dc\n"
        "x = copy.deepcopy(y)\nz = deepcopy(y)\n"
        "class A:\n    def replace_children(self, new): pass\n"))) == 4


def test_no_deepcopy_and_no_replace_children_under_src():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50
    offences = [f"{path.relative_to(SRC)}: {offence}"
                for path in modules
                for offence in offences_in(path.read_text())]
    assert not offences, offences

"""Invariants of the source tree itself, checked on its syntax trees.

Plans are values (``docs/backends.md``, "Plans are values"): nothing
under ``src/repro`` copies a plan to defend itself against a consumer,
and no operator can have its children swapped in place.

The service sits on top (``docs/service.md``): it imports the core, the
debugger and the backends; none of them imports it back, so where a
reenactment runs is never decided below the caller.
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


def service_imports_in(source: str, package: str):
    """Imports of ``repro.service`` in a module of ``package``, at any
    depth (a function-level import is still a dependency)."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # ``from ..x import y`` inside ``package`` names ``x``
            # relative to ``package`` minus (level - 1) components
            parts = package.split(".")
            base = parts[:len(parts) - node.level + 1] \
                if node.level else []
            module = ".".join(base + [node.module or ""]).strip(".")
            names = [module] + [f"{module}.{alias.name}"
                                for alias in node.names]
        else:
            continue
        for name in names:
            if name == "repro.service" \
                    or name.startswith("repro.service."):
                yield f"line {node.lineno}: imports {name}"
                break


def test_the_import_scan_catches_what_it_is_for():
    source = ("import repro.service.jobs\n"
              "from repro import service\n"
              "from ..service import jobs\n"
              "def f():\n    from repro.service.jobs import Job\n"
              "from repro.core import reenactor\n")
    assert len(list(service_imports_in(source, "repro.core"))) == 4


def test_nothing_below_the_service_imports_it():
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "service" \
                or relative == pathlib.Path("__init__.py"):
            continue
        package = ".".join(("repro",) + relative.parts[:-1])
        offences += [f"{relative}: {offence}" for offence
                     in service_imports_in(path.read_text(), package)]
    assert not offences, offences

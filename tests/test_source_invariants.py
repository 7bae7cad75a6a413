"""Invariants of the source tree itself, checked on its syntax trees.

Plans are values (``docs/backends.md``, "Plans are values"): nothing
under ``src/repro`` copies a plan to defend itself against a consumer,
and no operator can have its children swapped in place.

The service sits on top (``docs/service.md``): it imports the core, the
debugger and the backends; none of them imports it back, so where a
reenactment runs is never decided below the caller.  Likewise the core
never imports the debugger built on it.

The library is stdlib-only: no module imports ``networkx`` (the
provenance graph is a plain value, ``repro.debugger.graph``).

A what-if table edit is a leaf of the reenactment plan
(``docs/backends.md``, "What-if edits are plan leaves"): no evaluation
context carries replacement relations beside the plan, so none takes a
parameter named :data:`CHANNEL` and no attribute of that name is read.

Fault sites are one list (``docs/robustness.md``): every site a
``fault_point`` call names is in :data:`repro.faults.FAULT_SITES`, and
every entry of it is named by a call.
"""

import ast
import pathlib

from repro.faults import FAULT_SITES

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


def imports_in(source: str, package: str, target: str):
    """Imports of module ``target`` (or a submodule of it) in a module
    of ``package``, at any depth (a function-level import is still a
    dependency)."""
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
            if name == target or name.startswith(target + "."):
                yield f"line {node.lineno}: imports {name}"
                break


def test_the_import_scan_catches_what_it_is_for():
    source = ("import repro.service.jobs\n"
              "from repro import service\n"
              "from ..service import jobs\n"
              "def f():\n    from repro.service.jobs import Job\n"
              "from repro.core import reenactor\n")
    assert len(list(imports_in(source, "repro.core",
                               "repro.service"))) == 4
    source = ("import networkx as nx\n"
              "from networkx.algorithms import ancestors\n"
              "def f():\n    import networkx\n"
              "import networkxish\n")
    assert len(list(imports_in(source, "repro.core", "networkx"))) == 3


def offences_under_src(target, skip=()):
    """Every import of ``target`` by a module under ``src/repro``
    whose first path component is not named in ``skip``."""
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] in skip:
            continue
        package = ".".join(("repro",) + relative.parts[:-1])
        offences += [f"{relative}: {offence}" for offence
                     in imports_in(path.read_text(), package, target)]
    return offences


#: the name of the deleted channel that carried R' beside the plan
CHANNEL = "overrides"

#: the evaluation-context entry points, by module: none may take a
#: :data:`CHANNEL` parameter
CONTEXT_SIGNATURES = {
    "algebra/evaluator.py": {("EvalContext", "__init__")},
    "db/engine.py": {("DatabaseContext", "__init__"),
                     ("Database", "context")},
}


def override_channel_in(source: str, signatures):
    """Uses of a :data:`CHANNEL` attribute, and methods of
    ``signatures`` (``(class, method)`` pairs) taking a :data:`CHANNEL`
    parameter; also yields ``("found", pair)`` for each such method
    seen, so a rename cannot pass the check vacuously."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == CHANNEL:
            yield f"line {node.lineno}: uses attribute {CHANNEL}"
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not isinstance(item, ast.FunctionDef) \
                    or (node.name, item.name) not in signatures:
                continue
            yield "found", (node.name, item.name)
            args = item.args
            if CHANNEL in [arg.arg for arg in args.posonlyargs
                           + args.args + args.kwonlyargs]:
                yield (f"line {item.lineno}: {node.name}.{item.name} "
                       f"takes {CHANNEL}")


def test_the_override_scan_catches_what_it_is_for():
    source = (f"class EvalContext:\n"
              f"    def __init__(self, params=None, *, {CHANNEL}=None):\n"
              f"        self.{CHANNEL} = {CHANNEL}\n"
              f"def f(ctx):\n    return ctx.{CHANNEL}.get('t')\n")
    found = list(override_channel_in(source,
                                     {("EvalContext", "__init__")}))
    assert ("found", ("EvalContext", "__init__")) in found
    assert len([item for item in found if isinstance(item, str)]) == 3


def test_no_override_channel_beside_the_plan():
    offences, found = [], set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        for item in override_channel_in(
                path.read_text(), CONTEXT_SIGNATURES.get(relative, ())):
            if isinstance(item, str):
                offences.append(f"{relative}: {item}")
            else:
                found.add((relative, item[1]))
    assert not offences, offences
    assert found == {(module, pair)
                     for module, pairs in CONTEXT_SIGNATURES.items()
                     for pair in pairs}


def test_nothing_below_the_service_imports_it():
    offences = offences_under_src("repro.service",
                                  skip=("service", "__init__.py"))
    assert not offences, offences


def test_the_core_does_not_import_the_debugger():
    offences = [offence for offence in offences_under_src("repro.debugger")
                if offence.startswith("core/")]
    assert not offences, offences


def test_no_module_imports_networkx():
    offences = offences_under_src("networkx")
    assert not offences, offences


def fault_sites_in(source: str):
    """The site each ``fault_point`` call names, called directly or
    through a retry policy (``retry.call(fault_point, "site", ...)``);
    a site that is not a string literal yields ``None``."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        name = func.id if isinstance(func, ast.Name) \
            else func.attr if isinstance(func, ast.Attribute) else None
        if name == "call" and args and isinstance(args[0], ast.Name) \
                and args[0].id == "fault_point":
            args = args[1:]
        elif name != "fault_point":
            continue
        site = args[0] if args else None
        yield site.value if isinstance(site, ast.Constant) \
            and isinstance(site.value, str) else None


def test_the_fault_site_scan_catches_what_it_is_for():
    source = ("fault_point('a.b', table=t)\n"
              "faults.fault_point('c.d')\n"
              "self.retry.call(fault_point, 'e.f', site='e.f')\n"
              "self.retry.call(self.write, site='g.h')\n"
              "fault_point(name)\n")
    assert list(fault_sites_in(source)) == ["a.b", "c.d", "e.f", None]


def test_every_fault_point_names_a_listed_site():
    named = set()
    for path in sorted(SRC.rglob("*.py")):
        named.update(fault_sites_in(path.read_text()))
    assert len(FAULT_SITES) == len(set(FAULT_SITES))
    assert named == set(FAULT_SITES), (
        f"unlisted: {sorted(map(str, named - set(FAULT_SITES)))}; "
        f"never called: {sorted(set(FAULT_SITES) - named)}")

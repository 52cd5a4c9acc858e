"""The public package namespace and what the package's code reaches."""

import ast
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

from jsonschema import Draft202012Validator

import qeflab

SRC = Path(qeflab.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_all_names_resolve():
    # a helper deleted from a module but still listed in __all__ fails here
    missing = [name for name in qeflab.__all__ if not hasattr(qeflab, name)]
    assert missing == []


def test_cli_import_loads_no_scipy():
    # scipy and jsonschema are test-only dependencies; the CLI must start without them
    banned = ("scipy", "jsonschema", "jsonschema_specifications", "referencing", "rpds",
              "attr", "attrs")
    code = ("import sys, qeflab.cli; "
            f"print(sorted(k for k in sys.modules if k.split('.')[0] in {banned!r}))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_packaged_schema_is_valid():
    # load_config validates configs only; the schema's own check is here
    schema = json.loads(resources.files("qeflab").joinpath("config_schema.json").read_text())
    assert schema["$schema"] == "https://json-schema.org/draft/2020-12/schema"
    Draft202012Validator.check_schema(schema)


def _walk(node):
    """node and its descendants, skipping annotations: a type hint runs nothing."""
    yield node
    for field, value in ast.iter_fields(node):
        if field in ("annotation", "returns"):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _walk(child)


def _defined_name(node):
    """The name a top-level statement defines: a function, a class or an
    UPPER_CASE constant assigned on its own; None for any other statement."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name) and node.targets[0].id.isupper()):
        return node.targets[0].id
    return None


def _unreached(sources, traced):
    """Module-level functions, classes and constants that no root reaches,
    as "module.name".

    sources maps a module name to its text.  The roots are every top-level
    statement that is neither a definition nor an import (the CLI's
    __main__ block among them) and the traced (module, name) pairs.  A
    definition reaches what its body or value names: a definition of its
    own module, a name imported from a sibling module, or an attribute of
    a sibling module.  Reachability is transitive, so helpers that only
    unreached code calls, and constants that only unreached code reads,
    are unreached too.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defs = {mod: {name for n in tree.body if (name := _defined_name(n))}
            for mod, tree in trees.items()}

    def refs(mod, imports, node):
        out = set()
        for n in _walk(node):
            if not isinstance(getattr(n, "ctx", None), ast.Load):
                continue    # a stored name, such as a dataclass field, refers to nothing
            if isinstance(n, ast.Name):
                if n.id in imports:
                    out.add(imports[n.id])
                elif n.id in defs[mod]:
                    out.add((mod, n.id))
            elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and imports.get(n.value.id, (None, ""))[1] is None):
                out.add((imports[n.value.id][0], n.attr))
        return out

    edges, reached = {}, set(traced)
    for mod, tree in trees.items():
        imports = {}
        for n in tree.body:
            if isinstance(n, ast.ImportFrom) and n.level == 1:
                for alias in n.names:
                    # "from . import m" names a module, "from .m import x" a definition
                    target = (alias.name, None) if n.module is None else (n.module, alias.name)
                    imports[alias.asname or alias.name] = target
        for n in tree.body:
            if isinstance(n, (ast.Import, ast.ImportFrom)):
                continue
            name = _defined_name(n)
            if name:
                edges[(mod, name)] = refs(mod, imports, n)
            else:
                reached |= refs(mod, imports, n)
    todo = list(reached)
    while todo:
        for ref in edges.get(todo.pop(), ()):
            if ref not in reached:
                reached.add(ref)
                todo.append(ref)
    return sorted(f"{mod}.{name}" for mod in defs for name in defs[mod]
                  if (mod, name) not in reached)


def _package_sources():
    # __init__ only re-exports; a name listed there is not thereby used
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
            if path.stem != "__init__"}


def _traced_calls():
    """(module, name) of every tracer.call(span, "module", "name", ...) in perfbench."""
    calls = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "call" and isinstance(n.func.value, ast.Name)
                    and n.func.value.id == "tracer" and len(n.args) >= 3
                    and all(isinstance(a, ast.Constant) and isinstance(a.value, str)
                            for a in n.args[1:3])):
                calls.add((n.args[1].value, n.args[2].value))
    return calls


def _unread_members(sources, readers):
    """Non-dunder methods and properties of the top-level classes in sources
    that no reader reads, as "module.Class.name".

    sources maps a module name to its text; readers are texts.  A reader
    reads a member where it names it as an attribute that is not assigned
    (x.name) or as a string constant (getattr(x, "name")).  The match is
    by name alone, so a member that shares its name with an attribute read
    anywhere counts as read.
    """
    read = set()
    for text in readers:
        for n in ast.walk(ast.parse(text)):
            if isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
    return sorted(f"{mod}.{cls.name}.{fn.name}"
                  for mod, text in sources.items()
                  for cls in ast.parse(text).body if isinstance(cls, ast.ClassDef)
                  for fn in cls.body
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (fn.name.startswith("__") and fn.name.endswith("__"))
                  and fn.name not in read)


def _readers(sources):
    """The package's module texts and every perfbench script."""
    return [*sources.values(), *(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))]


def test_every_definition_serves_the_pipeline():
    # a helper only tests call belongs in tests/oracles.py, not in the package,
    # and a constant nothing in the package reads is deleted; so is a method
    # or property that neither the package nor perfbench reads
    traced = _traced_calls()
    assert ("kernels", "covariance_on_grid") in traced
    sources = _package_sources()
    assert _unreached(sources, traced) == []
    assert _unread_members(sources, _readers(sources)) == []


def test_unread_members_are_found():
    sources = dict(_package_sources(), orphan=(
        "class Orphan:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def used(self):\n        return self.named_elsewhere\n\n"
        "    @property\n    def named_elsewhere(self):\n        return 1\n\n"
        "    @property\n    def unread_property(self):\n        return 2\n\n"
        "    def unread_method(self):\n        self.assigned_only = 3\n\n"
        "    def assigned_only(self):\n        return 4\n\n"
        "    def by_name(self):\n        return 5\n\n"
        "def caller():\n    return Orphan().used()\n"))
    readers = _readers(sources)
    assert _unread_members(sources, readers) == [
        "orphan.Orphan.assigned_only", "orphan.Orphan.by_name",
        "orphan.Orphan.unread_method", "orphan.Orphan.unread_property"]
    # a string constant reads a member, as perfbench's getattr_static of lambda_grid does
    readers.append("getattr(obj, 'by_name')\n")
    assert "orphan.Orphan.by_name" not in _unread_members(sources, readers)


def test_unreached_helpers_are_found_transitively():
    sources = dict(_package_sources(), orphan=(
        "from .quadrature import make_grid\n"
        "from . import quadrature\n\n"
        "def helper():\n    return make_grid(1.0)\n\n"
        "def caller(grid):\n    return helper(), quadrature.cell_integrals(grid, grid.nodes, 2)\n"))
    traced = _traced_calls()
    assert _unreached(sources, traced) == ["orphan.caller", "orphan.helper"]
    # a traced call is a root, and what it calls is reached through it
    assert _unreached(sources, traced | {("orphan", "caller")}) == []


def test_unread_constants_are_found():
    sources = dict(_package_sources(), orphan=(
        "from .fock import SIGMA_SUP\n\n"
        "LIMIT = 2.0 * SIGMA_SUP\n"
        "SCALE = LIMIT + 1.0\n"
        "UNREAD = 3.0\n"
        "lower_case = 4.0\n\n"
        "def helper():\n    return SCALE\n"))
    traced = _traced_calls()
    assert _unreached(sources, traced) == [
        "orphan.LIMIT", "orphan.SCALE", "orphan.UNREAD", "orphan.helper"]
    # a constant is reached through what reads it, even through another constant
    assert _unreached(sources, traced | {("orphan", "helper")}) == ["orphan.UNREAD"]

"""Layering guards: only `fields` and `polyring` read a Field's private
lookup tables, every other module going through the polyring kernels or
the public Field methods; every name the benchmark traces still exists;
every public name the package defines is used outside the tests; and no
module imports a name it does not use."""

import ast
import importlib.util
from pathlib import Path

import pgoppa

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(pgoppa.__file__).parent
TRACING = ROOT / "perfbench" / "tracing.py"

PRIVATE_TABLES = {"_add", "_mul", "_neg", "_inv", "_proot", "_arrays", "_computed_lookups"}
TABLE_OWNERS = {"fields.py", "polyring.py"}


def test_only_fields_and_polyring_read_field_tables():
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in TABLE_OWNERS:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in PRIVATE_TABLES:
                readers.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert readers == []


def test_every_traced_name_still_resolves():
    # perfbench wraps each name where callers look it up; a name none of
    # whose sites exists any more drops out of its per-layer metrics
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sites = {**tracing.SPAN_SITES, **tracing.COUNT_SITES}
    assert len(sites) == len(tracing.SPAN_SITES) + len(tracing.COUNT_SITES)
    lost = [name for name, where in sites.items() if not any(tracing._resolve(m, a) for m, a in where)]
    assert lost == []


def test_every_public_name_has_a_caller_outside_the_tests():
    # test-only helpers belong in tests/oracles.py.  A function or class
    # counts as used when its name is read, or given as a string (the
    # benchmark's lookup sites); a method or a dataclass field only when
    # read as an attribute, so a local variable of the same name does not
    # hide it, and not on `args`, where the CLI reads its options
    names, attrs = set(), set()
    for folder in (PACKAGE, ROOT / "demos", ROOT / "perfbench"):
        for path in folder.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    on_args = isinstance(node.value, ast.Name) and node.value.id == "args"
                    if isinstance(node.ctx, ast.Load) and not on_args:
                        attrs.add(node.attr)
                elif isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and node.name not in names | attrs:
                unused.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        member = item.name
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        member = item.target.id
                    else:
                        continue
                    if not member.startswith("_") and member not in attrs:
                        unused.append(f"{path.name}:{node.name}.{member}")
    assert unused == []


def test_no_module_imports_a_name_it_does_not_use():
    # a deletion should take its imports with it; __init__.py imports to
    # re-export, and `from __future__` binds no name
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []

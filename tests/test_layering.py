"""Layering guards: only `fields` and `polyring` read a Field's private
lookup tables, every other module going through the polyring kernels or
the public Field methods; and every name the benchmark traces still
exists."""

import ast
import importlib.util
from pathlib import Path

import pgoppa

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

PRIVATE_TABLES = {"_add", "_mul", "_neg", "_inv", "_proot"}
TABLE_OWNERS = {"fields.py", "polyring.py"}


def test_only_fields_and_polyring_read_field_tables():
    readers = []
    for path in sorted(Path(pgoppa.__file__).parent.glob("*.py")):
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

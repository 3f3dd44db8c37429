"""Layering guard: only `fields` and `polyring` read a Field's private
lookup tables; every other module goes through the polyring kernels or
the public Field methods."""

import ast
from pathlib import Path

import pgoppa

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

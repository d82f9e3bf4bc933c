"""The traced benchmark run wraps covmin functions by name; every name must resolve."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_targets():
    """``TRACED`` read from the tracer's source, without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED list")


def test_every_traced_function_resolves():
    targets = traced_targets()
    assert targets
    missing = [
        (module, attr) for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []

"""The benchmark tracer wraps gridres functions by module and name; a rename
or deletion on the program side must not leave it pointing at nothing."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def wrapped_targets() -> list[tuple[str, str]]:
    """(module, function) pairs of the tracer's WRAPPED list, read from its
    source without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError(f"no WRAPPED list in {TRACING}")


def test_every_traced_function_resolves():
    targets = wrapped_targets()
    assert targets
    for module, name in targets:
        mod = importlib.import_module(f"gridres.{module}")
        assert callable(getattr(mod, name, None)), f"gridres.{module}.{name}"

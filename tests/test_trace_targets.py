"""The benchmark reaches gridres by module and name: the tracer wraps
functions it lists, and the workloads call `gr.<module>.<name>[.<attr>]`.  A
rename or deletion on the program side must not leave either pointing at
nothing."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def program_chains(path: Path) -> set[tuple[str, ...]]:
    """Every attribute chain below the program handle `gr` (a name, or an
    attribute such as `ctx.gr`) in the source of `path`, as (module, name,
    ...), read without importing it."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        names = []
        while isinstance(node, ast.Attribute):
            names.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            names.insert(0, node.id)
        if "gr" in names[:-2]:
            chains.add(tuple(names[names.index("gr") + 1:]))
    return chains


def test_every_benchmark_reference_resolves():
    chains = set().union(*(program_chains(path) for path in sorted(PERFBENCH.glob("*.py"))))
    assert ("robust", "RobustResult", "from_json_dict") in chains
    assert ("advset", "contains") in chains
    for module, *attrs in sorted(chains):
        obj = importlib.import_module(f"gridres.{module}")
        for depth, attr in enumerate(attrs, start=1):
            assert hasattr(obj, attr), ".".join(["gr", module, *attrs[:depth]])
            obj = getattr(obj, attr)

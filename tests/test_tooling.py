"""The traced benchmark run binds program functions by name: a rename in
``linspect`` must fail here, not only when that run starts."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_constants() -> dict:
    """The literal tuples that ``perfbench/tracer.py`` binds, read without
    importing it."""
    values = {}
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "COUNTED_FUNCTIONS", "COUNTED_METHODS"):
                values[name] = ast.literal_eval(node.value)
    return values


def test_every_traced_function_resolves():
    values = tracer_constants()
    entries = values["SPANS"] + values["COUNTED_FUNCTIONS"]
    assert entries
    for module, function, _ in entries:
        owner = importlib.import_module(f"linspect.{module}")
        assert callable(getattr(owner, function, None)), f"linspect.{module}.{function}"


def test_every_counted_method_resolves():
    from linspect.structures import Structure

    for method in tracer_constants()["COUNTED_METHODS"]:
        assert callable(getattr(Structure, method, None)), f"Structure.{method}"

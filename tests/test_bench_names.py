"""The benchmark tracer wraps the methods named in ``METHODS`` of
``bench/tracer.py`` by reading them from their class's ``__dict__``, so a
method deleted or moved to a base class breaks every traced run. The list
is read from the tracer's source, without importing it."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced_methods() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py assigns no METHODS")


def test_traced_methods_defined_on_their_classes():
    methods = _traced_methods()
    assert methods
    for cls_path, names in methods.items():
        mod_name, cls_name = cls_path.split(".")
        cls = getattr(importlib.import_module(f"recurlab.{mod_name}"), cls_name)
        for name in names:
            assert name in cls.__dict__, f"{cls_path}.{name}"

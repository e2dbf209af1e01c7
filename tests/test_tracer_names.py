"""The benchmark's tracer reads a per-layer metric as null once every name
it wraps for that layer is gone from the library, and a null metric ends
the benchmark's result line.  A refactor that renames or deletes such a
name must fail here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from multilin.field import Field

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()
WRAPPED = {**TRACER.LAYERS, **TRACER.COUNTED}  # layer or counter -> (module, attr) pairs


@pytest.mark.parametrize("layer", sorted(WRAPPED))
def test_every_traced_layer_wraps_a_library_callable(layer):
    targets = WRAPPED[layer]
    resolved = [
        attr
        for modname, attr in targets
        if callable(getattr(importlib.import_module(modname), attr, None))
    ]
    assert resolved, f"no name of layer {layer} is left in the library: {targets}"


def test_some_counted_field_op_is_on_field():
    assert any(callable(Field.__dict__.get(op)) for op in TRACER.FIELD_OPS)

"""The benchmark's tracer patches lnjam entry points by name; each must exist.

``perfbench/tracer.py`` names every traced function as an attribute of its
layer's module, or as ``Class.method`` in that class's ``__dict__``. Renaming
or deleting one of them breaks the traced benchmark run; this test fails first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("perfbench/tracer.py is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names(tracer):
    for layer, spans in tracer.SPANS.items():
        for attrs in spans.values():
            for attr in (attrs,) if isinstance(attrs, str) else attrs:
                yield layer, attr
    yield from tracer.COUNTED.values()


def test_every_traced_name_resolves(tracer):
    names = list(_traced_names(tracer))
    assert ("simulator", "SimNetwork.open_channel") in names
    assert ("cost", "hop_amounts_msat") in names
    assert ("inference", "split_by_slot_class") in names
    missing = []
    for layer, attr in names:
        module = importlib.import_module(f"lnjam.{layer}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and method in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{layer}.{attr}")
    assert missing == []

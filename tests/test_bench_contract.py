"""The benchmark's tracer patches lnjam entry points by name; each must exist.

``perfbench/tracer.py`` names every traced function as an attribute of its
layer's module, or as ``Class.method`` in that class's ``__dict__``. Renaming
or deleting one of them breaks the traced benchmark run; this test fails first.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


PERFBENCH = TRACER.parent

# Small enough that a traced pass of each workload takes about a second.
SPAN_TEST_NODES, SPAN_TEST_CHANNELS_PER_NODE = 80, 3


def _run_py_literal(name):
    """A literal assigned at the top level of ``perfbench/run.py``, read
    without importing it: its ``import netgen`` would shadow the tests'."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in perfbench/run.py")


@pytest.mark.parametrize("workload", ["replay", "sweep", "partition"])
def test_traced_workload_fires_its_spans(tracer, bench_netgen, workload, tmp_path):
    """The traced benchmark run fails when an expected span stops firing on
    its workload, or a simulator span fires on sweep or partition."""
    regions, cross_share = (2, 0.2) if workload == "partition" else (1, 1.0)
    snapshot = tmp_path / "snapshot.json"
    bench_netgen.write_snapshot(
        str(snapshot), SPAN_TEST_NODES, SPAN_TEST_CHANNELS_PER_NODE, 1, regions, cross_share
    )
    out = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PERFBENCH.parent / "src"),
                                                       str(PERFBENCH)]))
    subprocess.run(
        [sys.executable, str(PERFBENCH / "workload.py"), "--workload", workload,
         "--snapshot", str(snapshot), "--workdir", str(tmp_path), "--seconds", "0.1",
         "--trace", "1", "--seed", "1", "--out", str(out)],
        env=env, check=True, timeout=120,
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    calls = {name: stats["calls"] for name, stats in result["spans"].items()}
    calls.update(result["counters"])
    expected = _run_py_literal("EXPECTED_SPANS")[workload]
    assert [span for span in expected if not calls.get(span)] == []
    if workload != "replay":
        assert [span for span in _run_py_literal("_SIMULATOR") if calls.get(span)] == []
    assert result["problems"] == []

import importlib.util
from pathlib import Path

import pytest
from hypothesis import Phase, settings

from lnjam.inference import tag_nodes
from lnjam.topology import build_graph

import netgen

# Property tests draw the same examples on every run and keep no database.
# They report the first failing example as drawn: shrinking it can take
# minutes on the simulator's action sequences.
settings.register_profile(
    "lnjam",
    derandomize=True,
    database=None,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
settings.load_profile("lnjam")

BENCH_NETGEN = Path(__file__).resolve().parents[1] / "perfbench" / "netgen.py"


@pytest.fixture(scope="session")
def bench_netgen():
    """The benchmark's snapshot generator, loaded by path: under its own
    module name it would shadow the tests' ``netgen``."""
    spec = importlib.util.spec_from_file_location("perfbench_netgen", BENCH_NETGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def lnd_mesh():
    """All-LND 40-node connected snapshot: (snapshot, graph, labels)."""
    snapshot = netgen.random_snapshot(40, 30, seed=7)
    return snapshot, build_graph(snapshot), tag_nodes(snapshot)


@pytest.fixture
def mixed_mesh():
    """Mixed-implementation 36-node snapshot: (snapshot, graph, labels)."""
    snapshot = netgen.random_snapshot(36, 28, seed=19, impl_names=netgen.IMPL_NAMES)
    return snapshot, build_graph(snapshot), tag_nodes(snapshot)


@pytest.fixture
def small_channel_mesh():
    """Mixed-implementation 120-node snapshot of 100k-5M sat channels, where
    some network and isolation replays fail: (snapshot, graph, labels)."""
    snapshot = netgen.random_snapshot(
        120, 240, seed=3, impl_names=netgen.IMPL_NAMES, capacity_range=(100_000, 5_000_000)
    )
    return snapshot, build_graph(snapshot), tag_nodes(snapshot)


@pytest.fixture
def barbell():
    """Two LND K6 cliques and one bridge: (snapshot, graph, labels)."""
    snapshot = netgen.barbell_snapshot()
    return snapshot, build_graph(snapshot), tag_nodes(snapshot)

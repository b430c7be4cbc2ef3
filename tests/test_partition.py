"""Connectivity metrics, betweenness, and the three partition methods."""

import logging
import math
import random
from collections import Counter, defaultdict, deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lnjam import partition
from lnjam.partition import (
    BETWEENNESS_BLOCK_CELLS,
    DisconnectionMethod,
    connected_components,
    connected_pairs_fraction,
    edge_betweenness,
    fiedler_cut,
    kernighan_lin_cut,
    plan_disconnection,
)
from lnjam.inference import tag_nodes
from lnjam.planner import InfeasibleConfigError, PlannerConfig, WeightMode
from lnjam.topology import (
    MAINNET_DEFAULTS,
    NetworkGraph,
    apply_slot_limits,
    build_graph,
    parse_snapshot,
)

import netgen

LND = netgen.DEFAULTS_BY_NAME["lnd"]


def _graph_from_pairs(pairs, nodes=None, capacities=None):
    nodes = nodes or sorted({n for p in pairs for n in p})
    policy = netgen.policy_json(LND)
    channels = [
        netgen.channel_json(
            f"e{i:02d}", a, b,
            (capacities or {}).get((a, b), 1_000_000),
            policy, policy,
        )
        for i, (a, b) in enumerate(pairs)
    ]
    return build_graph(parse_snapshot(netgen.snapshot_json(nodes, channels)))


# -- oracles -----------------------------------------------------------------


def _all_shortest_paths(adj, source, target):
    """Every shortest path from source to target, by BFS plus backtracking."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    if target not in dist:
        return []
    paths = []

    def back(node, suffix):
        if node == source:
            paths.append([source] + suffix)
            return
        for u in adj[node]:
            if dist.get(u) == dist[node] - 1:
                back(u, [node] + suffix)

    back(target, [])
    return paths


def brute_force_betweenness(graph):
    """Pairwise shortest-path counting, parallel channels collapsed."""
    nodes = list(graph.nodes)
    adj = {n: set() for n in nodes}
    pair_channels = {}
    for ch in graph.channels():
        a, b = ch.endpoint_a, ch.endpoint_b
        adj[a].add(b)
        adj[b].add(a)
        pair_channels.setdefault(frozenset((a, b)), []).append(ch.channel_id)
    pair_scores = {pair: 0.0 for pair in pair_channels}
    for i, s in enumerate(nodes):
        for t in nodes[i + 1:]:
            paths = _all_shortest_paths(adj, s, t)
            if not paths:
                continue
            crossing = Counter()
            for path in paths:
                for u, v in zip(path, path[1:]):
                    crossing[frozenset((u, v))] += 1
            for pair, count in crossing.items():
                pair_scores[pair] += count / len(paths)
    return {
        cid: pair_scores[pair]
        for pair, cids in pair_channels.items()
        for cid in cids
    }


def reference_edge_betweenness(graph):
    """Brandes' accumulation as one dict-based BFS per source, in sorted order.

    The array kernel keeps this loop's order of every floating-point sum, so
    its scores must equal these exactly.
    """
    adj = defaultdict(set)
    for ch in graph.channels():
        adj[ch.endpoint_a].add(ch.endpoint_b)
        adj[ch.endpoint_b].add(ch.endpoint_a)
    adj = {node: sorted(peers) for node, peers in adj.items()}
    pair_score = defaultdict(float)

    for source in sorted(adj):
        # BFS from source: shortest-path counts and predecessor lists.
        dist = {source: 0}
        sigma = {source: 1.0}
        preds = defaultdict(list)
        order = []
        queue = deque([source])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] = sigma.get(w, 0.0) + sigma[v]
                    preds[w].append(v)
        # Dependency accumulation in reverse BFS order.
        delta = {v: 0.0 for v in order}
        for w in reversed(order):
            for v in preds[w]:
                contrib = sigma[v] / sigma[w] * (1.0 + delta[w])
                key = (v, w) if v < w else (w, v)
                pair_score[key] += contrib
                delta[v] += contrib

    scores = {}
    for ch in graph.channels():
        a, b = ch.endpoint_a, ch.endpoint_b
        key = (a, b) if a < b else (b, a)
        # Every pair was accumulated from both endpoints' BFS trees.
        scores[ch.channel_id] = pair_score.get(key, 0.0) / 2.0
    return scores


def eigh_fiedler_sides(graph):
    """Spectral bisection via dense eigendecomposition; None when degenerate."""
    component = max(connected_components(graph), key=len)
    nodes = sorted(component)
    if len(nodes) < 3:
        return None
    index = {n: i for i, n in enumerate(nodes)}
    lap = np.zeros((len(nodes), len(nodes)))
    seen = set()
    for ch in graph.channels():
        a, b = ch.endpoint_a, ch.endpoint_b
        if a not in index or b not in index:
            continue
        key = frozenset((a, b))
        if key in seen:
            continue
        seen.add(key)
        i, j = index[a], index[b]
        lap[i, i] += 1
        lap[j, j] += 1
        lap[i, j] -= 1
        lap[j, i] -= 1
    values, vectors = np.linalg.eigh(lap)
    if len(values) > 2 and values[2] - values[1] < 1e-6:
        return None
    vector = vectors[:, 1]
    if min(abs(x) for x in vector) < 1e-6:
        # A coordinate at zero makes the side assignment solver-dependent.
        return None
    for x in vector:
        if abs(x) > 1e-10:
            if x < 0:
                vector = -vector
            break
    side_a = {n for n in nodes if vector[index[n]] > -1e-10}
    side_b = set(nodes) - side_a
    return side_a, side_b


# -- connectivity ------------------------------------------------------------


def test_connected_components_ordering():
    # Nodes without channels are not graph endpoints, so no singleton appears.
    graph = _graph_from_pairs(
        [("a", "b"), ("b", "c"), ("x", "y")],
        nodes=["a", "b", "c", "x", "y", "zed"],
    )
    components = connected_components(graph)
    assert components == [{"a", "b", "c"}, {"x", "y"}]


def test_connected_pairs_fraction_counts_within_components():
    graph = _graph_from_pairs(
        [("a", "b"), ("b", "c"), ("x", "y")],
        nodes=["a", "b", "c", "x", "y", "zed"],
    )
    assert connected_pairs_fraction(graph) == pytest.approx(8 / 20)
    # An explicit universe counts channel-less nodes as stranded singletons.
    assert connected_pairs_fraction(
        graph, ["a", "b", "c", "x", "y", "zed"]
    ) == pytest.approx(8 / 30)
    shrunk = graph.without_channels(["e00", "e01", "e02"])
    assert connected_pairs_fraction(shrunk, graph.nodes) == pytest.approx(0.0)


def test_pairs_fraction_needs_two_nodes():
    graph = _graph_from_pairs([], nodes=["solo"])
    with pytest.raises(ValueError):
        connected_pairs_fraction(graph)


# -- betweenness -------------------------------------------------------------


def test_betweenness_on_path_and_triangle():
    path = _graph_from_pairs([("a", "b"), ("b", "c")])
    assert edge_betweenness(path) == {"e00": 2.0, "e01": 2.0}
    triangle = _graph_from_pairs([("a", "b"), ("a", "c"), ("b", "c")])
    assert edge_betweenness(triangle) == {"e00": 1.0, "e01": 1.0, "e02": 1.0}


def test_parallel_channels_share_one_logical_edge():
    graph = _graph_from_pairs([("a", "b"), ("a", "b"), ("b", "c")])
    scores = edge_betweenness(graph)
    assert scores["e00"] == scores["e01"] == 2.0
    assert scores["e02"] == 2.0


def test_betweenness_of_an_empty_graph_is_an_error():
    with pytest.raises(ValueError, match="empty graph"):
        edge_betweenness(NetworkGraph([]))


def _components_with_parallel_channels(sizes, parallel, seed):
    """One random tree-plus-chords component per size, some pairs doubled."""
    rng = random.Random(seed)
    policy = netgen.policy_json(LND)
    nodes, pairs = [], []
    for k, size in enumerate(sizes):
        members = [f"g{k}n{i:03d}" for i in range(size)]
        nodes += members
        pairs += [(members[rng.randrange(i)], members[i]) for i in range(1, size)]
        pairs += [tuple(rng.sample(members, 2)) for _ in range(size // 2)]
    pairs += [rng.choice(pairs) for _ in range(parallel)]
    channels = [
        netgen.channel_json(f"c{i:04d}", a, b, 1_000_000, policy, policy)
        for i, (a, b) in enumerate(pairs)
    ]
    return build_graph(parse_snapshot(netgen.snapshot_json(nodes, channels)))


# Enough nodes that the sources span at least two blocks.
_TWO_BLOCKS = math.isqrt(BETWEENNESS_BLOCK_CELLS) + 1


@settings(max_examples=25)
@given(
    sizes=st.lists(st.integers(2, 60), min_size=2, max_size=5).filter(
        lambda s: sum(s) >= _TWO_BLOCKS
    ),
    parallel=st.integers(1, 30),
    seed=st.integers(0, 10_000),
)
def test_betweenness_equals_the_reference_loop(sizes, parallel, seed):
    graph = _components_with_parallel_channels(sizes, parallel, seed)
    n = graph.node_count
    assert n > BETWEENNESS_BLOCK_CELLS // n
    assert edge_betweenness(graph) == reference_edge_betweenness(graph)


@pytest.mark.parametrize("fixture", ["barbell", "mixed_mesh"])
def test_betweenness_equals_the_reference_loop_on_plan_residuals(
    fixture, request, monkeypatch
):
    _, graph, labels = request.getfixturevalue(fixture)
    visited = []

    def checked(residual):
        scores = edge_betweenness(residual)
        assert scores == reference_edge_betweenness(residual)
        visited.append(len(residual))
        return scores

    # The planner imports edge_betweenness from the module at each call.
    monkeypatch.setattr(partition, "edge_betweenness", checked)
    _, plan = plan_disconnection(
        graph, labels, MAINNET_DEFAULTS, PlannerConfig(),
        DisconnectionMethod.GREEDY_BETWEENNESS,
    )
    assert len(visited) == len(plan.routes) > 1


def test_betweenness_matches_brute_force_on_random_graphs():
    for seed in range(20):
        snapshot = netgen.random_snapshot(4 + seed % 9, seed % 5, seed=100 + seed)
        graph = build_graph(snapshot)
        fast = edge_betweenness(graph)
        slow = brute_force_betweenness(graph)
        assert fast.keys() == slow.keys()
        for cid in fast:
            assert fast[cid] == pytest.approx(slow[cid], abs=1e-9)


# -- spectral ----------------------------------------------------------------


def test_fiedler_cut_finds_barbell_bridge(barbell):
    _, graph, _ = barbell
    cut = fiedler_cut(graph)
    assert cut.cut_channel_ids == ("bridge",)
    assert {frozenset(cut.side_a), frozenset(cut.side_b)} == {
        frozenset(f"a{i}" for i in range(6)),
        frozenset(f"b{i}" for i in range(6)),
    }


def test_fiedler_cut_is_deterministic(barbell):
    _, graph, _ = barbell
    first = fiedler_cut(graph)
    second = fiedler_cut(graph)
    assert first.side_a == second.side_a
    assert first.cut_channel_ids == second.cut_channel_ids


def test_fiedler_cut_halves_a_ring_with_a_doubled_channel():
    cut = fiedler_cut(build_graph(netgen.ring_snapshot()))
    assert len(cut.side_a) == len(cut.side_b) == 30
    assert cut.cut_size == 2
    assert "r00" not in cut.cut_channel_ids and "r60" not in cut.cut_channel_ids


def test_fiedler_matches_dense_eigendecomposition():
    checked = 0
    for seed in range(14):
        snapshot = netgen.random_snapshot(6 + seed % 7, 2 + seed % 4, seed=300 + seed)
        graph = build_graph(snapshot)
        oracle = eigh_fiedler_sides(graph)
        if oracle is None:
            continue
        cut = fiedler_cut(graph)
        assert {frozenset(cut.side_a), frozenset(cut.side_b)} == {
            frozenset(oracle[0]), frozenset(oracle[1])
        }
        checked += 1
    assert checked >= 5


# -- kernighan-lin -----------------------------------------------------------


def _seed_cut_size(graph):
    component = max(connected_components(graph), key=len)
    nodes = sorted(component)
    k = -(-len(nodes) // 4)
    side = set(nodes[:k])
    return sum(
        1
        for ch in graph.channels()
        if ch.endpoint_a in component
        and (ch.endpoint_a in side) != (ch.endpoint_b in side)
    )


def test_kernighan_lin_reaches_barbell_bridge(barbell):
    _, graph, _ = barbell
    cut = kernighan_lin_cut(graph)
    assert cut.cut_channel_ids == ("bridge",)
    assert len(cut.side_a) == len(cut.side_b) == 6


def test_kernighan_lin_never_worsens_the_seed_cut():
    for seed in range(12):
        snapshot = netgen.random_snapshot(8 + seed, 4 + seed % 5, seed=500 + seed)
        graph = build_graph(snapshot)
        cut = kernighan_lin_cut(graph)
        assert cut.cut_size <= _seed_cut_size(graph)
        assert cut.side_a and cut.side_b
        side_a, members = set(cut.side_a), set(cut.side_a) | set(cut.side_b)
        crossing = {
            ch.channel_id
            for ch in graph.channels()
            if ch.endpoint_a in members and ch.endpoint_b in members
            and (ch.endpoint_a in side_a) != (ch.endpoint_b in side_a)
        }
        assert set(cut.cut_channel_ids) == crossing


def _kl_cases():
    for seed in range(12):
        yield build_graph(netgen.random_snapshot(10 + 3 * seed, 6 + seed, seed=700 + seed))


@pytest.mark.parametrize("graph", [*_kl_cases(), "mixed_mesh"])
def test_kernighan_lin_cut_admits_no_improving_move(graph, request):
    if graph == "mixed_mesh":
        graph = request.getfixturevalue(graph)[1]
    cut = kernighan_lin_cut(graph)
    members = set(cut.side_a) | set(cut.side_b)
    inside = [
        (ch.endpoint_a, ch.endpoint_b)
        for ch in graph.channels()
        if ch.endpoint_a in members and ch.endpoint_b in members
    ]

    def cut_size(side_a):
        return sum((a in side_a) != (b in side_a) for a, b in inside)

    assert cut_size(set(cut.side_a)) == cut.cut_size
    for side in (set(cut.side_a), set(cut.side_b)):
        if len(side) == 1:
            continue
        for node in side:
            assert cut_size(side - {node}) >= cut.cut_size, node


# -- full disconnection plans -------------------------------------------------


def test_all_methods_sever_the_barbell(barbell):
    _, graph, labels = barbell
    config = PlannerConfig(max_route_channels=1)
    for method in DisconnectionMethod:
        report, plan = plan_disconnection(
            graph, labels, MAINNET_DEFAULTS, config, method, budget_channels=2
        )
        assert plan.routes[0].channel_ids == ("bridge",)
        assert report.curve[0] == (0, pytest.approx(1.0))
        assert report.curve[1][0] == 2
        assert report.curve[1][1] == pytest.approx(60 / 132)


def test_disconnection_curve_is_monotone_and_budgeted(mixed_mesh):
    _, graph, labels = mixed_mesh
    for method in DisconnectionMethod:
        report, plan = plan_disconnection(
            graph, labels, MAINNET_DEFAULTS, PlannerConfig(), method, budget_channels=16
        )
        assert plan.attacker_channels <= 16
        fractions = [f for _, f in report.curve]
        assert all(b <= a + 1e-12 for a, b in zip(fractions, fractions[1:]))


def test_plan_routes_and_uncovered_channels_partition_the_graph(mixed_mesh):
    _, graph, labels = mixed_mesh
    for method in DisconnectionMethod:
        for budget in (None, 16):
            _, plan = plan_disconnection(
                graph, labels, MAINNET_DEFAULTS, PlannerConfig(), method, budget
            )
            routed = [cid for r in plan.routes for cid in r.channel_ids]
            uncovered = set(plan.uncovered_channel_ids)
            assert len(routed) == len(set(routed)), (method, budget)
            assert not uncovered & set(routed), (method, budget)
            assert uncovered | set(routed) == set(graph.channel_ids), (method, budget)


def test_tiny_budget_returns_baseline_only(lnd_mesh):
    _, graph, labels = lnd_mesh
    report, plan = plan_disconnection(
        graph, labels, MAINNET_DEFAULTS, PlannerConfig(), budget_channels=1
    )
    assert report.curve == [(0, pytest.approx(1.0))]
    assert plan.routes == []
    assert set(plan.uncovered_channel_ids) == set(graph.channel_ids)


def test_negative_budget_is_infeasible(lnd_mesh):
    _, graph, labels = lnd_mesh
    for method in DisconnectionMethod:
        with pytest.raises(InfeasibleConfigError, match="budget of -4 attacker channels"):
            plan_disconnection(graph, labels, MAINNET_DEFAULTS, PlannerConfig(), method, -4)


def test_greedy_betweenness_weight_agrees_with_planner(barbell):
    _, graph, labels = barbell
    config = PlannerConfig(max_route_channels=1, weight_mode=WeightMode.BETWEENNESS)
    report, plan = plan_disconnection(
        graph, labels, MAINNET_DEFAULTS, config,
        DisconnectionMethod.GREEDY_BETWEENNESS, budget_channels=4,
    )
    assert plan.routes[0].channel_ids == ("bridge",)
    assert len(report.curve) == len(plan.routes) + 1


def test_plans_that_cut_nothing_log_a_warning(mixed_mesh, caplog):
    _, graph, labels = mixed_mesh
    sizes = {
        DisconnectionMethod.SPECTRAL: fiedler_cut(graph).cut_size,
        DisconnectionMethod.KERNIGHAN_LIN: kernighan_lin_cut(graph).cut_size,
    }
    for method in DisconnectionMethod:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="lnjam.partition"):
            report, plan = plan_disconnection(
                graph, labels, MAINNET_DEFAULTS, PlannerConfig(), method, budget_channels=2
            )
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        if method in sizes:
            assert report.curve[-1][1] == report.curve[0][1]
            assert warnings == [
                f"{method.value} plan disconnects nothing: the {sizes[method]}-channel"
                " cut does not fit a budget of 2 attacker channels"
            ]
        else:
            assert report.curve[-1][1] < report.curve[0][1]
            assert warnings == []

    # One channel off a ring leaves a path, so a betweenness plan of one
    # one-channel route disconnects nothing.
    ring = netgen.ring_snapshot()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="lnjam.partition"):
        report, plan = plan_disconnection(
            build_graph(ring), tag_nodes(ring), MAINNET_DEFAULTS,
            PlannerConfig(max_route_channels=1), DisconnectionMethod.GREEDY_BETWEENNESS,
            budget_channels=2,
        )
    assert len(plan.routes) == 1
    assert report.curve[-1][1] == report.curve[0][1]
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
        "betweenness plan disconnects nothing under a budget of 2 attacker channels"
    ]


def _rebuilt_curve(graph, plan):
    """The curve from one graph rebuild and component scan per route."""
    curve = [(0, connected_pairs_fraction(graph))]
    locked = set()
    for i, route in enumerate(plan.routes, start=1):
        locked.update(route.channel_ids)
        residual = graph.without_channels(locked)
        curve.append((2 * i, connected_pairs_fraction(residual, graph.nodes)))
    return curve


@settings(max_examples=20)
@given(
    n_nodes=st.integers(2, 40),
    extra=st.integers(0, 40),
    seed=st.integers(0, 10_000),
    mixed=st.booleans(),
    max_route_channels=st.integers(1, 18),
    budget=st.none() | st.integers(0, 30),
)
def test_curve_equals_the_per_route_rebuild(
    n_nodes, extra, seed, mixed, max_route_channels, budget
):
    snapshot = netgen.random_snapshot(
        n_nodes, extra, seed, impl_names=netgen.IMPL_NAMES if mixed else ("lnd",)
    )
    graph, labels = build_graph(snapshot), tag_nodes(snapshot)
    limited = apply_slot_limits(graph, labels, MAINNET_DEFAULTS)
    config = PlannerConfig(max_route_channels=max_route_channels)
    for method in DisconnectionMethod:
        report, plan = plan_disconnection(
            graph, labels, MAINNET_DEFAULTS, config, method, budget
        )
        assert report.curve == _rebuilt_curve(limited, plan), method

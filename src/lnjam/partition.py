"""Connectivity measurement and cut-based disconnection attacks.

Connectivity is measured as the fraction of node pairs that can still reach
each other. Three strategies pick channels whose paralysis splits the graph:
greedy locking by edge betweenness, spectral bisection via the Fiedler
vector, and a simplified Kernighan-Lin refinement. The chosen cut channels
are then grouped into lockable routes with the regular planner machinery, so
every disconnection plan obeys the same slot and locktime constraints.
"""

from __future__ import annotations

import logging
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from . import planner
from .topology import (
    MAINNET_DEFAULTS,
    DefaultsTable,
    ImplLabel,
    NetworkGraph,
    apply_slot_limits,
)

logger = logging.getLogger(__name__)

# Fiedler coordinates closer to zero than this count as positive.
SIGN_EPSILON = 1e-10


class NonConvergenceError(Exception):
    """The Laplacian eigensolve failed (``np.linalg.LinAlgError``)."""


class DisconnectionMethod(Enum):
    GREEDY_BETWEENNESS = "betweenness"
    SPECTRAL = "spectral"
    KERNIGHAN_LIN = "kl"


@dataclass(frozen=True)
class CutResult:
    """A bipartition of one component and the channels crossing it."""

    side_a: tuple[str, ...]
    side_b: tuple[str, ...]
    cut_channel_ids: tuple[str, ...]

    @property
    def cut_size(self) -> int:
        return len(self.cut_channel_ids)


@dataclass
class ConnectivityReport:
    method: DisconnectionMethod
    # (cumulative attacker channels, connected-pairs fraction after locking)
    curve: list[tuple[int, float]]


def _neighbor_map(graph: NetworkGraph) -> dict[str, list[str]]:
    """Simple-graph adjacency: parallel channels collapse to one edge."""
    adj: dict[str, set[str]] = defaultdict(set)
    for ch in graph.channels():
        adj[ch.endpoint_a].add(ch.endpoint_b)
        adj[ch.endpoint_b].add(ch.endpoint_a)
    return {node: sorted(peers) for node, peers in adj.items()}


def connected_components(graph: NetworkGraph) -> list[set[str]]:
    """Components as node sets, largest first (ties by smallest member)."""
    adj = _neighbor_map(graph)
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            node = queue.popleft()
            for peer in adj[node]:
                if peer not in seen:
                    seen.add(peer)
                    comp.add(peer)
                    queue.append(peer)
        components.append(comp)
    components.sort(key=lambda c: (-len(c), min(c)))
    return components


def connected_pairs_fraction(
    graph: NetworkGraph, nodes: Iterable[str] | None = None
) -> float:
    """Fraction of node pairs connected by some path.

    Args:
        nodes: the node universe to count over. Defaults to the graph's own
            nodes; pass the pre-attack node set when channels have been
            removed, so nodes stranded with no channels still count as
            disconnected singletons.
    """
    universe = set(nodes) if nodes is not None else set(graph.nodes)
    n = len(universe)
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    connected = 0
    for comp in connected_components(graph):
        s = len(comp & universe)
        connected += s * (s - 1)
    return connected / (n * (n - 1))


def edge_betweenness(graph: NetworkGraph) -> dict[str, float]:
    """Unweighted edge betweenness for every channel.

    Counts, over all unordered node pairs, the fraction of shortest paths
    crossing each edge (Brandes' accumulation). Parallel channels are
    collapsed to one logical edge for path counting and each receives the
    full score of its node pair.
    """
    if len(graph) == 0:
        raise ValueError("betweenness of an empty graph")
    adj = _neighbor_map(graph)
    nodes = sorted(adj)
    pair_score: dict[tuple[str, str], float] = defaultdict(float)

    for source in nodes:
        # BFS from source: shortest-path counts and predecessor lists.
        dist = {source: 0}
        sigma = {source: 1.0}
        preds: dict[str, list[str]] = defaultdict(list)
        order: list[str] = []
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

    scores: dict[str, float] = {}
    for ch in graph.channels():
        a, b = ch.endpoint_a, ch.endpoint_b
        key = (a, b) if a < b else (b, a)
        # Every pair was accumulated from both endpoints' BFS trees.
        scores[ch.channel_id] = pair_score.get(key, 0.0) / 2.0
    return scores


def _crossing_channels(
    graph: NetworkGraph, side_a: set[str], side_b: set[str]
) -> tuple[str, ...]:
    cut = [
        ch.channel_id
        for ch in graph.channels()
        if (ch.endpoint_a in side_a and ch.endpoint_b in side_b)
        or (ch.endpoint_a in side_b and ch.endpoint_b in side_a)
    ]
    return tuple(sorted(cut))


def _orient_sides(
    graph: NetworkGraph, side_a: set[str], side_b: set[str]
) -> CutResult:
    # Deterministic output order: the side holding the smallest id comes first.
    if min(side_b) < min(side_a):
        side_a, side_b = side_b, side_a
    return CutResult(
        side_a=tuple(sorted(side_a)),
        side_b=tuple(sorted(side_b)),
        cut_channel_ids=_crossing_channels(graph, side_a, side_b),
    )


def fiedler_cut(graph: NetworkGraph) -> CutResult:
    """Spectral bisection of the largest component.

    Takes the Laplacian eigenvector of the second-smallest eigenvalue from a
    dense eigendecomposition (parallel channels add weight), then splits
    nodes by coordinate sign; near-zero coordinates land on the positive
    side. When that eigenvalue repeats, the eigenvector ``np.linalg.eigh``
    returns decides the sides, which is deterministic for a given numpy
    build. Raises :class:`NonConvergenceError` if the eigensolve fails.
    """
    components = connected_components(graph)
    if not components or len(components[0]) < 3:
        raise ValueError("spectral bisection needs a component with at least 3 nodes")
    comp = sorted(components[0])
    index = {node: i for i, node in enumerate(comp)}
    n = len(comp)

    lap = np.zeros((n, n))
    for ch in graph.channels():
        if ch.endpoint_a not in index or ch.endpoint_b not in index:
            continue
        i, j = index[ch.endpoint_a], index[ch.endpoint_b]
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0

    try:
        v = np.linalg.eigh(lap)[1][:, 1]
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(str(exc)) from exc

    # Fix the sign so repeated runs produce the same orientation.
    for x in v:
        if abs(x) > SIGN_EPSILON:
            if x < 0:
                v = -v
            break
    positive = {comp[i] for i in range(n) if v[i] > -SIGN_EPSILON}
    return _orient_sides(graph, positive, set(comp) - positive)


def kernighan_lin_cut(graph: NetworkGraph) -> CutResult:
    """Simplified Kernighan-Lin refinement of a deterministic seed cut.

    Seeds with the ⌈n/4⌉ smallest node ids of the largest component, then
    repeatedly applies the single best cut-reducing relocation of one node
    to the other side; stops when no move strictly improves the cut. Ties on
    gain prefer the move that evens out side sizes, then the smallest node
    id. A side is never emptied.
    """
    components = connected_components(graph)
    if not components or len(components[0]) < 4:
        raise ValueError("Kernighan-Lin needs a component with at least 4 nodes")
    comp = sorted(components[0])
    comp_set = set(comp)
    seed_size = -(-len(comp) // 4)
    side_a = set(comp[:seed_size])
    side_b = comp_set - side_a

    # Channel multiplicities between node pairs inside the component.
    weight: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for ch in graph.channels():
        if ch.endpoint_a in comp_set and ch.endpoint_b in comp_set:
            weight[ch.endpoint_a][ch.endpoint_b] += 1
            weight[ch.endpoint_b][ch.endpoint_a] += 1

    while True:
        best = None
        for node in comp:
            own = side_a if node in side_a else side_b
            if len(own) == 1:
                continue
            to_own = sum(w for peer, w in weight[node].items() if peer in own)
            to_other = sum(w for peer, w in weight[node].items() if peer not in own)
            gain = to_other - to_own
            if gain <= 0:
                continue
            # Imbalance after the move; smaller is the better tie-break.
            imbalance = abs((len(side_a) - len(side_b)) + (2 if node in side_b else -2))
            key = (-gain, imbalance, node)
            if best is None or key < best[0]:
                best = (key, node)
        if best is None:
            break
        node = best[1]
        if node in side_a:
            side_a.discard(node)
            side_b.add(node)
        else:
            side_b.discard(node)
            side_a.add(node)
    return _orient_sides(graph, side_a, side_b)


def plan_disconnection(
    graph: NetworkGraph,
    labels: Mapping[str, ImplLabel],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
    config: planner.PlannerConfig = planner.PlannerConfig(),
    method: DisconnectionMethod = DisconnectionMethod.GREEDY_BETWEENNESS,
    budget_channels: int | None = None,
) -> tuple[ConnectivityReport, planner.AttackPlan]:
    """Plan an attack aimed at splitting the network apart.

    GreedyBetweenness locks the most-traversed channels first (the planner
    with betweenness weights). Spectral and KernighanLin compute an explicit
    cut of the largest component, plan its channels with the same planner
    in the budget left, and recurse on the largest remaining component
    while budget lasts. The report's curve gives the connected-pairs
    fraction after each route's channels drop out.
    """
    if not isinstance(method, DisconnectionMethod):
        raise ValueError(f"unknown disconnection method {method!r}")
    graph = apply_slot_limits(graph, labels, defaults)
    universe = graph.nodes
    baseline = connected_pairs_fraction(graph)

    if budget_channels is not None and budget_channels < 2:
        routes: list[planner.AttackRoute] = []
    elif method is DisconnectionMethod.GREEDY_BETWEENNESS:
        cfg = replace(config, weight_mode=planner.WeightMode.BETWEENNESS)
        routes = planner.plan_network_attack(graph, labels, defaults, cfg, budget_channels).routes
    else:
        if method is DisconnectionMethod.SPECTRAL:
            find_cut, min_component = fiedler_cut, 3
        else:
            find_cut, min_component = kernighan_lin_cut, 4
        working = graph
        routes = []
        while budget_channels is None or 2 * len(routes) + 2 <= budget_channels:
            components = connected_components(working)
            if not components or len(components[0]) < min_component:
                break
            room = None if budget_channels is None else budget_channels - 2 * len(routes)
            new_routes = planner.plan_network_attack(
                working.subgraph(find_cut(working).cut_channel_ids),
                labels, defaults, config, room,
            ).routes
            if not new_routes:
                # Cut exists but none of its channels can be locked.
                break
            routes.extend(new_routes)
            working = working.without_channels(
                cid for r in new_routes for cid in r.channel_ids
            )
    plan = planner.AttackPlan.covering(graph, routes, config.tau_min)

    curve = [(0, baseline)]
    locked: set[str] = set()
    for i, route in enumerate(plan.routes, start=1):
        locked.update(route.channel_ids)
        frac = connected_pairs_fraction(graph.without_channels(locked), universe)
        curve.append((2 * i, frac))
    logger.info(
        "%s: %d routes, fraction %.4f -> %.4f",
        method.value,
        len(plan.routes),
        baseline,
        curve[-1][1],
    )
    return ConnectivityReport(method=method, curve=curve), plan

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

# Most (source, node) cells in one block of edge_betweenness sources: 20
# sources at 300 nodes. Larger blocks cost fewer numpy calls but more memory.
BETWEENNESS_BLOCK_CELLS = 6_000


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

    Runs Brandes for a block of sources at once, level by level, on node
    indices in sorted node-id order and a CSR adjacency whose rows are
    sorted and whose entries carry their collapsed edge's id. The scores
    equal, bit for bit, those of one dict-based BFS per source in sorted
    order, because every floating-point sum keeps that loop's order:

    - Discovery: a level expands every (source, node) cell of the frontier
      together. The frontier is in per-source BFS order and each row is
      sorted, so a new cell's first occurrence in the expansion is its
      discovery, and the next frontier comes out in BFS order too. Path
      counts sum a cell's parents in that order.
    - Dependency: the same expansion finds each frontier cell's parents,
      grouped by child in BFS order. Walking the levels backwards over
      those groups reversed, each parent receives its children's
      ``sigma[v] / sigma[w] * (1.0 + delta[w])`` terms in reverse BFS order.
    - Score: an edge gets at most one term per source. The terms are summed
      one source row at a time in ascending source order, then halved.

    A block holds at most ``BETWEENNESS_BLOCK_CELLS`` cells, sources times
    nodes, and at least one source; that bounds its arrays.
    """
    if len(graph) == 0:
        raise ValueError("betweenness of an empty graph")
    nodes = graph.nodes
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    # One collapsed edge per node pair, numbered in order of first channel.
    edge_ids: dict[tuple[int, int], int] = {}
    channel_edge = [
        edge_ids.setdefault(
            tuple(sorted((index[ch.endpoint_a], index[ch.endpoint_b]))), len(edge_ids)
        )
        for ch in graph.channels()
    ]
    m = len(edge_ids)
    pairs = np.array(list(edge_ids), dtype=np.int64)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    by_row = np.lexsort((cols, rows))
    cols, edge_of = cols[by_row], np.tile(np.arange(m), 2)[by_row]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])

    total = np.zeros(m)
    block = max(1, BETWEENNESS_BLOCK_CELLS // n)
    for first in range(0, n, block):
        b = min(block, n - first)
        # Cell s * n + v is node v in the BFS from source first + s. An
        # unreached cell's distance is n, deeper than any BFS level.
        dist = np.full(b * n, n)
        sigma = np.zeros(b * n)
        frontier = np.arange(b) * (n + 1) + first
        dist[frontier] = 0
        sigma[frontier] = 1.0
        levels = []
        depth = 0
        while len(frontier):
            v = frontier % n
            deg = indptr[v + 1] - indptr[v]
            parent = np.repeat(frontier, deg)
            entry = np.arange(len(parent)) + np.repeat(indptr[v] - (np.cumsum(deg) - deg), deg)
            peer = np.repeat(frontier - v, deg) + cols[entry]
            peer_dist = dist[peer]
            # Edges from the level above, grouped by child in BFS order.
            up = peer_dist == depth - 1
            levels.append((peer[up], parent[up], edge_of[entry[up]]))
            down = peer_dist == n
            child = peer[down]
            sigma += np.bincount(child, weights=sigma[parent[down]], minlength=b * n)
            # A new cell's first occurrence in the expansion is its discovery.
            order = np.arange(len(child))
            first_seen = np.full(b * n, len(child))
            np.minimum.at(first_seen, child, order)
            frontier = child[first_seen[child] == order]
            depth += 1
            dist[frontier] = depth

        delta = np.zeros(b * n)
        contrib = np.zeros((b, m))
        for parent, child, edge in reversed(levels):
            parent, child, edge = parent[::-1], child[::-1], edge[::-1]
            c = sigma[parent] / sigma[child] * (1.0 + delta[child])
            delta += np.bincount(parent, weights=c, minlength=b * n)
            contrib[child // n, edge] = c
        for row in contrib:
            total += row

    # Every pair was accumulated from both endpoints' BFS trees.
    return dict(zip(graph.channel_ids, (total[channel_edge] / 2.0).tolist()))


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

    # Cut reduction from moving each node: its channels to the other side
    # minus those to its own. A move negates the mover's gain and shifts
    # each neighbour's by twice the channels between them.
    gain = {
        node: sum(
            w if (peer in side_a) != (node in side_a) else -w
            for peer, w in weight[node].items()
        )
        for node in comp
    }
    while True:
        best = None
        for node in comp:
            if gain[node] <= 0:
                continue
            in_a = node in side_a
            if len(side_a if in_a else side_b) == 1:
                continue
            # Imbalance after the move; smaller is the better tie-break.
            imbalance = abs((len(side_a) - len(side_b)) + (-2 if in_a else 2))
            key = (-gain[node], imbalance, node)
            if best is None or key < best:
                best = key
        if best is None:
            break
        node = best[2]
        from_a = node in side_a
        if from_a:
            side_a.discard(node)
            side_b.add(node)
        else:
            side_b.discard(node)
            side_a.add(node)
        gain[node] = -gain[node]
        for peer, w in weight[node].items():
            gain[peer] += 2 * w if (peer in side_a) == from_a else -2 * w
    return _orient_sides(graph, side_a, side_b)


def _locked_fractions(
    graph: NetworkGraph, routes: list[planner.AttackRoute]
) -> list[float]:
    """Connected-pairs fraction of ``graph`` after locking each prefix of
    ``routes``, over all of its nodes.

    One reverse union-find pass: join every channel on no route, then add
    the routes back from last to first. The count of connected ordered
    pairs, the sum of size * (size - 1) over components, stays an exact
    integer (a merge of sizes a and b adds 2ab), so each fraction equals
    :func:`connected_pairs_fraction` on the graph without the locked
    channels.
    """
    nodes = graph.nodes
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    parent = list(range(n))
    size = [1] * n
    pairs = 0

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def join(channel_id: str) -> None:
        nonlocal pairs
        ch = graph.channel(channel_id)
        a, b = find(index[ch.endpoint_a]), find(index[ch.endpoint_b])
        if a != b:
            pairs += 2 * size[a] * size[b]
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]

    locked = {cid for r in routes for cid in r.channel_ids}
    for cid in graph.channel_ids:
        if cid not in locked:
            join(cid)
    fractions = []
    for route in reversed(routes):
        fractions.append(pairs / (n * (n - 1)))
        for cid in route.channel_ids:
            join(cid)
    return fractions[::-1]


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
    fraction after each route's channels drop out. A plan under a budget
    of at least 2 attacker channels that leaves the fraction at its
    baseline logs a warning, which names the cut if one did not fit.
    """
    if not isinstance(method, DisconnectionMethod):
        raise ValueError(f"unknown disconnection method {method!r}")
    if budget_channels is not None and budget_channels < 0:
        raise planner.InfeasibleConfigError(
            f"budget of {budget_channels} attacker channels is negative"
        )
    graph = apply_slot_limits(graph, labels, defaults)
    baseline = connected_pairs_fraction(graph)
    cut = None  # the last cut a spectral or KL plan tried to lock

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
            cut = find_cut(working)
            new_routes = planner.plan_network_attack(
                working.subgraph(cut.cut_channel_ids), labels, defaults, config, room
            ).routes
            if not new_routes:
                # Cut exists but none of its channels can be locked.
                break
            routes.extend(new_routes)
            working = working.without_channels(
                cid for r in new_routes for cid in r.channel_ids
            )
    plan = planner.AttackPlan.covering(graph, routes, config.tau_min)

    fractions = _locked_fractions(graph, plan.routes)
    curve = [(0, baseline)] + [(2 * i, f) for i, f in enumerate(fractions, start=1)]
    if budget_channels is not None and budget_channels >= 2 and curve[-1][1] == baseline:
        if cut is not None:
            logger.warning(
                "%s plan disconnects nothing: the %d-channel cut does not fit a"
                " budget of %d attacker channels",
                method.value,
                cut.cut_size,
                budget_channels,
            )
        else:
            logger.warning(
                "%s plan disconnects nothing under a budget of %d attacker channels",
                method.value,
                budget_channels,
            )
    logger.info(
        "%s: %d routes, fraction %.4f -> %.4f",
        method.value,
        len(plan.routes),
        baseline,
        curve[-1][1],
    )
    return ConnectivityReport(method=method, curve=curve), plan

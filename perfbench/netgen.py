"""Seeded describegraph-style snapshot generator for the benchmark.

The topology grows by preferential attachment: each new node opens
``channels_per_node`` channels to distinct existing nodes picked with
probability proportional to their degree, which yields the few large hubs
and long tail of small nodes a real channel graph has. Optionally the nodes
split into regions that mostly connect among themselves. Every node runs one
implementation from an LND-heavy mix and announces that implementation's
shipped defaults (a fixed share of nodes picks its own fees, which the
inference weights tolerate). Capacities are log-uniform between LND's
20,000 sat channel minimum and the 16,777,215 sat pre-wumbo maximum, drawn
stratified so every seed sees the same capacity quantiles. Nothing is
filtered: small channels stay in, on purpose.

Run directly to write one snapshot::

    python3 perfbench/netgen.py --nodes 1000 --channels-per-node 4 --seed 1 --out graph.json
"""

from __future__ import annotations

import argparse
import json
import math
import random

# Shares of nodes per implementation; exact counts, not independent draws,
# so the mix is identical for every seed.
IMPL_SHARES = (("lnd", 0.85), ("clightning", 0.10), ("eclair", 0.05))

# Shipped defaults per implementation: (time_lock_delta, min_htlc msat,
# fee_base_msat, fee_rate_milli_msat). They match the program's defaults
# table, so implementation inference recovers the mix.
IMPL_POLICY = {
    "lnd": (40, 1000, 1000, 1),
    "clightning": (14, 1000, 1000, 10),
    "eclair": (144, 1, 1000, 100),
}

# Share of nodes that announce custom fees instead of their defaults.
CUSTOM_FEE_SHARE = 0.25

MIN_CAPACITY_SAT = 20_000
MAX_CAPACITY_SAT = 16_777_215


def _exact_assignment(rng: random.Random, n: int, shares) -> list:
    """``n`` labels with counts rounded from ``shares``, shuffled."""
    counts = [math.floor(n * share) for _, share in shares]
    counts[0] += n - sum(counts)
    labels = [name for (name, _), count in zip(shares, counts) for _ in range(count)]
    rng.shuffle(labels)
    return labels


def _stratified_log_uniform(rng: random.Random, m: int, lo: int, hi: int) -> list[int]:
    log_lo, log_hi = math.log(lo), math.log(hi)
    values = [
        min(hi, max(lo, round(math.exp(log_lo + (k + rng.random()) / m * (log_hi - log_lo)))))
        for k in range(m)
    ]
    rng.shuffle(values)
    return values


def _preferential_attachment(
    rng: random.Random, n: int, m: int, regions: int, cross_share: float
) -> list[tuple[int, int]]:
    """Edges of a Barabasi-Albert graph seeded with a clique on m+1 nodes.

    With ``regions`` > 1, node ``i`` lives in region ``i % regions`` and
    each channel it opens goes to a peer in its own region, except a
    ``cross_share`` of them, which may go anywhere.
    """
    edges = [(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)]
    # Each node appears once per incident edge, so a uniform pick from one
    # of these lists is a pick proportional to degree.
    ends = [v for e in edges for v in e]
    ends_in = [[v for v in ends if v % regions == r] for r in range(regions)]
    for new in range(m + 1, n):
        local = ends_in[new % regions]
        targets: set[int] = set()
        while len(targets) < m:
            pool = ends if regions == 1 or rng.random() < cross_share else local
            targets.add(pool[rng.randrange(len(pool))])
        for t in sorted(targets):
            edges.append((t, new))
            ends.extend((t, new))
            ends_in[t % regions].append(t)
            ends_in[new % regions].append(new)
    return edges


def _policy(impl: str, fees: tuple[int, int] | None) -> dict:
    delta, min_htlc, fee_base, fee_rate = IMPL_POLICY[impl]
    if fees is not None:
        fee_base, fee_rate = fees
    return {
        "time_lock_delta": delta,
        "min_htlc": str(min_htlc),
        "fee_base_msat": str(fee_base),
        "fee_rate_milli_msat": str(fee_rate),
        "disabled": False,
    }


def generate(
    n_nodes: int, channels_per_node: int, seed: int, regions: int = 1, cross_share: float = 1.0
) -> dict:
    """Build one snapshot document; the same arguments give the same document."""
    rng = random.Random(seed)
    node_ids = sorted({f"{rng.getrandbits(256):064x}" for _ in range(n_nodes)})
    while len(node_ids) < n_nodes:  # pragma: no cover - 256-bit collision
        node_ids = sorted(set(node_ids) | {f"{rng.getrandbits(256):064x}"})
    node_ids = ["02" + h for h in node_ids]
    rng.shuffle(node_ids)  # attachment order is independent of id order
    impls = _exact_assignment(rng, n_nodes, IMPL_SHARES)
    custom = _exact_assignment(
        rng, n_nodes, (("default", 1 - CUSTOM_FEE_SHARE), ("custom", CUSTOM_FEE_SHARE))
    )
    fees = [
        (rng.choice((0, 500, 1000, 2000)), rng.choice((1, 50, 100, 250, 1000)))
        if c == "custom" else None
        for c in custom
    ]
    policies = [_policy(impls[i], fees[i]) for i in range(n_nodes)]

    edges = _preferential_attachment(rng, n_nodes, channels_per_node, regions, cross_share)
    rng.shuffle(edges)
    capacities = _stratified_log_uniform(rng, len(edges), MIN_CAPACITY_SAT, MAX_CAPACITY_SAT)
    channels = []
    for k, ((a, b), capacity) in enumerate(zip(edges, capacities)):
        if rng.random() < 0.5:
            a, b = b, a
        # Short-channel-id style: block height, tx index, output index.
        scid = ((600_000 + k // 50) << 40) | ((k % 50) << 16) | (k & 1)
        channels.append(
            {
                "channel_id": str(scid),
                "node1_pub": node_ids[a],
                "node2_pub": node_ids[b],
                "capacity": str(capacity),
                "node1_policy": policies[a],
                "node2_policy": policies[b],
            }
        )
    return {
        "nodes": [{"pub_key": node_id, "alias": f"node{i}"} for i, node_id in enumerate(node_ids)],
        "edges": channels,
        "timestamp": "2020-09-21",
    }


def implementation_shares(doc: dict) -> dict[str, float]:
    """Share of nodes per implementation, recovered from announced deltas."""
    by_delta = {policy[0]: impl for impl, policy in IMPL_POLICY.items()}
    impl_of = {}
    for edge in doc["edges"]:
        impl_of[edge["node1_pub"]] = by_delta[edge["node1_policy"]["time_lock_delta"]]
        impl_of[edge["node2_pub"]] = by_delta[edge["node2_policy"]["time_lock_delta"]]
    n = len(doc["nodes"])
    return {impl: sum(v == impl for v in impl_of.values()) / n for impl in IMPL_POLICY}


def write_snapshot(
    path: str, n_nodes: int, channels_per_node: int, seed: int,
    regions: int = 1, cross_share: float = 1.0,
) -> dict:
    """Write the snapshot to ``path``; return its size facts."""
    doc = generate(n_nodes, channels_per_node, seed, regions, cross_share)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return {
        "nodes": len(doc["nodes"]),
        "channels": len(doc["edges"]),
        "implementation_shares": implementation_shares(doc),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, required=True)
    parser.add_argument("--channels-per-node", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    facts = write_snapshot(args.out, args.nodes, args.channels_per_node, args.seed)
    print(json.dumps(facts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

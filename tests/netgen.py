"""Synthetic snapshot builders shared across the test suite.

Everything is seeded and deterministic. Channels carry the full default
policy of the owning node's implementation, so inference on these
snapshots is exact by construction.
"""

import json
import random

from lnjam.topology import MAINNET_DEFAULTS, Snapshot, parse_snapshot

IMPL_NAMES = ("lnd", "clightning", "eclair")

DEFAULTS_BY_NAME = {
    "lnd": MAINNET_DEFAULTS.lnd,
    "clightning": MAINNET_DEFAULTS.clightning,
    "eclair": MAINNET_DEFAULTS.eclair,
}


def policy_json(defaults, disabled=False, **overrides):
    doc = {
        "time_lock_delta": str(defaults.cltv_expiry_delta),
        "min_htlc": str(defaults.htlc_minimum_msat),
        "fee_base_msat": str(defaults.fee_base_msat),
        "fee_rate_milli_msat": str(defaults.fee_proportional_millionths),
        "disabled": disabled,
    }
    for key, value in overrides.items():
        doc[key] = value if key == "disabled" else str(value)
    return doc


def channel_json(cid, node_a, node_b, capacity_sat, policy_a=None, policy_b=None):
    doc = {
        "channel_id": cid,
        "node1_pub": node_a,
        "node2_pub": node_b,
        "capacity": str(capacity_sat),
    }
    if policy_a is not None:
        doc["node1_policy"] = policy_a
    if policy_b is not None:
        doc["node2_policy"] = policy_b
    return doc


def snapshot_json(node_ids, channels, **top_level) -> str:
    doc = {"nodes": [{"pub_key": n} for n in node_ids], "edges": list(channels)}
    doc.update(top_level)
    return json.dumps(doc)


def random_snapshot(
    n_nodes,
    extra_channels,
    seed,
    impl_names=("lnd",),
    capacity_range=(2_000_000, 20_000_000),
) -> Snapshot:
    """A connected random snapshot: spanning tree plus chords.

    Each node gets one implementation drawn from ``impl_names`` and
    announces that implementation's defaults on all its channels.
    """
    rng = random.Random(seed)
    nodes = [f"n{i:03d}" for i in range(n_nodes)]
    impls = {n: rng.choice(impl_names) for n in nodes}
    pairs = []
    seen = set()
    for i in range(1, n_nodes):
        j = rng.randrange(i)
        pairs.append((j, i))
        seen.add((j, i))
    for _ in range(extra_channels):
        a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        pairs.append((a, b))
    channels = []
    for k, (a, b) in enumerate(pairs):
        channels.append(
            channel_json(
                f"c{k:04d}",
                nodes[a],
                nodes[b],
                rng.randrange(*capacity_range),
                policy_json(DEFAULTS_BY_NAME[impls[nodes[a]]]),
                policy_json(DEFAULTS_BY_NAME[impls[nodes[b]]]),
            )
        )
    return parse_snapshot(snapshot_json(nodes, channels))


def star_snapshot(degree, impl="lnd", neighbor_impl=None, capacity_sat=5_000_000) -> Snapshot:
    """A hub with ``degree`` leaves; hub runs ``impl``, leaves ``neighbor_impl``."""
    neighbor_impl = neighbor_impl or impl
    nodes = ["hub"] + [f"leaf{i:02d}" for i in range(degree)]
    hub_policy = policy_json(DEFAULTS_BY_NAME[impl])
    leaf_policy = policy_json(DEFAULTS_BY_NAME[neighbor_impl])
    channels = [
        channel_json(f"s{i:02d}", "hub", f"leaf{i:02d}", capacity_sat, hub_policy, leaf_policy)
        for i in range(degree)
    ]
    return parse_snapshot(snapshot_json(nodes, channels))


def line_snapshot(deltas, capacities=None, impl="lnd") -> Snapshot:
    """A path n0-n1-...; channel i announces delta ``deltas[i]`` both ways."""
    base = DEFAULTS_BY_NAME[impl]
    n = len(deltas) + 1
    nodes = [f"n{i:02d}" for i in range(n)]
    capacities = capacities or [5_000_000] * len(deltas)
    channels = [
        channel_json(
            f"e{i:02d}",
            nodes[i],
            nodes[i + 1],
            capacities[i],
            policy_json(base, time_lock_delta=deltas[i]),
            policy_json(base, time_lock_delta=deltas[i]),
        )
        for i in range(len(deltas))
    ]
    return parse_snapshot(snapshot_json(nodes, channels))


def barbell_snapshot(k=6) -> Snapshot:
    """Two K_k cliques joined by one bridge at their highest-sorted nodes.

    The bridge sits on a(k-1)-b(k-1) so the smallest node ids form a
    bridge-free seed set for partitioning heuristics.
    """
    nodes = [f"a{i}" for i in range(k)] + [f"b{i}" for i in range(k)]
    lnd = DEFAULTS_BY_NAME["lnd"]
    channels = []
    idx = 0
    for side in ("a", "b"):
        for i in range(k):
            for j in range(i + 1, k):
                channels.append(
                    channel_json(
                        f"{side}{i}{j}",
                        f"{side}{i}",
                        f"{side}{j}",
                        5_000_000 + idx * 1_000,
                        policy_json(lnd),
                        policy_json(lnd),
                    )
                )
                idx += 1
    channels.append(
        channel_json("bridge", f"a{k-1}", f"b{k-1}", 6_000_000, policy_json(lnd), policy_json(lnd))
    )
    return parse_snapshot(snapshot_json(nodes, channels))


def ring_snapshot(n=60) -> Snapshot:
    """An all-LND ring n00-n01-...-n00 whose n00-n01 channel is doubled.

    The ring's two smallest non-zero Laplacian eigenvalues are equal; the
    doubled channel splits them only slightly, which iterative eigensolvers
    converge on slowly. Its best bisection cuts two single channels.
    """
    nodes = [f"n{i:02d}" for i in range(n)]
    pairs = [(nodes[i], nodes[(i + 1) % n]) for i in range(n)] + [(nodes[0], nodes[1])]
    policy = policy_json(DEFAULTS_BY_NAME["lnd"])
    channels = [
        channel_json(f"r{i:02d}", a, b, 1_000_000, policy, policy)
        for i, (a, b) in enumerate(pairs)
    ]
    return parse_snapshot(snapshot_json(nodes, channels))

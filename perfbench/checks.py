"""Output checks and digests for the benchmark workloads.

Every check returns a list of problems; an empty list means the output is
right. The checks restate the planner's contract from the outside: they use
only the plan, the slot-limited graph and the documented invariants, never
the planner's own helpers.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

from lnjam.planner import AttackPlan
from lnjam.topology import NetworkGraph

LOCKTIME_MAX = 2016


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def csv_body(text: str) -> str:
    """A CLI CSV without its ``#`` metadata header."""
    return "".join(line for line in text.splitlines(True) if not line.startswith("#"))


def json_body(text: str) -> str:
    """A CLI JSON document without its ``meta`` block, canonically dumped."""
    doc = json.loads(text)
    doc.pop("meta", None)
    return json.dumps(doc, sort_keys=True)


def plan_json(plan) -> str:
    """A plan in the CLI's ``--plan-out`` format."""
    return json.dumps(plan.to_json_dict(), indent=2, sort_keys=True) + "\n"


def csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_body(text))))


def check_network_plan(
    plan: AttackPlan,
    graph: NetworkGraph,
    max_route_channels: int = 18,
    budget: int | None = None,
) -> list[str]:
    """Routes chain, fit the locktime and length budgets, and partition the
    covered channels; covered plus uncovered channels are the whole graph.

    ``graph`` must carry slot limits.
    """
    problems = []
    seen: set[str] = set()
    for i, route in enumerate(plan.routes, start=1):
        where = f"route {i}"
        if not 1 <= len(route.hops) <= max_route_channels:
            problems.append(f"{where}: {len(route.hops)} channels, limit {max_route_channels}")
        timeout = 0
        capacity = 0
        for k, hop in enumerate(route.hops):
            if hop.channel_id not in graph:
                problems.append(f"{where}: unknown channel {hop.channel_id}")
                continue
            ch = graph.channel(hop.channel_id)
            if {hop.from_node, hop.to_node} != {ch.endpoint_a, ch.endpoint_b}:
                problems.append(f"{where}: hop {k} does not match channel {ch.channel_id}")
                continue
            if k and route.hops[k - 1].to_node != hop.from_node:
                problems.append(f"{where}: hop {k} does not continue hop {k - 1}")
            if ch.slot_limit != route.slot_class:
                problems.append(
                    f"{where}: {ch.channel_id} has {ch.slot_limit} slots, not {route.slot_class}")
            if hop.channel_id in seen:
                problems.append(f"{where}: channel {hop.channel_id} is on two routes")
            seen.add(hop.channel_id)
            timeout += ch.delta_from(hop.from_node)
            capacity += ch.capacity_sat
        if timeout != route.timeout_sum or route.lock_duration != LOCKTIME_MAX - timeout:
            problems.append(f"{where}: timeout {route.timeout_sum} != charged deltas {timeout}")
        if route.lock_duration < plan.tau_min:
            problems.append(f"{where}: locks {route.lock_duration} < tau_min {plan.tau_min}")
        if capacity != route.capacity_sat:
            problems.append(f"{where}: capacity {route.capacity_sat} != {capacity}")
    uncovered = set(plan.uncovered_channel_ids)
    if uncovered & seen or (uncovered | seen) != set(graph.channel_ids):
        problems.append("covered and uncovered channels do not partition the graph")
    if budget is not None and plan.attacker_channels > budget:
        problems.append(f"{plan.attacker_channels} attacker channels exceed budget {budget}")
    return problems


def check_costs(plan: AttackPlan, report_doc: dict) -> list[str]:
    """Locked liquidity is the sum over routes of slot_class x amount."""
    problems = []
    per_route = report_doc["per_route"]
    if len(per_route) != len(plan.routes):
        problems.append(f"{len(per_route)} priced routes for {len(plan.routes)} planned")
    expected = sum(r.slot_class * r.payment_amount_msat for r in plan.routes)
    if report_doc["locked_liquidity_msat"] != expected:
        problems.append(f"locked liquidity {report_doc['locked_liquidity_msat']} != {expected}")
    for rc, route in zip(per_route, plan.routes):
        if rc["locked_liquidity_msat"] != rc["slot_class"] * rc["payment_amount_msat"]:
            problems.append(f"route {rc['route_index']}: locked != slot_class x amount")
        if rc["payment_amount_msat"] != route.payment_amount_msat:
            problems.append(f"route {rc['route_index']}: priced amount differs from plan")
    return problems


def check_isolation(plan, graph: NetworkGraph) -> list[str]:
    """Every victim channel is planned, and its traversals sum to its slots."""
    problems = []
    victim = plan.victim
    planned = [c.channel_id for c in plan.per_channel]
    if sorted(planned) != sorted(graph.channels_of(victim)):
        problems.append(f"victim {victim}: planned channels differ from its channels")
    for c in plan.per_channel:
        slots = graph.channel(c.channel_id).slot_limit
        if c.slot_limit != slots:
            problems.append(f"{c.channel_id}: slot limit {c.slot_limit} != {slots}")
        if not c.paralyzable:
            continue
        total = sum(p.traversals for p in c.payments)
        if total != c.slot_limit:
            problems.append(f"{c.channel_id}: traversals sum to {total}, not {c.slot_limit}")
        for p in c.payments:
            if not 1 <= p.traversals <= c.max_traversals or p.lock_duration < plan.tau_min:
                problems.append(f"{c.channel_id}: payment breaks the traversal or lock bound")
    return problems


def check_curve(rows: list[dict], budget: int) -> list[str]:
    """Connectivity never increases as attacker channels are added."""
    problems = []
    channels = [int(r["attacker_channels"]) for r in rows]
    fractions = [float(r["connected_pairs_fraction"]) for r in rows]
    if not rows or channels != list(range(0, 2 * len(rows), 2)) or channels[-1] > budget:
        problems.append(f"curve x values {channels} are not 0, 2, ... within budget {budget}")
    if any(b > a for a, b in zip(fractions, fractions[1:])):
        problems.append(f"connectivity curve increases: {fractions}")
    if any(not 0.0 <= f <= 1.0 for f in fractions):
        problems.append("connectivity fraction outside [0, 1]")
    return problems


def check_betweenness(graph: NetworkGraph, scores: dict[str, float]) -> list[str]:
    """Compare lnjam's edge betweenness with networkx on the same graph.

    lnjam collapses parallel channels into one edge and gives each channel
    its node pair's score, which is networkx's unnormalized edge betweenness.
    """
    import networkx as nx

    g = nx.Graph()
    for ch in graph.channels():
        g.add_edge(ch.endpoint_a, ch.endpoint_b)
    reference = nx.edge_betweenness_centrality(g, normalized=False)
    problems = []
    for ch in graph.channels():
        key = (ch.endpoint_a, ch.endpoint_b)
        want = reference.get(key, reference.get(key[::-1]))
        got = scores[ch.channel_id]
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            problems.append(f"betweenness of {ch.channel_id}: {got} != networkx {want}")
    return problems

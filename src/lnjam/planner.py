"""Greedy planning of slot-exhaustion routes over a channel graph.

A single malicious payment that is accepted but never settled pins one HTLC
slot on every channel it crosses until its locktime runs out. The planner
partitions the target channels into attacker routes: each route is a
connected walk of distinct channels, entered and exited through two channels
the attacker opens, such that the sum of forwarding deltas along the walk
still leaves at least ``tau_min`` blocks of lock time under the 2016-block
ceiling. Filling every channel of a route to its HTLC slot limit then needs
only ``slot_class`` payments and two attacker channels.

Routes are chosen greedily by weight (channel capacity, or edge betweenness
for connectivity attacks), heaviest first, always extending at the head
while the locktime budget allows.

With capacity weights the seeds come from one sorted order, and a plan that
keeps only its ``k`` heaviest routes stops early. Every later route starts at
a seed no heavier than the next one and holds at most ``max_route_channels``
channels, none heavier than that seed. So once ``max_route_channels`` times
the next seed's weight is strictly below the ``k``-th heaviest route so far,
no later route can be kept, and planning stops. Betweenness weights are
recomputed on the residual graph, where a weight can rise, so that mode
plans the whole graph.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Mapping, Sequence

from .inference import split_by_slot_class
from .topology import (
    LOCKTIME_MAX,
    MAINNET_DEFAULTS,
    DefaultsTable,
    ImplLabel,
    NetworkGraph,
    apply_slot_limits,
)

logger = logging.getLogger(__name__)

# Longest permitted payment route, in channels (BOLT onion limit).
MAX_ROUTE_HOPS = 20

# Blocks per day, for converting lock periods to tau_min.
BLOCKS_PER_DAY = 144


class MixedSlotClassError(ValueError):
    """choose_routes needs all channels to share one slot limit."""


class InfeasibleConfigError(ValueError):
    """A sweep or budget parameter leaves no room for any attack."""


class WeightMode(Enum):
    CAPACITY = "capacity"
    BETWEENNESS = "betweenness"


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs for route selection.

    Attributes:
        tau_min: minimum acceptable lock duration, blocks (default three days).
        max_route_channels: victim channels per route; the onion limit of 20
            minus the attacker's entry and exit hops.
        weight_mode: channel ordering criterion. Betweenness weights are
            recomputed on the residual graph before each route.
    """

    tau_min: int = 432
    max_route_channels: int = 18
    weight_mode: WeightMode = WeightMode.CAPACITY

    def __post_init__(self):
        if not 0 < self.tau_min < LOCKTIME_MAX:
            raise InfeasibleConfigError(
                f"tau_min must be in (0, {LOCKTIME_MAX}), got {self.tau_min}"
            )
        if not 1 <= self.max_route_channels <= MAX_ROUTE_HOPS - 2:
            raise InfeasibleConfigError(
                f"max_route_channels must be in [1, {MAX_ROUTE_HOPS - 2}],"
                f" got {self.max_route_channels}"
            )


@dataclass(frozen=True)
class RouteHop:
    channel_id: str
    from_node: str
    to_node: str


@dataclass
class AttackRoute:
    """One walk of victim channels plus derived locking facts.

    ``timeout_sum`` is the total forwarding delta charged along the walk
    (the attacker's own entry/exit hops charge zero); the payments stay
    pending for ``lock_duration = LOCKTIME_MAX - timeout_sum`` blocks.
    ``payment_amount_msat`` is filled in by the cost model when a plan is
    priced.
    """

    hops: tuple[RouteHop, ...]
    timeout_sum: int
    lock_duration: int
    weight: float
    slot_class: int
    capacity_sat: int
    payment_amount_msat: int | None = None

    @property
    def channel_ids(self) -> tuple[str, ...]:
        return tuple(h.channel_id for h in self.hops)

    @property
    def n_channels(self) -> int:
        return len(self.hops)

    @property
    def node_sequence(self) -> tuple[str, ...]:
        return (self.hops[0].from_node,) + tuple(h.to_node for h in self.hops)


@dataclass
class AttackPlan:
    """Ordered attack routes plus coverage bookkeeping."""

    routes: list[AttackRoute]
    total_capacity_sat: int
    tau_min: int
    uncovered_channel_ids: tuple[str, ...] = ()

    @classmethod
    def covering(
        cls, graph: NetworkGraph, routes: list[AttackRoute], tau_min: int
    ) -> "AttackPlan":
        """Plan of ``routes`` over ``graph``; every channel off them is uncovered."""
        covered = {cid for r in routes for cid in r.channel_ids}
        return cls(
            routes=routes,
            total_capacity_sat=graph.total_capacity_sat,
            tau_min=tau_min,
            uncovered_channel_ids=tuple(sorted(set(graph.channel_ids) - covered)),
        )

    @property
    def attacker_channels(self) -> int:
        return 2 * len(self.routes)

    @property
    def locked_capacity_sat(self) -> int:
        return sum(r.capacity_sat for r in self.routes)

    @property
    def locked_capacity_fraction(self) -> float:
        if self.total_capacity_sat == 0:
            return 0.0
        return self.locked_capacity_sat / self.total_capacity_sat

    def cumulative_rows(self) -> list[dict]:
        """One row per route: weight, size, locktimes, cumulative coverage."""
        rows = []
        cum_cap = 0
        for i, r in enumerate(self.routes, start=1):
            cum_cap += r.capacity_sat
            rows.append(
                {
                    "route_index": i,
                    "weight": r.weight,
                    "n_channels": r.n_channels,
                    "timeout_sum": r.timeout_sum,
                    "lock_duration": r.lock_duration,
                    "capacity_sat": r.capacity_sat,
                    "cumulative_attacker_channels": 2 * i,
                    "cumulative_capacity_fraction": (
                        cum_cap / self.total_capacity_sat if self.total_capacity_sat else 0.0
                    ),
                }
            )
        return rows

    def to_json_dict(self) -> dict:
        return {
            "kind": "network-attack",
            "tau_min": self.tau_min,
            "total_capacity_sat": self.total_capacity_sat,
            "uncovered_channel_ids": list(self.uncovered_channel_ids),
            "routes": [
                {
                    "hops": [
                        {"channel_id": h.channel_id, "from": h.from_node, "to": h.to_node}
                        for h in r.hops
                    ],
                    "timeout_sum": r.timeout_sum,
                    "lock_duration": r.lock_duration,
                    "weight": r.weight,
                    "slot_class": r.slot_class,
                    "capacity_sat": r.capacity_sat,
                    "payment_amount_msat": r.payment_amount_msat,
                }
                for r in self.routes
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AttackPlan":
        if doc.get("kind") != "network-attack":
            raise ValueError(f"not a network attack plan: kind={doc.get('kind')!r}")
        routes = [
            AttackRoute(
                hops=tuple(
                    RouteHop(h["channel_id"], h["from"], h["to"]) for h in r["hops"]
                ),
                timeout_sum=int(r["timeout_sum"]),
                lock_duration=int(r["lock_duration"]),
                weight=float(r["weight"]),
                slot_class=int(r["slot_class"]),
                capacity_sat=int(r["capacity_sat"]),
                payment_amount_msat=(
                    None
                    if r.get("payment_amount_msat") is None
                    else int(r["payment_amount_msat"])
                ),
            )
            for r in doc["routes"]
        ]
        return cls(
            routes=routes,
            total_capacity_sat=int(doc["total_capacity_sat"]),
            tau_min=int(doc["tau_min"]),
            uncovered_channel_ids=tuple(doc.get("uncovered_channel_ids", ())),
        )


def can_extend_route(
    candidate_delta: int, route_timeout_sum: int, config: PlannerConfig
) -> bool:
    """Does adding a hop with this forwarding delta keep the route usable?

    The extended route must still lock payments for at least ``tau_min``
    blocks under the ``LOCKTIME_MAX`` ceiling.
    """
    return candidate_delta <= LOCKTIME_MAX - config.tau_min - route_timeout_sum


def _channel_weights(graph: NetworkGraph, config: PlannerConfig) -> dict[str, float]:
    if config.weight_mode is WeightMode.CAPACITY:
        return {ch.channel_id: float(ch.capacity_sat) for ch in graph.channels()}
    # Imported here: partition pulls this module in at import time for
    # plan_disconnection, so the reverse dependency has to stay lazy.
    from .partition import edge_betweenness

    return edge_betweenness(graph)


def choose_routes(
    graph: NetworkGraph, config: PlannerConfig = PlannerConfig(), keep: int | None = None
) -> list[AttackRoute]:
    """Partition a uniform-slot-class graph into attack routes.

    Channels whose best-direction delta already exceeds the locktime budget
    cannot appear on any route and are skipped (callers can diff against the
    graph to report them). Everything else lands on exactly one route, unless
    ``keep`` stops planning early.

    Args:
        graph: channels to cover; every ``slot_limit`` must be set and equal.
        config: locktime and ordering knobs.
        keep: how many of the heaviest routes the caller will keep; None
            means all. Capacity mode stops early by the rule in the module
            docstring; betweenness mode ignores it.

    Returns:
        Routes in selection order (heaviest seed first). With ``keep``, the
        ``keep`` heaviest routes of the full partition are among them.
    """
    if keep is not None and keep < 1:
        raise InfeasibleConfigError(f"cannot keep {keep} routes")
    if len(graph) == 0:
        return []
    classes = {ch.slot_limit for ch in graph.channels()}
    if None in classes:
        raise MixedSlotClassError("slot limits missing; run apply_slot_limits first")
    if len(classes) != 1:
        raise MixedSlotClassError(f"multiple slot classes in one planning pass: {sorted(classes)}")
    slot_class = classes.pop()

    budget = LOCKTIME_MAX - config.tau_min
    remaining = {
        ch.channel_id for ch in graph.channels() if ch.min_delta <= budget
    }
    dropped = len(graph) - len(remaining)
    if dropped:
        logger.info("%d channels exceed the locktime budget and are skipped", dropped)

    def seed_key(cid: str):
        return (-w.get(cid, 0.0), graph.channel(cid).min_delta, cid)

    # Betweenness is recomputed on the residual graph before each route, and
    # a channel's weight can rise there. So that mode cannot take its seeds
    # from one sorted order, nor bound a later route by the current seed.
    recompute = config.weight_mode is WeightMode.BETWEENNESS
    w = {} if recompute else _channel_weights(graph, config)
    order = [] if recompute else sorted(remaining, key=seed_key)
    cursor = 0
    heaviest: list[float] = []  # min-heap of the `keep` heaviest route weights

    routes: list[AttackRoute] = []
    while remaining:
        if recompute:
            w = _channel_weights(graph.subgraph(remaining), config)
            seed_id = min(remaining, key=seed_key)
        else:
            while order[cursor] not in remaining:
                cursor += 1
            seed_id = order[cursor]
            # Capacities are integers, so route weights are exact sums and
            # the bound holds without rounding slack. Strict, because a tied
            # route may still win on its first channel id.
            if len(heaviest) == keep and config.max_route_channels * w[seed_id] < heaviest[0]:
                break
        remaining.discard(seed_id)
        seed = graph.channel(seed_id)

        # Traverse the cheaper direction so the larger delta is announced by
        # the node the route leaves behind.
        d_fwd = seed.policy_a_to_b.cltv_expiry_delta
        d_rev = seed.policy_b_to_a.cltv_expiry_delta
        if d_rev < d_fwd:
            start, charged = seed.endpoint_b, d_rev
        else:
            start, charged = seed.endpoint_a, d_fwd
        head = seed.other_endpoint(start)
        hops = [RouteHop(seed_id, start, head)]
        timeout = charged

        while len(hops) < config.max_route_channels:
            best_id = None
            best_key = None
            best_charged = 0
            for cid in graph.channels_of(head):
                if cid not in remaining:
                    continue
                ch = graph.channel(cid)
                hop_delta = ch.delta_from(head)
                if not can_extend_route(hop_delta, timeout, config):
                    continue
                key = (-w.get(cid, 0.0), hop_delta, cid)
                if best_key is None or key < best_key:
                    best_id, best_key, best_charged = cid, key, hop_delta
            if best_id is None:
                break
            remaining.discard(best_id)
            nxt = graph.channel(best_id).other_endpoint(head)
            hops.append(RouteHop(best_id, head, nxt))
            timeout += best_charged
            head = nxt

        routes.append(
            AttackRoute(
                hops=tuple(hops),
                timeout_sum=timeout,
                lock_duration=LOCKTIME_MAX - timeout,
                weight=sum(w.get(h.channel_id, 0.0) for h in hops),
                slot_class=slot_class,
                capacity_sat=sum(graph.channel(h.channel_id).capacity_sat for h in hops),
            )
        )
        if keep is not None:
            push = heapq.heappush if len(heaviest) < keep else heapq.heappushpop
            push(heaviest, routes[-1].weight)
    return routes


def plan_network_attack(
    graph: NetworkGraph,
    labels: Mapping[str, ImplLabel],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
    config: PlannerConfig = PlannerConfig(),
    budget_channels: int | None = None,
) -> AttackPlan:
    """Plan a capacity-locking attack over the whole graph.

    Channels are planned per slot class (see :func:`split_by_slot_class`)
    so each route needs a single payment count.
    Routes are then ranked by weight and truncated to the attacker-channel
    budget: each route costs two channels.

    A budget keeps ``k = budget_channels // 2`` routes. With capacity weights
    each class stops planning once ``max_route_channels`` times the next
    seed's weight is strictly below its ``k``-th heaviest route so far (see
    :func:`choose_routes`). No later route of that class could reach the
    top ``k``, so the merged, sorted and truncated plan is the same as from
    a full partition.

    Args:
        budget_channels: attacker channels available; None means unlimited.
    """
    if budget_channels is not None and budget_channels < 2:
        raise InfeasibleConfigError(
            f"budget of {budget_channels} attacker channels cannot fund a route"
        )
    keep = None if budget_channels is None else budget_channels // 2
    graph = apply_slot_limits(graph, labels, defaults)
    routes: list[AttackRoute] = []
    for sub in split_by_slot_class(graph):
        routes.extend(choose_routes(sub, config, keep))
    routes.sort(key=lambda r: (-r.weight, r.hops[0].channel_id))
    routes = routes[:keep]
    plan = AttackPlan.covering(graph, routes, config.tau_min)
    logger.info(
        "planned %d routes (%d attacker channels), locking %.1f%% of capacity",
        len(routes),
        plan.attacker_channels,
        100 * plan.locked_capacity_fraction,
    )
    return plan


def upper_bound_capacity(
    graph: NetworkGraph,
    budget_channels: int,
    max_route_channels: int = MAX_ROUTE_HOPS - 2,
) -> float:
    """Capacity fraction no plan under this budget can beat.

    With ``budget_channels // 2`` routes of at most ``max_route_channels``
    channels each, the locked capacity is at most the sum of the largest
    ``routes * max_route_channels`` capacities, whatever the topology.
    """
    if budget_channels < 2:
        raise InfeasibleConfigError(
            f"budget of {budget_channels} attacker channels cannot fund a route"
        )
    total = graph.total_capacity_sat
    if total == 0:
        return 0.0
    caps = sorted((ch.capacity_sat for ch in graph.channels()), reverse=True)
    top = caps[: (budget_channels // 2) * max_route_channels]
    return min(1.0, sum(top) / total)


def lock_period_sweep(
    graph: NetworkGraph,
    labels: Mapping[str, ImplLabel],
    days: Sequence[float],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
    config: PlannerConfig = PlannerConfig(),
    budget_channels: int | None = None,
) -> list[tuple[float, AttackPlan]]:
    """Re-plan the attack for a range of minimum lock periods, in days.

    Each ``d`` maps to ``tau_min = ceil(144 * d)``. Days of 14 or more leave
    no locktime budget at all (144 * 14 = 2016) and raise
    :class:`InfeasibleConfigError`.
    """
    plans = []
    for d in days:
        if not 0 < d < 14:
            raise InfeasibleConfigError(f"lock period of {d} days is outside (0, 14)")
        cfg = replace(config, tau_min=math.ceil(BLOCKS_PER_DAY * d))
        plans.append((d, plan_network_attack(graph, labels, defaults, cfg, budget_channels)))
    return plans


def route_length_sweep(
    graph: NetworkGraph,
    labels: Mapping[str, ImplLabel],
    max_hops: Sequence[int],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
    config: PlannerConfig = PlannerConfig(),
    budget_channels: int | None = None,
) -> list[tuple[int, AttackPlan]]:
    """Re-plan under different total route-length limits (in hops).

    A limit of ``h`` hops leaves ``h - 2`` victim channels per route after
    the attacker's entry and exit. Limits outside [3, 20] are rejected.
    """
    plans = []
    for limit in max_hops:
        if not 3 <= limit <= MAX_ROUTE_HOPS:
            raise InfeasibleConfigError(
                f"route length limit {limit} outside [3, {MAX_ROUTE_HOPS}]"
            )
        cfg = replace(config, max_route_channels=limit - 2)
        plans.append((limit, plan_network_attack(graph, labels, defaults, cfg, budget_channels)))
    return plans

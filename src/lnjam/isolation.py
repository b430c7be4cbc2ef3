"""Single-victim isolation: paralyze every channel adjacent to one node.

Each adjacent channel is filled to its HTLC slot limit by payments that
enter through a direct attacker↔victim channel, bounce across the target
channel as many times as the locktime budget and the 20-hop onion limit
allow, and return to the attacker. A channel with slot limit S and traversal
bound k needs ⌈S/k⌉ such payments; the victim's whole neighborhood falls to
a number of attacker channels that grows slowly with the victim's degree.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .planner import MAX_ROUTE_HOPS
from .topology import (
    LOCKTIME_MAX,
    MAINNET_DEFAULTS,
    DefaultsTable,
    GraphChannel,
    ImplLabel,
    NetworkGraph,
    channel_slot_limit,
)

logger = logging.getLogger(__name__)

# The attacker is assumed to run LND, so its own channels accept 483 HTLCs.
ATTACKER_SLOT_LIMIT = 483

# Entry and exit hops bracket the traversals, under the 20-hop onion limit.
MAX_TRAVERSALS = MAX_ROUTE_HOPS - 2


@dataclass(frozen=True)
class BackForthRoute:
    """One payment bouncing over a single target channel.

    The payment enters from the attacker on the victim side, crosses the
    target channel ``traversals`` times (alternating direction, victim side
    first), and exits back to the attacker: from the victim for an even
    traversal count, from the neighbor for an odd one. It pins
    ``traversals`` slots on the target and two slots on attacker channels.
    """

    traversals: int
    timeout_sum: int
    lock_duration: int

    @property
    def ends_at_victim(self) -> bool:
        return self.traversals % 2 == 0


@dataclass(frozen=True)
class ChannelIsolation:
    """Plan for one victim-adjacent channel."""

    channel_id: str
    neighbor: str
    slot_limit: int
    max_traversals: int
    payments: tuple[BackForthRoute, ...]
    attacker_slots: int

    @property
    def paralyzable(self) -> bool:
        return self.max_traversals > 0


@dataclass
class IsolationPlan:
    victim: str
    tau_min: int
    per_channel: list[ChannelIsolation]
    entry_budget: int

    @property
    def unparalyzable(self) -> tuple[str, ...]:
        return tuple(c.channel_id for c in self.per_channel if not c.paralyzable)

    @property
    def total_payments(self) -> int:
        return sum(len(c.payments) for c in self.per_channel)

    @property
    def total_attacker_slots(self) -> int:
        return sum(c.attacker_slots for c in self.per_channel)

    @property
    def attacker_channels_needed(self) -> int:
        if self.total_attacker_slots == 0:
            return 0
        return -(-self.total_attacker_slots // self.entry_budget)

    @property
    def min_lock_duration(self) -> int | None:
        durations = [p.lock_duration for c in self.per_channel for p in c.payments]
        return min(durations) if durations else None

    def to_json_dict(self) -> dict:
        return {
            "kind": "isolation",
            "victim": self.victim,
            "tau_min": self.tau_min,
            "entry_budget": self.entry_budget,
            "attacker_channels_needed": self.attacker_channels_needed,
            "per_channel": [
                {
                    "channel_id": c.channel_id,
                    "neighbor": c.neighbor,
                    "slot_limit": c.slot_limit,
                    "max_traversals": c.max_traversals,
                    "attacker_slots": c.attacker_slots,
                    "payments": [
                        {
                            "traversals": p.traversals,
                            "timeout_sum": p.timeout_sum,
                            "lock_duration": p.lock_duration,
                        }
                        for p in c.payments
                    ],
                }
                for c in self.per_channel
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "IsolationPlan":
        if doc.get("kind") != "isolation":
            raise ValueError(f"not an isolation plan: kind={doc.get('kind')!r}")
        per_channel = [
            ChannelIsolation(
                channel_id=c["channel_id"],
                neighbor=c["neighbor"],
                slot_limit=int(c["slot_limit"]),
                max_traversals=int(c["max_traversals"]),
                payments=tuple(
                    BackForthRoute(
                        traversals=int(p["traversals"]),
                        timeout_sum=int(p["timeout_sum"]),
                        lock_duration=int(p["lock_duration"]),
                    )
                    for p in c["payments"]
                ),
                attacker_slots=int(c["attacker_slots"]),
            )
            for c in doc["per_channel"]
        ]
        return cls(
            victim=doc["victim"],
            tau_min=int(doc["tau_min"]),
            per_channel=per_channel,
            entry_budget=int(doc["entry_budget"]),
        )


def _alternating_timeout(d_first: int, d_second: int, traversals: int) -> int:
    odd = (traversals + 1) // 2
    even = traversals // 2
    return odd * d_first + even * d_second


def max_traversals_for_deltas(delta_victim: int, delta_neighbor: int, tau_min: int) -> int:
    """Largest usable traversal count for the given per-direction deltas.

    Bounded by the 20-hop onion limit (18 traversals after entry and exit)
    and by the locktime budget: traversals alternate direction starting on
    the victim side, each charging that side's forwarding delta.
    """
    budget = LOCKTIME_MAX - tau_min
    k = 0
    total = 0
    while k < MAX_TRAVERSALS:
        charge = delta_victim if k % 2 == 0 else delta_neighbor
        if total + charge > budget:
            break
        total += charge
        k += 1
    return k


def max_traversals(target: GraphChannel, victim: str, tau_min: int) -> int:
    """Traversal bound for a concrete channel, entered on the victim side."""
    neighbor = target.other_endpoint(victim)
    return max_traversals_for_deltas(
        target.delta_from(victim), target.delta_from(neighbor), tau_min
    )


def _payment_split(slots: int, k: int) -> tuple[list[int], int]:
    """Traversal counts of the ⌈slots/k⌉ payments that fill ``slots`` slots
    at up to ``k`` traversals each, and the attacker slots they take."""
    n_payments = -(-slots // k)
    residual = slots - (n_payments - 1) * k
    # Two attacker-side slots per payment; an odd residual is realized as an
    # even loop plus one pass-through hop, costing one extra entry slot.
    return [k] * (n_payments - 1) + [residual], 2 * n_payments + residual % 2


def _plan_channel(
    target: GraphChannel, victim: str, slots: int, tau_min: int
) -> ChannelIsolation:
    neighbor = target.other_endpoint(victim)
    k = max_traversals(target, victim, tau_min)
    if k == 0:
        logger.warning(
            "channel %s cannot be paralyzed at tau_min=%d", target.channel_id, tau_min
        )
        return ChannelIsolation(
            channel_id=target.channel_id,
            neighbor=neighbor,
            slot_limit=slots,
            max_traversals=0,
            payments=(),
            attacker_slots=0,
        )
    d_v = target.delta_from(victim)
    d_n = target.delta_from(neighbor)

    def route(traversals: int) -> BackForthRoute:
        timeout = _alternating_timeout(d_v, d_n, traversals)
        return BackForthRoute(
            traversals=traversals,
            timeout_sum=timeout,
            lock_duration=LOCKTIME_MAX - timeout,
        )

    counts, attacker_slots = _payment_split(slots, k)
    payments = tuple(route(t) for t in counts)
    return ChannelIsolation(
        channel_id=target.channel_id,
        neighbor=neighbor,
        slot_limit=slots,
        max_traversals=k,
        payments=payments,
        attacker_slots=attacker_slots,
    )


def _entry_budget(victim_label: ImplLabel, defaults: DefaultsTable) -> int:
    # Pending HTLCs on the attacker's entry channel are capped by both ends.
    return min(ATTACKER_SLOT_LIMIT, defaults.for_label(victim_label).max_concurrent_htlcs)


def plan_isolation(
    graph: NetworkGraph,
    labels: Mapping[str, ImplLabel],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
    victim: str | None = None,
    tau_min: int = 432,
) -> IsolationPlan:
    """Plan the paralysis of every channel adjacent to ``victim``.

    Uses each channel's actual announced policies for the locktime budget,
    and the labeled slot limits for payment counts. Channels where not even
    one traversal fits the budget are kept in the plan, flagged
    unparalyzable.
    """
    if victim is None:
        raise ValueError("victim node id is required")
    if not 0 < tau_min < LOCKTIME_MAX:
        raise ValueError(f"tau_min must be in (0, {LOCKTIME_MAX}), got {tau_min}")
    if graph.degree(victim) == 0:
        found_anywhere = victim in labels
        if not found_anywhere:
            raise ValueError(f"victim {victim} not found in graph")
        return IsolationPlan(
            victim=victim,
            tau_min=tau_min,
            per_channel=[],
            entry_budget=_entry_budget(labels[victim], defaults),
        )
    if victim not in labels:
        raise ValueError(f"victim {victim} has no implementation label")
    per_channel = [
        _plan_channel(ch, victim, channel_slot_limit(ch, labels, defaults), tau_min)
        for ch in map(graph.channel, graph.channels_of(victim))
    ]
    plan = IsolationPlan(
        victim=victim,
        tau_min=tau_min,
        per_channel=per_channel,
        entry_budget=_entry_budget(labels[victim], defaults),
    )
    logger.info(
        "isolating %s: %d channels, %d payments, %d attacker channels",
        victim,
        len(per_channel),
        plan.total_payments,
        plan.attacker_channels_needed,
    )
    return plan


def isolation_cost_curve(
    implementation: ImplLabel,
    degree_range: Sequence[int] | Iterable[int],
    tau_min: int = 432,
    defaults: DefaultsTable = MAINNET_DEFAULTS,
) -> list[tuple[int, int]]:
    """Attacker channels needed per victim degree, all nodes at one
    implementation's defaults.

    Closed form: every adjacent channel shares the implementation's slot
    limit and delta, so the per-channel payment count is fixed and the cost
    scales with degree divided by the entry-channel budget.
    """
    d = defaults.for_label(implementation)
    slots = d.max_concurrent_htlcs
    k = max_traversals_for_deltas(d.cltv_expiry_delta, d.cltv_expiry_delta, tau_min)
    budget = _entry_budget(implementation, defaults)
    curve = []
    for degree in degree_range:
        if degree < 0:
            raise ValueError(f"negative degree {degree}")
        if degree == 0 or k == 0:
            curve.append((degree, 0 if degree == 0 else math.inf))
            continue
        per_channel = _payment_split(slots, k)[1]
        curve.append((degree, -(-per_channel * degree // budget)))
    return curve

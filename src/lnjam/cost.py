"""Pricing attack plans: on-chain fees vs refundable locked liquidity.

Opening attacker channels burns on-chain fees; the payments themselves only
lock funds that return when the HTLCs resolve. The two must stay separate in
reports. Payment amounts ride just above the dust and minimum-HTLC floors of
the route, plus forwarding fees accumulated destination-to-source, so every
intermediate HTLC clears its local dust threshold.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

from .planner import AttackPlan, AttackRoute
from .topology import (
    MAINNET_DEFAULTS,
    MSAT_PER_SAT,
    ChannelPolicy,
    DefaultsTable,
    ImplLabel,
    NetworkGraph,
)

logger = logging.getLogger(__name__)

USD_PER_CHANNEL_OPEN = 2.2

# Approximate BTC/USD spot at the 2020-09-21 reference snapshot; used only
# to express locked liquidity in USD for reporting.
BTC_USD_RATE = 10900.0

SAT_PER_BTC = 100_000_000


@dataclass(frozen=True)
class RouteCost:
    route_index: int
    payment_amount_msat: int
    slot_class: int
    locked_liquidity_msat: int
    onchain_usd: float


@dataclass
class CostReport:
    """Separated attack costs: burned on-chain fees, refundable liquidity."""

    onchain_fees_usd: float
    locked_liquidity_msat: int
    per_route: list[RouteCost]
    usd_per_open: float = USD_PER_CHANNEL_OPEN
    btc_usd_rate: float = BTC_USD_RATE

    @property
    def locked_liquidity_sat(self) -> float:
        return self.locked_liquidity_msat / MSAT_PER_SAT

    @property
    def locked_liquidity_usd(self) -> float:
        return self.locked_liquidity_sat / SAT_PER_BTC * self.btc_usd_rate

    def to_json_dict(self) -> dict:
        return {
            "onchain_fees_usd": self.onchain_fees_usd,
            "locked_liquidity_msat": self.locked_liquidity_msat,
            "locked_liquidity_sat": self.locked_liquidity_sat,
            "locked_liquidity_usd": self.locked_liquidity_usd,
            "assumptions": {
                "usd_per_open": self.usd_per_open,
                "btc_usd_rate": self.btc_usd_rate,
            },
            "per_route": [
                {
                    "route_index": rc.route_index,
                    "payment_amount_msat": rc.payment_amount_msat,
                    "slot_class": rc.slot_class,
                    "locked_liquidity_msat": rc.locked_liquidity_msat,
                    "onchain_usd": rc.onchain_usd,
                }
                for rc in self.per_route
            ],
        }


def route_amounts(
    policies: Sequence[ChannelPolicy | None], delivered_msat: int
) -> list[int]:
    """Per-hop HTLC amounts for a delivered amount, fees backward-accumulated.

    ``policies`` govern the route's hops in order. Each hop carries the next
    hop's amount plus the fee the next hop's policy charges; the first hop
    leaves the sender, who charges itself nothing, so its policy never counts.
    """
    amounts = [delivered_msat]
    for policy in reversed(policies[1:]):
        amounts.append(amounts[-1] + policy.fee_msat(amounts[-1]))
    amounts.reverse()
    return amounts


def hop_amounts_msat(
    route: AttackRoute,
    graph: NetworkGraph,
    labels: Mapping[str, ImplLabel],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
) -> list[int]:
    """HTLC amount carried on each hop, entry first, exit floor last.

    The final entry (index 0) is the total the attacker sends; the last is
    the floor amount delivered back to the attacker's exit channel. Each
    forwarding node keeps the fee its outgoing hop's policy demands.
    """
    nodes = route.node_sequence
    dust_floor = max(
        defaults.for_label(labels[n]).dust_limit_sat for n in nodes
    ) * MSAT_PER_SAT
    policies = [
        graph.channel(h.channel_id).policy_from(h.from_node) for h in route.hops
    ]
    base = max(dust_floor, max(p.htlc_minimum_msat for p in policies))
    # None stands for the attacker's own entry hop. The exit hop charges
    # nothing, so the last victim hop already carries the floor.
    return route_amounts([None, *policies], base)


def payment_amount_for_route(
    route: AttackRoute,
    graph: NetworkGraph,
    labels: Mapping[str, ImplLabel],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
) -> int:
    """Total msat the attacker must send to hold one HTLC on every hop.

    The floor is the largest dust threshold along the route (in msat) or the
    largest htlc_minimum_msat, whichever is higher; fees accumulate backward
    from the destination so every intermediate residual stays at or above
    the floor.
    """
    return hop_amounts_msat(route, graph, labels, defaults)[0]


def price_plan(
    plan: AttackPlan,
    graph: NetworkGraph,
    labels: Mapping[str, ImplLabel],
    defaults: DefaultsTable = MAINNET_DEFAULTS,
) -> AttackPlan:
    """Fill in payment_amount_msat for every route, in place."""
    for route in plan.routes:
        route.payment_amount_msat = payment_amount_for_route(route, graph, labels, defaults)
    return plan


def estimate_costs(
    plan: AttackPlan,
    usd_per_open: float = USD_PER_CHANNEL_OPEN,
    batch_discount: float = 1.0,
    btc_usd_rate: float = BTC_USD_RATE,
) -> CostReport:
    """Price a plan whose routes carry payment amounts.

    Args:
        usd_per_open: on-chain cost of opening one channel.
        batch_discount: multiplier on on-chain fees for batched channel
            opens; 1.0 (no batching) by default.

    Raises:
        ValueError: when a route has no payment amount (run price_plan, or
            load a plan priced at planning time).
    """
    per_route = []
    locked_total = 0
    for i, route in enumerate(plan.routes, start=1):
        if route.payment_amount_msat is None:
            raise ValueError(f"route {i} is unpriced; run price_plan first")
        locked = route.slot_class * route.payment_amount_msat
        locked_total += locked
        per_route.append(
            RouteCost(
                route_index=i,
                payment_amount_msat=route.payment_amount_msat,
                slot_class=route.slot_class,
                locked_liquidity_msat=locked,
                onchain_usd=2 * usd_per_open * batch_discount,
            )
        )
    report = CostReport(
        onchain_fees_usd=2 * usd_per_open * batch_discount * len(plan.routes),
        locked_liquidity_msat=locked_total,
        per_route=per_route,
        usd_per_open=usd_per_open,
        btc_usd_rate=btc_usd_rate,
    )
    logger.info(
        "cost: %.2f USD on-chain, %.0f sat locked",
        report.onchain_fees_usd,
        report.locked_liquidity_sat,
    )
    return report


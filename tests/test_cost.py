"""Payment sizing and cost separation."""

import math
from dataclasses import replace

import pytest

from lnjam.cost import (
    BTC_USD_RATE,
    USD_PER_CHANNEL_OPEN,
    estimate_costs,
    hop_amounts_msat,
    price_plan,
)
from lnjam.inference import tag_nodes
from lnjam.planner import AttackPlan, PlannerConfig, choose_routes, plan_network_attack
from lnjam.simulator import execute_plan
from lnjam.topology import (
    MAINNET_DEFAULTS,
    ImplLabel,
    apply_slot_limits,
    build_graph,
    parse_snapshot,
)

import netgen


def _lnd_line(n_channels, **policy_overrides):
    base = netgen.DEFAULTS_BY_NAME["lnd"]
    nodes = [f"n{i:02d}" for i in range(n_channels + 1)]
    policy = netgen.policy_json(base, **policy_overrides)
    channels = [
        netgen.channel_json(f"e{i:02d}", nodes[i], nodes[i + 1], 5_000_000, policy, policy)
        for i in range(n_channels)
    ]
    graph = build_graph(parse_snapshot(netgen.snapshot_json(nodes, channels)))
    labels = {n: ImplLabel.LND for n in graph.nodes}
    graph = apply_slot_limits(graph, labels, MAINNET_DEFAULTS)
    return graph, labels


def _fee(policy, amount):
    return policy.fee_base_msat + math.ceil(
        amount * policy.fee_proportional_millionths / 1_000_000
    )


# -- hop amounts --------------------------------------------------------------


def test_two_hop_lnd_route_costs_575002_msat():
    graph, labels = _lnd_line(2)
    config = PlannerConfig()
    route = choose_routes(graph, config)[0]
    amounts = hop_amounts_msat(route, graph, labels)
    # Dust floor 573 sat, then 1000 msat base plus 1 msat proportional per hop.
    assert amounts == [575002, 574001, 573000]
    plan = price_plan(AttackPlan.covering(graph, [route], config.tau_min), graph, labels)
    assert plan.routes[0].payment_amount_msat == 575002


def test_amounts_satisfy_the_backward_fee_recurrence():
    routes_seen = 0
    for seed in range(25):
        snapshot = netgen.random_snapshot(
            14 + seed % 10, 8 + seed % 6, seed=700 + seed,
            impl_names=netgen.IMPL_NAMES,
        )
        graph = build_graph(snapshot)
        labels = tag_nodes(snapshot)
        graph = apply_slot_limits(graph, labels, MAINNET_DEFAULTS)
        for class_graph in _slot_class_subgraphs(graph, labels):
            for route in choose_routes(class_graph, PlannerConfig()):
                amounts = hop_amounts_msat(route, class_graph, labels)
                policies = [
                    class_graph.channel(h.channel_id).policy_from(h.from_node)
                    for h in route.hops
                ]
                floor = max(
                    max(
                        MAINNET_DEFAULTS[labels[n]].dust_limit_sat
                        for n in route.node_sequence
                    ) * 1000,
                    max(p.htlc_minimum_msat for p in policies),
                )
                assert amounts[-1] == floor
                assert all(a >= floor for a in amounts)
                for i, policy in enumerate(policies):
                    assert amounts[i] == amounts[i + 1] + _fee(policy, amounts[i + 1])
                routes_seen += 1
    assert routes_seen >= 100


def _slot_class_subgraphs(graph, labels):
    from lnjam.inference import split_by_slot_class

    return [sub for sub in split_by_slot_class(graph) if len(sub)]


def test_htlc_minimum_can_outrank_the_dust_floor():
    graph, labels = _lnd_line(2, min_htlc=700_000)
    route = choose_routes(graph, PlannerConfig())[0]
    amounts = hop_amounts_msat(route, graph, labels)
    assert amounts[-1] == 700_000


def test_dust_floor_uses_the_largest_along_the_route():
    # A C-Lightning line has 546 sat dust until one LND node raises it to 573.
    snapshot = netgen.line_snapshot([14, 14], impl="clightning")
    graph = build_graph(snapshot)
    cl_labels = {n: ImplLabel.CLIGHTNING for n in graph.nodes}
    graph_cl = apply_slot_limits(graph, cl_labels, MAINNET_DEFAULTS)
    route = choose_routes(graph_cl, PlannerConfig())[0]
    assert hop_amounts_msat(route, graph_cl, cl_labels)[-1] == 546_000
    mixed = dict(cl_labels, n01=ImplLabel.LND)
    assert hop_amounts_msat(route, graph_cl, mixed)[-1] == 573_000


def test_zero_floors_still_carry_one_msat():
    # No dust limit and no announced minimum: the floor is one msat, not a
    # zero-amount payment that the simulator refuses.
    lnd = replace(MAINNET_DEFAULTS[ImplLabel.LND], dust_limit_sat=0)
    defaults = {**MAINNET_DEFAULTS, ImplLabel.LND: lnd}
    graph, labels = _lnd_line(2, min_htlc=0, fee_base_msat=0, fee_rate_milli_msat=0)
    plan = plan_network_attack(graph, labels, defaults)
    assert [hop_amounts_msat(r, graph, labels, defaults) for r in plan.routes] == [[1, 1, 1]]
    report = execute_plan(plan, graph, labels, defaults)
    assert report.ok
    assert report.channels_locked == 2


# -- plan pricing -------------------------------------------------------------


def _priced_plan(seed=11):
    snapshot = netgen.random_snapshot(20, 14, seed=seed)
    graph = build_graph(snapshot)
    labels = tag_nodes(snapshot)
    graph = apply_slot_limits(graph, labels, MAINNET_DEFAULTS)
    plan = plan_network_attack(graph, labels, MAINNET_DEFAULTS, PlannerConfig())
    price_plan(plan, graph, labels)
    return plan, graph, labels


def test_estimate_requires_priced_routes():
    plan, graph, labels = _priced_plan()
    for route in plan.routes:
        route.payment_amount_msat = None
    with pytest.raises(ValueError, match="unpriced"):
        estimate_costs(plan)
    price_plan(plan, graph, labels)
    report = estimate_costs(plan)
    assert len(report.per_route) == len(plan.routes)


def test_onchain_cost_is_usd_per_open_times_channels():
    plan, _, _ = _priced_plan()
    report = estimate_costs(plan)
    assert plan.attacker_channels == 2 * len(plan.routes)
    assert report.onchain_fees_usd == pytest.approx(
        USD_PER_CHANNEL_OPEN * plan.attacker_channels
    )
    discounted = estimate_costs(plan, batch_discount=0.5)
    assert discounted.onchain_fees_usd == pytest.approx(
        0.5 * USD_PER_CHANNEL_OPEN * plan.attacker_channels
    )


def test_cost_channels_are_separated():
    plan, _, _ = _priced_plan()
    base = estimate_costs(plan)
    # Liquidity is slot_class * payment amount per route, refundable, and
    # never touches the on-chain figure.
    assert base.locked_liquidity_msat == sum(
        r.slot_class * r.payment_amount_msat for r in plan.routes
    )
    pricier_btc = estimate_costs(plan, btc_usd_rate=2 * BTC_USD_RATE)
    assert pricier_btc.onchain_fees_usd == base.onchain_fees_usd
    assert pricier_btc.locked_liquidity_msat == base.locked_liquidity_msat
    assert pricier_btc.locked_liquidity_usd == pytest.approx(
        2 * base.locked_liquidity_usd
    )
    pricier_open = estimate_costs(plan, usd_per_open=10.0)
    assert pricier_open.locked_liquidity_msat == base.locked_liquidity_msat
    assert pricier_open.onchain_fees_usd == pytest.approx(
        10.0 * plan.attacker_channels
    )


def test_locked_liquidity_usd_conversion():
    plan, _, _ = _priced_plan()
    report = estimate_costs(plan)
    expected = report.locked_liquidity_msat / 1000 / 100_000_000 * BTC_USD_RATE
    assert report.locked_liquidity_usd == pytest.approx(expected)
    doc = report.to_json_dict()
    assert doc["assumptions"]["usd_per_open"] == USD_PER_CHANNEL_OPEN
    assert doc["per_route"][0]["route_index"] == 1


@pytest.mark.parametrize("kwargs, message", [
    (dict(usd_per_open=-2.0), "usd_per_open must be finite and positive, got -2.0"),
    (dict(usd_per_open=0.0), "usd_per_open must be finite and positive"),
    (dict(usd_per_open=math.inf), "usd_per_open must be finite and positive"),
    (dict(btc_usd_rate=math.nan), "btc_usd_rate must be finite and positive, got nan"),
    (dict(btc_usd_rate=-1.0), "btc_usd_rate must be finite and positive"),
    (dict(batch_discount=math.nan), r"batch_discount must be in \(0, 1\], got nan"),
    (dict(batch_discount=0.0), "batch_discount must be in"),
    (dict(batch_discount=1.5), "batch_discount must be in"),
])
def test_estimate_rejects_bad_pricing_inputs(kwargs, message):
    plan, _, _ = _priced_plan()
    with pytest.raises(ValueError, match=message):
        estimate_costs(plan, **kwargs)
